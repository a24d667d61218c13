#[test]
fn makes_a_token() {
    let _ = fix_public::make_token();
}
