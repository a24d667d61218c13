fn main() {
    println!("{}", fix_public::used_by_bin());
}
