fn main() {
    println!("{}", fix_public::used_by_bin());
}

/// Named nowhere, at a binary's root: flagged.
pub fn bin_orphan() -> u32 {
    9
}
