fn main() {
    println!("{}", fix_reach::used_by_benchmark());
}
