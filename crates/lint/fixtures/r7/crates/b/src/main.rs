//! Another crate: its calls count.

fn main() {
    println!("{}", a::used_by_b() + a::after_helper());
}
