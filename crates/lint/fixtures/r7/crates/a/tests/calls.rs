//! A test file: what it calls earns no caller, and what it defines is not
//! flagged.

pub fn test_helper() -> u32 {
    a::only_tested() + a::oracle() + a::unexplained()
}
