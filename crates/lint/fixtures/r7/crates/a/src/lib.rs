//! R7 fixture: one `pub` fn per case, in the shape of a real crate.

/// Called only from `crates/a/tests/calls.rs`: fires.
pub fn only_tested() -> u32 {
    1
}

/// Called from another crate's `src`: clean.
pub fn used_by_b() -> u32 {
    2
}

/// Called only from the `#[cfg(test)]` helper below: fires.
pub(crate) fn only_from_test_helper() -> u32 {
    3
}

/// Called from non-test code after that helper: clean.
pub(crate) fn used_after_helper() -> u32 {
    4
}

// A test helper in the middle of the file (the `pack.rs` shape): only
// this item is test code, not the rest of the file.
#[cfg(test)]
pub(crate) fn pinned() -> u32 {
    only_from_test_helper()
}

/// The non-test caller of `used_after_helper`; `b` calls it.
pub fn after_helper() -> u32 {
    used_after_helper()
}

/// Test-only, with a reason: suppressed.
// lint:allow(R7) reference implementation the tests compare against
pub fn oracle() -> u32 {
    5
}

/// Test-only, and its pragma gives no reason: P0, and R7 still fires.
// lint:allow(R7)
pub fn unexplained() -> u32 {
    6
}
