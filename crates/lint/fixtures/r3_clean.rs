// lint-fixture-path: crates/core/src/demo.rs
// Clean: both accepted documentation forms — a `// SAFETY:` comment at
// the block and a `/// # Safety` doc section on an unsafe fn.

fn write_cell(p: *mut f64) {
    // SAFETY: caller guarantees `p` points at a live, exclusively-owned
    // f64 (see the fixture's own contract on `write_raw`).
    unsafe {
        *p = 1.0;
    }
}

/// # Safety
/// `p` must be valid for writes and not aliased.
unsafe fn write_raw(p: *mut f64) {
    // SAFETY: forwarded contract from the enclosing unsafe fn.
    unsafe { *p = 2.0 }
}
