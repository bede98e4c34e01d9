//! Acceptance check: a steady-state `refactorize` on a host engine
//! performs no per-supernode heap allocation — both engines run every front
//! through the shared front loop on warm arenas. A counting global
//! allocator measures one warm refactorization; the bound is a small
//! constant (permuting the new values, the trace plumbing and, for SMP, the
//! worker threads and the scheduler's per-run arrays allocate O(1) buffers
//! per call), far below the supernode count.
//!
//! Keep this the only test in this file: the allocator counter is global,
//! and a concurrently-running test would pollute the count.

use parfact_core::smp::SmpOpts;
use parfact_core::solver::{Engine, FactorOpts, SparseCholesky};
use parfact_sparse::gen;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

// SAFETY: pure pass-through to the System allocator plus an atomic
// counter bump — every layout/pointer contract is forwarded unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY (all three methods): arguments are forwarded verbatim to
    // `System`, which upholds the GlobalAlloc contract; the counter
    // side-effect never touches the allocation itself.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same layout the caller handed us.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: see the impl-level note — verbatim forward.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from a matching `alloc` call.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: see the impl-level note — verbatim forward.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr`/`layout` come from a matching `alloc` call.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_refactorize_makes_no_per_supernode_allocations() {
    let a = gen::laplace2d(40, 40, gen::Stencil2d::FivePoint);
    let mut chol = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
    let nsuper = chol.symbolic().nsuper();
    assert!(nsuper > 100, "problem too small to be meaningful: {nsuper}");

    let mut a2 = a.clone();
    for v in a2.values_mut() {
        *v *= 2.0;
    }
    let smp = Engine::Smp(SmpOpts { threads: 2 });
    for engine in [Engine::Sequential, smp] {
        // Warm-up refactorizations grow every arena to its plan's size.
        for _ in 0..8 {
            chol.refactorize(&a2, engine.clone()).unwrap();
        }
        ALLOC_COUNT.store(0, Ordering::SeqCst);
        COUNTING.store(true, Ordering::SeqCst);
        chol.refactorize(&a2, engine.clone()).unwrap();
        COUNTING.store(false, Ordering::SeqCst);
        let count = ALLOC_COUNT.load(Ordering::SeqCst);

        // Both engines give every update the same place on every run, so
        // neither grows an arena once warm (pinned by the solver's unit
        // test `every_engine_sequence_keeps_each_arena_at_its_largest_plan`).
        // Permuting the new values into the factorization order, report
        // bookkeeping and (SMP) the worker threads and the scheduler's
        // per-run arrays allocate a handful of buffers per call — but
        // nothing proportional to the number of supernodes.
        assert!(
            count < 64,
            "steady-state {} refactorize made {count} allocations over {nsuper} supernodes",
            engine.name()
        );
    }

    let b = vec![1.0; a.nrows()];
    let x = chol.solve(&b);
    assert!(parfact_sparse::ops::sym_residual_inf(&a2, &x, &b) < 1e-12);
}
