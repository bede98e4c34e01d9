//! Reusable numeric-factorization workspaces.
//!
//! Steady-state factorization (and especially [`crate::solver::SparseCholesky::refactorize`])
//! should not pay one heap allocation per supernode for update matrices
//! and packing scratch (a front's pivot columns are factored in the factor
//! slab itself, and where every value lands in a front is the analysis'
//! assembly map, `Symbolic::sn_rel` and `Symbolic::a_pos`, which needs no
//! per-worker state). A [`FrontWorkspace`] owns every buffer a
//! worker needs to process a supernode; a [`Workspace`] holds one per
//! worker thread plus the engine-level update hand-off slots. Buffers only
//! ever grow, so after the first factorization of a given structure every
//! subsequent run reuses warm memory — [`Workspace::growth_events`] counts
//! how often a buffer had to grow, which the arena-reuse tests pin to zero
//! for repeat factorizations.
//!
//! (The packing buffers of the dense microkernels are thread-local inside
//! `parfact-dense` and follow the same grow-once discipline.)

use crate::frontal::UpdateMatrix;
use std::collections::HashMap;

/// Per-worker arena: child-update staging and a pool of recycled
/// update-matrix buffers (a front's trailing block is assembled and
/// factored in the buffer that then carries it to the parent).
#[derive(Default)]
pub struct FrontWorkspace {
    /// Child updates staged for assembly by the engine
    /// ([`FrontWorkspace::stage`]); drained back into `pool` after each
    /// front.
    pub(crate) children: Vec<UpdateMatrix>,
    /// Recycled update-matrix buffers, keyed by length. Update sizes are a
    /// function of the symbolic structure, so in steady state every request
    /// is matched by a buffer recycled at exactly that size — a plain LIFO
    /// stack would pair requests with arbitrary capacities and keep
    /// growing.
    pub(crate) pool: HashMap<usize, Vec<Vec<f64>>>,
    /// How many times a buffer request outgrew what the arena had.
    pub(crate) growth_events: u64,
}

impl FrontWorkspace {
    pub(crate) fn new() -> Self {
        FrontWorkspace::default()
    }

    /// Stage the child updates the next front assembles (dropping any a
    /// front that failed mid-way left behind).
    pub(crate) fn stage(&mut self, updates: impl Iterator<Item = UpdateMatrix>) {
        self.children.clear();
        self.children.extend(updates);
    }

    /// Grab a buffer for an update matrix of `len` entries; counts a growth
    /// event when the pool cannot satisfy the request from warm memory.
    pub(crate) fn take_buf(&mut self, len: usize) -> Vec<f64> {
        if let Some(b) = self.pool.get_mut(&len).and_then(|stack| stack.pop()) {
            return b;
        }
        self.growth_events += 1;
        Vec::with_capacity(len)
    }

    /// Return an update-matrix buffer to the pool (its current length is
    /// its size class).
    pub(crate) fn recycle(&mut self, buf: Vec<f64>) {
        self.pool.entry(buf.len()).or_default().push(buf);
    }
}

/// Engine-level workspace: one [`FrontWorkspace`] per worker thread plus
/// the per-supernode update hand-off slots. Owned by
/// [`crate::solver::SparseCholesky`] so `refactorize` reuses all of it.
#[derive(Default)]
pub struct Workspace {
    /// Worker arenas (index = worker id; sequential engines use slot 0).
    pub(crate) threads: Vec<FrontWorkspace>,
    /// `slots[s]` holds supernode `s`'s update matrix until its parent
    /// assembles (sequential engine; the SMP engine wraps its own slots in
    /// mutexes for cross-thread hand-off).
    pub(crate) slots: Vec<Option<UpdateMatrix>>,
}

impl Workspace {
    /// Empty workspace; buffers are grown on first use.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Make sure worker arenas `0..k` exist.
    pub(crate) fn ensure_threads(&mut self, k: usize) {
        while self.threads.len() < k {
            self.threads.push(FrontWorkspace::new());
        }
    }

    /// Total buffer-growth events across all worker arenas. Zero for a
    /// factorization that ran entirely in warm buffers (the steady-state
    /// `refactorize` guarantee).
    pub fn growth_events(&self) -> u64 {
        self.threads.iter().map(|t| t.growth_events).sum()
    }
}
