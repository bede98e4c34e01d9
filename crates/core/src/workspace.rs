//! Reusable numeric-factorization workspaces.
//!
//! Steady-state factorization (and especially [`crate::solver::SparseCholesky::refactorize`])
//! should not pay one heap allocation per supernode for update matrices
//! and packing scratch (a front's pivot columns are factored in the factor
//! slab itself, and where every value lands in a front is the analysis'
//! assembly map, `Symbolic::sn_rel` and `Symbolic::a_pos`, which needs no
//! per-worker state). A [`FrontWorkspace`] owns every buffer a
//! worker needs to process a supernode; a [`Workspace`] holds one per
//! worker thread plus the engine-level update hand-off slots.
//!
//! The update buffers are pooled best-fit by capacity: a request takes the
//! smallest pooled buffer that holds it, so an arena holds about as many
//! buffers as there are updates alive at once on the front stack (children
//! waiting for their parent, plus the one being built), not one per
//! distinct update size. Buffers are kept until the workspace is dropped,
//! so after the first factorization of a given structure every subsequent
//! run in the same order is served from warm memory —
//! [`Workspace::growth_events`] counts how often no pooled buffer fit,
//! which the arena-reuse tests pin to zero for repeat sequential
//! factorizations. The SMP engine's workers do not build the same fronts
//! every run, and a buffer is recycled into the arena of the worker that
//! consumed it, so its arenas drift: a warm SMP run grows a few buffers,
//! and the arenas' pooled buffers slowly outgrow one live stack each.
//!
//! (The packing buffers of the dense microkernels are thread-local inside
//! `parfact-dense` and follow the same grow-once discipline.)

use crate::frontal::UpdateMatrix;

/// Per-worker arena: child-update staging and a pool of recycled
/// update-matrix buffers (a front's trailing block is assembled and
/// factored in the buffer that then carries it to the parent).
#[derive(Default)]
pub struct FrontWorkspace {
    /// Child updates staged for assembly by the engine
    /// ([`FrontWorkspace::stage`]); drained back into `pool` after each
    /// front.
    pub(crate) children: Vec<UpdateMatrix>,
    /// Recycled update-matrix buffers, sorted by capacity (ascending); a
    /// request takes the smallest one that fits. Update sizes are a
    /// function of the symbolic structure and a run visits the fronts in a
    /// fixed order, so a repeat run meets the same requests and finds each
    /// of them a fit. Insertion and removal shift the vector in place, so
    /// they never allocate once it has reached its steady length.
    pub(crate) pool: Vec<Vec<f64>>,
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

    /// Grab a buffer that can hold an update matrix of `len` entries: the
    /// smallest pooled one whose capacity is at least `len`. Counts a
    /// growth event (and allocates) only when no pooled buffer fits. The
    /// caller sizes it (`clear` + `resize`), so its contents do not matter.
    pub(crate) fn take_buf(&mut self, len: usize) -> Vec<f64> {
        let i = self.pool.partition_point(|b| b.capacity() < len);
        if i < self.pool.len() {
            return self.pool.remove(i);
        }
        self.growth_events += 1;
        Vec::with_capacity(len)
    }

    /// Return an update-matrix buffer to the pool, filed by its capacity.
    pub(crate) fn recycle(&mut self, buf: Vec<f64>) {
        let i = self.pool.partition_point(|b| b.capacity() < buf.capacity());
        self.pool.insert(i, buf);
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
