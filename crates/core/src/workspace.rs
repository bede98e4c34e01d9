//! Reusable numeric-factorization workspaces.
//!
//! Steady-state factorization (and especially [`crate::solver::SparseCholesky::refactorize`])
//! should not pay one heap allocation per supernode. A front's pivot
//! columns are factored in the factor slab itself, where every value lands
//! in a front is the analysis' assembly map (`Symbolic::sn_rel`,
//! `Symbolic::a_pos`), and its update is written at a fixed place of its
//! worker's arena: the run plan (`mapping::Plan`, one per thread count,
//! built on first use and kept here for the mapped solves too) lays each
//! worker's updates out by first fit over the order it runs them. So
//! which memory backs which update never depends on what ran before, and
//! the SMP top reads each local root's update where its thread left it.
//!
//! An arena is one `Vec<f64>`, grown to the largest plan it has served and
//! kept until the workspace is dropped; [`Workspace::growth_events`] counts
//! the growths. Each reserves at least 33 MiB of address space
//! (`ARENA_RESERVE`), of which only its length is ever touched. (The
//! packing buffers of the dense microkernels are thread-local inside
//! `parfact-dense` and also grow once.)

use crate::mapping::Plan;
use crate::smp_solve::Plans;

/// Entries of address space an arena reserves at least: 33 MiB. glibc's
/// malloc maps a request this large on its own and leaves its pages
/// untouched until an update is written there, so the resident memory is
/// the arena's length; and unmapping it leaves malloc's dynamic mmap
/// threshold alone, which only follows freed mappings of up to 32 MiB. A
/// smaller arena, once freed, raises that threshold to its size, and every
/// later allocation below it (a simulated machine's fronts and messages
/// among them) comes from heaps that keep freed pages resident: with the
/// 27 MB sequential arena of lap3d-32 the benchmark's `dist_scale` peak
/// RSS rose 312 → 363 MB, and with this reserve fell to 284 MB.
const ARENA_RESERVE: usize = (33 << 20) / std::mem::size_of::<f64>();

/// Engine-level workspace of one analysis: one update arena per worker
/// thread and the run plans. Owned by [`crate::solver::SparseCholesky`] so
/// `refactorize` and the solves reuse all of it.
#[derive(Default)]
pub struct Workspace {
    /// Update arenas (index = worker id; the sequential engine uses 0).
    pub(crate) arenas: Vec<Vec<f64>>,
    /// The run plans, one per thread count, each built on first use.
    pub(crate) plans: Plans,
    /// How many times an arena had to grow.
    growth_events: u64,
}

impl Workspace {
    /// Empty workspace; arenas are grown on first use.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// The arenas of `plan`'s workers, each grown to the plan's length
    /// where it is shorter (one growth event per arena that grows).
    pub(crate) fn arenas_for(&mut self, plan: &Plan) -> &mut [Vec<f64>] {
        let n = self.arenas.len().max(plan.arena.len());
        self.arenas.resize_with(n, Vec::new);
        for (arena, &len) in self.arenas.iter_mut().zip(&plan.arena) {
            if arena.len() < len {
                // Zeroed pages of a fresh mapping: cutting it to `len`
                // touches none of the reserve.
                *arena = vec![0.0; len.max(ARENA_RESERVE)];
                arena.truncate(len);
                self.growth_events += 1;
            }
        }
        &mut self.arenas
    }

    /// Total arena-growth events. Zero for a factorization that ran
    /// entirely in warm arenas (the steady-state `refactorize` guarantee).
    pub fn growth_events(&self) -> u64 {
        self.growth_events
    }
}
