//! Reusable numeric-factorization workspaces, and the one place fresh
//! numeric memory comes from.
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
//! kept until the workspace is dropped. The factor slab
//! (`Factor::allocate`), every arena and each simulated rank's arena of a
//! distributed run (`dist::DistRun::run`) come from `zeroed`: a mapping
//! of their own, of which only their length is ever touched, on
//! transparent huge pages where the kernel has them. (The packing buffers
//! of the dense microkernels are thread-local inside `parfact-dense` and
//! also grow once.)

use crate::mapping::Plan;
use crate::smp_solve::Plans;

/// Entries of address space [`zeroed`] maps at least: 33 MiB. glibc's
/// malloc maps a request this large on its own and leaves its pages
/// untouched until they are written, so the resident memory is the
/// buffer's length; and unmapping it leaves malloc's dynamic mmap
/// threshold alone, which only follows freed mappings of up to 32 MiB. A
/// smaller buffer, once freed, raises that threshold to its size, and every
/// later allocation below it (a simulated machine's fronts and messages
/// among them) comes from heaps that keep freed pages resident: with the
/// 27 MB sequential arena of lap3d-32 the benchmark's `dist_scale` peak
/// RSS rose 312 → 363 MB, and with this reserve fell to 284 MB.
const RESERVE: usize = (33 << 20) / std::mem::size_of::<f64>();

/// Bytes of a transparent huge page (x86-64 and aarch64 with 4 KiB pages).
const HUGE_PAGE: usize = 2 << 20;

/// `len` zeros in a fresh mapping of at least [`RESERVE`] entries, of
/// which only the first `len` are ever touched: the factor slab and the
/// update arenas.
///
/// On Linux the whole 2 MiB pages inside the buffer are advised
/// `MADV_HUGEPAGE`. The kernel then fills each on first touch with one
/// zeroed huge page instead of 512 faults of 4 KiB: a cold sequential
/// factorization of lap3d-32 (a 21 861-page slab) takes about 28 500
/// minor faults without the advice and about 1 400 with it, and its
/// assembly (`frontal.extend_add_s`) takes a third less time. The advice
/// changes no byte, and where the kernel has no huge page to give (or
/// none at all) it is ignored.
pub(crate) fn zeroed(len: usize) -> Vec<f64> {
    let mut buf = vec![0.0; len.max(RESERVE)];
    buf.truncate(len);
    let pages = huge_pages(buf.as_ptr() as usize, len * std::mem::size_of::<f64>());
    #[cfg(all(target_os = "linux", not(miri)))]
    // The crate's one `unsafe`: a system call std does not wrap.
    #[allow(unsafe_code)]
    if !pages.is_empty() {
        use std::ffi::{c_int, c_void};
        extern "C" {
            fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        }
        const MADV_HUGEPAGE: c_int = 14;
        // SAFETY: `pages` is a range of whole pages inside `buf`'s live
        // allocation, and `MADV_HUGEPAGE` only changes how the kernel backs
        // them, never their contents. A failure (no THP support) leaves
        // the buffer as it was, so the result is ignored.
        unsafe { madvise(pages.start as *mut _, pages.len(), MADV_HUGEPAGE) };
    }
    #[cfg(not(all(target_os = "linux", not(miri))))]
    let _ = pages;
    buf
}

/// The whole [`HUGE_PAGE`]s inside the `bytes` bytes from address `start`
/// (empty when there is none).
fn huge_pages(start: usize, bytes: usize) -> std::ops::Range<usize> {
    let lo = start.next_multiple_of(HUGE_PAGE);
    let hi = (start + bytes) / HUGE_PAGE * HUGE_PAGE;
    lo..hi.max(lo)
}

/// Engine-level workspace of one analysis: one update arena per worker
/// thread and the run plans. Owned by [`crate::solver::SparseCholesky`] so
/// `refactorize` and the solves reuse all of it.
#[derive(Default)]
pub struct Workspace {
    /// Update arenas (index = worker id; the sequential engine uses 0).
    pub(crate) arenas: Vec<Vec<f64>>,
    /// The run plans, one per thread count, each built on first use.
    pub(crate) plans: Plans,
}

impl Workspace {
    /// Empty workspace; arenas are grown on first use.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// The arenas of `plan`'s workers, each grown to the plan's length
    /// where it is shorter.
    pub(crate) fn arenas_for(&mut self, plan: &Plan) -> &mut [Vec<f64>] {
        let n = self.arenas.len().max(plan.arena.len());
        self.arenas.resize_with(n, Vec::new);
        for (arena, &len) in self.arenas.iter_mut().zip(&plan.arena) {
            if arena.len() < len {
                *arena = zeroed(len);
            }
        }
        &mut self.arenas
    }

    /// Where each arena's storage starts: a grown arena is a new
    /// allocation, so a run that grew none leaves this as it was.
    #[cfg(test)]
    pub(crate) fn arena_addrs(&self) -> Vec<*const f64> {
        self.arenas.iter().map(|a| a.as_ptr()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_gives_len_zeros_in_a_mapping_of_at_least_the_reserve() {
        let huge = HUGE_PAGE / std::mem::size_of::<f64>();
        for len in [0, 1, huge - 1, huge + 1, RESERVE - 1, RESERVE + 1] {
            let buf = zeroed(len);
            assert_eq!(buf.len(), len);
            assert!(buf.capacity() >= RESERVE, "len {len}");
            assert!(buf.iter().all(|&x| x.to_bits() == 0), "len {len}");
            // The advice stays inside the buffer wherever it starts (a
            // mapping from glibc's malloc starts past its chunk header,
            // never on a 2 MiB boundary).
            let (start, bytes) = (buf.as_ptr() as usize, len * std::mem::size_of::<f64>());
            let pages = huge_pages(start, bytes);
            assert!(pages.is_empty() || (start <= pages.start && pages.end <= start + bytes));
        }
    }

    #[test]
    fn huge_pages_are_the_whole_ones_inside_the_range() {
        let h = HUGE_PAGE;
        assert_eq!(huge_pages(4 * h, 2 * h), 4 * h..6 * h);
        assert_eq!(huge_pages(4 * h + 16, 2 * h), 5 * h..6 * h);
        assert_eq!(huge_pages(4 * h - 16, 2 * h + 32), 4 * h..6 * h);
        assert!(huge_pages(4 * h + 16, h).is_empty());
        assert!(huge_pages(4 * h, h - 1).is_empty());
        assert!(huge_pages(4 * h + 16, 0).is_empty());
    }

    #[cfg(target_os = "linux")]
    #[test]
    #[ignore = "benchmark-sized matrix: run in release"]
    fn a_cold_factorization_faults_a_fraction_of_the_slab_pages() {
        use crate::factor::FactorKind;
        use crate::seq::{factorize_seq, factorize_seq_into};
        use parfact_sparse::gen;
        use parfact_symbolic::{analyze, AmalgOpts};
        use parfact_trace::Collector;
        use std::sync::Arc;
        // Minor faults of the calling thread: field 10 of its stat line,
        // the 8th after the `)` that closes its name.
        fn minflt() -> usize {
            let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap();
            let fields = &stat[stat.rfind(')').unwrap() + 2..];
            fields.split(' ').nth(7).unwrap().parse().unwrap()
        }
        let a = gen::laplace3d(32, 32, 32, gen::Stencil3d::SevenPoint);
        let fill = parfact_order::order_matrix(&a, parfact_order::Method::default());
        let (sym, ap) = analyze(&fill.apply_sym_lower(&a), &AmalgOpts::default());
        let sym = Arc::new(sym);
        let factorize = || factorize_seq(&ap, &sym, FactorKind::Llt, sym.post.clone()).unwrap();
        // A first run grows the dense kernels' packing buffers.
        drop(factorize());
        let before = minflt();
        let mut factor = factorize();
        let cold = minflt() - before;
        // A refactorize: the same slab, and an arena grown by a first run.
        let (tr, mut ws) = (Collector::disabled(), Workspace::new());
        factorize_seq_into(&ap, &sym, &tr, &mut ws, &mut factor).unwrap();
        let before = minflt();
        factorize_seq_into(&ap, &sym, &tr, &mut ws, &mut factor).unwrap();
        let warm = minflt() - before;
        let pages = factor.panels.len() * std::mem::size_of::<f64>() / 4096;
        let thp = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
            .unwrap_or_default();
        println!(
            "lap3d-32: slab of {pages} pages of 4 KiB; minor faults: cold factorize {cold}, \
             refactorize {warm} (transparent huge pages: {})",
            thp.trim()
        );
        if !thp.is_empty() && !thp.contains("[never]") {
            assert!(4 * cold < pages, "cold factorize: {cold} faults");
            assert!(100 * warm < pages, "refactorize: {warm} faults");
        }
    }
}
