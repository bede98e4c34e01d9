//! Batched-solve contracts across the three engines: the blocked
//! multi-RHS sweeps are bitwise identical to one-at-a-time solves for any
//! block size, all engines agree on the same block, dimension errors are
//! typed (never panics), and streaming columns through in blocks changes
//! no answer.

use parfact::core::dist::{prepare, DistRun};
use parfact::core::smp_solve;
use parfact::core::solver::{FactorOpts, RhsBlock, SolveEngine, SolveOpts, SparseCholesky};
use parfact::core::FactorKind::{Ldlt, Llt};
use parfact::core::{Factor, FactorError, FactorKind};
use parfact::mpsim::model::CostModel;
use parfact::order::Method;
use parfact::sparse::csc::CscMatrix;
use parfact::sparse::{gen, ops};
use parfact::symbolic::AmalgOpts;
use parfact::TraceLevel;
use proptest::prelude::*;

fn rhs_block(n: usize, nrhs: usize, seed: u64) -> Vec<f64> {
    // Deterministic, engine-independent xorshift fill.
    let mut s = seed | 1;
    (0..n * nrhs)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s % 2000) as f64 - 1000.0) / 250.0
        })
        .collect()
}

/// The acceptance-criteria invariant: for every engine, solving a block is
/// bitwise the same as solving its columns one by one.
#[test]
fn blocked_solve_is_bitwise_identical_to_per_column_loop() {
    let a = gen::laplace3d(6, 5, 4, gen::Stencil3d::SevenPoint);
    let n = a.nrows();
    let chol = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
    for nrhs in [1usize, 2, 7, 32] {
        let b = rhs_block(n, nrhs, 0x5eed + nrhs as u64);
        let batched = chol
            .solve_with(RhsBlock::new(&b, nrhs), &SolveOpts::new())
            .unwrap();
        let smp_batched = chol
            .solve_with(
                RhsBlock::new(&b, nrhs),
                &SolveOpts::new().engine(SolveEngine::Smp { threads: 4 }),
            )
            .unwrap();
        for col in 0..nrhs {
            let bcol = &b[col * n..(col + 1) * n];
            let one = chol.solve(bcol);
            for (p, q) in batched.x[col * n..(col + 1) * n].iter().zip(&one) {
                assert_eq!(p.to_bits(), q.to_bits(), "seq nrhs={nrhs} col={col}");
            }
            let one_smp = smp_solve::solve_smp_many(chol.factor(), bcol, 1, 4).unwrap();
            for (p, q) in smp_batched.x[col * n..(col + 1) * n].iter().zip(&one_smp) {
                assert_eq!(p.to_bits(), q.to_bits(), "smp nrhs={nrhs} col={col}");
            }
        }
    }
}

/// FNV-1a over the `to_bits()` of every entry.
fn bits_hash(x: &[f64]) -> u64 {
    x.iter().fold(0xcbf29ce484222325u64, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x100000001b3)
    })
}

/// What a golden row pins.
#[derive(Debug, Clone, Copy)]
enum Pin {
    /// Hash of the sequential solve of an `nrhs` block.
    Seq(usize),
    /// Hash of the SMP solve (2 threads) of an `nrhs` block.
    Smp(usize),
    /// Hash of every factor panel bit, then the LDLᵀ pivots.
    Panels,
    /// `counters.bytes_assembled` of the factorization (a count).
    BytesAssembled,
}

fn golden_matrix(name: &str) -> CscMatrix {
    match name {
        "lap3d-6" => gen::laplace3d(6, 6, 6, gen::Stencil3d::SevenPoint),
        "lap2d-40" => gen::laplace2d(40, 40, gen::Stencil2d::FivePoint),
        "elas-5" => gen::elasticity3d(5, 5, 5),
        _ => unreachable!("no golden matrix {name}"),
    }
}

/// Golden factor and solve bits: `(matrix, kind, pin, value)`. The factor
/// rows were captured before front assembly moved onto the analysis'
/// relative indices, the SMP rows before the three solve paths were
/// collapsed onto one supernode step; both changes left them alone. The
/// sequential rows were re-captured when the sequential sweep moved onto
/// the SMP solve's child fold order: each now equals its SMP row. The
/// `nrhs` 9 and 16 rows (one full 8-lane chunk plus a remainder, two full
/// chunks) were captured on the scalar solve kernels, before those were
/// compiled per instruction set; every copy reproduces them. The
/// factor's per-entry assembly order and the sweeps' fold order and kernel
/// call order are part of the contract. A change that means to move them
/// re-captures with `PARFACT_PRINT_GOLDEN=1 cargo test --test solve_batched
/// sequential_solve_bits -- --nocapture`.
const GOLDEN: &[(&str, FactorKind, Pin, u64)] = &[
    ("lap3d-6", Llt, Pin::Seq(1), 0x0b5d35a704fae23c),
    ("lap3d-6", Llt, Pin::Seq(5), 0x2453165d45a9e8db),
    ("lap3d-6", Llt, Pin::Smp(1), 0x0b5d35a704fae23c),
    ("lap3d-6", Llt, Pin::Smp(5), 0x2453165d45a9e8db),
    ("lap3d-6", Llt, Pin::Seq(9), 0x47c4da749eee7183),
    ("lap3d-6", Llt, Pin::Seq(16), 0xc42ad49723552113),
    ("lap3d-6", Llt, Pin::Smp(9), 0x47c4da749eee7183),
    ("lap3d-6", Llt, Pin::Smp(16), 0xc42ad49723552113),
    ("lap3d-6", Llt, Pin::Panels, 0x238356cd8af01599),
    ("lap3d-6", Llt, Pin::BytesAssembled, 41384),
    ("lap3d-6", Ldlt, Pin::Seq(1), 0xac7f7f0de71be505),
    ("lap3d-6", Ldlt, Pin::Seq(5), 0x20adec1c4f19eb91),
    ("lap3d-6", Ldlt, Pin::Smp(1), 0xac7f7f0de71be505),
    ("lap3d-6", Ldlt, Pin::Smp(5), 0x20adec1c4f19eb91),
    ("lap3d-6", Ldlt, Pin::Seq(9), 0xe5d0004d67e541ac),
    ("lap3d-6", Ldlt, Pin::Seq(16), 0x67e10029dd3c9f9e),
    ("lap3d-6", Ldlt, Pin::Smp(9), 0xe5d0004d67e541ac),
    ("lap3d-6", Ldlt, Pin::Smp(16), 0x67e10029dd3c9f9e),
    ("lap3d-6", Ldlt, Pin::Panels, 0x66ab6cadb1c6dd45),
    ("lap3d-6", Ldlt, Pin::BytesAssembled, 41384),
    ("lap2d-40", Llt, Pin::Seq(1), 0xbc3c51c54df37f9a),
    ("lap2d-40", Llt, Pin::Seq(5), 0x24ef84b72ec12d02),
    ("lap2d-40", Llt, Pin::Smp(1), 0xbc3c51c54df37f9a),
    ("lap2d-40", Llt, Pin::Smp(5), 0x24ef84b72ec12d02),
    ("lap2d-40", Llt, Pin::Seq(9), 0x238701fb42e73abf),
    ("lap2d-40", Llt, Pin::Seq(16), 0x41b722238cb69c60),
    ("lap2d-40", Llt, Pin::Smp(9), 0x238701fb42e73abf),
    ("lap2d-40", Llt, Pin::Smp(16), 0x41b722238cb69c60),
    ("lap2d-40", Llt, Pin::Panels, 0x0ce33525e3a0d6fb),
    ("lap2d-40", Llt, Pin::BytesAssembled, 293360),
    ("lap2d-40", Ldlt, Pin::Seq(1), 0x315c0c4348be7964),
    ("lap2d-40", Ldlt, Pin::Seq(5), 0xb3fa0e4c9a78799f),
    ("lap2d-40", Ldlt, Pin::Smp(1), 0x315c0c4348be7964),
    ("lap2d-40", Ldlt, Pin::Smp(5), 0xb3fa0e4c9a78799f),
    ("lap2d-40", Ldlt, Pin::Seq(9), 0xfffe6ea00eb32e76),
    ("lap2d-40", Ldlt, Pin::Seq(16), 0x0282f1cce32ed2ce),
    ("lap2d-40", Ldlt, Pin::Smp(9), 0xfffe6ea00eb32e76),
    ("lap2d-40", Ldlt, Pin::Smp(16), 0x0282f1cce32ed2ce),
    ("lap2d-40", Ldlt, Pin::Panels, 0xc7e025dc9fddd934),
    ("lap2d-40", Ldlt, Pin::BytesAssembled, 293360),
    ("elas-5", Llt, Pin::Seq(1), 0x7832b2175b4c2369),
    ("elas-5", Llt, Pin::Seq(5), 0x193ba44ca8e2618f),
    ("elas-5", Llt, Pin::Smp(1), 0x7832b2175b4c2369),
    ("elas-5", Llt, Pin::Smp(5), 0x193ba44ca8e2618f),
    ("elas-5", Llt, Pin::Seq(9), 0x9d32d0998563cf14),
    ("elas-5", Llt, Pin::Seq(16), 0x23d32ec3c8937cd7),
    ("elas-5", Llt, Pin::Smp(9), 0x9d32d0998563cf14),
    ("elas-5", Llt, Pin::Smp(16), 0x23d32ec3c8937cd7),
    ("elas-5", Llt, Pin::Panels, 0xc9dba9dd469c95c6),
    ("elas-5", Llt, Pin::BytesAssembled, 413200),
    ("elas-5", Ldlt, Pin::Seq(1), 0xaa67045a88409d57),
    ("elas-5", Ldlt, Pin::Seq(5), 0xec8ed537ed47cdb2),
    ("elas-5", Ldlt, Pin::Smp(1), 0xaa67045a88409d57),
    ("elas-5", Ldlt, Pin::Smp(5), 0xec8ed537ed47cdb2),
    ("elas-5", Ldlt, Pin::Seq(9), 0xc1a6669882984d1e),
    ("elas-5", Ldlt, Pin::Seq(16), 0xa5cbecf15cbf8b12),
    ("elas-5", Ldlt, Pin::Smp(9), 0xc1a6669882984d1e),
    ("elas-5", Ldlt, Pin::Smp(16), 0xa5cbecf15cbf8b12),
    ("elas-5", Ldlt, Pin::Panels, 0xe6304fcfd94c5d83),
    ("elas-5", Ldlt, Pin::BytesAssembled, 413200),
];

#[test]
fn sequential_solve_bits_are_pinned() {
    let print = std::env::var_os("PARFACT_PRINT_GOLDEN").is_some();
    let mut cur: Option<(&str, FactorKind, SparseCholesky)> = None;
    for &(name, kind, pin, want) in GOLDEN {
        if !matches!(&cur, Some((m, k, _)) if *m == name && *k == kind) {
            let opts = FactorOpts::new().kind(kind).trace(TraceLevel::Counters);
            let chol = SparseCholesky::factorize(&golden_matrix(name), &opts).unwrap();
            cur = Some((name, kind, chol));
        }
        let chol = &cur.as_ref().unwrap().2;
        let n = chol.factor().sym.n;
        let got = match pin {
            Pin::Seq(nrhs) => {
                let b = rhs_block(n, nrhs, 0x601d);
                bits_hash(&chol.factor().try_solve_many(&b, nrhs).unwrap())
            }
            Pin::Smp(nrhs) => {
                let b = rhs_block(n, nrhs, 0x601d);
                bits_hash(&smp_solve::solve_smp_many(chol.factor(), &b, nrhs, 2).unwrap())
            }
            Pin::Panels => {
                let f = chol.factor();
                bits_hash(&[&f.panels[..], &f.d[..]].concat())
            }
            Pin::BytesAssembled => chol.report().counters.bytes_assembled,
        };
        if print {
            let got = match pin {
                Pin::BytesAssembled => got.to_string(),
                _ => format!("{got:#018x}"),
            };
            println!("    ({name:?}, {kind:?}, Pin::{pin:?}, {got}),");
        } else {
            assert_eq!(got, want, "{name} {kind:?} {pin:?}: bits moved");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random shapes: batched ≡ per-column, bitwise, on the sequential path.
    #[test]
    fn batched_matches_per_column_on_random_systems(
        n in 5usize..40, deg in 1usize..4, seed in any::<u64>(), nrhs in 1usize..9
    ) {
        let a = gen::random_spd(n, deg, (seed % 1000) as u64);
        let chol = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
        let b = rhs_block(n, nrhs, seed | 1);
        let batched = chol
            .solve_with(RhsBlock::new(&b, nrhs), &SolveOpts::new())
            .unwrap();
        for col in 0..nrhs {
            let one = chol.solve(&b[col * n..(col + 1) * n]);
            for (p, q) in batched.x[col * n..(col + 1) * n].iter().zip(&one) {
                prop_assert_eq!(p.to_bits(), q.to_bits());
            }
        }
    }

    /// Random shapes and both factor kinds: the sequential sweep and the
    /// SMP solve at 2 and 3 threads give the same bits, empty blocks
    /// included.
    #[test]
    fn sequential_solve_equals_smp_solve_bitwise(
        n in 5usize..40, deg in 1usize..4, seed in any::<u64>(),
        ldlt in any::<bool>(), nrhs in (0usize..3).prop_map(|k| [0, 1, 5][k])
    ) {
        let a = gen::random_spd(n, deg, seed % 1000);
        let kind = if ldlt { Ldlt } else { Llt };
        let chol = SparseCholesky::factorize(&a, &FactorOpts::new().kind(kind)).unwrap();
        let b = rhs_block(n, nrhs, seed | 1);
        let seq = chol.factor().try_solve_many(&b, nrhs).unwrap();
        for threads in [2usize, 3] {
            let smp = smp_solve::solve_smp_many(chol.factor(), &b, nrhs, threads).unwrap();
            prop_assert_eq!(bits(&seq), bits(&smp), "threads={}", threads);
        }
    }
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// Multi-RHS parity across all three engines: they run the same supernode
/// steps and fold child blocks in the same order, so the sequential, SMP
/// (any thread count) and distributed (any rank count) solutions are
/// bit-equal.
#[test]
fn seq_smp_dist_multi_rhs_parity() {
    let a = gen::laplace3d(5, 5, 4, gen::Stencil3d::SevenPoint);
    let n = a.nrows();
    let nrhs = 5;
    let b = rhs_block(n, nrhs, 42);
    let chol = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
    let seq = chol
        .solve_with(RhsBlock::new(&b, nrhs), &SolveOpts::new())
        .unwrap();
    for col in 0..nrhs {
        let r = ops::sym_residual_inf(
            &a,
            &seq.x[col * n..(col + 1) * n],
            &b[col * n..(col + 1) * n],
        );
        assert!(r < 1e-11, "seq col={col}: residual {r}");
    }
    for threads in [2usize, 3, 4, 8] {
        let smp = smp_solve::solve_smp_many(chol.factor(), &b, nrhs, threads).unwrap();
        assert_eq!(
            bits(&smp),
            bits(&seq.x),
            "threads={threads}: smp differs from seq"
        );
    }
    let (sym, ap, perm) = prepare(&a, Method::default(), &AmalgOpts::default());
    for ranks in [2usize, 4, 8] {
        let run = DistRun::new(ranks, CostModel::bluegene_p(), &ap);
        let mut factor = Factor::allocate(&sym, Llt, perm.clone());
        let map = run.run(&mut factor).unwrap().outcome.map;
        let xd = run.solve(&factor, &map, &b, nrhs).unwrap().x;
        assert_eq!(
            bits(&xd),
            bits(&seq.x),
            "ranks={ranks}: dist differs from seq"
        );
    }
}

/// The distributed solve is a machine run of its own over the factor slab:
/// solving twice on one factor gives the same solution bits and the same
/// virtual solve time, since nothing of the first solve (or of the
/// factorization's clocks) carries into the second.
#[test]
fn dist_solve_twice_on_one_factor_is_identical() {
    let a = gen::laplace3d(5, 5, 4, gen::Stencil3d::SevenPoint);
    let nrhs = 3;
    let b = rhs_block(a.nrows(), nrhs, 9);
    let (sym, ap, perm) = prepare(&a, Method::default(), &AmalgOpts::default());
    for ranks in [1usize, 3, 4, 8] {
        let run = DistRun::new(ranks, CostModel::bluegene_p(), &ap);
        let mut factor = Factor::allocate(&sym, Llt, perm.clone());
        let map = run.run(&mut factor).unwrap().outcome.map;
        let first = run.solve(&factor, &map, &b, nrhs).unwrap();
        let second = run.solve(&factor, &map, &b, nrhs).unwrap();
        assert_eq!(bits(&first.x), bits(&second.x), "ranks={ranks}");
        assert_eq!(
            first.time_s.to_bits(),
            second.time_s.to_bits(),
            "ranks={ranks}: virtual solve time"
        );
        assert!(first.time_s > 0.0);
    }
}

/// Refinement runs its corrections through the sequential sweep whatever
/// the engine, so with the base solves bit-equal the refined ones are too.
#[test]
fn refined_solve_bits_do_not_depend_on_the_engine() {
    let a = gen::laplace2d(12, 11, gen::Stencil2d::FivePoint);
    let n = a.nrows();
    let nrhs = 3;
    let b = rhs_block(n, nrhs, 0xface);
    for kind in [Llt, Ldlt] {
        let chol = SparseCholesky::factorize(&a, &FactorOpts::new().kind(kind)).unwrap();
        let solve = |engine| {
            let opts = SolveOpts::new().refine(2).engine(engine);
            chol.solve_with(RhsBlock::new(&b, nrhs), &opts).unwrap()
        };
        let auto = solve(SolveEngine::Auto);
        let smp = solve(SolveEngine::Smp { threads: 2 });
        assert_eq!(bits(&auto.x), bits(&smp.x), "{kind:?}");
        assert_eq!(
            auto.residual.map(f64::to_bits),
            smp.residual.map(f64::to_bits)
        );
    }
}

#[test]
fn wrong_lengths_are_typed_errors_not_panics() {
    let a = gen::laplace2d(7, 7, gen::Stencil2d::FivePoint);
    let n = a.nrows();
    let chol = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
    let b = vec![1.0; n];
    // Facade, factor-level checked API, and SMP solve all agree on the
    // error; only the documented legacy shims panic.
    assert!(matches!(
        chol.solve_with(RhsBlock::new(&b, 3), &SolveOpts::new()),
        Err(FactorError::DimensionMismatch { .. })
    ));
    assert!(matches!(
        chol.factor().try_solve_many(&b, 2),
        Err(FactorError::DimensionMismatch { .. })
    ));
    assert!(matches!(
        smp_solve::solve_smp_many(chol.factor(), &b, 2, 4),
        Err(FactorError::DimensionMismatch { .. })
    ));
    // The distributed solve rejects a ragged block before its machine
    // starts, and a non-empty one for an empty system.
    let dist_solve = |a: &CscMatrix, b: &[f64], nrhs| {
        let (sym, ap, perm) = prepare(a, Method::default(), &AmalgOpts::default());
        let run = DistRun::new(4, CostModel::bluegene_p(), &ap);
        let mut factor = Factor::allocate(&sym, Llt, perm);
        let map = run.run(&mut factor).unwrap().outcome.map;
        run.solve(&factor, &map, b, nrhs).map(|_| ())
    };
    let ragged = vec![1.0; 2 * n - 1];
    assert!(matches!(
        dist_solve(&a, &ragged, 2),
        Err(FactorError::DimensionMismatch { expected, got }) if expected == 2 * n && got == 2 * n - 1
    ));
    let empty = parfact::sparse::coo::CooMatrix::new(0, 0).to_csc();
    assert!(matches!(
        dist_solve(&empty, &b, 1),
        Err(FactorError::DimensionMismatch { expected: 0, got }) if got == n
    ));
    // An order-0 system takes a block of any number of (empty) columns.
    let chol = SparseCholesky::factorize(&empty, &FactorOpts::default()).unwrap();
    let out = chol.solve_with(RhsBlock::new(&[], 3), &SolveOpts::new());
    assert!(out.unwrap().x.is_empty());
}

/// Columns streamed through in blocks return exactly what per-column
/// solves return, and the solve report aggregates across the blocks.
#[test]
fn solve_report_accumulates_across_blocks() {
    let a = gen::laplace2d(10, 9, gen::Stencil2d::FivePoint);
    let n = a.nrows();
    let chol =
        SparseCholesky::factorize(&a, &FactorOpts::new().trace(TraceLevel::Timeline)).unwrap();
    let columns: Vec<Vec<f64>> = (0..9).map(|k| rhs_block(n, 1, 7 + k as u64)).collect();
    let mut xs = Vec::new();
    for block in columns.chunks(4) {
        let b = block.concat();
        let out = chol
            .solve_with(RhsBlock::new(&b, block.len()), &SolveOpts::new())
            .unwrap();
        xs.extend(out.x.chunks(n).map(<[f64]>::to_vec));
    }
    assert_eq!(xs.len(), columns.len());
    for (c, x) in columns.iter().zip(&xs) {
        let direct = chol.solve(c);
        for (d, s) in direct.iter().zip(x) {
            assert_eq!(d.to_bits(), s.to_bits());
        }
    }
    let r = chol.report_with_solve();
    let s = r.solve.expect("solve section");
    // Blocks of 4, 4, 1 — plus the per-column reference solves above.
    assert_eq!(s.rhs, 2 * 9);
    assert_eq!(s.solves, 3 + 9);
    // Timeline tracing put solve spans in the enriched stream.
    assert!(r
        .spans
        .iter()
        .any(|sp| sp.phase == parfact::trace::Phase::Solve));
}

/// `a` and `b` side by side on the diagonal: a two-block forest.
fn two_blocks(a: &CscMatrix, b: &CscMatrix) -> CscMatrix {
    let n = a.nrows() + b.nrows();
    let mut coo = parfact::sparse::coo::CooMatrix::new(n, n);
    for (m, off) in [(a, 0), (b, a.nrows())] {
        for c in 0..m.ncols() {
            let (rows, vals) = m.col(c);
            for (&r, &v) in rows.iter().zip(vals) {
                coo.push(r + off, c + off, v);
            }
        }
    }
    coo.to_csc()
}

/// Every facade solve engine gives the sequential sweep's bits: `Auto`
/// (threaded above `AUTO_MIN_WORK`, sequential below), `Smp` at 1–4
/// threads and `Factor::try_solve_many`, on a two-block forest above the
/// size constant, a matrix below it and one with fewer local subtrees
/// than threads, for both factor kinds, nrhs 0, 1 and 5, traced at
/// `Timeline` and untraced. The traced mapped solves put their spans on
/// more than one worker lane.
#[test]
fn every_solve_engine_gives_the_sequential_bits() {
    use parfact::core::smp_solve::{solve_work, AUTO_MIN_WORK};
    let lap2d = |nx, ny| gen::laplace2d(nx, ny, gen::Stencil2d::FivePoint);
    let cases = [
        ("forest", two_blocks(&lap2d(75, 75), &lap2d(70, 72))),
        ("small", gen::laplace3d(6, 5, 4, gen::Stencil3d::SevenPoint)),
        ("narrow", lap2d(12, 2)),
    ];
    let engines = [
        SolveEngine::Auto,
        SolveEngine::Smp { threads: 1 },
        SolveEngine::Smp { threads: 2 },
        SolveEngine::Smp { threads: 3 },
        SolveEngine::Smp { threads: 4 },
    ];
    for (name, a) in &cases {
        let n = a.nrows();
        for kind in [Llt, Ldlt] {
            for trace in [TraceLevel::Off, TraceLevel::Timeline] {
                let opts = FactorOpts::new().kind(kind).trace(trace);
                let chol = SparseCholesky::factorize(a, &opts).unwrap();
                let f = chol.factor();
                match *name {
                    "forest" => assert!(solve_work(f, 1) >= AUTO_MIN_WORK),
                    _ => assert!(solve_work(f, 5) < AUTO_MIN_WORK),
                }
                for nrhs in [0usize, 1, 5] {
                    let b = rhs_block(n, nrhs, 0xb17 + nrhs as u64);
                    let want = bits(&f.try_solve_many(&b, nrhs).unwrap());
                    for engine in engines {
                        let opts = SolveOpts::new().engine(engine);
                        let got = chol.solve_with(RhsBlock::new(&b, nrhs), &opts).unwrap();
                        let at = format!("{name} {kind:?} {trace:?} nrhs={nrhs} {engine:?}");
                        assert_eq!(bits(&got.x), want, "{at}");
                    }
                }
                let r = chol.report_with_solve();
                let threads = r.solve.expect("solve section").threads;
                match *name {
                    "forest" => assert!(threads >= 2, "{name}: {threads} threads"),
                    "narrow" => assert!(threads < 4, "{name}: {threads} threads"),
                    _ => {}
                }
                let mut lanes: Vec<usize> = r
                    .spans
                    .iter()
                    .filter(|sp| sp.phase == parfact::trace::Phase::Solve)
                    .map(|sp| sp.who)
                    .collect();
                lanes.sort_unstable();
                lanes.dedup();
                if trace == TraceLevel::Timeline {
                    assert!(lanes.len() > 1, "{name} {kind:?}: solve lanes {lanes:?}");
                } else {
                    assert!(lanes.is_empty());
                }
            }
        }
    }
}
