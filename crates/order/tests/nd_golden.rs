//! Golden fingerprints of nested-dissection permutations.
//!
//! The multilevel bisection's bookkeeping (gain queue, boundary set,
//! coarsening buffers) may be rewritten for speed, but the permutation it
//! yields is part of the contract: `order.factor_nnz`, every symbolic
//! statistic and every factor bit downstream depend on it. Each case pins
//! an FNV-1a fingerprint of `perm()` at one and two threads; the
//! `mindeg_*` cases pin the standalone minimum-degree ordering, which the
//! dissection's leaves share. A change that
//! *means* to move an ordering re-captures with
//! `PARFACT_PRINT_GOLDEN=1 cargo test --release -p parfact-order --test
//! nd_golden -- --include-ignored --nocapture`.

use parfact_order::nd::{nested_dissection_with, NdOpts};
use parfact_order::{order_graph, Method};
use parfact_sparse::coo::CooMatrix;
use parfact_sparse::csc::CscMatrix;
use parfact_sparse::gen;
use parfact_sparse::graph::AdjGraph;
use parfact_trace::Collector;

/// FNV-1a over the little-endian bytes of every entry, as `u64`.
fn fingerprint(perm: &[usize]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &x in perm {
        for b in (x as u64).to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Order `a` at `cutoff` on one and two threads and check both against the
/// pinned `(cutoff, fingerprint)` rows.
fn check(name: &str, a: &CscMatrix, golden: &[(usize, u64)]) {
    let print = std::env::var_os("PARFACT_PRINT_GOLDEN").is_some();
    let g = AdjGraph::from_sym_lower(a);
    let tr = Collector::disabled();
    for &(cutoff, want) in golden {
        let opts = NdOpts {
            cutoff,
            ..NdOpts::default()
        };
        let t1 = fingerprint(nested_dissection_with(&g, &opts, 1, &tr).perm());
        let t2 = fingerprint(nested_dissection_with(&g, &opts, 2, &tr).perm());
        assert_eq!(t1, t2, "{name} cutoff={cutoff}: 1 and 2 threads differ");
        if print {
            println!("{name}: ({cutoff}, {t1:#018x}),");
        } else {
            assert_eq!(t1, want, "{name} cutoff={cutoff}: permutation moved");
        }
    }
}

/// The standalone minimum-degree ordering of `a` against its pinned
/// fingerprint.
fn check_mindeg(name: &str, a: &CscMatrix, want: u64) {
    let g = AdjGraph::from_sym_lower(a);
    let got = fingerprint(order_graph(&g, Method::MinDegree).perm());
    if std::env::var_os("PARFACT_PRINT_GOLDEN").is_some() {
        println!("{name} mindeg: {got:#018x}");
    } else {
        assert_eq!(got, want, "{name}: minimum-degree permutation moved");
    }
}

/// The complete graph on `n` vertices (symmetric lower, SPD).
fn clique(n: usize) -> CscMatrix {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        for j in 0..=i {
            coo.push(i, j, if i == j { n as f64 } else { -0.5 });
        }
    }
    coo.to_csc()
}

/// `a` and `b` side by side on the diagonal: two components, no edge
/// between them.
fn disjoint(a: &CscMatrix, b: &CscMatrix) -> CscMatrix {
    let (na, nb) = (a.ncols(), b.ncols());
    let mut coo = CooMatrix::new(na + nb, na + nb);
    for (m, base) in [(a, 0), (b, na)] {
        for c in 0..m.ncols() {
            let (rows, vals) = m.col(c);
            for (&r, &v) in rows.iter().zip(vals) {
                coo.push(r + base, c + base, v);
            }
        }
    }
    coo.to_csc()
}

#[test]
fn lap2d_40() {
    check(
        "lap2d-40",
        &gen::laplace2d(40, 40, gen::Stencil2d::FivePoint),
        &[
            (4, 0xff0c19ce1402575d),
            (16, 0x0ad257fcf1ac234d),
            (96, 0x487f3c6d937d6d0d),
        ],
    );
}

#[test]
fn lap3d_10() {
    check(
        "lap3d-10",
        &gen::laplace3d(10, 10, 10, gen::Stencil3d::SevenPoint),
        &[
            (4, 0xf739348c1428bcf9),
            (16, 0x5e5ed6ea29fbef0d),
            (96, 0xc4a28b613a109329),
        ],
    );
}

#[test]
fn elas_5() {
    check(
        "elas-5",
        &gen::elasticity3d(5, 5, 5),
        &[
            (4, 0xd4b9e0f404a575e5),
            (16, 0xc9132327f9a7ecf5),
            (96, 0x2aee40d87cd76581),
        ],
    );
}

#[test]
fn random_spd_300() {
    check(
        "random-spd-300",
        &gen::random_spd(300, 5, 7),
        &[
            (4, 0x58cf0f358d004e8d),
            (16, 0x2a9d7e9b2ebd8d6d),
            (96, 0xd1df9fc39f2550bd),
        ],
    );
}

/// A star: heavy-edge matching pairs the hub with one leaf per level, so
/// coarsening stalls at once and the finest level is partitioned directly.
#[test]
fn star_300() {
    check(
        "star-300",
        &gen::arrowhead(300),
        &[
            (4, 0xaebca995e5362505),
            (16, 0xfe0489c8666405f9),
            (96, 0xe738412871a8b5b9),
        ],
    );
}

/// A clique: every bisection's separator swallows a side, so each task
/// falls back to minimum degree.
#[test]
fn clique_120() {
    check(
        "clique-120",
        &clique(120),
        &[
            (4, 0xee7a3237395937a5),
            (16, 0xee7a3237395937a5),
            (96, 0xee7a3237395937a5),
        ],
    );
}

/// Two grids of different sizes with no edge between them.
#[test]
fn two_grids() {
    check(
        "two-grids",
        &disjoint(
            &gen::laplace2d(23, 17, gen::Stencil2d::FivePoint),
            &gen::laplace2d(19, 19, gen::Stencil2d::NinePoint),
        ),
        &[
            (4, 0x0d1174e570f347d9),
            (16, 0x541dac409800b1b9),
            (96, 0x657995b6efeacb95),
        ],
    );
}

#[test]
fn mindeg_lap2d_40() {
    check_mindeg(
        "lap2d-40",
        &gen::laplace2d(40, 40, gen::Stencil2d::FivePoint),
        0x301367953ba00555,
    );
}

#[test]
fn mindeg_elas_5() {
    check_mindeg("elas-5", &gen::elasticity3d(5, 5, 5), 0xddddb341497f9cc5);
}

#[test]
fn mindeg_random_spd_300() {
    check_mindeg(
        "random-spd-300",
        &gen::random_spd(300, 5, 7),
        0x2e101d49005caf81,
    );
}

/// The benchmark's matrices at the default cutoff. Seconds each in release.
#[test]
#[ignore = "benchmark-sized; run with --release --include-ignored"]
fn lap2d_400() {
    check(
        "lap2d-400",
        &gen::laplace2d(400, 400, gen::Stencil2d::FivePoint),
        &[(96, 0x7b0038fa8d4f8dfd)],
    );
}

#[test]
#[ignore = "benchmark-sized; run with --release --include-ignored"]
fn lap3d_32() {
    check(
        "lap3d-32",
        &gen::laplace3d(32, 32, 32, gen::Stencil3d::SevenPoint),
        &[(96, 0x269227c3e0985d79)],
    );
}

#[test]
#[ignore = "benchmark-sized; run with --release --include-ignored"]
fn elas_16() {
    check(
        "elas-16",
        &gen::elasticity3d(16, 16, 16),
        &[(96, 0x3d63c67c3b62e2fd)],
    );
}
