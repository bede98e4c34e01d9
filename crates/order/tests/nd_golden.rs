//! Golden fingerprints of nested-dissection permutations.
//!
//! The multilevel bisection's bookkeeping (gain queue, boundary set,
//! coarsening buffers) may be rewritten for speed, but the permutation it
//! yields is part of the contract: `order.factor_nnz`, every symbolic
//! statistic and every factor bit downstream depend on it. Each case pins
//! an FNV-1a fingerprint of `perm()` at one and two threads. A change that
//! *means* to move an ordering re-captures with
//! `PARFACT_PRINT_GOLDEN=1 cargo test --release -p parfact-order --test
//! nd_golden -- --include-ignored --nocapture`.

use parfact_order::nd::{nested_dissection_with, NdOpts};
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
