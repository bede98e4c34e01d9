//! Golden virtual statistics of the distributed engine.
//!
//! The simulator's clocks, traffic and memory are *charged by formula*
//! (flops per block column, bytes per payload, `alloc`/`free` per front),
//! never measured on the host — so they are a pure function of the matrix,
//! the mapping and the schedule, and a change to a host kernel must not move
//! them by one bit. The constants below were captured at the commit before
//! the distributed fronts moved onto the packed kernel; they pin the charge
//! sequence (`compute_as` order included: the clock is a running `f64` sum)
//! in seconds of `cargo test` rather than in the 20 s benchmark's `exact`
//! section. A PR that means to change a charge re-captures them and says so:
//! run with `PARFACT_PRINT_GOLDEN=1 cargo test --test dist_golden_stats --
//! --nocapture` and paste the block it prints.

use parfact::core::dist::{prepare, run_distributed_prepared, DistRun};
use parfact::core::mapping::MapStrategy;
use parfact::core::{Factor, FactorKind};
use parfact::mpsim::model::CostModel;
use parfact::order::Method;
use parfact::sparse::gen;
use parfact::symbolic::AmalgOpts;

/// What one run pins: `factor_time_s` bits, Σ `bytes_sent`, Σ `msgs_sent`,
/// `max_mem_peak`, and every rank's `flops` bits.
struct Golden {
    p: usize,
    sync: bool,
    factor_time_bits: u64,
    bytes_sent: u64,
    msgs_sent: u64,
    max_mem_peak: u64,
    flops_bits: &'static [u64],
}

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    Golden {
        p: 4, sync: false, factor_time_bits: 0x3f4d0676922e15e6,
        bytes_sent: 438592, msgs_sent: 41, max_mem_peak: 227304,
        flops_bits: &[
            0x4134735500000000, 0x412cd92e00000000, 0x4130361b00000000, 0x4128c7be00000000,
        ],
    },
    Golden {
        p: 4, sync: true, factor_time_bits: 0x3f529da1253e3d11,
        bytes_sent: 438592, msgs_sent: 41, max_mem_peak: 227304,
        flops_bits: &[
            0x4134735500000000, 0x412cd92e00000000, 0x4130361b00000000, 0x4128c7be00000000,
        ],
    },
    Golden {
        p: 8, sync: false, factor_time_bits: 0x3f4efa6a11ea8c22,
        bytes_sent: 945856, msgs_sent: 151, max_mem_peak: 162712,
        flops_bits: &[
            0x412434da00000000, 0x41236e5c00000000, 0x4120a69600000000, 0x411aedf800000000,
            0x4121a5b400000000, 0x41229bb000000000, 0x411b0f5800000000, 0x410db1f000000000,
        ],
    },
    Golden {
        p: 8, sync: true, factor_time_bits: 0x3f576ddb0f9b693d,
        bytes_sent: 945856, msgs_sent: 151, max_mem_peak: 162712,
        flops_bits: &[
            0x412434da00000000, 0x41236e5c00000000, 0x4120a69600000000, 0x411aedf800000000,
            0x4121a5b400000000, 0x41229bb000000000, 0x411b0f5800000000, 0x410db1f000000000,
        ],
    },
    Golden {
        p: 16, sync: false, factor_time_bits: 0x3f503596b9bf52e3,
        bytes_sent: 1745144, msgs_sent: 540, max_mem_peak: 154888,
        flops_bits: &[
            0x411bda1000000000, 0x4111ae5800000000, 0x40faf9c000000000, 0x40fd2f0000000000,
            0x41106c9800000000, 0x4119dcac00000000, 0x40ef7b8000000000, 0x40f9fa5000000000,
            0x4119d5f800000000, 0x411f47e400000000, 0x411a79d000000000, 0x40f2eab000000000,
            0x4101bf0800000000, 0x4113e42c00000000, 0x410c0b1000000000, 0x410518c000000000,
        ],
    },
    Golden {
        p: 16, sync: true, factor_time_bits: 0x3f5f0270845e2fc6,
        bytes_sent: 1745144, msgs_sent: 540, max_mem_peak: 154888,
        flops_bits: &[
            0x411bda1000000000, 0x4111ae5800000000, 0x40faf9c000000000, 0x40fd2f0000000000,
            0x41106c9800000000, 0x4119dcac00000000, 0x40ef7b8000000000, 0x40f9fa5000000000,
            0x4119d5f800000000, 0x411f47e400000000, 0x411a79d000000000, 0x40f2eab000000000,
            0x4101bf0800000000, 0x4113e42c00000000, 0x410c0b1000000000, 0x410518c000000000,
        ],
    },
];

#[test]
fn lap3d10_virtual_statistics_are_pinned() {
    let a = gen::laplace3d(10, 10, 10, gen::Stencil3d::SevenPoint);
    let (sym, ap, perm) = prepare(&a, Method::default(), &AmalgOpts::default());
    let print = std::env::var_os("PARFACT_PRINT_GOLDEN").is_some();
    let mut want = GOLDEN.iter();
    for p in [4usize, 8, 16] {
        for sync in [false, true] {
            let out = run_distributed_prepared(
                p,
                CostModel::bluegene_p(),
                &ap,
                &sym,
                &perm,
                MapStrategy::default(),
                sync,
                None,
            )
            .expect("SPD");
            let flops_bits: Vec<u64> = out.stats.iter().map(|s| s.flops.to_bits()).collect();
            let bytes_sent: u64 = out.stats.iter().map(|s| s.bytes_sent).sum();
            let msgs_sent: u64 = out.stats.iter().map(|s| s.msgs_sent).sum();
            if print {
                println!(
                    "    Golden {{ p: {p}, sync: {sync}, factor_time_bits: {:#018x}, \
                     bytes_sent: {bytes_sent}, msgs_sent: {msgs_sent}, max_mem_peak: {}, \
                     flops_bits: &{flops_bits:#018x?} }},",
                    out.factor_time_s.to_bits(),
                    out.max_mem_peak(),
                );
                continue;
            }
            let g = want.next().expect("one golden row per (p, schedule)");
            assert_eq!((g.p, g.sync), (p, sync), "golden rows out of order");
            let tag = format!("p={p} sync={sync}");
            assert_eq!(
                out.factor_time_s.to_bits(),
                g.factor_time_bits,
                "{tag}: makespan {} moved",
                out.factor_time_s
            );
            assert_eq!(bytes_sent, g.bytes_sent, "{tag}: bytes sent");
            assert_eq!(msgs_sent, g.msgs_sent, "{tag}: messages sent");
            assert_eq!(out.max_mem_peak(), g.max_mem_peak, "{tag}: memory peak");
            assert_eq!(flops_bits, g.flops_bits, "{tag}: per-rank flops");
        }
    }
}

/// Solve rows: `(p, solve time_s bits, Σ bytes_sent, Σ msgs_sent)` of the
/// solve's own machine run, with a 3-column right-hand side, over the
/// factor of the event-driven row above. The solve's charges are formulas
/// too (`w²·nrhs` and `2·m·w·nrhs` flops per front, one `rows x nrhs`
/// payload per tree edge, 16 bytes per pivot entry a grid rank sends its
/// leader), so which host kernel runs the supernode step must not move
/// them.
const GOLDEN_SOLVE: &[(usize, u64, u64, u64)] = &[
    (4, 0x3f4238ea2edfe9ee, 241008, 156),
    (8, 0x3f3debd2d0f75874, 356352, 214),
];

#[test]
fn lap3d10_solve_statistics_are_pinned() {
    let a = gen::laplace3d(10, 10, 10, gen::Stencil3d::SevenPoint);
    let (sym, ap, perm) = prepare(&a, Method::default(), &AmalgOpts::default());
    let nrhs = 3;
    let b: Vec<f64> = (0..sym.n * nrhs)
        .map(|i| ((i * 7 + 3) % 23) as f64 - 11.0)
        .collect();
    let print = std::env::var_os("PARFACT_PRINT_GOLDEN").is_some();
    for &(p, solve_time_bits, want_bytes, want_msgs) in GOLDEN_SOLVE {
        let run = DistRun::new(p, CostModel::bluegene_p(), &ap);
        let mut factor = Factor::allocate(&sym, FactorKind::Llt, perm.clone());
        let map = run.run(&mut factor).expect("SPD").outcome.map;
        let out = run.solve(&factor, &map, &b, nrhs).expect("solve");
        let bytes_sent: u64 = out.stats.iter().map(|s| s.bytes_sent).sum();
        let msgs_sent: u64 = out.stats.iter().map(|s| s.msgs_sent).sum();
        if print {
            println!(
                "    ({p}, {:#018x}, {bytes_sent}, {msgs_sent}),",
                out.time_s.to_bits()
            );
            continue;
        }
        assert_eq!(
            out.time_s.to_bits(),
            solve_time_bits,
            "p={p}: solve makespan {} moved",
            out.time_s
        );
        assert_eq!(bytes_sent, want_bytes, "p={p}: bytes sent");
        assert_eq!(msgs_sent, want_msgs, "p={p}: messages sent");
    }
}
