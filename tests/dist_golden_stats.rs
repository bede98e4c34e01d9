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

/// FNV-1a over 64-bit words.
fn fnv(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x100000001b3)
}

/// Wait-accounting rows of traced event-driven runs: the order in which a
/// rank takes its messages decides both its wait spans and the bits of its
/// `comm_s` (a running `f64` sum), so these pin the receive order, not
/// just the aggregates above. Each row holds the fault plan, the merged
/// span count, an FNV-1a digest of every merged span (phase name, who,
/// supernode, start and duration bits) and every rank's `[comm_s, clock_s,
/// comm_hidden_s]` bits.
struct GoldenWaits {
    p: usize,
    faults: &'static str,
    spans: usize,
    digest: u64,
    rank_bits: &'static [[u64; 3]],
}

#[rustfmt::skip]
const GOLDEN_WAITS: &[GoldenWaits] = &[
    GoldenWaits {
        p: 4, faults: "", spans: 500, digest: 0x13d38381b8269067,
        rank_bits: &[
            [0x3f3b9b5e622d6910, 0x3f4ab86323ac1ced, 0x3f43b3e6f7c64aa8],
            [0x3f43ea2d0f8d4657, 0x3f4d0676922e15e6, 0x3f221d220ddaf314],
            [0x3f42b009967aa42c, 0x3f4ced4c1ebd0502, 0x3f1f767ece5320a6],
            [0x3f452ca04f9ed750, 0x3f4d00054db70756, 0x3f345247758a70b1],
        ],
    },
    GoldenWaits {
        p: 8, faults: "", spans: 844, digest: 0x0410c17512bc0fa7,
        rank_bits: &[
            [0x3f46fc7a4db82dec, 0x3f4d5e18f426e804, 0x3f475816cdd84609],
            [0x3f48d77acea63ec0, 0x3f4efa6a11ea8c22, 0x3f26a911b48b3a5e],
            [0x3f4698cb605e0692, 0x3f4bdaf249d454ca, 0x3f3f38ef23a8957a],
            [0x3f4a019bbe9503b7, 0x3f4e42302bc75ea7, 0x3f27926dd64749ec],
            [0x3f48964d7dab1a66, 0x3f4e2905b8564dc3, 0x3f32301a3b009df5],
            [0x3f48489e87722ccc, 0x3f4e2905b8564dc3, 0x3f39635bf881e4fa],
            [0x3f49e99d6f999d7c, 0x3f4e2f76fccd5c53, 0x3f26826a19c0e2fc],
            [0x3f4be38f805f8543, 0x3f4e3bbee7505017, 0x3f22e2b396c8b1b9],
        ],
    },
    GoldenWaits {
        p: 16, faults: "", spans: 1971, digest: 0xf76810075195a5ac,
        rank_bits: &[
            [0x3f3522de88ee883a, 0x3f3dee96ba5a72ad, 0x3f49f117dabd2564],
            [0x3f45c2fc70858036, 0x3f488db5d605a5fa, 0x3f181bde358880a0],
            [0x3f4dbe402b527d61, 0x3f4ecedc55bb01a9, 0x3f3e068f4f51e0dd],
            [0x3f4ea53187ecfe75, 0x3f4fcc1e00cc8930, 0x3f13067e2f9702a2],
            [0x3f45ba84be890512, 0x3f48526ff81e47fb, 0x3f2c4a07db3af3ed],
            [0x3f4136b5c08d9b27, 0x3f454c22a3792187, 0x3f432bb7496356c8],
            [0x3f4fcc1994f2e227, 0x3f503596b9bf52e3, 0x3f203aaa3f78b05f],
            [0x3f4ec5973d37b2b3, 0x3f4fcc1e00cc8930, 0x3f193fecfff314e0],
            [0x3f4a8829822ce8e3, 0x3f4e9c876ed8dfe1, 0x3f4414008a60e3e7],
            [0x3f4b485fcfd9006d, 0x3f501c6c464e41ff, 0x3f273bd05a3f861c],
            [0x3f49044e33aff611, 0x3f4d328b37f75d8b, 0x3f4766f14823a79d],
            [0x3f4f136403581c94, 0x3f4fd28f454397c0, 0x3f1e77a91db4e08c],
            [0x3f4e331b1f29fb89, 0x3f4f99c919ea6768, 0x3f0f81f2d6433a8a],
            [0x3f4c75b71beb22ab, 0x3f4f99c919ea6768, 0x3f37c70adabe40dc],
            [0x3f4d696df394529e, 0x3f4fa03a5e6175f8, 0x3f180efbac9a637f],
            [0x3f4e1b46e0ed9eac, 0x3f4fc5acbc557aa0, 0x3f15d2521fb554e6],
        ],
    },
    GoldenWaits {
        p: 8, faults: "delay:0-1:5", spans: 845, digest: 0xe3f1b8c973d2bb68,
        rank_bits: &[
            [0x3f47f822d022d6d6, 0x3f4e59c1769190ef, 0x3f475816cdd84609],
            [0x3f4a50f792463c1f, 0x3f5039f36ac544c1, 0x3f26a911b48b3a5e],
            [0x3f479473e2c8af7d, 0x3f4cd69acc3efdb5, 0x3f3f38ef23a8957a],
            [0x3f4afd4440ffaca2, 0x3f4f3dd8ae320792, 0x3f27926dd64749ec],
            [0x3f4991f60015c351, 0x3f4f24ae3ac0f6ae, 0x3f32301a3b009df5],
            [0x3f49444709dcd5b6, 0x3f4f24ae3ac0f6ae, 0x3f39635bf881e4fa],
            [0x3f4ae545f2044667, 0x3f4f2b1f7f38053e, 0x3f26826a19c0e2fc],
            [0x3f4cdf3802ca2e2e, 0x3f4f376769baf902, 0x3f22e2b396c8b1b9],
        ],
    },
];

#[test]
fn lap3d10_wait_accounting_is_pinned() {
    use parfact::mpsim::FaultPlan;
    let a = gen::laplace3d(10, 10, 10, gen::Stencil3d::SevenPoint);
    let (sym, ap, perm) = prepare(&a, Method::default(), &AmalgOpts::default());
    let print = std::env::var_os("PARFACT_PRINT_GOLDEN").is_some();
    let mut want = GOLDEN_WAITS.iter();
    for (p, faults) in [(4usize, ""), (8, ""), (16, ""), (8, "delay:0-1:5")] {
        let mut run = DistRun {
            timeline: true,
            ..DistRun::new(p, CostModel::bluegene_p(), &ap)
        };
        run.opts.faults = FaultPlan::parse(faults).unwrap();
        let mut factor = Factor::allocate(&sym, FactorKind::Llt, perm.clone());
        let out = run.run(&mut factor).expect("SPD").outcome;
        let spans = out.merged_events();
        let digest = spans.iter().fold(0xcbf29ce484222325u64, |h, e| {
            let h = e.phase.name().bytes().fold(h, |h, b| fnv(h, b as u64));
            let h = fnv(h, e.who as u64);
            let h = fnv(h, e.supernode.map_or(u64::MAX, |s| s as u64));
            fnv(fnv(h, e.start_s.to_bits()), e.dur_s.to_bits())
        });
        let rank_bits: Vec<[u64; 3]> = out
            .stats
            .iter()
            .map(|s| {
                [
                    s.comm_s.to_bits(),
                    s.clock_s.to_bits(),
                    s.comm_hidden_s.to_bits(),
                ]
            })
            .collect();
        if print {
            println!(
                "    GoldenWaits {{\n        p: {p}, faults: {faults:?}, spans: {}, \
                 digest: {digest:#018x},\n        rank_bits: &[",
                spans.len()
            );
            for [c, k, h] in &rank_bits {
                println!("            [{c:#018x}, {k:#018x}, {h:#018x}],");
            }
            println!("        ],\n    }},");
            continue;
        }
        let g = want.next().expect("one golden row per run");
        assert_eq!((g.p, g.faults), (p, faults), "golden rows out of order");
        let tag = format!("p={p} faults={faults:?}");
        assert_eq!(spans.len(), g.spans, "{tag}: span count");
        assert_eq!(digest, g.digest, "{tag}: span digest");
        assert_eq!(
            rank_bits, g.rank_bits,
            "{tag}: per-rank comm/clock/hidden bits"
        );
    }
}
