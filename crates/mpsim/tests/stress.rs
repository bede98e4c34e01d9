//! Stress and edge-case tests for the machine simulator.

use parfact_mpsim::collective::{bcast, Group};
use parfact_mpsim::model::CostModel;
use parfact_mpsim::{Machine, Rank};

#[test]
fn message_storm_stays_fifo_and_deterministic() {
    // Every rank floods every other rank with tagged bursts; receivers
    // drain in a different order than senders sent. Values must come back
    // exactly, twice in a row (determinism).
    let run = || {
        Machine::new(5, CostModel::bluegene_p()).run(|rank| {
            let p = rank.nranks();
            let me = rank.rank();
            for dst in 0..p {
                if dst == me {
                    continue;
                }
                for k in 0..50u64 {
                    rank.send(dst, 1000 + (me as u64), vec![me as f64, k as f64]);
                }
            }
            let mut checksum = 0.0;
            for src in (0..p).rev() {
                if src == me {
                    continue;
                }
                for k in 0..50u64 {
                    let v: Vec<f64> = rank.recv(src, 1000 + (src as u64));
                    assert_eq!(v[0] as usize, src);
                    assert_eq!(v[1] as u64, k);
                    checksum += v[0] * (k as f64 + 1.0);
                }
            }
            checksum
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a.results, b.results);
    for (x, y) in a.stats.iter().zip(&b.stats) {
        assert_eq!(x.clock_s.to_bits(), y.clock_s.to_bits());
    }
}

/// Every rank sends `value` to rank 0, which sums them in rank order and
/// broadcasts the total back — an all-reduce from point-to-point sends and
/// a binomial broadcast.
fn sum_to_all(rank: &mut Rank, value: f64, tag: u64) -> f64 {
    let p = rank.nranks();
    let total = if rank.rank() == 0 {
        Some((1..p).fold(value, |acc, src| acc + rank.recv::<f64>(src, tag)))
    } else {
        rank.send(0, tag, value);
        None
    };
    bcast(rank, &Group::new((0..p).collect()), 0, total, tag + 1)
}

#[test]
fn clock_is_compute_plus_comm() {
    let r = Machine::new(3, CostModel::bluegene_p()).run(|rank| {
        rank.compute(1e7 * (rank.rank() + 1) as f64);
        let total = sum_to_all(rank, rank.rank() as f64, 1);
        assert_eq!(total, 3.0);
        let s = rank.stats();
        assert!(
            (s.compute_s + s.comm_s - s.clock_s).abs() < 1e-12,
            "clock must decompose: {s:?}"
        );
        s.clock_s
    });
    // All ranks end within one reduce-and-broadcast of each other.
    let max = r.results.iter().cloned().fold(0.0f64, f64::max);
    let min = r.results.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(max - min < 1e-3);
}

#[test]
fn zero_byte_messages_cost_alpha_only() {
    let m = CostModel {
        alpha_s: 1.0,
        beta_s_per_byte: 1.0,
        flop_time_s: 0.0,
    };
    let r = Machine::new(2, m).run(|rank| {
        if rank.rank() == 0 {
            rank.send(1, 0, Vec::<f64>::new());
        } else {
            let _: Vec<f64> = rank.recv(0, 0);
        }
        rank.clock()
    });
    assert_eq!(r.results[0], 1.0); // alpha only
    assert_eq!(r.results[1], 1.0);
}

#[test]
#[should_panic(expected = "self-sends")]
fn self_send_is_rejected() {
    Machine::new(2, CostModel::zero_cost()).run(|rank| {
        let me = rank.rank();
        rank.send(me, 0, 1u8);
    });
}

#[test]
fn group_index_of_nonmember_is_none() {
    let g = Group::new(vec![2, 4, 6]);
    assert_eq!(g.index_of(3), None);
    assert_eq!(g.index_of(4), Some(1));
}

#[test]
fn many_ranks_smoke() {
    // 64 ranks on one host: threads must multiplex fine.
    let r = Machine::new(64, CostModel::bluegene_p()).run(|rank| sum_to_all(rank, 1.0, 3));
    assert!(r.results.iter().all(|&v| v == 64.0));
}

#[test]
fn report_aggregates() {
    let r = Machine::new(4, CostModel::bluegene_p()).run(|rank| {
        if rank.rank() == 0 {
            rank.send(1, 9, vec![0u8; 1000]);
        } else if rank.rank() == 1 {
            let _: Vec<u8> = rank.recv(0, 9);
        }
        rank.compute(1000.0);
        rank.alloc(123);
    });
    assert_eq!(r.total_msgs(), 1);
    assert_eq!(r.total_bytes(), 1000);
    assert_eq!(r.total_flops(), 4000.0);
    assert_eq!(r.max_mem_peak(), 123);
    assert!(r.makespan_s > 0.0);
    assert!(r.gflops() > 0.0);
}
