//! Stress and edge-case tests for the machine simulator.

use parfact_mpsim::collective::{bcast, Group};
use parfact_mpsim::model::CostModel;
use parfact_mpsim::{Machine, Rank, RunVerdict};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// Run `f` on a helper thread and fail if it has not returned within 30 s
/// of wall time. A parked rank wakes only on a post of its key, an abort,
/// or its election; a lost wake-up hangs the run rather than healing
/// itself, and this turns such a hang into a failure.
fn within_30s<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    use std::sync::mpsc::{channel, RecvTimeoutError};
    let (tx, rx) = channel();
    let run = std::thread::spawn(move || {
        let v = f();
        let _ = tx.send(());
        v
    });
    if let Err(RecvTimeoutError::Timeout) = rx.recv_timeout(std::time::Duration::from_secs(30)) {
        panic!("the run did not return within 30 s");
    }
    // Returned or panicked (the sender dropped): join, re-raising a panic.
    run.join().unwrap_or_else(|p| std::panic::resume_unwind(p))
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// 63 senders post 8 messages each to rank 0, under shuffled tags and at
/// random virtual times; rank 0 probes every key in another order, then
/// receives them in a third. Every probed arrival, value and the final
/// clock must be what the senders produced.
#[test]
fn fan_in_probe_then_recv_matches_the_senders() {
    let (p, per) = (64usize, 8u64);
    let mut rng = StdRng::seed_from_u64(34);
    // Per sender: (tag, virtual seconds to advance first, value).
    let plan: Vec<Vec<(u64, f64, u64)>> = (0..p)
        .map(|s| {
            let mut tags: Vec<u64> = (0..per).map(|k| 100 + k * 7 + s as u64 % 3).collect();
            shuffle(&mut tags, &mut rng);
            tags.into_iter()
                .map(|t| (t, rng.gen_range(0.0..1e-3), rng.gen::<u64>()))
                .collect()
        })
        .collect();
    let mut keys: Vec<(usize, u64)> = (1..p)
        .flat_map(|s| plan[s].iter().map(move |&(t, _, _)| (s, t)))
        .collect();
    shuffle(&mut keys, &mut rng);
    let mut order = keys.clone();
    shuffle(&mut order, &mut rng);
    let model = CostModel {
        alpha_s: 1e-6,
        beta_s_per_byte: 0.0,
        flop_time_s: 0.0,
    };
    let r = within_30s(move || {
        Machine::new(p, model).run(|rank| {
            let me = rank.rank();
            if me > 0 {
                // With β = 0 a message arrives at the sender's clock after α.
                let mut sent = Vec::new();
                for &(tag, dt, value) in &plan[me] {
                    rank.advance(dt);
                    rank.isend(0, tag, value);
                    sent.push(((me, tag), rank.clock(), value));
                }
                return (sent, rank.clock());
            }
            let arrivals = rank.probe_all(&keys);
            assert_eq!(rank.clock(), 0.0, "probing never advances time");
            let mut got = Vec::new();
            for &key in &order {
                let value: u64 = rank.recv(key.0, key.1);
                let i = keys.iter().position(|&k| k == key).unwrap();
                got.push((key, arrivals[i], value));
            }
            (got, rank.clock())
        })
    });
    let mut sent: Vec<((usize, u64), f64, u64)> =
        r.results[1..].iter().flat_map(|(s, _)| s.clone()).collect();
    let (mut got, clock0) = r.results[0].clone();
    sent.sort_by_key(|&(k, _, _)| k);
    got.sort_by_key(|&(k, _, _)| k);
    assert_eq!(got.len(), (p - 1) * per as usize);
    for (g, s) in got.iter().zip(&sent) {
        assert_eq!((g.0, g.1.to_bits(), g.2), (s.0, s.1.to_bits(), s.2));
    }
    let last = sent.iter().map(|s| s.1).fold(0.0, f64::max);
    assert_eq!(clock0.to_bits(), last.to_bits());
}

/// Every one of 128 ranks waits on its neighbour, and nobody sends.
#[test]
fn deadlock_of_128_ranks_returns_its_verdict() {
    let v = within_30s(|| {
        Machine::new(128, CostModel::zero_cost()).run_verdict(|rank| {
            let from = (rank.rank() + 1) % rank.nranks();
            let _: u64 = rank.recv(from, 5);
        })
    });
    match v.verdict {
        RunVerdict::Deadlocked { detail } => {
            assert_eq!(detail.matches("waiting on: (src=").count(), 128, "{detail}");
        }
        other => panic!("expected Deadlocked, got {other:?}"),
    }
}

/// 128 ranks wait at different virtual times on messages that never come:
/// the scan elects the earliest deadline, and that rank's timeout is the
/// verdict.
#[test]
fn deadline_election_among_128_ranks_returns_its_verdict() {
    let p = 128usize;
    let start = move |r: usize| ((r * 37 + 11) % p) as f64 * 1e-3;
    let v = within_30s(move || {
        Machine::new(p, CostModel::zero_cost())
            .recv_timeout(1.0)
            .run_verdict(move |rank| {
                let r = rank.rank();
                rank.advance(start(r));
                let _: u64 = rank.recv((r + 1) % p, 9);
            })
    });
    let first = (0..p)
        .min_by(|&a, &b| start(a).partial_cmp(&start(b)).unwrap())
        .unwrap();
    match v.verdict {
        RunVerdict::TimedOut {
            rank,
            src,
            tag,
            waited_s,
        } => {
            assert_eq!((rank, src, tag), (first, (first + 1) % p, 9));
            assert!((waited_s - 1.0).abs() < 1e-12, "waited {waited_s}");
        }
        other => panic!("expected TimedOut, got {other:?}"),
    }
    assert_eq!(v.fault_counts.timeouts, 1);
}
