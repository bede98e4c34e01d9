//! The two collectives the distributed factorization uses: broadcasts over
//! a rank [`Group`], blocking ([`bcast`]) and pipelined ([`ibcast`]), both
//! binomial trees built from point-to-point messages — their cost emerges
//! from the α–β model rather than being special-cased.
//!
//! A [`Group`] is an ordered subset of machine ranks: a front's process
//! grid row or column. Every member of the group must call the broadcast
//! (SPMD discipline); tags are caller-supplied so concurrent broadcasts on
//! disjoint groups cannot collide.

use crate::payload::Payload;
use crate::Rank;

/// An ordered set of machine ranks acting as a communicator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    ranks: Vec<usize>,
}

impl Group {
    /// An explicit rank list (must be non-empty, duplicates forbidden).
    pub fn new(ranks: Vec<usize>) -> Self {
        assert!(!ranks.is_empty());
        let mut sorted = ranks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ranks.len(), "duplicate ranks in group");
        Group { ranks }
    }

    /// Group size.
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// True when the group has no members (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    /// Machine rank of group member `i`.
    pub fn member(&self, i: usize) -> usize {
        self.ranks[i]
    }

    /// Index of machine rank `r` in this group, if present.
    pub fn index_of(&self, r: usize) -> Option<usize> {
        self.ranks.iter().position(|&x| x == r)
    }
}

/// Broadcast `value` from group member `root_idx` to all members.
/// Non-roots pass `None`. Returns the value on every member.
pub fn bcast<T: Payload + Clone>(
    rank: &mut Rank,
    group: &Group,
    root_idx: usize,
    value: Option<T>,
    tag: u64,
) -> T {
    bcast_impl(rank, group, root_idx, value, tag, false)
}

/// Broadcast like [`bcast`] but with nonblocking forwarding
/// ([`Rank::isend`]): each hop occupies the sender for α only and the
/// `bytes·β` transfers pipeline down the tree (charged to
/// `comm_hidden_s`). Message matching, traversal order and values are
/// identical to [`bcast`], so results stay bitwise the same — only the
/// modelled schedule differs.
pub fn ibcast<T: Payload + Clone>(
    rank: &mut Rank,
    group: &Group,
    root_idx: usize,
    value: Option<T>,
    tag: u64,
) -> T {
    bcast_impl(rank, group, root_idx, value, tag, true)
}

fn bcast_impl<T: Payload + Clone>(
    rank: &mut Rank,
    group: &Group,
    root_idx: usize,
    value: Option<T>,
    tag: u64,
    overlap: bool,
) -> T {
    let p = group.len();
    let me = group
        .index_of(rank.rank())
        .expect("caller not in collective group");
    let vr = (me + p - root_idx) % p;
    let mut have: Option<T> = if vr == 0 {
        Some(value.expect("root must supply a value"))
    } else {
        None
    };
    // Receive from the parent (strip the lowest set bit of vr).
    let mut mask = 1usize;
    while mask < p {
        if vr & mask != 0 {
            let src_vr = vr - mask;
            let src = group.member((src_vr + root_idx) % p);
            have = Some(rank.recv::<T>(src, tag));
            break;
        }
        mask <<= 1;
    }
    // Forward to children.
    mask >>= 1;
    let v = have.expect("bcast internal error: no value at forward phase");
    while mask > 0 {
        if vr & mask == 0 && vr + mask < p {
            let dst = group.member((vr + mask + root_idx) % p);
            if overlap {
                rank.isend(dst, tag, v.clone());
            } else {
                rank.send(dst, tag, v.clone());
            }
        }
        mask >>= 1;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CostModel;
    use crate::Machine;

    #[test]
    fn bcast_reaches_everyone_for_all_sizes_and_roots() {
        for p in 1..=9usize {
            let m = Machine::new(p, CostModel::bluegene_p());
            for root in [0, p / 2, p - 1] {
                let r = m.run(|rank| {
                    let g = Group::new((0..rank.nranks()).collect());
                    let v = if g.index_of(rank.rank()) == Some(root) {
                        Some(vec![root as f64, 2.5])
                    } else {
                        None
                    };
                    bcast(rank, &g, root, v, 100)
                });
                for res in &r.results {
                    assert_eq!(res, &vec![root as f64, 2.5], "p={p} root={root}");
                }
            }
        }
    }

    #[test]
    fn bcast_on_subgroup_leaves_others_alone() {
        let m = Machine::new(6, CostModel::zero_cost());
        let r = m.run(|rank| {
            let g = Group::new(vec![2, 3, 4]);
            if g.index_of(rank.rank()).is_some() {
                let v = if rank.rank() == 2 { Some(7u64) } else { None };
                bcast(rank, &g, 0, v, 5)
            } else {
                0
            }
        });
        assert_eq!(r.results, vec![0, 0, 7, 7, 7, 0]);
    }

    #[test]
    fn ibcast_matches_bcast_values_and_pipelines_transfers() {
        let m = CostModel {
            alpha_s: 1.0,
            beta_s_per_byte: 1.0,
            flop_time_s: 0.0,
        };
        let payload = vec![1.25f64; 64]; // 512 bytes: bandwidth dominated
        let run = |overlap: bool| {
            let payload = payload.clone();
            Machine::new(8, m).run(move |rank| {
                let g = Group::new((0..rank.nranks()).collect());
                let v = if rank.rank() == 0 {
                    Some(payload.clone())
                } else {
                    None
                };
                if overlap {
                    ibcast(rank, &g, 0, v, 2)
                } else {
                    bcast(rank, &g, 0, v, 2)
                }
            })
        };
        let blocking = run(false);
        let pipelined = run(true);
        for (a, b) in blocking.results.iter().zip(&pipelined.results) {
            assert_eq!(a, b, "ibcast must deliver identical values");
        }
        // The store-and-forward critical path (a chain of full transfers)
        // is the same, so the bare-broadcast makespan cannot get worse...
        assert!(pipelined.makespan_s <= blocking.makespan_s + 1e-12);
        // ...but isend frees each sender after α per child instead of a
        // full transfer per child: the root is available for compute almost
        // immediately (3 α's vs 3 serialized transfers). That freed time is
        // where overlap with computation comes from.
        assert!(
            pipelined.stats[0].clock_s < 0.1 * blocking.stats[0].clock_s,
            "root clock {} vs {}",
            pipelined.stats[0].clock_s,
            blocking.stats[0].clock_s
        );
        assert!(pipelined.stats.iter().any(|s| s.comm_hidden_s > 0.0));
    }

    #[test]
    fn ibcast_of_an_arc_shares_the_root_buffer_at_the_vecs_cost() {
        use crate::{FaultPlan, RankStats};
        use std::sync::Arc;
        // Every member of a 6-rank tree ends up holding the root's one
        // allocation, and the machine charges exactly what it charges for
        // the same broadcast of a plain vector — also when an injected
        // duplicate puts a second copy on a link.
        for (dups, plan) in [
            (0, FaultPlan::new()),
            (1, FaultPlan::new().duplicate_link(0, 1)),
        ] {
            let run = |shared: bool| {
                let r = Machine::new(6, CostModel::bluegene_p())
                    .fault_plan(plan.clone())
                    .run(move |rank| {
                        let g = Group::new((0..rank.nranks()).collect());
                        let value = (rank.rank() == 0).then(|| vec![0.5f64; 100]);
                        if shared {
                            ibcast(rank, &g, 0, value.map(Arc::new), 3)
                        } else {
                            Arc::new(ibcast(rank, &g, 0, value, 3))
                        }
                    });
                // The mailbox high-water mark is physical, not modelled.
                let stats: Vec<RankStats> = r
                    .stats
                    .iter()
                    .map(|s| RankStats {
                        queue_peak: 0,
                        ..*s
                    })
                    .collect();
                (r.results, stats)
            };
            let (shared, shared_stats) = run(true);
            let (copied, copied_stats) = run(false);
            assert!(shared.iter().all(|x| Arc::ptr_eq(x, &shared[0])));
            assert!(copied.iter().all(|x| x == &shared[0]));
            assert_eq!(shared_stats, copied_stats);
            // Five tree edges, plus the injected copy.
            let sent: u64 = shared_stats.iter().map(|s| s.msgs_sent).sum();
            assert_eq!(sent, 5 + dups);
        }
    }

    #[test]
    fn bcast_cost_scales_logarithmically() {
        // With pipelining-free binomial trees, bcast time ~ ceil(log2 p)
        // sequential hops for small messages.
        let m = CostModel {
            alpha_s: 1.0,
            beta_s_per_byte: 0.0,
            flop_time_s: 0.0,
        };
        let time_for = |p: usize| {
            Machine::new(p, m)
                .run(|rank| {
                    let g = Group::new((0..rank.nranks()).collect());
                    let v = if rank.rank() == 0 { Some(1u8) } else { None };
                    bcast(rank, &g, 0, v, 1);
                })
                .makespan_s
        };
        // Root's sends serialize: p=2 -> 1; p=8 -> root sends 3 messages and
        // the last leaf finishes after its chain, <= log2(p)+2.
        assert!(time_for(2) <= 1.0 + 1e-9);
        assert!(time_for(8) <= 5.0 + 1e-9);
        assert!(time_for(64) <= 12.0 + 1e-9);
        assert!(time_for(64) >= 6.0 - 1e-9);
    }
}
