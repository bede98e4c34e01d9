//! The work-stealing walk over the assembly tree.
//!
//! The SMP factorization's tree phase schedules one task per supernode,
//! released when its children are done, pulled by scoped worker threads
//! from one shared queue. This module is that protocol (the dependency
//! counters, the queue, the termination and failure flags); the caller
//! supplies what a task does.
//!
//! The walk is depth-first where it can be: the worker whose task releases
//! a parent runs that parent next, while its children's updates are still
//! in its cache, and only the leaves go through the queue. So each worker
//! holds about one live front stack of updates, as the sequential engine
//! does, instead of every leaf's at once.

use crate::backoff::Backoff;
use crossbeam_deque::{Injector, Steal};
use parfact_symbolic::atree::AssemblyTree;
use parfact_symbolic::NONE;
use parfact_trace::{Collector, LocalRecorder};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Run `task(s, state, rec)` once for every supernode `s` with `member(s)`,
/// leaves to roots: a member runs after all its member children. One
/// scoped thread runs per item of `workers` (each thread owns its item as
/// `state` and a [`LocalRecorder`] of `tr` keyed by its index).
/// Dependencies on non-members count as already met.
///
/// A task's writes are visible to the tasks it releases (the last child's
/// worker runs the parent after an acquire-release countdown). The first
/// `Err` stops the walk: no new task starts, and the error is returned
/// once the running ones finish.
pub(crate) fn walk_tree<S: Send, E: Send>(
    tree: &AssemblyTree,
    member: impl Fn(usize) -> bool + Sync,
    workers: impl IntoIterator<Item = S>,
    tr: &Collector,
    task: impl Fn(usize, &mut S, &mut LocalRecorder<'_>) -> Result<(), E> + Sync,
) -> Result<(), E> {
    let nsuper = tree.parent.len();
    let member_parent = |s: usize| Some(tree.parent[s]).filter(|&p| p != NONE && member(p));
    // The member children a supernode still waits for.
    let pending: Vec<AtomicUsize> = (0..nsuper)
        .map(|s| AtomicUsize::new(tree.children[s].iter().filter(|&&c| member(c)).count()))
        .collect();
    let injector = Injector::new();
    let mut total = 0;
    for s in (0..nsuper).filter(|&s| member(s)) {
        total += 1;
        if pending[s].load(Ordering::Relaxed) == 0 {
            injector.push(s);
        }
    }
    let done = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let error: Mutex<Option<E>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for (wid, mut state) in workers.into_iter().enumerate() {
            let (task, member_parent) = (&task, &member_parent);
            let (pending, injector, done, failed, error) =
                (&pending, &injector, &done, &failed, &error);
            scope.spawn(move || {
                let mut rec = tr.local(wid);
                let mut backoff = Backoff::new();
                // The parent this worker's last task released, if any.
                let mut next = None;
                while !failed.load(Ordering::Relaxed) && done.load(Ordering::Relaxed) < total {
                    let s = match next.take() {
                        Some(s) => s,
                        None => match injector.steal() {
                            Steal::Success(s) => s,
                            Steal::Retry => continue,
                            Steal::Empty => {
                                backoff.snooze();
                                continue;
                            }
                        },
                    };
                    backoff.reset();
                    if let Err(e) = task(s, &mut state, &mut rec) {
                        *error.lock() = Some(e);
                        failed.store(true, Ordering::SeqCst);
                        break;
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                    if let Some(p) = member_parent(s) {
                        if pending[p].fetch_sub(1, Ordering::SeqCst) == 1 {
                            next = Some(p);
                        }
                    }
                }
            });
        }
    });
    error.into_inner().map_or(Ok(()), Err)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two trees: 6 <- {4 <- {0, 1}, 5 <- {2, 3}} and 8 <- {7}.
    fn forest() -> AssemblyTree {
        let parent = vec![4, 4, 5, 5, 6, 6, NONE, 8, NONE];
        let mut children = vec![Vec::new(); parent.len()];
        for (s, &p) in parent.iter().enumerate() {
            if p != NONE {
                children[p].push(s);
            }
        }
        AssemblyTree {
            parent,
            children,
            roots: vec![6, 8],
        }
    }

    /// Walk with 4 workers and return the order the tasks ran in.
    fn order_of(member: impl Fn(usize) -> bool + Sync) -> Vec<usize> {
        let order = Mutex::new(Vec::new());
        walk_tree(
            &forest(),
            member,
            0..4,
            &Collector::disabled(),
            |s, _, _| -> Result<(), ()> {
                order.lock().push(s);
                Ok(())
            },
        )
        .unwrap();
        order.into_inner()
    }

    fn position(order: &[usize], s: usize) -> usize {
        order.iter().position(|&t| t == s).expect("task ran")
    }

    #[test]
    fn every_supernode_runs_once_after_its_children() {
        let tree = forest();
        for _ in 0..50 {
            let order = order_of(|_| true);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..9).collect::<Vec<_>>());
            for (s, &p) in tree.parent.iter().enumerate().filter(|(_, &p)| p != NONE) {
                assert!(
                    position(&order, s) < position(&order, p),
                    "{p} ran before {s}"
                );
            }
        }
    }

    #[test]
    fn only_members_run_and_outside_dependencies_count_as_met() {
        // The bottom of the tree (the factorization's small set).
        let mut up = order_of(|s| s < 6 && s != 4);
        up.sort_unstable();
        assert_eq!(up, vec![0, 1, 2, 3, 5]);
    }

    #[test]
    fn the_worker_that_releases_a_parent_runs_it_next() {
        // One worker: the queue holds the leaves 0, 1, 2, 3, 7 in order,
        // and each released parent runs before the next leaf is taken.
        let order = Mutex::new(Vec::new());
        walk_tree(
            &forest(),
            |_| true,
            [()],
            &Collector::disabled(),
            |s, _, _| -> Result<(), ()> {
                order.lock().push(s);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(order.into_inner(), vec![0, 1, 4, 2, 3, 5, 6, 7, 8]);
    }

    #[test]
    fn first_error_stops_the_walk_and_is_returned() {
        let ran = Mutex::new(Vec::new());
        let r = walk_tree(
            &forest(),
            |_| true,
            0..3,
            &Collector::disabled(),
            |s, _, _| {
                ran.lock().push(s);
                if s == 4 {
                    Err("front 4 failed")
                } else {
                    Ok(())
                }
            },
        );
        assert_eq!(r, Err("front 4 failed"));
        // Nothing above the failed supernode was released.
        assert!(!ran.into_inner().contains(&6));
    }
}
