//! The work-stealing walk over the assembly tree.
//!
//! The SMP factorization's tree phase and both SMP solve sweeps schedule
//! the same way: one task per supernode, released when the tasks it depends
//! on are done (its children going [`Walk::Up`], its parent going
//! [`Walk::Down`]), pulled by scoped worker threads from one shared queue.
//! This module is that protocol (the dependency counters, the queue, the
//! termination and failure flags) once; callers supply what a task does.

use crate::backoff::Backoff;
use crossbeam_deque::{Injector, Steal};
use parfact_symbolic::atree::AssemblyTree;
use parfact_symbolic::NONE;
use parfact_trace::{Collector, LocalRecorder};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Direction of a tree walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Walk {
    /// Leaves to roots: a supernode runs after all its children.
    Up,
    /// Roots to leaves: a supernode runs after its parent.
    Down,
}

/// Run `task(s, state, rec)` once for every supernode `s` with `member(s)`,
/// respecting `dir`'s dependencies among members, on one scoped thread per
/// item of `workers` (each thread owns its item as `state` and a
/// [`LocalRecorder`] of `tr` keyed by its index). Dependencies on
/// non-members count as already met.
///
/// A task's writes are visible to the tasks it releases (the queue hands
/// supernodes over with release/acquire ordering). The first `Err` stops
/// the walk: no new task starts, and the error is returned once the
/// running ones finish.
pub(crate) fn walk_tree<S: Send, E: Send>(
    tree: &AssemblyTree,
    dir: Walk,
    member: impl Fn(usize) -> bool + Sync,
    workers: impl IntoIterator<Item = S>,
    tr: &Collector,
    task: impl Fn(usize, &mut S, &mut LocalRecorder<'_>) -> Result<(), E> + Sync,
) -> Result<(), E> {
    let nsuper = tree.parent.len();
    let member_parent = |s: usize| Some(tree.parent[s]).filter(|&p| p != NONE && member(p));
    // Going up, the member children a supernode still waits for.
    let pending: Vec<AtomicUsize> = (0..nsuper)
        .map(|s| AtomicUsize::new(tree.children[s].iter().filter(|&&c| member(c)).count()))
        .collect();
    let injector = Injector::new();
    let mut total = 0;
    for s in (0..nsuper).filter(|&s| member(s)) {
        total += 1;
        let ready = match dir {
            Walk::Up => pending[s].load(Ordering::Relaxed) == 0,
            Walk::Down => member_parent(s).is_none(),
        };
        if ready {
            injector.push(s);
        }
    }
    let done = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let error: Mutex<Option<E>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for (wid, mut state) in workers.into_iter().enumerate() {
            let (member, task, member_parent) = (&member, &task, &member_parent);
            let (pending, injector, done, failed, error) =
                (&pending, &injector, &done, &failed, &error);
            scope.spawn(move || {
                let mut rec = tr.local(wid);
                let mut backoff = Backoff::new();
                while !failed.load(Ordering::Relaxed) && done.load(Ordering::Relaxed) < total {
                    let s = match injector.steal() {
                        Steal::Success(s) => s,
                        Steal::Retry => continue,
                        Steal::Empty => {
                            backoff.snooze();
                            continue;
                        }
                    };
                    backoff.reset();
                    if let Err(e) = task(s, &mut state, &mut rec) {
                        *error.lock() = Some(e);
                        failed.store(true, Ordering::SeqCst);
                        break;
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                    match dir {
                        Walk::Up => {
                            if let Some(p) = member_parent(s) {
                                if pending[p].fetch_sub(1, Ordering::SeqCst) == 1 {
                                    injector.push(p);
                                }
                            }
                        }
                        Walk::Down => {
                            for &c in tree.children[s].iter().filter(|&&c| member(c)) {
                                injector.push(c);
                            }
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
    fn order_of(dir: Walk, member: impl Fn(usize) -> bool + Sync) -> Vec<usize> {
        let order = Mutex::new(Vec::new());
        walk_tree(
            &forest(),
            dir,
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
    fn every_supernode_runs_once_after_its_dependencies() {
        let tree = forest();
        for _ in 0..50 {
            for dir in [Walk::Up, Walk::Down] {
                let order = order_of(dir, |_| true);
                let mut sorted = order.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..9).collect::<Vec<_>>(), "{dir:?}");
                for (s, &p) in tree.parent.iter().enumerate().filter(|(_, &p)| p != NONE) {
                    let (first, second) = if dir == Walk::Up { (s, p) } else { (p, s) };
                    assert!(
                        position(&order, first) < position(&order, second),
                        "{dir:?}: {second} ran before {first}"
                    );
                }
            }
        }
    }

    #[test]
    fn only_members_run_and_outside_dependencies_count_as_met() {
        // Up over the bottom of the tree (the factorization's small set).
        let mut up = order_of(Walk::Up, |s| s < 6 && s != 4);
        up.sort_unstable();
        assert_eq!(up, vec![0, 1, 2, 3, 5]);
        // Down below a cut: 4 and 5 start although their parent never runs.
        let down = order_of(Walk::Down, |s| s < 6);
        assert_eq!(down.len(), 6);
        assert!(position(&down, 4) < position(&down, 0));
        assert!(position(&down, 5) < position(&down, 3));
    }

    #[test]
    fn first_error_stops_the_walk_and_is_returned() {
        let ran = Mutex::new(Vec::new());
        let r = walk_tree(
            &forest(),
            Walk::Up,
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
