//! The machine's shared state, behind one lock: the mailboxes, the ranks
//! parked on a message, the crashed marks, the count of running ranks, and
//! the scan that decides a run no rank can advance.
//!
//! A parked rank waits on exactly one `(src, tag)` key. Three things wake
//! it: a post of that key, an abort, or its election to fire its receive
//! deadline.

use crate::model::CostModel;
use crate::FaultCounts;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::any::Any;
use std::collections::{HashMap, VecDeque};

/// What a receive matches on: `(source rank, tag)`.
pub(crate) type Key = (usize, u64);

/// A message in flight.
pub(crate) struct Msg {
    pub(crate) data: Box<dyn Any + Send>,
    /// Virtual time at which the message is fully available at the receiver.
    pub(crate) arrival: f64,
    /// Payload bytes, as charged to the sender. Read back when the message
    /// is consumed (receive counters) and for the end-of-run reconciliation
    /// of undrained queues against the communication matrix.
    pub(crate) bytes: usize,
}

/// One rank's incoming messages, queued per key.
#[derive(Default)]
pub(crate) struct Mailbox {
    pub(crate) map: HashMap<Key, VecDeque<Msg>>,
    /// Messages currently queued (all keys).
    pub(crate) depth: usize,
    /// High-water mark of `depth`. A physical diagnostic of buffering
    /// pressure: it can vary run-to-run with host scheduling (unlike clocks
    /// and numeric results, which are deterministic).
    pub(crate) depth_peak: usize,
}

impl Mailbox {
    fn head(&self, key: &Key) -> Option<f64> {
        self.map.get(key).and_then(|q| q.front()).map(|m| m.arrival)
    }
}

/// A parked rank's one missing key, and the absolute virtual deadline of
/// its wait (wait-start clock + the machine-wide receive timeout), if the
/// machine has one.
struct Parked {
    key: Key,
    deadline: Option<f64>,
}

/// Why a run was aborted. A blockage caused by a crashed rank holding
/// undelivered sends is a rank failure, never a protocol deadlock.
pub(crate) enum Abort {
    /// A rank panicked or timed out; its own end names the verdict.
    Failed,
    /// Protocol deadlock, with a per-rank diagnostic.
    Deadlock(String),
    /// Every surviving rank is finished or blocked on a crashed rank's
    /// undelivered sends, with a per-rank diagnostic.
    RankFailure(String),
}

/// Everything the ranks share, behind [`Shared::world`].
pub(crate) struct World {
    pub(crate) boxes: Vec<Mailbox>,
    parked: Vec<Option<Parked>>,
    crashed: Vec<bool>,
    /// Ranks neither finished, crashed nor parked: the scan runs only when
    /// this reaches zero.
    running: usize,
    /// Rank elected by the scan to fire its receive deadline. While an
    /// election is pending the scan makes no further decision.
    elected: Option<usize>,
    pub(crate) abort: Option<Abort>,
    /// Injected-fault activity, bumped by the ranks it happens to.
    pub(crate) faults: FaultCounts,
}

/// The machine's shared state: the world behind its one lock, and the
/// condition variable each rank parks on.
pub(crate) struct Shared {
    pub(crate) world: Mutex<World>,
    wake: Vec<Condvar>,
    pub(crate) model: CostModel,
}

/// How a rank's program ended, as far as the others are concerned.
pub(crate) enum End {
    Done,
    Crashed,
    /// A panic or a timeout: the run aborts.
    Failed,
}

/// Panic payload unwinding every rank once the run is aborted. Which
/// verdict that is comes from [`World::abort`].
pub(crate) struct Aborted;

/// Panic payload raised by a rank the fault plan crashes. Caught by the
/// machine and turned into a rank-failure verdict.
pub(crate) struct RankCrashed {
    pub(crate) at_s: f64,
}

/// Panic payload raised by a blocking receive that exceeded the
/// machine-wide receive deadline, on the `(src, tag)` it was matching and
/// the virtual seconds it waited. Caught by the machine and turned into a
/// timeout verdict.
pub(crate) struct TimeoutAbort {
    pub(crate) src: usize,
    pub(crate) tag: u64,
    pub(crate) waited_s: f64,
}

impl Shared {
    pub(crate) fn new(nranks: usize, model: CostModel) -> Self {
        Shared {
            world: Mutex::new(World {
                boxes: (0..nranks).map(|_| Mailbox::default()).collect(),
                parked: (0..nranks).map(|_| None).collect(),
                crashed: vec![false; nranks],
                running: nranks,
                elected: None,
                abort: None,
                faults: FaultCounts::default(),
            }),
            wake: (0..nranks).map(|_| Condvar::new()).collect(),
            model,
        }
    }

    /// Queue `copies` of one message at `dst` under `(src, tag)` (two on a
    /// duplicated link, `delayed` on a slowed one), and wake `dst` if it is
    /// parked on exactly that key.
    pub(crate) fn post(&self, src: usize, dst: usize, tag: u64, copies: Vec<Msg>, delayed: bool) {
        let mut w = self.world.lock();
        w.faults.delayed_msgs += u64::from(delayed);
        w.faults.duplicated_msgs += copies.len() as u64 - 1;
        let mbox = &mut w.boxes[dst];
        mbox.depth += copies.len();
        mbox.depth_peak = mbox.depth_peak.max(mbox.depth);
        mbox.map.entry((src, tag)).or_default().extend(copies);
        let wake = w.parked[dst].as_ref().is_some_and(|p| p.key == (src, tag));
        drop(w);
        if wake {
            self.wake[dst].notify_one();
        }
    }

    /// The head arrivals of `keys` at rank `me`, in `keys` order, consuming
    /// nothing; parks until every key has a head. An elected rank gets its
    /// smallest missing key back as the error.
    pub(crate) fn probe(
        &self,
        me: usize,
        keys: &[Key],
        deadline: Option<f64>,
    ) -> Result<Vec<f64>, Key> {
        let mut w = self.world.lock();
        self.park(&mut w, me, keys, deadline)?;
        let mbox = &w.boxes[me];
        Ok(keys
            .iter()
            .map(|k| mbox.head(k).expect("a seen head stays until taken"))
            .collect())
    }

    /// Take the head of `key` at rank `me`, parking until it is posted.
    /// `None` once the wait passes `deadline`: the head arrives after it,
    /// or the scan fired it.
    pub(crate) fn recv(&self, me: usize, key: Key, deadline: Option<f64>) -> Option<Msg> {
        use std::collections::hash_map::Entry;
        let mut w = self.world.lock();
        self.park(&mut w, me, &[key], deadline).ok()?;
        let mbox = &mut w.boxes[me];
        let Entry::Occupied(mut queue) = mbox.map.entry(key) else {
            unreachable!("parking returned without a head");
        };
        if deadline.is_some_and(|d| queue.get()[0].arrival > d) {
            return None;
        }
        let msg = queue
            .get_mut()
            .pop_front()
            .expect("queued keys are never empty");
        // An empty queue means what an absent one does; dropping it keeps
        // the table the size of what is queued, not of every `(src, tag)`
        // ever received (the dist engine uses each tag once).
        if queue.get().is_empty() {
            queue.remove();
        }
        mbox.depth -= 1;
        Some(msg)
    }

    /// Park rank `me` until every key in `keys` has a queue head. Blocks
    /// the OS thread only — no virtual clock moves. Only `me` consumes its
    /// mailbox, so a head once seen stays: a cursor walks `keys` once, and
    /// the rank parks on the first missing key alone.
    ///
    /// A deadline never resolves on this thread: the scan decides at
    /// quiescence, when every parked clock is frozen — otherwise the abort
    /// would race still-running peers and the failed attempt's clocks (and
    /// makespan) would depend on host timing. An elected rank returns its
    /// smallest missing key.
    fn park(
        &self,
        w: &mut MutexGuard<'_, World>,
        me: usize,
        keys: &[Key],
        deadline: Option<f64>,
    ) -> Result<(), Key> {
        for &(src, _) in keys {
            assert!(
                src < self.wake.len(),
                "recv from rank {src} of {}",
                self.wake.len()
            );
        }
        let mut cursor = 0;
        loop {
            if w.abort.is_some() {
                std::panic::panic_any(Aborted);
            }
            let mbox = &w.boxes[me];
            while cursor < keys.len() && mbox.head(&keys[cursor]).is_some() {
                cursor += 1;
            }
            let Some(&key) = keys.get(cursor) else {
                return Ok(());
            };
            if w.elected == Some(me) {
                let missing = keys[cursor..].iter().filter(|k| mbox.head(k).is_none());
                let smallest = *missing.min().expect("the cursor's key is missing");
                w.elected = None;
                return Err(smallest);
            }
            w.parked[me] = Some(Parked { key, deadline });
            w.running -= 1;
            // The scan may have decided for this very rank already.
            self.scan(w);
            while w.boxes[me].head(&key).is_none() && w.abort.is_none() && w.elected != Some(me) {
                self.wake[me].wait(w);
            }
            w.parked[me] = None;
            w.running += 1;
        }
    }

    /// Rank `r`'s program ended: it will never send again. A failed end
    /// aborts the run; any other may leave the rest provably stuck.
    pub(crate) fn retire(&self, r: usize, end: End) {
        let mut w = self.world.lock();
        w.running -= 1;
        match end {
            End::Done => {}
            End::Crashed => {
                w.crashed[r] = true;
                w.faults.crashes += 1;
            }
            End::Failed => self.abort(&mut w, Abort::Failed),
        }
        self.scan(&mut w);
    }

    fn abort(&self, w: &mut World, why: Abort) {
        if w.abort.is_none() {
            w.abort = Some(why);
            for c in &self.wake {
                c.notify_one();
            }
        }
    }

    /// With the lock held: once no rank is running, decide whether the
    /// parked ranks can ever advance. Every parked clock is frozen here, so
    /// the decision is a deterministic function of the program and fault
    /// plan:
    ///
    /// 1. a parked rank whose key has a head was woken and has not run yet:
    ///    nothing is decided;
    /// 2. with a crashed rank in the picture, abort as a rank failure — the
    ///    precise verdict, without burning receive deadlines;
    /// 3. else elect the earliest receive deadline to fire (the rank aborts
    ///    the run with a typed timeout), ties broken by rank;
    /// 4. else abort as a protocol deadlock.
    fn scan(&self, w: &mut World) {
        if w.running > 0 || w.abort.is_some() || w.elected.is_some() {
            return;
        }
        let parked: Vec<(usize, &Parked)> = w
            .parked
            .iter()
            .enumerate()
            .filter_map(|(r, p)| Some((r, p.as_ref()?)))
            .collect();
        let live = parked
            .iter()
            .any(|&(r, p)| w.boxes[r].head(&p.key).is_some());
        if parked.is_empty() || live {
            return;
        }
        let any_crashed = w.crashed.contains(&true);
        let winner = parked
            .iter()
            .filter(|_| !any_crashed)
            .filter_map(|&(r, p)| Some((p.deadline?, r)))
            .min_by(|a, b| a.partial_cmp(b).expect("NaN deadline"));
        if let Some((_, r)) = winner {
            w.elected = Some(r);
            self.wake[r].notify_one();
            return;
        }
        use std::fmt::Write;
        let mut diag = if any_crashed {
            String::from(
                "mpsim rank failure: a crashed rank holds undelivered sends and \
                 every surviving rank is finished or blocked on them\n",
            )
        } else {
            String::from(
                "mpsim deadlock: every rank is finished or blocked in recv \
                 with no matching message in flight\n",
            )
        };
        for (r, p) in w.parked.iter().enumerate() {
            let _ = match p {
                _ if w.crashed[r] => writeln!(diag, "  rank {r} crashed"),
                Some(Parked { key: (s, t), .. }) => {
                    writeln!(diag, "  rank {r} waiting on: (src={s}, tag={t})")
                }
                None => writeln!(diag, "  rank {r} finished"),
            };
        }
        let why = if any_crashed {
            Abort::RankFailure(diag)
        } else {
            Abort::Deadlock(diag)
        };
        self.abort(w, why);
    }
}
