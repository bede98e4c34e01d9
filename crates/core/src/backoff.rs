//! Bounded spin-then-park backoff for worker wait loops.
//!
//! The SMP factorization and solve phases have workers that must wait for
//! dependencies produced by other threads (child updates, solved pivot
//! segments). A bare `yield_now()` loop burns a core for the entire
//! duration of a large top-of-tree front; parking immediately costs a
//! syscall round-trip on the (common) short waits between small fronts.
//! [`Backoff`] staggers between the two: a few busy spins, a few yields,
//! then short timed parks.
//!
//! Timed parks (rather than an unpark-based handshake) keep the producers
//! wait-free — nobody has to know who is waiting — at the cost of up to
//! `PARK_US` microseconds of extra latency once a worker has fully
//! backed off, which is noise next to the dense kernel time of the fronts
//! that cause long waits.

use std::time::Duration;

/// Busy `spin_loop` rounds before starting to yield.
const SPIN_LIMIT: u32 = 6;
/// `yield_now` rounds before starting to park.
const YIELD_LIMIT: u32 = 10;
/// Park duration once fully backed off.
const PARK_US: u64 = 50;

/// Escalating wait helper: call [`Backoff::snooze`] each time a poll comes
/// up empty and [`Backoff::reset`] whenever progress is made.
#[derive(Debug, Default)]
pub struct Backoff {
    step: u32,
}

impl Backoff {
    /// Fresh backoff (starts at the busy-spin stage).
    pub fn new() -> Self {
        Backoff { step: 0 }
    }

    /// Progress was made: return to the busy-spin stage.
    #[inline]
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// Wait a little, escalating from spins through yields to timed parks.
    pub fn snooze(&mut self) {
        if self.step < SPIN_LIMIT {
            for _ in 0..(1 << self.step) {
                std::hint::spin_loop();
            }
        } else if self.step < SPIN_LIMIT + YIELD_LIMIT {
            std::thread::yield_now();
        } else {
            std::thread::park_timeout(Duration::from_micros(PARK_US));
        }
        if self.step < SPIN_LIMIT + YIELD_LIMIT {
            self.step += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snooze_escalates_and_reset_restarts() {
        let mut b = Backoff::new();
        for _ in 0..(SPIN_LIMIT + YIELD_LIMIT + 5) {
            b.snooze();
        }
        // Saturates at the park stage instead of overflowing.
        assert_eq!(b.step, SPIN_LIMIT + YIELD_LIMIT);
        b.reset();
        assert_eq!(b.step, 0);
    }

    #[test]
    fn parked_waiter_observes_flag_promptly() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = Arc::clone(&flag);
        let h = std::thread::spawn(move || {
            let mut b = Backoff::new();
            while !f2.load(Ordering::Acquire) {
                b.snooze();
            }
        });
        std::thread::sleep(Duration::from_millis(5));
        flag.store(true, Ordering::Release);
        h.join().unwrap();
    }
}
