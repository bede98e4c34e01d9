//! A deterministic message-passing machine simulator.
//!
//! This crate stands in for MPI on a massively parallel machine (the SC'09
//! testbed was a Blue Gene/P-class system): each *rank* runs as a real OS
//! thread executing the real distributed algorithm and exchanging real
//! data, while a per-rank **virtual clock** advances according to an α–β
//! communication model and a per-flop compute rate ([`model::CostModel`]).
//!
//! What is real: every byte of payload, the algorithm's control flow, its
//! message pattern, and all numeric results (bit-for-bit deterministic —
//! receives are matched by `(source, tag)`, never by arrival order).
//! What is modelled: *time*. The simulated makespan is derived from the
//! same flop/byte/message counts that determine wall-clock time on real
//! hardware, which is what the scaling experiments measure.
//!
//! # Communication primitives
//!
//! The surface is what the distributed factorization uses: two sends, a
//! blocking receive and a probe, plus the binomial-tree broadcasts in
//! [`collective`].
//!
//! [`Rank::send`] models an eager blocking send: the sender is occupied for
//! the full `α + bytes·β`. [`Rank::isend`] models a nonblocking send whose
//! transfer is pipelined by the network: the sender pays only `α`, the
//! `bytes·β` transfer proceeds in the background (counted in
//! `comm_hidden_s`), and the message arrives at the receiver at
//! `clock_after_α + bytes·β`. On the receive side, [`Rank::recv`] takes one
//! `(source, tag)` message, and [`Rank::probe_all`] reports the virtual
//! arrival times of several without consuming them, so a schedule can pick
//! its receive order from what has *virtually* arrived.
//!
//! Determinism is preserved by a strict rule: every nonblocking decision is
//! a function of **virtual** arrival times, never of host-thread timing.
//! An operation that needs to know an arrival time physically blocks the OS
//! thread (without advancing the virtual clock) until the message is
//! posted, then decides. A blocked rank parks on exactly one `(source,
//! tag)` key — the first of its keys with nothing queued — and only a post
//! of that key, an abort, or its election to fire a receive deadline wakes
//! it. This is safe for SPMD programs in which every expected message is
//! eventually sent without further action from the waiter; genuine
//! protocol errors are caught once every rank is finished or parked, and
//! the run aborts with a per-rank diagnostic instead of hanging.
//!
//! # Runs and verdicts
//!
//! [`Machine::run_verdict`] runs a program under an optional [`FaultPlan`]
//! and machine-wide receive deadline ([`Machine::recv_timeout`]) and
//! returns how it ended: completed, a crashed rank, a timed-out receive, or
//! a protocol deadlock. [`Machine::run`] is the same run for programs that
//! expect to complete, and panics on any other verdict.
//!
//! ```
//! use parfact_mpsim::{Machine, model::CostModel};
//!
//! let report = Machine::new(4, CostModel::bluegene_p()).run(|rank| {
//!     // SPMD program: ring-pass a token.
//!     let p = rank.nranks();
//!     let next = (rank.rank() + 1) % p;
//!     let prev = (rank.rank() + p - 1) % p;
//!     rank.send(next, 7, rank.rank() as u64);
//!     let token: u64 = rank.recv(prev, 7);
//!     token
//! });
//! assert_eq!(report.results, vec![3, 0, 1, 2]);
//! assert!(report.makespan_s > 0.0);
//! ```

pub mod collective;
pub mod fault;
pub mod model;
pub mod payload;
mod rank;
mod run;
mod world;

pub use fault::{Fault, FaultCounts, FaultPlan};
pub use rank::{Rank, RankStats};
pub use run::{Machine, RunReport, RunVerdict, VerdictReport};
