//! Declarative, deterministic fault plans.
//!
//! A [`FaultPlan`] is a schedule of faults keyed to *virtual* machine state
//! — a rank's virtual clock, its send count, or a (src, dst) link — never
//! to host-thread timing. Applying the same plan to the same program on the
//! same [`crate::model::CostModel`] therefore reproduces the same crashes,
//! delays and duplications bit-for-bit, which is what makes fault-injection
//! runs debuggable and lets recovery tests assert exact outcomes.
//!
//! Plans are built programmatically or parsed from the compact spec grammar
//! used by the CLI `--inject` flag:
//!
//! ```text
//! crash:<rank>@t=<secs>       rank crashes at virtual time <secs>
//! crash:<rank>@send=<k>       rank crashes on its <k>-th send (1-based)
//! delay:<src>-<dst>:<alphas>  every src->dst message is delayed by <alphas>·α
//! dup:<src>-<dst>             every src->dst message is delivered twice
//! ```
//!
//! Multiple faults are comma-separated: `crash:1@t=0.02,delay:0-3:500`.

/// One injected fault.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Rank `rank` stops executing at the first operation boundary at which
    /// its virtual clock has reached `at_s` seconds.
    CrashAt { rank: usize, at_s: f64 },
    /// Rank `rank` stops executing immediately before performing its
    /// `nth` send (1-based over `send` + `isend`).
    CrashOnSend { rank: usize, nth: u64 },
    /// Every message on the `src -> dst` link arrives `alphas`·α seconds
    /// later than the cost model says (an in-network delay: the sender's
    /// clock and occupancy are unchanged).
    DelayLink { src: usize, dst: usize, alphas: f64 },
    /// Every message on the `src -> dst` link is delivered twice (same
    /// arrival time; the receiver sees two queue entries).
    DuplicateLink { src: usize, dst: usize },
}

/// A declarative schedule of [`Fault`]s applied by the machine.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The faults, in the order given (order is irrelevant to semantics).
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Add a [`Fault::CrashAt`].
    pub fn crash_at(mut self, rank: usize, at_s: f64) -> Self {
        self.faults.push(Fault::CrashAt { rank, at_s });
        self
    }

    /// Add a [`Fault::CrashOnSend`].
    pub fn crash_on_send(mut self, rank: usize, nth: u64) -> Self {
        self.faults.push(Fault::CrashOnSend { rank, nth });
        self
    }

    /// Add a [`Fault::DelayLink`].
    pub fn delay_link(mut self, src: usize, dst: usize, alphas: f64) -> Self {
        self.faults.push(Fault::DelayLink { src, dst, alphas });
        self
    }

    /// Add a [`Fault::DuplicateLink`].
    pub fn duplicate_link(mut self, src: usize, dst: usize) -> Self {
        self.faults.push(Fault::DuplicateLink { src, dst });
        self
    }

    /// The same plan with every crash removed (link faults kept). Recovery
    /// drivers re-run with this so the restarted attempt survives while
    /// still experiencing the injected network conditions.
    pub fn without_crashes(&self) -> Self {
        FaultPlan {
            faults: self
                .faults
                .iter()
                .filter(|f| !matches!(f, Fault::CrashAt { .. } | Fault::CrashOnSend { .. }))
                .cloned()
                .collect(),
        }
    }

    /// Parse the `--inject` spec grammar (see module docs) into a plan that
    /// passes [`FaultPlan::validate`].
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::new();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            plan.faults.push(parse_fault(part)?);
        }
        plan.validate()?;
        Ok(plan)
    }

    /// Reject a fault the machine would silently never apply: a crash time
    /// or a delay factor that is not a finite non-negative number, or a 0th
    /// send (sends count from 1). Rank bounds depend on the machine and are
    /// its driver's to check.
    pub fn validate(&self) -> Result<(), String> {
        for fault in &self.faults {
            let why = match *fault {
                Fault::CrashAt { at_s, .. } if !at_s.is_finite() || at_s < 0.0 => {
                    "the crash time must be finite and non-negative"
                }
                Fault::CrashOnSend { nth: 0, .. } => "sends count from 1; the 0th never fires",
                Fault::DelayLink { alphas, .. } if !alphas.is_finite() || alphas < 0.0 => {
                    "the delay factor must be finite and non-negative"
                }
                _ => continue,
            };
            return Err(format!("bad fault {fault:?}: {why}"));
        }
        Ok(())
    }
}

fn parse_fault(part: &str) -> Result<Fault, String> {
    let bad = |why: &str| format!("bad fault spec '{part}': {why}");
    if let Some(rest) = part.strip_prefix("crash:") {
        let (rank, cond) = rest
            .split_once('@')
            .ok_or_else(|| bad("expected crash:<rank>@t=<secs> or crash:<rank>@send=<k>"))?;
        let rank: usize = rank.parse().map_err(|_| bad("rank must be an integer"))?;
        if let Some(t) = cond.strip_prefix("t=") {
            let at_s: f64 = t.parse().map_err(|_| bad("t= needs seconds"))?;
            Ok(Fault::CrashAt { rank, at_s })
        } else if let Some(k) = cond.strip_prefix("send=") {
            let nth: u64 = k.parse().map_err(|_| bad("send= needs an integer"))?;
            Ok(Fault::CrashOnSend { rank, nth })
        } else {
            Err(bad("condition must be t=<secs> or send=<k>"))
        }
    } else if let Some(rest) = part.strip_prefix("delay:") {
        let (link, alphas) = rest
            .split_once(':')
            .ok_or_else(|| bad("expected delay:<src>-<dst>:<alphas>"))?;
        let (src, dst) = parse_link(link).ok_or_else(|| bad("link must be <src>-<dst>"))?;
        let alphas: f64 = alphas
            .parse()
            .map_err(|_| bad("delay factor must be a number"))?;
        Ok(Fault::DelayLink { src, dst, alphas })
    } else if let Some(link) = part.strip_prefix("dup:") {
        let (src, dst) = parse_link(link).ok_or_else(|| bad("link must be <src>-<dst>"))?;
        Ok(Fault::DuplicateLink { src, dst })
    } else {
        Err(bad("unknown fault kind (crash: | delay: | dup:)"))
    }
}

fn parse_link(s: &str) -> Option<(usize, usize)> {
    let (a, b) = s.split_once('-')?;
    Some((a.parse().ok()?, b.parse().ok()?))
}

/// Per-run totals of injected-fault activity, returned in run reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Ranks that crashed under the plan.
    pub crashes: u64,
    /// Messages delayed by a [`Fault::DelayLink`].
    pub delayed_msgs: u64,
    /// Extra copies posted by a [`Fault::DuplicateLink`].
    pub duplicated_msgs: u64,
    /// Receives that hit the machine-wide receive deadline; each one
    /// aborts its run with a timeout verdict.
    pub timeouts: u64,
}

impl FaultCounts {
    /// True when nothing fired.
    pub fn is_zero(&self) -> bool {
        *self == FaultCounts::default()
    }

    /// Accumulate another run's tallies (restart drivers sum attempts).
    pub fn merge(&mut self, other: &FaultCounts) {
        self.crashes += other.crashes;
        self.delayed_msgs += other.delayed_msgs;
        self.duplicated_msgs += other.duplicated_msgs;
        self.timeouts += other.timeouts;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_each_kind() {
        let p = FaultPlan::parse("crash:1@t=0.25,crash:2@send=17,delay:0-3:500,dup:4-0").unwrap();
        assert_eq!(
            p.faults,
            vec![
                Fault::CrashAt {
                    rank: 1,
                    at_s: 0.25
                },
                Fault::CrashOnSend { rank: 2, nth: 17 },
                Fault::DelayLink {
                    src: 0,
                    dst: 3,
                    alphas: 500.0
                },
                Fault::DuplicateLink { src: 4, dst: 0 },
            ]
        );
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "crash:1",
            "crash:x@t=1",
            "crash:1@t=abc",
            "crash:1@t=-1",
            "crash:1@send=0",
            "crash:1@at=3",
            "delay:0-1",
            "delay:01:5",
            "delay:0-1:nan",
            "dup:5",
            "lag:0-1:2",
        ] {
            assert!(
                FaultPlan::parse(bad).is_err(),
                "spec '{bad}' must be rejected"
            );
        }
    }

    #[test]
    fn empty_and_whitespace_specs_are_empty_plans() {
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse(" , ,").unwrap().is_empty());
    }

    #[test]
    fn without_crashes_keeps_link_faults() {
        let p = FaultPlan::parse("crash:1@t=0.1,delay:0-2:10,dup:1-2,crash:0@send=3").unwrap();
        let r = p.without_crashes();
        assert_eq!(r.faults.len(), 2);
        assert!(matches!(r.faults[0], Fault::DelayLink { .. }));
        assert!(matches!(r.faults[1], Fault::DuplicateLink { .. }));
    }
}
