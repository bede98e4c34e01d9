//! The α–β–γ machine cost model.
//!
//! - `α` — per-message latency/overhead (seconds);
//! - `β` — inverse bandwidth (seconds per payload byte);
//! - `γ` — seconds per floating-point operation.
//!
//! A point-to-point message of `m` bytes occupies the sender for
//! `α + m·β` and is available at the receiver at that moment; computation
//! advances the local clock by `flops · γ`. Collectives are *not* costed
//! specially — they are built from point-to-point messages, so their cost
//! emerges from the model, exactly as it does on real interconnects.

/// Machine timing constants. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Per-message latency, seconds.
    pub alpha_s: f64,
    /// Seconds per payload byte (1 / bandwidth).
    pub beta_s_per_byte: f64,
    /// Seconds per floating-point operation (1 / flop rate).
    pub flop_time_s: f64,
}

impl CostModel {
    /// Blue Gene/P-class per-core constants: ~3 µs MPI latency,
    /// ~375 MB/s per-link effective bandwidth, 3.4 Gflop/s peak per core.
    /// (The SC'09 testbed generation; absolute values are configurable and
    /// EXP-A3 sweeps them.)
    pub fn bluegene_p() -> Self {
        CostModel {
            alpha_s: 3.0e-6,
            beta_s_per_byte: 1.0 / 375.0e6,
            flop_time_s: 1.0 / 3.4e9,
        }
    }

    /// A modern commodity-cluster profile: ~1.5 µs latency, ~12 GB/s
    /// effective per-rank bandwidth, ~50 Gflop/s per rank. Per *message*
    /// this machine is far more latency-bound than Blue Gene/P (compute got
    /// ~15x faster, latency only ~2x better), which is why message-count
    /// discipline matters even more today.
    pub fn modern_cluster() -> Self {
        CostModel {
            alpha_s: 1.5e-6,
            beta_s_per_byte: 1.0 / 12.0e9,
            flop_time_s: 1.0 / 50.0e9,
        }
    }

    /// Free communication and computation — semantics tests only.
    // lint:allow(R7) test fake: a machine with free communication and computation, for semantics tests
    pub fn zero_cost() -> Self {
        CostModel {
            alpha_s: 0.0,
            beta_s_per_byte: 0.0,
            flop_time_s: 0.0,
        }
    }

    /// Time to send one `bytes`-sized message.
    pub fn msg_time(&self, bytes: usize) -> f64 {
        self.alpha_s + bytes as f64 * self.beta_s_per_byte
    }

    /// Derive a receive deadline that dominates every legitimate wait in a
    /// run bounded by `horizon_flops` floating-point operations and
    /// `horizon_bytes` payload bytes: a blocked rank can legitimately wait
    /// while its peers compute and transfer the whole remaining schedule,
    /// so the deadline is that worst case (plus a latency allowance) with a
    /// 4x safety factor. Anything later is a lost or pathologically delayed
    /// message and should surface as a typed timeout instead of a hang.
    pub fn recv_timeout_for(&self, horizon_flops: f64, horizon_bytes: f64) -> f64 {
        let span = horizon_flops * self.flop_time_s
            + horizon_bytes * self.beta_s_per_byte
            + 1e4 * self.alpha_s;
        4.0 * span.max(self.alpha_s.max(1e-9))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        for m in [CostModel::bluegene_p(), CostModel::modern_cluster()] {
            assert!(m.alpha_s > 0.0);
            assert!(m.beta_s_per_byte > 0.0);
            assert!(m.flop_time_s > 0.0);
            // Latency dominates tiny messages; bandwidth dominates big ones.
            assert!(m.msg_time(1) < 2.0 * m.alpha_s);
            assert!(m.msg_time(100 << 20) > 100.0 * m.alpha_s);
        }
    }

    #[test]
    fn modern_cluster_is_more_latency_bound() {
        let bg = CostModel::bluegene_p();
        let mc = CostModel::modern_cluster();
        // Flops wasted per message latency.
        let waste = |m: &CostModel| m.alpha_s / m.flop_time_s;
        assert!(waste(&mc) > waste(&bg));
        // But per byte (flops one could run while a byte transfers), Blue
        // Gene's slow cores make bandwidth relatively cheaper on the modern
        // machine.
        let balance = |m: &CostModel| m.beta_s_per_byte / m.flop_time_s;
        assert!(balance(&mc) < balance(&bg));
    }

    #[test]
    fn msg_time_formula() {
        let m = CostModel {
            alpha_s: 2.0,
            beta_s_per_byte: 0.25,
            flop_time_s: 1.0,
        };
        assert_eq!(m.msg_time(8), 4.0);
    }
}
