//! Every metric the benchmark reports, by name. `BENCHMARK.json` lists the
//! same names, units, directions and bounds; a test keeps the two equal.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Which order statistic of a run's samples is the reported value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    Median,
    /// Interference on a shared host only ever adds time, and it comes in
    /// plateaus of seconds to minutes: a run crosses a handful, and the
    /// fastest of them is what repeats from run to run. Over four batches
    /// of ten runs of each workload the median of a run's samples spread
    /// 12-15% between runs on average and 24-40% at worst, the lower decile
    /// 7-11% and 14-24% (sizing in `benchmark/README.md`).
    LowerDecile,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the reference value by which the metric may worsen before
    /// `compare` calls it a regression.
    pub bound: f64,
    pub gate: Gate,
}

const fn wall(name: &'static str) -> EndToEnd {
    EndToEnd {
        name,
        unit: "s",
        bound: 0.25,
        gate: Gate::LowerDecile,
    }
}

/// Lower is better for all of them. Every workload reports every one.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        gate: Gate::Median,
    },
    wall("time_to_solution_s"),
    wall("analyze_s"),
    wall("factor_s"),
    wall("refactor_s"),
    wall("solve_s"),
    wall("solve_batch_s"),
    EndToEnd {
        name: "peak_rss_bytes",
        unit: "B",
        bound: 0.15,
        gate: Gate::Median,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The value repeats bit for bit on the same code and workload (a count
    /// or a virtual-clock statistic), so `compare` demands equality.
    pub exact: bool,
}

const fn timed(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "s",
        better: Better::Lower,
        exact: false,
    }
}

const fn measured(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 84] = [
    // sparse
    timed("sparse.gen_s"),
    timed("sparse.mm_write_s"),
    timed("sparse.mm_parse_s"),
    exact("sparse.mm_bytes", "B", Lower),
    timed("sparse.perm_apply_s"),
    // order
    timed("order.nd_s.t1"),
    timed("order.nd_s.tN"),
    timed("order.coarsen_s"),
    timed("order.bisect_s"),
    timed("order.refine_s"),
    timed("order.mindeg_s"),
    exact("order.factor_nnz", "count", Lower),
    exact("order.factor_flops", "flop", Lower),
    // symbolic
    timed("symbolic.analyze_s.t1"),
    timed("symbolic.analyze_s.tN"),
    timed("symbolic.etree_s"),
    timed("symbolic.colcount_s"),
    timed("symbolic.structure_s"),
    exact("symbolic.nsuper", "count", Lower),
    exact("symbolic.front_max", "count", Lower),
    exact("symbolic.mean_width", "count", Higher),
    // dense and the host it runs on
    measured("dense.gemm_nt_gflops", "Gflop/s", Higher),
    measured("host.stream_gbs", "GB/s", Higher),
    measured("host.llc_bytes", "B", Higher),
    measured("host.stream_array_bytes", "B", Higher),
    timed("dense.replay_s"),
    measured("dense.replay_gflops", "Gflop/s", Higher),
    timed("dense.replay_s.f_lt32"),
    timed("dense.replay_s.f_32_127"),
    timed("dense.replay_s.f_128_511"),
    timed("dense.replay_s.f_ge512"),
    exact("dense.replay_fronts.f_lt32", "count", Lower),
    exact("dense.replay_fronts.f_32_127", "count", Lower),
    exact("dense.replay_fronts.f_128_511", "count", Lower),
    exact("dense.replay_fronts.f_ge512", "count", Lower),
    exact("dense.replay_flops.f_lt32", "flop", Lower),
    exact("dense.replay_flops.f_32_127", "flop", Lower),
    exact("dense.replay_flops.f_128_511", "flop", Lower),
    exact("dense.replay_flops.f_ge512", "flop", Lower),
    // core::frontal
    timed("frontal.extend_add_s"),
    timed("frontal.panel_s"),
    exact("frontal.bytes_assembled", "B", Lower),
    // core::seq
    timed("seq.factorize_s"),
    measured("seq.kernel_gap", "ratio", Lower),
    timed("seq.alloc_gap_s"),
    measured("seq.unattributed_frac", "ratio", Lower),
    // core::smp
    timed("smp.factorize_s.tN"),
    timed("smp.refactor_s.tN"),
    measured("smp.speedup", "ratio", Higher),
    // solve (core::factor, core::smp_solve)
    timed("solve.seq_s.r1"),
    timed("solve.seq_s.r16"),
    timed("solve.smp_s.r1"),
    timed("solve.smp_s.r16"),
    measured("solve.gflops.r1", "Gflop/s", Higher),
    measured("solve.gflops.r16", "Gflop/s", Higher),
    measured("solve.bw_frac.r1", "ratio", Higher),
    // core::solver, the façade
    timed("facade.glue_s"),
    measured("facade.solve_overhead_frac", "ratio", Lower),
    timed("facade.first_call_s"),
    // core::dist and core::mapping; `makespan_s` is virtual time
    exact("dist.makespan_s.p1", "s", Lower),
    exact("dist.makespan_s.p8", "s", Lower),
    exact("dist.makespan_s.p64", "s", Lower),
    timed("dist.host_s.p1"),
    timed("dist.host_s.p8"),
    timed("dist.host_s.p64"),
    exact("dist.efficiency.p8", "ratio", Higher),
    exact("dist.efficiency.p64", "ratio", Higher),
    exact("dist.comm_bytes.p8", "B", Lower),
    exact("dist.comm_bytes.p64", "B", Lower),
    exact("dist.msgs.p8", "count", Lower),
    exact("dist.msgs.p64", "count", Lower),
    exact("dist.comm_frac.p8", "ratio", Lower),
    exact("dist.comm_frac.p64", "ratio", Lower),
    exact("dist.mem_peak_bytes.p8", "B", Lower),
    exact("dist.mem_peak_bytes.p64", "B", Lower),
    exact("dist.hidden_frac.p64", "ratio", Higher),
    exact("dist.volume_model_ratio.p64", "ratio", Lower),
    measured("dist.p1_vs_seq", "ratio", Lower),
    timed("mapping.map_tree_s"),
    // mpsim
    measured("mpsim.host_us_per_msg", "us", Lower),
    measured("mpsim.pingpong_msgs_per_s", "1/s", Higher),
    // how far traced numbers may be trusted
    measured("trace.counters_overhead_frac", "ratio", Lower),
    measured("trace.timeline_overhead_frac", "ratio", Lower),
    measured("bench.span_overhead_frac", "ratio", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` is what the acceptance driver reads and this table
    /// is what the binary emits; they must name the same things.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let doc = Json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();

        let listed: Vec<_> = doc
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.get("bound").unwrap().as_f64().unwrap(),
                )
            })
            .collect();
        let table: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    "lower".to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(listed, table);

        let listed: Vec<_> = doc
            .get("per_layer")
            .unwrap()
            .as_arr()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let table: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                let better = if m.better == Higher {
                    "higher"
                } else {
                    "lower"
                };
                (m.name.to_string(), m.unit.to_string(), better.to_string())
            })
            .collect();
        assert_eq!(listed, table);

        let workloads: Vec<_> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        let ours: Vec<_> = crate::workload::WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .collect();
        assert_eq!(workloads, ours);
    }
}
