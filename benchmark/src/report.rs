//! The metric registry — every metric's name, unit, direction and
//! regression bound, declared once — and the two things derived from
//! it: `BENCHMARK.json` (`--manifest`) and the result line a run prints.

use crate::inputs::WORKLOADS;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How long one run measures when the driver does not say
/// (`run_seconds` in BENCHMARK.json).
pub const RUN_SECONDS: u64 = 22;

#[derive(Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true`: higher is better.
    pub higher: bool,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression. Zero for per-layer
    /// metrics, which carry no bound.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher,
        bound: 0.0,
    }
}

/// The bound of every end-to-end metric: the 0.25 the driver caps
/// bounds at. Three times the widest spread a metric showed on any
/// workload (quartile distance over ten seeds, as a share of the median —
/// README, "Measured spread") comes to more than that for every metric:
/// this machine's speed wanders by 15–30 % on a scale of seconds, and no
/// statistic over a 22-second run averages that away.
const BOUND: f64 = 0.25;

/// What a user of the system sees. Every workload reports every one:
/// the workload decides the input and where the run's time goes, not
/// which numbers exist.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", false, BOUND),
    e2e("peak_rss_mb", "MB", false, BOUND),
    e2e("reorder_s", "s", false, BOUND),
    e2e("converge_dense_s", "s", false, BOUND),
    e2e("converge_frontier_s", "s", false, BOUND),
    e2e("query_qps", "1/s", true, BOUND),
    e2e("hot_p50_ms", "ms", false, BOUND),
    e2e("cold_p50_ms", "ms", false, BOUND),
    e2e("update_visible_p50_ms", "ms", false, BOUND),
];

/// Single layers, from the traced run. Direction only; no bound.
pub const PER_LAYER: &[MetricDef] = &[
    layer("graph.generate_ms", "ms", false),
    layer("graph.relabel_ms", "ms", false),
    layer("graph.compress_ms", "ms", false),
    layer("graph.bytes_per_edge", "B", false),
    layer("graph.sweep_medges_per_s", "Medges/s", true),
    layer("graph.csr_patch_ms", "ms", false),
    layer("partition.partition_ms", "ms", false),
    layer("partition.num_parts", "count", false),
    layer("partition.cross_edge_share", "ratio", false),
    layer("core.order_ms", "ms", false),
    layer("core.order_par_ms", "ms", false),
    layer("core.par_speedup", "ratio", true),
    layer("core.positive_edge_share", "ratio", true),
    layer("core.theorem2_holds", "count", true),
    layer("core.order_maintain_us_per_update", "us", false),
    layer("reorder.rabbit_ms", "ms", false),
    layer("reorder.degsort_ms", "ms", false),
    layer("engine.pagerank_async_ms", "ms", false),
    layer("engine.pagerank_async_rounds", "count", false),
    layer("engine.pagerank_async_medges_per_s", "Medges/s", true),
    layer("engine.sssp_worklist_ms", "ms", false),
    layer("engine.bfs_worklist_ms", "ms", false),
    layer("engine.frontier_rounds", "count", false),
    layer("engine.frontier_push_rounds", "count", false),
    layer("engine.pagerank_par2_ms", "ms", false),
    layer("engine.sssp_par2_ms", "ms", false),
    layer("engine.bfs_par2_ms", "ms", false),
    layer("engine.par2_speedup", "ratio", true),
    layer("engine.pagerank_sync_ms", "ms", false),
    layer("engine.pagerank_sync_rounds", "count", false),
    layer("engine.pagerank_delta_ms", "ms", false),
    layer("engine.cc_async_ms", "ms", false),
    layer("engine.pagerank_default_ms", "ms", false),
    layer("engine.pagerank_default_rounds", "count", false),
    layer("engine.pagerank_rabbit_ms", "ms", false),
    layer("engine.order_speedup", "ratio", true),
    layer("engine.rounds_saved_share", "ratio", true),
    layer("engine.stream_apply_ms", "ms", false),
    layer("engine.stream_restart_ms", "ms", false),
    layer("engine.stream_rounds_per_batch", "count", false),
    layer("engine.stream_full_reorders", "count", false),
    layer("engine.stream_repair_attempts", "count", false),
    layer("wire.encode_request_us", "us", false),
    layer("wire.decode_request_us", "us", false),
    layer("wire.encode_reply_us", "us", false),
    layer("wire.decode_reply_us", "us", false),
    layer("transport.stats_rtt_us", "us", false),
    layer("transport.query_overhead_us", "us", false),
    layer("admission.wait_ms", "ms", false),
    layer("admission.coalesced_share", "ratio", true),
    layer("epoch.pin_ns", "ns", false),
    layer("serve_core.exec_hot_ms", "ms", false),
    layer("serve_core.exec_cold_ms", "ms", false),
    layer("serve_core.kernel_hot_ms", "ms", false),
    layer("serve_core.kernel_cold_ms", "ms", false),
    layer("serve_core.overhead_hot_ms", "ms", false),
    layer("serve_core.rounds_per_query", "count", false),
    layer("serve_core.warm_share", "ratio", true),
    layer("serve_core.start_ms", "ms", false),
    layer("serve_core.recover_ms", "ms", false),
    layer("wal.append_ms", "ms", false),
    layer("wal.bytes_per_update", "B", false),
    layer("mutator.apply_ms_per_batch", "ms", false),
    layer("mutator.rounds_per_batch", "count", false),
    layer("mutator.busy_share", "ratio", false),
    layer("mutator.queue_depth_max", "count", false),
    layer("checkpoint.write_ms", "ms", false),
    layer("checkpoint.read_ms", "ms", false),
    layer("checkpoint.bytes", "B", false),
    layer("checkpoint.count", "count", false),
    layer("replication.bootstrap_ms", "ms", false),
    layer("replication.step_ms", "ms", false),
    layer("replication.records_per_step", "count", true),
    layer("replication.divergences", "count", false),
    layer("replication.resyncs", "count", false),
    layer("replication.final_match", "count", true),
    layer("loadgen.query_p50_ms", "ms", false),
    layer("loadgen.query_p99_ms", "ms", false),
    layer("loadgen.update_ack_p50_ms", "ms", false),
    layer("loadgen.update_visible_mean_ms", "ms", false),
    layer("loadgen.late_ms_p95", "ms", false),
    layer("loadgen.verified_replies", "count", true),
    layer("trace.spans", "count", false),
    layer("trace.overhead_share_dense", "ratio", false),
    layer("trace.overhead_share_query", "ratio", false),
];

/// Measured values by metric name, with the sample count behind each.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, (f64, usize)>);

impl Metrics {
    /// Records `value`, computed from `samples` samples.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.0.insert(name, (value, samples));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }
}

/// The outcome of one run of one workload.
pub struct RunResult {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl RunResult {
    fn defs(&self) -> &'static [MetricDef] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Every metric this kind of run owes must be there, and a number.
    pub fn validate(&self) -> Result<(), String> {
        for d in self.defs() {
            match self.metrics.get(d.name) {
                Some(v) if v.is_finite() => {}
                Some(v) => return Err(format!("metric {} is {v}", d.name)),
                None => return Err(format!("metric {} was not measured", d.name)),
            }
        }
        Ok(())
    }

    /// Human-readable table: every metric by name, with unit and the
    /// number of samples it summarises.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} ({}): {} operations attempted, {} failed",
            self.workload,
            if self.traced { "traced" } else { "plain" },
            self.attempted,
            self.failed
        );
        for d in self.defs() {
            if let Some(&(v, n)) = self.metrics.0.get(d.name) {
                let _ = writeln!(out, "  {:<36} {:>14.4} {:<9} n={n}", d.name, v, d.unit);
            }
        }
        out
    }

    /// The one-line JSON object the driver reads. A run whose outputs
    /// failed a check never gets this far (it exits non-zero with the
    /// reason instead), so `correct` is true by construction.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (i, d) in self.defs().iter().enumerate() {
            let v = self.metrics.get(d.name).expect("validated");
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                d.name,
                d.unit
            );
        }
        out.push_str("}}");
        out
    }
}

fn metric_json(d: &MetricDef, with_bound: bool) -> String {
    let better = if d.higher { "higher" } else { "lower" };
    let bound = if with_bound {
        format!(", \"bound\": {}", d.bound)
    } else {
        String::new()
    };
    format!(
        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"{bound}}}",
        d.name, d.unit
    )
}

/// The contents of `BENCHMARK.json`, generated so the file and the
/// harness cannot drift apart.
pub fn manifest() -> String {
    let list = |items: Vec<String>| items.join(",\n");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        list(
            WORKLOADS
                .iter()
                .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
                .collect()
        ),
        list(END_TO_END.iter().map(|d| metric_json(d, true)).collect()),
        list(PER_LAYER.iter().map(|d| metric_json(d, false)).collect()),
    )
}
