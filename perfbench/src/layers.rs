//! Per-layer metrics of the traced pass and the bench-side spans that feed
//! them.
//!
//! The benchmark opens its own spans (on an `hgp_obs::TraceSink`) around
//! each call into a public layer and absorbs the stage walls and spans the
//! program already records in its `SolveTrace`. A metric that does not
//! apply to a workload reads 0.

use crate::report::{median, Metric};
use hgp_obs::{SolveTrace, SpanRecord, TraceSink, NO_PARENT};
use std::collections::HashMap;

/// `trace.coverage` below this fails the traced run.
pub const MIN_COVERAGE: f64 = 0.95;

/// Bench-side span around one operation of the op list.
pub const OP: &str = "bench.op";
/// Bench-side span around `Solve::distribution`.
pub const DISTRIBUTION: &str = "decomp.build";
/// Bench-side span around `Solve::run_on`.
pub const SWEEP: &str = "sweep";
/// Bench-side span around `solve_multilevel`.
pub const MULTILEVEL: &str = "ml.solve";
/// Bench-side span around one server request→reply pair.
pub const REQUEST: &str = "server.request";

/// Span names the tree solver records; `hgp_obs::names` has no constants
/// for them.
pub const TREE_DP: &str = "tree.dp";
/// See [`TREE_DP`].
pub const TREE_REPAIR: &str = "tree.repair";

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("decomp.build_ms", "ms"),
    ("decomp.share", "ratio"),
    ("decomp.allocs", "count"),
    ("decomp.builds", "count"),
    ("decomp.wave_ms", "ms"),
    ("decomp.tree_ms", "ms"),
    ("sweep.ms", "ms"),
    ("sweep.share", "ratio"),
    ("tree.dp_ms", "ms"),
    ("tree.repair_ms", "ms"),
    ("session.apply_ms", "ms"),
    ("session.resolve_ms", "ms"),
    ("session.warm_ratio", "ratio"),
    ("session.moves", "count"),
    ("ml.coarsen_ms", "ms"),
    ("ml.core_ms", "ms"),
    ("ml.refine_ms", "ms"),
    ("ml.levels", "count"),
    ("ml.coarsest_nodes", "count"),
    ("server.hit_ms", "ms"),
    ("server.near_ms", "ms"),
    ("server.miss_ms", "ms"),
    ("server.coalesce_ms", "ms"),
    ("server.session_ms", "ms"),
    ("queue.wait_us_p50", "us"),
    ("queue.wait_us_p99", "us"),
    ("pool.utilisation", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("cache.near_ratio", "ratio"),
    ("cache.builds", "count"),
    ("cache.coalesced", "count"),
    ("solve.degraded", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Collects per-layer values by name.
#[derive(Default)]
pub struct Layers(Vec<Metric>);

impl Layers {
    /// Sets `name` (which must be in [`PER_LAYER`]) to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let (_, unit) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.0.retain(|m| m.name != name);
        self.0.push(Metric { name, value, unit });
    }

    /// Sets `name` to the median of `ms`.
    pub fn p50(&mut self, name: &'static str, ms: &[f64]) {
        self.set(name, median(ms));
    }

    /// The collected values.
    pub fn into_vec(self) -> Vec<Metric> {
        self.0
    }
}

/// All [`PER_LAYER`] metrics in order, 0 where a workload set none.
pub fn ordered(given: Vec<Metric>) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            given
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or(Metric {
                    name,
                    value: 0.0,
                    unit,
                })
        })
        .collect()
}

/// A sink big enough for every bench-side span of one pass.
pub fn sink(ops: usize) -> TraceSink {
    TraceSink::new(8 * ops + 64)
}

/// Per-op sums of child spans, by name: `out[name][op]` in ms, where the
/// op is the `arg` of the enclosing [`OP`] span.
pub fn per_op_ms(records: &[SpanRecord], ops: usize, name: &str) -> Vec<f64> {
    let op_of: HashMap<u32, usize> = records
        .iter()
        .filter(|r| r.name == OP)
        .map(|r| (r.id, r.arg as usize))
        .collect();
    let mut out = vec![0.0; ops];
    for r in records.iter().filter(|r| r.name == name) {
        if let Some(&op) = op_of.get(&r.parent) {
            out[op] += r.dur_ns as f64 * 1e-6;
        }
    }
    out
}

/// Durations of the root [`OP`] spans in ms, op order.
pub fn op_ms(records: &[SpanRecord], ops: usize) -> Vec<f64> {
    let mut out = vec![0.0; ops];
    for r in records
        .iter()
        .filter(|r| r.name == OP && r.parent == NO_PARENT)
    {
        out[r.arg as usize] = r.dur_ns as f64 * 1e-6;
    }
    out
}

/// Sum of a solve trace's spans called `name`, in ms.
pub fn trace_span_ms(trace: &SolveTrace, name: &str) -> f64 {
    trace
        .spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns as f64 * 1e-6)
        .sum()
}

/// A solve trace's wall stage `name`, in ms (0 when absent).
pub fn trace_stage_ms(trace: &SolveTrace, name: &str) -> f64 {
    trace.stage_nanos(name).unwrap_or(0) as f64 * 1e-6
}

/// Sum of `xs` (ms) over the sum of `total` (ms); 0 when `total` is 0.
pub fn share(xs: &[f64], total: &[f64]) -> f64 {
    let t: f64 = total.iter().sum();
    if t > 0.0 {
        xs.iter().sum::<f64>() / t
    } else {
        0.0
    }
}
