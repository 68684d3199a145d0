//! Shared measurement types: per-pass samples, answer-check tallies,
//! percentile rules and the output line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Relative tolerance between a reported Eq.-1 cost and its recompute.
pub const COST_RTOL: f64 = 1e-9;

/// Samples a reported percentile must leave beyond it to count as a tail.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank quantile, `q` in `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// The highest percentile of `n` samples that leaves at least
/// [`TAIL_BEYOND`] samples beyond it, as `(0-based sorted index,
/// percentile)`. With too few samples it falls back to the maximum.
pub fn tail_rank(n: usize) -> (usize, f64) {
    if n <= TAIL_BEYOND {
        return (n.saturating_sub(1), 100.0);
    }
    let idx = n - TAIL_BEYOND - 1;
    (idx, 100.0 * (idx + 1) as f64 / n as f64)
}

/// The tail latency of `xs` under [`tail_rank`].
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let (idx, pct) = tail_rank(s.len());
    (s.get(idx).copied().unwrap_or(0.0), pct)
}

/// Answer-check tallies of one pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: usize,
    /// Operations with an error reply, a typed error or a failed check.
    pub failed: usize,
    /// Sum of Eq.-1 costs recomputed from the returned placements.
    pub eq1_cost: f64,
    /// Worst capacity factor over all returned placements.
    pub capacity_factor: f64,
    /// Tasks moved over the stream (session workloads only).
    pub churn_moves: u64,
    /// Deterministic structural counts (decomp builds, warm resolves, …).
    pub counts: BTreeMap<&'static str, u64>,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one operation; `problem` is `None` when every check passed.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(p);
            }
        }
    }

    /// Folds one placement's recomputed cost and capacity factor in.
    pub fn placement(&mut self, cost: f64, factor: f64) {
        self.eq1_cost += cost;
        self.capacity_factor = self.capacity_factor.max(factor);
    }

    /// Bumps a structural count.
    pub fn count(&mut self, name: &'static str, by: u64) {
        *self.counts.entry(name).or_default() += by;
    }
}

/// `Err` unless `reported` matches `recomputed` to [`COST_RTOL`].
pub fn same_cost(what: &str, reported: f64, recomputed: f64) -> Result<(), String> {
    let scale = reported.abs().max(recomputed.abs()).max(1.0);
    if (reported - recomputed).abs() <= COST_RTOL * scale {
        Ok(())
    } else {
        Err(format!(
            "{what}: reported cost {reported} but the placement costs {recomputed}"
        ))
    }
}

/// `Err` unless `factor` stays within `bound` (plus float slack).
pub fn within(what: &str, factor: f64, bound: f64) -> Result<(), String> {
    if factor.is_finite() && factor <= bound + 1e-9 {
        Ok(())
    } else {
        Err(format!(
            "{what}: capacity factor {factor} exceeds the promised {bound}"
        ))
    }
}

/// Everything one measured pass over the fixed op list produced.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Per-op latency in ms, op-list order.
    pub lat_ms: Vec<f64>,
    /// Per-op class index into the workload's class list.
    pub class_of: Vec<usize>,
    /// Wall time of the timed phase in seconds.
    pub wall_s: f64,
    /// Peak live heap inside measured intervals, bytes.
    pub peak_heap: u64,
    /// Answer-check tallies.
    pub checks: Checks,
    /// Per-layer metrics (traced passes only).
    pub layers: Vec<Metric>,
}

impl Pass {
    /// Operations per second over the timed phase.
    pub fn ops_per_s(&self) -> f64 {
        self.lat_ms.len() as f64 / self.wall_s.max(1e-9)
    }
}

/// One named metric with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints the shortest representation that round-trips, so
        // every measured digit reaches the reader of the line
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, pct) = tail(&xs);
        assert_eq!(v, 90.0);
        assert!((pct - 90.0).abs() < 1e-12);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), TAIL_BEYOND);
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[5.0, 1.0, 3.0, 2.0, 4.0], 0.99), 5.0);
    }

    #[test]
    fn json_line_is_one_object() {
        let line = json_line(true, 3, 0, &[metric("p50_ms", 1.25, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
