//! Steadiness self-tests: the op lists and every deterministic result are
//! fixed by the seed, the reported percentiles stay clear of class
//! boundaries, and `BENCHMARK.json` matches what the binary prints.

use crate::report::{tail_rank, Checks};
use crate::{layers, multilevel_scale, op_count, serve_mixed, solve_cold, Config, Workload};

const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// `run_seconds` as `BENCHMARK.json` states it.
fn run_seconds() -> u64 {
    let tail = MANIFEST
        .split("\"run_seconds\":")
        .nth(1)
        .expect("BENCHMARK.json states run_seconds");
    tail.trim_start()
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|d| d.parse().ok())
        .expect("run_seconds is a whole number")
}

/// The deterministic part of a pass's checks.
fn fixed(c: &Checks) -> (usize, usize, u64, u64, u64, Vec<(&'static str, u64)>) {
    (
        c.attempted,
        c.failed,
        c.eq1_cost.to_bits(),
        c.capacity_factor.to_bits(),
        c.churn_moves,
        c.counts.iter().map(|(k, v)| (*k, *v)).collect(),
    )
}

fn same_twice<W: Workload>(w: &W) {
    let cfg = Config {
        seed: 11,
        seconds: 1,
    };
    let mut runs = (0..2).map(|_| {
        let mut state = w.setup(&cfg).expect("set-up");
        let pass = w.pass(&mut state, false).expect("pass");
        assert_eq!(pass.checks.failed, 0, "{:?}", pass.checks.failures);
        fixed(&pass.checks)
    });
    let (a, b) = (runs.next().unwrap(), runs.next().unwrap());
    assert_eq!(a, b);
}

#[test]
fn solve_cold_repeats_exactly() {
    same_twice(&solve_cold::SolveCold);
}

#[test]
fn multilevel_scale_repeats_exactly() {
    same_twice(&multilevel_scale::MultilevelScale);
}

#[test]
fn serve_mixed_repeats_exactly() {
    same_twice(&serve_mixed::ServeMixed);
}

/// Interior class boundaries (cumulative percent) of a mix given as op
/// counts in latency order.
fn boundaries(counts: &[usize]) -> Vec<f64> {
    let total: usize = counts.iter().sum();
    let mut acc = 0;
    counts[..counts.len() - 1]
        .iter()
        .map(|&c| {
            acc += c;
            100.0 * acc as f64 / total as f64
        })
        .collect()
}

#[test]
fn percentiles_avoid_class_boundaries() {
    let secs = run_seconds();
    // the single-class workloads have no interior boundary; serve-mixed
    // mixes four classes over one or two connections
    for conns in 1..=2 {
        let per_conn = op_count(secs, serve_mixed::OPS_PER_S, 40).div_ceil(conns);
        let counts = serve_mixed::class_counts(per_conn).map(|c| c * conns);
        let n: usize = counts.iter().sum();
        let (_, tail_pct) = tail_rank(n);
        for b in boundaries(&counts) {
            for pct in [50.0, tail_pct] {
                assert!(
                    (pct - b).abs() >= 5.0,
                    "p{pct:.1} is within 5 points of the class boundary at {b:.1} ({conns} connections)"
                );
            }
        }
    }
}

#[test]
fn tails_leave_ten_samples_at_run_seconds() {
    let secs = run_seconds();
    for n in [
        op_count(secs, solve_cold::OPS_PER_S, 20),
        op_count(secs, multilevel_scale::OPS_PER_S, 20),
    ] {
        let (_, pct) = tail_rank(n);
        assert!(pct >= 75.0, "{n} ops give only a p{pct:.1} tail");
    }
}

#[test]
fn manifest_lists_what_the_binary_prints() {
    for (name, unit) in layers::PER_LAYER {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\"");
        assert!(MANIFEST.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for name in crate::END_TO_END {
        assert!(
            MANIFEST.contains(&format!("{{\"name\": \"{name}\"")),
            "BENCHMARK.json lacks {name}"
        );
    }
    for name in crate::WORKLOADS {
        assert!(
            MANIFEST.contains(&format!("{{\"name\": \"{name}\"")),
            "BENCHMARK.json lacks workload {name}"
        );
    }
}
