//! Answer checks that recompute each result independently of the code
//! that produced it.

use crate::report::{same_cost, within};
use hgp_core::{Assignment, Instance, ResolveReport, Rounding, Session};
use hgp_hierarchy::Hierarchy;

/// The rounding slack ε of Theorem 2 for these demands on a grid of
/// `units` per leaf: the largest ratio of a true demand to its rounded
/// demand, minus one. Rounding down is what lets a rounded-feasible set
/// overshoot; demands rounded up contribute nothing.
pub fn rounding_eps(demands: &[f64], units: u32) -> f64 {
    let r = Rounding::with_units(units);
    demands
        .iter()
        .map(|&d| d / r.to_demand(r.round(d)) - 1.0)
        .fold(0.0, f64::max)
}

/// The pipeline's capacity promise, (1+ε)(1+h) (Theorems 2 and 5).
pub fn pipeline_bound(demands: &[f64], h: &Hierarchy, units: u32) -> f64 {
    (1.0 + rounding_eps(demands, units)) * (1.0 + h.height() as f64)
}

/// Recomputes a placement's Eq.-1 cost and worst capacity factor and
/// checks them against the reported cost and the promised `bound`.
/// Returns `(cost, factor, verdict)`.
pub fn placement(
    what: &str,
    inst: &Instance,
    h: &Hierarchy,
    leaves: &[u32],
    reported_cost: f64,
    bound: f64,
) -> (f64, f64, Result<(), String>) {
    if leaves.len() != inst.num_tasks() {
        let msg = format!(
            "{what}: {} leaves for {} tasks",
            leaves.len(),
            inst.num_tasks()
        );
        return (0.0, 0.0, Err(msg));
    }
    if let Some(&l) = leaves.iter().find(|&&l| l as usize >= h.num_leaves()) {
        return (0.0, 0.0, Err(format!("{what}: leaf {l} out of range")));
    }
    let a = Assignment::new(leaves.to_vec(), h);
    let cost = a.cost(inst, h);
    let factor = a.violation_report(inst, h).worst_factor();
    let verdict = same_cost(what, reported_cost, cost).and(within(what, factor, bound));
    (cost, factor, verdict)
}

/// Checks a session after a `resolve` against a full recompute from its
/// snapshot: the placement's cost and capacity factor (against the
/// pipeline bound on a grid of `units`), the resolve's reported cost, and
/// the session's per-leaf loads. Returns `(cost, factor, verdict)`.
pub fn session(
    what: &str,
    s: &Session,
    rep: &ResolveReport,
    units: u32,
) -> (f64, f64, Result<(), String>) {
    let Some(snap) = s.snapshot() else {
        return (0.0, 0.0, Err(format!("{what}: session is empty")));
    };
    let h = s.hierarchy();
    let bound = pipeline_bound(snap.instance.demands(), h, units);
    let (cost, factor, verdict) = placement(what, &snap.instance, h, &snap.leaves, s.cost(), bound);
    let verdict = verdict.and(same_cost(what, rep.cost, cost)).and_then(|()| {
        let mut loads = vec![0.0; h.num_leaves()];
        for (v, &l) in snap.leaves.iter().enumerate() {
            loads[l as usize] += snap.instance.demand(v);
        }
        let drift = loads
            .iter()
            .zip(s.loads())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        if s.loads().len() == loads.len() && drift <= 1e-9 {
            Ok(())
        } else {
            Err(format!(
                "{what}: session loads drift {drift} from recompute"
            ))
        }
    });
    (cost, factor, verdict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgp_hierarchy::presets;

    #[test]
    fn eps_is_the_worst_rounding_loss() {
        // 0.05 on 8 units rounds up to one unit (0.125): no slack
        assert_eq!(rounding_eps(&[0.05], 8), 0.0);
        // 0.24 on 8 units rounds down to one unit: 0.24 / 0.125 = 1.92
        assert!((rounding_eps(&[0.05, 0.24], 8) - 0.92).abs() < 1e-12);
        let h = presets::multicore(4, 4, 4.0, 1.0);
        assert!((pipeline_bound(&[0.24], &h, 8) - 1.92 * 3.0).abs() < 1e-12);
    }
}
