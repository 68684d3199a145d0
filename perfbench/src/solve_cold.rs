//! `solve-cold`: the library/CLI path on never-cached instances.
//!
//! Each op runs the full pipeline on a distinct 16×16 mesh (weights and
//! pipeline seed drawn per op) on a `multicore(4, 4)` machine, h = 2. The
//! distribution does about 60% of an op and the DP sweep about 40%, so
//! distribution-stage and cold-critical-path changes show here. One size
//! class keeps the latency distribution unimodal.

use crate::check::{self, pipeline_bound};
use crate::layers::{self, Layers};
use crate::report::{Checks, Pass};
use crate::{alloc, op_count, solve_ops, Config, Shape, SolveOp, Workload, WARMUP_SEED};
use hgp_core::{HgpReport, Instance, Parallelism, Solve, SolverOptions};
use hgp_graph::generators;
use hgp_hierarchy::{presets, Hierarchy};
use hgp_obs::{names, NO_PARENT};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Nominal throughput on a 2-core host, used only to size the op list.
pub(crate) const OPS_PER_S: f64 = 20.0;
/// Untimed warm-up ops run during set-up.
const WARMUP: usize = 6;
/// Ops whose full traced `Solve::run` feeds the wave/tree split.
const STAGE_PROBE: usize = 16;
const ROWS: usize = 16;
const COLS: usize = 16;
/// `0.8 · leaves / tasks`, the server's default uniform demand.
const DEMAND: f64 = 0.05;
/// Default rounding grid of `SolverOptions`.
const UNITS: u32 = 8;

/// `derive_seed` sub-streams of the op list and of the warm-up ops.
const LIST: u64 = 0x10;
const WARM: u64 = 0x11;

fn machine() -> Hierarchy {
    presets::multicore(4, 4, 4.0, 1.0)
}

fn instance(op: &SolveOp) -> Instance {
    let mut rng = StdRng::seed_from_u64(op.graph_seed);
    Instance::uniform(generators::grid2d(&mut rng, ROWS, COLS, 0.5, 2.0), DEMAND)
}

fn options(op: &SolveOp, trace: bool) -> SolverOptions {
    SolverOptions::builder()
        .seed(op.solve_seed)
        .units(UNITS)
        .threads(Parallelism::serial())
        .trace(trace)
        .build()
}

fn check(checks: &mut Checks, i: usize, inst: &Instance, h: &Hierarchy, rep: &HgpReport) {
    let bound = pipeline_bound(inst.demands(), h, UNITS);
    let what = format!("solve-cold op {i}");
    let (cost, factor, verdict) =
        check::placement(&what, inst, h, rep.assignment.leaves(), rep.cost, bound);
    checks.placement(cost, factor);
    checks.op(verdict.err());
}

/// State of one set-up.
pub struct State {
    ops: Vec<SolveOp>,
    h: Hierarchy,
}

/// The `solve-cold` workload.
pub struct SolveCold;

impl Workload for SolveCold {
    type State = State;

    fn setup(&self, cfg: &Config) -> Result<State, String> {
        let h = machine();
        let ops = solve_ops(cfg.seed, LIST, op_count(cfg.seconds, OPS_PER_S, 20));
        // warm-up instances come from another seed and stream, so they
        // never repeat an op of the list
        for op in solve_ops(WARMUP_SEED, WARM, WARMUP) {
            Solve::new(&instance(&op), &h)
                .options(options(&op, false))
                .run()
                .map_err(|e| format!("warm-up solve failed: {e}"))?;
        }
        Ok(State { ops, h })
    }

    fn shape(&self, state: &State) -> Shape {
        Shape {
            classes: vec![("mesh16x16", state.ops.len())],
            ..Shape::default()
        }
    }

    fn pass(&self, state: &mut State, traced: bool) -> Result<Pass, String> {
        let h = &state.h;
        let n = state.ops.len();
        let mut pass = Pass {
            class_of: vec![0; n],
            ..Pass::default()
        };
        let sink = layers::sink(n);
        let mut dp_ms = vec![0.0; n];
        let mut repair_ms = vec![0.0; n];
        let mut allocs = 0u64;
        alloc::begin_phase();
        for (i, op) in state.ops.iter().enumerate() {
            let inst = instance(op);
            let t = Instant::now();
            alloc::armed(true);
            let rep = if traced {
                let op_span = sink.span_with(layers::OP, NO_PARENT, i as u64);
                let req = Solve::new(&inst, h).options(options(op, true));
                let dist = {
                    let _s = sink.span_with(layers::DISTRIBUTION, op_span.id(), 0);
                    let before = alloc::calls();
                    let d = req.distribution();
                    allocs += alloc::calls() - before;
                    d
                };
                let _s = sink.span_with(layers::SWEEP, op_span.id(), 0);
                dist.and_then(|d| req.run_on(&d))
            } else {
                Solve::new(&inst, h).options(options(op, false)).run()
            };
            alloc::armed(false);
            pass.lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
            match rep {
                Ok(rep) => {
                    if let Some(tr) = &rep.trace {
                        dp_ms[i] = layers::trace_span_ms(tr, layers::TREE_DP);
                        repair_ms[i] = layers::trace_span_ms(tr, layers::TREE_REPAIR);
                    }
                    check(&mut pass.checks, i, &inst, h, &rep);
                }
                Err(e) => pass.checks.op(Some(format!("solve-cold op {i}: {e}"))),
            }
        }
        pass.peak_heap = alloc::peak_bytes();
        pass.wall_s = pass.lat_ms.iter().sum::<f64>() * 1e-3;
        pass.checks.count("decomp.builds", n as u64);
        if traced {
            let records = sink.records();
            let op_ms = layers::op_ms(&records, n);
            let dist_ms = layers::per_op_ms(&records, n, layers::DISTRIBUTION);
            let sweep_ms = layers::per_op_ms(&records, n, layers::SWEEP);
            let mut l = Layers::default();
            l.p50("decomp.build_ms", &dist_ms);
            l.set("decomp.share", layers::share(&dist_ms, &op_ms));
            l.set("decomp.allocs", allocs as f64 / n as f64);
            l.set("decomp.builds", n as f64);
            l.p50("sweep.ms", &sweep_ms);
            l.set("sweep.share", layers::share(&sweep_ms, &op_ms));
            l.p50("tree.dp_ms", &dp_ms);
            l.p50("tree.repair_ms", &repair_ms);
            let covered: Vec<f64> = dist_ms.iter().zip(&sweep_ms).map(|(a, b)| a + b).collect();
            l.set("trace.coverage", layers::share(&covered, &op_ms));
            // `Solve::distribution` records no spans of its own, so the
            // wave/tree split comes from full traced runs of a prefix of
            // the op list, outside the timed pass
            let (mut wave_ms, mut tree_ms) = (Vec::new(), Vec::new());
            for op in state.ops.iter().take(STAGE_PROBE) {
                let inst = instance(op);
                let rep = Solve::new(&inst, h)
                    .options(options(op, true))
                    .run()
                    .map_err(|e| format!("stage probe failed: {e}"))?;
                let tr = rep.trace.expect("trace requested");
                wave_ms.push(layers::trace_span_ms(&tr, names::DECOMP_WAVE));
                tree_ms.push(layers::trace_span_ms(&tr, names::DECOMP_TREE));
            }
            l.p50("decomp.wave_ms", &wave_ms);
            l.p50("decomp.tree_ms", &tree_ms);
            pass.layers = l.into_vec();
        }
        Ok(pass)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_list_is_fixed_per_seed_and_distinct() {
        let a = solve_ops(7, LIST, 64);
        assert_eq!(a, solve_ops(7, LIST, 64));
        assert_ne!(a, solve_ops(8, LIST, 64));
        let mut seeds: Vec<u64> = a.iter().map(|o| o.graph_seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 64);
        assert!(solve_ops(WARMUP_SEED, WARM, WARMUP)
            .iter()
            .all(|w| !a.contains(w)));
    }
}
