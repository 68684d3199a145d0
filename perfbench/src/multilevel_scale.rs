//! `multilevel-scale`: `solve_multilevel` over distinct 20k-node 2-D
//! meshes.
//!
//! The only workload where the V-cycle (coarsen → core → refine) and the
//! Eq.-1 FM kernel carry the time. One family keeps the ops in one size
//! class: at 20k nodes a grid2d solve takes about 190 ms, a power-law one
//! about 560 ms and a clustered one about 1.6 s, so mixing them would put
//! class boundaries next to every reported percentile.

use crate::layers::{self, Layers};
use crate::report::{Checks, Pass};
use crate::{alloc, op_count, solve_ops, Config, Shape, SolveOp, Workload, WARMUP_SEED};
use hgp_core::{Instance, MultilevelOptions, Parallelism, SolverOptions};
use hgp_graph::generators;
use hgp_hierarchy::{presets, Hierarchy};
use hgp_multilevel::{solve_multilevel, MlReport};
use hgp_obs::{names, NO_PARENT};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Nominal throughput on a 2-core host, used only to size the op list.
pub(crate) const OPS_PER_S: f64 = 5.5;
/// Untimed warm-up ops run during set-up.
const WARMUP: usize = 2;
const ROWS: usize = 142;
const COLS: usize = 142;

/// `derive_seed` sub-streams of the op list and of the warm-up ops.
const LIST: u64 = 0x40;
const WARM: u64 = 0x41;

fn machine() -> Hierarchy {
    presets::multicore(4, 4, 4.0, 1.0)
}

/// A 142×142 mesh (20 164 nodes) whose demands total about 60% of the
/// machine, spread within ±50% of their mean.
fn instance(op: &SolveOp, leaves: usize) -> Instance {
    let mut rng = StdRng::seed_from_u64(op.graph_seed);
    let g = generators::grid2d(&mut rng, ROWS, COLS, 0.5, 2.0);
    let n = g.num_nodes();
    let mean = 0.6 * leaves as f64 / n as f64;
    let demands = (0..n)
        .map(|_| rng.gen_range(0.5 * mean..1.5 * mean))
        .collect();
    Instance::new(g, demands)
}

fn options(op: &SolveOp, trace: bool) -> SolverOptions {
    SolverOptions::builder()
        .seed(op.solve_seed)
        .threads(Parallelism::serial())
        .trace(trace)
        .multilevel(MultilevelOptions {
            enabled: true,
            ..MultilevelOptions::default()
        })
        .build()
}

/// Recomputes cost and capacity; the V-cycle promises the final factor
/// stays within `max(1, coarse_violation)` (projection keeps leaf loads
/// and FM only moves within that budget).
fn check(checks: &mut Checks, i: usize, inst: &Instance, h: &Hierarchy, rep: &MlReport) {
    let what = format!("multilevel-scale op {i}");
    let bound = rep.coarse_violation.max(1.0);
    let (cost, factor, verdict) =
        crate::check::placement(&what, inst, h, rep.assignment.leaves(), rep.cost, bound);
    checks.placement(cost, factor);
    let verdict = verdict.and_then(|()| {
        if (rep.violation - factor).abs() <= 1e-9 {
            Ok(())
        } else {
            Err(format!(
                "{what}: reported capacity factor {} but the placement has {factor}",
                rep.violation
            ))
        }
    });
    checks.op(verdict.err());
    checks.count("ml.levels", rep.levels as u64);
}

/// State of one set-up.
pub struct State {
    ops: Vec<SolveOp>,
    h: Hierarchy,
}

/// The `multilevel-scale` workload.
pub struct MultilevelScale;

impl Workload for MultilevelScale {
    type State = State;

    fn setup(&self, cfg: &Config) -> Result<State, String> {
        let h = machine();
        let ops = solve_ops(cfg.seed, LIST, op_count(cfg.seconds, OPS_PER_S, 20));
        for op in solve_ops(WARMUP_SEED, WARM, WARMUP) {
            solve_multilevel(&instance(&op, h.num_leaves()), &h, &options(&op, false))
                .map_err(|e| format!("warm-up solve failed: {e}"))?;
        }
        Ok(State { ops, h })
    }

    fn shape(&self, state: &State) -> Shape {
        Shape {
            classes: vec![("grid2d-20k", state.ops.len())],
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
        let mut stage: [Vec<f64>; 3] = Default::default();
        let (mut build_ms, mut sweep_ms) = (Vec::new(), Vec::new());
        let (mut wave_ms, mut tree_ms) = (Vec::new(), Vec::new());
        let (mut dp_ms, mut repair_ms) = (Vec::new(), Vec::new());
        let mut coarsest = Vec::new();
        alloc::begin_phase();
        for (i, op) in state.ops.iter().enumerate() {
            let inst = instance(op, h.num_leaves());
            let opts = options(op, traced);
            let t = Instant::now();
            alloc::armed(true);
            let rep = {
                let op_span = traced.then(|| sink.span_with(layers::OP, NO_PARENT, i as u64));
                let _s = op_span
                    .as_ref()
                    .map(|o| sink.span_with(layers::MULTILEVEL, o.id(), 0));
                solve_multilevel(&inst, h, &opts)
            };
            alloc::armed(false);
            pass.lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let rep = match rep {
                Ok(rep) => rep,
                Err(e) => {
                    pass.checks
                        .op(Some(format!("multilevel-scale op {i}: {e}")));
                    continue;
                }
            };
            if let Some(tr) = &rep.trace {
                for (k, name) in [names::ML_COARSEN, names::ML_CORE, names::ML_REFINE]
                    .into_iter()
                    .enumerate()
                {
                    stage[k].push(layers::trace_stage_ms(tr, name));
                }
                coarsest.push(rep.coarsest_nodes as f64);
            }
            if let Some(tr) = &rep.core.trace {
                build_ms.push(layers::trace_stage_ms(tr, "distribution"));
                sweep_ms.push(layers::trace_stage_ms(tr, "sweep"));
                wave_ms.push(layers::trace_span_ms(tr, names::DECOMP_WAVE));
                tree_ms.push(layers::trace_span_ms(tr, names::DECOMP_TREE));
                dp_ms.push(layers::trace_span_ms(tr, layers::TREE_DP));
                repair_ms.push(layers::trace_span_ms(tr, layers::TREE_REPAIR));
            }
            check(&mut pass.checks, i, &inst, h, &rep);
        }
        pass.peak_heap = alloc::peak_bytes();
        pass.wall_s = pass.lat_ms.iter().sum::<f64>() * 1e-3;
        pass.checks.count("decomp.builds", n as u64);
        if traced {
            let op_ms = layers::op_ms(&sink.records(), n);
            let mut l = Layers::default();
            l.p50("ml.coarsen_ms", &stage[0]);
            l.p50("ml.core_ms", &stage[1]);
            l.p50("ml.refine_ms", &stage[2]);
            l.set("ml.levels", pass.checks.counts["ml.levels"] as f64);
            l.p50("ml.coarsest_nodes", &coarsest);
            l.p50("decomp.build_ms", &build_ms);
            l.set("decomp.share", layers::share(&build_ms, &op_ms));
            l.set("decomp.builds", n as f64);
            l.p50("decomp.wave_ms", &wave_ms);
            l.p50("decomp.tree_ms", &tree_ms);
            l.p50("sweep.ms", &sweep_ms);
            l.set("sweep.share", layers::share(&sweep_ms, &op_ms));
            l.p50("tree.dp_ms", &dp_ms);
            l.p50("tree.repair_ms", &repair_ms);
            let covered: Vec<f64> = (0..n)
                .map(|i| stage.iter().map(|s| s.get(i).copied().unwrap_or(0.0)).sum())
                .collect();
            l.set("trace.coverage", layers::share(&covered, &op_ms));
            pass.layers = l.into_vec();
        }
        Ok(pass)
    }
}
