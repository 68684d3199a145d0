//! Architecture-aware local refinement (Moulitsas–Karypis style).
//!
//! Improves an existing assignment with respect to the *true* hierarchical
//! objective (Equation 1) using two move types:
//!
//! * single-task relocation to any leaf with room,
//! * pairwise swaps of tasks on different leaves (needed when leaves are
//!   saturated and no single move is feasible).
//!
//! Each pass applies strictly-improving moves; refinement stops when a full
//! pass finds none (or after `max_passes`). Capacity is respected up to a
//! caller-chosen factor so the refiner can polish bicriteria solutions
//! without repairing their violations away.

#![allow(clippy::needless_range_loop)] // parallel-array indexing is clearer here
use hgp_core::{Assignment, Instance};
use hgp_graph::NodeId;
use hgp_hierarchy::Hierarchy;

/// Options for [`refine`].
#[derive(Clone, Copy, Debug)]
pub struct RefineOpts {
    /// Maximum improvement passes.
    pub max_passes: usize,
    /// Leaf loads may stay/grow up to this multiple of capacity (1.0 =
    /// strictly feasible moves only).
    pub capacity_factor: f64,
    /// Also try pairwise swaps (quadratic per pass, but escapes saturated
    /// configurations).
    pub swaps: bool,
}

impl Default for RefineOpts {
    fn default() -> Self {
        Self {
            max_passes: 8,
            capacity_factor: 1.0,
            swaps: true,
        }
    }
}

/// `skip` value that ignores no neighbour.
const NO_SKIP: usize = usize::MAX;

/// Marginal Equation-1 cost of `task` if placed on `leaf`, against the
/// current placement of its neighbours (the `skip` task is ignored, for
/// swap evaluation).
fn marginal(
    inst: &Instance,
    h: &Hierarchy,
    leaf_of: &[u32],
    task: usize,
    leaf: usize,
    skip: usize,
) -> f64 {
    let mut c = 0.0;
    for (u, w, _) in inst.graph().neighbors(NodeId(task as u32)) {
        if u.index() == skip {
            continue;
        }
        c += w * h.edge_multiplier(leaf, leaf_of[u.index()] as usize);
    }
    c
}

/// Recomputes `cur[x]` and `cur[u]` for every neighbour `u` of `x`: the
/// current-leaf marginals that go stale when `x` changes leaf.
fn refresh_around(inst: &Instance, h: &Hierarchy, leaf_of: &[u32], cur: &mut [f64], x: usize) {
    cur[x] = marginal(inst, h, leaf_of, x, leaf_of[x] as usize, NO_SKIP);
    for (u, _, _) in inst.graph().neighbors(NodeId(x as u32)) {
        let u = u.index();
        cur[u] = marginal(inst, h, leaf_of, u, leaf_of[u] as usize, NO_SKIP);
    }
}

/// Refines `assignment` in place; returns the total cost improvement.
///
/// Each pass first relocates every task, in index order, to the leaf with
/// the lowest marginal cost among those with room (if strictly better),
/// then — with [`RefineOpts::swaps`] — tries every pair `a < b` on
/// different leaves and applies each strictly-improving, capacity-feasible
/// swap as it is found. Passes stop once one improves nothing.
///
/// Move scoring is incremental but exact. `cur[t]` caches the marginal of
/// task `t` on its current leaf and is recomputed for a moved task and its
/// neighbours; during the swap scan of `a`, `marginal(a, ℓ)` is cached per
/// leaf `ℓ` until a neighbour of `a` moves. For a non-adjacent pair the
/// swap's `skip` drops no edge, so the old side of the delta is
/// `cur[a] + cur[b]` and the new side needs one fresh marginal; adjacent
/// pairs keep the four-marginal form. Every compared float is computed by
/// the same operations as the from-scratch scoring, so the result is
/// bit-identical to it. Extra memory is O(n + k).
pub fn refine(
    assignment: &mut Assignment,
    inst: &Instance,
    h: &Hierarchy,
    opts: &RefineOpts,
) -> f64 {
    let n = inst.num_tasks();
    let k = h.num_leaves();
    let mut leaf_of: Vec<u32> = assignment.leaves().to_vec();
    let mut load = vec![0.0f64; k];
    for t in 0..n {
        load[leaf_of[t] as usize] += inst.demand(t);
    }
    let cap = opts.capacity_factor;
    let mut total_gain = 0.0;
    let mut cur: Vec<f64> = (0..n)
        .map(|t| marginal(inst, h, &leaf_of, t, leaf_of[t] as usize, NO_SKIP))
        .collect();
    // swap-scan caches: row[ℓ] = marginal(a, ℓ), valid while
    // row_epoch[ℓ] == epoch; nbr_of[u] == a iff u is a neighbour of a
    let mut row = vec![0.0f64; k];
    let mut row_epoch = vec![0u64; k];
    let mut epoch = 0u64;
    let mut nbr_of = vec![usize::MAX; n];

    for _ in 0..opts.max_passes {
        let mut improved = false;
        // single moves
        for t in 0..n {
            let from = leaf_of[t] as usize;
            let d = inst.demand(t);
            let base = cur[t];
            let mut best_leaf = from;
            let mut best_cost = base;
            for leaf in 0..k {
                if leaf == from || load[leaf] + d > cap + 1e-9 {
                    continue;
                }
                let c = marginal(inst, h, &leaf_of, t, leaf, NO_SKIP);
                if c < best_cost - 1e-12 {
                    best_cost = c;
                    best_leaf = leaf;
                }
            }
            if best_leaf != from {
                load[from] -= d;
                load[best_leaf] += d;
                leaf_of[t] = best_leaf as u32;
                total_gain += base - best_cost;
                improved = true;
                refresh_around(inst, h, &leaf_of, &mut cur, t);
            }
        }
        // pairwise swaps
        if opts.swaps {
            for a in 0..n {
                epoch += 1;
                for (u, _, _) in inst.graph().neighbors(NodeId(a as u32)) {
                    nbr_of[u.index()] = a;
                }
                for b in (a + 1)..n {
                    let (la, lb) = (leaf_of[a] as usize, leaf_of[b] as usize);
                    if la == lb {
                        continue;
                    }
                    let (da, db) = (inst.demand(a), inst.demand(b));
                    if load[la] - da + db > cap + 1e-9 || load[lb] - db + da > cap + 1e-9 {
                        continue;
                    }
                    let adjacent = nbr_of[b] == a;
                    let (old, new) = if adjacent {
                        // the (a,b) edge multiplier is unchanged by a swap,
                        // so skipping both directions keeps the delta exact
                        (
                            marginal(inst, h, &leaf_of, a, la, b)
                                + marginal(inst, h, &leaf_of, b, lb, a),
                            marginal(inst, h, &leaf_of, a, lb, b)
                                + marginal(inst, h, &leaf_of, b, la, a),
                        )
                    } else {
                        // no a–b edge: `skip` drops nothing, so every term
                        // is a plain marginal
                        if row_epoch[lb] != epoch {
                            row[lb] = marginal(inst, h, &leaf_of, a, lb, NO_SKIP);
                            row_epoch[lb] = epoch;
                        }
                        (
                            cur[a] + cur[b],
                            row[lb] + marginal(inst, h, &leaf_of, b, la, NO_SKIP),
                        )
                    };
                    if new < old - 1e-12 {
                        load[la] += db - da;
                        load[lb] += da - db;
                        leaf_of.swap(a, b);
                        total_gain += old - new;
                        improved = true;
                        refresh_around(inst, h, &leaf_of, &mut cur, a);
                        refresh_around(inst, h, &leaf_of, &mut cur, b);
                        if adjacent {
                            // a neighbour of a moved: its row is stale
                            epoch += 1;
                        }
                    }
                }
            }
        }
        if !improved {
            break;
        }
    }
    *assignment = Assignment::new(leaf_of, h);
    total_gain
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgp_graph::{generators, Graph};
    use hgp_hierarchy::presets;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The from-scratch scorer `refine` must reproduce bit for bit: four
    /// marginals per swap pair and a fresh base marginal per single move.
    fn refine_reference(
        assignment: &mut Assignment,
        inst: &Instance,
        h: &Hierarchy,
        opts: &RefineOpts,
    ) -> f64 {
        let n = inst.num_tasks();
        let k = h.num_leaves();
        let mut leaf_of: Vec<u32> = assignment.leaves().to_vec();
        let mut load = vec![0.0f64; k];
        for t in 0..n {
            load[leaf_of[t] as usize] += inst.demand(t);
        }
        let cap = opts.capacity_factor;
        let mut total_gain = 0.0;

        for _ in 0..opts.max_passes {
            let mut improved = false;
            for t in 0..n {
                let from = leaf_of[t] as usize;
                let d = inst.demand(t);
                let cur = marginal(inst, h, &leaf_of, t, from, usize::MAX);
                let mut best_leaf = from;
                let mut best_cost = cur;
                for leaf in 0..k {
                    if leaf == from || load[leaf] + d > cap + 1e-9 {
                        continue;
                    }
                    let c = marginal(inst, h, &leaf_of, t, leaf, usize::MAX);
                    if c < best_cost - 1e-12 {
                        best_cost = c;
                        best_leaf = leaf;
                    }
                }
                if best_leaf != from {
                    load[from] -= d;
                    load[best_leaf] += d;
                    leaf_of[t] = best_leaf as u32;
                    total_gain += cur - best_cost;
                    improved = true;
                }
            }
            if opts.swaps {
                for a in 0..n {
                    for b in (a + 1)..n {
                        let (la, lb) = (leaf_of[a] as usize, leaf_of[b] as usize);
                        if la == lb {
                            continue;
                        }
                        let (da, db) = (inst.demand(a), inst.demand(b));
                        if load[la] - da + db > cap + 1e-9 || load[lb] - db + da > cap + 1e-9 {
                            continue;
                        }
                        let old = marginal(inst, h, &leaf_of, a, la, b)
                            + marginal(inst, h, &leaf_of, b, lb, a);
                        let new = marginal(inst, h, &leaf_of, a, lb, b)
                            + marginal(inst, h, &leaf_of, b, la, a);
                        if new < old - 1e-12 {
                            load[la] += db - da;
                            load[lb] += da - db;
                            leaf_of.swap(a, b);
                            total_gain += old - new;
                            improved = true;
                        }
                    }
                }
            }
            if !improved {
                break;
            }
        }
        *assignment = Assignment::new(leaf_of, h);
        total_gain
    }

    /// Machines of height 1–3, including non-power-of-two degrees, a
    /// degree-1 level and more leaves than a hub has inline neighbours.
    fn machine(shape: usize) -> Hierarchy {
        match shape {
            0 => Hierarchy::new(vec![5], vec![1.0, 0.0]),
            1 => Hierarchy::new(vec![12], vec![2.5, 0.5]),
            2 => Hierarchy::new(vec![2, 3], vec![4.0, 1.0, 0.0]),
            3 => Hierarchy::new(vec![4, 4], vec![6.0, 1.5, 0.25]),
            4 => Hierarchy::new(vec![3, 1, 2], vec![9.0, 3.0, 3.0, 0.0]),
            _ => Hierarchy::new(vec![2, 2, 3], vec![10.0, 4.0, 1.0, 0.0]),
        }
    }

    /// A random graph — sparse, or dense enough that swaps between
    /// adjacent tasks are common — with an optional hub (node 0 adjacent
    /// to every other node), random demands (some saturating a whole
    /// leaf) and a random, possibly infeasible, starting placement.
    fn random_case(
        seed: u64,
        n: usize,
        hub: bool,
        dense: bool,
        h: &Hierarchy,
    ) -> (Instance, Assignment) {
        let k = h.num_leaves();
        let mut rng = StdRng::seed_from_u64(seed);
        let p = if dense {
            0.4
        } else {
            (3.0 / n as f64).min(1.0)
        };
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if (hub && u == 0) || rng.gen_bool(p) {
                    edges.push((u, v, rng.gen_range(0.25..4.0)));
                }
            }
        }
        let g = Graph::from_edges(n, &edges);
        let fill = 0.8 * k as f64 / n as f64;
        let demands: Vec<f64> = (0..n)
            .map(|_| {
                if rng.gen_bool(0.1) {
                    1.0
                } else {
                    rng.gen_range(0.1 * fill..1.5 * fill).clamp(1e-3, 1.0)
                }
            })
            .collect();
        let leaves: Vec<u32> = (0..n).map(|_| rng.gen_range(0..k as u32)).collect();
        (Instance::new(g, demands), Assignment::new(leaves, h))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn incremental_refine_is_bit_identical_to_reference(
            seed in 0u64..1_000_000,
            n in 2usize..40,
            shape in 0usize..6,
            (hub, dense) in (any::<bool>(), any::<bool>()),
            loose in any::<bool>(),
            swaps in any::<bool>(),
        ) {
            let h = machine(shape);
            let (inst, start) = random_case(seed, n, hub, dense, &h);
            let opts = RefineOpts {
                capacity_factor: if loose { 1.25 } else { 1.0 },
                swaps,
                ..Default::default()
            };
            let mut want = start.clone();
            let want_gain = refine_reference(&mut want, &inst, &h, &opts);
            let mut got = start.clone();
            let got_gain = refine(&mut got, &inst, &h, &opts);
            let ctx = format!(
                "seed={seed} n={n} shape={shape} hub={hub} dense={dense} loose={loose} swaps={swaps}"
            );
            prop_assert_eq!(got.leaves(), want.leaves(), "{ctx}");
            prop_assert_eq!(got_gain.to_bits(), want_gain.to_bits(), "{ctx}");
        }
    }

    #[test]
    fn fixes_an_obviously_bad_placement() {
        // path 0-1-2-3 placed interleaved across sockets
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        let inst = Instance::uniform(g, 1.0);
        let h = presets::multicore(2, 2, 4.0, 1.0);
        let mut a = Assignment::new(vec![0, 2, 1, 3], &h);
        let before = a.cost(&inst, &h);
        let gain = refine(&mut a, &inst, &h, &RefineOpts::default());
        let after = a.cost(&inst, &h);
        assert!((before - after - gain).abs() < 1e-9, "gain accounting");
        assert!(
            (after - 6.0).abs() < 1e-9,
            "should reach the optimum 6, got {after}"
        );
    }

    #[test]
    fn swap_needed_when_leaves_are_full() {
        // unit demands fill every leaf: only swaps can improve
        let g = Graph::from_edges(4, &[(0, 1, 10.0), (2, 3, 10.0)]);
        let inst = Instance::uniform(g, 1.0);
        let h = presets::multicore(2, 2, 4.0, 1.0);
        // 0 and 1 on different sockets, 2 and 3 on different sockets
        let mut a = Assignment::new(vec![0, 2, 1, 3], &h);
        let no_swaps = RefineOpts {
            swaps: false,
            ..Default::default()
        };
        let mut a2 = a.clone();
        let g0 = refine(&mut a2, &inst, &h, &no_swaps);
        assert_eq!(g0, 0.0, "single moves cannot improve a saturated layout");
        let gain = refine(&mut a, &inst, &h, &RefineOpts::default());
        assert!(gain > 0.0);
        assert_eq!(a.leaf(0) / 2, a.leaf(1) / 2, "pair should share a socket");
    }

    #[test]
    fn respects_capacity_factor() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::gnp_connected(&mut rng, 12, 0.3, 1.0, 2.0);
        let inst = Instance::uniform(g, 0.5);
        let h = presets::flat(8);
        let mut a = crate::mapping::random_placement(&inst, &h, &mut rng);
        refine(&mut a, &inst, &h, &RefineOpts::default());
        assert!(a.is_feasible(&inst, &h, 1.0));
    }

    #[test]
    fn never_increases_cost() {
        let mut rng = StdRng::seed_from_u64(6);
        for seed in 0..5 {
            let mut r = StdRng::seed_from_u64(seed);
            let g = generators::barabasi_albert(&mut r, 20, 2, 0.5, 3.0);
            let inst = Instance::uniform(g, 0.4);
            let h = presets::multicore(2, 4, 6.0, 1.0);
            let mut a = crate::mapping::random_placement(&inst, &h, &mut rng);
            let before = a.cost(&inst, &h);
            refine(&mut a, &inst, &h, &RefineOpts::default());
            let after = a.cost(&inst, &h);
            assert!(after <= before + 1e-9);
        }
    }
}
