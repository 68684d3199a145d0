//! Hierarchy-aware Fiduccia–Mattheyses refinement against Equation 1.
//!
//! One shared move scorer and pass for every layer that locally improves a
//! leaf placement: the `hgp-multilevel` V-cycle refines each uncoarsening
//! rung with it, and [`crate::elastic::Session::resolve`] runs the
//! *bounded* variant to build churn-budgeted re-placements. The gain of a
//! move is scored by true Equation-1 level costs — an edge crossing level
//! `ℓ` pays its weight times `cm(ℓ)` — not by flat cut weight: a move that
//! leaves the cut unchanged but pulls an edge's LCA from cross-socket down
//! to intra-socket is strictly profitable here and invisible to a flat
//! refiner.
//!
//! The pass is classic FM: capacity-feasible single-node boundary moves in
//! best-gain-first order, each node moving at most once per pass,
//! *including* negative-gain moves (hill-climbing off plateaus), with a
//! journal that rolls back to the best prefix. [`hier_fm_pass_bounded`]
//! additionally caps the prefix length, which is exactly the churn-budget
//! semantics elastic re-placement needs: the best total gain achievable
//! with at most `max_moves` nodes leaving their current leaves — and
//! because the candidate prefix set only widens as the budget grows, the
//! achievable cost is monotone non-increasing in `max_moves`.

use hgp_graph::{Graph, NodeId};
use hgp_hierarchy::Hierarchy;

/// Max-heap candidate: gain first, then node index for deterministic
/// tie-breaks.
#[derive(PartialEq)]
struct Cand(f64, u32);

impl Eq for Cand {}

impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Cand {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(self.1.cmp(&other.1).reverse())
    }
}

/// Marginal Equation-1 cost of node `v` if placed on `leaf`: each incident
/// edge pays its weight times the cost multiplier of the LCA level between
/// `leaf` and the neighbour's current leaf.
pub fn marginal(g: &Graph, h: &Hierarchy, leaf_of: &[u32], v: usize, leaf: usize) -> f64 {
    let mut c = 0.0;
    for (u, w, _) in g.neighbors(NodeId(v as u32)) {
        c += w * h.edge_multiplier(leaf, leaf_of[u.index()] as usize);
    }
    c
}

/// The best feasible boundary move for `v`: the target leaf among its
/// neighbours' leaves with the largest Equation-1 gain (positive *or*
/// negative — the FM pass hill-climbs and rolls back) whose load stays
/// within `cap`. Returns `(gain, target)`; `target == u32::MAX` means no
/// feasible boundary move exists at all. A leaf whose load is already
/// non-finite (the caller's way of fencing off drained leaves) never
/// passes the capacity check, so no move lands there.
///
/// `cands` is the pass's reusable candidate buffer. An interior node (no
/// neighbour on another leaf — most nodes of a refined mesh) returns
/// before its base marginal is computed.
#[allow(clippy::too_many_arguments)]
fn best_move(
    g: &Graph,
    node_w: &[f64],
    h: &Hierarchy,
    leaf_of: &[u32],
    loads: &[f64],
    cap: f64,
    v: usize,
    cands: &mut Vec<u32>,
) -> (f64, u32) {
    let from = leaf_of[v] as usize;
    // candidate targets: leaves hosting at least one neighbour (boundary
    // moves — a leaf with no neighbours can only raise every edge's LCA)
    cands.clear();
    for (u, _, _) in g.neighbors(NodeId(v as u32)) {
        let t = leaf_of[u.index()];
        if t as usize != from && !cands.contains(&t) {
            cands.push(t);
        }
    }
    let mut best = (f64::NEG_INFINITY, u32::MAX);
    if cands.is_empty() {
        return best;
    }
    let w_v = node_w[v];
    let base = marginal(g, h, leaf_of, v, from);
    for &t in cands.iter() {
        if loads[t as usize] + w_v > cap + 1e-9 {
            continue;
        }
        let gain = base - marginal(g, h, leaf_of, v, t as usize);
        if gain > best.0 {
            best = (gain, t);
        }
    }
    best
}

/// What a bounded pass achieved: the rolled-back-to best prefix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FmPassOutcome {
    /// Equation-1 cost removed by the kept prefix (never negative).
    pub gain: f64,
    /// Moves kept — nodes now on a different leaf than before the pass.
    pub moves: usize,
}

/// One hierarchy-aware FM pass with unbounded prefix length — the
/// multilevel refiner's semantics. Returns the pass gain (never negative,
/// so Equation-1 cost is monotonically non-increasing per pass).
pub fn hier_fm_pass(
    g: &Graph,
    node_w: &[f64],
    h: &Hierarchy,
    leaf_of: &mut [u32],
    loads: &mut [f64],
    cap: f64,
) -> f64 {
    hier_fm_pass_bounded(g, node_w, h, leaf_of, loads, cap, usize::MAX).gain
}

/// One hierarchy-aware FM pass that keeps at most `max_moves` moves:
/// moves are applied best-gain-first (re-scored and re-queued when stale),
/// journalled as `(node, previous leaf)`, and at the end everything past
/// the best running total *among prefixes of length ≤ `max_moves`* is
/// undone. Since each node moves at most once per pass and every applied
/// move takes a node off its starting leaf, the kept prefix length is
/// exactly the number of nodes whose leaf changed.
pub fn hier_fm_pass_bounded(
    g: &Graph,
    node_w: &[f64],
    h: &Hierarchy,
    leaf_of: &mut [u32],
    loads: &mut [f64],
    cap: f64,
    max_moves: usize,
) -> FmPassOutcome {
    let n = g.num_nodes();
    if max_moves == 0 {
        return FmPassOutcome {
            gain: 0.0,
            moves: 0,
        };
    }
    let mut cands: Vec<u32> = Vec::new();
    let mut heap = std::collections::BinaryHeap::new();
    for v in 0..n {
        let (gain, target) = best_move(g, node_w, h, leaf_of, loads, cap, v, &mut cands);
        if target != u32::MAX {
            heap.push(Cand(gain, v as u32));
        }
    }
    let mut moved = vec![false; n];
    // journal of applied moves as (node, previous leaf); the suffix past
    // the best running total is undone at the end of the pass
    let mut journal: Vec<(u32, u32)> = Vec::new();
    let mut total = 0.0;
    let mut best_total = 0.0;
    let mut best_len = 0usize;
    // hill-climb patience: give up once this many consecutive moves fail
    // to reach a new best total (bounds pass time on large graphs while
    // still allowing deep enough descents to cross cost ridges)
    let stall_limit = (n / 8).max(64);
    while let Some(Cand(gn, vi)) = heap.pop() {
        let v = vi as usize;
        if moved[v] {
            continue;
        }
        // loads and neighbour placements may have shifted since this entry
        // was pushed: re-score, and re-queue instead of applying stale gains
        let (gain, target) = best_move(g, node_w, h, leaf_of, loads, cap, v, &mut cands);
        if target == u32::MAX {
            continue;
        }
        if (gn - gain).abs() > 1e-12 {
            heap.push(Cand(gain, vi));
            continue;
        }
        let from = leaf_of[v] as usize;
        loads[from] -= node_w[v];
        loads[target as usize] += node_w[v];
        leaf_of[v] = target;
        moved[v] = true;
        journal.push((vi, from as u32));
        total += gain;
        if journal.len() <= max_moves && total > best_total + 1e-12 {
            best_total = total;
            best_len = journal.len();
        } else if journal.len() - best_len > stall_limit {
            break;
        }
        for (u, _, _) in g.neighbors(NodeId(vi)) {
            if !moved[u.index()] {
                let (g2, t2) = best_move(g, node_w, h, leaf_of, loads, cap, u.index(), &mut cands);
                if t2 != u32::MAX {
                    heap.push(Cand(g2, u.0));
                }
            }
        }
    }
    // undo the exploratory suffix: everything past the best running total
    for &(vi, from) in journal[best_len..].iter().rev() {
        let v = vi as usize;
        let cur = leaf_of[v] as usize;
        loads[cur] -= node_w[v];
        loads[from as usize] += node_w[v];
        leaf_of[v] = from;
    }
    FmPassOutcome {
        gain: best_total,
        moves: best_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgp_hierarchy::presets;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The allocating scorer [`best_move`] must reproduce bit for bit: a
    /// fresh candidate `Vec` per call and the base marginal computed
    /// before candidates are known.
    fn best_move_reference(
        g: &Graph,
        node_w: &[f64],
        h: &Hierarchy,
        leaf_of: &[u32],
        loads: &[f64],
        cap: f64,
        v: usize,
    ) -> (f64, u32) {
        let from = leaf_of[v] as usize;
        let w_v = node_w[v];
        let base = marginal(g, h, leaf_of, v, from);
        let mut best = (f64::NEG_INFINITY, u32::MAX);
        let mut cands: Vec<u32> = Vec::with_capacity(8);
        for (u, _, _) in g.neighbors(NodeId(v as u32)) {
            let t = leaf_of[u.index()];
            if t as usize != from && !cands.contains(&t) {
                cands.push(t);
            }
        }
        for &t in &cands {
            if loads[t as usize] + w_v > cap + 1e-9 {
                continue;
            }
            let gain = base - marginal(g, h, leaf_of, v, t as usize);
            if gain > best.0 {
                best = (gain, t);
            }
        }
        best
    }

    /// [`hier_fm_pass_bounded`] driven by [`best_move_reference`].
    fn fm_pass_reference(
        g: &Graph,
        node_w: &[f64],
        h: &Hierarchy,
        leaf_of: &mut [u32],
        loads: &mut [f64],
        cap: f64,
        max_moves: usize,
    ) -> FmPassOutcome {
        let n = g.num_nodes();
        if max_moves == 0 {
            return FmPassOutcome {
                gain: 0.0,
                moves: 0,
            };
        }
        let mut heap = std::collections::BinaryHeap::new();
        for v in 0..n {
            let (gain, target) = best_move_reference(g, node_w, h, leaf_of, loads, cap, v);
            if target != u32::MAX {
                heap.push(Cand(gain, v as u32));
            }
        }
        let mut moved = vec![false; n];
        let mut journal: Vec<(u32, u32)> = Vec::new();
        let mut total = 0.0;
        let mut best_total = 0.0;
        let mut best_len = 0usize;
        let stall_limit = (n / 8).max(64);
        while let Some(Cand(gn, vi)) = heap.pop() {
            let v = vi as usize;
            if moved[v] {
                continue;
            }
            let (gain, target) = best_move_reference(g, node_w, h, leaf_of, loads, cap, v);
            if target == u32::MAX {
                continue;
            }
            if (gn - gain).abs() > 1e-12 {
                heap.push(Cand(gain, vi));
                continue;
            }
            let from = leaf_of[v] as usize;
            loads[from] -= node_w[v];
            loads[target as usize] += node_w[v];
            leaf_of[v] = target;
            moved[v] = true;
            journal.push((vi, from as u32));
            total += gain;
            if journal.len() <= max_moves && total > best_total + 1e-12 {
                best_total = total;
                best_len = journal.len();
            } else if journal.len() - best_len > stall_limit {
                break;
            }
            for (u, _, _) in g.neighbors(NodeId(vi)) {
                if !moved[u.index()] {
                    let (g2, t2) =
                        best_move_reference(g, node_w, h, leaf_of, loads, cap, u.index());
                    if t2 != u32::MAX {
                        heap.push(Cand(g2, u.0));
                    }
                }
            }
        }
        for &(vi, from) in journal[best_len..].iter().rev() {
            let v = vi as usize;
            let cur = leaf_of[v] as usize;
            loads[cur] -= node_w[v];
            loads[from as usize] += node_w[v];
            leaf_of[v] = from;
        }
        FmPassOutcome {
            gain: best_total,
            moves: best_len,
        }
    }

    /// Machines of height 1–3, including non-power-of-two degrees, a
    /// degree-1 level and more leaves than any inline candidate buffer.
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn buffered_fm_pass_is_bit_identical_to_reference(
            seed in 0u64..1_000_000,
            n in 2usize..60,
            shape in 0usize..6,
            hub in any::<bool>(),
            (loose, fenced) in (any::<bool>(), any::<bool>()),
            budget in 0usize..12,
        ) {
            let h = machine(shape);
            let k = h.num_leaves();
            let mut rng = StdRng::seed_from_u64(seed);
            // sparse random graph; the optional hub (node 0) touches every
            // node, so its neighbours span every leaf
            let mut edges = Vec::new();
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if (hub && u == 0) || rng.gen_bool((3.0 / n as f64).min(1.0)) {
                        edges.push((u, v, rng.gen_range(0.25..4.0)));
                    }
                }
            }
            let g = Graph::from_edges(n, &edges);
            let fill = 0.8 * k as f64 / n as f64;
            let w: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1 * fill..1.5 * fill)).collect();
            let start: Vec<u32> = (0..n).map(|_| rng.gen_range(0..k as u32)).collect();
            let mut loads = vec![0.0; k];
            for (v, &l) in start.iter().enumerate() {
                loads[l as usize] += w[v];
            }
            if fenced {
                // a drained leaf: nothing may land on it
                loads[rng.gen_range(0..k)] = f64::INFINITY;
            }
            let cap = if loose { 1.25 } else { 1.0 };
            let max_moves = if budget == 11 { usize::MAX } else { budget };
            let ctx = format!("seed={seed} n={n} shape={shape} hub={hub} loose={loose} fenced={fenced} budget={budget}");
            let (mut want_leaf, mut want_loads) = (start.clone(), loads.clone());
            let (mut got_leaf, mut got_loads) = (start.clone(), loads.clone());
            // two consecutive passes, so the second starts from a refined
            // placement with many interior nodes
            for pass in 0..2 {
                let want = fm_pass_reference(&g, &w, &h, &mut want_leaf, &mut want_loads, cap, max_moves);
                let got = hier_fm_pass_bounded(&g, &w, &h, &mut got_leaf, &mut got_loads, cap, max_moves);
                prop_assert_eq!(&got_leaf, &want_leaf, "{ctx} pass={pass}");
                prop_assert_eq!(got.gain.to_bits(), want.gain.to_bits(), "{ctx} pass={pass}");
                prop_assert_eq!(got.moves, want.moves, "{ctx} pass={pass}");
                for (a, b) in got_loads.iter().zip(&want_loads) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "{ctx} pass={pass}");
                }
            }
        }
    }

    fn setup() -> (Graph, Vec<f64>, Hierarchy) {
        // two heavy pairs placed across sockets, light coupling between
        let g = Graph::from_edges(4, &[(0, 1, 5.0), (2, 3, 5.0), (1, 2, 0.1)]);
        let w = vec![0.4; 4];
        let h = presets::multicore(2, 2, 4.0, 1.0);
        (g, w, h)
    }

    fn loads_of(leaf_of: &[u32], w: &[f64], k: usize) -> Vec<f64> {
        let mut loads = vec![0.0; k];
        for (v, &l) in leaf_of.iter().enumerate() {
            loads[l as usize] += w[v];
        }
        loads
    }

    #[test]
    fn pass_fixes_a_bad_placement() {
        let (g, w, h) = setup();
        let mut leaf_of = vec![0u32, 3, 1, 2];
        let mut loads = loads_of(&leaf_of, &w, h.num_leaves());
        let before = crate::Assignment::new(leaf_of.clone(), &h)
            .cost(&crate::Instance::new(g.clone(), w.clone()), &h);
        let gain = hier_fm_pass(&g, &w, &h, &mut leaf_of, &mut loads, 1.0);
        let after = crate::Assignment::new(leaf_of.clone(), &h)
            .cost(&crate::Instance::new(g.clone(), w.clone()), &h);
        assert!(gain > 0.0);
        assert!(
            (before - after - gain).abs() < 1e-9,
            "claimed gain is honest"
        );
    }

    #[test]
    fn bounded_pass_respects_budget_and_is_monotone() {
        let (g, w, h) = setup();
        let base = vec![0u32, 3, 1, 2];
        let mut prev_gain = -1.0;
        for budget in 0..=4 {
            let mut leaf_of = base.clone();
            let mut loads = loads_of(&leaf_of, &w, h.num_leaves());
            let out = hier_fm_pass_bounded(&g, &w, &h, &mut leaf_of, &mut loads, 1.0, budget);
            assert!(out.moves <= budget, "budget {budget}: kept {}", out.moves);
            let changed = base.iter().zip(&leaf_of).filter(|(a, b)| a != b).count();
            assert_eq!(changed, out.moves, "kept prefix length = churn");
            assert!(
                out.gain >= prev_gain - 1e-12,
                "gain must not shrink as the budget grows"
            );
            prev_gain = out.gain;
        }
    }

    #[test]
    fn zero_budget_moves_nothing() {
        let (g, w, h) = setup();
        let mut leaf_of = vec![0u32, 3, 1, 2];
        let orig = leaf_of.clone();
        let mut loads = loads_of(&leaf_of, &w, h.num_leaves());
        let out = hier_fm_pass_bounded(&g, &w, &h, &mut leaf_of, &mut loads, 1.0, 0);
        assert_eq!(
            out,
            FmPassOutcome {
                gain: 0.0,
                moves: 0
            }
        );
        assert_eq!(leaf_of, orig);
    }

    #[test]
    fn nonfinite_loads_fence_off_leaves() {
        let (g, w, h) = setup();
        let mut leaf_of = vec![0u32, 3, 1, 2];
        let mut loads = loads_of(&leaf_of, &w, h.num_leaves());
        // fence every leaf but the current ones: no feasible target at all
        loads[0] = f64::INFINITY;
        loads[1] = f64::INFINITY;
        loads[2] = f64::INFINITY;
        loads[3] = f64::INFINITY;
        let out = hier_fm_pass_bounded(&g, &w, &h, &mut leaf_of, &mut loads, 1.0, 8);
        assert_eq!(out.moves, 0, "no move may land on a fenced leaf");
    }
}
