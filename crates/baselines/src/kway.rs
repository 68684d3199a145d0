//! Multilevel `k`-way partitioning by recursive bisection (METIS-style).

use hgp_graph::partition::{multilevel_bisection_with, BisectOpts, BisectScratch};
use hgp_graph::{Graph, SubgraphScratch};
use rand::Rng;

/// Options for [`kway_partition`].
#[derive(Clone, Copy, Debug, Default)]
pub struct KwayOpts {
    /// Per-bisection options (FM passes, balance slack, …).
    pub bisect: BisectOpts,
}

/// Buffers shared by every bisection of one partitioning call.
#[derive(Default)]
struct KwayScratch {
    members: Vec<u32>,
    sub: SubgraphScratch,
    sub_w: Vec<f64>,
    bisect: BisectScratch,
    side: Vec<bool>,
}

/// Splits `g` into `k` parts of (near-)equal total node weight by recursive
/// bisection, returning a part id in `0..k` per node.
///
/// Each recursion splits the node set into `⌈k/2⌉ : ⌊k/2⌋` halves with the
/// matching weight fractions, so any `k` (not just powers of two) is
/// balanced correctly.
pub fn kway_partition<R: Rng + ?Sized>(
    g: &Graph,
    node_w: &[f64],
    k: usize,
    opts: &KwayOpts,
    rng: &mut R,
) -> Vec<u32> {
    assert!(k >= 1);
    assert_eq!(node_w.len(), g.num_nodes());
    let mut part = vec![0u32; g.num_nodes()];
    let all: Vec<u32> = (0..g.num_nodes() as u32).collect();
    let mut s = KwayScratch::default();
    split(g, node_w, &all, k, 0, opts, rng, &mut part, &mut s);
    part
}

/// Splits `tasks` into exactly `parts` groups, preserving graph structure;
/// returns the groups (used directly by the dual-recursive mapper, which
/// needs the groups themselves rather than ids).
pub fn split_into_groups<R: Rng + ?Sized>(
    g: &Graph,
    node_w: &[f64],
    tasks: &[u32],
    parts: usize,
    opts: &KwayOpts,
    rng: &mut R,
) -> Vec<Vec<u32>> {
    assert!(parts >= 1);
    let mut out = Vec::with_capacity(parts);
    let mut s = KwayScratch::default();
    split_groups(g, node_w, tasks, parts, opts, rng, &mut out, &mut s);
    out
}

#[allow(clippy::too_many_arguments)]
fn split_groups<R: Rng + ?Sized>(
    g: &Graph,
    node_w: &[f64],
    tasks: &[u32],
    parts: usize,
    opts: &KwayOpts,
    rng: &mut R,
    out: &mut Vec<Vec<u32>>,
    s: &mut KwayScratch,
) {
    if parts == 1 {
        out.push(tasks.to_vec());
        return;
    }
    let k0 = parts.div_ceil(2);
    let (a, b) = bisect_tasks(g, node_w, tasks, k0 as f64 / parts as f64, opts, rng, s);
    split_groups(g, node_w, &a, k0, opts, rng, out, s);
    split_groups(g, node_w, &b, parts - k0, opts, rng, out, s);
}

#[allow(clippy::too_many_arguments)]
fn split<R: Rng + ?Sized>(
    g: &Graph,
    node_w: &[f64],
    tasks: &[u32],
    k: usize,
    base: u32,
    opts: &KwayOpts,
    rng: &mut R,
    part: &mut [u32],
    s: &mut KwayScratch,
) {
    if k == 1 {
        for &t in tasks {
            part[t as usize] = base;
        }
        return;
    }
    let k0 = k.div_ceil(2);
    let (a, b) = bisect_tasks(g, node_w, tasks, k0 as f64 / k as f64, opts, rng, s);
    split(g, node_w, &a, k0, base, opts, rng, part, s);
    split(g, node_w, &b, k - k0, base + k0 as u32, opts, rng, part, s);
}

/// Bisects a subset of tasks with target fraction `frac` on side 0. The
/// subgraph is the one induced by the task *set*, so both halves come
/// back in ascending id order whatever order `tasks` was given in.
fn bisect_tasks<R: Rng + ?Sized>(
    g: &Graph,
    node_w: &[f64],
    tasks: &[u32],
    frac: f64,
    opts: &KwayOpts,
    rng: &mut R,
    s: &mut KwayScratch,
) -> (Vec<u32>, Vec<u32>) {
    if tasks.len() <= 1 {
        return (tasks.to_vec(), Vec::new());
    }
    let KwayScratch {
        members,
        sub,
        sub_w,
        bisect,
        side,
    } = s;
    members.clear();
    members.extend_from_slice(tasks);
    members.sort_unstable();
    members.dedup();
    g.induced_subgraph_into(members, sub);
    let map = sub.map();
    sub_w.clear();
    sub_w.extend(map.iter().map(|v| node_w[v.index()]));
    let mut bopts = opts.bisect;
    bopts.target0_frac = frac;
    multilevel_bisection_with(sub.graph(), sub_w, &bopts, rng, bisect, side);
    let mut a = Vec::new();
    let mut b = Vec::new();
    for (i, &on1) in side.iter().enumerate() {
        if on1 {
            b.push(map[i].0);
        } else {
            a.push(map[i].0);
        }
    }
    // guard against degenerate splits
    if a.is_empty() || b.is_empty() {
        let mut sorted = tasks.to_vec();
        sorted.sort_unstable();
        let mid = ((sorted.len() as f64) * frac).round().max(1.0) as usize;
        let mid = mid.min(sorted.len() - 1);
        let b2 = sorted.split_off(mid);
        return (sorted, b2);
    }
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgp_graph::generators;
    use hgp_graph::partition::multilevel_bisection;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Allocating bisection the scratch path must match bit for bit: a
    /// fresh membership mask, subgraph and multilevel bisection per call.
    fn bisect_tasks_reference<R: Rng + ?Sized>(
        g: &Graph,
        node_w: &[f64],
        tasks: &[u32],
        frac: f64,
        opts: &KwayOpts,
        rng: &mut R,
    ) -> (Vec<u32>, Vec<u32>) {
        if tasks.len() <= 1 {
            return (tasks.to_vec(), Vec::new());
        }
        let mut keep = vec![false; g.num_nodes()];
        for &t in tasks {
            keep[t as usize] = true;
        }
        let (sub, map) = g.induced_subgraph(&keep);
        let sub_w: Vec<f64> = map.iter().map(|v| node_w[v.index()]).collect();
        let mut bopts = opts.bisect;
        bopts.target0_frac = frac;
        let bis = multilevel_bisection(&sub, &sub_w, &bopts, rng);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for (i, &side) in bis.side.iter().enumerate() {
            if side {
                b.push(map[i].0);
            } else {
                a.push(map[i].0);
            }
        }
        if a.is_empty() || b.is_empty() {
            let mut sorted = tasks.to_vec();
            sorted.sort_unstable();
            let mid = ((sorted.len() as f64) * frac).round().max(1.0) as usize;
            let mid = mid.min(sorted.len() - 1);
            let b2 = sorted.split_off(mid);
            return (sorted, b2);
        }
        (a, b)
    }

    fn groups_reference<R: Rng + ?Sized>(
        g: &Graph,
        node_w: &[f64],
        tasks: &[u32],
        parts: usize,
        opts: &KwayOpts,
        rng: &mut R,
    ) -> Vec<Vec<u32>> {
        if parts == 1 {
            return vec![tasks.to_vec()];
        }
        let k0 = parts.div_ceil(2);
        let (a, b) = bisect_tasks_reference(g, node_w, tasks, k0 as f64 / parts as f64, opts, rng);
        let mut out = groups_reference(g, node_w, &a, k0, opts, rng);
        out.extend(groups_reference(g, node_w, &b, parts - k0, opts, rng));
        out
    }

    #[test]
    fn scratch_kway_is_bit_identical_to_allocating_path() {
        let opt_sets = [
            KwayOpts::default(),
            KwayOpts {
                bisect: BisectOpts {
                    coarsen_until: 8,
                    tries: 9,
                    ..Default::default()
                },
            },
        ];
        for seed in 0..4u64 {
            let mut gen = StdRng::seed_from_u64(seed);
            let graphs = [
                generators::grid2d(&mut gen, 11, 9, 0.5, 2.0),
                generators::barabasi_albert(&mut gen, 80, 2, 0.5, 2.0),
                Graph::from_edges(3, &[(0, 1, 1.0)]),
            ];
            for g in &graphs {
                let n = g.num_nodes();
                let w: Vec<f64> = (0..n).map(|_| gen.gen_range(0.5..1.5)).collect();
                // a shuffled subset: halves come back ascending either way
                let mut tasks: Vec<u32> = (0..n as u32).filter(|v| v % 5 != 1).collect();
                for i in (1..tasks.len()).rev() {
                    tasks.swap(i, gen.gen_range(0..=i));
                }
                for (oi, opts) in opt_sets.iter().enumerate() {
                    for k in [1usize, 2, 3, 5, 8] {
                        let ctx = format!("seed={seed} n={n} opts#{oi} k={k}");
                        let mut r1 = StdRng::seed_from_u64(77 + seed);
                        let mut r2 = r1.clone();
                        let all: Vec<u32> = (0..n as u32).collect();
                        let want: Vec<u32> = {
                            let mut part = vec![0u32; n];
                            let groups = groups_reference(g, &w, &all, k, opts, &mut r1);
                            for (i, grp) in groups.iter().enumerate() {
                                for &t in grp {
                                    part[t as usize] = i as u32;
                                }
                            }
                            part
                        };
                        let got = kway_partition(g, &w, k, opts, &mut r2);
                        assert_eq!(got, want, "kway {ctx}");
                        assert_eq!(r1.gen::<u64>(), r2.gen::<u64>(), "rng {ctx}");
                        let want = groups_reference(g, &w, &tasks, k, opts, &mut r1);
                        let got = split_into_groups(g, &w, &tasks, k, opts, &mut r2);
                        assert_eq!(got, want, "groups {ctx}");
                        assert_eq!(r1.gen::<u64>(), r2.gen::<u64>(), "rng {ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn partitions_cover_all_parts() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::grid2d(&mut rng, 6, 6, 1.0, 1.0);
        let w = vec![1.0; 36];
        for k in [2, 3, 4, 6] {
            let part = kway_partition(&g, &w, k, &KwayOpts::default(), &mut rng);
            let mut sizes = vec![0usize; k];
            for &p in &part {
                sizes[p as usize] += 1;
            }
            assert!(sizes.iter().all(|&s| s > 0), "k={k}: empty part");
            let max = *sizes.iter().max().unwrap() as f64;
            let ideal = 36.0 / k as f64;
            assert!(
                max <= ideal * 1.4 + 1.0,
                "k={k}: max part {max} vs ideal {ideal}"
            );
        }
    }

    #[test]
    fn planted_four_blocks_recovered() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::planted_clusters(&mut rng, 4, 8, 0.7, 4.0, 0.02, 0.2);
        let w = vec![1.0; 32];
        let part = kway_partition(&g, &w, 4, &KwayOpts::default(), &mut rng);
        // the cut should be close to the planted one
        let planted: Vec<u32> = (0..32).map(|v| (v / 8) as u32).collect();
        let cut = g.cut_weight_parts(&part);
        let planted_cut = g.cut_weight_parts(&planted);
        assert!(
            cut <= 2.0 * planted_cut,
            "kway cut {cut} vs planted {planted_cut}"
        );
    }

    #[test]
    fn groups_respect_requested_count_and_cover() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::gnp_connected(&mut rng, 20, 0.25, 1.0, 2.0);
        let w = vec![1.0; 20];
        let tasks: Vec<u32> = (0..20).collect();
        let groups = split_into_groups(&g, &w, &tasks, 5, &KwayOpts::default(), &mut rng);
        assert_eq!(groups.len(), 5);
        let mut all: Vec<u32> = groups.concat();
        all.sort_unstable();
        assert_eq!(all, tasks);
    }

    #[test]
    fn k_equals_one_is_identity() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::random_tree(&mut rng, 8, 1.0, 1.0);
        let part = kway_partition(&g, &[1.0; 8], 1, &KwayOpts::default(), &mut rng);
        assert!(part.iter().all(|&p| p == 0));
    }
}
