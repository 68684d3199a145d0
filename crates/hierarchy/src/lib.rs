//! The hierarchy tree `H`: machine/cluster topologies with per-level
//! communication cost multipliers.
//!
//! `H` has height `h` and is regular at every level: each Level-`j` node has
//! exactly `DEG(j)` children (`j ∈ 0..h`), so there are `k = Π DEG(j)`
//! leaves, each of capacity 1. Level `j` carries a cost multiplier `cm(j)`
//! with `cm(0) ≥ cm(1) ≥ … ≥ cm(h)`: an edge of the task graph whose
//! endpoints are assigned to leaves whose lowest common ancestor sits at
//! level `j` costs `cm(j) · w(e)` (Equation 1 of the paper).
//!
//! Because `H` is regular, leaves are identified by dense indices
//! `0..k` and ancestors are pure arithmetic — no tree structure is
//! materialised. The one derived table is each leaf's ancestor index per
//! level, which lets [`Hierarchy::lca_level`] (the inner loop of every
//! Equation-1 move score) compare ancestors without integer division.

#![warn(missing_docs)]

pub mod parse;
pub mod presets;

pub use parse::{parse_hierarchy, ParseErrorKind, ParseHierarchyError};

/// A regular hierarchy tree with cost multipliers.
///
/// Invariants (checked at construction):
/// * `degrees.len() == h ≥ 1`, every degree ≥ 1 (level `j` nodes have
///   `degrees[j]` children);
/// * `cost_multipliers.len() == h + 1`, entries finite, non-negative and
///   non-increasing.
///
/// Equality compares the shape (`degrees`) and the multipliers (`cm`);
/// everything else is derived from those two.
#[derive(Clone)]
pub struct Hierarchy {
    degrees: Vec<usize>,
    cm: Vec<f64>,
    /// cp[j] = number of leaves under a Level-j node; cp[h] = 1.
    cp: Vec<usize>,
    /// anc[leaf * (h + 1) + j] = index of the Level-j ancestor of `leaf`
    /// (`leaf / cp[j]`): (h + 1) · k entries, leaf-major so one leaf's
    /// ancestors share a cache line.
    anc: Vec<u32>,
}

impl PartialEq for Hierarchy {
    fn eq(&self, other: &Self) -> bool {
        self.degrees == other.degrees && self.cm == other.cm
    }
}

impl std::fmt::Debug for Hierarchy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // the ancestor table is derived and up to (h + 1) · k entries long
        f.debug_struct("Hierarchy")
            .field("degrees", &self.degrees)
            .field("cm", &self.cm)
            .field("cp", &self.cp)
            .finish()
    }
}

impl Hierarchy {
    /// Builds a hierarchy of height `degrees.len()` with the given per-level
    /// cost multipliers (`cost_multipliers[j] = cm(j)`, one per level
    /// `0..=h`).
    ///
    /// # Panics
    /// Panics if the invariants described on [`Hierarchy`] are violated.
    pub fn new(degrees: Vec<usize>, cost_multipliers: Vec<f64>) -> Self {
        let h = degrees.len();
        assert!(h >= 1, "hierarchy height must be at least 1");
        assert!(
            degrees.iter().all(|&d| d >= 1),
            "every level degree must be at least 1"
        );
        assert_eq!(
            cost_multipliers.len(),
            h + 1,
            "need one cost multiplier per level 0..=h"
        );
        assert!(
            cost_multipliers.iter().all(|c| c.is_finite() && *c >= 0.0),
            "cost multipliers must be finite and non-negative"
        );
        assert!(
            cost_multipliers.windows(2).all(|w| w[0] >= w[1]),
            "cost multipliers must be non-increasing with level"
        );
        let mut cp = vec![1usize; h + 1];
        for j in (0..h).rev() {
            cp[j] = cp[j + 1]
                .checked_mul(degrees[j])
                .expect("leaf count overflows usize");
        }
        let k = cp[0];
        assert!(
            u32::try_from(k).is_ok(),
            "leaf count must fit in u32 (leaves are u32 ids)"
        );
        let mut anc = Vec::with_capacity(k * (h + 1));
        for leaf in 0..k {
            anc.extend(cp.iter().map(|&c| (leaf / c) as u32));
        }
        Self {
            degrees,
            cm: cost_multipliers,
            cp,
            anc,
        }
    }

    /// Height `h` of the tree (leaves are at level `h`).
    #[inline]
    pub fn height(&self) -> usize {
        self.degrees.len()
    }

    /// Number of leaves `k = CP(0)`.
    #[inline]
    pub fn num_leaves(&self) -> usize {
        self.cp[0]
    }

    /// `DEG(j)`: the number of children of a Level-`j` node, `j ∈ 0..h`.
    #[inline]
    pub fn degree(&self, level: usize) -> usize {
        self.degrees[level]
    }

    /// `CP(j)`: the number of leaves (capacity) under a Level-`j` node.
    /// `CP(h) = 1`.
    #[inline]
    pub fn capacity(&self, level: usize) -> usize {
        self.cp[level]
    }

    /// `cm(j)`: cost multiplier for edges whose endpoints' LCA is at level
    /// `j`.
    #[inline]
    pub fn cost_multiplier(&self, level: usize) -> f64 {
        self.cm[level]
    }

    /// Number of Level-`j` nodes (`k / CP(j)`).
    #[inline]
    pub fn nodes_at_level(&self, level: usize) -> usize {
        self.cp[0] / self.cp[level]
    }

    /// The index (among Level-`j` nodes, left to right) of the Level-`j`
    /// ancestor of `leaf`.
    #[inline]
    pub fn ancestor_at_level(&self, leaf: usize, level: usize) -> usize {
        debug_assert!(leaf < self.num_leaves());
        leaf / self.cp[level]
    }

    /// Level of the lowest common ancestor of two leaves (two equal leaves
    /// have LCA level `h`).
    #[inline]
    pub fn lca_level(&self, a: usize, b: usize) -> usize {
        debug_assert!(a < self.num_leaves() && b < self.num_leaves());
        let h = self.height();
        if a == b {
            return h;
        }
        // Highest (deepest) level at which the ancestors still coincide.
        // Distinct leaves differ at level h, so walk upward from h - 1;
        // O(h) table reads with h tiny in practice.
        let row = h + 1;
        let anc_a = &self.anc[a * row..a * row + h];
        let anc_b = &self.anc[b * row..b * row + h];
        let mut level = h - 1;
        while level > 0 && anc_a[level] != anc_b[level] {
            level -= 1;
        }
        level
    }

    /// The communication cost multiplier applied to an edge whose endpoints
    /// live on leaves `a` and `b` — `cm(LCA level)`. This is the per-edge
    /// factor in Equation 1 of the paper.
    #[inline]
    pub fn edge_multiplier(&self, a: usize, b: usize) -> f64 {
        self.cm[self.lca_level(a, b)]
    }

    /// True if `cm(h) == 0` (the normalised form assumed throughout §2+ of
    /// the paper).
    pub fn is_normalized(&self) -> bool {
        self.cm[self.height()] == 0.0
    }

    /// Lemma 1: converts to normalised cost multipliers. Returns the
    /// normalised hierarchy and the constant `cm(h)` that was subtracted
    /// from every level. For any assignment `p`,
    /// `cost_original(p) = cost_normalized(p) + cm(h) · Σ_e w(e)`,
    /// so optimising the normalised instance optimises the original.
    pub fn normalized(&self) -> (Hierarchy, f64) {
        let shift = self.cm[self.height()];
        let cm = self.cm.iter().map(|c| c - shift).collect();
        (
            Hierarchy {
                degrees: self.degrees.clone(),
                cm,
                cp: self.cp.clone(),
                anc: self.anc.clone(),
            },
            shift,
        )
    }

    /// The per-level cost *deltas* `(cm(j-1) - cm(j)) / 2` for `j ∈ 1..=h`,
    /// as used by the mirror-function cost (Equation 3). Index 0 of the
    /// returned vector corresponds to `j = 1`.
    pub fn half_deltas(&self) -> Vec<f64> {
        (1..=self.height())
            .map(|j| (self.cm[j - 1] - self.cm[j]) / 2.0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_level() -> Hierarchy {
        // 2 sockets × 3 cores, remote:shared:local = 4:1:0
        Hierarchy::new(vec![2, 3], vec![4.0, 1.0, 0.0])
    }

    #[test]
    fn capacities_and_counts() {
        let h = two_level();
        assert_eq!(h.height(), 2);
        assert_eq!(h.num_leaves(), 6);
        assert_eq!(h.capacity(0), 6);
        assert_eq!(h.capacity(1), 3);
        assert_eq!(h.capacity(2), 1);
        assert_eq!(h.nodes_at_level(1), 2);
        assert_eq!(h.nodes_at_level(2), 6);
    }

    #[test]
    fn lca_levels() {
        let h = two_level();
        assert_eq!(h.lca_level(0, 0), 2); // same leaf
        assert_eq!(h.lca_level(0, 2), 1); // same socket
        assert_eq!(h.lca_level(0, 3), 0); // across sockets
        assert_eq!(h.lca_level(5, 3), 1);
        assert!((h.edge_multiplier(0, 2) - 1.0).abs() < 1e-12);
        assert!((h.edge_multiplier(0, 3) - 4.0).abs() < 1e-12);
        assert!((h.edge_multiplier(1, 1) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn ancestors() {
        let h = two_level();
        assert_eq!(h.ancestor_at_level(4, 1), 1);
        assert_eq!(h.ancestor_at_level(2, 1), 0);
        assert_eq!(h.ancestor_at_level(5, 0), 0);
        assert_eq!(h.ancestor_at_level(5, 2), 5);
    }

    #[test]
    fn normalization_lemma1() {
        let h = Hierarchy::new(vec![2, 2], vec![5.0, 3.0, 2.0]);
        assert!(!h.is_normalized());
        let (hn, shift) = h.normalized();
        assert!((shift - 2.0).abs() < 1e-12);
        assert!(hn.is_normalized());
        // edge multipliers drop uniformly by the shift
        for (a, b) in [(0usize, 1usize), (0, 2), (1, 3), (2, 2)] {
            assert!(
                (h.edge_multiplier(a, b) - hn.edge_multiplier(a, b) - shift).abs() < 1e-12,
                "multiplier shift mismatch for ({a},{b})"
            );
        }
    }

    #[test]
    fn half_deltas_match_cm() {
        let h = Hierarchy::new(vec![2, 2], vec![5.0, 3.0, 0.0]);
        let d = h.half_deltas();
        assert_eq!(d.len(), 2);
        assert!((d[0] - 1.0).abs() < 1e-12);
        assert!((d[1] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn three_level_lca() {
        // 2 racks × 2 servers × 2 cores
        let h = Hierarchy::new(vec![2, 2, 2], vec![10.0, 4.0, 1.0, 0.0]);
        assert_eq!(h.num_leaves(), 8);
        assert_eq!(h.lca_level(0, 1), 2);
        assert_eq!(h.lca_level(0, 2), 1);
        assert_eq!(h.lca_level(0, 4), 0);
        assert_eq!(h.lca_level(6, 7), 2);
        assert_eq!(h.lca_level(5, 6), 1);
    }

    /// The arithmetic definition the ancestor table replaces.
    fn lca_by_division(h: &Hierarchy, a: usize, b: usize) -> usize {
        let mut level = h.height();
        while level > 0 && a / h.capacity(level) != b / h.capacity(level) {
            level -= 1;
        }
        level
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        #[test]
        fn table_lca_matches_division(
            degrees in proptest::collection::vec(1usize..5, 1..5),
            shift in 0.0f64..3.0,
        ) {
            let height = degrees.len();
            let cm: Vec<f64> = (0..=height).map(|j| (height - j) as f64 + shift).collect();
            let h = Hierarchy::new(degrees.clone(), cm);
            let (hn, _) = h.normalized();
            let k = h.num_leaves();
            for a in 0..k {
                for b in 0..k {
                    let want = lca_by_division(&h, a, b);
                    proptest::prop_assert_eq!(h.lca_level(a, b), want, "{degrees:?} ({a},{b})");
                    proptest::prop_assert_eq!(hn.lca_level(a, b), want, "normalized {degrees:?}");
                }
            }
        }
    }

    #[test]
    fn normalized_keeps_the_table_and_equality_ignores_it() {
        let h = Hierarchy::new(vec![3, 1, 2], vec![5.0, 3.0, 3.0, 2.0]);
        let (hn, _) = h.normalized();
        assert_eq!(hn.anc, h.anc, "normalisation changes only cm");
        assert_eq!(hn, Hierarchy::new(vec![3, 1, 2], vec![3.0, 1.0, 1.0, 0.0]));
        assert_ne!(hn, h, "different multipliers");
        assert_ne!(h, Hierarchy::new(vec![3, 2, 1], vec![5.0, 3.0, 3.0, 2.0]));
        // equality follows degrees and cm alone, never the derived table
        let mut stripped = h.clone();
        stripped.anc.clear();
        assert_eq!(stripped, h);
        assert!(!format!("{h:?}").contains("anc"), "Debug skips the table");
    }

    #[test]
    #[should_panic(expected = "non-increasing")]
    fn rejects_increasing_multipliers() {
        Hierarchy::new(vec![2], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "one cost multiplier per level")]
    fn rejects_wrong_multiplier_count() {
        Hierarchy::new(vec![2, 2], vec![1.0, 0.0]);
    }

    #[test]
    fn flat_hierarchy_is_kbgp() {
        let h = Hierarchy::new(vec![4], vec![1.0, 0.0]);
        assert_eq!(h.height(), 1);
        assert_eq!(h.num_leaves(), 4);
        assert_eq!(h.lca_level(0, 1), 0);
        assert_eq!(h.lca_level(2, 2), 1);
    }
}
