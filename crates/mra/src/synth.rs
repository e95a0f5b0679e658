//! Synthetic unbalanced-tree generation for cluster-scale experiments.
//!
//! The paper's largest runs (Tables IV and VI: 154,468 and 542,113 tasks)
//! project production chemistry inputs we do not have. The experiments'
//! *shape*, however, depends only on the tree's size and imbalance. This
//! module grows deterministic trees of a requested leaf count whose depth
//! profile mimics adaptive refinement around Gaussian-like features:
//! refinement priority decays with distance from feature centers and with
//! depth, so leaves cluster deeply near the features exactly as in
//! Figures 1–2.

use crate::key::Key;
use crate::tree::{FunctionTree, Node, TreeForm};
use madness_tensor::{Shape, Tensor};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Parameters for [`synthesize_tree`].
#[derive(Clone, Debug)]
pub struct SynthTreeParams {
    /// Approximate number of leaves to produce (reached within one
    /// refinement step: each refinement adds `2^d − 1` leaves).
    pub target_leaves: usize,
    /// Feature centers in `[0,1]^d`; refinement concentrates around them.
    pub centers: Vec<Vec<f64>>,
    /// Gaussian width of the refinement priority around each center.
    pub width: f64,
    /// Per-level priority decay (0 < decay ≤ 1); smaller = shallower
    /// trees, larger = deeper spikes.
    pub level_decay: f64,
    /// Seed for the deterministic jitter that breaks ties.
    pub seed: u64,
    /// Fill leaves with deterministic pseudo-random `k^d` coefficient
    /// blocks (needed for full-fidelity runs; timing-only runs skip it).
    pub with_coeffs: bool,
}

impl Default for SynthTreeParams {
    fn default() -> Self {
        SynthTreeParams {
            target_leaves: 1000,
            centers: vec![],
            width: 0.15,
            level_decay: 0.7,
            seed: 0x5EED,
            with_coeffs: true,
        }
    }
}

/// A leaf waiting in the refinement heap, ordered by priority.
#[derive(PartialEq)]
struct OpenLeaf {
    priority: f64,
    key: Key,
}

impl Eq for OpenLeaf {}

impl Ord for OpenLeaf {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on priority; ties broken by key order for determinism.
        self.priority
            .partial_cmp(&other.priority)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.key.cmp(&self.key))
    }
}

impl PartialOrd for OpenLeaf {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// SplitMix64 mixing step — the deterministic PRNG the synthetic
/// generators share (exposed so workload builders don't each grow their
/// own xorshift).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58476D1CE4E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Maps a mixed 64-bit word to `[0, 1)`.
pub fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Refinement priority of a box: Gaussian in the distance from the
/// nearest feature center, geometric in depth, with a small deterministic
/// jitter so equal-priority boxes refine in a scattered (not scanline)
/// order.
fn priority(key: &Key, params: &SynthTreeParams) -> f64 {
    let d = key.ndim();
    let size = key.box_size();
    let lo = key.lower_corner();
    let mut best = if params.centers.is_empty() { 1.0 } else { 0.0 };
    for c in &params.centers {
        // Clamped distance from the feature to the box: zero when the box
        // contains the feature, so coarse ancestors of a feature always
        // outrank coarse boxes that merely sit nearby.
        let mut dist2 = 0.0;
        for dim in 0..d {
            let below = lo[dim] - c[dim];
            let above = c[dim] - (lo[dim] + size);
            let dx = below.max(above).max(0.0);
            dist2 += dx * dx;
        }
        best = f64::max(best, (-dist2 / (params.width * params.width)).exp());
    }
    let depth_factor = params.level_decay.powi(key.level() as i32);
    // Mild jitter scatters same-priority refinement. Note it is not a
    // strict level ordering: for level_decay > 2/3 a lucky deep box can
    // still edge out an unlucky shallow one by up to decay·(1.2/0.8);
    // that slight depth-first bias is intentional (real refinement
    // chases features down), while the ±20 % bound prevents the single
    // narrow corridor a large jitter would carve.
    let jitter = 0.8 + 0.4 * unit_f64(splitmix64(key.hash64() ^ params.seed));
    best * depth_factor * jitter
}

/// Grows a deterministic unbalanced tree with roughly
/// `params.target_leaves` leaves (exact to within `2^d − 1`).
///
/// # Panics
/// Panics for unsupported `d`/`k` or a zero leaf target.
pub fn synthesize_tree(d: usize, k: usize, params: &SynthTreeParams) -> FunctionTree {
    assert!(params.target_leaves >= 1, "need at least one leaf");
    let mut tree = FunctionTree::new(d, k);
    tree.set_form(TreeForm::Reconstructed);

    let root = Key::root(d);
    let mut heap = BinaryHeap::new();
    let mut leaves: Vec<Key> = Vec::new();
    // Start from level 1 so the root is interior (as in real projections).
    tree.insert(root, Node::interior());
    for c in root.children() {
        heap.push(OpenLeaf {
            priority: priority(&c, params),
            key: c,
        });
    }
    let mut n_leaves = 1usize << d;

    while n_leaves < params.target_leaves {
        let Some(top) = heap.pop() else { break };
        // Refine: the popped leaf becomes interior; its children join.
        tree.insert(top.key, Node::interior());
        for c in top.key.children() {
            heap.push(OpenLeaf {
                priority: priority(&c, params),
                key: c,
            });
        }
        n_leaves += (1usize << d) - 1;
    }
    // Whatever remains in the heap are the leaves.
    for f in heap.into_iter() {
        leaves.push(f.key);
    }
    for key in leaves {
        let coeffs = params.with_coeffs.then(|| {
            let mut state = splitmix64(key.hash64() ^ params.seed.rotate_left(17));
            Tensor::from_fn(Shape::cube(d, k), |_| {
                state = splitmix64(state);
                unit_f64(state) - 0.5
            })
        });
        tree.insert(
            key,
            Node {
                coeffs,
                has_children: false,
            },
        );
    }
    debug_assert!(tree.check_invariants().is_ok());
    tree
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(target: usize) -> SynthTreeParams {
        SynthTreeParams {
            target_leaves: target,
            centers: vec![vec![0.3, 0.6, 0.5]],
            width: 0.1,
            level_decay: 0.75,
            seed: 42,
            with_coeffs: true,
        }
    }

    #[test]
    fn hits_leaf_target_within_one_refinement() {
        let p = params(500);
        let tree = synthesize_tree(3, 10, &p);
        let leaves = tree.num_leaves();
        assert!(
            (500..500 + 8).contains(&leaves),
            "leaf count {leaves} misses target"
        );
        tree.check_invariants().unwrap();
    }

    #[test]
    fn deterministic_across_runs() {
        let p = params(300);
        let t1 = synthesize_tree(3, 8, &p);
        let t2 = synthesize_tree(3, 8, &p);
        assert_eq!(t1.sorted_keys(), t2.sorted_keys());
        // And coefficients match bit-for-bit.
        for (k, c) in t1.leaves() {
            let c2 = t2.get(k).unwrap().coeffs.as_ref().unwrap();
            assert_eq!(c.as_slice(), c2.as_slice());
        }
    }

    #[test]
    fn tree_is_unbalanced_toward_feature() {
        let p = params(2000);
        let tree = synthesize_tree(3, 6, &p);
        let max_depth = tree.max_depth();
        assert!(max_depth >= 4, "tree too shallow: {max_depth}");
        // Deepest leaves lie near the feature center.
        for (key, _) in tree.leaves() {
            if key.level() == max_depth {
                let lo = key.lower_corner();
                let dist2: f64 = lo
                    .iter()
                    .zip(&p.centers[0])
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                assert!(dist2 < 0.3, "deep leaf far from feature: {key:?}");
            }
        }
    }

    #[test]
    fn without_coeffs_leaves_are_bare() {
        let mut p = params(100);
        p.with_coeffs = false;
        let tree = synthesize_tree(3, 10, &p);
        assert!(tree.leaves().count() == 0, "bare leaves must carry None");
        assert!(tree.num_leaves() >= 100);
    }

    #[test]
    fn different_seed_different_shape() {
        let mut p1 = params(400);
        let mut p2 = params(400);
        p1.seed = 1;
        p2.seed = 2;
        let t1 = synthesize_tree(3, 6, &p1);
        let t2 = synthesize_tree(3, 6, &p2);
        assert_ne!(t1.sorted_keys(), t2.sorted_keys());
    }

    #[test]
    fn four_dimensional_trees_work() {
        let p = SynthTreeParams {
            target_leaves: 600,
            centers: vec![vec![0.5, 0.5, 0.5, 0.5]],
            width: 0.12,
            level_decay: 0.7,
            seed: 7,
            with_coeffs: false,
        };
        let tree = synthesize_tree(4, 14, &p);
        assert!(tree.num_leaves() >= 600);
        tree.check_invariants().unwrap();
    }
}
