//! The adaptive function tree: a DHT-style store of coefficient nodes.

use crate::hashing::FxHashMap;
use crate::key::Key;
use madness_tensor::Tensor;
use std::collections::BTreeSet;

pub use madness_tensor::MAX_DIMS;

/// Which basis the tree's coefficients currently live in.
///
/// MADNESS operators are only valid in a specific form: `Apply` and
/// `Truncate`-by-reconstruction act on scaling coefficients at leaves
/// (*reconstructed*), `Truncate` proper acts on wavelet coefficients
/// (*compressed*).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeForm {
    /// Scaling coefficients (`k^d`) stored at leaves only.
    Reconstructed,
    /// Sum+difference coefficients: root holds `s`+`d`; interior nodes
    /// hold wavelet `d` blocks; leaves hold nothing.
    Compressed,
}

/// One node of the function tree.
#[derive(Clone, Debug)]
pub struct Node {
    /// Coefficient tensor, when this node carries one in the current form.
    pub coeffs: Option<Tensor>,
    /// True if the node has children in the tree.
    pub has_children: bool,
}

impl Node {
    /// An interior node without coefficients.
    pub fn interior() -> Self {
        Node {
            coeffs: None,
            has_children: true,
        }
    }

    /// A leaf carrying coefficients.
    pub fn leaf(coeffs: Tensor) -> Self {
        Node {
            coeffs: Some(coeffs),
            has_children: false,
        }
    }

    /// True if the node carries no children (a leaf).
    #[inline]
    pub fn is_leaf(&self) -> bool {
        !self.has_children
    }
}

/// An adaptively refined `2^d`-ary tree of `k^d` coefficient tensors.
///
/// In real MADNESS this is a distributed hash table; here a single-address
/// -space map plus the [`crate::procmap`] ownership function plays that
/// role (the cluster simulator partitions by ownership).
#[derive(Clone, Debug)]
pub struct FunctionTree {
    d: usize,
    k: usize,
    form: TreeForm,
    nodes: FxHashMap<Key, Node>,
}

impl FunctionTree {
    /// An empty reconstructed tree over `[0,1]^d` with order-`k` blocks.
    ///
    /// # Panics
    /// Panics for unsupported `d` or `k == 0`.
    pub fn new(d: usize, k: usize) -> Self {
        assert!(
            (1..=MAX_DIMS).contains(&d),
            "unsupported dimensionality {d}"
        );
        assert!(k >= 1, "polynomial order must be positive");
        FunctionTree {
            d,
            k,
            form: TreeForm::Reconstructed,
            nodes: FxHashMap::default(),
        }
    }

    /// Mesh dimensionality.
    #[inline]
    pub fn d(&self) -> usize {
        self.d
    }

    /// Polynomial order per dimension.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Current coefficient form.
    #[inline]
    pub fn form(&self) -> TreeForm {
        self.form
    }

    /// Sets the coefficient form (used by the Compress/Reconstruct ops).
    pub fn set_form(&mut self, form: TreeForm) {
        self.form = form;
    }

    /// Number of stored nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the tree stores no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Looks up a node.
    #[inline]
    pub fn get(&self, key: &Key) -> Option<&Node> {
        self.nodes.get(key)
    }

    /// Mutable node lookup.
    #[inline]
    pub fn get_mut(&mut self, key: &Key) -> Option<&mut Node> {
        self.nodes.get_mut(key)
    }

    /// Inserts or replaces a node, creating interior ancestors as needed
    /// so the tree stays connected.
    ///
    /// # Panics
    /// Panics if the key's dimensionality mismatches the tree, or its
    /// coefficients (if any) are not `k^d` or `(2k)^d` cubes.
    pub fn insert(&mut self, key: Key, node: Node) {
        assert_eq!(key.ndim(), self.d, "key dimensionality mismatch");
        if let Some(c) = &node.coeffs {
            assert!(
                c.shape().is_cube(self.k) || c.shape().is_cube(2 * self.k),
                "coefficients must be k^d or (2k)^d, got {}",
                c.shape()
            );
        }
        self.nodes.insert(key, node);
        self.connect_to_root(key);
    }

    /// Removes and returns a node (ancestors are left untouched).
    pub fn remove(&mut self, key: &Key) -> Option<Node> {
        self.nodes.remove(key)
    }

    /// True if the key is present.
    #[inline]
    pub fn contains(&self, key: &Key) -> bool {
        self.nodes.contains_key(key)
    }

    /// Ensures every ancestor of `key` exists and is marked as having
    /// children.
    fn connect_to_root(&mut self, key: Key) {
        let mut cur = key;
        while let Some(p) = cur.parent() {
            let entry = self.nodes.entry(p).or_insert_with(Node::interior);
            if entry.has_children {
                // Ancestors above are already connected only if this node
                // pre-existed as interior; keep walking to be safe for
                // freshly promoted leaves.
            }
            entry.has_children = true;
            cur = p;
        }
    }

    /// `target += alpha * coeffs` at `key`, creating the node if absent
    /// (the Apply accumulation primitive; in real MADNESS this is a
    /// remote AM to the owner).
    ///
    /// # Panics
    /// Panics if shapes mismatch an existing coefficient block.
    pub fn accumulate(&mut self, key: Key, alpha: f64, coeffs: &Tensor) {
        assert_eq!(key.ndim(), self.d, "key dimensionality mismatch");
        assert_eq!(
            self.form,
            TreeForm::Reconstructed,
            "accumulate requires the reconstructed form (compressed \
             coefficients live in a different basis)"
        );
        assert!(
            coeffs.shape().is_cube(self.k),
            "accumulated coefficients must be k^d, got {}",
            coeffs.shape()
        );
        match self.nodes.get_mut(&key) {
            Some(node) => match &mut node.coeffs {
                Some(t) => t.gaxpy(alpha, coeffs),
                None => {
                    let mut t = Tensor::zeros(coeffs.shape());
                    t.gaxpy(alpha, coeffs);
                    node.coeffs = Some(t);
                }
            },
            None => {
                let mut t = Tensor::zeros(coeffs.shape());
                t.gaxpy(alpha, coeffs);
                self.insert(
                    key,
                    Node {
                        coeffs: Some(t),
                        has_children: false,
                    },
                );
            }
        }
    }

    /// Iterator over all `(key, node)` pairs (unordered).
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &Node)> {
        self.nodes.iter()
    }

    /// Iterator over leaf nodes that carry coefficients.
    pub fn leaves(&self) -> impl Iterator<Item = (&Key, &Tensor)> {
        self.nodes.iter().filter_map(|(k, n)| {
            if n.is_leaf() {
                n.coeffs.as_ref().map(|c| (k, c))
            } else {
                None
            }
        })
    }

    /// All keys in deterministic (BTree) order — used where reproducible
    /// iteration matters (task generation, partitioning).
    pub fn sorted_keys(&self) -> Vec<Key> {
        let set: BTreeSet<Key> = self.nodes.keys().copied().collect();
        set.into_iter().collect()
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.nodes.values().filter(|n| n.is_leaf()).count()
    }

    /// Deepest refinement level present.
    pub fn max_depth(&self) -> u8 {
        self.nodes.keys().map(|k| k.level()).max().unwrap_or(0)
    }

    /// Per-level node counts (index = level).
    pub fn level_histogram(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.max_depth() as usize + 1];
        for k in self.nodes.keys() {
            h[k.level() as usize] += 1;
        }
        h
    }

    /// Function norm in the reconstructed form: leaves are orthonormal
    /// blocks, so `‖f‖² = Σ_leaf ‖s‖²`.
    ///
    /// # Panics
    /// Panics if the tree is not reconstructed.
    pub fn norm(&self) -> f64 {
        assert_eq!(
            self.form,
            TreeForm::Reconstructed,
            "norm requires the reconstructed form"
        );
        self.leaves()
            .map(|(_, c)| {
                let n = c.normf();
                n * n
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Norm over **all** coefficient blocks regardless of form: in the
    /// compressed form, `‖f‖² = ‖s_root‖² + Σ ‖d‖²` by orthogonality, and
    /// this computes exactly that.
    pub fn norm_all_coeffs(&self) -> f64 {
        self.nodes
            .values()
            .filter_map(|n| n.coeffs.as_ref())
            .map(|c| {
                let x = c.normf();
                x * x
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Structural sanity check: every non-root node has its parent present
    /// and marked `has_children`; every interior node has ≥ 1 child.
    /// Returns a description of the first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        for key in self.nodes.keys() {
            if let Some(p) = key.parent() {
                match self.nodes.get(&p) {
                    None => return Err(format!("{key:?} has no parent node")),
                    Some(pn) if !pn.has_children => {
                        return Err(format!("parent of {key:?} not marked interior"))
                    }
                    _ => {}
                }
            }
        }
        for (key, node) in &self.nodes {
            if node.has_children {
                let any = key.children().any(|c| self.nodes.contains_key(&c));
                if !any {
                    return Err(format!("{key:?} marked interior but has no children"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use madness_tensor::Shape;

    fn block(d: usize, k: usize, v: f64) -> Tensor {
        Tensor::full(Shape::cube(d, k), v)
    }

    #[test]
    fn insert_connects_to_root() {
        let mut t = FunctionTree::new(3, 4);
        let deep = Key::root(3).child(1).child(2).child(3);
        t.insert(deep, Node::leaf(block(3, 4, 1.0)));
        assert_eq!(t.len(), 4); // deep + 3 ancestors (incl. root)
        assert!(t.get(&Key::root(3)).unwrap().has_children);
        t.check_invariants().unwrap();
    }

    #[test]
    fn accumulate_creates_then_adds() {
        let mut t = FunctionTree::new(2, 3);
        let k = Key::root(2).child(0);
        t.accumulate(k, 1.0, &block(2, 3, 2.0));
        t.accumulate(k, 0.5, &block(2, 3, 4.0));
        let c = t.get(&k).unwrap().coeffs.as_ref().unwrap();
        assert_eq!(c.as_slice()[0], 4.0);
    }

    #[test]
    fn norm_sums_leaf_norms() {
        let mut t = FunctionTree::new(2, 2);
        let r = Key::root(2);
        for w in 0..4 {
            t.insert(r.child(w), Node::leaf(block(2, 2, 1.0)));
        }
        // Each leaf normf = 2 (4 entries of 1), so ‖f‖ = sqrt(4·2²) = 4.
        assert_eq!(t.norm(), 4.0);
    }

    #[test]
    fn leaves_iterator_skips_interior() {
        let mut t = FunctionTree::new(2, 2);
        let r = Key::root(2);
        t.insert(r.child(0).child(1), Node::leaf(block(2, 2, 1.0)));
        assert_eq!(t.leaves().count(), 1);
        assert_eq!(t.num_leaves(), 1);
        assert_eq!(t.max_depth(), 2);
        assert_eq!(t.level_histogram(), vec![1, 1, 1]);
    }

    #[test]
    fn sorted_keys_deterministic() {
        let mut t = FunctionTree::new(2, 2);
        let r = Key::root(2);
        for w in [3, 0, 2, 1] {
            t.insert(r.child(w), Node::leaf(block(2, 2, 1.0)));
        }
        let k1 = t.sorted_keys();
        let k2 = t.sorted_keys();
        assert_eq!(k1, k2);
        assert_eq!(k1.len(), 5);
    }

    #[test]
    fn invariant_detects_orphan_interior() {
        let mut t = FunctionTree::new(2, 2);
        let r = Key::root(2);
        t.insert(r.child(0), Node::interior()); // claims children, has none
        assert!(t.check_invariants().is_err());
    }

    #[test]
    #[should_panic(expected = "coefficients must be")]
    fn wrong_block_shape_rejected() {
        let mut t = FunctionTree::new(2, 3);
        t.insert(Key::root(2), Node::leaf(block(2, 5, 1.0)));
    }
}
