//! Tree-node addresses: (level, translation) pairs with dyadic arithmetic.

use std::fmt;

/// Maximum refinement level. `i64` translations hold up to 2^62 boxes per
/// dimension; 40 levels is far beyond anything a `f64` threshold reaches.
pub const MAX_LEVEL: u8 = 40;

/// The address of one box in the dyadic mesh: refinement level `n` plus an
/// integer translation `l ∈ [0, 2^n)^d`.
///
/// A `Key` identifies a node of the `2^d`-ary function tree; MADNESS hashes
/// keys into a distributed hash table and through the *process map* to a
/// compute node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key {
    level: u8,
    d: u8,
    l: [i64; crate::MAX_DIMS],
}

impl Key {
    /// The root box `[0,1]^d` at level 0.
    pub fn root(d: usize) -> Self {
        assert!((1..=crate::MAX_DIMS).contains(&d), "bad dimensionality {d}");
        Key {
            level: 0,
            d: d as u8,
            l: [0; crate::MAX_DIMS],
        }
    }

    /// Builds a key from level and translations.
    ///
    /// # Panics
    /// Panics if any translation lies outside `[0, 2^level)`, the level
    /// exceeds [`MAX_LEVEL`], or the dimensionality is unsupported.
    pub fn new(level: u8, translations: &[i64]) -> Self {
        let d = translations.len();
        assert!((1..=crate::MAX_DIMS).contains(&d), "bad dimensionality {d}");
        assert!(level <= MAX_LEVEL, "level {level} exceeds MAX_LEVEL");
        let max = 1i64 << level;
        let mut l = [0i64; crate::MAX_DIMS];
        for (i, &t) in translations.iter().enumerate() {
            assert!(
                (0..max).contains(&t),
                "translation {t} out of range [0,{max}) at level {level}"
            );
            l[i] = t;
        }
        Key {
            level,
            d: d as u8,
            l,
        }
    }

    /// Refinement level of this box.
    #[inline]
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Dimensionality of the mesh.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.d as usize
    }

    /// Integer translations, one per dimension.
    #[inline]
    pub fn translations(&self) -> &[i64] {
        &self.l[..self.d as usize]
    }

    /// Number of children of any box: `2^d`.
    #[inline]
    pub fn num_children(&self) -> usize {
        1usize << self.d
    }

    /// The `which`-th child (bit `i` of `which` selects the upper half of
    /// dimension `i`).
    ///
    /// # Panics
    /// Panics if `which ≥ 2^d` or the child would exceed [`MAX_LEVEL`].
    pub fn child(&self, which: usize) -> Key {
        assert!(
            which < self.num_children(),
            "child index {which} out of range"
        );
        assert!(self.level < MAX_LEVEL, "cannot refine below MAX_LEVEL");
        let mut l = self.l;
        for i in 0..self.ndim() {
            l[i] = 2 * l[i] + ((which >> i) & 1) as i64;
        }
        Key {
            level: self.level + 1,
            d: self.d,
            l,
        }
    }

    /// Iterator over all `2^d` children, in `which` order.
    pub fn children(&self) -> impl Iterator<Item = Key> + '_ {
        (0..self.num_children()).map(move |w| self.child(w))
    }

    /// The parent box, or `None` for the root.
    pub fn parent(&self) -> Option<Key> {
        if self.level == 0 {
            return None;
        }
        let mut l = self.l;
        for t in &mut l[..self.d as usize] {
            *t >>= 1;
        }
        Some(Key {
            level: self.level - 1,
            d: self.d,
            l,
        })
    }

    /// Which child of its parent this key is (inverse of [`Key::child`]).
    ///
    /// # Panics
    /// Panics on the root key.
    pub fn index_in_parent(&self) -> usize {
        assert!(self.level > 0, "root has no parent");
        let mut w = 0usize;
        for i in 0..self.ndim() {
            w |= ((self.l[i] & 1) as usize) << i;
        }
        w
    }

    /// The box displaced by `disp` at the same level, or `None` if it
    /// falls outside the (non-periodic) domain.
    pub fn neighbor(&self, disp: &[i64]) -> Option<Key> {
        assert_eq!(disp.len(), self.ndim(), "displacement rank mismatch");
        let max = 1i64 << self.level;
        let mut l = self.l;
        for i in 0..self.ndim() {
            let t = self.l[i] + disp[i];
            if t < 0 || t >= max {
                return None;
            }
            l[i] = t;
        }
        Some(Key {
            level: self.level,
            d: self.d,
            l,
        })
    }

    /// True if `self` is an ancestor of `other` (strictly or equal).
    pub fn is_ancestor_of(&self, other: &Key) -> bool {
        if other.d != self.d || other.level < self.level {
            return false;
        }
        let shift = other.level - self.level;
        (0..self.ndim()).all(|i| (other.l[i] >> shift) == self.l[i])
    }

    /// A well-mixed 64-bit hash of the key, used by process maps and the
    /// task-kind hash of the batching extensions.
    pub fn hash64(&self) -> u64 {
        // SplitMix64-style mixing over the packed fields.
        let mut h = (self.level as u64) ^ ((self.d as u64) << 8);
        for i in 0..self.ndim() {
            h = h
                .wrapping_add(self.l[i] as u64)
                .wrapping_mul(0x9E3779B97F4A7C15);
            h ^= h >> 30;
            h = h.wrapping_mul(0xBF58476D1CE4E5B9);
            h ^= h >> 27;
        }
        h = h.wrapping_mul(0x94D049BB133111EB);
        h ^ (h >> 31)
    }

    /// The lower corner of the box in physical coordinates `[0,1]^d`.
    pub fn lower_corner(&self) -> Vec<f64> {
        let scale = (1u64 << self.level) as f64;
        self.translations()
            .iter()
            .map(|&t| t as f64 / scale)
            .collect()
    }

    /// The side length of the box: `2^{-level}`.
    #[inline]
    pub fn box_size(&self) -> f64 {
        1.0 / (1u64 << self.level) as f64
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Key(n={}, l={:?})", self.level, self.translations())
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({};{:?})", self.level, self.translations())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_has_no_parent() {
        let r = Key::root(3);
        assert_eq!(r.level(), 0);
        assert!(r.parent().is_none());
        assert_eq!(r.num_children(), 8);
    }

    #[test]
    fn child_parent_round_trip() {
        let r = Key::root(3);
        for w in 0..8 {
            let c = r.child(w);
            assert_eq!(c.level(), 1);
            assert_eq!(c.parent(), Some(r));
            assert_eq!(c.index_in_parent(), w);
        }
    }

    #[test]
    fn deep_child_translations() {
        let k = Key::root(2).child(3).child(0).child(3);
        // dim0 bits: 1,0,1 → 5; dim1 bits: 1,0,1 → 5.
        assert_eq!(k.level(), 3);
        assert_eq!(k.translations(), &[5, 5]);
    }

    #[test]
    fn neighbor_respects_domain() {
        let k = Key::new(2, &[0, 3]);
        assert_eq!(k.neighbor(&[1, 0]), Some(Key::new(2, &[1, 3])));
        assert_eq!(k.neighbor(&[-1, 0]), None); // off the left edge
        assert_eq!(k.neighbor(&[0, 1]), None); // off the right edge (max 3)
        assert_eq!(k.neighbor(&[0, -3]), Some(Key::new(2, &[0, 0])));
    }

    #[test]
    fn ancestor_relation() {
        let r = Key::root(3);
        let c = r.child(5).child(2);
        assert!(r.is_ancestor_of(&c));
        assert!(r.child(5).is_ancestor_of(&c));
        assert!(!r.child(4).is_ancestor_of(&c));
        assert!(c.is_ancestor_of(&c));
    }

    #[test]
    fn hash_differs_for_siblings() {
        let r = Key::root(4);
        let hashes: Vec<u64> = r.children().map(|c| c.hash64()).collect();
        for i in 0..hashes.len() {
            for j in (i + 1)..hashes.len() {
                assert_ne!(hashes[i], hashes[j]);
            }
        }
    }

    #[test]
    fn geometry() {
        let k = Key::new(2, &[1, 3]);
        assert_eq!(k.box_size(), 0.25);
        assert_eq!(k.lower_corner(), vec![0.25, 0.75]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_translation_rejected() {
        let _ = Key::new(1, &[2, 0]);
    }
}
