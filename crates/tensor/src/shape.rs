//! Fixed-capacity tensor shapes and row-major index arithmetic.

use crate::MAX_DIMS;
use std::fmt;

/// The shape of a dense row-major tensor: up to [`MAX_DIMS`] extents.
///
/// Stored inline (no heap allocation) because MADNESS manipulates millions
/// of small tensors and shape handling must stay off the allocator.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: [usize; MAX_DIMS],
    ndim: u8,
}

impl Shape {
    /// Creates a shape from a slice of extents.
    ///
    /// # Panics
    /// Panics if `dims.len() > MAX_DIMS` or any extent is zero.
    pub fn new(dims: &[usize]) -> Self {
        assert!(
            dims.len() <= MAX_DIMS,
            "shape has {} dims, max is {MAX_DIMS}",
            dims.len()
        );
        assert!(
            dims.iter().all(|&d| d > 0),
            "zero-extent dimension in shape {dims:?}"
        );
        let mut a = [0usize; MAX_DIMS];
        a[..dims.len()].copy_from_slice(dims);
        Shape {
            dims: a,
            ndim: dims.len() as u8,
        }
    }

    /// The hyper-cubic shape `k × k × … × k` (`d` times) used for MRA
    /// coefficient blocks. Built entirely on the stack — this runs on
    /// the Apply warm path, once per compute task.
    pub fn cube(d: usize, k: usize) -> Self {
        assert!((1..=MAX_DIMS).contains(&d));
        assert!(k > 0, "zero-extent dimension in cube shape");
        // Trailing extents must be zero: derived Eq/Hash compare the
        // whole inline array, matching what `Shape::new` produces.
        let mut dims = [0usize; MAX_DIMS];
        dims[..d].fill(k);
        Shape {
            dims,
            ndim: d as u8,
        }
    }

    /// A 2-dimensional `rows × cols` shape.
    pub fn matrix(rows: usize, cols: usize) -> Self {
        Self::new(&[rows, cols])
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.ndim as usize
    }

    /// The extents as a slice.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.ndim as usize]
    }

    /// Extent of dimension `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.ndim()`.
    #[inline]
    pub fn dim(&self, i: usize) -> usize {
        assert!(i < self.ndim(), "dim index {i} out of range");
        self.dims[i]
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.dims().iter().product()
    }

    /// True for the (degenerate, disallowed-by-construction) empty product;
    /// kept for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if every extent equals `k`.
    pub fn is_cube(&self, k: usize) -> bool {
        self.dims().iter().all(|&d| d == k)
    }

    /// Row-major strides for this shape.
    pub fn strides(&self) -> [usize; MAX_DIMS] {
        let n = self.ndim();
        let mut s = [0usize; MAX_DIMS];
        let mut acc = 1usize;
        for i in (0..n).rev() {
            s[i] = acc;
            acc *= self.dims[i];
        }
        s
    }

    /// Linear row-major offset of a multi-index.
    ///
    /// # Panics
    /// Panics if `idx.len() != self.ndim()` or any component is out of
    /// range (debug builds check ranges; release relies on the final
    /// bounds check at the data access).
    pub fn offset(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.ndim(), "index rank mismatch");
        let strides = self.strides();
        let mut off = 0usize;
        for (i, &ix) in idx.iter().enumerate() {
            debug_assert!(ix < self.dims[i], "index {ix} out of bounds in dim {i}");
            off += ix * strides[i];
        }
        off
    }

    /// The shape with dimension 0 moved to the end (what one pass of a
    /// square [`crate::transform()`] produces).
    pub fn rotated(&self) -> Self {
        let n = self.ndim();
        let mut d = [0usize; MAX_DIMS];
        for i in 0..n {
            d[i] = self.dims[(i + 1) % n];
        }
        Shape {
            dims: d,
            ndim: self.ndim,
        }
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.dims())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for d in self.dims() {
            if !first {
                write!(f, "×")?;
            }
            write!(f, "{d}")?;
            first = false;
        }
        Ok(())
    }
}

impl From<&[usize]> for Shape {
    fn from(d: &[usize]) -> Self {
        Shape::new(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cube_shape_basics() {
        let s = Shape::cube(3, 10);
        assert_eq!(s.ndim(), 3);
        assert_eq!(s.dims(), &[10, 10, 10]);
        assert_eq!(s.len(), 1000);
        assert!(s.is_cube(10));
        assert!(!s.is_cube(11));
    }

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(&s.strides()[..3], &[12, 4, 1]);
    }

    #[test]
    fn offset_matches_manual_computation() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.offset(&[0, 0, 0]), 0);
        assert_eq!(s.offset(&[1, 2, 3]), 12 + 8 + 3);
        assert_eq!(s.offset(&[1, 0, 1]), 13);
    }

    #[test]
    fn rotation_cycles_back_after_ndim_steps() {
        let s = Shape::new(&[2, 3, 4]);
        let r1 = s.rotated();
        assert_eq!(r1.dims(), &[3, 4, 2]);
        let r3 = r1.rotated().rotated();
        assert_eq!(r3, s);
    }

    #[test]
    #[should_panic(expected = "zero-extent")]
    fn zero_extent_rejected() {
        let _ = Shape::new(&[3, 0]);
    }

    #[test]
    #[should_panic(expected = "max is")]
    fn too_many_dims_rejected() {
        let _ = Shape::new(&[1, 1, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn display_renders_extents() {
        assert_eq!(Shape::new(&[3, 4]).to_string(), "3×4");
    }
}
