//! Owned dense `f64` tensors.

use crate::shape::Shape;
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Sub};

/// An owned, contiguous, row-major `f64` tensor.
///
/// This is deliberately minimal: MADNESS coefficient blocks are small
/// (`k^d` with `k ≤ 30`, `d ≤ 4`), so the design favours cheap
/// construction, contiguity (for the `mtxmq` kernels) and explicit
/// reshape/fuse operations over a general strided-view machinery.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f64>,
}

impl Tensor {
    /// A zero-filled tensor of the given shape.
    pub fn zeros(shape: Shape) -> Self {
        Tensor {
            data: vec![0.0; shape.len()],
            shape,
        }
    }

    /// A tensor filled with `value`.
    pub fn full(shape: Shape, value: f64) -> Self {
        Tensor {
            data: vec![value; shape.len()],
            shape,
        }
    }

    /// Builds a tensor from existing data.
    ///
    /// # Panics
    /// Panics if `data.len() != shape.len()`.
    pub fn from_vec(shape: Shape, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {shape} ({})",
            data.len(),
            shape.len()
        );
        Tensor { shape, data }
    }

    /// Builds a tensor by evaluating `f` at every multi-index, iterating in
    /// row-major order.
    pub fn from_fn(shape: Shape, mut f: impl FnMut(&[usize]) -> f64) -> Self {
        let n = shape.ndim();
        let mut idx = [0usize; crate::MAX_DIMS];
        let mut data = Vec::with_capacity(shape.len());
        for _ in 0..shape.len() {
            data.push(f(&idx[..n]));
            // Increment the row-major odometer.
            for i in (0..n).rev() {
                idx[i] += 1;
                if idx[i] < shape.dim(i) {
                    break;
                }
                idx[i] = 0;
            }
        }
        Tensor { shape, data }
    }

    /// The identity matrix of size `k` (rank-2).
    pub fn identity(k: usize) -> Self {
        Tensor::from_fn(
            Shape::matrix(k, k),
            |ix| {
                if ix[0] == ix[1] {
                    1.0
                } else {
                    0.0
                }
            },
        )
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.shape.ndim()
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor holds no elements (cannot happen for shapes built
    /// through [`Shape::new`], kept for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the backing storage (row-major).
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the backing storage (row-major).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the tensor, returning its storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Element at a multi-index.
    #[inline]
    pub fn at(&self, idx: &[usize]) -> f64 {
        self.data[self.shape.offset(idx)]
    }

    /// Mutable element at a multi-index.
    #[inline]
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut f64 {
        let off = self.shape.offset(idx);
        &mut self.data[off]
    }

    /// Reinterprets the tensor with a new shape of identical length.
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshape(mut self, shape: Shape) -> Self {
        assert_eq!(
            self.len(),
            shape.len(),
            "cannot reshape {} into {shape}",
            self.shape
        );
        self.shape = shape;
        self
    }

    /// Frobenius norm `sqrt(Σ x²)` — MADNESS's `normf`, used by Truncate
    /// and by adaptive refinement thresholds.
    pub fn normf(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// In-place `self += alpha * other` (the Apply accumulation step).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn gaxpy(&mut self, alpha: f64, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "gaxpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// In-place scaling.
    pub fn scale(&mut self, alpha: f64) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Absolute difference norm `‖self − other‖_F`; convenience for tests.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn distance(&self, other: &Tensor) -> f64 {
        assert_eq!(self.shape, other.shape, "distance shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }
}

impl Index<&[usize]> for Tensor {
    type Output = f64;
    fn index(&self, idx: &[usize]) -> &f64 {
        &self.data[self.shape.offset(idx)]
    }
}

impl IndexMut<&[usize]> for Tensor {
    fn index_mut(&mut self, idx: &[usize]) -> &mut f64 {
        let off = self.shape.offset(idx);
        &mut self.data[off]
    }
}

impl Add<&Tensor> for &Tensor {
    type Output = Tensor;
    fn add(self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape, rhs.shape, "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Tensor {
            shape: self.shape,
            data,
        }
    }
}

impl Sub<&Tensor> for &Tensor {
    type Output = Tensor;
    fn sub(self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape, rhs.shape, "sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Tensor {
            shape: self.shape,
            data,
        }
    }
}

impl Mul<f64> for &Tensor {
    type Output = Tensor;
    fn mul(self, rhs: f64) -> Tensor {
        let data = self.data.iter().map(|a| a * rhs).collect();
        Tensor {
            shape: self.shape,
            data,
        }
    }
}

impl AddAssign<&Tensor> for Tensor {
    fn add_assign(&mut self, rhs: &Tensor) {
        self.gaxpy(1.0, rhs);
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}, normf={:.3e})", self.shape, self.normf())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros(Shape::cube(2, 3));
        assert_eq!(z.len(), 9);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let f = Tensor::full(Shape::matrix(2, 2), 7.5);
        assert_eq!(f.sum(), 30.0);
    }

    #[test]
    fn from_fn_row_major_order() {
        let t = Tensor::from_fn(Shape::new(&[2, 3]), |ix| (ix[0] * 10 + ix[1]) as f64);
        assert_eq!(t.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn indexing_round_trips() {
        let mut t = Tensor::zeros(Shape::new(&[3, 4, 5]));
        *t.at_mut(&[2, 3, 4]) = 42.0;
        assert_eq!(t.at(&[2, 3, 4]), 42.0);
        assert_eq!(t[&[2, 3, 4][..]], 42.0);
    }

    #[test]
    fn identity_is_diagonal() {
        let i = Tensor::identity(4);
        assert_eq!(i.sum(), 4.0);
        assert_eq!(i.at(&[2, 2]), 1.0);
        assert_eq!(i.at(&[2, 1]), 0.0);
    }

    #[test]
    fn normf_matches_manual() {
        let t = Tensor::from_vec(Shape::matrix(1, 2), vec![3.0, 4.0]);
        assert!((t.normf() - 5.0).abs() < 1e-15);
    }

    #[test]
    fn gaxpy_accumulates() {
        let mut a = Tensor::full(Shape::matrix(2, 2), 1.0);
        let b = Tensor::full(Shape::matrix(2, 2), 2.0);
        a.gaxpy(0.5, &b);
        assert_eq!(a.as_slice(), &[2.0; 4]);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Tensor::full(Shape::matrix(2, 2), 3.0);
        let b = Tensor::full(Shape::matrix(2, 2), 1.0);
        assert_eq!((&a + &b).sum(), 16.0);
        assert_eq!((&a - &b).sum(), 8.0);
        assert_eq!((&a * 2.0).sum(), 24.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_fn(Shape::new(&[2, 6]), |ix| (ix[0] * 6 + ix[1]) as f64);
        let r = t.clone().reshape(Shape::new(&[3, 4]));
        assert_eq!(r.as_slice(), t.as_slice());
        assert_eq!(r.shape().dims(), &[3, 4]);
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn reshape_length_mismatch_panics() {
        let _ = Tensor::zeros(Shape::matrix(2, 2)).reshape(Shape::matrix(3, 3));
    }

    #[test]
    fn distance_of_identical_tensors_is_zero() {
        let t = Tensor::full(Shape::cube(3, 4), 1.25);
        assert_eq!(t.distance(&t), 0.0);
    }
}
