//! The unit of GPU work: one batched Apply transform task.

use madness_tensor::{Tensor, Term};
use std::sync::Arc;

/// One `(k, k)` operator block, identified for the device cache.
///
/// `data` is `None` in timing-only fidelity — the id still drives the
/// cache/transfer model.
#[derive(Clone, Debug)]
pub struct HBlock {
    /// Stable identity (term μ × level × displacement), for the
    /// write-once device cache.
    pub id: u64,
    /// The block values (present in `Full` fidelity).
    pub data: Option<Arc<Tensor>>,
}

impl HBlock {
    /// A block with data.
    pub fn new(id: u64, data: Arc<Tensor>) -> Self {
        HBlock {
            id,
            data: Some(data),
        }
    }

    /// A timing-only placeholder.
    pub fn shape_only(id: u64) -> Self {
        HBlock { id, data: None }
    }
}

/// One separated-rank term: scalar coefficient plus its `d` operator
/// blocks.
#[derive(Clone, Debug)]
pub struct TransformTerm {
    /// Scalar `c_μ` multiplying this term's transform.
    pub coeff: f64,
    /// The `d` per-dimension blocks `h^{(μ,1)} … h^{(μ,d)}`.
    pub hs: Vec<HBlock>,
    /// Effective contraction ranks per dimension, if rank reduction is in
    /// force (CPU path only — the GPU gains nothing, paper §II-D).
    pub effective_ranks: Option<Vec<usize>>,
}

/// One compute task: evaluate Formula 1 for a source tensor against `M`
/// separated-rank terms, producing one result tensor.
///
/// This is the paper's `integral_compute` payload after `preprocess` has
/// resolved every block address.
#[derive(Clone, Debug)]
pub struct TransformTask {
    /// Tensor dimensionality `d`.
    pub d: usize,
    /// Polynomial order `k` per dimension.
    pub k: usize,
    /// Source coefficients `s` (`None` in timing-only fidelity).
    pub s: Option<Arc<Tensor>>,
    /// The `M` separated-rank terms. Shared (`Arc`) because terms depend
    /// only on (level, displacement): the paper's "hundreds of input h
    /// tensors" are reused by many source tensors, and rebuilding the
    /// list per task dominated preprocess. Use [`Arc::make_mut`] to edit.
    pub terms: Arc<Vec<TransformTerm>>,
}

impl TransformTask {
    /// Separation rank `M` of this task.
    pub fn rank(&self) -> usize {
        self.terms.len()
    }

    /// Total small-matrix multiplications this task performs: `M × d`.
    pub fn num_multiplications(&self) -> u64 {
        (self.rank() * self.d) as u64
    }

    /// FLOPs of the full (non-rank-reduced) task.
    pub fn flops(&self) -> u64 {
        madness_tensor::flops::apply_task_flops(self.d, self.k, self.rank())
    }

    /// FLOPs with rank reduction applied where terms carry effective
    /// ranks (the ≤2.5× CPU saving of §II-D).
    pub fn flops_rank_reduced(&self) -> u64 {
        self.terms
            .iter()
            .map(|t| match &t.effective_ranks {
                Some(krs) => madness_tensor::flops::transform_rr_flops(self.d, self.k, krs),
                None => madness_tensor::flops::transform_flops(self.d, self.k),
            })
            .sum()
    }

    /// Bytes of the source tensor (`k^d` doubles).
    pub fn s_bytes(&self) -> u64 {
        8 * (self.k as u64).pow(self.d as u32)
    }

    /// Bytes of one operator block (`k²` doubles).
    pub fn h_block_bytes(&self) -> u64 {
        8 * (self.k as u64).pow(2)
    }

    /// Whether both tasks transform the same source `Arc` (equal values
    /// do not count; timing-only tasks share nothing).
    pub fn same_source(&self, other: &TransformTask) -> bool {
        matches!((&self.s, &other.s), (Some(a), Some(b)) if Arc::ptr_eq(a, b))
    }

    /// Term `mu` as the tensor crate's Σ_μ group kernel
    /// ([`madness_tensor::transform_sum_accumulate_group`]) takes it.
    /// `rank_reduced` passes the term's effective ranks on (the CPU
    /// path); the GPU kernels never rank-reduce (paper §II-D).
    ///
    /// # Panics
    /// The block iterator panics on a timing-only block.
    pub fn sum_term(
        &self,
        mu: usize,
        rank_reduced: bool,
    ) -> Term<'_, impl Iterator<Item = &Tensor>> {
        let term = &self.terms[mu];
        Term {
            coeff: term.coeff,
            hs: term.hs.iter().map(|h| {
                h.data
                    .as_deref()
                    .expect("full-fidelity task requires block data")
            }),
            krs: term.effective_ranks.as_deref().filter(|_| rank_reduced),
        }
    }

    /// All block ids this task references (for the device cache).
    pub fn h_ids(&self) -> impl Iterator<Item = u64> + Clone + '_ {
        self.terms.iter().flat_map(|t| t.hs.iter().map(|h| h.id))
    }

    /// A timing-only task with uniform effective ranks on every term
    /// (for modeling rank reduction in the simulators).
    pub fn shape_only_rr(d: usize, k: usize, rank: usize, id_base: u64, kr: usize) -> Self {
        let mut t = Self::shape_only(d, k, rank, id_base);
        for term in Arc::make_mut(&mut t.terms) {
            term.effective_ranks = Some(vec![kr.min(k); d]);
        }
        t
    }

    /// A timing-only task of the given shape (no tensor data).
    ///
    /// Block ids are `(id_base << 20) | block_index`: tasks sharing an
    /// `id_base` share blocks (the realistic case — one operator's blocks
    /// reused by many tasks), distinct bases never collide as long as
    /// `rank × d < 2^20` (asserted).
    pub fn shape_only(d: usize, k: usize, rank: usize, id_base: u64) -> Self {
        assert!(rank * d < (1 << 20), "too many blocks for the id layout");
        let terms = (0..rank)
            .map(|mu| TransformTerm {
                coeff: 1.0,
                hs: (0..d)
                    .map(|dim| HBlock::shape_only((id_base << 20) | (mu * d + dim) as u64))
                    .collect(),
                effective_ranks: None,
            })
            .collect();
        TransformTask {
            d,
            k,
            s: None,
            terms: Arc::new(terms),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use madness_tensor::Shape;

    #[test]
    fn counts_and_bytes() {
        let t = TransformTask::shape_only(3, 10, 100, 0);
        assert_eq!(t.rank(), 100);
        assert_eq!(t.num_multiplications(), 300);
        assert_eq!(t.flops(), 100 * 3 * 2 * 10u64.pow(4));
        assert_eq!(t.s_bytes(), 8 * 1000);
        assert_eq!(t.h_block_bytes(), 800);
        assert_eq!(t.h_ids().count(), 300);
    }

    #[test]
    fn rank_reduced_flops_below_full() {
        let mut t = TransformTask::shape_only(3, 10, 10, 0);
        for term in Arc::make_mut(&mut t.terms) {
            term.effective_ranks = Some(vec![4, 4, 4]);
        }
        assert_eq!(t.flops_rank_reduced(), t.flops() * 4 / 10);
    }

    #[test]
    fn full_task_carries_data() {
        let s = Arc::new(Tensor::zeros(Shape::cube(3, 4)));
        let h = Arc::new(Tensor::identity(4));
        let task = TransformTask {
            d: 3,
            k: 4,
            s: Some(Arc::clone(&s)),
            terms: Arc::new(vec![TransformTerm {
                coeff: 2.0,
                hs: (0..3).map(|i| HBlock::new(i, Arc::clone(&h))).collect(),
                effective_ranks: None,
            }]),
        };
        assert!(task.s.is_some());
        assert_eq!(task.rank(), 1);
    }
}
