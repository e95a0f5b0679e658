//! Counting-allocator proof of the zero-allocation hot path: once the
//! thread-local scratch is warm, `execute_tasks` performs a number of
//! heap allocations that is **independent of the separation rank `M`** —
//! i.e. zero allocations per rank term. Runs as its own integration
//! binary so the `#[global_allocator]` swap cannot perturb other tests.

use madness_gpusim::kernel::execute_tasks;
use madness_gpusim::{HBlock, TransformTask, TransformTerm};
use madness_tensor::{Shape, Tensor, TransformScratch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn full_task(rank: usize) -> TransformTask {
    let d = 3;
    let k = 10;
    let s = Arc::new(Tensor::from_fn(Shape::cube(d, k), |ix| {
        (ix[0] * 7 + ix[1] * 3 + ix[2]) as f64 * 0.01 - 1.0
    }));
    let terms: Vec<TransformTerm> = (0..rank)
        .map(|mu| {
            let h = Arc::new(Tensor::from_fn(Shape::matrix(k, k), |ix| {
                ((mu + 1) as f64 * 0.1).powi((ix[0] % 3) as i32) * (1.0 + ix[1] as f64 * 0.05)
            }));
            TransformTerm {
                coeff: 1.0 / (mu + 1) as f64,
                hs: (0..d)
                    .map(|dim| HBlock::new((mu * d + dim) as u64, Arc::clone(&h)))
                    .collect(),
                effective_ranks: None,
            }
        })
        .collect();
    TransformTask {
        d,
        k,
        s: Some(s),
        terms: Arc::new(terms),
    }
}

/// The acceptance criterion of the zero-allocation Apply hot path: a
/// rank-40 task must allocate exactly as much as a rank-4 task (the
/// result tensor and the `Vec` that holds it), because every per-term
/// temporary lives in the reusable [`TransformScratch`].
#[test]
fn steady_state_allocations_do_not_scale_with_rank() {
    let small = full_task(4);
    let big = full_task(40);
    let mut scratch = TransformScratch::new();

    // Warm the scratch to its steady-state (largest) capacity.
    execute_tasks(&[&big, &small], false, &mut scratch);

    let count = |task: &TransformTask, scratch: &mut TransformScratch| {
        let before = ALLOCS.load(Ordering::Relaxed);
        let r = execute_tasks(&[task], false, scratch);
        let after = ALLOCS.load(Ordering::Relaxed);
        drop(r);
        after - before
    };

    let small_allocs = count(&small, &mut scratch);
    let big_allocs = count(&big, &mut scratch);
    assert_eq!(
        small_allocs, big_allocs,
        "allocations scale with rank: rank-4 made {small_allocs}, rank-40 made {big_allocs}"
    );
    // The only steady-state allocations are the result tensor and the
    // result `Vec`.
    assert!(
        big_allocs <= 2,
        "expected only the result allocations, saw {big_allocs}"
    );
}
