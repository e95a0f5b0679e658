//! The shared leading passes, pinned as a count: how many span
//! dispatches an Apply pass issues when one source's displacement tasks
//! run side by side, against the same pass with every task alone — on
//! the `Cpu`, `Gpu` and `Hybrid` paths, which run one arithmetic.
//! A count, not a time — it repeats exactly, whatever the pool does.
//! Runs as its own integration binary (and as one test) because it
//! flips the process-wide kernel table's counting switch.

use madness_core::apply::{apply_batched, apply_cpu_reference, ApplyConfig, ApplyResource};
use madness_core::coulomb::CoulombApp;
use madness_mra::convolution::SeparatedConvolution;
use madness_mra::ops::sum_down;
use madness_mra::tree::FunctionTree;
use madness_runtime::BatcherConfig;
use madness_tensor::kernel::{self, KernelTable};
use madness_tensor::{transform_sum_accumulate_group, Shape, Tensor, Term, Workspace};

/// `CoulombApp::small(4, 1e-3).tree`'s compute tasks, and the span
/// dispatches of its passes. CI runs this file under
/// `RAYON_NUM_THREADS=1` as well, so the same numbers hold with every
/// spawn inline.
const TASKS: u64 = 16_696;
/// An unshared task: (d − 1) leading spans a term at rank 34, and at
/// k = 4 the whole rank is one chunk, so one fused final span.
const ALONE: u64 = 69;
/// The Apply's own spans with every source's tasks side by side: the
/// walk's one group call a source, and the batched pass's whenever no
/// chunk cuts a source.
const APPLY: u64 = 335_208;
/// `sum_down`'s spans on the result: 2 + 4 + 8 a node it pushes through
/// (on the calibrated (16, 4) shape, like the Apply's).
const SUM_DOWN: u64 = 2_016;
/// The batched pass at `max_batch = 60`, `sum_down` included: the
/// end-of-run drain hands over each level's remainder after the next
/// level has started, so the pending run is spawned whole wherever that
/// remainder begins — inside a source, where leading passes run again:
/// three a term here (at 16 those cuts happen to cost none).
const BATCH_60: u64 = APPLY + SUM_DOWN + 3 * 34;
/// A `Gpu` pass at `max_batch` 16 and 60, `sum_down` included: each
/// flush is one GPU share and one job, so a 27-task source is cut
/// wherever a flush ends inside it and runs its leading passes again
/// there. At `max_batch` 1 every task is alone.
const GPU_16: u64 = 385_630 + SUM_DOWN;
const GPU_60: u64 = 347_618 + SUM_DOWN;
/// A `Hybrid` pass at 60: a flush's CPU share joins the pending run and
/// its GPU share is a job of its own, so sources are cut where the
/// split falls as well as where the flush ends.
const HYBRID_60: u64 = 362_170 + SUM_DOWN;
// The control is arithmetic — every task alone — and sharing saves more
// than half of it; a push is 2 + 4 + 8 spans.
const _: () = assert!(ALONE * TASKS == 1_152_024 && 2 * APPLY <= ALONE * TASKS);
const _: () = assert!(APPLY + SUM_DOWN < GPU_60 && GPU_60 < HYBRID_60 && HYBRID_60 < GPU_16);
const _: () = assert!(GPU_16 < ALONE * TASKS);
const _: () = assert!(SUM_DOWN.is_multiple_of(2 + 4 + 8));

/// Span dispatches `f` issues on the calibrated shapes.
fn dispatches(table: &KernelTable, f: impl FnOnce()) -> u64 {
    table.reset_dispatches();
    table.set_counting(true);
    f();
    table.set_counting(false);
    table.entries().iter().map(|e| e.dispatches()).sum()
}

/// The result tree an Apply of `op` on `tree` hands `sum_down`: a
/// coefficient block at every target. Its values are not the Apply's,
/// but `sum_down` runs the same spans on any values.
fn targets(op: &SeparatedConvolution, tree: &FunctionTree) -> FunctionTree {
    let mut targets = FunctionTree::new(tree.d(), tree.k());
    for (key, s) in tree.leaves() {
        for disp in op.displacements_at(key.level()).iter() {
            if let Some(neighbor) = key.neighbor(&disp.delta) {
                targets.accumulate(neighbor, 1.0, s);
            }
        }
    }
    targets
}

#[test]
fn a_sources_tasks_share_their_leading_passes() {
    let (d, k) = (3, 4);
    let op = SeparatedConvolution::coulomb(d, k, 1e-4, 1e-2);
    let tree = CoulombApp::small(k, 1e-3).tree;
    assert_eq!(op.rank(), 34);
    assert_eq!(ALONE, ((d - 1) * op.rank() + 1) as u64);

    madness_runtime::initialize_hot_path();
    let table = kernel::global().expect("a kernel table is installed unless MADNESS_AUTOTUNE=off");

    let batched_on = |resource: ApplyResource, max_batch: usize| {
        let cfg = ApplyConfig {
            resource,
            batch: BatcherConfig {
                max_batch,
                ..BatcherConfig::default()
            },
            ..ApplyConfig::default()
        };
        let mut tasks = 0;
        let count = dispatches(table, || tasks = apply_batched(&op, &tree, &cfg).1.tasks);
        (count, tasks)
    };
    let batched = |max_batch| batched_on(ApplyResource::Cpu, max_batch);

    // `sum_down` apart, so the Apply's own count stays in view.
    let mut result = targets(&op, &tree);
    assert_eq!(dispatches(table, || sum_down(&mut result)), SUM_DOWN);

    // An interior source needs 4 + 10 of its 2 × 27 leading passes a
    // term, a corner source 2 + 4 of 2 × 8. CPU chunks span flushes and
    // are cut only where the source changes, so one task a batch shares
    // exactly as much as sixteen do — and as the walk. The dispatcher
    // thread alone cuts the chunks and the GPU shares, so the values
    // hold under any pool.
    let (b1, tasks) = batched(1);
    assert_eq!(tasks, TASKS);
    let (b16, _) = batched(16);
    let (b60, _) = batched(60);
    let walk = dispatches(table, || drop(apply_cpu_reference(&op, &tree)));
    assert_eq!(
        (b1, b16, walk),
        (APPLY + SUM_DOWN, APPLY + SUM_DOWN, APPLY + SUM_DOWN)
    );
    assert_eq!(b60, BATCH_60);

    // The device's share runs the same group call per source run: a GPU
    // share keeps what its flush holds of a source together.
    let gpu = [1, 16, 60].map(|b| batched_on(ApplyResource::Gpu, b).0);
    assert_eq!(gpu, [ALONE * TASKS + SUM_DOWN, GPU_16, GPU_60]);
    assert_eq!(batched_on(ApplyResource::Hybrid, 60).0, HYBRID_60);

    // Blocks are told apart by address: a second task over the same
    // three `&Tensor`s adds only its final span, one over equal-valued
    // copies runs every pass again.
    let s = Tensor::from_fn(Shape::cube(d, k), |ix| (1 + ix[0] + 2 * ix[1]) as f64);
    let hs = vec![Tensor::identity(k); d];
    let copies = hs.clone();
    let pair = |second: &[Tensor]| {
        let mut outs = vec![Tensor::zeros(Shape::cube(d, k)); 2];
        let term = |task: usize, _| Term {
            coeff: 1.0,
            hs: if task == 0 { hs.iter() } else { second.iter() },
            krs: None,
        };
        let count = dispatches(table, || {
            Workspace::with(|ws| {
                transform_sum_accumulate_group(&s, 1, term, ws.scratch(), &mut outs)
            })
        });
        assert_eq!(outs[0], outs[1]);
        count
    };
    assert_eq!(pair(&hs), 2 + 1 + 1);
    assert_eq!(pair(&copies), 2 * (2 + 1));
}
