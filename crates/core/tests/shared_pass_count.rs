//! The shared leading passes, pinned as a count: how many span
//! dispatches a `Cpu` Apply pass issues when one source's displacement
//! tasks run side by side, against the same pass with every task alone.
//! A count, not a time — it repeats exactly, whatever the pool does.
//! Runs as its own integration binary (and as one test) because it
//! flips the process-wide kernel table's counting switch.

use madness_core::apply::{apply_batched, apply_cpu_reference, ApplyConfig, ApplyResource};
use madness_core::coulomb::CoulombApp;
use madness_mra::convolution::SeparatedConvolution;
use madness_runtime::BatcherConfig;
use madness_tensor::kernel::{self, KernelTable};
use madness_tensor::{transform_sum_accumulate_group, Shape, Tensor, Term, Workspace};

/// `CoulombApp::small(4, 1e-3).tree`'s compute tasks, and the span
/// dispatches of its `Cpu` passes: batched at `max_batch` 16 and 60, and
/// the walk. CI runs this file under `RAYON_NUM_THREADS=1` as well, so
/// the same numbers hold with every spawn inline.
const TASKS: u64 = 16_696;
const BATCH_16: u64 = 385_630;
const BATCH_60: u64 = 347_618;
const WALK: u64 = 335_208;

/// Span dispatches `f` issues on the calibrated shapes.
fn dispatches(table: &KernelTable, f: impl FnOnce()) -> u64 {
    table.reset_dispatches();
    table.set_counting(true);
    f();
    table.set_counting(false);
    table.entries().iter().map(|e| e.dispatches()).sum()
}

#[test]
fn a_sources_tasks_share_their_leading_passes() {
    let (d, k) = (3, 4);
    let op = SeparatedConvolution::coulomb(d, k, 1e-4, 1e-2);
    let tree = CoulombApp::small(k, 1e-3).tree;
    // An unshared task: (d − 1) leading spans a term, and at k = 4 the
    // whole rank is one chunk, so one fused final span.
    assert_eq!(op.rank(), 34);
    let alone = ((d - 1) * op.rank() + 1) as u64;

    madness_runtime::initialize_hot_path();
    let table = kernel::global().expect("a kernel table is installed unless MADNESS_AUTOTUNE=off");

    let batched = |max_batch: usize| {
        let cfg = ApplyConfig {
            resource: ApplyResource::Cpu,
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

    // The control that bypasses the mechanism: one task a batch, so no
    // two tasks of a source ever meet in a chunk.
    let (single, tasks) = batched(1);
    assert_eq!(tasks, TASKS);
    assert_eq!(single, alone * tasks);

    // An interior source needs 4 + 10 of its 2 × 27 leading passes a
    // term, a corner source 2 + 4 of 2 × 8. The exact values are the
    // same under any pool: the dispatcher thread alone cuts the chunks.
    let (b16, _) = batched(16);
    let (b60, _) = batched(60);
    let walk = dispatches(table, || drop(apply_cpu_reference(&op, &tree)));
    assert_eq!((b16, b60, walk), (BATCH_16, BATCH_60, WALK));
    for count in [b16, b60, walk] {
        assert!(
            2 * count <= single,
            "{count} dispatches against {single} unshared"
        );
    }

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
