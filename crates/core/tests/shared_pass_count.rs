//! The shared leading passes, fanned final spans and stacked sources,
//! pinned as a count: how many span dispatches an Apply pass issues when
//! one source's displacement tasks run side by side (the walk), and when
//! same-level sources with identical task lists are stacked as well (the
//! batched pass), against the same pass with every task alone — on the
//! `Cpu`, `Gpu`, `Hybrid` and `Adaptive` paths, which cut their batches
//! in task order and run one job stream: the split only prices, so every
//! arm issues the `Cpu` pass's spans at every `max_batch`. A count, not
//! a time — it repeats exactly, whatever the pool does.
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
/// The leading spans of the Apply with every source's tasks side by
/// side. The operator lists displacements lexicographically, `δx`
/// slowest — the order of the passes — so a source runs one pass 0 a
/// term for each `δx` it has live and one pass 1 for each `(δx, δy)`. Its
/// live displacements are a box of `a × b × c` values of `(δx, δy, δz)`,
/// each 2 on a face of the domain and 3 off it, so it runs `a + a·b` of
/// its `2·a·b·c`: an interior source 3 + 9 of 2 × 27. Over the tree's
/// 736 sources, by live neighbours:
/// - 27: 440, and 18 with `c = 2`: 72 — 12 each;
/// - 18 with `a = 2`: 72 — 8; with `b = 2`: 72 — 9;
/// - 12, `(a, b)` = (2, 2), (2, 3) and (3, 2): 24 each — 6, 8 and 9;
/// - 8: the 8 corners — 6.
///
/// Before fans the Apply issued these plus one final span a task, 287,608.
const LEADING: u64 = 34 * (512 * 12 + 72 * 8 + 72 * 9 + 24 * 6 + 24 * 8 + 24 * 9 + 8 * 6);
/// One fused final span a *fan*: consecutive tasks of a source whose
/// stacks are identical (same `(δx, δy)`), at most three. The `δz`
/// siblings of a `(δx, δy)` are adjacent and at most three, so a source
/// makes `a·b` fans — an interior source's 27 tasks nine `δz` triples.
/// Over the tree: 512 × 9 (27 live and 18 with `c = 2`), 144 × 6 (the
/// other 18), 24 × 4 + 48 × 6 (12), 8 × 4 (the corners).
const FANS: u64 = 512 * 9 + 144 * 6 + 24 * 4 + 48 * 6 + 8 * 4;
/// The Apply's own spans with every source's tasks side by side, one
/// source at a time: the walk's one group call a source.
const APPLY: u64 = LEADING + FANS;
/// The leading spans of the batched Apply, which stacks same-level
/// sources whose task lists are identical, up to `S_MAX` = 8 a group
/// call (`gpusim::kernel::stack_groups`): a group runs its list's leading
/// spans once for all its sources, 34 × the list's leading passes a
/// term (12 for an interior source). In key order the tree's 736 sources
/// form 224 groups. By leading passes a term:
/// - 12: 140 groups — the 440 interior sources, in one run of 256 (32
///   groups of 8), 28 runs of 6 and 8 of 2, and the 72 sources with 18
///   live neighbours and `c = 2`, alone;
/// - 9: 36; 8: 36; 6: 12 — the other boundary sources, alone or in runs
///   of 6 along a face.
const STACKED_LEADING: u64 = 34 * (140 * 12 + 36 * 9 + 36 * 8 + 12 * 6);
/// The batched Apply's own spans whenever no chunk cuts a stack group:
/// the final spans stay one a fan for each source.
const STACKED: u64 = STACKED_LEADING + FANS;
/// `sum_down`'s spans on the result: 2 + 4 + 4 a node it pushes through
/// (on the calibrated (16, 4) shape, like the Apply's) — the 8 children
/// are 4 fans of two, siblings in the last dimension.
const SUM_DOWN: u64 = 144 * (2 + 4 + 4);
// The control is arithmetic — every task alone — and sharing saves more
// than three quarters of it; before fans each task had its own final
// span. Stacking saves two thirds of what is left.
const _: () = assert!(LEADING + TASKS == 287_608 && FANS == 5_888);
const _: () = assert!(ALONE * TASKS == 1_152_024 && 4 * APPLY <= ALONE * TASKS);
const _: () = assert!(STACKED_LEADING == 80_376 && 3 * STACKED <= APPLY);

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
        for disp in op.displacements().iter() {
            if let Some(neighbor) = key.neighbor(&disp.delta) {
                targets.accumulate(neighbor, 1.0, s);
            }
        }
    }
    targets
}

/// Span dispatches of one group call over a d = 3, k = 4 source's full
/// radius-`r` box, its tasks in the operator's order.
fn full_box(table: &KernelTable, r: i64) -> u64 {
    let (d, k, level) = (3, 4, 3);
    let mut op = SeparatedConvolution::coulomb(d, k, 1e-4, 1e-2);
    op.set_max_disp(r);
    let disps = op.displacements();
    let width = (2 * r + 1) as usize;
    let blocks: Vec<_> = (0..op.rank() * width)
        .map(|ix| op.get_h(ix / width, level, (ix % width) as i64 - r))
        .collect();
    let blocks = &blocks;
    let term = |task: usize, mu: usize| Term {
        coeff: op.terms()[mu].coeff,
        hs: disps[task]
            .delta
            .iter()
            .map(move |&dl| &*blocks[mu * width + (dl + r) as usize]),
        krs: None,
    };
    let s = Tensor::from_fn(Shape::cube(d, k), |ix| {
        (1 + ix[0] + 2 * ix[1] + 3 * ix[2]) as f64
    });
    let mut outs = vec![Tensor::zeros(Shape::cube(d, k)); disps.len()];
    dispatches(table, || {
        Workspace::with(|ws| {
            transform_sum_accumulate_group(&[&s], op.rank(), term, ws.scratch(), &mut outs)
        })
    })
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

    // One source's full radius-`r` box: each of its `2r + 1` distinct
    // `δx` and `(2r + 1)²` distinct `(δx, δy)` prefixes runs once a term,
    // the minimum, and the `δz` siblings of each `(δx, δy)` fan in threes.
    // At rank 34 and k = 4 the whole rank is one chunk.
    for r in [1, 2] {
        let side = 2 * r as u64 + 1;
        let spans = 34 * (side + side * side) + side * side * side.div_ceil(3);
        assert_eq!(full_box(table, r), spans, "radius {r}");
    }

    // `sum_down` apart, so the Apply's own count stays in view.
    let mut result = targets(&op, &tree);
    assert_eq!(dispatches(table, || sum_down(&mut result)), SUM_DOWN);

    // An interior source needs 3 + 9 of its 2 × 27 leading passes a
    // term, a corner source 2 + 4 of 2 × 8 — and the walk, one source at
    // a time, runs exactly those. The batched pass stacks: chunks span
    // flushes and are cut only between stack groups, so one task a batch
    // shares exactly as much as sixteen do, and a level's last batch is
    // flushed before the next level starts. The dispatcher thread alone
    // cuts the chunks, so the values hold under any pool.
    let walk = dispatches(table, || drop(apply_cpu_reference(&op, &tree)));
    assert_eq!(walk, APPLY + SUM_DOWN);
    let (b1, tasks) = batched(1);
    assert_eq!(tasks, TASKS);
    let (b16, _) = batched(16);
    let (b60, _) = batched(60);
    assert_eq!([b1, b16, b60], [STACKED + SUM_DOWN; 3]);

    // The device's share is only priced: its tasks join the same pending
    // run in task order, so neither a flush nor a split cuts a group.
    for resource in [
        ApplyResource::Gpu,
        ApplyResource::Hybrid,
        ApplyResource::Adaptive,
    ] {
        let device = [1, 16, 60].map(|b| batched_on(resource, b).0);
        assert_eq!(device, [STACKED + SUM_DOWN; 3], "{resource:?}");
    }

    // Blocks are told apart by address: a second task over the same
    // three `&Tensor`s adds no span (it holds every slot, so it fans with
    // the first), one over equal-valued copies runs every pass again.
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
                transform_sum_accumulate_group(&[&s], 1, term, ws.scratch(), &mut outs)
            })
        });
        assert_eq!(outs[0], outs[1]);
        count
    };
    assert_eq!(pair(&hs), 2 + 1);
    assert_eq!(pair(&copies), 2 * (2 + 1));
}
