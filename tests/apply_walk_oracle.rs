//! The walk is the batched Apply's oracle, bit for bit, on random trees.
//!
//! An exact run (`rank_reduce_eps = None`) of `apply_batched` gives
//! `apply_cpu_reference`'s tree bit for bit, for every resource,
//! `max_batch` and executor width (DESIGN §7). `apply_goldens` pins two
//! fixed trees; this draws seeded coefficient trees — d = 3 under
//! `SeparatedConvolution::coulomb` at a drawn precision, d = 4 under
//! `gaussian_sum` at a drawn rank — a resource and a `max_batch`, and
//! checks the tree and the stats laws:
//!
//! - `cpu_tasks + gpu_tasks = tasks` = the walk's task count, the live
//!   displacements of every source (`Cpu` prices nothing on the device,
//!   `Gpu` nothing on the host), and `= scenario::count_tasks`, the count
//!   every simulator takes;
//! - `batches = Σ ⌈n_kind ⁄ max_batch⌉` on every arm, a kind being a tree
//!   level, since every arm cuts its batches in task order;
//! - `chunks ≥` the number of levels with tasks, and `≥ 1`: a level's
//!   tasks are spawned whole before the next level's start, so no chunk
//!   holds two kinds.
//!
//! (`CoulombApp::synthetic` trees carry no coefficients, so they would
//! compare nothing.) CI runs it under `RAYON_NUM_THREADS=1` as well, and
//! in release with debug assertions.

use madness::core::apply::{apply_batched, apply_cpu_reference, ApplyConfig, ApplyResource};
use madness::core::scenario::{count_tasks, random_centers};
use madness::mra::convolution::SeparatedConvolution;
use madness::mra::key::Key;
use madness::mra::synth::{synthesize_tree, SynthTreeParams};
use madness::mra::tree::FunctionTree;
use madness::runtime::BatcherConfig;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Every node's key and coefficient bits, in key order.
fn bits(tree: &FunctionTree) -> Vec<(Key, Option<Vec<u64>>)> {
    let of = |key: &Key| {
        let coeffs = tree.get(key).and_then(|n| n.coeffs.as_ref());
        coeffs.map(|t| t.as_slice().iter().map(|x| x.to_bits()).collect())
    };
    tree.sorted_keys()
        .iter()
        .map(|key| (*key, of(key)))
        .collect()
}

/// The walk's tasks per tree level: every source's live displacements.
fn tasks_per_level(op: &SeparatedConvolution, tree: &FunctionTree) -> BTreeMap<u8, u64> {
    let displacements = op.displacements();
    let mut per_level = BTreeMap::new();
    for (key, _) in tree.leaves() {
        let live = displacements
            .iter()
            .filter(|disp| key.neighbor(&disp.delta).is_some());
        *per_level.entry(key.level()).or_default() += live.count() as u64;
    }
    per_level
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn batched_apply_is_the_walk_bit_for_bit(
        shape in prop_oneof![(3usize..4, 2usize..7), (4usize..5, 2usize..4)],
        leaves in 16usize..160,
        seed in any::<u64>(),
        level_decay in 0.4f64..0.9,
        precision_exp in 2.0f64..6.0,
        rank in 1usize..6,
        resource in prop_oneof![
            Just(ApplyResource::Cpu),
            Just(ApplyResource::Gpu),
            Just(ApplyResource::Hybrid),
            Just(ApplyResource::Adaptive),
        ],
        max_batch in 1usize..81,
    ) {
        let (d, k) = shape;
        let tree = synthesize_tree(d, k, &SynthTreeParams {
            target_leaves: leaves,
            centers: random_centers(seed, 3, d, 0.2, 0.8),
            width: 0.1,
            level_decay,
            seed,
            with_coeffs: true,
        });
        let op = if d == 3 {
            SeparatedConvolution::coulomb(d, k, 10f64.powf(-precision_exp), 1e-2)
        } else {
            SeparatedConvolution::gaussian_sum(d, k, rank, 1.0, 100.0)
        };
        let config = ApplyConfig {
            resource,
            batch: BatcherConfig {
                max_batch,
                ..BatcherConfig::default()
            },
            ..ApplyConfig::default()
        };
        let (batched, stats) = apply_batched(&op, &tree, &config);
        prop_assert!(bits(&batched) == bits(&apply_cpu_reference(&op, &tree)), "tree bits differ");

        let per_level = tasks_per_level(&op, &tree);
        let tasks: u64 = per_level.values().sum();
        prop_assert_eq!(stats.tasks, tasks);
        prop_assert_eq!(count_tasks(&tree, &op.displacements()), tasks);
        prop_assert_eq!(stats.cpu_tasks + stats.gpu_tasks, tasks);
        match resource {
            ApplyResource::Cpu => prop_assert_eq!(stats.gpu_tasks, 0),
            ApplyResource::Gpu => prop_assert_eq!(stats.cpu_tasks, 0),
            _ => {}
        }
        let formed: u64 = per_level.values().map(|n| n.div_ceil(max_batch as u64)).sum();
        prop_assert_eq!(stats.batches, formed);
        let kinds = per_level.values().filter(|&&n| n > 0).count();
        prop_assert!(stats.chunks >= kinds as u64);
        prop_assert!(stats.chunks >= 1);
    }
}
