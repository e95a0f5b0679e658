//! Property tests for the adaptive dispatcher's safety invariants.
//!
//! Whatever the measurements say — noisy, degenerate, adversarial — every
//! plan must conserve the batch (`cpu + gpu == total`) and keep the
//! continuous share inside `[0, 1]`.

use madness_runtime::{AdaptiveConfig, AdaptiveDispatcher, TaskKind};
use proptest::prelude::*;

const KIND: TaskKind = TaskKind::new(0xA991, 3);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary measurement noise (including zero-ns degenerate samples
    /// and huge outliers) never breaks task conservation or the k range.
    #[test]
    fn split_conserves_tasks_under_arbitrary_noise(
        batches in proptest::collection::vec(
            (1usize..500, 0u64..10_000_000, 0u64..10_000_000),
            1..40,
        ),
    ) {
        let mut d = AdaptiveDispatcher::new(AdaptiveConfig::default());
        for (n_tasks, cpu_ns, gpu_ns) in batches {
            let dec = d.plan(KIND, n_tasks, 0);
            prop_assert_eq!(dec.plan.cpu_tasks + dec.plan.gpu_tasks, n_tasks);
            prop_assert!((0.0..=1.0).contains(&dec.k), "k = {} out of range", dec.k);
            let m = d.model(KIND).expect("planned");
            prop_assert!(m.m_hat_ns >= 0.0 && m.n_hat_ns >= 0.0);
            prop_assert!(m.m_hat_ns.is_finite() && m.n_hat_ns.is_finite());
            d.record(KIND, dec.plan.cpu_tasks, cpu_ns, dec.plan.gpu_tasks, gpu_ns);
        }
    }

    /// Consecutive steady-state decisions never move k by more than the
    /// configured hysteresis step, no matter how wild the measurements.
    #[test]
    fn hysteresis_holds_under_noise(
        samples in proptest::collection::vec((0u64..100_000_000, 0u64..100_000_000), 2..30),
    ) {
        let cfg = AdaptiveConfig::default();
        let mut d = AdaptiveDispatcher::new(cfg);
        // Leave probe phase first.
        let dec = d.plan(KIND, 10, 0);
        d.record(KIND, dec.plan.cpu_tasks.max(1), 1_000, dec.plan.gpu_tasks.max(1), 1_000);
        let mut prev_k = None;
        for (cpu_ns, gpu_ns) in samples {
            let dec = d.plan(KIND, 10, 0);
            if let Some(p) = prev_k {
                let step: f64 = dec.k - p;
                prop_assert!(
                    step.abs() <= cfg.max_step + 1e-12,
                    "step {} exceeds max_step {}", step.abs(), cfg.max_step
                );
            }
            prev_k = Some(dec.k);
            d.record(KIND, dec.plan.cpu_tasks, cpu_ns, dec.plan.gpu_tasks, gpu_ns);
        }
    }
}

/// Empty batches are legal and always plan (0, 0).
#[test]
fn empty_batches_plan_nothing() {
    let mut d = AdaptiveDispatcher::new(AdaptiveConfig::default());
    let dec = d.plan(KIND, 0, 0);
    assert_eq!((dec.plan.cpu_tasks, dec.plan.gpu_tasks), (0, 0));
}
