//! Serving-layer proptests (ISSUE 6): the admission conservation law —
//! `completed + rejected + shed == generated`, with
//! `admitted == completed + shed` — must hold for every traffic shape,
//! queue bound, shed policy, balance mode, and fault plan; and the
//! percentile sink must stay monotone (p50 ≤ p99 ≤ p999 ≤ max).

use madness_cluster::cluster::ClusterSim;
use madness_cluster::network::NetworkModel;
use madness_cluster::node::{NodeParams, NodeSim, ResourceMode};
use madness_cluster::serve::{
    LatencyStats, RateProfile, ServeConfig, ShedPolicy, SurvivalConfig, TenantSpec,
};
use madness_cluster::workload::WorkloadSpec;
use madness_cluster::BalanceMode;
use madness_faults::{FaultPlan, RecoveryPolicy};
use madness_gpusim::SimTime;
use madness_runtime::TenantId;
use madness_trace::NullRecorder;
use proptest::prelude::*;

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        d: 3,
        k: 10,
        rank: 100,
        rr_mean_rank: None,
    }
}

fn sim() -> ClusterSim {
    ClusterSim::new(NodeSim::new(NodeParams::default()), NetworkModel::default())
}

const HYBRID: ResourceMode = ResourceMode::TABLE1_HYBRID;

fn profile(idx: u8, rate: f64) -> RateProfile {
    match idx % 3 {
        0 => RateProfile::Poisson { rate },
        1 => RateProfile::OnOff {
            rate_on: rate * 2.0,
            rate_off: rate / 4.0,
            period: SimTime::from_millis(7),
            duty: 0.5,
        },
        _ => RateProfile::Diurnal {
            base: rate,
            amplitude: rate / 2.0,
            period: SimTime::from_millis(13),
        },
    }
}

fn bmode(idx: u8) -> BalanceMode {
    match idx % 3 {
        0 => BalanceMode::Static,
        1 => BalanceMode::Steal {
            min_batch: 60,
            max_inflight: 8,
        },
        _ => BalanceMode::Repartition { epochs: 3 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation under arbitrary traffic, admission bounds, shed
    /// policies, balance modes, and a straggler plan: every generated
    /// request leaves the system exactly once, and only admitted
    /// requests ever complete or shed.
    #[test]
    fn admission_conserves_requests(
        seed in any::<u64>(),
        rho in 0.2f64..2.5,
        nodes in 2usize..6,
        capacity in 8usize..4096,
        profile_a in 0u8..3,
        profile_b in 0u8..3,
        mode_idx in 0u8..3,
        drop_oldest in any::<bool>(),
        straggler in 1.0f64..3.0,
    ) {
        let s = sim();
        let rate = s.node().calibrate(
            &spec(),
            HYBRID,
            &FaultPlan::none(),
            RecoveryPolicy::default(),
        );
        let total = rho * nodes as f64 / (rate.per_task.as_secs_f64() * 4.0).max(1e-12);
        let cfg = ServeConfig {
            spec: spec(),
            tenants: vec![
                TenantSpec {
                    id: TenantId(1),
                    weight: 3.0,
                    deadline: SimTime::from_millis(5),
                    profile: profile(profile_a, total / 2.0),
                    tasks_per_request: 4,
                },
                TenantSpec {
                    id: TenantId(2),
                    weight: 1.0,
                    deadline: SimTime::from_millis(20),
                    profile: profile(profile_b, total / 2.0),
                    tasks_per_request: 2,
                },
            ],
            nodes,
            seed,
            horizon: SimTime::from_millis(20),
            queue_capacity: capacity,
            shed: if drop_oldest { ShedPolicy::DropOldest } else { ShedPolicy::RejectNew },
            kinds_per_tenant: 3,
        };
        let mut plans = vec![FaultPlan::none(); nodes];
        plans[0] = FaultPlan::none().with_straggler(straggler);
        let report = s.run_served_survivable(
            &cfg,
            HYBRID,
            bmode(mode_idx),
            &plans,
            RecoveryPolicy::default(),
            &SurvivalConfig::default(),
            &mut NullRecorder,
        );
        prop_assert!(report.conserved(), "conservation violated: {report:?}");
        prop_assert_eq!(report.admitted, report.completed + report.shed);
        prop_assert_eq!(
            report.generated,
            report.admitted + report.rejected
        );
        // Per-tenant accounting sums to the cluster totals.
        let by_tenant: u64 = report.tenants.iter().map(|t| t.generated).sum();
        prop_assert_eq!(by_tenant, report.generated);
        let completed: u64 = report.tenants.iter().map(|t| t.completed).sum();
        prop_assert_eq!(completed, report.completed);
        // RejectNew never sheds admitted work.
        if !drop_oldest {
            prop_assert_eq!(report.shed, 0);
        }
        for t in &report.tenants {
            prop_assert!((0.0..=1.0).contains(&t.slo_attainment));
            prop_assert_eq!(t.generated, t.completed + t.rejected + t.shed);
        }
    }

    /// The percentile sink's `ceil/clamp` rank arithmetic matches a
    /// naive nearest-rank reference — the smallest sorted value whose
    /// empirical CDF reaches q — for every quantile the report uses,
    /// including the n = 1 and n = 2 populations where the index
    /// arithmetic sits right on its clamp boundaries.
    #[test]
    fn percentiles_match_naive_nearest_rank(
        ns in proptest::collection::vec(0u64..10_000_000, 1..400),
    ) {
        // Naive reference: first sorted element with rank/n ≥ q.
        fn naive(sorted: &[u64], q: f64) -> u64 {
            let n = sorted.len();
            for (i, &v) in sorted.iter().enumerate() {
                if (i + 1) as f64 / n as f64 >= q {
                    return v;
                }
            }
            sorted[n - 1]
        }
        let stats = LatencyStats::from_sojourns(ns.clone());
        let mut sorted = ns;
        sorted.sort_unstable();
        prop_assert_eq!(stats.p50, SimTime::from_nanos(naive(&sorted, 0.50)));
        prop_assert_eq!(stats.p99, SimTime::from_nanos(naive(&sorted, 0.99)));
        prop_assert_eq!(stats.p999, SimTime::from_nanos(naive(&sorted, 0.999)));
    }

    /// Selection reads the same order statistics a full sort does:
    /// the whole `LatencyStats` equals the sort-based nearest-rank
    /// reference on populations full of ties and at the lengths where
    /// q·n lands on an integer (1, 100, 200, 1,000, 2,000).
    #[test]
    fn percentiles_by_selection_equal_the_sorted_reference(
        raw in proptest::collection::vec(any::<u64>(), 1..2400),
        distinct in prop_oneof![Just(3u64), Just(40), Just(5_000_000)],
        len in prop_oneof![Just(Some(1usize)), Just(Some(100)), Just(Some(200)), Just(Some(1000)), Just(Some(2000)), Just(None)],
    ) {
        // Exactly `len` values (`None`: as many as drawn), recycling
        // `raw` when it is short.
        let len = len.unwrap_or(raw.len());
        let mut ns: Vec<u64> = raw.iter().cycle().take(len).map(|x| x % distinct).collect();
        let stats = LatencyStats::from_sojourns(ns.clone());
        ns.sort_unstable();
        let n = ns.len();
        let rank = |q: f64| SimTime::from_nanos(ns[((q * n as f64).ceil() as usize).clamp(1, n) - 1]);
        let sorted = LatencyStats {
            count: n as u64,
            p50: rank(0.50),
            p99: rank(0.99),
            p999: rank(0.999),
            max: SimTime::from_nanos(ns[n - 1]),
            mean: SimTime::from_nanos((ns.iter().sum::<u64>() as f64 / n as f64).round() as u64),
        };
        prop_assert_eq!(stats, sorted);
    }

    /// Tiny populations pin the clamp boundary exactly: with one sample
    /// every percentile is that sample; with two, the median is the
    /// first and the tails are the second.
    #[test]
    fn percentiles_tiny_populations(a in 0u64..1_000_000, b in 0u64..1_000_000) {
        let one = LatencyStats::from_sojourns(vec![a]);
        prop_assert_eq!(one.p50, SimTime::from_nanos(a));
        prop_assert_eq!(one.p99, SimTime::from_nanos(a));
        prop_assert_eq!(one.p999, SimTime::from_nanos(a));
        prop_assert_eq!(one.max, SimTime::from_nanos(a));

        let (lo, hi) = (a.min(b), a.max(b));
        let two = LatencyStats::from_sojourns(vec![a, b]);
        // ⌈0.5·2⌉ = 1 → first sample; ⌈0.99·2⌉ = 2 → second.
        prop_assert_eq!(two.p50, SimTime::from_nanos(lo));
        prop_assert_eq!(two.p99, SimTime::from_nanos(hi));
        prop_assert_eq!(two.p999, SimTime::from_nanos(hi));
        prop_assert_eq!(two.max, SimTime::from_nanos(hi));
    }

    /// The percentile sink is monotone in its quantiles and bounded by
    /// the extremes of the population.
    #[test]
    fn percentiles_are_monotone(ns in proptest::collection::vec(0u64..10_000_000, 1..400)) {
        let mut ns = ns;
        let stats = LatencyStats::from_sojourns(ns.clone());
        prop_assert_eq!(stats.count as usize, ns.len());
        prop_assert!(stats.p50 <= stats.p99);
        prop_assert!(stats.p99 <= stats.p999);
        prop_assert!(stats.p999 <= stats.max);
        ns.sort_unstable();
        prop_assert_eq!(stats.max, SimTime::from_nanos(*ns.last().unwrap()));
        prop_assert!(stats.p50 >= SimTime::from_nanos(ns[0]));
        prop_assert!(stats.mean <= stats.max);
        prop_assert!(stats.mean >= SimTime::from_nanos(ns[0]));
    }
}
