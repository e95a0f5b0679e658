//! Serving-layer determinism pins (ISSUE 6): a fixed seed replays the
//! request trace, the percentile report, and the trace journal
//! bit-identically; the journal round-trips through JSON; and the
//! serve/balance vocabularies interleave in one journal without
//! perturbing each other.

use madness_cluster::cluster::ClusterSim;
use madness_cluster::network::NetworkModel;
use madness_cluster::node::{NodeParams, NodeSim, ResourceMode};
use madness_cluster::serve::{
    generate_requests, RateProfile, ServeConfig, ServeReport, ShedPolicy, SurvivalConfig,
    TenantSpec,
};
use madness_cluster::workload::WorkloadSpec;
use madness_cluster::BalanceMode;
use madness_faults::{FaultPlan, RecoveryPolicy};
use madness_gpusim::SimTime;
use madness_runtime::TenantId;
use madness_trace::{MemRecorder, ServeOutcome, Stage};

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

const STEAL: BalanceMode = BalanceMode::PINNED_STEAL;

fn cfg(seed: u64) -> ServeConfig {
    let s = sim();
    let rate = s.node().calibrate(
        &spec(),
        HYBRID,
        &FaultPlan::none(),
        RecoveryPolicy::default(),
    );
    let total = 0.7 * 4.0 / (rate.per_task.as_secs_f64() * 4.0).max(1e-12);
    ServeConfig {
        spec: spec(),
        tenants: vec![
            TenantSpec {
                id: TenantId(1),
                weight: 4.0,
                deadline: SimTime::from_millis(5),
                profile: RateProfile::Poisson { rate: total / 2.0 },
                tasks_per_request: 4,
            },
            TenantSpec {
                id: TenantId(2),
                weight: 1.0,
                deadline: SimTime::from_millis(20),
                profile: RateProfile::OnOff {
                    rate_on: total,
                    rate_off: total / 10.0,
                    period: SimTime::from_millis(10),
                    duty: 0.4,
                },
                tasks_per_request: 4,
            },
        ],
        nodes: 4,
        seed,
        horizon: SimTime::from_millis(40),
        queue_capacity: 1 << 20,
        shed: ShedPolicy::RejectNew,
        kinds_per_tenant: 4,
    }
}

fn run(cfg: &ServeConfig) -> (ServeReport, MemRecorder) {
    let mut rec = MemRecorder::new();
    let report = sim().run_served(cfg, HYBRID, STEAL, &mut rec);
    (report, rec)
}

#[test]
fn fixed_seed_replays_bit_identically() {
    let c = cfg(0x0D15_EA5E);
    assert_eq!(
        generate_requests(&c),
        generate_requests(&c),
        "request trace must replay identically"
    );
    let (ra, ja) = run(&c);
    let (rb, jb) = run(&c);
    assert_eq!(ra, rb, "percentile report must replay identically");
    assert_eq!(
        ja.to_json(),
        jb.to_json(),
        "trace JSON must replay byte-identically"
    );
}

#[test]
fn different_seeds_diverge() {
    let (ra, _) = run(&cfg(1));
    let (rb, _) = run(&cfg(2));
    assert_ne!(ra, rb, "the seed must actually drive the traffic");
}

#[test]
fn journal_round_trips_through_json_with_serve_events() {
    let (report, rec) = run(&cfg(0xBEEF));
    let json = rec.to_json();
    let back = MemRecorder::from_json(&json).expect("serve journal must parse back");
    assert_eq!(back, rec, "JSON round-trip must be lossless");
    let events: Vec<_> = rec.serve_events().collect();
    assert_eq!(events.len() as u64, report.generated);
    assert_eq!(
        events
            .iter()
            .filter(|e| e.outcome == ServeOutcome::Completed)
            .count() as u64,
        report.completed
    );
    // Sojourn spans exist alongside the balance vocabulary and agree
    // with the per-event arithmetic.
    let sojourns: Vec<_> = rec.spans().filter(|s| s.stage == Stage::Sojourn).collect();
    assert_eq!(sojourns.len() as u64, report.completed);
    for e in events
        .iter()
        .filter(|e| e.outcome == ServeOutcome::Completed)
    {
        assert_eq!(e.sojourn_ns(), e.finished_ns - e.arrived_ns);
        assert!(e.started_ns >= e.arrived_ns);
        assert!(e.finished_ns >= e.started_ns);
    }
}

#[test]
fn faulted_run_still_replays_and_conserves() {
    let c = cfg(0xFA17);
    let mut plans = vec![FaultPlan::none(); 4];
    plans[1] = FaultPlan::none().with_straggler(2.0);
    let s = sim();
    let mut rec_a = MemRecorder::new();
    let a = s.run_served_survivable(
        &c,
        HYBRID,
        STEAL,
        &plans,
        RecoveryPolicy::default(),
        &SurvivalConfig::default(),
        &mut rec_a,
    );
    let mut rec_b = MemRecorder::new();
    let b = s.run_served_survivable(
        &c,
        HYBRID,
        STEAL,
        &plans,
        RecoveryPolicy::default(),
        &SurvivalConfig::default(),
        &mut rec_b,
    );
    assert_eq!(a, b);
    assert_eq!(rec_a.to_json(), rec_b.to_json());
    assert!(a.conserved());
    assert_eq!(a.completed + a.rejected + a.shed, a.generated);
}
