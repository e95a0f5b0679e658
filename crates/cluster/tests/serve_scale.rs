//! 1,024-node serving wall-clock pin (ISSUE 20): what a served request
//! costs the simulator must not grow with the node count. The
//! `sim-online` two-tenant traffic (Poisson + OnOff, ρ = 0.6, one kind
//! per tenant per node) is served under `Steal` on 64 and on 1,024
//! nodes, the horizon scaled by 64/nodes so both runs serve ≈ 190 k
//! requests. When every steal attempt walked all the nodes, the wide
//! run cost 15–20× the narrow one per request and took 3.8–6.6 s; with
//! victims read off the index of backlogged nodes it costs ≈ 3× and
//! ≈ 0.5 s. The bound is a ratio, so runner speed cancels and only a
//! return of the O(nodes) scan trips it.
//!
//! Measured by this test on the 2-vCPU sandbox (release, best of two
//! runs each): 64 nodes 642 ns/request, 1,024 nodes 2,097 ns/request
//! (0.41 s), ratio 3.3×; on the commit before the index: 1,258 ns,
//! 19,352 ns (3.8 s), 15.4× — it fails there. Across noisier sessions
//! the wide run ranged 1.9–3.3 µs/request here and 16–24 µs there.
//!
//! The overloaded case serves the same traffic at 3× load into a
//! bounded queue of 16 slots a node under `DropOldest` (≈ 190 k
//! requests each, most of them shed). Measured on a 2-vCPU Xeon, four
//! runs each: with sheds taken off the cluster-wide shed index,
//! 321–475 and 414–672 ns/request, 1.05–1.41×; with the scan of every
//! backlogged queue it replaced, 526–685 and 1,676–1,973 ns/request,
//! 2.4–3.2× — inside the bound, so this case guards the index against
//! a return of an O(nodes) walk rather than catching the scan it
//! replaced.
//!
//! Neither case guards the wake-up after a steal lands, which walks an
//! index of idle nodes instead of every node: checking every node stays
//! inside the bound. Three release runs each on a 2-vCPU Xeon: with
//! the index, 816–925 and 2,643–2,867 ns/request (3.1–3.3×) unloaded,
//! 440–470 and 584–589 (1.24–1.34×) overloaded; checking every node,
//! 950–969 and 3,314–3,716 (3.5–3.8×), 449–493 and 662–699
//! (1.34–1.56×). The debug oracle checks the idle index against every
//! node's state, and `engine_goldens`' `blocked_steals` pins check
//! which thieves the walk reaches.
//!
//! Wall-clock assertions do not belong in the default test run:
//!
//! ```bash
//! cargo test --release -p madness-cluster --test serve_scale -- --ignored
//! ```

use madness_cluster::cluster::ClusterSim;
use madness_cluster::network::NetworkModel;
use madness_cluster::node::{NodeParams, NodeSim, ResourceMode};
use madness_cluster::serve::{RateProfile, ServeConfig, ServeReport, ShedPolicy, TenantSpec};
use madness_cluster::workload::WorkloadSpec;
use madness_cluster::BalanceMode;
use madness_faults::{FaultPlan, RecoveryPolicy};
use madness_gpusim::SimTime;
use madness_runtime::TenantId;
use madness_trace::NullRecorder;
use std::time::{Duration, Instant};

const HYBRID: ResourceMode = ResourceMode::TABLE1_HYBRID;
const STEAL: BalanceMode = BalanceMode::Steal {
    min_batch: 60,
    max_inflight: 8,
};
const TASKS_PER_REQUEST: u64 = 4;
/// Arrival horizon at 64 nodes; wider clusters get proportionally less.
const HORIZON_64: SimTime = SimTime::from_millis(2_000);
const MAX_RATIO: f64 = 8.0;
const BUDGET: Duration = Duration::from_secs(5);
/// Bounded-queue slots per node in the overloaded case (`sim-chaos`'s).
const OVERLOAD_SLOTS_PER_NODE: usize = 16;

/// The two-tenant traffic at `load` × the calibrated capacity of
/// `nodes`, over a horizon that keeps the request count at what ρ = 0.6
/// on 64 nodes generates (≈ 190 k).
fn config(sim: &ClusterSim, nodes: usize, load: f64) -> ServeConfig {
    let spec = WorkloadSpec {
        d: 3,
        k: 10,
        rank: 100,
        rr_mean_rank: None,
    };
    let policy = RecoveryPolicy::default();
    let rate = sim
        .node()
        .calibrate(&spec, HYBRID, &FaultPlan::none(), policy);
    let per_request = rate.per_task.as_secs_f64() * TASKS_PER_REQUEST as f64;
    let total = load * nodes as f64 / per_request;
    let tenant = |id, weight, deadline_ms, profile| TenantSpec {
        id: TenantId(id),
        weight,
        deadline: SimTime::from_millis(deadline_ms),
        profile,
        tasks_per_request: TASKS_PER_REQUEST,
    };
    ServeConfig {
        spec,
        tenants: vec![
            tenant(1, 4.0, 5, RateProfile::Poisson { rate: total / 2.0 }),
            tenant(
                2,
                1.0,
                20,
                RateProfile::OnOff {
                    rate_on: 0.75 * total,
                    rate_off: 0.25 * total,
                    period: SimTime::from_millis(50),
                    duty: 0.5,
                },
            ),
        ],
        nodes,
        seed: 0x0020_12C1,
        horizon: HORIZON_64 * 64u64 / nodes as u64 * (0.6 / load),
        queue_capacity: 1 << 20,
        shed: ShedPolicy::RejectNew,
        kinds_per_tenant: nodes as u64,
    }
}

/// Serves `cfg` twice; returns the report and the best wall-clock.
fn serve(sim: &ClusterSim, cfg: &ServeConfig) -> (ServeReport, Duration) {
    let nodes = cfg.nodes;
    let mut best: Option<(ServeReport, Duration)> = None;
    for _ in 0..2 {
        let t0 = Instant::now();
        let r = sim.run_served(cfg, HYBRID, STEAL, &mut NullRecorder);
        let took = t0.elapsed();
        assert!(r.conserved(), "{nodes} nodes: {r:?}");
        assert!(
            r.generated > 150_000,
            "{nodes} nodes: {} requests",
            r.generated
        );
        if best.as_ref().is_none_or(|(_, b)| took < *b) {
            best = Some((r, took));
        }
    }
    best.expect("ran twice")
}

/// Serves `config(nodes)` on 64 and on 1,024 nodes, `check`s both
/// reports, and bounds what a request costs on the wide cluster by
/// [`MAX_RATIO`] × its cost on the narrow one and the wide run by
/// [`BUDGET`].
fn assert_cost_flat(
    config: impl Fn(&ClusterSim, usize) -> ServeConfig,
    check: impl Fn(usize, &ServeReport),
) {
    let sim = ClusterSim::new(NodeSim::new(NodeParams::default()), NetworkModel::default());
    let per_request = |nodes: usize| {
        let (report, took) = serve(&sim, &config(&sim, nodes));
        check(nodes, &report);
        let requests = report.generated;
        let ns = took.as_nanos() as f64 / requests as f64;
        println!("{nodes} nodes: {requests} requests in {took:?} = {ns:.0} ns/request");
        (ns, took)
    };
    let (narrow, _) = per_request(64);
    let (wide, took) = per_request(1024);
    assert!(
        wide <= MAX_RATIO * narrow,
        "a request costs {wide:.0} ns on 1,024 nodes, {:.1}x the {narrow:.0} ns on 64 \
         (bound {MAX_RATIO}x): something in the serving loop walks every node again",
        wide / narrow
    );
    assert!(
        took < BUDGET,
        "1,024 nodes took {took:?} (budget {BUDGET:?})"
    );
}

#[test]
#[ignore = "wall-clock ratio; run in release with --ignored (CI serve smoke)"]
fn a_request_costs_the_same_on_1024_nodes_as_on_64() {
    assert_cost_flat(
        |sim, nodes| config(sim, nodes, 0.6),
        |nodes, r| {
            assert_eq!(r.completed, r.generated, "{nodes} nodes dropped work");
            assert!(r.steals > 0, "{nodes} nodes never stole");
        },
    );
}

#[test]
#[ignore = "wall-clock ratio; run in release with --ignored (CI serve smoke)"]
fn an_overloaded_drop_oldest_request_costs_the_same_on_1024_nodes_as_on_64() {
    let overloaded = |sim: &ClusterSim, nodes| ServeConfig {
        queue_capacity: OVERLOAD_SLOTS_PER_NODE * nodes,
        shed: ShedPolicy::DropOldest,
        ..config(sim, nodes, 3.0)
    };
    assert_cost_flat(overloaded, |nodes, r| {
        assert!(r.shed > 0, "{nodes} nodes never shed");
    });
}
