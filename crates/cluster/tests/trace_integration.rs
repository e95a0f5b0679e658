//! Integration tests of the trace instrumentation wired through the
//! node and cluster simulators.
//!
//! The acceptance bar for the observability layer:
//!
//! 1. recording never perturbs the simulation — the traced signature
//!    with either recorder yields bit-identical reports to `simulate`;
//! 2. journals are deterministic — same spec, same journal, byte for
//!    byte;
//! 3. the sweep-line breakdown tiles exactly `[0, total)`;
//! 4. a real journal survives a JSON round-trip;
//! 5. the traced cluster run matches `run` and journals network
//!    injection.

use madness_cluster::cluster::{ClusterReport, ClusterSim};
use madness_cluster::network::NetworkModel;
use madness_cluster::node::{NodeParams, NodeReport, NodeSim, ResourceMode};
use madness_cluster::workload::{TaskPopulation, WorkloadSpec};
use madness_faults::{FaultPlan, RecoveryPolicy};
use madness_gpusim::KernelKind;
use madness_trace::{MemRecorder, NullRecorder, Recorder, Stage};

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        d: 3,
        k: 10,
        rank: 100,
        rr_mean_rank: None,
    }
}

/// 500 fault-free tasks through the traced signature.
fn traced<R: Recorder>(node: &NodeSim, mode: ResourceMode, rec: &mut R) -> NodeReport {
    let (report, _) = node.simulate_faulty(
        &spec(),
        500,
        mode,
        &FaultPlan::none(),
        RecoveryPolicy::default(),
        rec,
    );
    report
}

fn modes() -> [ResourceMode; 3] {
    [
        ResourceMode::CpuOnly { threads: 16 },
        ResourceMode::GpuOnly {
            streams: 5,
            kernel: KernelKind::CustomMtxmq,
            data_threads: 12,
        },
        ResourceMode::Hybrid {
            compute_threads: 10,
            data_threads: 5,
            streams: 5,
            kernel: KernelKind::CustomMtxmq,
        },
    ]
}

/// `NodeReport` has no `PartialEq`; compare every field exactly
/// (floats by bit pattern — "identical" here means identical).
fn assert_reports_identical(a: &NodeReport, b: &NodeReport, what: &str) {
    assert_eq!(a.total.as_nanos(), b.total.as_nanos(), "{what}: total");
    assert_eq!(
        a.cpu_compute.as_nanos(),
        b.cpu_compute.as_nanos(),
        "{what}: cpu_compute"
    );
    assert_eq!(
        a.gpu_busy.as_nanos(),
        b.gpu_busy.as_nanos(),
        "{what}: gpu_busy"
    );
    assert_eq!(
        a.data_busy.as_nanos(),
        b.data_busy.as_nanos(),
        "{what}: data_busy"
    );
    assert_eq!(
        a.dispatch_busy.as_nanos(),
        b.dispatch_busy.as_nanos(),
        "{what}: dispatch_busy"
    );
    assert_eq!(a.n_batches, b.n_batches, "{what}: n_batches");
    assert_eq!(
        a.mean_split_k.to_bits(),
        b.mean_split_k.to_bits(),
        "{what}: mean_split_k"
    );
}

#[test]
fn recording_does_not_perturb_results() {
    let node = NodeSim::new(NodeParams::default());
    for mode in modes() {
        let plain = node.simulate(&spec(), 500, mode);
        let with_null = traced(&node, mode, &mut NullRecorder);
        let mut mem = MemRecorder::new();
        let with_mem = traced(&node, mode, &mut mem);
        assert_reports_identical(&plain, &with_null, "NullRecorder");
        assert_reports_identical(&plain, &with_mem, "MemRecorder");
    }
}

#[test]
fn journals_are_deterministic() {
    let node = NodeSim::new(NodeParams::default());
    for mode in modes() {
        let mut a = MemRecorder::new();
        let mut b = MemRecorder::new();
        traced(&node, mode, &mut a);
        traced(&node, mode, &mut b);
        assert_eq!(a.to_json(), b.to_json(), "journal must be reproducible");
    }
}

#[test]
fn breakdown_tiles_the_whole_timeline() {
    let node = NodeSim::new(NodeParams::default());
    for mode in modes() {
        let mut rec = MemRecorder::new();
        let report = traced(&node, mode, &mut rec);
        let bd = rec.breakdown(report.total.as_nanos());
        assert_eq!(bd.attributed_total_ns(), report.total.as_nanos());
        let sum: u64 = bd.nonzero().iter().map(|&(_, ns)| ns).sum();
        assert_eq!(sum + bd.unattributed_ns, report.total.as_nanos());
    }
}

#[test]
fn real_journal_round_trips_through_json() {
    let node = NodeSim::new(NodeParams::default());
    let mut rec = MemRecorder::new();
    traced(
        &node,
        ResourceMode::Hybrid {
            compute_threads: 10,
            data_threads: 5,
            streams: 5,
            kernel: KernelKind::CustomMtxmq,
        },
        &mut rec,
    );
    assert!(rec.spans().count() > 0);
    let json = rec.to_json();
    let back = MemRecorder::from_json(&json).expect("exported journal parses");
    assert_eq!(back.to_json(), json, "round-trip must be byte-identical");
    assert_eq!(back.spans().count(), rec.spans().count());
    let counters_a: Vec<_> = back.metrics().counters().collect();
    let counters_b: Vec<_> = rec.metrics().counters().collect();
    assert_eq!(counters_a, counters_b);
}

#[test]
fn traced_cluster_run_matches_run_and_journals_network() {
    let sim = ClusterSim::new(NodeSim::new(NodeParams::default()), NetworkModel::default());
    let pop = TaskPopulation::even(spec(), 2_000, 4);
    let mode = ResourceMode::Hybrid {
        compute_threads: 10,
        data_threads: 5,
        streams: 5,
        kernel: KernelKind::CustomMtxmq,
    };
    let plain: ClusterReport = sim.run(&pop, mode);
    let mut rec = MemRecorder::new();
    let (traced, _) = sim.run_with_faults(&pop, mode, &[], RecoveryPolicy::default(), &mut rec);
    assert_eq!(plain.total.as_nanos(), traced.total.as_nanos());
    assert_eq!(plain.slowest_node, traced.slowest_node);
    assert_eq!(
        plain.network_time.as_nanos(),
        traced.network_time.as_nanos()
    );
    assert_eq!(plain.total_tasks, traced.total_tasks);
    assert_eq!(plain.nodes.len(), traced.nodes.len());
    for (a, b) in plain.nodes.iter().zip(traced.nodes.iter()) {
        assert_reports_identical(a, b, "cluster node");
    }
    // Default remote_fraction is 0.3, so every node injects traffic and
    // must journal a NetSend event plus the send counters.
    let n_nodes = pop.per_node.len();
    let sends = rec.points().filter(|e| e.stage == Stage::NetSend).count();
    assert_eq!(sends, n_nodes);
    let result_bytes = 8 * (spec().k as u64).pow(spec().d as u32);
    let (msgs, _, _) = NetworkModel::default().injection(2_000 / 4, result_bytes);
    assert_eq!(
        rec.metrics().counter("net_msgs_sent"),
        msgs * n_nodes as u64
    );
}
