//! The learned dispatcher must rediscover the static optimum.
//!
//! `ResourceMode::Hybrid` is *told* the batch times `m` and `n` (from the
//! calibrated models) and splits at `k* = n/(m+n)`. The adaptive mode
//! measures instead. These tests pin the paper-level claim: on the
//! Table I workload the online feedback loop converges, within a handful
//! of flushes, to a split whose makespan is within 10 % of the
//! model-informed dispatcher's — without ever consulting the models.

use madness_cluster::node::{NodeParams, NodeSim, ResourceMode};
use madness_cluster::workload::WorkloadSpec;
use madness_faults::{FaultPlan, RecoveryPolicy};
use madness_gpusim::KernelKind;
use madness_trace::MemRecorder;

fn table1_spec() -> WorkloadSpec {
    WorkloadSpec {
        d: 3,
        k: 10,
        rank: 100,
        rr_mean_rank: None,
    }
}

fn static_mode() -> ResourceMode {
    ResourceMode::Hybrid {
        compute_threads: 10,
        data_threads: 5,
        streams: 5,
        kernel: KernelKind::CustomMtxmq,
    }
}

fn adaptive_mode() -> ResourceMode {
    ResourceMode::AdaptiveHybrid {
        compute_threads: 10,
        data_threads: 5,
        streams: 5,
        kernel: KernelKind::CustomMtxmq,
    }
}

#[test]
fn adaptive_converges_to_within_10pct_of_the_static_optimum() {
    let sim = NodeSim::new(NodeParams::default());
    let spec = table1_spec();
    let n_tasks = 24_000; // Table I scale: 400 flushes of 60

    let informed = sim.simulate(&spec, n_tasks, static_mode());
    let learned = sim.simulate(&spec, n_tasks, adaptive_mode());

    let ratio = learned.total.as_secs_f64() / informed.total.as_secs_f64();
    assert!(
        ratio <= 1.10,
        "adaptive makespan {} is {ratio:.3}× the model-informed {}",
        learned.total,
        informed.total
    );
    assert!(learned.cpu_compute.as_nanos() > 0, "CPU side never engaged");
    assert!(learned.gpu_busy.as_nanos() > 0, "GPU side never engaged");
}

#[test]
fn adaptive_trajectory_probes_then_settles_near_static_k() {
    let sim = NodeSim::new(NodeParams::default());
    let spec = table1_spec();
    let n_tasks = 6_000; // 100 flushes

    let informed = sim.simulate(&spec, n_tasks, static_mode());
    let mut rec = MemRecorder::new();
    let (learned, _) = sim.simulate_faulty(
        &spec,
        n_tasks,
        adaptive_mode(),
        &FaultPlan::none(),
        RecoveryPolicy::default(),
        &mut rec,
    );

    let history = rec.metrics().dispatch_history();
    assert_eq!(history.len() as u64, learned.n_batches);
    assert!(history[0].probe, "first flush must be the 50/50 probe");
    assert!(
        (history[0].k - 0.5).abs() < 1e-12,
        "probe splits down the middle"
    );
    assert!(
        history.iter().skip(1).all(|s| !s.probe),
        "one flush measures both sides of a homogeneous workload"
    );

    // Settled: the last flushes sit within 10 % (in split units) of the
    // static dispatcher's mean k, with live cost estimates behind them.
    let settled = &history[history.len() - 10..];
    for s in settled {
        assert!(
            (s.k - informed.mean_split_k).abs() < 0.1,
            "settled k {} vs static k* {}",
            s.k,
            informed.mean_split_k
        );
        assert!(s.m_hat_ns > 0.0 && s.n_hat_ns > 0.0);
    }

    // The journal round-trips with the trajectory intact.
    let json = rec.to_json();
    let back = MemRecorder::from_json(&json).expect("round-trip");
    assert_eq!(back.metrics().dispatch_history(), history);
}

#[test]
fn adaptive_mode_works_through_the_cluster_layer() {
    use madness_cluster::cluster::ClusterSim;
    use madness_cluster::network::NetworkModel;
    use madness_cluster::workload::TaskPopulation;

    let sim = ClusterSim::new(NodeSim::new(NodeParams::default()), NetworkModel::default());
    let pop = TaskPopulation::even(table1_spec(), 40_000, 8);
    let informed = sim.run(&pop, static_mode());
    let learned = sim.run(&pop, adaptive_mode());
    assert_eq!(learned.total_tasks, 40_000);
    let ratio = learned.total.as_secs_f64() / informed.total.as_secs_f64();
    assert!(
        ratio <= 1.10,
        "cluster adaptive {ratio:.3}× the model-informed makespan"
    );
}
