//! The `tablegen serve` report: online serving under arrival-process
//! traffic, with multi-tenant SLO queueing and exact tail percentiles.
//!
//! The pinned workload is two Poisson tenants — a weight-4 "interactive"
//! tenant with a tight deadline and a weight-1 "batch" tenant — loading
//! a 4-node cluster to 0.7× its calibrated capacity, with requests
//! placed by data affinity (each `TaskKind` lives on one home node), so
//! hot kinds make hot nodes. The mode matrix runs `Static`, `Steal`,
//! and `Steal` with a straggler plan; the gates CI pins:
//!
//! * `weighted_p99_better` — weighted stealing gives the high-weight
//!   tenant a strictly better p99 than `Static` on the same trace;
//! * `replay_identical` — re-running the steal row with the same seed
//!   reproduces the report *and* the trace JSON byte-for-byte;
//! * `conserved` — `completed + rejected + shed == generated` in every
//!   row (the fault row included);
//! * `tail_holds_under_faults` — a straggler inflates p999, it never
//!   loses requests.

use madness_cluster::cluster::ClusterSim;
use madness_cluster::network::NetworkModel;
use madness_cluster::node::{NodeParams, NodeSim, ResourceMode};
use madness_cluster::serve::{
    RateProfile, ServeConfig, ServeReport, ShedPolicy, SurvivalConfig, TenantSpec,
};
use madness_cluster::workload::WorkloadSpec;
use madness_cluster::BalanceMode;
use madness_faults::{FaultPlan, RecoveryPolicy};
use madness_gpusim::{KernelKind, SimTime};
use madness_runtime::TenantId;
use madness_trace::{MemRecorder, NullRecorder};

/// The interactive (high-weight) tenant.
pub const HEAVY: TenantId = TenantId(1);
/// The batch (low-weight) tenant.
pub const LIGHT: TenantId = TenantId(2);

/// One `(mode, traffic)` outcome of the serving matrix.
#[derive(Clone, Debug)]
pub struct ServeRow {
    /// Mode label (`static` / `steal` / `steal+straggler`).
    pub mode: &'static str,
    /// The full serving outcome.
    pub report: ServeReport,
}

/// The `tablegen serve` report.
#[derive(Clone, Debug)]
pub struct ServeBenchReport {
    /// Nodes in the simulated cluster.
    pub nodes: usize,
    /// Aggregate offered load, requests/s.
    pub rate_req_s: f64,
    /// Offered load as a fraction of calibrated cluster capacity.
    pub rho: f64,
    /// Arrival horizon (seconds).
    pub horizon_s: f64,
    /// One row per mode.
    pub rows: Vec<ServeRow>,
    /// Re-running the steal row with the same seed reproduced the
    /// report and the trace JSON byte-for-byte.
    pub replay_identical: bool,
}

impl ServeBenchReport {
    fn row(&self, mode: &str) -> &ServeRow {
        self.rows
            .iter()
            .find(|r| r.mode == mode)
            .expect("mode matrix is fixed")
    }

    /// The headline contract: weighted stealing gives the high-weight
    /// tenant a strictly better p99 than `Static` on the same trace.
    pub fn weighted_p99_better(&self) -> bool {
        let stat = self
            .row("static")
            .report
            .tenant(HEAVY)
            .map(|t| t.latency.p99);
        let steal = self
            .row("steal")
            .report
            .tenant(HEAVY)
            .map(|t| t.latency.p99);
        matches!((stat, steal), (Some(s), Some(d)) if d < s)
    }

    /// Every row completed traffic and produced a positive, finite
    /// p999 (sojourns are integer nanoseconds, so "finite" means the
    /// percentile exists — the row actually completed requests).
    pub fn p999_finite(&self) -> bool {
        self.rows
            .iter()
            .all(|r| r.report.completed > 0 && r.report.overall.p999 > SimTime::ZERO)
    }

    /// The conservation law holds in every row.
    pub fn conserved(&self) -> bool {
        self.rows.iter().all(|r| r.report.conserved())
    }

    /// The straggler row degrades the tail (or ties) — never the
    /// request count.
    pub fn tail_holds_under_faults(&self) -> bool {
        let healthy = &self.row("steal").report;
        let faulty = &self.row("steal+straggler").report;
        faulty.conserved() && faulty.overall.p999 >= healthy.overall.p999
    }
}

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        d: 3,
        k: 10,
        rank: 100,
        rr_mean_rank: None,
    }
}

fn hybrid() -> ResourceMode {
    ResourceMode::Hybrid {
        compute_threads: 10,
        data_threads: 5,
        streams: 5,
        kernel: KernelKind::CustomMtxmq,
    }
}

fn steal_mode() -> BalanceMode {
    BalanceMode::Steal {
        min_batch: 60,
        max_inflight: 8,
    }
}

/// The pinned serving workload: two Poisson tenants at `rho`× the
/// calibrated capacity of `nodes` hybrid nodes.
pub fn pinned_config(sim: &ClusterSim, nodes: usize, rho: f64) -> (ServeConfig, f64) {
    let tasks_per_request = 4;
    let rate = sim.node().calibrate(
        &spec(),
        hybrid(),
        &FaultPlan::none(),
        RecoveryPolicy::default(),
    );
    let per_req = rate.per_task.as_secs_f64() * tasks_per_request as f64;
    let total = rho * nodes as f64 / per_req.max(1e-12);
    let cfg = ServeConfig {
        spec: spec(),
        tenants: vec![
            TenantSpec {
                id: HEAVY,
                weight: 4.0,
                deadline: SimTime::from_millis(5),
                profile: RateProfile::Poisson { rate: total / 2.0 },
                tasks_per_request,
            },
            TenantSpec {
                id: LIGHT,
                weight: 1.0,
                deadline: SimTime::from_millis(20),
                profile: RateProfile::Poisson { rate: total / 2.0 },
                tasks_per_request,
            },
        ],
        nodes,
        seed: 0x5EBE_D0C5,
        horizon: SimTime::from_millis(100),
        queue_capacity: 1 << 20,
        shed: ShedPolicy::RejectNew,
        kinds_per_tenant: 4,
    };
    (cfg, total)
}

/// Runs the pinned mode matrix and the replay pin.
pub fn serve_table() -> ServeBenchReport {
    let nodes = 4;
    let rho = 0.7;
    let sim = ClusterSim::new(NodeSim::new(NodeParams::default()), NetworkModel::default());
    let (cfg, rate_req_s) = pinned_config(&sim, nodes, rho);

    let mut rows = Vec::new();
    rows.push(ServeRow {
        mode: "static",
        report: sim.run_served(&cfg, hybrid(), BalanceMode::Static, &mut NullRecorder),
    });
    let mut rec_a = MemRecorder::new();
    let steal_a = sim.run_served(&cfg, hybrid(), steal_mode(), &mut rec_a);
    let mut rec_b = MemRecorder::new();
    let steal_b = sim.run_served(&cfg, hybrid(), steal_mode(), &mut rec_b);
    let replay_identical = steal_a == steal_b && rec_a.to_json() == rec_b.to_json();
    rows.push(ServeRow {
        mode: "steal",
        report: steal_a,
    });
    let mut plans = vec![FaultPlan::none(); nodes];
    plans[0] = FaultPlan::none().with_straggler(3.0);
    rows.push(ServeRow {
        mode: "steal+straggler",
        report: sim.run_served_survivable(
            &cfg,
            hybrid(),
            steal_mode(),
            &plans,
            RecoveryPolicy::default(),
            &SurvivalConfig::default(),
            &mut NullRecorder,
        ),
    });
    ServeBenchReport {
        nodes,
        rate_req_s,
        rho,
        horizon_s: cfg.horizon.as_secs_f64(),
        rows,
        replay_identical,
    }
}

fn ms(t: SimTime) -> f64 {
    t.as_secs_f64() * 1e3
}

/// Renders the table `tablegen serve` prints.
pub fn render(r: &ServeBenchReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<17}{:>9}{:>9}{:>9}{:>11}{:>11}{:>11}{:>8}",
        "mode", "reqs", "done", "rej", "p50 (ms)", "p99 (ms)", "p999 (ms)", "steals"
    );
    for row in &r.rows {
        let rep = &row.report;
        let _ = writeln!(
            out,
            "{:<17}{:>9}{:>9}{:>9}{:>11.3}{:>11.3}{:>11.3}{:>8}",
            row.mode,
            rep.generated,
            rep.completed,
            rep.rejected + rep.shed,
            ms(rep.overall.p50),
            ms(rep.overall.p99),
            ms(rep.overall.p999),
            rep.steals,
        );
        for t in &rep.tenants {
            let _ = writeln!(
                out,
                "  tenant {:<9}{:>9}{:>9}{:>9}{:>11.3}{:>11.3}{:>11.3}  slo {:.3}",
                t.tenant.0,
                t.generated,
                t.completed,
                t.rejected + t.shed,
                ms(t.latency.p50),
                ms(t.latency.p99),
                ms(t.latency.p999),
                t.slo_attainment,
            );
        }
    }
    let _ = writeln!(
        out,
        "\n{} nodes, {:.0} req/s offered ({}% of calibrated capacity), {:.0} ms horizon",
        r.nodes,
        r.rate_req_s,
        (r.rho * 100.0).round(),
        r.horizon_s * 1e3
    );
    let _ = writeln!(
        out,
        "weighted_p99_better: {}; replay_identical: {}; conserved: {}; \
         tail_holds_under_faults: {}",
        r.weighted_p99_better(),
        r.replay_identical,
        r.conserved(),
        r.tail_holds_under_faults()
    );
    out
}

/// Serializes the report as the `BENCH_serve.json` trajectory point.
pub fn to_json(r: &ServeBenchReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"madness-bench-serve-v1\",\n");
    out.push_str("  \"workload\": \"poisson-2tenant-0.7x-4node\",\n");
    let _ = writeln!(
        out,
        "  \"nodes\": {},\n  \"rate_req_s\": {:.3},\n  \"rho\": {:.3},\n  \"horizon_s\": {:.3},",
        r.nodes, r.rate_req_s, r.rho, r.horizon_s
    );
    let _ = writeln!(
        out,
        "  \"weighted_p99_better\": {},\n  \"replay_identical\": {},\n  \
         \"conserved\": {},\n  \"p999_finite\": {},\n  \"tail_holds_under_faults\": {},",
        r.weighted_p99_better(),
        r.replay_identical,
        r.conserved(),
        r.p999_finite(),
        r.tail_holds_under_faults()
    );
    out.push_str("  \"results\": [\n");
    for (i, row) in r.rows.iter().enumerate() {
        let rep = &row.report;
        let comma = if i + 1 < r.rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"mode\": \"{}\", \"generated\": {}, \"completed\": {}, \
             \"rejected\": {}, \"shed\": {}, \"steals\": {}, \"migrated_tasks\": {},",
            row.mode,
            rep.generated,
            rep.completed,
            rep.rejected,
            rep.shed,
            rep.steals,
            rep.migrated_tasks,
        );
        let _ = writeln!(
            out,
            "     \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \"max_ns\": {},",
            rep.overall.p50.as_nanos(),
            rep.overall.p99.as_nanos(),
            rep.overall.p999.as_nanos(),
            rep.overall.max.as_nanos(),
        );
        out.push_str("     \"tenants\": [\n");
        for (j, t) in rep.tenants.iter().enumerate() {
            let tc = if j + 1 < rep.tenants.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "       {{\"tenant\": {}, \"generated\": {}, \"completed\": {}, \
                 \"rejected\": {}, \"shed\": {}, \"slo_attainment\": {:.6}, \
                 \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}}}{tc}",
                t.tenant.0,
                t.generated,
                t.completed,
                t.rejected,
                t.shed,
                t.slo_attainment,
                t.latency.p50.as_nanos(),
                t.latency.p99.as_nanos(),
                t.latency.p999.as_nanos(),
            );
        }
        out.push_str("     ],\n     \"kinds\": [\n");
        for (j, kl) in rep.kinds.iter().enumerate() {
            let kc = if j + 1 < rep.kinds.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "       {{\"op\": {}, \"data_hash\": {}, \"tenant\": {}, \"count\": {}, \
                 \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}}}{kc}",
                kl.kind.op,
                kl.kind.data_hash,
                kl.kind.tenant.0,
                kl.latency.count,
                kl.latency.p50.as_nanos(),
                kl.latency.p99.as_nanos(),
                kl.latency.p999.as_nanos(),
            );
        }
        let _ = writeln!(out, "     ]}}{comma}");
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_matrix_meets_the_acceptance_bars() {
        let r = serve_table();
        assert_eq!(r.rows.len(), 3);
        assert!(r.conserved(), "conservation must hold in every row");
        assert!(r.p999_finite(), "every row must complete traffic");
        assert!(
            r.weighted_p99_better(),
            "heavy-tenant p99: static {:?} vs steal {:?}",
            r.row("static").report.tenant(HEAVY).unwrap().latency.p99,
            r.row("steal").report.tenant(HEAVY).unwrap().latency.p99,
        );
        assert!(r.replay_identical, "same seed must replay bit-identically");
        assert!(r.tail_holds_under_faults());
        assert!(r.row("steal").report.steals > 0);
        // The weight premium shows inside the steal row too: the heavy
        // tenant's SLO attainment is at least the light tenant's.
        let steal = &r.row("steal").report;
        assert!(
            steal.tenant(HEAVY).unwrap().slo_attainment + 1e-12
                >= steal.tenant(LIGHT).unwrap().slo_attainment
        );
    }

    #[test]
    fn json_carries_the_ci_gate_fields() {
        let r = serve_table();
        let json = to_json(&r);
        assert!(json.contains("\"schema\": \"madness-bench-serve-v1\""));
        assert!(json.contains("\"weighted_p99_better\": true"));
        assert!(json.contains("\"replay_identical\": true"));
        assert!(json.contains("\"conserved\": true"));
        assert!(json.contains("\"p999_finite\": true"));
        assert!(json.contains("\"slo_attainment\": "));
        assert!(json.contains("\"p999_ns\": "));
        assert!(json.contains("\"mode\": \"steal+straggler\""));
        let rendered = render(&r);
        assert!(rendered.contains("weighted_p99_better: true"));
        assert!(rendered.contains("replay_identical: true"));
        assert!(rendered.contains("slo "));
    }
}
