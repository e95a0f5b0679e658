//! The `tablegen serve` report: online serving under arrival-process
//! traffic, with multi-tenant SLO queueing and exact tail percentiles.
//!
//! The pinned workload is two Poisson tenants — a weight-4 "interactive"
//! tenant with a tight deadline and a weight-1 "batch" tenant — loading
//! a 4-node cluster to 0.7× its calibrated capacity, with requests
//! placed by data affinity (each `TaskKind` lives on one home node), so
//! hot kinds make hot nodes. The mode matrix runs `Static`, `Steal`,
//! and `Steal` with a straggler plan.

use crate::pinned::{calibrated_rate, cluster, ms, SPEC};
use crate::report::{gate, gate_line, replay, Gate, Obj, Report, CONSERVED, REPLAY_IDENTICAL};
use madness_cluster::node::ResourceMode;
use madness_cluster::serve::{
    LatencyStats, RateProfile, ServeConfig, ServeReport, ShedPolicy, SurvivalConfig, TenantSpec,
};
use madness_cluster::BalanceMode;
use madness_faults::{FaultPlan, RecoveryPolicy};
use madness_gpusim::SimTime;
use madness_runtime::TenantId;
use madness_trace::NullRecorder;
use std::fmt::Write as _;

/// The interactive (high-weight) tenant.
const HEAVY: TenantId = TenantId(1);
/// The batch (low-weight) tenant.
const LIGHT: TenantId = TenantId(2);

/// Nodes in the pinned cluster.
const NODES: usize = 4;
/// Offered load, as a fraction of the calibrated capacity.
const RHO: f64 = 0.7;

/// The pinned serving workload: two Poisson tenants at `rho`× the
/// calibrated capacity of `nodes` hybrid nodes. Returns the config and
/// the aggregate offered rate (requests/s).
pub(crate) fn pinned_config(nodes: usize, rho: f64) -> (ServeConfig, f64) {
    let tasks_per_request = 4;
    let rate = calibrated_rate(&SPEC);
    let per_req = rate.per_task.as_secs_f64() * tasks_per_request as f64;
    let total = rho * nodes as f64 / per_req.max(1e-12);
    let tenant = |id, weight, deadline_ms| TenantSpec {
        id,
        weight,
        deadline: SimTime::from_millis(deadline_ms),
        profile: RateProfile::Poisson { rate: total / 2.0 },
        tasks_per_request,
    };
    let cfg = ServeConfig {
        spec: SPEC,
        tenants: vec![tenant(HEAVY, 4.0, 5), tenant(LIGHT, 1.0, 20)],
        nodes,
        seed: 0x5EBE_D0C5,
        horizon: SimTime::from_millis(100),
        queue_capacity: 1 << 20,
        shed: ShedPolicy::RejectNew,
        kinds_per_tenant: 4,
    };
    (cfg, total)
}

/// `"p50_ns"`, `"p99_ns"`, `"p999_ns"` of one latency summary.
pub(crate) fn percentiles(obj: Obj, l: &LatencyStats) -> Obj {
    obj.field("p50_ns", l.p50.as_nanos())
        .field("p99_ns", l.p99.as_nanos())
        .field("p999_ns", l.p999.as_nanos())
}

/// The `BENCH_serve.json` row of one mode.
fn row_json(mode: &'static str, rep: &ServeReport) -> Obj {
    let tenants: Vec<Obj> = rep
        .tenants
        .iter()
        .map(|t| {
            let obj = Obj::new()
                .field("tenant", u64::from(t.tenant.0))
                .field("generated", t.generated)
                .field("completed", t.completed)
                .field("rejected", t.rejected)
                .field("shed", t.shed)
                .fixed("slo_attainment", t.slo_attainment, 6);
            percentiles(obj, &t.latency)
        })
        .collect();
    let kinds: Vec<Obj> = rep
        .kinds
        .iter()
        .map(|kl| {
            let obj = Obj::new()
                .field("op", kl.kind.op)
                .field("data_hash", kl.kind.data_hash)
                .field("tenant", u64::from(kl.kind.tenant.0))
                .field("count", kl.latency.count);
            percentiles(obj, &kl.latency)
        })
        .collect();
    let head = Obj::new()
        .field("mode", mode)
        .field("generated", rep.generated)
        .field("completed", rep.completed)
        .field("rejected", rep.rejected)
        .field("shed", rep.shed)
        .field("steals", rep.steals)
        .field("migrated_tasks", rep.migrated_tasks)
        .br();
    percentiles(head, &rep.overall)
        .field("max_ns", rep.overall.max.as_nanos())
        .br()
        .field("tenants", tenants)
        .br()
        .field("kinds", kinds)
}

/// The pinned mode matrix: the same trace under `Static`, under `Steal`
/// (with its replay pin) and under `Steal` with a straggler.
struct Matrix {
    rate_req_s: f64,
    horizon: SimTime,
    stat: ServeReport,
    healthy: ServeReport,
    /// Whether re-running `healthy` reproduced report and journal.
    replayed: bool,
    faulty: ServeReport,
}

impl Matrix {
    fn rows(&self) -> [(&'static str, &ServeReport); 3] {
        [
            ("static", &self.stat),
            ("steal", &self.healthy),
            ("steal+straggler", &self.faulty),
        ]
    }

    /// The gates in document order: the three the text prints first,
    /// the JSON-only `p999_finite`, and the fault gate the text prints
    /// last.
    fn gates(&self) -> [Vec<Gate>; 3] {
        let rows = self.rows();
        let heavy_p99 = |rep: &ServeReport| rep.tenant(HEAVY).map(|t| t.latency.p99);
        let head = vec![
            // Weighted stealing gives the high-weight tenant a strictly
            // better p99 than `Static` on the same trace.
            gate(
                "weighted_p99_better",
                matches!((heavy_p99(&self.stat), heavy_p99(&self.healthy)), (Some(s), Some(d)) if d < s),
            ),
            // Re-running the steal row with the same seed reproduces the
            // report and the trace JSON byte for byte.
            gate(REPLAY_IDENTICAL, self.replayed),
            // `completed + rejected + shed == generated` in every row,
            // the fault row included.
            gate(CONSERVED, rows.iter().all(|(_, rep)| rep.conserved())),
        ];
        // Every row completed traffic, so its p999 exists (sojourns are
        // integer nanoseconds: "finite" means "positive").
        let finite =
            |(_, rep): &(&str, &ServeReport)| rep.completed > 0 && rep.overall.p999 > SimTime::ZERO;
        let unprinted = vec![gate("p999_finite", rows.iter().all(finite))];
        // A straggler inflates p999 (or ties); it never loses requests.
        let tail = vec![gate(
            "tail_holds_under_faults",
            self.faulty.conserved() && self.faulty.overall.p999 >= self.healthy.overall.p999,
        )];
        [head, unprinted, tail]
    }
}

/// Runs the pinned mode matrix and the replay pin.
fn matrix() -> Matrix {
    let sim = cluster();
    let (cfg, rate_req_s) = pinned_config(NODES, RHO);
    let (hybrid, steal) = (ResourceMode::TABLE1_HYBRID, BalanceMode::PINNED_STEAL);

    let stat = sim.run_served(&cfg, hybrid, BalanceMode::Static, &mut NullRecorder);
    let (healthy, replayed) = replay(|rec| sim.run_served(&cfg, hybrid, steal, rec));
    let plans = [FaultPlan::none().with_straggler(3.0)];
    let faulty = sim.run_served_survivable(
        &cfg,
        hybrid,
        steal,
        &plans,
        RecoveryPolicy::default(),
        &SurvivalConfig::default(),
        &mut NullRecorder,
    );
    Matrix {
        rate_req_s,
        horizon: cfg.horizon,
        stat,
        healthy,
        replayed,
        faulty,
    }
}

/// `tablegen serve`: the matrix, its gates and `BENCH_serve.json`.
pub(crate) fn run() -> Report {
    let m = matrix();
    let [head, unprinted, tail] = m.gates();

    let mut text = String::new();
    let _ = writeln!(
        text,
        "{:<17}{:>9}{:>9}{:>9}{:>11}{:>11}{:>11}{:>8}",
        "mode", "reqs", "done", "rej", "p50 (ms)", "p99 (ms)", "p999 (ms)", "steals"
    );
    for (mode, rep) in m.rows() {
        let _ = writeln!(
            text,
            "{:<17}{:>9}{:>9}{:>9}{:>11.3}{:>11.3}{:>11.3}{:>8}",
            mode,
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
                text,
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
    let horizon_s = m.horizon.as_secs_f64();
    let _ = writeln!(
        text,
        "\n{} nodes, {:.0} req/s offered ({}% of calibrated capacity), {:.0} ms horizon",
        NODES,
        m.rate_req_s,
        (RHO * 100.0).round(),
        horizon_s * 1e3
    );
    let _ = writeln!(text, "{}; {}", gate_line(&head), gate_line(&tail));

    let gates = [head, unprinted, tail].concat();
    let doc = Obj::new()
        .field("schema", "madness-bench-serve-v1")
        .field("workload", "poisson-2tenant-0.7x-4node")
        .field("nodes", NODES)
        .fixed("rate_req_s", m.rate_req_s, 3)
        .fixed("rho", RHO, 3)
        .fixed("horizon_s", horizon_s, 3)
        .gates(&gates)
        .field(
            "results",
            m.rows().map(|(mode, rep)| row_json(mode, rep)).to_vec(),
        );
    Report::bench(
        text,
        gates,
        "BENCH_serve.json",
        "serve trajectory point",
        &doc,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_matrix_meets_the_acceptance_bars() {
        let m = matrix();
        for g in m.gates().concat() {
            assert!(g.ok, "{} is false", g.name);
        }
        assert!(m.healthy.steals > 0);
        // The weight premium shows inside the steal row too: the heavy
        // tenant's SLO attainment is at least the light tenant's.
        let slo = |id| m.healthy.tenant(id).unwrap().slo_attainment;
        assert!(slo(HEAVY) + 1e-12 >= slo(LIGHT));
    }
}
