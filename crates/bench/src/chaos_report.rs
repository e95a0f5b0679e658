//! The `tablegen chaos-serve` report: node-loss recovery, hedged
//! requests, and overload brownout under live Poisson traffic.
//!
//! The pinned workload reuses the serving matrix's two-tenant traffic
//! on a 4-node cluster; the scenario matrix drives the survivable
//! serving layer through its contract:
//!
//! * `baseline` — no faults, inert survival config (pins the
//!   bit-identity escape hatch);
//! * `crash` — node 0 crashes mid-horizon; heartbeats declare it dead
//!   and its lineage re-executes on the survivors from the
//!   checkpoint + delta ledger;
//! * `crash+rejoin` — the crashed node rejoins cold and re-admits
//!   through the breaker probe ladder;
//! * `straggler` / `straggler+hedge` — a 4× straggler without and with
//!   deadline-aware hedging;
//! * `overload+shed` / `overload+brownout` — 3× overload on a bounded
//!   queue, shedding alone vs browning out (reduced-rank Apply) first.

use crate::pinned::{cluster, ms};
use crate::report::{
    gate, gate_line, replay, Gate, Obj, Report, NODE_LOSS_CONSERVED, REPLAY_IDENTICAL,
};
use crate::serve_report::{percentiles, pinned_config};
use madness_cluster::node::ResourceMode;
use madness_cluster::serve::{
    BrownoutConfig, HedgeConfig, ServeConfig, ServeReport, ShedPolicy, SurvivalConfig,
};
use madness_cluster::BalanceMode;
use madness_faults::{FaultPlan, RecoveryPolicy};
use madness_gpusim::SimTime;
use madness_trace::{MemRecorder, NullRecorder};
use std::fmt::Write as _;

/// Nodes in the pinned cluster.
const NODES: usize = 4;
/// Offered load of the fault scenarios, as a fraction of capacity …
const RHO: f64 = 0.6;
/// … and of the two overload scenarios.
const OVERLOAD_RHO: f64 = 3.0;

/// The scenario matrix, in printed order, and the crash replay pin.
struct Matrix {
    rows: Vec<(&'static str, ServeReport)>,
    /// Whether re-running `crash` reproduced report and journal.
    replayed: bool,
}

impl Matrix {
    fn row(&self, scenario: &str) -> &ServeReport {
        let found = self.rows.iter().find(|(name, _)| *name == scenario);
        &found.expect("scenario matrix is fixed").1
    }

    /// The gates, one group per printed line.
    fn gates(&self) -> [Vec<Gate>; 2] {
        let (crash, rejoin) = (self.row("crash"), self.row("crash+rejoin"));
        let (straggler, hedged) = (self.row("straggler"), self.row("straggler+hedge"));
        let (shed, brown) = (self.row("overload+shed"), self.row("overload+brownout"));
        let first = vec![
            // The generalized conservation law `completed + rejected +
            // shed + cancelled_hedges == generated + hedges_launched`
            // holds in every scenario.
            gate(
                NODE_LOSS_CONSERVED,
                self.rows.iter().all(|(_, rep)| rep.conserved()),
            ),
            // Every generated request of the crash scenarios terminates
            // exactly once as completed, rejected, or shed — node loss
            // never leaks a request, and every extra copy cancels.
            gate(
                "no_request_lost_on_crash",
                [crash, rejoin].iter().all(|rep| {
                    rep.node_crashes > 0
                        && rep.recovered_requests > 0
                        && rep.generated == rep.completed + rep.rejected + rep.shed
                        && rep.cancelled_hedges == rep.hedges_launched
                }),
            ),
            // Hedging launches duplicates and improves (or ties) the
            // straggler-inflated p999.
            gate(
                "hedge_p999_better",
                hedged.hedges_launched > 0 && hedged.overall.p999 <= straggler.overall.p999,
            ),
        ];
        let second = vec![
            // Browning out first completes at least as much traffic as
            // shedding alone, with no more drops.
            gate(
                "brownout_beats_shedding",
                brown.brownout_engagements > 0
                    && brown.degraded_tasks > 0
                    && brown.completed >= shed.completed
                    && brown.rejected + brown.shed <= shed.rejected + shed.shed,
            ),
            // The crash scenario replays bit-identically, journal
            // included.
            gate(REPLAY_IDENTICAL, self.replayed),
            // The rejoined node restores capacity: at least the
            // dead-forever completion count, through the probe ladder.
            gate(
                "rejoin_recovers_throughput",
                rejoin.rejoins > 0 && rejoin.completed >= crash.completed,
            ),
        ];
        [first, second]
    }
}

/// Runs the pinned chaos matrix and the crash replay pin.
fn matrix() -> Matrix {
    let sim = cluster();
    let (cfg, _) = pinned_config(NODES, RHO);
    // Overload: bounded queue at 3x capacity.
    let (mut over_cfg, _) = pinned_config(NODES, OVERLOAD_RHO);
    over_cfg.queue_capacity = 64;
    over_cfg.shed = ShedPolicy::DropOldest;
    let (hybrid, steal) = (ResourceMode::TABLE1_HYBRID, BalanceMode::PINNED_STEAL);
    let plain = |cfg: &ServeConfig| sim.run_served(cfg, hybrid, steal, &mut NullRecorder);
    let survive =
        |cfg: &ServeConfig, plans: &[FaultPlan], surv: &SurvivalConfig, rec: &mut MemRecorder| {
            let policy = RecoveryPolicy::default();
            sim.run_served_survivable(cfg, hybrid, steal, plans, policy, surv, rec)
        };
    let inert = SurvivalConfig::default();
    let hedging = SurvivalConfig {
        hedge: Some(HedgeConfig::default()),
        ..SurvivalConfig::default()
    };
    let brownout = SurvivalConfig {
        brownout: Some(BrownoutConfig::default()),
        ..SurvivalConfig::default()
    };
    let crash_plan = [FaultPlan::none().with_node_crash_at(SimTime::from_millis(40).as_nanos())];
    let rejoin_plan = [crash_plan[0]
        .clone()
        .with_node_rejoin_at(SimTime::from_millis(60).as_nanos())];
    let straggler_plan = [FaultPlan::none().with_straggler(4.0)];

    let baseline = plain(&cfg);
    let (crash, replayed) = replay(|rec| survive(&cfg, &crash_plan, &inert, rec));
    let rejoin = survive(&cfg, &rejoin_plan, &inert, &mut MemRecorder::new());
    let straggler = survive(&cfg, &straggler_plan, &inert, &mut MemRecorder::new());
    let hedged = survive(&cfg, &straggler_plan, &hedging, &mut MemRecorder::new());
    let shed = plain(&over_cfg);
    let brown = survive(&over_cfg, &[], &brownout, &mut MemRecorder::new());
    Matrix {
        rows: vec![
            ("baseline", baseline),
            ("crash", crash),
            ("crash+rejoin", rejoin),
            ("straggler", straggler),
            ("straggler+hedge", hedged),
            ("overload+shed", shed),
            ("overload+brownout", brown),
        ],
        replayed,
    }
}

/// `tablegen chaos-serve`: the matrix, its gates and `BENCH_chaos.json`.
pub(crate) fn run() -> Report {
    let m = matrix();
    let [first, second] = m.gates();

    let mut text = String::new();
    let _ = writeln!(
        text,
        "{:<19}{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}{:>11}{:>11}",
        "scenario", "reqs", "done", "drop", "hedge", "cancel", "recov", "p99 (ms)", "p999 (ms)"
    );
    let mut results = Vec::new();
    for (scenario, rep) in &m.rows {
        let _ = writeln!(
            text,
            "{:<19}{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}{:>11.3}{:>11.3}",
            scenario,
            rep.generated,
            rep.completed,
            rep.rejected + rep.shed,
            rep.hedges_launched,
            rep.cancelled_hedges,
            rep.recovered_requests,
            ms(rep.overall.p99),
            ms(rep.overall.p999),
        );
        let row = Obj::new()
            .field("scenario", *scenario)
            .field("generated", rep.generated)
            .field("completed", rep.completed)
            .field("rejected", rep.rejected)
            .field("shed", rep.shed)
            .br()
            .field("hedges_launched", rep.hedges_launched)
            .field("cancelled_hedges", rep.cancelled_hedges)
            .field("recovered_requests", rep.recovered_requests)
            .field("node_crashes", rep.node_crashes)
            .field("rejoins", rep.rejoins)
            .field("breaker_trips", rep.breaker_trips)
            .field("brownout_engagements", rep.brownout_engagements)
            .field("degraded_tasks", rep.degraded_tasks)
            .br();
        results.push(percentiles(row, &rep.overall).field("max_ns", rep.overall.max.as_nanos()));
    }
    let _ = writeln!(
        text,
        "\n{} nodes; fault scenarios at {:.0}% load, overload at {:.0}%",
        NODES,
        RHO * 100.0,
        OVERLOAD_RHO * 100.0
    );
    let _ = writeln!(text, "{}", gate_line(&first));
    let _ = writeln!(text, "{}", gate_line(&second));

    let gates = [first, second].concat();
    let doc = Obj::new()
        .field("schema", "madness-bench-chaos-v1")
        .field("workload", "poisson-2tenant-4node-nodeloss")
        .field("nodes", NODES)
        .fixed("rho", RHO, 3)
        .fixed("overload_rho", OVERLOAD_RHO, 3)
        .gates(&gates)
        .field("results", results);
    Report::bench(
        text,
        gates,
        "BENCH_chaos.json",
        "chaos trajectory point",
        &doc,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_matrix_meets_every_gate() {
        let m = matrix();
        assert_eq!(m.rows.len(), 7);
        for g in m.gates().concat() {
            assert!(g.ok, "{} is false", g.name);
        }
        // The baseline row is fault-free end to end.
        let base = m.row("baseline");
        assert_eq!(base.hedges_launched + base.cancelled_hedges, 0);
        assert_eq!(base.node_crashes + base.breaker_trips, 0);
    }
}
