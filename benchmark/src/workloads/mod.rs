//! The five workloads and what every pass of one returns.
//!
//! A workload is built from the seed alone (`setup`), then driven in a
//! closed loop, one pass at a time. A pass calls each of its legs — one
//! public function of one layer — in a fixed, interleaved order, times
//! them from outside, and checks their outputs.

pub mod apply;
pub mod sim_batch;
pub mod sim_chaos;
pub mod sim_online;

use crate::spans::{Layer, Tracer};
use madness_cluster::node::ResourceMode;
use madness_cluster::workload::WorkloadSpec;
use madness_gpusim::KernelKind;
use madness_mra::synth::{splitmix64, unit_f64};

/// Default `--seed` (the seed every `tablegen` experiment shares).
pub const DEFAULT_SEED: u64 = 0x0020_12C1;

/// `(name, why)` of every workload, in reporting order.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "apply-k10",
        "kernel-bound real Apply: ~300 us of mtxmq per task, so tensor does the work and executor/batcher almost none",
    ),
    (
        "apply-k4",
        "overhead-bound real Apply: ~6 us of kernel per task puts the executor, Batcher, Arc traffic and mra accumulate/sum_down in charge",
    ),
    (
        "sim-batch",
        "TimingOnly batch simulators (NodeSim, ClusterSim::run, run_balanced): gpusim cost model, no tensor arithmetic",
    ),
    (
        "sim-online",
        "fault-free event-driven simulators (run_served, run_dag) sized where the victim scan and list scheduling show",
    ),
    (
        "sim-chaos",
        "the same engines under crash, partition, straggler, hedging, brownout and speculation: checkpoint folds and fold-back",
    ),
];

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Leg {
    pub name: &'static str,
    pub secs: f64,
    pub tasks: u64,
}

/// Outputs checked against what was attempted.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 16 {
                self.notes.push(what());
            }
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(16);
    }
}

/// What one pass did.
#[derive(Clone, Debug, Default)]
pub struct PassOutcome {
    pub legs: Vec<Leg>,
    /// Host seconds of the path `tasks_per_s` is defined on.
    pub main_s: f64,
    /// Tasks that path retired.
    pub tasks: u64,
    /// Sum of the simulated makespans the pass produced, seconds.
    pub sim_makespan_s: f64,
    /// Simulated numbers and counts, by metric name. They must repeat
    /// bit-identically from pass to pass.
    pub exact: Vec<(&'static str, f64)>,
    pub checks: Checks,
}

impl PassOutcome {
    pub fn leg_secs(&self, name: &str) -> f64 {
        self.legs
            .iter()
            .find(|l| l.name == name)
            .map_or(f64::NAN, |l| l.secs)
    }

    pub fn exact_value(&self, name: &str) -> f64 {
        self.exact
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    }
}

/// Records the legs of one pass.
pub struct PassRec<'a> {
    pub t: &'a mut Tracer,
    pub out: PassOutcome,
}

impl<'a> PassRec<'a> {
    pub fn new(t: &'a mut Tracer) -> Self {
        PassRec {
            t,
            out: PassOutcome::default(),
        }
    }

    /// Times `f` — one call into `layer` — as a leg; `f` returns its
    /// value and the tasks it retired.
    pub fn leg<R>(&mut self, name: &'static str, layer: Layer, f: impl FnOnce() -> (R, u64)) -> R {
        let ((r, tasks), secs) = self.t.call(name, layer, |t| {
            let (r, tasks) = f();
            t.count(tasks);
            (r, tasks)
        });
        self.out.legs.push(Leg { name, secs, tasks });
        r
    }

    pub fn exact(&mut self, name: &'static str, value: f64) {
        self.out.exact.push((name, value));
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.out.checks.check(ok, what);
    }
}

/// A built workload.
pub trait Workload {
    /// One closed-loop pass over the workload's legs.
    fn pass(&self, t: &mut Tracer) -> PassOutcome;

    /// Sizes of the generated inputs (task/request/DAG counts, a tree
    /// hash): equal for equal seeds, different for different ones.
    fn fingerprint(&self) -> Vec<(&'static str, u64)>;
}

impl Workload for Box<dyn Workload> {
    fn pass(&self, t: &mut Tracer) -> PassOutcome {
        (**self).pass(t)
    }

    fn fingerprint(&self) -> Vec<(&'static str, u64)> {
        (**self).fingerprint()
    }
}

/// Builds workload `name` from `seed`, recording the set-up calls.
pub fn build(name: &str, seed: u64, t: &mut Tracer) -> Option<Box<dyn Workload>> {
    Some(match name {
        "apply-k10" => Box::new(apply::ApplyWorkload::setup(apply::K10, seed, t)),
        "apply-k4" => Box::new(apply::ApplyWorkload::setup(apply::K4, seed, t)),
        "sim-batch" => Box::new(sim_batch::SimBatch::setup(seed, t)),
        "sim-online" => Box::new(sim_online::SimOnline::setup(seed, t)),
        "sim-chaos" => Box::new(sim_chaos::SimChaos::setup(seed, t)),
        _ => return None,
    })
}

/// Threads workload `name` keeps busy: the executor's workers for the
/// real Apply path, one for the (single-threaded) simulators. The
/// host-speed tick runs on as many.
pub fn threads(name: &str) -> usize {
    if name.starts_with("apply-") {
        rayon::configured_worker_threads().max(1)
    } else {
        1
    }
}

/// The seeded generator every workload draws its inputs from.
pub struct Rng(u64);

impl Rng {
    /// `stream` separates the generators one seed feeds.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(splitmix64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The Table I hybrid node: 10 compute + 5 data threads, 5 streams.
pub fn hybrid_mode() -> ResourceMode {
    ResourceMode::Hybrid {
        compute_threads: 10,
        data_threads: 5,
        streams: 5,
        kernel: KernelKind::CustomMtxmq,
    }
}

/// The Coulomb-like `d = 3, k = 10, M = 100` task the balance, serve
/// and DAG reports calibrate their node rate on.
pub fn coulomb_spec() -> WorkloadSpec {
    WorkloadSpec {
        d: 3,
        k: 10,
        rank: 100,
        rr_mean_rank: None,
    }
}

#[cfg(test)]
mod tests {
    use super::apply::{max_abs_err, ApplyShape, ApplyWorkload};
    use super::*;
    use crate::run::check_repeats;

    fn fingerprint(name: &str, seed: u64) -> Vec<(&'static str, u64)> {
        build(name, seed, &mut Tracer::off())
            .expect("known workload")
            .fingerprint()
    }

    #[test]
    fn generators_are_deterministic_in_the_seed() {
        for (name, _) in WORKLOADS {
            let a = fingerprint(name, 7);
            assert_eq!(a, fingerprint(name, 7), "{name}: same seed, other inputs");
            assert_ne!(a, fingerprint(name, 8), "{name}: other seed, same inputs");
        }
    }

    #[test]
    fn apply_trees_differ_by_seed_but_not_in_size() {
        let a = ApplyWorkload::setup(super::apply::K4, 1, &mut Tracer::off());
        let b = ApplyWorkload::setup(super::apply::K4, 2, &mut Tracer::off());
        let hash = |w: &ApplyWorkload| {
            let print = w.fingerprint();
            print.iter().find(|(k, _)| *k == "tree_hash").copied()
        };
        assert_ne!(hash(&a), hash(&b), "different seed, same tree");
        for w in [&a, &b] {
            let leaves = w.tree.num_leaves();
            // Sizes come in steps of 56 leaves, and boxes that cross the
            // threshold together refine together: the smallest tree at
            // or above the target may sit a step or two above it.
            assert!((792..=904).contains(&leaves), "{leaves} leaves");
            assert_eq!((leaves - 64) % 56, 0, "{leaves} leaves");
            assert!(w.tree.max_depth() >= 4, "refined over too few levels");
        }
    }

    #[test]
    fn a_pass_checks_its_outputs_and_repeats_exactly() {
        let tiny = ApplyShape {
            k: 4,
            max_batch: 16,
            target_leaves: 64,
        };
        let w = ApplyWorkload::setup(tiny, 3, &mut Tracer::off());
        let first = w.pass(&mut Tracer::off());
        let second = w.pass(&mut Tracer::on());
        assert!(first.checks.attempted >= 9);
        assert_eq!(first.checks.failed, 0, "{:?}", first.checks.notes);
        assert_eq!(first.tasks, w.tasks);
        assert!(first.main_s > 0.0 && first.sim_makespan_s > 0.0);
        let mut checks = Checks::default();
        check_repeats(&mut checks, &first, &second);
        assert_eq!(checks.failed, 0, "{:?}", checks.notes);

        // The gate does fail when a number moves or a tree differs.
        let mut moved = second.clone();
        moved.exact[0].1 += 1.0;
        check_repeats(&mut checks, &first, &moved);
        assert_eq!(checks.failed, 1);
        let other = ApplyWorkload::setup(tiny, 4, &mut Tracer::off());
        assert!(max_abs_err(&w.tree, &other.tree) > 0.0);
        assert_eq!(max_abs_err(&w.tree, &w.tree), 0.0);
    }

    #[test]
    fn rng_streams_are_separate_and_in_range() {
        let mut a = Rng::new(1, 1);
        let mut b = Rng::new(1, 2);
        assert_ne!(a.next_u64(), b.next_u64());
        for _ in 0..1000 {
            let x = a.range(0.35, 0.65);
            assert!((0.35..0.65).contains(&x));
            assert!(a.below(7) < 7);
        }
    }
}
