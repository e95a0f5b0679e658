//! Inter-node communication model.
//!
//! Apply's only cross-node traffic is the `postprocess` accumulation of
//! result tensors into neighbor tree nodes owned elsewhere. The paper
//! reports that "MADNESS on a cluster already efficiently handles
//! communications between compute nodes and Titan does not introduce
//! additional bottlenecks" — this model exists so the experiments can
//! *verify* that claim (communication overlaps computation and is orders
//! of magnitude smaller), not assume it silently.
//!
//! Two layers:
//!
//! * [`NetworkModel`] — closed-form injection time for one node's
//!   accumulation traffic (latency, bandwidth, in-flight pipelining);
//! * [`Interconnect`] — a stateful, contention-aware view of the same
//!   fabric used by the cluster DES: migrations share a fixed number of
//!   torus links ([`NetworkModel::links`]) through a FIFO resource, so
//!   concurrent transfers queue instead of overlapping for free. Every
//!   booking is tallied here, so it is also the run's migration ledger,
//!   and a load-balancing move is journaled here too.

use crate::des::FifoResource;
use madness_gpusim::SimTime;
use madness_trace::{BalanceEvent, BalanceKind, Recorder, Stage};

/// Latency/bandwidth model of the interconnect (defaults approximate
/// Titan's Cray Gemini 3-D torus).
#[derive(Clone, Debug)]
pub struct NetworkModel {
    /// One-way message latency.
    pub latency: SimTime,
    /// Per-link bandwidth, bytes/s.
    pub bandwidth: f64,
    /// Fraction of a node's accumulations that leave the node (depends
    /// on the process map: a locality map keeps most neighbors local).
    pub remote_fraction: f64,
    /// Torus links a node's traffic is spread over (a Gemini NIC routes
    /// onto several torus directions); bounds concurrent migrations.
    pub links: usize,
    /// Messages the NIC keeps in flight per stream: bounds how much
    /// per-message latency can be hidden by pipelining.
    pub max_inflight: usize,
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel {
            latency: SimTime::from_micros(2),
            bandwidth: 5.0e9,
            remote_fraction: 0.3,
            links: 4,
            max_inflight: 64,
        }
    }
}

impl NetworkModel {
    /// Time one node spends injecting its remote accumulation traffic:
    /// `n_tasks × remote_fraction` messages of `bytes_per_msg` each,
    /// pipelined (latency paid once per message, but overlapped with the
    /// streaming of up to [`NetworkModel::max_inflight`] other messages).
    pub fn injection_time(&self, n_tasks: u64, bytes_per_msg: u64) -> SimTime {
        self.injection(n_tasks, bytes_per_msg).2
    }

    /// [`NetworkModel::injection_time`] plus the traffic it accounts:
    /// `(messages, bytes, time)` — what a trace recorder journals.
    pub fn injection(&self, n_tasks: u64, bytes_per_msg: u64) -> (u64, u64, SimTime) {
        let msgs = (n_tasks as f64 * self.remote_fraction).ceil() as u64;
        let bytes = msgs * bytes_per_msg;
        (msgs, bytes, self.transfer_time(msgs, bytes_per_msg))
    }

    /// Wire time for `msgs` back-to-back messages of `bytes_per_msg`
    /// each on one stream.
    ///
    /// Each message pays serialization `s = bytes/bandwidth` and latency
    /// `L`, but the NIC keeps up to `max_inflight` messages in flight,
    /// so consecutive message *starts* are separated by
    /// `gap = max(s, (s + L) / max_inflight)`:
    ///
    /// * bandwidth-bound (`s ≥ (s+L)/W`): the wire is saturated and the
    ///   total is `L + msgs × s` — latency exposed exactly once;
    /// * latency-bound (tiny messages): the in-flight window caps how
    ///   many latencies overlap, leaving `(s+L)/W` of residual exposure
    ///   per message, which keeps the total strictly monotone in `msgs`.
    pub fn transfer_time(&self, msgs: u64, bytes_per_msg: u64) -> SimTime {
        if msgs == 0 {
            return SimTime::ZERO;
        }
        let s = bytes_per_msg as f64 / self.bandwidth;
        let l = self.latency.as_secs_f64();
        let window = self.max_inflight.max(1) as f64;
        if s * window >= s + l {
            // Saturated wire: identical to streaming the total byte count
            // behind one exposed latency.
            self.latency + SimTime::from_secs_f64(msgs as f64 * s)
        } else {
            let gap = (s + l) / window;
            self.latency + SimTime::from_secs_f64(s + gap * (msgs - 1) as f64)
        }
    }

    /// Wire time for a migrated batch of `tasks` tasks (one message per
    /// task, `bytes_per_task` each): what a steal transfer occupies a
    /// link for.
    pub fn migration_time(&self, tasks: u64, bytes_per_task: u64) -> SimTime {
        self.transfer_time(tasks, bytes_per_task)
    }
}

/// A stateful, contention-aware view of the fabric for the cluster DES:
/// migration transfers are served FIFO across [`NetworkModel::links`]
/// shared links, so simultaneous steals queue behind each other instead
/// of each seeing an idle network.
///
/// It is also the run's **migration ledger**: every booking adds to
/// [`Interconnect::tasks_moved`], [`Interconnect::bytes_moved`] and
/// [`Interconnect::busy_time`], which is where the balance and serve
/// reports read their `migrated_*` fields from.
#[derive(Debug)]
pub struct Interconnect {
    model: NetworkModel,
    links: FifoResource,
    transfers: u64,
    tasks_moved: u64,
    bytes_moved: u64,
}

impl Interconnect {
    /// A quiet fabric under `model`.
    pub fn new(model: NetworkModel) -> Self {
        let links = FifoResource::new(model.links.max(1));
        Interconnect {
            model,
            links,
            transfers: 0,
            tasks_moved: 0,
            bytes_moved: 0,
        }
    }

    /// The underlying closed-form model.
    pub fn model(&self) -> &NetworkModel {
        &self.model
    }

    /// `(start, arrive)` of a migration of `tasks` tasks released at
    /// `release`, without booking it: exactly what the next
    /// [`Interconnect::migrate`] with the same arguments returns, so a
    /// profit guard can price a move before committing to it.
    pub fn quote(&self, release: SimTime, tasks: u64, bytes_per_task: u64) -> (SimTime, SimTime) {
        let start = self.links.next_start(release);
        (
            start,
            start + self.model.migration_time(tasks, bytes_per_task),
        )
    }

    /// Books a migration of `tasks` tasks (`bytes_per_task` each)
    /// released at `release`; returns `(link, start, arrive)` — the
    /// transfer occupies one link for its whole wire time, so concurrent
    /// migrations contend.
    pub fn migrate(
        &mut self,
        release: SimTime,
        tasks: u64,
        bytes_per_task: u64,
    ) -> (usize, SimTime, SimTime) {
        let wire = self.model.migration_time(tasks, bytes_per_task);
        let (lane, start, end) = self.links.serve_on(release, wire);
        self.transfers += 1;
        self.tasks_moved += tasks;
        self.bytes_moved += tasks * bytes_per_task;
        (lane, start, end)
    }

    /// [`Interconnect::migrate`] for a load-balancing move decided at
    /// `now`, journaled where it is booked: a [`Stage::Migrate`] span on
    /// the link, a [`BalanceEvent`] of `kind` for `route = (from, to)`,
    /// and the `migrations` / `migrated_tasks` / `migrated_bytes`
    /// counters. Returns the arrival time.
    pub fn migrate_recorded<R: Recorder>(
        &mut self,
        rec: &mut R,
        kind: BalanceKind,
        route: (usize, usize),
        tasks: u64,
        bytes_per_task: u64,
        now: SimTime,
    ) -> SimTime {
        let (lane, start, arrive) = self.migrate(now, tasks, bytes_per_task);
        if R::ENABLED {
            let bytes = tasks * bytes_per_task;
            rec.span(
                Stage::Migrate,
                start.as_nanos(),
                arrive.as_nanos(),
                lane as u32,
            );
            rec.balance_event(BalanceEvent {
                kind,
                from_node: route.0 as u32,
                to_node: route.1 as u32,
                tasks,
                bytes,
                at_ns: now.as_nanos(),
            });
            rec.add("migrations", 1);
            rec.add("migrated_tasks", tasks);
            rec.add("migrated_bytes", bytes);
        }
        arrive
    }

    /// Transfers booked so far.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Total tasks migrated so far.
    pub fn tasks_moved(&self) -> u64 {
        self.tasks_moved
    }

    /// Total bytes migrated so far.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Aggregate link-busy time (migration wire time across all links).
    pub fn busy_time(&self) -> SimTime {
        self.links.busy_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_tasks_zero_time() {
        let n = NetworkModel::default();
        assert_eq!(n.injection_time(0, 8000), SimTime::ZERO);
    }

    #[test]
    fn traffic_scales_with_messages() {
        let n = NetworkModel::default();
        let t1 = n.injection_time(1_000, 8_000);
        let t2 = n.injection_time(2_000, 8_000);
        assert!(t2 > t1);
        assert!(t2.as_secs_f64() < 2.05 * t1.as_secs_f64());
    }

    #[test]
    fn communication_is_not_the_bottleneck_at_paper_scale() {
        // Table VI: ~5.4 k tasks/node of k=14 4-D results (307 KB each).
        // Injection must be far below the ≥ 277 s compute times.
        let n = NetworkModel::default();
        let bytes = 8 * 14u64.pow(4);
        let t = n.injection_time(5_421, bytes);
        assert!(t.as_secs_f64() < 1.0, "network would bottleneck: {t}");
    }

    #[test]
    fn locality_map_reduces_traffic() {
        let mut n = NetworkModel::default();
        let even = n.injection_time(10_000, 8_000);
        n.remote_fraction = 0.05;
        let local = n.injection_time(10_000, 8_000);
        assert!(local < even);
    }

    #[test]
    fn injection_is_monotone_in_message_count_even_at_tiny_messages() {
        // The old formula charged latency once per injection, so at tiny
        // bytes_per_msg the time barely moved with message count; the
        // pipelined model must stay strictly monotone.
        let n = NetworkModel::default();
        for bytes_per_msg in [1, 8, 64, 160, 4_096, 307_328] {
            let mut prev = n.transfer_time(1, bytes_per_msg);
            for msgs in 2..200 {
                let t = n.transfer_time(msgs, bytes_per_msg);
                assert!(
                    t > prev,
                    "not monotone at {bytes_per_msg} B/msg, {msgs} msgs: {t} <= {prev}"
                );
                prev = t;
            }
        }
    }

    #[test]
    fn bandwidth_bound_regime_matches_streaming_formula() {
        // For paper-sized messages the in-flight window saturates the
        // wire and the total must equal latency + bytes/bandwidth — the
        // behavior every cluster experiment was calibrated against.
        let n = NetworkModel::default();
        let bytes_per_msg = 8 * 14u64.pow(4);
        let (msgs, bytes, t) = n.injection(5_421, bytes_per_msg);
        assert_eq!(bytes, msgs * bytes_per_msg);
        let streaming = n.latency + SimTime::from_secs_f64(bytes as f64 / n.bandwidth);
        assert_eq!(t, streaming);
    }

    #[test]
    fn latency_bound_messages_expose_residual_latency() {
        // 1-byte messages: serialization is ~0.2 ns but latency is 2 µs,
        // so each message past the window adds (s+L)/W of exposure.
        let n = NetworkModel::default();
        let t1 = n.transfer_time(1, 1);
        let t129 = n.transfer_time(129, 1);
        // 128 extra messages × ~(2 µs / 64) ≈ 4 µs beyond the first.
        let added = t129.saturating_sub(t1).as_secs_f64();
        assert!(
            added > 3.5e-6 && added < 4.5e-6,
            "residual exposure off: {added}"
        );
    }

    #[test]
    fn interconnect_contends_on_shared_links() {
        let model = NetworkModel::default();
        let links = model.links;
        let wire = model.migration_time(100, 8_000);
        let mut net = Interconnect::new(model);
        // links transfers run concurrently; one more must queue.
        let mut ends = Vec::new();
        for _ in 0..links + 1 {
            let (_, _, end) = net.migrate(SimTime::ZERO, 100, 8_000);
            ends.push(end);
        }
        for end in &ends[..links] {
            assert_eq!(*end, wire);
        }
        assert_eq!(ends[links], wire * 2);
        // The migration ledger is the sum of what was shipped.
        assert_eq!(net.transfers(), (links + 1) as u64);
        assert_eq!(net.tasks_moved(), (links as u64 + 1) * 100);
        assert_eq!(net.bytes_moved(), (links as u64 + 1) * 100 * 8_000);
        assert_eq!(net.busy_time(), wire * (links as u64 + 1));
    }

    #[test]
    fn quote_is_exactly_what_the_next_migrate_books() {
        let mut net = Interconnect::new(NetworkModel::default());
        assert_eq!(net.model().links, 4, "the releases below assume four links");
        // Idle fabric, then every link busy, then a release after the
        // links have drained: the booking that follows a quote returns
        // the quoted times.
        let mut moved = 0;
        for (i, release_us) in [0, 0, 0, 0, 0, 0, 3, 3, 400, 400].into_iter().enumerate() {
            let (release, tasks) = (SimTime::from_micros(release_us), 7 + 13 * i as u64);
            let quoted = net.quote(release, tasks, 8_000);
            let (_, start, arrive) = net.migrate(release, tasks, 8_000);
            assert_eq!(quoted, (start, arrive), "transfer {i}");
            assert_eq!(start > release, (4..8).contains(&i), "transfer {i} queues");
            moved += tasks;
        }
        assert_eq!(net.tasks_moved(), moved);
    }
}
