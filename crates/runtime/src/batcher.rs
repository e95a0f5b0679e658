//! Asynchronous batching of compute tasks, by task *kind*.
//!
//! "The execution of the multiple compute tasks waiting for input data is
//! delayed until a timer expires. At this point there are multiple
//! batches of compute waiting to be executed (one batch per kind of
//! compute task)." A kind combines the compute function's identity with
//! "the result of a user-defined hash function applied to the input
//! data" (paper §II-A, footnote 2).

use madness_gpusim::SimTime;

/// A tenant of the online serving layer: a traffic source with its own
/// arrival process, queue weight, and latency SLO. The batch (offline)
/// entry points all run as the implicit [`TenantId::SOLO`] tenant, so
/// tenancy costs them nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The implicit single tenant of every batch entry point.
    pub const SOLO: TenantId = TenantId(0);
}

/// The identity of a batch: which compute function, over which input
/// class (e.g. tensor shape — batches must be homogeneous to share GPU
/// buffers), on behalf of which tenant (requests from different tenants
/// never share a batch, so per-tenant accounting stays exact).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskKind {
    /// Stand-in for "the memory address of the compute function".
    pub op: u64,
    /// "User-defined hash function applied to the input data".
    pub data_hash: u64,
    /// The traffic source the task serves ([`TenantId::SOLO`] offline).
    pub tenant: TenantId,
}

impl TaskKind {
    /// A single-tenant (offline) kind — the batch entry points' default.
    pub const fn new(op: u64, data_hash: u64) -> TaskKind {
        TaskKind {
            op,
            data_hash,
            tenant: TenantId::SOLO,
        }
    }

    /// A kind tagged with the serving tenant it belongs to.
    pub const fn for_tenant(op: u64, data_hash: u64, tenant: TenantId) -> TaskKind {
        TaskKind {
            op,
            data_hash,
            tenant,
        }
    }
}

/// Flush policy for the batcher.
#[derive(Clone, Copy, Debug)]
pub struct BatcherConfig {
    /// Flush a kind as soon as it holds this many tasks (the paper's
    /// experiments report results "for a computation batch of 60
    /// independent tasks").
    pub max_batch: usize,
    /// Simulated flush period — the "timer" of §II-A. Tracked as
    /// accumulated delay statistics; the simulators charge it when a
    /// batch is flushed by the timer rather than by size.
    pub timer: SimTime,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        BatcherConfig {
            max_batch: 60,
            timer: SimTime::from_millis(1),
        }
    }
}

/// Accumulates compute tasks into per-kind batches.
///
/// Three flush causes, accounted separately (the distinction feeds
/// `tablegen trace`):
///
/// * **size** — a push reached `max_batch` for its kind;
/// * **timer** — [`Batcher::flush_expired`] found a kind whose oldest
///   task has waited at least `config.timer`;
/// * **drain** — [`Batcher::drain`] emptied the remainder at shutdown
///   (end-of-run leftovers are *not* timer expiries).
///
/// Pending kinds are few (a serving node holds about two), so they sit
/// in a short vector kept in kind order: a push binary-searches it, and both flushes hand batches out
/// in kind order straight off it.
#[derive(Debug)]
pub struct Batcher<T> {
    config: BatcherConfig,
    /// Per pending kind, sorted by kind: when its oldest task was pushed
    /// (the timer's reference point) and the tasks, never empty.
    batches: Vec<(TaskKind, SimTime, Vec<T>)>,
    pushed: u64,
    flushed_by_size: u64,
    flushed_by_timer: u64,
    flushed_by_drain: u64,
}

impl<T> Batcher<T> {
    /// An empty batcher with the given policy.
    ///
    /// # Panics
    /// Panics if `max_batch == 0`.
    pub fn new(config: BatcherConfig) -> Self {
        assert!(config.max_batch > 0, "batch size must be positive");
        Batcher {
            config,
            batches: Vec::new(),
            pushed: 0,
            flushed_by_size: 0,
            flushed_by_timer: 0,
            flushed_by_drain: 0,
        }
    }

    /// Adds a task at time zero; returns a full batch if this push
    /// reached the size trigger for its kind. Callers without a
    /// simulated clock (the live executor paths) use this and rely on
    /// size flushes plus a final [`Batcher::drain`].
    pub fn push(&mut self, kind: TaskKind, task: T) -> Option<(TaskKind, Vec<T>)> {
        self.push_at(kind, task, SimTime::ZERO)
    }

    /// Adds a task pushed at `now`; returns a full batch if this push
    /// reached the size trigger for its kind. The timestamp of a kind's
    /// *oldest* pending task is what [`Batcher::flush_expired`] ages
    /// against.
    pub fn push_at(&mut self, kind: TaskKind, task: T, now: SimTime) -> Option<(TaskKind, Vec<T>)> {
        self.pushed += 1;
        let at = self
            .batches
            .binary_search_by_key(&kind, |&(k, _, _)| k)
            .unwrap_or_else(|at| {
                self.batches.insert(at, (kind, now, Vec::new()));
                at
            });
        let batch = &mut self.batches[at].2;
        batch.push(task);
        if batch.len() >= self.config.max_batch {
            self.flushed_by_size += 1;
            let (_, _, batch) = self.batches.remove(at);
            Some((kind, batch))
        } else {
            None
        }
    }

    /// Timer expiry at `now`: flushes every kind whose oldest pending
    /// task has waited at least `config.timer`, in kind order. "Batches
    /// of compute tasks will be executed one by one at this point."
    /// Kinds younger than the timer stay pending.
    pub fn flush_expired(&mut self, now: SimTime) -> Vec<(TaskKind, Vec<T>)> {
        let timer = self.config.timer;
        let out: Vec<_> = self
            .batches
            .extract_if(.., |(_, t0, _)| now.saturating_sub(*t0) >= timer)
            .map(|(kind, _, batch)| (kind, batch))
            .collect();
        self.flushed_by_timer += out.len() as u64;
        out
    }

    /// Shutdown: drains every pending batch, in kind order, regardless
    /// of age. Counted as drains, not timer expiries, so the end-of-run
    /// remainder does not inflate `batch_flush_timer`.
    pub fn drain(&mut self) -> Vec<(TaskKind, Vec<T>)> {
        let out: Vec<_> = self
            .batches
            .drain(..)
            .map(|(kind, _, batch)| (kind, batch))
            .collect();
        self.flushed_by_drain += out.len() as u64;
        out
    }

    /// Tasks currently waiting across all kinds.
    pub fn pending(&self) -> usize {
        self.batches.iter().map(|(_, _, v)| v.len()).sum()
    }

    /// Distinct kinds currently pending.
    pub fn pending_kinds(&self) -> usize {
        self.batches.len()
    }

    /// The flush policy.
    pub fn config(&self) -> BatcherConfig {
        self.config
    }

    /// `(pushed, flushed_by_size, flushed_by_timer, flushed_by_drain)`.
    pub fn stats(&self) -> (u64, u64, u64, u64) {
        (
            self.pushed,
            self.flushed_by_size,
            self.flushed_by_timer,
            self.flushed_by_drain,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kind(op: u64) -> TaskKind {
        TaskKind::new(op, 0)
    }

    #[test]
    fn size_trigger_emits_full_batch() {
        let mut b = Batcher::new(BatcherConfig {
            max_batch: 3,
            timer: SimTime::from_millis(1),
        });
        assert!(b.push(kind(1), "a").is_none());
        assert!(b.push(kind(1), "b").is_none());
        let (k, batch) = b.push(kind(1), "c").expect("should flush");
        assert_eq!(k, kind(1));
        assert_eq!(batch, vec!["a", "b", "c"]);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn kinds_batch_independently() {
        let mut b = Batcher::new(BatcherConfig {
            max_batch: 2,
            timer: SimTime::ZERO,
        });
        assert!(b.push(kind(1), 1).is_none());
        assert!(b.push(kind(2), 2).is_none());
        assert!(b.push(kind(3), 3).is_none());
        assert_eq!(b.pending_kinds(), 3);
        let full = b.push(kind(2), 4).expect("kind 2 full");
        assert_eq!(full.1, vec![2, 4]);
        assert_eq!(b.pending(), 2);
    }

    #[test]
    fn data_hash_separates_batches() {
        // Same op over differently-shaped inputs must not mix.
        let mut b = Batcher::new(BatcherConfig {
            max_batch: 10,
            timer: SimTime::ZERO,
        });
        b.push(TaskKind::new(1, 10), "k10");
        b.push(TaskKind::new(1, 20), "k20");
        assert_eq!(b.pending_kinds(), 2);
    }

    #[test]
    fn tenants_separate_batches() {
        // Same op and shape on behalf of different tenants must not mix:
        // per-tenant accounting depends on homogeneous batches.
        let mut b = Batcher::new(BatcherConfig {
            max_batch: 10,
            timer: SimTime::ZERO,
        });
        b.push(TaskKind::for_tenant(1, 10, TenantId(1)), "t1");
        b.push(TaskKind::for_tenant(1, 10, TenantId(2)), "t2");
        assert_eq!(b.pending_kinds(), 2);
        // The offline constructor is the SOLO tenant.
        assert_eq!(TaskKind::new(1, 10).tenant, TenantId::SOLO);
    }

    #[test]
    fn drain_empties_everything_in_kind_order() {
        let mut b = Batcher::new(BatcherConfig {
            max_batch: 100,
            timer: SimTime::from_millis(5),
        });
        b.push(kind(2), 20);
        b.push(kind(1), 10);
        b.push(kind(1), 11);
        let drained = b.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].0, kind(1)); // deterministic order
        assert_eq!(drained[0].1, vec![10, 11]);
        assert_eq!(drained[1].1, vec![20]);
        assert_eq!(b.pending(), 0);
        assert!(b.drain().is_empty());
    }

    #[test]
    fn both_flushes_hand_out_batches_in_kind_order() {
        // Kinds 3, 1, 2 open out of order, and kind 0 is re-opened
        // after a size flush: a re-opened kind must take its place in
        // kind order, not go to the back.
        let push_all = |b: &mut Batcher<u32>| {
            for (op, task) in [(3, 30), (1, 10), (0, 0), (0, 1), (2, 20), (0, 2)] {
                b.push_at(kind(op), task, SimTime::ZERO);
            }
        };
        let config = BatcherConfig {
            max_batch: 2,
            timer: SimTime::from_millis(1),
        };
        let expected = vec![
            (kind(0), vec![2]),
            (kind(1), vec![10]),
            (kind(2), vec![20]),
            (kind(3), vec![30]),
        ];
        let mut b = Batcher::new(config);
        push_all(&mut b);
        assert_eq!(b.flush_expired(config.timer), expected);
        let mut b = Batcher::new(config);
        push_all(&mut b);
        assert_eq!(b.drain(), expected);
    }

    #[test]
    fn flush_expired_honors_per_kind_age() {
        let ms = SimTime::from_millis;
        let mut b = Batcher::new(BatcherConfig {
            max_batch: 100,
            timer: ms(5),
        });
        b.push_at(kind(1), 10, ms(0));
        b.push_at(kind(2), 20, ms(4));
        // At t=3 ms nothing has aged 5 ms yet.
        assert!(b.flush_expired(ms(3)).is_empty());
        // At t=6 ms only kind 1 (age 6 ms) expires; kind 2 is 2 ms old.
        let expired = b.flush_expired(ms(6));
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].0, kind(1));
        assert_eq!(b.pending(), 1);
        // Kind 2 expires once its own oldest push ages out.
        let expired = b.flush_expired(ms(9));
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].0, kind(2));
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn timer_ages_against_oldest_push_not_latest() {
        let ms = SimTime::from_millis;
        let mut b = Batcher::new(BatcherConfig {
            max_batch: 100,
            timer: ms(5),
        });
        b.push_at(kind(1), 1, ms(0));
        // A steady trickle must not keep resetting the clock.
        b.push_at(kind(1), 2, ms(4));
        let expired = b.flush_expired(ms(5));
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].1, vec![1, 2]);
    }

    #[test]
    fn size_flush_resets_the_kind_age() {
        let ms = SimTime::from_millis;
        let mut b = Batcher::new(BatcherConfig {
            max_batch: 2,
            timer: ms(5),
        });
        b.push_at(kind(1), 1, ms(0));
        assert!(b.push_at(kind(1), 2, ms(1)).is_some()); // size flush
        assert_eq!(b.pending_kinds(), 0);
        // The next push re-opens the kind: the count the serving loop
        // reads to start one timer per opened batch.
        b.push_at(kind(1), 3, ms(6));
        assert_eq!(b.pending_kinds(), 1);
        // The surviving task was pushed at t=6; at t=7 it is 1 ms old —
        // the flushed batch's t=0 start must not leak into its age.
        assert!(b.flush_expired(ms(7)).is_empty());
        assert_eq!(b.flush_expired(ms(11)).len(), 1);
    }

    #[test]
    fn stats_track_flush_causes() {
        let mut b = Batcher::new(BatcherConfig {
            max_batch: 2,
            timer: SimTime::from_millis(1),
        });
        b.push(kind(1), 0);
        b.push(kind(1), 1); // size flush
        b.push_at(kind(2), 2, SimTime::ZERO);
        b.flush_expired(SimTime::from_millis(2)); // timer flush
        b.push(kind(3), 3);
        b.drain(); // shutdown drain
        assert_eq!(b.stats(), (4, 1, 1, 1));
    }

    #[test]
    fn zero_timer_flushes_same_tick_exactly_once() {
        // The serving loop schedules a flush sweep at the push instant
        // when `timer == ZERO`: a kind pushed at `now` has age 0 ≥ 0 and
        // expires in the same tick. Flushing removes the kind's age
        // entry, so a second sweep at the same instant must be a no-op —
        // the loop can never double-flush.
        let mut b = Batcher::new(BatcherConfig {
            max_batch: 100,
            timer: SimTime::ZERO,
        });
        let now = SimTime::from_millis(3);
        b.push_at(kind(1), 1, now);
        let first = b.flush_expired(now);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].1, vec![1]);
        assert!(b.flush_expired(now).is_empty(), "double flush");
        assert!(b.flush_expired(now + SimTime::from_nanos(1)).is_empty());
        let (pushed, by_size, by_timer, by_drain) = b.stats();
        assert_eq!((pushed, by_size, by_timer, by_drain), (1, 0, 1, 0));
        // And a fresh push after the flush ages from its own instant.
        b.push_at(kind(1), 2, now + SimTime::from_nanos(5));
        assert_eq!(b.flush_expired(now + SimTime::from_nanos(5)).len(), 1);
    }

    #[test]
    fn drain_does_not_inflate_the_timer_counter() {
        let mut b = Batcher::new(BatcherConfig {
            max_batch: 100,
            timer: SimTime::from_millis(1),
        });
        b.push(kind(1), 0);
        b.push(kind(2), 1);
        b.drain();
        let (_, _, by_timer, by_drain) = b.stats();
        assert_eq!(by_timer, 0);
        assert_eq!(by_drain, 2);
    }
}
