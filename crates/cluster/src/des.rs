//! A minimal discrete-event simulation core.
//!
//! Two primitives suffice for the node pipeline:
//!
//! * [`Des`] — an event heap delivering `(time, payload)` pairs in
//!   chronological order (FIFO-stable within a timestamp);
//! * [`FifoResource`] — a capacity-`c` resource (CPU lanes, GPU streams,
//!   the single dispatcher thread) that serves enqueued work items in
//!   arrival order and reports each item's completion time.

use madness_gpusim::{serve_lane, serve_many, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An event heap over payloads `E`.
#[derive(Debug)]
pub struct Des<E> {
    heap: BinaryHeap<Reverse<(SimTime, u64, EventSlot<E>)>>,
    seq: u64,
    now: SimTime,
}

#[derive(Debug)]
struct EventSlot<E>(E);

// Manual impls so E itself needs no ordering.
impl<E> PartialEq for EventSlot<E> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<E> Eq for EventSlot<E> {}
impl<E> PartialOrd for EventSlot<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for EventSlot<E> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl<E> Des<E> {
    /// An empty simulation at time zero.
    pub fn new() -> Self {
        Des {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulated time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Panics
    /// Panics when scheduling into the past.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.heap.push(Reverse((at, self.seq, EventSlot(payload))));
        self.seq += 1;
    }

    /// Advances the clock to `t` for an event delivered from outside
    /// the heap (a pre-sorted stream merged with [`Des::pop`]), so
    /// [`Des::schedule`] keeps rejecting the past.
    ///
    /// # Panics
    /// Panics if `t` is in the past or a pending event is due before it.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "cannot advance into the past");
        assert!(
            self.peek().is_none_or(|next| t <= next),
            "cannot advance past a pending event"
        );
        self.now = t;
    }

    /// Pops the next event, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse((t, _, EventSlot(e))) = self.heap.pop()?;
        self.now = t;
        Some((t, e))
    }

    /// Timestamp of the next event without popping it (the clock does
    /// not advance).
    pub fn peek(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }

    /// Pending event count.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for Des<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// A FIFO resource with `capacity` identical lanes (greedy assignment:
/// each item starts on the earliest-free lane, no earlier than its
/// release time; of lanes free at the same time, the lowest index
/// serves — [`madness_gpusim::serve_lane`]'s pick, which
/// [`FifoResource::serve_many`]'s closed form reproduces).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FifoResource {
    lanes: Vec<SimTime>,
    busy: SimTime,
    served: u64,
}

impl FifoResource {
    /// A resource with `capacity` lanes, all free at time zero.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "resource needs capacity");
        FifoResource {
            lanes: vec![SimTime::ZERO; capacity],
            busy: SimTime::ZERO,
            served: 0,
        }
    }

    /// Number of lanes.
    pub fn capacity(&self) -> usize {
        self.lanes.len()
    }

    /// Enqueues an item released at `release` needing `duration`;
    /// returns `(start, end)`.
    pub fn serve(&mut self, release: SimTime, duration: SimTime) -> (SimTime, SimTime) {
        let (_, start, end) = self.serve_on(release, duration);
        (start, end)
    }

    /// Like [`FifoResource::serve`], also reporting which lane served the
    /// item (for trace journals).
    pub fn serve_on(&mut self, release: SimTime, duration: SimTime) -> (usize, SimTime, SimTime) {
        let served = serve_lane(&mut self.lanes, release, duration);
        self.busy += duration;
        self.served += 1;
        served
    }

    /// Serves `n` items released at `release`, each needing `duration`,
    /// and leaves the resource exactly as `n` calls of
    /// [`FifoResource::serve_on`] would. `sink(lane, start, end)` sees
    /// each item once, in serve order. Returns when the last of them
    /// ends (`release` when `n == 0`).
    ///
    /// The lanes are booked by [`madness_gpusim::serve_many`]: one item
    /// at a time only until the picks cycle, then whole rounds by
    /// arithmetic, checked item by item against `serve_on`'s pick
    /// wherever debug assertions are on.
    ///
    /// # Panics
    /// Panics if the resource has more than
    /// [`madness_gpusim::MAX_LANES`] lanes (their keys are sorted on the
    /// stack).
    pub fn serve_many(
        &mut self,
        release: SimTime,
        duration: SimTime,
        n: u64,
        sink: impl FnMut(usize, SimTime, SimTime),
    ) -> SimTime {
        let end = serve_many(&mut self.lanes, release, duration, n, sink);
        self.busy += duration * n;
        self.served += n;
        end
    }

    /// The next possible start time for an item released at `release`
    /// (what [`FifoResource::serve`] would return as `start`), without
    /// enqueuing anything.
    pub fn next_start(&self, release: SimTime) -> SimTime {
        self.lanes
            .iter()
            .copied()
            .min()
            .unwrap_or(SimTime::ZERO)
            .max(release)
    }

    /// Time when every lane is free (the resource's makespan).
    pub fn makespan(&self) -> SimTime {
        self.lanes.iter().copied().max().unwrap_or(SimTime::ZERO)
    }

    /// Aggregate busy time across lanes.
    pub fn busy_time(&self) -> SimTime {
        self.busy
    }

    /// Utilization in `[0, 1]` relative to `capacity × makespan`.
    pub fn utilization(&self) -> f64 {
        let span = self.makespan().as_secs_f64() * self.capacity() as f64;
        if span == 0.0 {
            0.0
        } else {
            self.busy.as_secs_f64() / span
        }
    }

    /// Items served so far.
    pub fn served(&self) -> u64 {
        self.served
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut des: Des<&str> = Des::new();
        des.schedule(SimTime::from_micros(30), "c");
        des.schedule(SimTime::from_micros(10), "a");
        des.schedule(SimTime::from_micros(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| des.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(des.now(), SimTime::from_micros(30));
    }

    #[test]
    fn ties_are_fifo_stable() {
        let mut des: Des<u32> = Des::new();
        let t = SimTime::from_micros(5);
        for i in 0..10 {
            des.schedule(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| des.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_panics() {
        let mut des: Des<()> = Des::new();
        des.schedule(SimTime::from_micros(10), ());
        des.pop();
        des.schedule(SimTime::from_micros(5), ());
    }

    #[test]
    fn advance_to_moves_the_clock_up_to_the_next_event() {
        let mut des: Des<()> = Des::new();
        des.schedule(SimTime::from_micros(10), ());
        des.advance_to(SimTime::from_micros(10)); // a tie is allowed
        assert_eq!(des.now(), SimTime::from_micros(10));
        assert_eq!(des.len(), 1);
    }

    #[test]
    #[should_panic(expected = "past a pending event")]
    fn advance_to_cannot_skip_a_pending_event() {
        let mut des: Des<()> = Des::new();
        des.schedule(SimTime::from_micros(10), ());
        des.advance_to(SimTime::from_micros(11));
    }

    #[test]
    fn single_lane_serializes() {
        let mut r = FifoResource::new(1);
        let d = SimTime::from_micros(10);
        let (s1, e1) = r.serve(SimTime::ZERO, d);
        let (s2, e2) = r.serve(SimTime::ZERO, d);
        assert_eq!((s1, e1), (SimTime::ZERO, d));
        assert_eq!((s2, e2), (d, d * 2));
        assert_eq!(r.makespan(), d * 2);
        assert_eq!(r.served(), 2);
    }

    #[test]
    fn multiple_lanes_run_concurrently() {
        let mut r = FifoResource::new(4);
        let d = SimTime::from_micros(10);
        for _ in 0..8 {
            r.serve(SimTime::ZERO, d);
        }
        assert_eq!(r.makespan(), d * 2); // 8 items / 4 lanes
        assert!((r.utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at most 16 lanes")]
    fn serve_many_refuses_a_wider_resource() {
        let mut r = FifoResource::new(madness_gpusim::MAX_LANES + 1);
        r.serve_many(SimTime::ZERO, SimTime::from_micros(1), 1, |_, _, _| {});
    }

    #[test]
    fn release_time_delays_start() {
        let mut r = FifoResource::new(2);
        let (s, _) = r.serve(SimTime::from_micros(100), SimTime::from_micros(1));
        assert_eq!(s, SimTime::from_micros(100));
    }

    #[test]
    fn utilization_reflects_idle_lanes() {
        let mut r = FifoResource::new(2);
        r.serve(SimTime::ZERO, SimTime::from_micros(10));
        // One lane busy 10 µs, the other idle ⇒ 50 %.
        assert!((r.utilization() - 0.5).abs() < 1e-12);
    }
}
