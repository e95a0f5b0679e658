//! A minimal discrete-event simulation core.
//!
//! Two primitives suffice for the node pipeline:
//!
//! * [`Des`] — an event heap delivering `(time, payload)` pairs in
//!   chronological order (FIFO-stable within a timestamp);
//! * [`FifoResource`] — a capacity-`c` resource (CPU lanes, GPU streams,
//!   the single dispatcher thread) that serves enqueued work items in
//!   arrival order and reports each item's completion time.

use madness_gpusim::SimTime;
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

/// Most lanes [`FifoResource::serve_many`] orders on the stack.
const ROUND_LANES: usize = 16;

/// A FIFO resource with `capacity` identical lanes (greedy assignment:
/// each item starts on the earliest-free lane, no earlier than its
/// release time; of lanes free at the same time, the lowest index
/// serves — the tie-break [`FifoResource::serve_many`]'s closed form
/// reproduces).
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
    /// Items go one at a time only until every lane is busy past
    /// `release` and within one `duration` of the others; from then on
    /// the picks cycle through the lanes in `(free, index)` order, and
    /// the rest go in whole rounds by arithmetic. Lanes that start
    /// within one `duration` of each other, or all free by `release`,
    /// get there within one item a lane, so such a call costs at most
    /// O(lanes²) whatever `n`, plus the sink's calls.
    ///
    /// # Panics
    /// Panics if the resource has more than 16 lanes (its keys are
    /// sorted on the stack).
    pub fn serve_many(
        &mut self,
        release: SimTime,
        duration: SimTime,
        n: u64,
        sink: impl FnMut(usize, SimTime, SimTime),
    ) -> SimTime {
        assert!(
            self.lanes.len() <= ROUND_LANES,
            "serve_many takes at most {ROUND_LANES} lanes"
        );
        if cfg!(debug_assertions) {
            return self.serve_many_checked(release, duration, n, sink);
        }
        self.serve_rounds(release, duration, n, sink)
    }

    /// [`FifoResource::serve_many`] with every item it sinks, its end
    /// and the state it leaves checked against `n` one-item picks on a
    /// stack copy of the lanes (a copy that allocated would break the
    /// node pipeline's allocation budget in debug builds).
    fn serve_many_checked(
        &mut self,
        release: SimTime,
        duration: SimTime,
        n: u64,
        mut sink: impl FnMut(usize, SimTime, SimTime),
    ) -> SimTime {
        let mut copy = [SimTime::ZERO; ROUND_LANES];
        let oracle = &mut copy[..self.lanes.len()];
        oracle.copy_from_slice(&self.lanes);
        let (busy, served) = (self.busy, self.served);
        let (mut seen, mut last) = (0u64, release);
        let end = self.serve_rounds(release, duration, n, |lane, start, end| {
            let want = serve_lane(oracle, release, duration);
            assert_eq!((lane, start, end), want, "serve_many item {seen} of {n}");
            seen += 1;
            last = last.max(end);
            sink(lane, start, end);
        });
        assert_eq!(seen, n, "serve_many sank {seen} of {n} items");
        assert_eq!(self.lanes, *oracle, "serve_many lanes");
        assert_eq!(self.busy, busy + duration * n, "serve_many busy time");
        assert_eq!(self.served, served + n, "serve_many served count");
        assert_eq!(end, last, "serve_many end");
        end
    }

    /// The closed form behind [`FifoResource::serve_many`]. It works on
    /// the lanes' `(free, index)` keys in sorted order, the order
    /// `serve_on` picks them in. Items go one at a time, the earliest
    /// lane serving and then taking its place among the others by its
    /// new key, only until the picks cycle (see [`cycles`]); the rest go
    /// in whole rounds by arithmetic.
    fn serve_rounds(
        &mut self,
        release: SimTime,
        duration: SimTime,
        n: u64,
        mut sink: impl FnMut(usize, SimTime, SimTime),
    ) -> SimTime {
        let c = self.lanes.len();
        let mut keys = [(SimTime::ZERO, 0u8); ROUND_LANES];
        let keys = &mut keys[..c];
        for (key, (&free, i)) in keys.iter_mut().zip(self.lanes.iter().zip(0u8..)) {
            *key = (free, i);
        }
        keys.sort_unstable();
        let (mut end, mut left) = (release, n);
        while left > 0 && !cycles(keys, release, duration) {
            let (free, i) = keys[0];
            // `Ord::max`, which inlines across crates where the inherent
            // `SimTime::max` does not.
            let start = Ord::max(free, release);
            let key = (start + duration, i);
            sink(i as usize, start, key.0);
            end = Ord::max(end, key.0);
            left -= 1;
            let mut at = 0;
            while at + 1 < c && keys[at + 1] < key {
                keys[at] = keys[at + 1];
                at += 1;
            }
            keys[at] = key;
        }
        // A zero duration leaves the earliest lane where it is, so every
        // item goes there: a cycle of one lane.
        let cycle = if duration == SimTime::ZERO { 1 } else { c };
        let (rounds, rem) = (left / cycle as u64, (left % cycle as u64) as usize);
        for r in 0..rounds {
            for &(free, i) in &keys[..cycle] {
                let start = free + duration * r;
                sink(i as usize, start, start + duration);
            }
        }
        for &(free, i) in &keys[..rem] {
            let start = free + duration * rounds;
            sink(i as usize, start, start + duration);
        }
        if left > 0 {
            // Served in key order, the last item is the last lane of the
            // final round, or of the whole rounds when none is partial.
            let last = match rem {
                0 => keys[cycle - 1].0 + duration * rounds,
                _ => keys[rem - 1].0 + duration * (rounds + 1),
            };
            end = Ord::max(end, last);
        }
        // (Past a one-lane cycle the duration is zero and moves no lane.)
        for (j, &(free, i)) in keys.iter().enumerate() {
            self.lanes[i as usize] = free + duration * (rounds + u64::from(j < rem));
        }
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

/// True when the picks from here on cycle through the lanes in the
/// order of their sorted `(free, index)` `keys`: every lane is free no
/// earlier than `release`, so an item starts when its lane frees, and
/// the earliest key plus one `duration` comes after the latest key, so
/// each lane served goes behind all the others. Serving keeps this true,
/// so `n` more items give every lane `n / c` and the first `n mod c`
/// lanes in that order one more. A zero `duration` leaves a lane at or
/// after `release` where it is, so there the earliest lane is the whole
/// cycle.
fn cycles(keys: &[(SimTime, u8)], release: SimTime, duration: SimTime) -> bool {
    let (first, last) = (keys[0], keys[keys.len() - 1]);
    first.0 >= release && (duration == SimTime::ZERO || last < (first.0 + duration, first.1))
}

/// The one lane pick: the earliest-free lane, the lowest index of a tie
/// (`min_by_key` keeps the first minimum), serves from `release` on.
fn serve_lane(
    lanes: &mut [SimTime],
    release: SimTime,
    duration: SimTime,
) -> (usize, SimTime, SimTime) {
    let (idx, &free) = lanes
        .iter()
        .enumerate()
        .min_by_key(|(_, t)| **t)
        .expect("capacity > 0");
    let start = free.max(release);
    let end = start + duration;
    lanes[idx] = end;
    (idx, start, end)
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
        let mut r = FifoResource::new(ROUND_LANES + 1);
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
