//! Greedy list scheduling of equal items onto identical lanes.
//!
//! Each item starts on the earliest-free lane, no earlier than its
//! release time; of lanes free at the same time, the lowest index
//! serves. [`serve_lane`] makes one such pick; [`serve_many`] books `n`
//! items of one duration in closed form and leaves the lanes exactly
//! as `n` picks would. The device's streams and the cluster node's
//! `FifoResource` data lanes both book through them; the small
//! non-generic pieces are `#[inline]` so the other crates' copies of
//! the closed form and `FifoResource::serve_on` inline them.

use crate::clock::SimTime;

/// Most lanes [`serve_many`] orders on the stack.
pub const MAX_LANES: usize = 16;

/// The one lane pick: the earliest-free lane, the lowest index of a tie
/// (`min_by_key` keeps the first minimum), serves from `release` on.
/// Returns `(lane, start, end)`.
///
/// # Panics
/// Panics if `lanes` is empty.
#[inline]
pub fn serve_lane(
    lanes: &mut [SimTime],
    release: SimTime,
    duration: SimTime,
) -> (usize, SimTime, SimTime) {
    let (idx, &free) = lanes
        .iter()
        .enumerate()
        .min_by_key(|(_, t)| **t)
        .expect("at least one lane");
    let start = free.max(release);
    let end = start + duration;
    lanes[idx] = end;
    (idx, start, end)
}

/// Serves `n` items released at `release`, each needing `duration`,
/// and leaves `lanes` exactly as `n` calls of [`serve_lane`] would.
/// `sink(lane, start, end)` sees each item once, in serve order.
/// Returns when the last of them ends (`release` when `n == 0`).
///
/// Items go one at a time only until every lane is busy past `release`
/// and within one `duration` of the others; from then on the picks
/// cycle through the lanes in `(free, index)` order, and the rest go in
/// whole rounds by arithmetic. Lanes that start within one `duration`
/// of each other, or all free by `release`, get there within one item a
/// lane, so such a call costs at most O(lanes²) whatever `n`, plus the
/// sink's calls. With debug assertions on, every item, the end and the
/// lanes left are checked against `n` picks on a stack copy.
///
/// # Panics
/// Panics if there are no lanes or more than [`MAX_LANES`] (their keys
/// are sorted on the stack).
pub fn serve_many(
    lanes: &mut [SimTime],
    release: SimTime,
    duration: SimTime,
    n: u64,
    sink: impl FnMut(usize, SimTime, SimTime),
) -> SimTime {
    assert!(
        (1..=MAX_LANES).contains(&lanes.len()),
        "serve_many takes 1 to at most {MAX_LANES} lanes"
    );
    if cfg!(debug_assertions) {
        return serve_many_checked(lanes, release, duration, n, sink);
    }
    serve_rounds(lanes, release, duration, n, sink)
}

/// [`serve_many`] with every item it sinks, its end and the lanes it
/// leaves checked against `n` one-item picks on a stack copy of the
/// lanes (a copy that allocated would break the node pipeline's
/// allocation budget in debug builds).
fn serve_many_checked(
    lanes: &mut [SimTime],
    release: SimTime,
    duration: SimTime,
    n: u64,
    mut sink: impl FnMut(usize, SimTime, SimTime),
) -> SimTime {
    let mut copy = [SimTime::ZERO; MAX_LANES];
    let oracle = &mut copy[..lanes.len()];
    oracle.copy_from_slice(lanes);
    let (mut seen, mut last) = (0u64, release);
    let end = serve_rounds(lanes, release, duration, n, |lane, start, end| {
        let want = serve_lane(oracle, release, duration);
        assert_eq!((lane, start, end), want, "serve_many item {seen} of {n}");
        seen += 1;
        last = last.max(end);
        sink(lane, start, end);
    });
    assert_eq!(seen, n, "serve_many sank {seen} of {n} items");
    assert_eq!(lanes, oracle, "serve_many lanes");
    assert_eq!(end, last, "serve_many end");
    end
}

/// The closed form behind [`serve_many`]. It works on the lanes'
/// `(free, index)` keys in sorted order, the order [`serve_lane`] picks
/// them in. Items go one at a time, the earliest lane serving and then
/// taking its place among the others by its new key, only until the
/// picks cycle (see [`cycles`]); the rest go in whole rounds by
/// arithmetic.
fn serve_rounds(
    lanes: &mut [SimTime],
    release: SimTime,
    duration: SimTime,
    n: u64,
    mut sink: impl FnMut(usize, SimTime, SimTime),
) -> SimTime {
    let c = lanes.len();
    let mut keys = [(SimTime::ZERO, 0u8); MAX_LANES];
    let keys = &mut keys[..c];
    for (key, (&free, i)) in keys.iter_mut().zip(lanes.iter().zip(0u8..)) {
        *key = (free, i);
    }
    keys.sort_unstable();
    let (mut end, mut left) = (release, n);
    while left > 0 && !cycles(keys, release, duration) {
        let (free, i) = keys[0];
        let start = free.max(release);
        let key = (start + duration, i);
        sink(i as usize, start, key.0);
        end = end.max(key.0);
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
        end = end.max(last);
    }
    // (Past a one-lane cycle the duration is zero and moves no lane.)
    for (j, &(free, i)) in keys.iter().enumerate() {
        lanes[i as usize] = free + duration * (rounds + u64::from(j < rem));
    }
    end
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
#[inline]
fn cycles(keys: &[(SimTime, u8)], release: SimTime, duration: SimTime) -> bool {
    let (first, last) = (keys[0], keys[keys.len() - 1]);
    first.0 >= release && (duration == SimTime::ZERO || last < (first.0 + duration, first.1))
}
