//! `FifoResource::serve_many` against `n` calls of `serve_on`.
//!
//! The node pipeline books a flush's preprocess and postprocess items in
//! closed form: one item at a time only until the lane picks cycle, then
//! whole rounds by arithmetic. Here random histories — 1 to 8 lanes left
//! at mixed times by items of mixed durations — meet a few batch calls
//! whose release lies below, among or above the lanes, whose duration
//! may be zero and whose count runs from 0 to 200. After every call the
//! two resources must agree on their lanes, busy time, served count and
//! makespan, on the returned end, and on each item's `(lane, start,
//! end)` in serve order.
//!
//! With debug assertions on, `serve_many` also checks itself against a
//! stack copy of the lanes; this test compares from outside, so it bites
//! in a plain release build too:
//!
//! ```bash
//! cargo test --release -p madness-cluster --test serve_many_proptests
//! ```

use madness_cluster::des::FifoResource;
use madness_gpusim::SimTime;
use proptest::prelude::*;

/// Where a call's release lies against the lanes: at or below the
/// earliest (`0`), between the earliest and the latest (`1`), or after
/// the latest (`2`); `at` picks the point.
fn release_for(r: &FifoResource, place: u64, at: u64) -> SimTime {
    let (first, last) = (
        r.next_start(SimTime::ZERO).as_nanos(),
        r.makespan().as_nanos(),
    );
    SimTime::from_nanos(match place {
        0 => at % (first + 1),
        1 => first + at % (last - first + 1),
        _ => last + 1 + at % 20_000,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn serve_many_is_n_calls_of_serve_on(
        capacity in 1usize..9,
        history in proptest::collection::vec((0u64..40_000, 0u64..9_000), 0..24),
        calls in proptest::collection::vec(
            ((0u64..3, any::<u64>()), prop_oneof![0u64..1, 1u64..64, 64u64..9_000], 0u64..201),
            1..5,
        ),
    ) {
        let mut many = FifoResource::new(capacity);
        for &(release, duration) in &history {
            many.serve_on(SimTime::from_nanos(release), SimTime::from_nanos(duration));
        }
        let mut one = many.clone();
        let mut got = Vec::new();
        for &((place, at), duration, n) in &calls {
            let release = release_for(&many, place, at);
            let duration = SimTime::from_nanos(duration);
            got.clear();
            let end = many.serve_many(release, duration, n, |lane, start, end| {
                got.push((lane, start, end));
            });
            let want: Vec<_> = (0..n).map(|_| one.serve_on(release, duration)).collect();
            let want_end = want.iter().fold(release, |t, &(_, _, end)| t.max(end));
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(end, want_end);
            prop_assert_eq!(many.busy_time(), one.busy_time());
            prop_assert_eq!(many.served(), one.served());
            prop_assert_eq!(many.makespan(), one.makespan());
            // Every lane's free time, not just the latest.
            prop_assert_eq!(&many, &one);
        }
    }
}
