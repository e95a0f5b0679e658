//! A reference tick for correcting timings to the host's current speed.
//!
//! The sandboxes this benchmark runs in share their cores and caches
//! with other tenants: over tens of seconds the same pass is up to
//! 50 % slower or faster, far beyond any regression bound. A fixed
//! piece of reference work, run right before and after each timed
//! interval, slows down with the host by a similar factor, so dividing
//! a timing by the tick's slowdown removes most of that drift (measured
//! on this host: run-to-run spread 0.20–0.29 raw, 0.06–0.10 corrected;
//! on a quiet host the correction is ~1 and changes nothing).
//!
//! The tick is independent of the repository's code: no change to the
//! program can move it.

use std::hint::black_box;
use std::time::Instant;

/// The tick's duration on this benchmark's reference host when
/// undisturbed. A constant: it only fixes the scale of corrected times.
pub const NOMINAL_TICK_S: f64 = 0.025;

/// One tick: a fixed integer mix with several independent chains and a
/// data-dependent branch (high instruction throughput, so it feels a
/// busy sibling hyperthread the way the simulators do). Returns its
/// seconds.
pub fn tick() -> f64 {
    let t = Instant::now();
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    let mut n = 0u64;
    for i in 0..12_000_000u64 {
        a = a.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(7) ^ i;
        b = b.wrapping_add(a >> 3) ^ (b << 5);
        c = c.wrapping_mul(31).wrapping_add(i);
        d ^= c.rotate_right(11).wrapping_add(b);
        if (a ^ d) & 7 == 0 {
            n += 1;
        }
    }
    black_box((a, b, c, d, n));
    t.elapsed().as_secs_f64()
}

/// The tick run on `threads` executor workers at once; returns their
/// mean. A workload that keeps every worker busy feels a slow or shared
/// second CPU that a tick on one thread never sees (measured on
/// `apply-k4`: run-to-run range 0.18–0.32 s corrected by the one-thread
/// tick, 0.18–0.22 s by this one).
pub fn tick_on(threads: usize) -> f64 {
    fn fan_out(n: usize) -> f64 {
        if n <= 1 {
            tick()
        } else {
            let (a, b) = rayon::join(|| fan_out(n / 2), || fan_out(n - n / 2));
            a + b
        }
    }
    let threads = threads.max(1);
    fan_out(threads) / threads as f64
}

/// The host's slowdown over an interval bracketed by two ticks (mean
/// tick ÷ nominal tick; 1.0 = reference speed).
pub fn slowdown(tick_before: f64, tick_after: f64) -> f64 {
    0.5 * (tick_before + tick_after) / NOMINAL_TICK_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_mean_tick_over_nominal() {
        assert_eq!(slowdown(NOMINAL_TICK_S, NOMINAL_TICK_S), 1.0);
        assert_eq!(slowdown(NOMINAL_TICK_S, 3.0 * NOMINAL_TICK_S), 2.0);
        let measured = slowdown(tick(), tick());
        assert!(measured > 0.05 && measured < 50.0, "slowdown {measured}");
    }
}
