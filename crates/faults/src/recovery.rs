//! Recovery policy: how many times a failed GPU batch is retried and how
//! long each retry waits. When the device itself is taken out of service
//! is the health ladder's call ([`CircuitBreaker`](crate::CircuitBreaker)).

use crate::draw;

const SALT_JITTER: u64 = 0x4a49_5454; // "JITT"

/// Seed for the backoff jitter draws.
const JITTER_SEED: u64 = 0;

/// How the dispatcher reacts to GPU-side failures.
///
/// All durations are simulated nanoseconds; jitter is drawn from the
/// same stateless hash as fault injection, so a given policy + failure
/// history always produces the same backoff schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryPolicy {
    /// GPU retries for a failed batch before falling back to CPU.
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_backoff_ns: u64,
    /// Ceiling on any single backoff, jitter included: the exponential
    /// growth saturates here and the jittered value is clamped back to
    /// it, so no retry ever waits longer than the cap.
    pub backoff_cap_ns: u64,
    /// Jitter fraction in `[0, 1]`: each backoff is scaled by a
    /// deterministic factor in `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 2,
            base_backoff_ns: 100_000,   // 100 µs
            backoff_cap_ns: 10_000_000, // 10 ms
            jitter: 0.25,
        }
    }
}

impl RecoveryPolicy {
    /// Checks internal consistency.
    ///
    /// # Panics
    /// Panics when a field is out of range (jitter outside `[0, 1]`,
    /// zero backoff base, cap below base).
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.jitter),
            "jitter must be in [0, 1]"
        );
        assert!(self.base_backoff_ns > 0, "base backoff must be positive");
        assert!(
            self.backoff_cap_ns >= self.base_backoff_ns,
            "backoff cap below base"
        );
    }

    /// The backoff before retry `attempt` (0-based): capped exponential
    /// growth from the base, scaled by deterministic jitter keyed on
    /// `salt` (use something batch-unique so concurrent failures don't
    /// thundering-herd).
    ///
    /// Overflow-safe at any `attempt`: the shift is bounded, the multiply
    /// saturates, and the jittered value is clamped to the cap instead of
    /// wrapping — `backoff_ns(63, s) <= backoff_cap_ns` always holds.
    pub fn backoff_ns(&self, attempt: u32, salt: u64) -> u64 {
        let exp = self
            .base_backoff_ns
            .saturating_mul(1u64 << attempt.min(32))
            .min(self.backoff_cap_ns);
        if self.jitter == 0.0 {
            return exp;
        }
        let u = draw(JITTER_SEED, SALT_JITTER, salt.wrapping_add(attempt as u64));
        let factor = 1.0 + self.jitter * (2.0 * u - 1.0);
        // f64→u64 casts saturate, so even an enormous cap cannot wrap;
        // the min keeps the cap a hard ceiling through the jitter path.
        (((exp as f64) * factor).round() as u64).min(self.backoff_cap_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let pol = RecoveryPolicy {
            jitter: 0.0,
            ..RecoveryPolicy::default()
        };
        assert_eq!(pol.backoff_ns(0, 0), 100_000);
        assert_eq!(pol.backoff_ns(1, 0), 200_000);
        assert_eq!(pol.backoff_ns(2, 0), 400_000);
        assert_eq!(pol.backoff_ns(20, 0), pol.backoff_cap_ns, "caps at ceiling");
        assert_eq!(
            pol.backoff_ns(63, 0),
            pol.backoff_cap_ns,
            "no shift overflow"
        );
    }

    #[test]
    fn backoff_jitter_is_deterministic_and_bounded() {
        let pol = RecoveryPolicy::default();
        assert_eq!(pol.backoff_ns(1, 7), pol.backoff_ns(1, 7));
        assert_ne!(
            pol.backoff_ns(1, 7),
            pol.backoff_ns(1, 8),
            "salt decorrelates"
        );
        for salt in 0..200 {
            let b = pol.backoff_ns(0, salt) as f64;
            let base = pol.base_backoff_ns as f64;
            assert!(b >= base * (1.0 - pol.jitter) - 1.0);
            assert!(b <= base * (1.0 + pol.jitter) + 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "jitter must be in [0, 1]")]
    fn invalid_policy_rejected() {
        RecoveryPolicy {
            jitter: 2.0,
            ..RecoveryPolicy::default()
        }
        .validate();
    }

    #[test]
    fn backoff_attempt_63_boundary_saturates_at_cap() {
        // Jitter-free path: the shift is bounded and the cap binds.
        let flat = RecoveryPolicy {
            jitter: 0.0,
            ..RecoveryPolicy::default()
        };
        assert_eq!(flat.backoff_ns(63, 0), flat.backoff_cap_ns);
        assert_eq!(flat.backoff_ns(u32::MAX, 0), flat.backoff_cap_ns);
        // Extreme base/cap: the multiply saturates instead of wrapping.
        let huge = RecoveryPolicy {
            base_backoff_ns: u64::MAX / 2,
            backoff_cap_ns: u64::MAX,
            jitter: 0.0,
            ..RecoveryPolicy::default()
        };
        assert_eq!(huge.backoff_ns(63, 0), u64::MAX);
        // Jitter path at the boundary: deterministic, and the cap stays
        // a hard ceiling even though jitter would push past it.
        let pol = RecoveryPolicy::default();
        for salt in 0..100 {
            let b = pol.backoff_ns(63, salt);
            assert!(b <= pol.backoff_cap_ns, "jittered backoff above cap");
            assert!(
                b as f64 >= pol.backoff_cap_ns as f64 * (1.0 - pol.jitter) - 1.0,
                "jittered backoff below the jitter envelope"
            );
            assert_eq!(b, pol.backoff_ns(63, salt), "deterministic");
        }
        // Jittered extreme cap: the f64 round-trip saturates, no wrap.
        let huge_jitter = RecoveryPolicy {
            base_backoff_ns: u64::MAX / 2,
            backoff_cap_ns: u64::MAX,
            ..RecoveryPolicy::default()
        };
        for salt in 0..100 {
            assert!(huge_jitter.backoff_ns(63, salt) >= u64::MAX / 4);
        }
    }
}
