//! Recovery policy: backoff, device health, quarantine and re-admission.

use crate::draw;

const SALT_JITTER: u64 = 0x4a49_5454; // "JITT"

/// Seed for the backoff jitter draws.
const JITTER_SEED: u64 = 0;

/// Consecutive failed batches before the device is quarantined.
const QUARANTINE_AFTER: u32 = 3;

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
    /// Length of the first quarantine window.
    pub quarantine_ns: u64,
    /// Ceiling on the (doubling) quarantine window.
    pub quarantine_cap_ns: u64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 2,
            base_backoff_ns: 100_000,   // 100 µs
            backoff_cap_ns: 10_000_000, // 10 ms
            jitter: 0.25,
            quarantine_ns: 5_000_000,      // 5 ms
            quarantine_cap_ns: 80_000_000, // 80 ms
        }
    }
}

impl RecoveryPolicy {
    /// Checks internal consistency.
    ///
    /// # Panics
    /// Panics when a field is out of range (jitter outside `[0, 1]`,
    /// zero backoff base, cap below base, zero quarantine window,
    /// quarantine cap below window).
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
        assert!(self.quarantine_ns > 0, "quarantine window must be positive");
        assert!(
            self.quarantine_cap_ns >= self.quarantine_ns,
            "quarantine cap below window"
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

/// The dispatcher-visible health of one GPU device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceHealth {
    /// No recent failures.
    Healthy,
    /// Recent failures, still in service.
    Degraded {
        /// Failed batches since the last success.
        consecutive_failures: u32,
    },
    /// Out of service until the window expires.
    Quarantined {
        /// Simulated nanosecond at which probing may begin.
        until_ns: u64,
    },
}

/// What the dispatcher may send to the device right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GpuGate {
    /// Full service: plan the normal GPU share.
    Open,
    /// Quarantine expired: send one small probe batch only.
    Probe,
    /// Quarantined: send nothing to the GPU.
    Closed,
}

/// Tracks one device's failure history and drives the
/// quarantine → probe → re-admission state machine.
///
/// [`QUARANTINE_AFTER`] consecutive failed batches close the gate for a
/// quarantine window; each re-quarantine doubles the window up to the
/// cap, and a successful probe resets it. The first successful batch
/// after a quarantine reports `readmitted = true` so the caller can
/// reset its cost model (the device's post-reset performance is
/// unknown).
#[derive(Clone, Debug)]
pub struct HealthTracker {
    policy: RecoveryPolicy,
    health: DeviceHealth,
    window_ns: u64,
    probing: bool,
    quarantines: u64,
    readmissions: u64,
}

impl HealthTracker {
    /// A healthy tracker under `policy`.
    ///
    /// # Panics
    /// Panics if the policy fails [`RecoveryPolicy::validate`].
    pub fn new(policy: RecoveryPolicy) -> Self {
        policy.validate();
        HealthTracker {
            window_ns: policy.quarantine_ns,
            policy,
            health: DeviceHealth::Healthy,
            probing: false,
            quarantines: 0,
            readmissions: 0,
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> &RecoveryPolicy {
        &self.policy
    }

    /// Current health.
    pub fn health(&self) -> DeviceHealth {
        self.health
    }

    /// Times this device has been quarantined.
    pub fn quarantines(&self) -> u64 {
        self.quarantines
    }

    /// Times this device has been re-admitted after quarantine.
    pub fn readmissions(&self) -> u64 {
        self.readmissions
    }

    /// What may be dispatched at simulated time `now_ns`.
    pub fn gate(&mut self, now_ns: u64) -> GpuGate {
        match self.health {
            DeviceHealth::Quarantined { until_ns } if now_ns < until_ns => GpuGate::Closed,
            DeviceHealth::Quarantined { .. } => {
                self.probing = true;
                GpuGate::Probe
            }
            _ if self.probing => GpuGate::Probe,
            _ => GpuGate::Open,
        }
    }

    /// Records a failed batch; returns the new health.
    ///
    /// A failure while probing re-quarantines immediately with a doubled
    /// window; otherwise failures accumulate toward the quarantine
    /// threshold.
    pub fn on_batch_failed(&mut self, now_ns: u64) -> DeviceHealth {
        if self.probing {
            self.probing = false;
            self.window_ns = (self.window_ns * 2).min(self.policy.quarantine_cap_ns);
            return self.quarantine(now_ns);
        }
        let failures = match self.health {
            DeviceHealth::Degraded {
                consecutive_failures,
            } => consecutive_failures + 1,
            _ => 1,
        };
        if failures >= QUARANTINE_AFTER {
            self.quarantine(now_ns)
        } else {
            self.health = DeviceHealth::Degraded {
                consecutive_failures: failures,
            };
            self.health
        }
    }

    /// Records a successful batch; returns `true` when this success
    /// re-admits the device out of a quarantine (caller should reset
    /// its cost model for the device).
    pub fn on_batch_ok(&mut self, _now_ns: u64) -> bool {
        let readmitted = self.probing || matches!(self.health, DeviceHealth::Quarantined { .. });
        self.probing = false;
        self.health = DeviceHealth::Healthy;
        if readmitted {
            self.window_ns = self.policy.quarantine_ns;
            self.readmissions += 1;
        }
        readmitted
    }

    /// Quarantines immediately (device-lost class failures bypass the
    /// consecutive-failure threshold).
    pub fn force_quarantine(&mut self, now_ns: u64) -> DeviceHealth {
        self.probing = false;
        self.quarantine(now_ns)
    }

    fn quarantine(&mut self, now_ns: u64) -> DeviceHealth {
        self.quarantines += 1;
        self.health = DeviceHealth::Quarantined {
            until_ns: now_ns.saturating_add(self.window_ns),
        };
        self.health
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
    fn failures_accumulate_then_quarantine() {
        let mut hl = HealthTracker::new(RecoveryPolicy::default());
        assert_eq!(hl.gate(0), GpuGate::Open);
        assert_eq!(
            hl.on_batch_failed(10),
            DeviceHealth::Degraded {
                consecutive_failures: 1
            }
        );
        assert_eq!(hl.gate(11), GpuGate::Open, "degraded still serves");
        assert_eq!(
            hl.on_batch_failed(20),
            DeviceHealth::Degraded {
                consecutive_failures: 2
            }
        );
        let q = hl.on_batch_failed(30);
        assert_eq!(
            q,
            DeviceHealth::Quarantined {
                until_ns: 30 + 5_000_000
            }
        );
        assert_eq!(hl.quarantines(), 1);
        assert_eq!(hl.gate(31), GpuGate::Closed);
    }

    #[test]
    fn success_resets_degraded_count() {
        let mut hl = HealthTracker::new(RecoveryPolicy::default());
        hl.on_batch_failed(0);
        hl.on_batch_failed(1);
        assert!(!hl.on_batch_ok(2), "plain success is not a re-admission");
        assert_eq!(hl.health(), DeviceHealth::Healthy);
        // The counter restarted: two more failures don't quarantine.
        hl.on_batch_failed(3);
        hl.on_batch_failed(4);
        assert!(matches!(
            hl.health(),
            DeviceHealth::Degraded {
                consecutive_failures: 2
            }
        ));
    }

    #[test]
    fn probe_readmission_resets_window_and_counts() {
        let pol = RecoveryPolicy::default();
        let mut hl = HealthTracker::new(pol);
        hl.force_quarantine(0);
        assert_eq!(hl.gate(pol.quarantine_ns - 1), GpuGate::Closed);
        assert_eq!(hl.gate(pol.quarantine_ns), GpuGate::Probe);
        assert_eq!(
            hl.gate(pol.quarantine_ns + 1),
            GpuGate::Probe,
            "probe is sticky"
        );
        assert!(
            hl.on_batch_ok(pol.quarantine_ns + 100),
            "probe success re-admits"
        );
        assert_eq!(hl.readmissions(), 1);
        assert_eq!(hl.gate(pol.quarantine_ns + 101), GpuGate::Open);
    }

    #[test]
    fn failed_probe_doubles_window_up_to_cap() {
        let pol = RecoveryPolicy {
            quarantine_ns: 1_000,
            quarantine_cap_ns: 3_000,
            ..RecoveryPolicy::default()
        };
        let mut hl = HealthTracker::new(pol);
        hl.force_quarantine(0);
        assert_eq!(hl.gate(1_000), GpuGate::Probe);
        let q = hl.on_batch_failed(1_100);
        assert_eq!(
            q,
            DeviceHealth::Quarantined {
                until_ns: 1_100 + 2_000
            },
            "doubled"
        );
        assert_eq!(hl.gate(3_100), GpuGate::Probe);
        let q = hl.on_batch_failed(3_200);
        assert_eq!(
            q,
            DeviceHealth::Quarantined {
                until_ns: 3_200 + 3_000
            },
            "capped"
        );
        // Success after probe resets the window to base.
        assert_eq!(hl.gate(6_200), GpuGate::Probe);
        assert!(hl.on_batch_ok(6_300));
        hl.force_quarantine(10_000);
        assert_eq!(hl.health(), DeviceHealth::Quarantined { until_ns: 11_000 });
    }

    #[test]
    #[should_panic(expected = "jitter must be in [0, 1]")]
    fn invalid_policy_rejected() {
        HealthTracker::new(RecoveryPolicy {
            jitter: 2.0,
            ..RecoveryPolicy::default()
        });
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

    #[test]
    fn gate_flips_exactly_at_quarantine_window_end() {
        let pol = RecoveryPolicy::default();
        let mut hl = HealthTracker::new(pol);
        hl.force_quarantine(1_000);
        let until = 1_000 + pol.quarantine_ns;
        assert_eq!(hl.health(), DeviceHealth::Quarantined { until_ns: until });
        assert_eq!(hl.gate(until - 1), GpuGate::Closed, "one ns early: closed");
        assert_eq!(hl.gate(until), GpuGate::Probe, "window end is inclusive");
    }

    #[test]
    fn ok_at_probe_instant_readmits_with_zero_length_window() {
        // The probe batch completes at the very instant the gate opened:
        // a zero-length probe window must still count as a re-admission
        // and reset the (doubled) quarantine window back to base.
        let pol = RecoveryPolicy {
            quarantine_ns: 1_000,
            quarantine_cap_ns: 4_000,
            ..RecoveryPolicy::default()
        };
        let mut hl = HealthTracker::new(pol);
        hl.force_quarantine(0);
        assert_eq!(hl.gate(1_000), GpuGate::Probe);
        hl.on_batch_failed(1_000); // failed probe doubles the window
        assert_eq!(hl.health(), DeviceHealth::Quarantined { until_ns: 3_000 });
        assert_eq!(hl.gate(3_000), GpuGate::Probe);
        assert!(hl.on_batch_ok(3_000), "zero-length probe still re-admits");
        assert_eq!(hl.health(), DeviceHealth::Healthy);
        assert_eq!(hl.gate(3_000), GpuGate::Open);
        assert_eq!((hl.quarantines(), hl.readmissions()), (2, 1));
        // Window was reset: the next quarantine uses the base window.
        hl.force_quarantine(10_000);
        assert_eq!(hl.health(), DeviceHealth::Quarantined { until_ns: 11_000 });
    }

    mod interleavings {
        use super::*;
        use proptest::prelude::*;

        #[derive(Clone, Copy, Debug)]
        enum Op {
            Gate,
            Ok,
            Failed,
            Force,
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                Just(Op::Gate),
                Just(Op::Ok),
                Just(Op::Failed),
                Just(Op::Force),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Counters are monotone under any interleaving at any
            /// (nondecreasing) clock, re-admissions never outrun
            /// quarantines, and a Probe gate only appears while at
            /// least one quarantine has happened.
            #[test]
            fn counters_monotone_under_interleaving(
                ops in proptest::collection::vec((op_strategy(), 0u64..50_000), 1..80),
            ) {
                let pol = RecoveryPolicy {
                    quarantine_ns: 1_000,
                    quarantine_cap_ns: 8_000,
                    ..RecoveryPolicy::default()
                };
                let mut hl = HealthTracker::new(pol);
                let mut now = 0u64;
                let (mut last_q, mut last_r) = (0u64, 0u64);
                for (op, dt) in ops {
                    now += dt;
                    match op {
                        Op::Gate => {
                            if hl.gate(now) == GpuGate::Probe {
                                prop_assert!(hl.quarantines() > 0);
                            }
                        }
                        Op::Ok => {
                            let readmitted = hl.on_batch_ok(now);
                            prop_assert_eq!(hl.health(), DeviceHealth::Healthy);
                            if readmitted {
                                prop_assert_eq!(hl.readmissions(), last_r + 1);
                            }
                        }
                        Op::Failed => {
                            hl.on_batch_failed(now);
                        }
                        Op::Force => {
                            hl.force_quarantine(now);
                            let quarantined =
                                matches!(hl.health(), DeviceHealth::Quarantined { .. });
                            prop_assert!(quarantined);
                        }
                    }
                    prop_assert!(hl.quarantines() >= last_q, "quarantines decreased");
                    prop_assert!(hl.readmissions() >= last_r, "readmissions decreased");
                    prop_assert!(
                        hl.readmissions() <= hl.quarantines(),
                        "readmitted more often than quarantined"
                    );
                    last_q = hl.quarantines();
                    last_r = hl.readmissions();
                }
            }
        }
    }
}
