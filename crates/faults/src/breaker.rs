//! Per-(tenant, node) circuit breakers for the serving layer.
//!
//! [`HealthTracker`](crate::HealthTracker) guards one *device* behind one
//! dispatcher; the serving cluster needs the same closed → open →
//! half-open ladder per **(tenant, node)** pair, because a node that is
//! dead for everyone and a node that only one tenant's kind keeps
//! crashing on are different failures. [`CircuitBreaker`] is that
//! generalization: a deterministic state machine with counted half-open
//! probe admission (the first `half_open_probes` admission queries after
//! the open window expires are probes; `probe_successes` consecutive
//! successes close the breaker, any failure re-opens it with a doubled
//! window up to a cap). No RNG anywhere — the same call sequence always
//! walks the same states, preserving bit-identical replay.

/// Tuning for a [`CircuitBreaker`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Consecutive failures (while closed) that trip the breaker open.
    pub failure_threshold: u32,
    /// Length of the first open window, simulated nanoseconds.
    pub open_ns: u64,
    /// Ceiling on the (doubling) open window.
    pub open_cap_ns: u64,
    /// Admission queries allowed through per half-open round.
    pub half_open_probes: u32,
    /// Consecutive probe successes required to close the breaker.
    pub probe_successes: u32,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            failure_threshold: 3,
            open_ns: 5_000_000,      // 5 ms, matches the quarantine base
            open_cap_ns: 80_000_000, // 80 ms
            half_open_probes: 1,
            probe_successes: 1,
        }
    }
}

impl BreakerPolicy {
    /// Checks internal consistency.
    ///
    /// # Panics
    /// Panics when a field is out of range (zero threshold, zero or
    /// capless open window, zero probe counts).
    pub fn validate(&self) {
        assert!(self.failure_threshold > 0, "failure threshold must be > 0");
        assert!(self.open_ns > 0, "open window must be positive");
        assert!(self.open_cap_ns >= self.open_ns, "open cap below window");
        assert!(self.half_open_probes > 0, "need at least one probe slot");
        assert!(self.probe_successes > 0, "need at least one probe success");
    }
}

/// Where a [`CircuitBreaker`] is in its ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Traffic flows; failures accumulate toward the threshold.
    Closed,
    /// Tripped: every admission is refused until the window expires.
    Open {
        /// Simulated nanosecond at which half-open probing may begin.
        until_ns: u64,
    },
    /// Window expired: a bounded number of probe admissions decide
    /// whether to close again or re-open with a doubled window.
    HalfOpen,
}

/// One closed → open → half-open breaker.
///
/// Drive it with [`CircuitBreaker::admit`] before sending work and
/// [`CircuitBreaker::on_success`] / [`CircuitBreaker::on_failure`] when
/// the work's outcome is known. [`CircuitBreaker::trip`] force-opens it
/// (node declared dead). Deterministic: state depends only on the call
/// sequence and the clock values passed in.
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    policy: BreakerPolicy,
    state: BreakerState,
    window_ns: u64,
    consecutive_failures: u32,
    probes_in_flight: u32,
    probe_successes: u32,
    trips: u64,
    closes: u64,
}

impl CircuitBreaker {
    /// A closed breaker under `policy`.
    ///
    /// # Panics
    /// Panics if the policy fails [`BreakerPolicy::validate`].
    pub fn new(policy: BreakerPolicy) -> Self {
        policy.validate();
        CircuitBreaker {
            window_ns: policy.open_ns,
            policy,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            probes_in_flight: 0,
            probe_successes: 0,
            trips: 0,
            closes: 0,
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> &BreakerPolicy {
        &self.policy
    }

    /// Current state (after resolving an expired open window at `now_ns`).
    pub fn state(&mut self, now_ns: u64) -> BreakerState {
        self.refresh(now_ns);
        self.state
    }

    /// Times the breaker has tripped open.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Times the breaker has closed again after a trip.
    pub fn closes(&self) -> u64 {
        self.closes
    }

    fn refresh(&mut self, now_ns: u64) {
        if let BreakerState::Open { until_ns } = self.state {
            if now_ns >= until_ns {
                self.state = BreakerState::HalfOpen;
                self.probes_in_flight = 0;
                self.probe_successes = 0;
            }
        }
    }

    /// Whether one unit of work may be sent at `now_ns`. Closed admits
    /// everything; open admits nothing; half-open admits exactly
    /// `half_open_probes` queries per round (deterministic counting, no
    /// coin flips) and refuses the rest.
    pub fn admit(&mut self, now_ns: u64) -> bool {
        self.refresh(now_ns);
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open { .. } => false,
            BreakerState::HalfOpen => {
                if self.probes_in_flight < self.policy.half_open_probes {
                    self.probes_in_flight += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a successful unit of work.
    ///
    /// Returns `true` when this success *closes* a previously tripped
    /// breaker (callers reset cost models / mark the node warm again).
    pub fn on_success(&mut self, now_ns: u64) -> bool {
        self.refresh(now_ns);
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures = 0;
                false
            }
            // A success while nominally open (work already in flight
            // when the breaker tripped) is evidence the target lives:
            // treat it like a successful probe round.
            BreakerState::Open { .. } | BreakerState::HalfOpen => {
                self.probe_successes += 1;
                if self.probe_successes >= self.policy.probe_successes {
                    self.state = BreakerState::Closed;
                    self.consecutive_failures = 0;
                    self.window_ns = self.policy.open_ns;
                    self.closes += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a failed unit of work.
    pub fn on_failure(&mut self, now_ns: u64) {
        self.refresh(now_ns);
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.policy.failure_threshold {
                    self.open(now_ns);
                }
            }
            // A failed probe re-opens with a doubled window.
            BreakerState::HalfOpen => {
                self.window_ns = (self.window_ns * 2).min(self.policy.open_cap_ns);
                self.open(now_ns);
            }
            BreakerState::Open { .. } => {}
        }
    }

    /// Force-opens the breaker (the cluster declared the node dead).
    pub fn trip(&mut self, now_ns: u64) {
        self.refresh(now_ns);
        self.open(now_ns);
    }

    fn open(&mut self, now_ns: u64) {
        self.state = BreakerState::Open {
            until_ns: now_ns.saturating_add(self.window_ns),
        };
        self.consecutive_failures = 0;
        self.probes_in_flight = 0;
        self.probe_successes = 0;
        self.trips += 1;
    }
}

/// A keyed collection of breakers, one per `(tenant, node)` pair,
/// created closed on first touch.
#[derive(Clone, Debug, Default)]
pub struct BreakerMap {
    policy: Option<BreakerPolicy>,
    breakers: std::collections::BTreeMap<(u32, u32), CircuitBreaker>,
}

impl BreakerMap {
    /// An empty map handing out breakers under `policy`.
    pub fn new(policy: BreakerPolicy) -> Self {
        policy.validate();
        BreakerMap {
            policy: Some(policy),
            breakers: std::collections::BTreeMap::new(),
        }
    }

    /// The breaker for `(tenant, node)`, created closed if absent.
    pub fn get(&mut self, tenant: u32, node: u32) -> &mut CircuitBreaker {
        let policy = self.policy.unwrap_or_default();
        self.breakers
            .entry((tenant, node))
            .or_insert_with(|| CircuitBreaker::new(policy))
    }

    /// Trips every breaker targeting `node` (whole-node death).
    pub fn trip_node(&mut self, node: u32, now_ns: u64) {
        for ((_, n), b) in self.breakers.iter_mut() {
            if *n == node {
                b.trip(now_ns);
            }
        }
    }

    /// Total trips across every pair.
    pub fn total_trips(&self) -> u64 {
        self.breakers.values().map(|b| b.trips()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_threshold_and_blocks_while_open() {
        let mut cb = CircuitBreaker::new(BreakerPolicy::default());
        assert!(cb.admit(0));
        cb.on_failure(10);
        cb.on_failure(20);
        assert!(cb.admit(25), "below threshold still admits");
        cb.on_failure(30);
        assert_eq!(cb.trips(), 1);
        assert_eq!(
            cb.state(31),
            BreakerState::Open {
                until_ns: 30 + 5_000_000
            }
        );
        assert!(!cb.admit(31));
        assert!(!cb.admit(5_000_029), "one ns before expiry: still open");
    }

    #[test]
    fn half_open_admits_exactly_the_probe_quota() {
        let pol = BreakerPolicy {
            half_open_probes: 2,
            probe_successes: 2,
            ..BreakerPolicy::default()
        };
        let mut cb = CircuitBreaker::new(pol);
        cb.trip(0);
        let open_end = pol.open_ns;
        assert_eq!(cb.state(open_end), BreakerState::HalfOpen);
        assert!(cb.admit(open_end), "probe 1");
        assert!(cb.admit(open_end), "probe 2");
        assert!(!cb.admit(open_end), "quota exhausted");
        assert!(!cb.on_success(open_end + 1), "one of two successes");
        assert!(cb.on_success(open_end + 2), "second success closes");
        assert_eq!(cb.state(open_end + 3), BreakerState::Closed);
        assert_eq!(cb.closes(), 1);
    }

    #[test]
    fn failed_probe_doubles_the_open_window_up_to_cap() {
        let pol = BreakerPolicy {
            open_ns: 1_000,
            open_cap_ns: 3_000,
            ..BreakerPolicy::default()
        };
        let mut cb = CircuitBreaker::new(pol);
        cb.trip(0);
        assert!(cb.admit(1_000), "first probe admitted");
        cb.on_failure(1_100);
        assert_eq!(
            cb.state(1_101),
            BreakerState::Open {
                until_ns: 1_100 + 2_000
            },
            "doubled"
        );
        assert!(cb.admit(3_100));
        cb.on_failure(3_200);
        assert_eq!(
            cb.state(3_201),
            BreakerState::Open {
                until_ns: 3_200 + 3_000
            },
            "capped"
        );
        // Closing resets the window to base.
        assert!(cb.admit(6_200));
        assert!(cb.on_success(6_300));
        cb.trip(10_000);
        assert_eq!(cb.state(10_001), BreakerState::Open { until_ns: 11_000 });
    }

    #[test]
    fn deterministic_probe_admission_replays_identically() {
        let run = || {
            let mut cb = CircuitBreaker::new(BreakerPolicy::default());
            let mut decisions = Vec::new();
            cb.trip(0);
            for t in (0..20_000_000).step_by(1_000_000) {
                let admitted = cb.admit(t);
                decisions.push((t, admitted));
                if admitted {
                    if t % 3_000_000 == 0 {
                        cb.on_failure(t + 1);
                    } else {
                        cb.on_success(t + 1);
                    }
                }
            }
            decisions
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn breaker_map_keys_per_tenant_node_and_trips_whole_nodes() {
        let mut map = BreakerMap::new(BreakerPolicy::default());
        assert!(map.get(1, 0).admit(0));
        assert!(map.get(2, 0).admit(0));
        assert!(map.get(1, 1).admit(0));
        map.trip_node(0, 100);
        assert!(!map.get(1, 0).admit(101), "tenant 1 on node 0 tripped");
        assert!(!map.get(2, 0).admit(101), "tenant 2 on node 0 tripped");
        assert!(map.get(1, 1).admit(101), "node 1 untouched");
        assert_eq!(map.total_trips(), 2);
    }

    #[test]
    #[should_panic(expected = "failure threshold must be > 0")]
    fn invalid_breaker_policy_rejected() {
        CircuitBreaker::new(BreakerPolicy {
            failure_threshold: 0,
            ..BreakerPolicy::default()
        });
    }
}
