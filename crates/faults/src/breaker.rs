//! The health ladder: closed → open → half-open, one copy for the
//! whole workspace.
//!
//! [`CircuitBreaker`] gates the node pipeline's GPU device (`NodeRun`
//! asks [`CircuitBreaker::gate`] before every flush) and, one per
//! **(tenant, node)** pair in a [`BreakerMap`], the serving cluster's
//! routing after a declared node death — a node that is dead for
//! everyone and a node that only one tenant's kind keeps crashing on are
//! different failures. Its values are constants, the same for every
//! caller:
//!
//! * [`QUARANTINE_AFTER`] consecutive failures while closed trip it
//!   open, and a success resets the count;
//! * the first open hold is [`HOLD_NS`]; when it expires the breaker is
//!   half-open and lets **one** probe through per round;
//! * a failed probe re-opens it with the hold doubled, up to
//!   [`HOLD_CAP_NS`];
//! * **one** success closes it and resets the hold.
//!
//! No RNG anywhere — the same call sequence always walks the same
//! states, preserving bit-identical replay.

use std::collections::BTreeMap;

/// Consecutive failures (while closed) that trip the breaker open.
const QUARANTINE_AFTER: u32 = 3;

/// Length of the first open hold, simulated nanoseconds (5 ms).
const HOLD_NS: u64 = 5_000_000;

/// Ceiling on the doubling hold (80 ms: four failed probes in a row).
const HOLD_CAP_NS: u64 = 80_000_000;

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

/// Where a [`CircuitBreaker`] is in its ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BreakerState {
    /// Traffic flows; failures accumulate toward the threshold.
    Closed,
    /// Tripped: every admission is refused until the hold expires.
    Open {
        /// Simulated nanosecond at which half-open probing may begin.
        until_ns: u64,
    },
    /// Hold expired: one probe decides whether to close again or
    /// re-open with a doubled hold.
    HalfOpen,
}

/// One closed → open → half-open breaker.
///
/// A dispatcher asks [`CircuitBreaker::gate`] what the device may take;
/// a router asks [`CircuitBreaker::admit`] whether one unit of work may
/// go. Report outcomes with [`CircuitBreaker::on_success`] /
/// [`CircuitBreaker::on_failure`]; [`CircuitBreaker::trip`] force-opens
/// it (device lost, node declared dead). Deterministic: state depends
/// only on the call sequence and the clock values passed in.
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    state: BreakerState,
    hold_ns: u64,
    consecutive_failures: u32,
    probe_in_flight: bool,
    trips: u64,
    closes: u64,
}

impl CircuitBreaker {
    /// A closed breaker with the base hold.
    pub fn new() -> Self {
        CircuitBreaker {
            state: BreakerState::Closed,
            hold_ns: HOLD_NS,
            consecutive_failures: 0,
            probe_in_flight: false,
            trips: 0,
            closes: 0,
        }
    }

    /// Current state (after resolving an expired hold at `now_ns`).
    #[cfg(test)]
    fn state(&mut self, now_ns: u64) -> BreakerState {
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
                self.probe_in_flight = false;
            }
        }
    }

    /// What a dispatcher may send at `now_ns`: closed is
    /// [`GpuGate::Open`], open is [`GpuGate::Closed`], half-open is
    /// [`GpuGate::Probe`] — sticky until an outcome is reported.
    pub fn gate(&mut self, now_ns: u64) -> GpuGate {
        self.refresh(now_ns);
        match self.state {
            BreakerState::Closed => GpuGate::Open,
            BreakerState::Open { .. } => GpuGate::Closed,
            BreakerState::HalfOpen => GpuGate::Probe,
        }
    }

    /// Whether one unit of work may be sent at `now_ns`. Closed admits
    /// everything; open admits nothing; half-open admits the first query
    /// of the round (the probe) and refuses the rest.
    pub fn admit(&mut self, now_ns: u64) -> bool {
        self.refresh(now_ns);
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open { .. } => false,
            BreakerState::HalfOpen => !std::mem::replace(&mut self.probe_in_flight, true),
        }
    }

    /// Records a successful unit of work.
    ///
    /// Returns `true` when this success *closes* a previously tripped
    /// breaker (callers reset cost models / mark the node warm again).
    /// A success while nominally open (work already in flight when the
    /// breaker tripped) is evidence the target lives: it closes too.
    pub fn on_success(&mut self, now_ns: u64) -> bool {
        self.refresh(now_ns);
        self.consecutive_failures = 0;
        if self.state == BreakerState::Closed {
            return false;
        }
        self.state = BreakerState::Closed;
        self.hold_ns = HOLD_NS;
        self.closes += 1;
        true
    }

    /// Records a failed unit of work. A failure while open changes
    /// nothing: the hold runs to its end.
    pub fn on_failure(&mut self, now_ns: u64) {
        self.refresh(now_ns);
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= QUARANTINE_AFTER {
                    self.open(now_ns);
                }
            }
            // A failed probe re-opens with a doubled hold.
            BreakerState::HalfOpen => {
                self.hold_ns = (self.hold_ns * 2).min(HOLD_CAP_NS);
                self.open(now_ns);
            }
            BreakerState::Open { .. } => {}
        }
    }

    /// Force-opens the breaker at the current hold (device lost, node
    /// declared dead).
    pub fn trip(&mut self, now_ns: u64) {
        self.refresh(now_ns);
        self.open(now_ns);
    }

    fn open(&mut self, now_ns: u64) {
        self.state = BreakerState::Open {
            until_ns: now_ns.saturating_add(self.hold_ns),
        };
        self.consecutive_failures = 0;
        self.probe_in_flight = false;
        self.trips += 1;
    }
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        Self::new()
    }
}

/// A keyed collection of breakers, one per `(tenant, node)` pair,
/// created closed on first touch.
#[derive(Clone, Debug, Default)]
pub struct BreakerMap {
    breakers: BTreeMap<(u32, u32), CircuitBreaker>,
}

impl BreakerMap {
    /// The breaker for `(tenant, node)`, created closed if absent.
    pub fn get(&mut self, tenant: u32, node: u32) -> &mut CircuitBreaker {
        self.breakers.entry((tenant, node)).or_default()
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
        let mut cb = CircuitBreaker::new();
        assert_eq!(cb.gate(0), GpuGate::Open);
        assert!(cb.admit(0));
        cb.on_failure(10);
        cb.on_failure(20);
        assert!(cb.admit(25), "below threshold still admits");
        assert_eq!(cb.gate(25), GpuGate::Open, "below threshold still serves");
        cb.on_failure(30);
        assert_eq!(cb.trips(), 1);
        assert_eq!(
            cb.state(31),
            BreakerState::Open {
                until_ns: 30 + 5_000_000
            }
        );
        assert!(!cb.admit(31));
        assert_eq!(cb.gate(31), GpuGate::Closed);
        assert!(!cb.admit(5_000_029), "one ns before expiry: still open");
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let mut cb = CircuitBreaker::new();
        cb.on_failure(0);
        cb.on_failure(1);
        assert!(!cb.on_success(2), "plain success is not a close");
        // The count restarted: two more failures don't trip it.
        cb.on_failure(3);
        cb.on_failure(4);
        assert_eq!(cb.gate(5), GpuGate::Open);
        assert_eq!(cb.trips(), 0);
        cb.on_failure(6);
        assert_eq!(cb.gate(7), GpuGate::Closed, "the third in a row trips");
    }

    #[test]
    fn probe_is_sticky_and_readmits() {
        let mut cb = CircuitBreaker::new();
        cb.trip(0);
        assert_eq!(cb.gate(HOLD_NS - 1), GpuGate::Closed);
        assert_eq!(cb.gate(HOLD_NS), GpuGate::Probe);
        assert_eq!(cb.gate(HOLD_NS + 1), GpuGate::Probe, "probe is sticky");
        assert!(cb.on_success(HOLD_NS + 100), "probe success closes");
        assert_eq!(cb.closes(), 1);
        assert_eq!(cb.gate(HOLD_NS + 101), GpuGate::Open);
    }

    #[test]
    fn gate_flips_exactly_at_hold_end() {
        let mut cb = CircuitBreaker::new();
        cb.trip(1_000);
        let until = 1_000 + HOLD_NS;
        assert_eq!(cb.state(1_000), BreakerState::Open { until_ns: until });
        assert_eq!(cb.gate(until - 1), GpuGate::Closed, "one ns early: closed");
        assert_eq!(cb.gate(until), GpuGate::Probe, "hold end is inclusive");
    }

    #[test]
    fn ok_at_probe_instant_readmits_with_zero_length_window() {
        // The probe completes at the very instant the gate opened: a
        // zero-length probe window must still close the breaker and
        // reset the (doubled) hold back to base.
        let mut cb = CircuitBreaker::new();
        cb.trip(0);
        assert_eq!(cb.gate(HOLD_NS), GpuGate::Probe);
        cb.on_failure(HOLD_NS); // failed probe doubles the hold
        let until = 3 * HOLD_NS;
        assert_eq!(cb.state(HOLD_NS), BreakerState::Open { until_ns: until });
        assert_eq!(cb.gate(until), GpuGate::Probe);
        assert!(cb.on_success(until), "zero-length probe still closes");
        assert_eq!(cb.state(until), BreakerState::Closed);
        assert_eq!(cb.gate(until), GpuGate::Open);
        assert_eq!((cb.trips(), cb.closes()), (2, 1));
        // The hold was reset: the next trip uses the base hold.
        cb.trip(100_000_000);
        assert_eq!(
            cb.state(100_000_000),
            BreakerState::Open {
                until_ns: 100_000_000 + HOLD_NS
            }
        );
    }

    #[test]
    fn failed_probe_doubles_the_hold_up_to_cap() {
        let mut cb = CircuitBreaker::new();
        cb.trip(0);
        let mut now = 0;
        let mut holds = Vec::new();
        for _ in 0..6 {
            let BreakerState::Open { until_ns } = cb.state(now) else {
                panic!("not open at {now}");
            };
            holds.push((until_ns - now) / 1_000_000);
            now = until_ns;
            assert_eq!(cb.gate(now), GpuGate::Probe);
            now += 100;
            cb.on_failure(now);
        }
        assert_eq!(holds, [5, 10, 20, 40, 80, 80], "ms, doubled then capped");
        // Closing resets the hold to base.
        assert_eq!(cb.gate(now + HOLD_CAP_NS), GpuGate::Probe);
        assert!(cb.on_success(now + HOLD_CAP_NS));
        cb.trip(now + HOLD_CAP_NS);
        assert_eq!(
            cb.state(now + HOLD_CAP_NS),
            BreakerState::Open {
                until_ns: now + HOLD_CAP_NS + HOLD_NS
            }
        );
    }

    #[test]
    fn half_open_admits_exactly_one_probe() {
        let mut cb = CircuitBreaker::new();
        cb.trip(0);
        assert_eq!(cb.state(HOLD_NS), BreakerState::HalfOpen);
        assert!(cb.admit(HOLD_NS), "the probe");
        assert!(!cb.admit(HOLD_NS), "only one per round");
        assert!(!cb.admit(HOLD_NS + 1));
        assert!(cb.on_success(HOLD_NS + 2), "one success closes");
        assert_eq!(cb.state(HOLD_NS + 3), BreakerState::Closed);
        assert_eq!(cb.closes(), 1);
    }

    #[test]
    fn failure_while_open_does_not_lift_the_hold() {
        let mut cb = CircuitBreaker::new();
        cb.trip(0);
        cb.on_failure(1);
        assert_eq!(cb.state(2), BreakerState::Open { until_ns: HOLD_NS });
        assert_eq!(cb.gate(2), GpuGate::Closed);
        assert_eq!(cb.trips(), 1);
    }

    #[test]
    fn deterministic_probe_admission_replays_identically() {
        let run = || {
            let mut cb = CircuitBreaker::new();
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
        let mut map = BreakerMap::default();
        assert!(map.get(1, 0).admit(0));
        assert!(map.get(2, 0).admit(0));
        assert!(map.get(1, 1).admit(0));
        map.trip_node(0, 100);
        assert!(!map.get(1, 0).admit(101), "tenant 1 on node 0 tripped");
        assert!(!map.get(2, 0).admit(101), "tenant 2 on node 0 tripped");
        assert!(map.get(1, 1).admit(101), "node 1 untouched");
        assert_eq!(map.total_trips(), 2);
    }

    mod interleavings {
        use super::*;
        use proptest::prelude::*;

        #[derive(Clone, Copy, Debug)]
        enum Op {
            Gate,
            Admit,
            Success,
            Failure,
            Trip,
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                Just(Op::Gate),
                Just(Op::Admit),
                Just(Op::Success),
                Just(Op::Failure),
                Just(Op::Trip),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Counters are monotone under any interleaving at any
            /// (nondecreasing) clock, closes never outrun trips, and a
            /// Probe gate (or a half-open admission) only appears after
            /// a trip.
            #[test]
            fn counters_monotone_under_interleaving(
                ops in proptest::collection::vec((op_strategy(), 0u64..4_000_000), 1..80),
            ) {
                let mut cb = CircuitBreaker::new();
                let mut now = 0u64;
                let (mut last_t, mut last_c) = (0u64, 0u64);
                for (op, dt) in ops {
                    now += dt;
                    match op {
                        Op::Gate => {
                            if cb.gate(now) == GpuGate::Probe {
                                prop_assert!(cb.trips() > 0);
                            }
                        }
                        Op::Admit => {
                            let half_open = cb.state(now) == BreakerState::HalfOpen;
                            if cb.admit(now) && half_open {
                                prop_assert!(cb.trips() > 0);
                            }
                        }
                        Op::Success => {
                            if cb.on_success(now) {
                                prop_assert_eq!(cb.closes(), last_c + 1);
                            }
                            prop_assert_eq!(cb.state(now), BreakerState::Closed);
                        }
                        Op::Failure => cb.on_failure(now),
                        Op::Trip => {
                            cb.trip(now);
                            prop_assert_eq!(cb.gate(now), GpuGate::Closed);
                        }
                    }
                    prop_assert!(cb.trips() >= last_t, "trips decreased");
                    prop_assert!(cb.closes() >= last_c, "closes decreased");
                    prop_assert!(cb.closes() <= cb.trips(), "closed more often than tripped");
                    last_t = cb.trips();
                    last_c = cb.closes();
                }
            }
        }
    }
}
