//! Per-node liveness derived from planned [`NodeFault`]s.
//!
//! A [`crate::FaultPlan`] carries whole-node lifecycle faults as a flat list of
//! instants; schedulers want the derived questions — *is node `i` alive
//! at `t`? reachable at `t`? when does the next lifecycle event land?*
//! [`NodeTimeline`] answers them from the faults added to it, so every
//! consumer (the survivable DAG executor, the serving DES) agrees on
//! what the same plan means.

use crate::plan::NodeFault;

/// Resolved per-node lifecycle: crash/rejoin instants and partition
/// windows, queryable by simulated time.
///
/// Restrictions keep the model unambiguous: at most one crash and one
/// rejoin per node (the rejoin must follow the crash), and partition
/// windows on one node must not overlap. A node is **alive** outside
/// `[crash, rejoin)` (or `[crash, ∞)` with no rejoin) and **reachable**
/// when alive and not inside a partition window.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeTimeline {
    crash: Vec<Option<u64>>,
    rejoin: Vec<Option<u64>>,
    partitions: Vec<Vec<(u64, u64)>>, // sorted, disjoint [start, end)
}

impl NodeTimeline {
    /// A timeline where all `nodes` stay up forever.
    pub fn new(nodes: usize) -> Self {
        NodeTimeline {
            crash: vec![None; nodes],
            rejoin: vec![None; nodes],
            partitions: vec![Vec::new(); nodes],
        }
    }

    /// Nodes tracked.
    pub fn nodes(&self) -> usize {
        self.crash.len()
    }

    /// Records one lifecycle fault for `node`.
    ///
    /// # Panics
    /// Panics if `node` is out of range, on a second crash or rejoin
    /// for the same node, on a rejoin without (or not after) a crash,
    /// or on overlapping partition windows.
    pub fn add(&mut self, node: usize, fault: NodeFault) {
        assert!(node < self.crash.len(), "node {node} out of range");
        match fault {
            NodeFault::CrashAt(t) => {
                assert!(self.crash[node].is_none(), "node {node} crashes twice");
                self.crash[node] = Some(t);
            }
            NodeFault::RejoinAt(t) => {
                assert!(self.rejoin[node].is_none(), "node {node} rejoins twice");
                self.rejoin[node] = Some(t);
            }
            NodeFault::PartitionAt { at_ns, duration_ns } => {
                assert!(duration_ns > 0, "partition must have non-zero duration");
                let end = at_ns.saturating_add(duration_ns);
                let windows = &mut self.partitions[node];
                let pos = windows.partition_point(|&(s, _)| s < at_ns);
                let clear = windows.get(pos).is_none_or(|&(s, _)| s >= end)
                    && (pos == 0 || windows[pos - 1].1 <= at_ns);
                assert!(clear, "node {node} partition windows overlap");
                windows.insert(pos, (at_ns, end));
            }
        }
        if let (Some(c), Some(r)) = (self.crash[node], self.rejoin[node]) {
            assert!(r > c, "node {node} rejoin must follow its crash");
        }
    }

    /// The instant `node` crashes, if it ever does.
    pub fn crash_at(&self, node: usize) -> Option<u64> {
        self.crash[node]
    }

    /// The instant `node` rejoins after its crash, if planned.
    pub fn rejoin_at(&self, node: usize) -> Option<u64> {
        self.rejoin[node]
    }

    /// Whether `node` is up at `now_ns` (not between crash and rejoin).
    pub fn alive(&self, node: usize, now_ns: u64) -> bool {
        match self.crash[node] {
            Some(c) if now_ns >= c => self.rejoin[node].is_some_and(|r| now_ns >= r),
            _ => true,
        }
    }

    /// Whether `node` can exchange messages at `now_ns`: alive and not
    /// inside a partition window.
    pub fn reachable(&self, node: usize, now_ns: u64) -> bool {
        self.alive(node, now_ns)
            && !self.partitions[node]
                .iter()
                .any(|&(s, e)| now_ns >= s && now_ns < e)
    }

    /// The earliest instant `≥ now_ns` at which `node` is reachable, or
    /// `None` if it never is again (crashed with no rejoin).
    pub fn reachable_from(&self, node: usize, now_ns: u64) -> Option<u64> {
        let mut t = now_ns;
        // At most one crash window and finitely many partitions, each
        // pass strictly advances t, so this terminates.
        loop {
            if let Some(c) = self.crash[node] {
                if t >= c {
                    match self.rejoin[node] {
                        Some(r) if t < r => t = r,
                        Some(_) => {}
                        None => return None,
                    }
                }
            }
            match self.partitions[node]
                .iter()
                .find(|&&(s, e)| t >= s && t < e)
            {
                Some(&(_, e)) => t = e,
                None => return Some(t),
            }
        }
    }

    /// Crashes in ascending instant order (ties by node index):
    /// `(node, at_ns)`.
    pub fn crashes(&self) -> Vec<(usize, u64)> {
        let mut out: Vec<(usize, u64)> = self
            .crash
            .iter()
            .enumerate()
            .filter_map(|(n, c)| c.map(|t| (n, t)))
            .collect();
        out.sort_by_key(|&(n, t)| (t, n));
        out
    }

    /// True when no node ever crashes, partitions or rejoins — the
    /// timeline equivalent of [`crate::FaultPlan::is_empty`].
    pub fn is_inert(&self) -> bool {
        self.crash.iter().all(Option::is_none)
            && self.rejoin.iter().all(Option::is_none)
            && self.partitions.iter().all(Vec::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_timeline_keeps_everything_up() {
        let tl = NodeTimeline::new(3);
        assert!(tl.is_inert());
        for n in 0..3 {
            for t in [0, 1_000, u64::MAX] {
                assert!(tl.alive(n, t));
                assert!(tl.reachable(n, t));
                assert_eq!(tl.reachable_from(n, t), Some(t));
            }
        }
        assert!(tl.crashes().is_empty());
    }

    #[test]
    fn crash_without_rejoin_is_forever() {
        let mut tl = NodeTimeline::new(2);
        tl.add(1, NodeFault::CrashAt(5_000));
        assert!(!tl.is_inert());
        assert!(tl.alive(1, 4_999));
        assert!(!tl.alive(1, 5_000));
        assert!(!tl.reachable(1, u64::MAX));
        assert_eq!(tl.reachable_from(1, 6_000), None);
        assert!(tl.alive(0, 6_000), "other nodes unaffected");
        assert_eq!(tl.crashes(), vec![(1, 5_000)]);
        assert_eq!(tl.crash_at(1), Some(5_000));
    }

    #[test]
    fn rejoin_revives_the_node() {
        let mut tl = NodeTimeline::new(1);
        tl.add(0, NodeFault::CrashAt(1_000));
        tl.add(0, NodeFault::RejoinAt(9_000));
        assert!(tl.alive(0, 999));
        assert!(!tl.alive(0, 5_000));
        assert!(tl.alive(0, 9_000));
        assert_eq!(tl.reachable_from(0, 5_000), Some(9_000));
        assert_eq!(tl.rejoin_at(0), Some(9_000));
    }

    #[test]
    fn partitions_block_reachability_but_not_liveness() {
        let mut tl = NodeTimeline::new(1);
        tl.add(
            0,
            NodeFault::PartitionAt {
                at_ns: 2_000,
                duration_ns: 1_000,
            },
        );
        assert!(tl.alive(0, 2_500));
        assert!(!tl.reachable(0, 2_500));
        assert!(tl.reachable(0, 1_999));
        assert!(tl.reachable(0, 3_000), "window end exclusive");
        assert_eq!(tl.reachable_from(0, 2_500), Some(3_000));
    }

    #[test]
    fn reachable_from_chains_partition_after_rejoin() {
        let mut tl = NodeTimeline::new(1);
        tl.add(0, NodeFault::CrashAt(1_000));
        tl.add(0, NodeFault::RejoinAt(4_000));
        tl.add(
            0,
            NodeFault::PartitionAt {
                at_ns: 4_000,
                duration_ns: 500,
            },
        );
        assert_eq!(tl.reachable_from(0, 2_000), Some(4_500));
    }

    #[test]
    fn crashes_sort_by_instant_then_node() {
        let mut tl = NodeTimeline::new(3);
        tl.add(2, NodeFault::CrashAt(100));
        tl.add(0, NodeFault::CrashAt(200));
        tl.add(1, NodeFault::CrashAt(100));
        assert_eq!(tl.crashes(), vec![(1, 100), (2, 100), (0, 200)]);
    }

    #[test]
    #[should_panic(expected = "crashes twice")]
    fn double_crash_rejected() {
        let mut tl = NodeTimeline::new(1);
        tl.add(0, NodeFault::CrashAt(1));
        tl.add(0, NodeFault::CrashAt(2));
    }

    #[test]
    #[should_panic(expected = "rejoin must follow its crash")]
    fn rejoin_before_crash_rejected() {
        let mut tl = NodeTimeline::new(1);
        tl.add(0, NodeFault::CrashAt(5_000));
        tl.add(0, NodeFault::RejoinAt(5_000));
    }

    #[test]
    #[should_panic(expected = "partition windows overlap")]
    fn overlapping_partitions_rejected() {
        let mut tl = NodeTimeline::new(1);
        tl.add(
            0,
            NodeFault::PartitionAt {
                at_ns: 1_000,
                duration_ns: 1_000,
            },
        );
        tl.add(
            0,
            NodeFault::PartitionAt {
                at_ns: 1_500,
                duration_ns: 1_000,
            },
        );
    }

    #[test]
    fn adjacent_partitions_accepted() {
        let mut tl = NodeTimeline::new(1);
        tl.add(
            0,
            NodeFault::PartitionAt {
                at_ns: 2_000,
                duration_ns: 1_000,
            },
        );
        tl.add(
            0,
            NodeFault::PartitionAt {
                at_ns: 1_000,
                duration_ns: 1_000,
            },
        );
        assert!(!tl.reachable(0, 1_500));
        assert!(!tl.reachable(0, 2_500));
        assert_eq!(tl.reachable_from(0, 1_000), Some(3_000));
    }
}
