//! Sweep-line attribution of a span journal to pipeline stages.

use crate::{Span, Stage};

/// Per-stage attribution of a run's simulated timeline.
///
/// Every nanosecond of `[0, total_ns)` is charged to exactly one stage:
/// where spans overlap, the highest-priority stage wins (device work
/// first — see `Stage::priority`); instants covered by no span at all go
/// to [`StageBreakdown::unattributed_ns`]. By construction the per-stage
/// times plus the unattributed residue sum to `total_ns` exactly, which
/// is what lets `tablegen trace` print a utilization table whose rows add
/// up to the `NodeReport` total.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageBreakdown {
    per_stage_ns: [u64; Stage::ALL.len()],
    /// Simulated time covered by no span.
    pub unattributed_ns: u64,
    /// The attributed window (the run's end-to-end time).
    pub total_ns: u64,
}

impl StageBreakdown {
    /// Attributes `[0, total_ns)` using the given spans (clipped to the
    /// window; zero-length spans are ignored).
    pub fn from_spans<'a>(spans: impl IntoIterator<Item = &'a Span>, total_ns: u64) -> Self {
        let mut per_stage_ns = [0u64; Stage::ALL.len()];
        let mut unattributed_ns = 0u64;
        // Charge each stretch to the highest-priority active stage.
        let last = sweep(spans, total_ns, |len, active, _| match top_stage(active) {
            Some(stage) => per_stage_ns[stage.index()] += len,
            None => unattributed_ns += len,
        });
        unattributed_ns += total_ns - last;
        StageBreakdown {
            per_stage_ns,
            unattributed_ns,
            total_ns,
        }
    }

    /// Nanoseconds attributed to `stage`.
    pub fn stage_ns(&self, stage: Stage) -> u64 {
        self.per_stage_ns[stage.index()]
    }

    /// `(stage, ns)` for every stage with nonzero attribution, in
    /// priority order (device work first).
    pub fn nonzero(&self) -> Vec<(Stage, u64)> {
        let mut rows: Vec<(Stage, u64)> = Stage::ALL
            .into_iter()
            .map(|s| (s, self.stage_ns(s)))
            .filter(|&(_, ns)| ns > 0)
            .collect();
        rows.sort_by_key(|&(s, _)| std::cmp::Reverse(s.priority()));
        rows
    }

    /// Sum of the per-stage times plus the unattributed residue; always
    /// equals [`StageBreakdown::total_ns`].
    pub fn attributed_total_ns(&self) -> u64 {
        self.per_stage_ns.iter().sum::<u64>() + self.unattributed_ns
    }
}

/// Simulated nanoseconds during which **two or more distinct stages**
/// are active at once — the inter-stage overlap a dataflow DAG buys
/// over barrier-synchronized execution.
///
/// Lanes of the *same* stage never count (four parallel Preprocess
/// lanes are intra-stage parallelism, not overlap); a barrier-stepped
/// schedule, where each global step runs exactly one stage, scores 0 by
/// construction. Zero-length spans are ignored.
pub fn stage_overlap_ns<'a>(spans: impl IntoIterator<Item = &'a Span>) -> u64 {
    let mut overlap = 0u64;
    sweep(spans, u64::MAX, |len, _, distinct| {
        if distinct >= 2 {
            overlap += len;
        }
    });
    overlap
}

/// The sweep line under both attributions. Takes the `(t, ±1, stage)`
/// edges of `spans` clipped to `[0, end_ns]` (zero-length spans
/// dropped) in time order, starts before ends at one instant, and calls
/// `stretch(len, active, distinct)` for each stretch of time between
/// `0` and the last edge that no edge splits: `active` counts each
/// stage's spans open across it and `distinct` the stages with any,
/// kept as the counts cross zero. Returns the last edge's time (0 with
/// no edges); every span has closed by then.
fn sweep<'a>(
    spans: impl IntoIterator<Item = &'a Span>,
    end_ns: u64,
    mut stretch: impl FnMut(u64, &[i64; Stage::ALL.len()], usize),
) -> u64 {
    let mut edges: Vec<(u64, i32, usize)> = Vec::new();
    for s in spans {
        let start = s.start_ns.min(end_ns);
        let end = s.end_ns.min(end_ns);
        if end > start {
            edges.push((start, 1, s.stage.index()));
            edges.push((end, -1, s.stage.index()));
        }
    }
    edges.sort_unstable_by_key(|&(t, delta, _)| (t, -delta));

    let mut active = [0i64; Stage::ALL.len()];
    let mut distinct = 0usize;
    let mut cursor = 0u64;
    let mut i = 0usize;
    while i < edges.len() {
        let t = edges[i].0;
        if t > cursor {
            stretch(t - cursor, &active, distinct);
        }
        cursor = t;
        while i < edges.len() && edges[i].0 == t {
            let (_, delta, stage) = edges[i];
            let was = active[stage] > 0;
            active[stage] += i64::from(delta);
            match (was, active[stage] > 0) {
                (false, true) => distinct += 1,
                (true, false) => distinct -= 1,
                _ => {}
            }
            i += 1;
        }
    }
    cursor
}

fn top_stage(active: &[i64; Stage::ALL.len()]) -> Option<Stage> {
    Stage::ALL
        .into_iter()
        .filter(|s| active[s.index()] > 0)
        .max_by_key(|s| s.priority())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(stage: Stage, start_ns: u64, end_ns: u64) -> Span {
        Span {
            stage,
            start_ns,
            end_ns,
            lane: 0,
        }
    }

    #[test]
    fn disjoint_spans_attribute_directly() {
        let spans = [
            span(Stage::Preprocess, 0, 10),
            span(Stage::KernelLaunch, 10, 25),
            span(Stage::Postprocess, 25, 30),
        ];
        let b = StageBreakdown::from_spans(&spans, 30);
        assert_eq!(b.stage_ns(Stage::Preprocess), 10);
        assert_eq!(b.stage_ns(Stage::KernelLaunch), 15);
        assert_eq!(b.stage_ns(Stage::Postprocess), 5);
        assert_eq!(b.unattributed_ns, 0);
        assert_eq!(b.attributed_total_ns(), 30);
    }

    #[test]
    fn overlap_goes_to_higher_priority_stage() {
        // CPU compute runs under a longer kernel span: the overlap is
        // charged to the kernel, the CPU keeps only its solo tail.
        let spans = [
            span(Stage::KernelLaunch, 0, 10),
            span(Stage::CpuCompute, 5, 20),
        ];
        let b = StageBreakdown::from_spans(&spans, 20);
        assert_eq!(b.stage_ns(Stage::KernelLaunch), 10);
        assert_eq!(b.stage_ns(Stage::CpuCompute), 10);
        assert_eq!(b.attributed_total_ns(), 20);
    }

    #[test]
    fn gaps_and_tail_are_unattributed() {
        let spans = [span(Stage::Dispatch, 2, 4)];
        let b = StageBreakdown::from_spans(&spans, 10);
        assert_eq!(b.stage_ns(Stage::Dispatch), 2);
        assert_eq!(b.unattributed_ns, 8); // [0,2) and [4,10)
        assert_eq!(b.attributed_total_ns(), 10);
    }

    #[test]
    fn spans_clip_to_the_window() {
        let spans = [span(Stage::Transfer, 5, 100)];
        let b = StageBreakdown::from_spans(&spans, 10);
        assert_eq!(b.stage_ns(Stage::Transfer), 5);
        assert_eq!(b.attributed_total_ns(), 10);
    }

    #[test]
    fn many_lanes_of_one_stage_count_once() {
        // Four parallel preprocess lanes over the same interval: the
        // wall-clock charge is the interval, not 4× it.
        let spans: Vec<Span> = (0..4).map(|_| span(Stage::Preprocess, 0, 10)).collect();
        let b = StageBreakdown::from_spans(&spans, 10);
        assert_eq!(b.stage_ns(Stage::Preprocess), 10);
        assert_eq!(b.attributed_total_ns(), 10);
    }

    #[test]
    fn overlap_counts_only_distinct_stage_concurrency() {
        // [5, 10): CpuCompute ∥ Postprocess → 5 ns of overlap; the
        // rest of the window has at most one stage active.
        let spans = [
            span(Stage::CpuCompute, 0, 10),
            span(Stage::Postprocess, 5, 20),
        ];
        assert_eq!(stage_overlap_ns(&spans), 5);
    }

    #[test]
    fn overlap_ignores_lanes_of_the_same_stage() {
        let spans: Vec<Span> = (0..4).map(|_| span(Stage::Preprocess, 0, 10)).collect();
        assert_eq!(stage_overlap_ns(&spans), 0);
    }

    #[test]
    fn barrier_stepped_schedule_scores_zero_overlap() {
        // One stage per global step, touching at the boundaries: a
        // barrier schedule by construction, so no overlap at all.
        let spans = [
            span(Stage::CpuCompute, 0, 10),
            span(Stage::Postprocess, 10, 14),
            span(Stage::CpuCompute, 14, 30),
            span(Stage::Postprocess, 30, 33),
        ];
        assert_eq!(stage_overlap_ns(&spans), 0);
    }

    #[test]
    fn overlap_handles_three_way_and_gaps() {
        let spans = [
            span(Stage::CpuCompute, 0, 10),
            span(Stage::Postprocess, 4, 12),
            span(Stage::Transfer, 6, 8),
            span(Stage::CpuCompute, 20, 25), // solo after a gap
        ];
        // [4,10) has ≥ 2 distinct stages active; [10,12) and [20,25)
        // are solo.
        assert_eq!(stage_overlap_ns(&spans), 6);
    }

    #[test]
    fn nonzero_rows_follow_priority_order() {
        let spans = [
            span(Stage::Postprocess, 20, 30),
            span(Stage::KernelLaunch, 0, 10),
            span(Stage::Dispatch, 10, 20),
        ];
        let rows = StageBreakdown::from_spans(&spans, 30).nonzero();
        let stages: Vec<Stage> = rows.iter().map(|&(s, _)| s).collect();
        assert_eq!(
            stages,
            vec![Stage::KernelLaunch, Stage::Dispatch, Stage::Postprocess]
        );
    }
}
