//! The benchmark's own wall-clock span recorder.
//!
//! Spans are recorded here, around the calls into each layer's public
//! functions, never inside the program. They stay in memory and are
//! written out once, when the run ends. A span's self time is its
//! duration minus the part its child spans cover, so the self times of
//! a pass tree sum to the pass.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The layer a span's callee belongs to (the repo's crates/modules).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark's own code: pass roots, checks, generators.
    Bench,
    Tensor,
    Mra,
    Executor,
    Runtime,
    Gpusim,
    Core,
    Node,
    Cluster,
    Balance,
    Serve,
    Dag,
    Des,
    Network,
    Trace,
    Faults,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Tensor => "tensor",
            Layer::Mra => "mra",
            Layer::Executor => "executor",
            Layer::Runtime => "runtime",
            Layer::Gpusim => "gpusim",
            Layer::Core => "core",
            Layer::Node => "cluster.node",
            Layer::Cluster => "cluster.cluster",
            Layer::Balance => "cluster.balance",
            Layer::Serve => "cluster.serve",
            Layer::Dag => "cluster.dag",
            Layer::Des => "cluster.des",
            Layer::Network => "cluster.network",
            Layer::Trace => "trace",
            Layer::Faults => "faults",
        }
    }
}

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one pass share this id (0 = outside any pass).
    pub pass: u32,
    /// Work retired inside the span, counted at the same boundary.
    pub tasks: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. Disabled, it only times: end-to-end passes run with
/// `Tracer::off()` and pay one `Instant` pair per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    pass: u32,
    next_pass: u32,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer::new(false)
    }

    pub fn on() -> Self {
        Tracer::new(true)
    }

    fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            pass: 0,
            next_pass: 1,
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` as one span of `layer` under the current span and
    /// returns its value with the elapsed seconds.
    pub fn call<R>(
        &mut self,
        name: &'static str,
        layer: Layer,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        let t0 = Instant::now();
        if !self.enabled {
            let r = f(self);
            return (r, t0.elapsed().as_secs_f64());
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_ns: t0.duration_since(self.epoch).as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            pass: self.pass,
            tasks: 0,
        });
        self.stack.push(id);
        let r = f(self);
        let t1 = Instant::now();
        self.stack.pop();
        self.spans[id].end_ns = t1.duration_since(self.epoch).as_nanos() as u64;
        (r, t1.duration_since(t0).as_secs_f64())
    }

    /// [`Tracer::call`] as the root of a pass: every span below it
    /// carries a fresh shared pass id.
    pub fn pass<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let outer = self.pass;
        self.pass = self.next_pass;
        self.next_pass += 1;
        let out = self.call(name, Layer::Bench, f);
        self.pass = outer;
        out
    }

    /// Attributes `tasks` of retired work to the span being recorded.
    pub fn count(&mut self, tasks: u64) {
        if let Some(&id) = self.stack.last() {
            self.spans[id].tasks += tasks;
        }
    }

    /// Index of the most recent span named `name`.
    pub fn last_named(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    /// Serializes the spans (and the host block) as one JSON document.
    pub fn to_json(&self, host_json: &str) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"madness-benchmark-trace-v1\",\n");
        let _ = writeln!(out, "  \"host\": {host_json},");
        out.push_str("  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "    {{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"self_ns\": {}, \"parent\": {parent}, \"pass\": {}, \
                 \"tasks\": {}}}{comma}",
                s.name,
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                selfs[i],
                s.pass,
                s.tasks
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selfs[p] = selfs[p].saturating_sub(s.duration_ns());
        }
    }
    selfs
}

/// Self time per layer over the subtree rooted at span `root`.
pub fn layer_self_ns(spans: &[Span], root: usize) -> BTreeMap<Layer, u64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let mut at = Some(i);
        while let Some(a) = at {
            if a == root {
                *out.entry(s.layer).or_insert(0) += selfs[i];
                break;
            }
            at = spans[a].parent;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            pass: 1,
            tasks: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_sums_to_the_root() {
        let spans = vec![
            span(Layer::Bench, 0, 100, None),
            span(Layer::Core, 10, 60, Some(0)),
            span(Layer::Mra, 20, 30, Some(1)),
            span(Layer::Tensor, 30, 55, Some(1)),
            span(Layer::Dag, 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 15, 10, 25, 20]);
        let by_layer = layer_self_ns(&spans, 0);
        assert_eq!(by_layer.values().sum::<u64>(), 100);
        assert_eq!(by_layer[&Layer::Core], 15);
        // A subtree only sees its own spans.
        let sub = layer_self_ns(&spans, 1);
        assert_eq!(sub.values().sum::<u64>(), 50);
        assert!(!sub.contains_key(&Layer::Dag));
    }

    #[test]
    fn tracer_nests_and_tags_passes() {
        let mut t = Tracer::on();
        let ((), _) = t.pass("pass", |t| {
            t.call("leg", Layer::Core, |t| {
                t.count(7);
                t.call("inner", Layer::Mra, |_| ());
            });
        });
        t.call("outside", Layer::Bench, |_| ());
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!((s[0].pass, s[1].pass, s[2].pass, s[3].pass), (1, 1, 1, 0));
        assert_eq!(s[1].tasks, 7);
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        let total: u64 = layer_self_ns(s, 0).values().sum();
        assert_eq!(total, s[0].duration_ns());
        assert!(t.to_json("{}").contains("\"name\": \"inner\""));
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::off();
        let (v, secs) = t.call("x", Layer::Core, |_| 5);
        assert_eq!(v, 5);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }
}
