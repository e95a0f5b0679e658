//! The one report model: what every experiment yields and the one
//! writer of the `BENCH_*.json` layout.
//!
//! An experiment is a function `fn() -> Report`. The [`Report`] carries
//! the text printed under the banner, the named [`Gate`]s that make up
//! its contract, and at most one [`Artifact`] — the file it offers. Each
//! gate is named once, where it is computed; that one list feeds the
//! printed gate line ([`gate_line`]), the JSON fields ([`Obj::gates`]),
//! the tests and `tablegen`'s exit code.
//!
//! [`Obj`] is an ordered JSON object and [`Obj::pretty`] the only code
//! that knows the committed layout: the document's keys one per line,
//! row objects on one line each — except where a row asks for a line
//! break ([`Obj::br`]) — and every float at a stated number of decimals.

use madness_trace::MemRecorder;
use std::fmt::Write as _;

/// One named boolean of an experiment's contract.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Gate {
    /// The name it prints under and the JSON field that carries it.
    pub name: &'static str,
    /// Whether it holds.
    pub ok: bool,
    /// The key of the nested object of the document it is a field of;
    /// empty for a field of the document itself. Two gates of one report
    /// may share a name only across sections.
    pub section: &'static str,
}

/// A gate the document carries at top level.
pub(crate) const fn gate(name: &'static str, ok: bool) -> Gate {
    Gate {
        name,
        ok,
        section: "",
    }
}

impl Gate {
    /// `name`, or `section.name` for a gate of a nested object: unique
    /// within a report, and what a failure is reported under.
    pub fn label(&self) -> String {
        if self.section.is_empty() {
            self.name.to_string()
        } else {
            format!("{}.{}", self.section, self.name)
        }
    }
}

/// `name: true; name: false` — how the reports print their gates.
pub(crate) fn gate_line(gates: &[Gate]) -> String {
    let parts: Vec<String> = gates
        .iter()
        .map(|g| format!("{}: {}", g.name, g.ok))
        .collect();
    parts.join("; ")
}

/// The gate names more than one report uses (every other gate is named
/// where it is computed): the [`replay`] pin, request / attempt
/// conservation, and conservation across a node loss.
pub(crate) const REPLAY_IDENTICAL: &str = "replay_identical";
pub(crate) const CONSERVED: &str = "conserved";
pub(crate) const NODE_LOSS_CONSERVED: &str = "node_loss_conserved";

/// The deterministic-replay pin: runs `run` twice, each with a fresh
/// [`MemRecorder`], and reports whether the two results *and* the two
/// journals' JSON came out identical. Returns the first result.
pub(crate) fn replay<T: PartialEq>(mut run: impl FnMut(&mut MemRecorder) -> T) -> (T, bool) {
    let mut rec_a = MemRecorder::new();
    let a = run(&mut rec_a);
    let mut rec_b = MemRecorder::new();
    let b = run(&mut rec_b);
    let identical = a == b && rec_a.to_json() == rec_b.to_json();
    (a, identical)
}

/// A file an experiment offers besides its printed text.
#[derive(Clone, Debug, PartialEq)]
pub struct Artifact {
    /// Path, relative to the directory `tablegen` runs in.
    pub path: &'static str,
    /// What the `… written to <path>` line calls it.
    pub what: &'static str,
    /// The whole file.
    pub contents: String,
    /// A by-product written on every run, best-effort. The `BENCH_*.json`
    /// trajectory points are not: they are written only under `--json`,
    /// and then a failed write fails the run.
    pub always: bool,
}

/// What one experiment run yields.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// Everything printed under the banner, gate lines included.
    pub text: String,
    /// Replaces `{tasks}` in the experiment's banner (the paper tables
    /// print their simulated task count there).
    pub tasks: Option<u64>,
    /// The contract: `tablegen` exits 1 if any of these is false.
    pub gates: Vec<Gate>,
    /// The file this experiment offers, if any.
    pub artifact: Option<Artifact>,
}

impl Report {
    /// A report that only prints: `text` under the banner, `tasks` in it.
    pub(crate) fn printed(text: String, tasks: Option<u64>) -> Report {
        Report {
            text,
            tasks,
            ..Report::default()
        }
    }

    /// A gated report whose `doc` is the `BENCH_*.json` trajectory point
    /// `--json` writes to `path`.
    pub(crate) fn bench(
        text: String,
        gates: Vec<Gate>,
        path: &'static str,
        what: &'static str,
        doc: &Obj,
    ) -> Report {
        Report {
            text,
            tasks: None,
            gates,
            artifact: Some(Artifact {
                path,
                what,
                contents: doc.pretty(),
                always: false,
            }),
        }
    }
}

/// One JSON value of a trajectory point.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A counter, size or nanosecond count.
    Int(u64),
    /// A float printed with exactly this many decimals (`{:.N}`).
    Fixed(f64, usize),
    /// A string (escaped on output).
    Str(String),
    /// An array of objects, one per line.
    Arr(Vec<Obj>),
    /// A nested object, on one line unless it asks for breaks.
    Obj(Obj),
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as u64)
    }
}

impl From<Option<u64>> for Json {
    fn from(v: Option<u64>) -> Json {
        v.map_or(Json::Null, Json::Int)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<Vec<Obj>> for Json {
    fn from(v: Vec<Obj>) -> Json {
        Json::Arr(v)
    }
}

/// An ordered JSON object, built field by field. `None` members are the
/// explicit line breaks of [`Obj::br`].
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Obj(Vec<Option<(&'static str, Json)>>);

impl Obj {
    /// An empty object.
    pub(crate) fn new() -> Obj {
        Obj::default()
    }

    /// Appends `"key": value`.
    pub(crate) fn field(mut self, key: &'static str, value: impl Into<Json>) -> Obj {
        self.0.push(Some((key, value.into())));
        self
    }

    /// Appends a float printed with exactly `decimals` decimals.
    pub(crate) fn fixed(self, key: &'static str, value: f64, decimals: usize) -> Obj {
        self.field(key, Json::Fixed(value, decimals))
    }

    /// Appends one boolean field per gate, under the gate's name.
    pub(crate) fn gates(self, gates: &[Gate]) -> Obj {
        gates.iter().fold(self, |obj, g| obj.field(g.name, g.ok))
    }

    /// Breaks the line here when this object is printed as a row: the
    /// next field starts a new line, one column right of the row's brace.
    pub(crate) fn br(mut self) -> Obj {
        self.0.push(None);
        self
    }

    /// The object as a whole document in the committed `BENCH_*.json`
    /// layout: one key per line at two spaces, everything below inline
    /// (see [`Json::Arr`], [`Obj::br`]), a trailing newline.
    pub(crate) fn pretty(&self) -> String {
        let mut out = String::from("{\n");
        let fields: Vec<&(&'static str, Json)> = self.0.iter().flatten().collect();
        for (i, (key, value)) in fields.iter().enumerate() {
            out.push_str("  ");
            write_str(&mut out, key);
            out.push_str(": ");
            value.write(&mut out, 2);
            out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
        }
        out.push_str("}\n");
        out
    }

    /// The object on the current line. A break continues one column
    /// right of the opening brace; that column is also what the arrays
    /// among its values indent from.
    fn write_inline(&self, out: &mut String) {
        out.push('{');
        let line_start = out.rfind('\n').map_or(0, |p| p + 1);
        let column = out[line_start..].chars().count();
        let line_break = format!(",\n{:column$}", "");
        let mut separator = "";
        for member in &self.0 {
            let Some((key, value)) = member else {
                if !separator.is_empty() {
                    separator = &line_break;
                }
                continue;
            };
            out.push_str(separator);
            separator = ", ";
            write_str(out, key);
            out.push_str(": ");
            value.write(out, column);
        }
        out.push('}');
    }
}

impl Json {
    /// Appends the value. `indent` is the column at which the line
    /// holding the value's key starts: an array puts its elements two
    /// columns further in and its closing bracket back at `indent`.
    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(v) => out.push_str(&v.to_string()),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Fixed(v, decimals) => out.push_str(&format!("{v:.decimals$}")),
            Json::Str(v) => write_str(out, v),
            Json::Arr(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&" ".repeat(indent + 2));
                    item.write_inline(out);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&" ".repeat(indent));
                out.push(']');
            }
            Json::Obj(obj) => obj.write_inline(out),
        }
    }
}

/// Appends `s` as a JSON string literal.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaves_print_as_the_committed_files_do() {
        let doc = Obj::new()
            .field("schema", "s-v1")
            .field("nodes", 4usize)
            .field("big", u64::MAX)
            .fixed("rho", 0.7, 3)
            .fixed("secs", 5.1896774, 6)
            .fixed("imbalance", 7.52664, 4)
            .field("seed", None::<u64>)
            .field("found", Some(13u64))
            .field("ok", true)
            .field("escaped", "a\"b\\c\nd\te\u{1}f — g");
        assert_eq!(
            doc.pretty(),
            "{\n  \"schema\": \"s-v1\",\n  \"nodes\": 4,\n  \"big\": 18446744073709551615,\n  \
             \"rho\": 0.700,\n  \"secs\": 5.189677,\n  \"imbalance\": 7.5266,\n  \
             \"seed\": null,\n  \"found\": 13,\n  \"ok\": true,\n  \
             \"escaped\": \"a\\\"b\\\\c\\nd\\te\\u0001f — g\"\n}\n"
        );
    }

    /// Every layout rule at once, on the shapes the committed files
    /// use: `BENCH_dag.json`'s object-valued field, `BENCH_serve.json`'s
    /// rows (scalars, a break, two arrays of inline objects), commas
    /// between but not after elements, and an empty array.
    #[test]
    fn layout_is_one_key_per_line_with_inline_rows_breaks_and_nested_arrays() {
        let t = |n: u64| Obj::new().field("tenant", n).field("shed", 0u64);
        let row = Obj::new()
            .field("mode", "steal")
            .field("steals", 112u64)
            .br()
            .field("p50_ns", 1u64)
            .br()
            .field("tenants", vec![t(1), t(2)])
            .br()
            .field("kinds", vec![t(3)]);
        let chaos = Obj::new().field("nodes", 3usize).field("seed", None::<u64>);
        let doc = Obj::new()
            .field("chaos", Json::Obj(chaos))
            .field("results", vec![row.clone(), row])
            .field("empty", Vec::<Obj>::new());
        let one = "    {\"mode\": \"steal\", \"steals\": 112,\n     \"p50_ns\": 1,\n     \
                   \"tenants\": [\n       {\"tenant\": 1, \"shed\": 0},\n       \
                   {\"tenant\": 2, \"shed\": 0}\n     ],\n     \
                   \"kinds\": [\n       {\"tenant\": 3, \"shed\": 0}\n     ]}";
        assert_eq!(
            doc.pretty(),
            format!(
                "{{\n  \"chaos\": {{\"nodes\": 3, \"seed\": null}},\n  \
                 \"results\": [\n{one},\n{one}\n  ],\n  \"empty\": [\n  ]\n}}\n"
            )
        );
    }

    #[test]
    fn gates_feed_the_text_line_and_the_json_fields_from_one_list() {
        let gates = [gate("holds", true), gate("breaks", false)];
        assert_eq!(gate_line(&gates), "holds: true; breaks: false");
        assert_eq!(
            Obj::new().gates(&gates).pretty(),
            "{\n  \"holds\": true,\n  \"breaks\": false\n}\n"
        );
        // A gate of a nested object keeps its name on the line and as
        // the field; only the label it fails under says where it lives.
        let nested = Gate {
            section: "chaos",
            ..gates[1]
        };
        assert_eq!(gate_line(&[nested]), "breaks: false");
        assert_eq!(gates[1].label(), "breaks");
        assert_eq!(nested.label(), "chaos.breaks");
    }

    #[test]
    fn replay_compares_the_result_and_the_journal() {
        use madness_trace::{Recorder, Stage};
        let (v, same) = replay(|rec| {
            rec.span(Stage::Dispatch, 0, 10, 0);
            7
        });
        assert!(same && v == 7);
        let mut calls = 0u64;
        let (_, same) = replay(|_| {
            calls += 1;
            calls
        });
        assert!(!same, "differing results must not pass the pin");
        let mut t = 0u64;
        let (_, same) = replay(|rec| {
            t += 5;
            rec.span(Stage::Dispatch, 0, t, 0);
        });
        assert!(!same, "differing journals must not pass the pin");
    }
}
