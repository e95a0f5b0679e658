//! JSON timeline export/import for [`MemRecorder`] journals.
//!
//! The format is a single deterministic document — records in emission
//! order, counters/gauges in name order — so two identical simulations
//! export byte-identical timelines (the determinism contract the
//! integration tests enforce):
//!
//! ```json
//! {"version":1,
//!  "journal":[{"t":"span","stage":"Preprocess","start_ns":0,"end_ns":9,"lane":0},
//!             {"t":"event","stage":"Batch","at_ns":9,"value":60}],
//!  "counters":{"cache_hit":3},
//!  "gauges":{"pinned_pool_hwm_bytes":4096},
//!  "k_history":[0.25]}
//! ```
//!
//! The parser is hand-rolled (the build environment has no serde); it
//! accepts general JSON objects/arrays/strings/numbers but only the
//! fields above are interpreted.

use crate::{
    BalanceEvent, BalanceKind, DispatchSample, Event, FaultAction, FaultEvent, FaultKind,
    MemRecorder, Point, Record, Recorder, ServeEvent, ServeOutcome, Stage,
};
use std::fmt::Write as _;

/// Why a timeline failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description with a byte offset.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "timeline parse error: {}", self.message)
    }
}

impl std::error::Error for JsonError {}

// ---------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------

pub(crate) fn export(rec: &MemRecorder) -> String {
    let mut out = String::with_capacity(64 + rec.journal().len() * 64);
    out.push_str("{\"version\":1,\"journal\":[");
    for (i, r) in rec.journal().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match r {
            Record::Span(s) => {
                let _ = write!(
                    out,
                    "{{\"t\":\"span\",\"stage\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"lane\":{}}}",
                    s.stage.name(),
                    s.start_ns,
                    s.end_ns,
                    s.lane
                );
            }
            Record::Point(e) => {
                let _ = write!(
                    out,
                    "{{\"t\":\"event\",\"stage\":\"{}\",\"at_ns\":{},\"value\":{}}}",
                    e.stage.name(),
                    e.at_ns,
                    e.value
                );
            }
            Record::Fault(f) => {
                let _ = write!(
                    out,
                    "{{\"t\":\"fault\",\"kind\":\"{}\",\"action\":\"{}\",\"at_ns\":{},\"tasks\":{}}}",
                    f.kind.name(),
                    f.action.name(),
                    f.at_ns,
                    f.tasks
                );
            }
            Record::Balance(b) => {
                let _ = write!(
                    out,
                    "{{\"t\":\"balance\",\"kind\":\"{}\",\"from\":{},\"to\":{},\"tasks\":{},\"bytes\":{},\"at_ns\":{}}}",
                    b.kind.name(),
                    b.from_node,
                    b.to_node,
                    b.tasks,
                    b.bytes,
                    b.at_ns
                );
            }
            Record::Serve(s) => {
                let _ = write!(
                    out,
                    "{{\"t\":\"serve\",\"tenant\":{},\"op\":{},\"data_hash\":{},\"tasks\":{},\"arrived_ns\":{},\"started_ns\":{},\"finished_ns\":{},\"outcome\":\"{}\"}}",
                    s.tenant,
                    s.op,
                    s.data_hash,
                    s.tasks,
                    s.arrived_ns,
                    s.started_ns,
                    s.finished_ns,
                    s.outcome.name()
                );
            }
        }
    }
    out.push_str("],\"dispatch_history\":[");
    for (i, s) in rec.metrics().dispatch_history().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"k\":{:?},\"m_hat_ns\":{:?},\"n_hat_ns\":{:?},\"probe\":{}}}",
            s.k, s.m_hat_ns, s.n_hat_ns, s.probe
        );
    }
    out.push_str("],\"counters\":{");
    for (i, (name, v)) in rec.metrics().counters().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{v}");
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, v)) in rec.metrics().gauges().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{v}");
    }
    out.push_str("},\"k_history\":[");
    for (i, k) in rec.metrics().k_history().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // `{:?}` is Rust's shortest round-tripping float form.
        let _ = write!(out, "{k:?}");
    }
    out.push_str("]}");
    out
}

// ---------------------------------------------------------------------
// Import
// ---------------------------------------------------------------------

/// Replays every journal record and metric of a timeline through
/// [`Recorder::span`] and [`Recorder::record`], in export order.
pub(crate) fn import(text: &str) -> Result<MemRecorder, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let root = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after document"));
    }
    let Value::Object(fields) = root else {
        return Err(JsonError {
            message: "top level must be an object".into(),
        });
    };
    let get = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);

    let mut rec = MemRecorder::new();
    if let Some(Value::Array(records)) = get("journal") {
        for r in records {
            replay_record(r, &mut rec)?;
        }
    }
    if let Some(Value::Object(counters)) = get("counters") {
        for (name, v) in counters {
            let delta = v.as_u64().ok_or_else(|| bad("counter value"))?;
            rec.record(Event::Count(name, delta));
        }
    }
    if let Some(Value::Object(gauges)) = get("gauges") {
        for (name, v) in gauges {
            let value = v.as_u64().ok_or_else(|| bad("gauge value"))?;
            rec.record(Event::Gauge(name, value));
        }
    }
    if let Some(Value::Array(ks)) = get("k_history") {
        for k in ks {
            let k = k.as_f64().ok_or_else(|| bad("k_history value"))?;
            rec.record(Event::Split(k));
        }
    }
    if let Some(Value::Array(samples)) = get("dispatch_history") {
        for s in samples {
            let Value::Object(fields) = s else {
                return Err(bad("dispatch_history entry must be an object"));
            };
            let get = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
            let num = |name: &str| -> Result<f64, JsonError> {
                get(name)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| bad(&format!("dispatch sample missing number '{name}'")))
            };
            let probe = match get("probe") {
                Some(Value::Bool(b)) => *b,
                _ => return Err(bad("dispatch sample missing bool 'probe'")),
            };
            rec.record(Event::Dispatch(DispatchSample {
                k: num("k")?,
                m_hat_ns: num("m_hat_ns")?,
                n_hat_ns: num("n_hat_ns")?,
                probe,
            }));
        }
    }
    Ok(rec)
}

fn replay_record(r: &Value, rec: &mut MemRecorder) -> Result<(), JsonError> {
    let Value::Object(fields) = r else {
        return Err(bad("journal entry must be an object"));
    };
    let get = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    let num = |name: &str| -> Result<u64, JsonError> {
        get(name)
            .and_then(Value::as_u64)
            .ok_or_else(|| bad(&format!("record missing integer '{name}'")))
    };
    let ev = match get("t") {
        Some(Value::String(t)) if t == "span" => {
            let stage = named(get("stage"), "stage", Stage::from_name)?;
            rec.span(stage, num("start_ns")?, num("end_ns")?, num("lane")? as u32);
            return Ok(());
        }
        Some(Value::String(t)) if t == "event" => Event::Point(Point {
            stage: named(get("stage"), "stage", Stage::from_name)?,
            at_ns: num("at_ns")?,
            value: num("value")?,
        }),
        Some(Value::String(t)) if t == "fault" => Event::Fault(FaultEvent {
            kind: named(get("kind"), "fault kind", FaultKind::from_name)?,
            action: named(get("action"), "fault action", FaultAction::from_name)?,
            at_ns: num("at_ns")?,
            tasks: num("tasks")?,
        }),
        Some(Value::String(t)) if t == "balance" => Event::Balance(BalanceEvent {
            kind: named(get("kind"), "balance kind", BalanceKind::from_name)?,
            from_node: num("from")? as u32,
            to_node: num("to")? as u32,
            tasks: num("tasks")?,
            bytes: num("bytes")?,
            at_ns: num("at_ns")?,
        }),
        Some(Value::String(t)) if t == "serve" => Event::Serve(ServeEvent {
            tenant: num("tenant")? as u32,
            op: num("op")?,
            data_hash: num("data_hash")?,
            tasks: num("tasks")?,
            arrived_ns: num("arrived_ns")?,
            started_ns: num("started_ns")?,
            finished_ns: num("finished_ns")?,
            outcome: named(get("outcome"), "serve outcome", ServeOutcome::from_name)?,
        }),
        _ => {
            return Err(bad(
                "record type must be \"span\", \"event\", \"fault\", \"balance\" or \"serve\"",
            ))
        }
    };
    rec.record(ev);
    Ok(())
}

/// The entry of a name table that a record's `field` holds.
fn named<T>(
    v: Option<&Value>,
    field: &str,
    from_name: fn(&str) -> Option<T>,
) -> Result<T, JsonError> {
    match v {
        Some(Value::String(s)) => {
            from_name(s).ok_or_else(|| bad(&format!("unknown {field} '{s}'")))
        }
        _ => Err(bad(&format!("record missing {field}"))),
    }
}

fn bad(what: &str) -> JsonError {
    JsonError {
        message: what.to_owned(),
    }
}

// ---------------------------------------------------------------------
// A minimal JSON value parser
// ---------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum Value {
    Object(Vec<(String, Value)>),
    Array(Vec<Value>),
    String(String),
    UInt(u64),
    Float(f64),
    Bool(bool),
    Null,
}

impl Value {
    fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(n) => Some(*n),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::UInt(n) => Some(*n as f64),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: format!("{message} at byte {}", self.pos),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    // Only the escapes the exporter could ever need.
                    match self.bytes.get(self.pos + 1) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        _ => return Err(self.err("unsupported escape")),
                    }
                    self.pos += 2;
                }
                Some(&c) => {
                    // Raw UTF-8 passes through byte-wise.
                    out.push(c as char);
                    self.pos += 1;
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(&c) = self.bytes.get(self.pos) {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("non-UTF-8 number"))?;
        if float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err("bad float"))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|_| self.err("bad integer"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder built through `span` and `record` alone, with one value
    /// of every [`Event`] variant and every entry of every name table: a
    /// span and a point of each stage, a fault of each kind paired with
    /// the action of the same index, a balance record of each kind and a
    /// serve record of each outcome, then each metric.
    fn vocabulary() -> MemRecorder {
        assert_eq!(FaultKind::ALL.len(), FaultAction::ALL.len());
        let mut rec = MemRecorder::new();
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            let (i, at_ns) = (i as u64, 1_000 * i as u64);
            rec.span(stage, at_ns, at_ns + 700, i as u32);
            let value = 60 + i;
            rec.record(Event::Point(Point {
                stage,
                at_ns,
                value,
            }));
        }
        let faults = FaultKind::ALL.into_iter().zip(FaultAction::ALL);
        for (i, (kind, action)) in faults.enumerate() {
            let (at_ns, tasks) = (2_000 + 100 * i as u64, i as u64);
            rec.record(Event::Fault(FaultEvent {
                kind,
                action,
                at_ns,
                tasks,
            }));
        }
        for (i, kind) in BalanceKind::ALL.into_iter().enumerate() {
            rec.record(Event::Balance(BalanceEvent {
                kind,
                from_node: i as u32,
                to_node: 5,
                tasks: 120,
                bytes: 960_000,
                at_ns: 2_500,
            }));
        }
        for (i, outcome) in ServeOutcome::ALL.into_iter().enumerate() {
            rec.record(Event::Serve(ServeEvent {
                tenant: i as u32,
                op: 0x5E12,
                data_hash: 42,
                tasks: 8,
                arrived_ns: 500,
                started_ns: 1_200,
                finished_ns: 3_900,
                outcome,
            }));
        }
        rec.record(Event::Count("cache_miss", 1));
        rec.record(Event::Count(&format!("stream_busy_ns.{}", 3), 9));
        rec.record(Event::Gauge("pinned_pool_hwm_bytes", 1 << 20));
        rec.record(Event::Split(1.0 / 3.0));
        rec.record(Event::Split(0.5));
        for (k, m_hat_ns, n_hat_ns, probe) in
            [(0.5, 0.0, 0.0, true), (0.242, 2_500.5, 800.0, false)]
        {
            let sample = DispatchSample {
                k,
                m_hat_ns,
                n_hat_ns,
                probe,
            };
            rec.record(Event::Dispatch(sample));
        }
        rec
    }

    /// Every record and metric of the vocabulary survives export and
    /// import, byte for byte; every name table inverts; and only the
    /// journaled variants enter the journal.
    #[test]
    fn round_trip_is_byte_identical() {
        let rec = vocabulary();
        let json = rec.to_json();
        let back = MemRecorder::from_json(&json).expect("parses");
        assert_eq!(back, rec);
        assert_eq!(back.to_json(), json);

        let journaled = 2 * Stage::ALL.len()
            + FaultKind::ALL.len()
            + BalanceKind::ALL.len()
            + ServeOutcome::ALL.len();
        assert_eq!(rec.journal().len(), journaled);

        for x in Stage::ALL {
            assert_eq!(Stage::from_name(x.name()), Some(x));
        }
        for x in ServeOutcome::ALL {
            assert_eq!(ServeOutcome::from_name(x.name()), Some(x));
        }
        for x in BalanceKind::ALL {
            assert_eq!(BalanceKind::from_name(x.name()), Some(x));
        }
        for x in FaultKind::ALL {
            assert_eq!(FaultKind::from_name(x.name()), Some(x));
        }
        for x in FaultAction::ALL {
            assert_eq!(FaultAction::from_name(x.name()), Some(x));
        }
        assert_eq!(Stage::from_name("NotAStage"), None);
        assert_eq!(ServeOutcome::from_name("NotAnOutcome"), None);
        assert_eq!(BalanceKind::from_name("NotABalanceKind"), None);
        assert_eq!(FaultKind::from_name("NotAFault"), None);
        assert_eq!(FaultAction::from_name("NotAnAction"), None);
    }

    #[test]
    fn empty_recorder_round_trips() {
        let rec = MemRecorder::new();
        let json = rec.to_json();
        assert_eq!(MemRecorder::from_json(&json).unwrap(), rec);
    }

    #[test]
    fn whitespace_is_tolerated() {
        let json = "{ \"version\" : 1,\n \"journal\" : [ { \"t\" : \"span\", \"stage\" : \"Transfer\", \"start_ns\" : 5, \"end_ns\" : 9, \"lane\" : 1 } ] }";
        let rec = MemRecorder::from_json(json).unwrap();
        assert_eq!(rec.spans().count(), 1);
        let s = rec.spans().next().unwrap();
        assert_eq!(
            (s.stage, s.start_ns, s.end_ns, s.lane),
            (Stage::Transfer, 5, 9, 1)
        );
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "[1,2,3]",
            "{\"journal\":[{\"t\":\"span\"}]}",
            "{\"journal\":[{\"t\":\"span\",\"stage\":\"NotAStage\",\"start_ns\":0,\"end_ns\":1,\"lane\":0}]}",
            "{\"journal\":[{\"t\":\"fault\",\"kind\":\"NotAFault\",\"action\":\"Injected\",\"at_ns\":0,\"tasks\":1}]}",
            "{\"journal\":[{\"t\":\"fault\",\"kind\":\"DeviceLost\",\"at_ns\":0,\"tasks\":1}]}",
            "{\"journal\":[{\"t\":\"balance\",\"kind\":\"NotAKind\",\"from\":0,\"to\":1,\"tasks\":1,\"bytes\":1,\"at_ns\":0}]}",
            "{\"journal\":[{\"t\":\"balance\",\"kind\":\"Steal\",\"to\":1,\"tasks\":1,\"bytes\":1,\"at_ns\":0}]}",
            "{\"journal\":[{\"t\":\"serve\",\"tenant\":1,\"op\":1,\"data_hash\":0,\"tasks\":1,\"arrived_ns\":0,\"started_ns\":0,\"finished_ns\":0,\"outcome\":\"NotAnOutcome\"}]}",
            "{\"journal\":[{\"t\":\"serve\",\"tenant\":1,\"op\":1,\"data_hash\":0,\"tasks\":1,\"arrived_ns\":0,\"started_ns\":0,\"finished_ns\":0}]}",
            "{\"journal\":[{\"t\":\"serve\",\"op\":1,\"data_hash\":0,\"tasks\":1,\"arrived_ns\":0,\"started_ns\":0,\"finished_ns\":0,\"outcome\":\"Completed\"}]}",
            "{\"journal\":[{\"t\":\"kernel\",\"d\":3,\"k\":10}]}",
            "{\"counters\":{\"x\":-3}}",
            "{} trailing",
        ] {
            assert!(MemRecorder::from_json(bad).is_err(), "accepted: {bad}");
        }
    }
}
