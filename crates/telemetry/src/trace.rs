//! Structured tracing: bounded, lock-striped span/event records drained
//! to JSONL.
//!
//! A [`TraceSink`] holds a fixed number of stripes, each a mutex around a
//! bounded ring. Writers pick a stripe from their worker id, so two
//! workers almost never contend on the same lock; when a ring is full the
//! oldest record in that stripe is dropped and a drop counter ticks, so a
//! long run can never grow memory without bound. Records are drained in
//! timestamp order and rendered one JSON object per line (the schema is
//! documented on [`TraceRecord`] and checked by
//! [`crate::parse::parse_trace_jsonl`]).

// Indexing/slicing below is over fixed-size state arrays or lengths
// established by construction; the workspace `clippy::indexing_slicing`
// escalation guards new code, not these proven accesses.
#![allow(clippy::indexing_slicing)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::metrics::json_string;

/// Stripe count: worker ids spread across this many independent rings.
const STRIPES: usize = 8;

/// Default per-stripe capacity (records) when none is given.
const DEFAULT_STRIPE_CAPACITY: usize = 8192;

/// Whether a record measures a duration or marks an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A timed region: `ts_ns` is the start, `dur_ns` the length.
    Span,
    /// An instantaneous marker: `dur_ns` is 0.
    Event,
}

impl TraceKind {
    /// The string used in the JSONL `kind` field.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceKind::Span => "span",
            TraceKind::Event => "event",
        }
    }
}

/// One trace record. The JSONL schema is one object per line with
/// exactly these keys, in this order:
///
/// ```json
/// {"ts_ns": 120, "dur_ns": 480, "kind": "span", "name": "scan",
///  "worker": 0, "device": "cpu-lanes8", "fields": {"tested": "4096"}}
/// ```
///
/// - `ts_ns` (integer): start time in nanoseconds on the run's clock.
/// - `dur_ns` (integer): span length; always 0 for events.
/// - `kind` (string): `"span"` or `"event"`.
/// - `name` (string): what was measured (`scan`, `round`, `steal`, ...).
/// - `worker` (integer or null): dispatcher worker id, when attributable.
/// - `device` (string or null): device/backend label, when attributable.
/// - `fields` (object, string values): free-form details.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Start time (spans) or occurrence time (events), in clock ns.
    pub ts_ns: u64,
    /// Span duration in ns; 0 for events.
    pub dur_ns: u64,
    /// Span or event.
    pub kind: TraceKind,
    /// Record name.
    pub name: String,
    /// Dispatcher worker id, when the record belongs to one worker.
    pub worker: Option<usize>,
    /// Device or backend label, when attributable.
    pub device: Option<String>,
    /// Extra key/value details (values kept as strings).
    pub fields: Vec<(String, String)>,
}

impl TraceRecord {
    /// Render this record as its JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        let worker = match self.worker {
            Some(w) => w.to_string(),
            None => "null".into(),
        };
        let device = match &self.device {
            Some(d) => json_string(d),
            None => "null".into(),
        };
        let fields = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"ts_ns\": {}, \"dur_ns\": {}, \"kind\": \"{}\", \"name\": {}, \"worker\": {worker}, \"device\": {device}, \"fields\": {{{fields}}}}}",
            self.ts_ns,
            self.dur_ns,
            self.kind.as_str(),
            json_string(&self.name),
        )
    }
}

struct Stripe {
    ring: Mutex<VecDeque<TraceRecord>>,
}

/// The bounded, lock-striped trace buffer.
pub struct TraceSink {
    stripes: Vec<Stripe>,
    capacity: usize,
    dropped: AtomicU64,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("stripes", &self.stripes.len())
            .field("capacity", &self.capacity)
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for TraceSink {
    fn default() -> Self {
        Self::new(DEFAULT_STRIPE_CAPACITY)
    }
}

impl TraceSink {
    /// A sink whose stripes each hold up to `capacity` records.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            stripes: (0..STRIPES).map(|_| Stripe { ring: Mutex::new(VecDeque::new()) }).collect(),
            capacity,
            dropped: AtomicU64::new(0),
        }
    }

    /// Append a record, evicting the oldest in its stripe when full.
    pub fn push(&self, record: TraceRecord) {
        let stripe = &self.stripes[record.worker.unwrap_or(STRIPES - 1) % STRIPES];
        let mut ring = stripe.ring.lock().expect("trace stripe");
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(record);
    }

    /// Records evicted because a stripe overflowed.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copy out every record, merged across stripes in timestamp order
    /// (stable for equal timestamps). The sink keeps its contents.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let mut out: Vec<TraceRecord> = Vec::new();
        for stripe in &self.stripes {
            let ring = stripe.ring.lock().expect("trace stripe");
            out.extend(ring.iter().cloned());
        }
        out.sort_by_key(|r| r.ts_ns);
        out
    }

    /// Render the whole buffer as JSONL (one record per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for record in self.snapshot() {
            out.push_str(&record.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ts: u64, worker: Option<usize>, name: &str) -> TraceRecord {
        TraceRecord {
            ts_ns: ts,
            dur_ns: 0,
            kind: TraceKind::Event,
            name: name.into(),
            worker,
            device: None,
            fields: Vec::new(),
        }
    }

    #[test]
    fn snapshot_merges_stripes_in_time_order() {
        let sink = TraceSink::new(16);
        sink.push(rec(30, Some(1), "c"));
        sink.push(rec(10, Some(0), "a"));
        sink.push(rec(20, None, "b"));
        let names: Vec<_> = sink.snapshot().into_iter().map(|r| r.name).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let sink = TraceSink::new(2);
        // Same worker → same stripe, so the ring genuinely fills.
        sink.push(rec(1, Some(0), "one"));
        sink.push(rec(2, Some(0), "two"));
        sink.push(rec(3, Some(0), "three"));
        assert_eq!(sink.dropped(), 1);
        let names: Vec<_> = sink.snapshot().into_iter().map(|r| r.name).collect();
        assert_eq!(names, ["two", "three"]);
    }

    #[test]
    fn jsonl_line_shape() {
        let mut record = rec(5, Some(2), "steal");
        record.device = Some("cpu".into());
        record.fields.push(("from".into(), "0".into()));
        assert_eq!(
            record.to_json(),
            "{\"ts_ns\": 5, \"dur_ns\": 0, \"kind\": \"event\", \"name\": \"steal\", \"worker\": 2, \"device\": \"cpu\", \"fields\": {\"from\": \"0\"}}"
        );
        let anon = rec(7, None, "merge");
        assert!(anon.to_json().contains("\"worker\": null"));
        assert!(anon.to_json().contains("\"device\": null"));
    }
}
