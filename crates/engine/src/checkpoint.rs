//! Serializable search checkpoints: the frontier of completed work plus
//! the dispatcher's in-flight state, in a stable schema-stamped JSON form.
//!
//! The paper's dispatch pattern makes progress trivially checkpointable
//! because work is identifier intervals: remembering which sub-intervals
//! are still pending is enough to resume exactly where a crash or
//! shutdown interrupted, with no key rescanned and none skipped. This
//! module owns that bookkeeping for every layer above:
//!
//! * [`Checkpoint`] — the **frontier**: the full interval a search covers
//!   and the sorted, non-overlapping sub-intervals not yet completed: a
//!   job's lease bookkeeping in the job service.
//! * [`SearchCheckpoint`] — a **mid-search snapshot**: the frontier plus
//!   the per-slot contents of an [`IntervalDeques`] and the per-worker
//!   [`WorkerStats`], i.e. everything needed to reconstruct
//!   consumed-vs-outstanding intervals after a restart.
//!
//! One serialized form exists: a schema-stamped JSON document
//! ([`SearchCheckpoint::to_json`]), std-only like the telemetry
//! expositions. All `u128`/`u64` fields are serialized as **decimal
//! strings** — JSON numbers round-trip through `f64` and silently lose
//! precision past 2^53, which a 62^8 keyspace identifier exceeds. Readers
//! reject unknown future `schema` values instead of guessing.

use std::fmt;
use std::fmt::Write as _;

use eks_keyspace::Interval;
use eks_telemetry::json_string;
use eks_telemetry::parse::{parse_json, Json};

use crate::steal::{IntervalDeques, WorkerStats};

/// Version stamp of the JSON checkpoint document. Any layout change must
/// bump this and update the goldens in `tests/jobs_schema.rs` in the same
/// commit.
pub const CHECKPOINT_SCHEMA_VERSION: u64 = 1;

/// Why a serialized checkpoint was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// The document is not JSON at all.
    Parse(String),
    /// The document is JSON but stamped with a schema version this
    /// build does not understand (forward-compat reject, never a guess).
    Schema(u64),
    /// The document is schema-1 JSON but a field is missing or invalid.
    Invalid(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Parse(e) => write!(f, "checkpoint is not valid JSON: {e}"),
            CheckpointError::Schema(v) => write!(
                f,
                "checkpoint schema version {v} is not supported (this build reads {CHECKPOINT_SCHEMA_VERSION})"
            ),
            CheckpointError::Invalid(e) => write!(f, "malformed checkpoint: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Persistent search progress: the original interval and what remains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// The full interval the search covers.
    pub full: Interval,
    /// Sub-intervals not yet completed, sorted, non-overlapping.
    pub pending: Vec<Interval>,
}

impl Checkpoint {
    /// A fresh checkpoint with everything pending.
    pub fn new(full: Interval) -> Self {
        Self { full, pending: if full.is_empty() { Vec::new() } else { vec![full] } }
    }

    /// Keys still to be tested.
    pub fn remaining(&self) -> u128 {
        self.pending.iter().map(|iv| iv.len).sum()
    }

    /// Keys whose coverage is already complete. The two views always
    /// reconcile: `consumed() + remaining() == full.len`.
    pub fn consumed(&self) -> u128 {
        self.full.len - self.remaining()
    }

    /// Completed fraction in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        if self.full.len == 0 {
            return 1.0;
        }
        1.0 - self.remaining() as f64 / self.full.len as f64
    }

    /// True when nothing remains.
    pub fn is_complete(&self) -> bool {
        self.pending.is_empty()
    }

    /// Mark `done` as completed, splitting pending intervals as needed.
    ///
    /// Completing an interval twice (or one never pending) is a no-op for
    /// the already-complete part — idempotent by design, since cluster
    /// workers may re-report after a requeue.
    pub fn complete(&mut self, done: Interval) {
        if done.is_empty() {
            return;
        }
        let mut next = Vec::with_capacity(self.pending.len() + 1);
        for iv in &self.pending {
            let overlap = iv.intersect(&done);
            if overlap.is_empty() {
                next.push(*iv);
                continue;
            }
            // Left remainder.
            if iv.start < overlap.start {
                next.push(Interval::new(iv.start, overlap.start - iv.start));
            }
            // Right remainder.
            if overlap.end() < iv.end() {
                next.push(Interval::new(overlap.end(), iv.end() - overlap.end()));
            }
        }
        next.sort_by_key(|iv| iv.start);
        self.pending = next;
    }

    /// Pop up to `n` keys of pending work (the resume-side dispatcher).
    pub fn take_work(&mut self, n: u128) -> Option<Interval> {
        let first = self.pending.first_mut()?;
        let take = first.take_front(n);
        if first.is_empty() {
            self.pending.remove(0);
        }
        Some(take)
    }

    /// Return work taken with [`Checkpoint::take_work`] that was never
    /// scanned (a worker went silent mid-round): the interval becomes
    /// pending again, merged with its neighbours.
    ///
    /// # Panics
    /// Panics when the interval escapes the checkpoint's full range or
    /// overlaps work that is still pending (double-requeue).
    pub fn requeue(&mut self, interval: Interval) {
        if interval.is_empty() {
            return;
        }
        assert_eq!(
            interval.intersect(&self.full),
            interval,
            "requeued interval escapes the checkpoint range"
        );
        for iv in &self.pending {
            assert!(
                iv.intersect(&interval).is_empty(),
                "requeued interval overlaps pending work"
            );
        }
        self.pending.push(interval);
        self.pending.sort_by_key(|iv| iv.start);
        // Merge adjacent fragments to keep the list compact.
        let mut merged: Vec<Interval> = Vec::with_capacity(self.pending.len());
        for iv in self.pending.drain(..) {
            match merged.last_mut() {
                Some(last) if last.end() == iv.start => last.len += iv.len,
                _ => merged.push(iv),
            }
        }
        self.pending = merged;
    }
}

/// A mid-search snapshot of the dispatcher: the frontier, the exact
/// per-slot contents of the [`IntervalDeques`] (outstanding work already
/// scattered but not yet scanned), and the per-worker accounting.
///
/// `frontier.pending` and `slots` answer different questions: the
/// frontier says what the *search* still owes, the slots say how the
/// *current round* had scattered part of that debt when the snapshot was
/// taken. Re-assigning the saved slots verbatim
/// (`IntervalDeques::assign(slots)`) resumes a round with the same
/// partition the stealing had converged to.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchCheckpoint {
    /// Completed-vs-pending coverage of the whole search.
    pub frontier: Checkpoint,
    /// Per-slot outstanding intervals, one per deque (may be empty).
    pub slots: Vec<Interval>,
    /// Per-worker accounting at snapshot time.
    pub workers: Vec<WorkerStats>,
}

impl SearchCheckpoint {
    /// A fresh snapshot: everything pending, nothing scattered, no
    /// workers yet.
    pub fn fresh(full: Interval) -> Self {
        Self { frontier: Checkpoint::new(full), slots: Vec::new(), workers: Vec::new() }
    }

    /// Snapshot a live round: the frontier plus the deques' current slot
    /// contents and the workers' accounting so far.
    pub fn snapshot(frontier: Checkpoint, deques: &IntervalDeques, workers: Vec<WorkerStats>) -> Self {
        Self { frontier, slots: deques.snapshot(), workers }
    }

    /// Render the schema-stamped JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"schema\":");
        let _ = write!(out, "{CHECKPOINT_SCHEMA_VERSION}");
        out.push_str(",\"full\":");
        push_interval(&mut out, &self.frontier.full);
        out.push_str(",\"pending\":[");
        for (i, iv) in self.frontier.pending.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_interval(&mut out, iv);
        }
        out.push_str("],\"slots\":[");
        for (i, iv) in self.slots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_interval(&mut out, iv);
        }
        out.push_str("],\"workers\":[");
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"label\":{},\"tested\":\"{}\",\"steals\":\"{}\",\"splits\":\"{}\",\"idle_ns\":\"{}\",\"busy_ns\":\"{}\"}}",
                json_string(&w.label),
                w.tested,
                w.steals,
                w.splits,
                w.idle_ns,
                w.busy_ns
            );
        }
        out.push_str("]}");
        out
    }

    /// Parse a schema-stamped JSON document, rejecting unknown schema
    /// versions and structurally invalid state (overlapping pending
    /// intervals, slots escaping the full range) rather than resuming a
    /// search that would rescan or skip keys.
    pub fn from_json(text: &str) -> Result<Self, CheckpointError> {
        let doc = parse_json(text).map_err(CheckpointError::Parse)?;
        let schema = u64_field(&doc, "schema")?;
        if schema != CHECKPOINT_SCHEMA_VERSION {
            return Err(CheckpointError::Schema(schema));
        }
        let full = interval_field(&doc, "full")?;
        let mut pending = interval_array(&doc, "pending")?;
        pending.sort_by_key(|iv| iv.start);
        for w in pending.windows(2) {
            if let [a, b] = w {
                if a.end() > b.start {
                    return Err(CheckpointError::Invalid(
                        "pending intervals overlap (work would be double-counted)".into(),
                    ));
                }
            }
        }
        for iv in &pending {
            if iv.intersect(&full) != *iv {
                return Err(CheckpointError::Invalid(
                    "pending interval escapes the full range".into(),
                ));
            }
        }
        let slots = interval_array(&doc, "slots")?;
        for iv in &slots {
            if !iv.is_empty() && iv.intersect(&full) != *iv {
                return Err(CheckpointError::Invalid(
                    "slot interval escapes the full range".into(),
                ));
            }
        }
        let workers = match doc.get("workers") {
            Some(Json::Arr(items)) => {
                let mut ws = Vec::with_capacity(items.len());
                for item in items {
                    ws.push(worker_from_json(item)?);
                }
                ws
            }
            Some(_) => return Err(CheckpointError::Invalid("workers must be an array".into())),
            None => return Err(CheckpointError::Invalid("missing field: workers".into())),
        };
        Ok(Self { frontier: Checkpoint { full, pending }, slots, workers })
    }
}

// ---------------------------------------------------------------------
// JSON helpers (std-only; decimal-string integers for exact round-trips).
// Public: the job store up-stack writes the same dialect, so the two
// schemas can never drift on integer encoding.
// ---------------------------------------------------------------------

/// Append an interval as `{"start":"<dec>","len":"<dec>"}`.
pub fn push_interval(out: &mut String, iv: &Interval) {
    let _ = write!(out, "{{\"start\":\"{}\",\"len\":\"{}\"}}", iv.start, iv.len);
}

/// Required string member of a JSON object.
pub fn str_field<'j>(obj: &'j Json, key: &str) -> Result<&'j str, CheckpointError> {
    match obj.get(key) {
        Some(Json::Str(s)) => Ok(s),
        Some(_) => Err(CheckpointError::Invalid(format!("field {key} must be a string"))),
        None => Err(CheckpointError::Invalid(format!("missing field: {key}"))),
    }
}

/// Integers appear as decimal strings (exact) — but `schema` itself is a
/// plain JSON number for greppability, so accept both spellings.
pub fn u64_field(obj: &Json, key: &str) -> Result<u64, CheckpointError> {
    match obj.get(key) {
        Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
            Ok(*n as u64)
        }
        Some(Json::Str(s)) => s
            .parse::<u64>()
            .map_err(|_| CheckpointError::Invalid(format!("field {key} is not a u64: {s:?}"))),
        Some(_) => Err(CheckpointError::Invalid(format!("field {key} must be an integer"))),
        None => Err(CheckpointError::Invalid(format!("missing field: {key}"))),
    }
}

/// Required `u128` member, spelled as a decimal string.
pub fn u128_field(obj: &Json, key: &str) -> Result<u128, CheckpointError> {
    let s = str_field(obj, key)?;
    s.parse::<u128>()
        .map_err(|_| CheckpointError::Invalid(format!("field {key} is not a u128: {s:?}")))
}

/// Parse one `{"start":...,"len":...}` interval object, with overflow
/// checked instead of panicking.
fn interval_from_json(value: &Json) -> Result<Interval, CheckpointError> {
    let start = u128_field(value, "start")?;
    let len = u128_field(value, "len")?;
    start
        .checked_add(len)
        .ok_or_else(|| CheckpointError::Invalid("interval start + len overflows u128".into()))?;
    Ok(Interval::new(start, len))
}

/// Required interval member of a JSON object.
pub fn interval_field(obj: &Json, key: &str) -> Result<Interval, CheckpointError> {
    match obj.get(key) {
        Some(v @ Json::Obj(_)) => interval_from_json(v),
        Some(_) => Err(CheckpointError::Invalid(format!("field {key} must be an object"))),
        None => Err(CheckpointError::Invalid(format!("missing field: {key}"))),
    }
}

/// Required array-of-intervals member of a JSON object.
pub fn interval_array(obj: &Json, key: &str) -> Result<Vec<Interval>, CheckpointError> {
    match obj.get(key) {
        Some(Json::Arr(items)) => items.iter().map(interval_from_json).collect(),
        Some(_) => Err(CheckpointError::Invalid(format!("field {key} must be an array"))),
        None => Err(CheckpointError::Invalid(format!("missing field: {key}"))),
    }
}

fn worker_from_json(value: &Json) -> Result<WorkerStats, CheckpointError> {
    Ok(WorkerStats {
        label: str_field(value, "label")?.to_string(),
        tested: u128_field(value, "tested")?,
        steals: u64_field(value, "steals")?,
        splits: u64_field(value, "splits")?,
        idle_ns: u64_field(value, "idle_ns")?,
        busy_ns: u64_field(value, "busy_ns")?,
    })
}

#[cfg(test)]
#[allow(clippy::indexing_slicing)]
mod tests {
    use super::*;

    #[test]
    fn fresh_checkpoint_has_everything_pending() {
        let c = Checkpoint::new(Interval::new(100, 1000));
        assert_eq!(c.remaining(), 1000);
        assert_eq!(c.consumed(), 0);
        assert_eq!(c.progress(), 0.0);
        assert!(!c.is_complete());
    }

    #[test]
    fn completing_middle_splits_pending() {
        let mut c = Checkpoint::new(Interval::new(0, 100));
        c.complete(Interval::new(40, 20));
        assert_eq!(c.pending, vec![Interval::new(0, 40), Interval::new(60, 40)]);
        assert_eq!(c.remaining(), 80);
        assert_eq!(c.consumed(), 20);
        assert!((c.progress() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn completing_everything_finishes() {
        let mut c = Checkpoint::new(Interval::new(0, 100));
        c.complete(Interval::new(0, 60));
        c.complete(Interval::new(60, 40));
        assert!(c.is_complete());
        assert_eq!(c.progress(), 1.0);
    }

    #[test]
    fn complete_is_idempotent() {
        let mut c = Checkpoint::new(Interval::new(0, 100));
        c.complete(Interval::new(10, 30));
        let snapshot = c.clone();
        c.complete(Interval::new(10, 30));
        c.complete(Interval::new(15, 10));
        assert_eq!(c, snapshot);
    }

    #[test]
    fn take_work_drains_in_order() {
        let mut c = Checkpoint::new(Interval::new(0, 100));
        c.complete(Interval::new(30, 10));
        assert_eq!(c.take_work(20), Some(Interval::new(0, 20)));
        assert_eq!(c.take_work(20), Some(Interval::new(20, 10)), "clipped at the gap");
        assert_eq!(c.take_work(100), Some(Interval::new(40, 60)));
        assert_eq!(c.take_work(1), None);
    }

    #[test]
    fn requeue_restores_and_merges() {
        let mut c = Checkpoint::new(Interval::new(0, 100));
        let a = c.take_work(30).unwrap();
        let b = c.take_work(30).unwrap();
        c.complete(a);
        // b was lost: requeue it; it must merge with the remaining tail.
        c.requeue(b);
        assert_eq!(c.remaining(), 70);
        assert_eq!(c.pending, vec![Interval::new(30, 70)], "merged with the tail");
        assert_eq!(c.take_work(1000), Some(Interval::new(30, 70)));
    }

    #[test]
    #[should_panic]
    fn double_requeue_rejected() {
        let mut c = Checkpoint::new(Interval::new(0, 100));
        let a = c.take_work(30).unwrap();
        c.requeue(a);
        c.requeue(a);
    }

    #[test]
    fn resumed_search_covers_exactly_the_remainder() {
        let full = Interval::new(0, 10_000);
        let mut c = Checkpoint::new(full);
        c.complete(Interval::new(0, 4_321));
        let mut covered = 0u128;
        while let Some(iv) = c.take_work(1_000) {
            covered += iv.len;
        }
        assert_eq!(covered, 10_000 - 4_321);
    }

    // ------------------------------------------------------------------
    // JSON snapshot round-trips.
    // ------------------------------------------------------------------

    fn sample_snapshot() -> SearchCheckpoint {
        let full = Interval::new(0, 1u128 << 70);
        let mut frontier = Checkpoint::new(full);
        frontier.complete(Interval::new(0, 1u128 << 69));
        let deques = IntervalDeques::scatter(Interval::new(1u128 << 69, 4096), &[3.0, 1.0]);
        let mut w0 = WorkerStats::new("cpu#0");
        w0.tested = (1u128 << 69) + 17;
        w0.steals = 3;
        w0.busy_ns = 987_654_321;
        let w1 = WorkerStats::new("gpu#1 [simgpu]");
        SearchCheckpoint::snapshot(frontier, &deques, vec![w0, w1])
    }

    #[test]
    fn json_round_trips_mid_search_state_exactly() {
        let snap = sample_snapshot();
        let back = SearchCheckpoint::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        // u128 precision beyond f64: the tested count survives exactly.
        assert_eq!(back.workers[0].tested, (1u128 << 69) + 17);
    }

    #[test]
    fn restored_deques_resume_the_same_partition() {
        let snap = sample_snapshot();
        let back = SearchCheckpoint::from_json(&snap.to_json()).unwrap();
        let deques = IntervalDeques::assign(back.slots.clone());
        assert_eq!(deques.len(), 2);
        assert_eq!(deques.snapshot(), snap.slots);
        assert_eq!(snap.slots.iter().map(|iv| iv.len).sum::<u128>(), 4096);
    }

    #[test]
    fn unknown_future_schema_is_rejected() {
        let snap = sample_snapshot();
        let bumped = snap.to_json().replacen(
            &format!("\"schema\":{CHECKPOINT_SCHEMA_VERSION}"),
            "\"schema\":99",
            1,
        );
        match SearchCheckpoint::from_json(&bumped) {
            Err(CheckpointError::Schema(99)) => {}
            other => panic!("expected schema reject, got {other:?}"),
        }
    }

    #[test]
    fn malformed_documents_are_rejected_not_panicked() {
        for bad in [
            "",
            "not json",
            "{}",
            "{\"schema\":1}",
            // Overlapping pending intervals.
            "{\"schema\":1,\"full\":{\"start\":\"0\",\"len\":\"100\"},\"pending\":[{\"start\":\"0\",\"len\":\"20\"},{\"start\":\"10\",\"len\":\"20\"}],\"slots\":[],\"workers\":[]}",
            // Pending escapes the full range.
            "{\"schema\":1,\"full\":{\"start\":\"0\",\"len\":\"10\"},\"pending\":[{\"start\":\"5\",\"len\":\"20\"}],\"slots\":[],\"workers\":[]}",
            // Interval overflows u128.
            "{\"schema\":1,\"full\":{\"start\":\"340282366920938463463374607431768211455\",\"len\":\"2\"},\"pending\":[],\"slots\":[],\"workers\":[]}",
            // Non-string u128.
            "{\"schema\":1,\"full\":{\"start\":0,\"len\":10},\"pending\":[],\"slots\":[],\"workers\":[]}",
        ] {
            assert!(SearchCheckpoint::from_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn worker_labels_with_quotes_survive() {
        let mut snap = SearchCheckpoint::fresh(Interval::new(0, 10));
        snap.workers.push(WorkerStats::new("odd \"label\"\\with\tescapes"));
        let back = SearchCheckpoint::from_json(&snap.to_json()).unwrap();
        assert_eq!(back.workers[0].label, "odd \"label\"\\with\tescapes");
    }
}
