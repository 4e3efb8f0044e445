//! Job identity, specification, lifecycle, and the schema-stamped JSON
//! record the spool directory persists.
//!
//! A job is one tenant's exhaustive search: a hash target over a bounded
//! keyspace, plus scheduling attributes (priority, first-hit). The
//! persisted [`JobRecord`] bundles the immutable [`JobSpec`] with the
//! mutable progress state — lifecycle, the completed-work frontier
//! ([`Checkpoint`]), the credited key count and any hits — so a killed
//! process resumes from exactly the coverage it had durably recorded.
//! Between snapshots a job's progress is a lease log, one line per
//! scanned lease (`lease_line` / `parse_lease_line`, in the record's
//! spelling of intervals and hits), which `JobRecord::credit_lease`
//! replays.

use std::fmt;
use std::fmt::Write as _;

use eks_engine::checkpoint::{
    self, push_interval, str_field, u64_field, u128_field, Checkpoint,
    CheckpointError,
};
use eks_engine::{ScanMode, TargetSet};
use eks_hashes::{from_hex, to_hex, HashAlgo};
use eks_keyspace::{Charset, Interval, KeySpace, Order};
use eks_telemetry::json_string;
use eks_telemetry::parse::{parse_json, Json};

/// Version stamp of the job-record JSON document. Any layout change must
/// bump this and update the goldens in `tests/jobs_schema.rs` in the
/// same commit.
pub const JOB_SCHEMA_VERSION: u64 = 1;

/// Why a job operation failed. Rendered to users by `eks job`, so every
/// variant reads as a sentence, not a debug dump.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// Filesystem trouble in the spool directory.
    Io(String),
    /// A spool file is not a readable job record.
    Corrupt { path: String, reason: String },
    /// A record is stamped with an unknown future schema version.
    Schema(u64),
    /// No such job in the spool.
    NotFound(JobId),
    /// The specification cannot build a search.
    InvalidSpec(String),
    /// The requested lifecycle transition is not allowed.
    BadTransition { from: JobState, to: JobState },
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Io(e) => write!(f, "spool I/O error: {e}"),
            JobError::Corrupt { path, reason } => {
                write!(f, "job record {path} is corrupt: {reason}")
            }
            JobError::Schema(v) => write!(
                f,
                "job record schema version {v} is not supported (this build reads {JOB_SCHEMA_VERSION})"
            ),
            JobError::NotFound(id) => write!(f, "no such job: {id}"),
            JobError::InvalidSpec(e) => write!(f, "invalid job specification: {e}"),
            JobError::BadTransition { from, to } => {
                write!(f, "cannot move a {} job to {}", from.name(), to.name())
            }
        }
    }
}

impl std::error::Error for JobError {}

impl From<CheckpointError> for JobError {
    fn from(e: CheckpointError) -> Self {
        match e {
            CheckpointError::Schema(v) => JobError::Schema(v),
            other => JobError::Corrupt { path: String::new(), reason: other.to_string() },
        }
    }
}

/// A job's identity: dense small integers, rendered as `job-<n>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

impl JobId {
    /// Parse `job-<n>` or a bare integer.
    pub fn parse(s: &str) -> Option<Self> {
        let digits = s.strip_prefix("job-").unwrap_or(s);
        digits.parse().ok().map(JobId)
    }
}

/// Lifecycle of a job.
///
/// `Running` is persisted too: a record found `Running` on startup is a
/// crash marker — the process died mid-search — and is treated as
/// runnable, resuming from its durable frontier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Submitted, not yet scheduled.
    Pending,
    /// Held at least one lease; not finished.
    Running,
    /// Explicitly paused; the scheduler skips it until resumed.
    Paused,
    /// All keys covered, or the first hit found.
    Completed,
    /// Explicitly cancelled; never scheduled again.
    Cancelled,
}

impl JobState {
    /// The serialized (and displayed) name.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Pending => "pending",
            JobState::Running => "running",
            JobState::Paused => "paused",
            JobState::Completed => "completed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Parse a serialized name.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "pending" => JobState::Pending,
            "running" => JobState::Running,
            "paused" => JobState::Paused,
            "completed" => JobState::Completed,
            "cancelled" => JobState::Cancelled,
            _ => return None,
        })
    }

    /// True when the scheduler may lease work for this state.
    pub fn is_runnable(self) -> bool {
        matches!(self, JobState::Pending | JobState::Running)
    }

    /// True when the state is final: no transition leaves it.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Completed | JobState::Cancelled)
    }

    /// Whether a user/scheduler transition `self -> to` is legal.
    /// Terminal states accept nothing; everything else may pause,
    /// resume, cancel, run, or complete.
    pub fn can_transition(self, to: JobState) -> bool {
        !self.is_terminal() && to != JobState::Pending || (self == to)
    }
}

/// The immutable description of one search job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Human-readable name (free text; JSON-escaped on disk).
    pub name: String,
    /// Hash algorithm of the target digest.
    pub algo: HashAlgo,
    /// The target digest (length must match `algo`).
    pub digest: Vec<u8>,
    /// Charset symbols, in enumeration order. ASCII only — the spool
    /// record stores them as a plain JSON string.
    pub charset: Vec<u8>,
    /// Minimum key length.
    pub min_len: u32,
    /// Maximum key length.
    pub max_len: u32,
    /// Enumeration order.
    pub order: Order,
    /// Fair-share weight: a priority-2 job receives twice the keys per
    /// round of a priority-1 job (the inter-job scatter proportion).
    pub priority: u32,
    /// Stop at the lowest-identifier hit instead of sweeping everything.
    pub first_hit_only: bool,
}

impl JobSpec {
    /// Validate and build the keyspace this job enumerates.
    pub fn space(&self) -> Result<KeySpace, JobError> {
        if self.digest.len() != self.algo.digest_len() {
            return Err(JobError::InvalidSpec(format!(
                "digest is {} bytes but {} digests are {} bytes",
                self.digest.len(),
                self.algo.name(),
                self.algo.digest_len()
            )));
        }
        if self.priority == 0 {
            return Err(JobError::InvalidSpec("priority must be at least 1".into()));
        }
        if !self.charset.is_ascii() {
            return Err(JobError::InvalidSpec("charset must be ASCII".into()));
        }
        let charset = Charset::from_bytes(&self.charset)
            .map_err(|e| JobError::InvalidSpec(e.to_string()))?;
        KeySpace::new(charset, self.min_len, self.max_len, self.order)
            .map_err(|e| JobError::InvalidSpec(e.to_string()))
    }

    /// The test function: a single-digest target set.
    pub fn targets(&self) -> TargetSet {
        TargetSet::new(self.algo, std::slice::from_ref(&self.digest))
    }

    /// The dispatcher mode this job runs in.
    pub fn mode(&self) -> ScanMode {
        ScanMode::from_first_hit(self.first_hit_only)
    }
}

/// One found key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobHit {
    /// The key's identifier in the job's keyspace.
    pub id: u128,
    /// The key bytes.
    pub key: Vec<u8>,
}

/// The persisted unit: spec + progress. See the module docs for the
/// crash-safety argument.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Identity within one spool directory.
    pub id: JobId,
    /// The immutable search description.
    pub spec: JobSpec,
    /// Lifecycle state.
    pub state: JobState,
    /// Completed-vs-pending coverage over the job's identifier interval.
    pub frontier: Checkpoint,
    /// Keys credited to this job. For exhaustive jobs this is always
    /// `frontier.consumed()` — derived, never independently counted, so
    /// restart cannot double-credit. First-hit jobs may stop early with
    /// `tested < consumed`-equivalent coverage; the scan's exact count
    /// is recorded here.
    pub tested: u128,
    /// Hits found so far, lowest identifier first.
    pub hits: Vec<JobHit>,
}

impl JobRecord {
    /// A fresh record for a validated spec: everything pending.
    pub fn new(id: JobId, spec: JobSpec) -> Result<Self, JobError> {
        let space = spec.space()?;
        Ok(Self {
            id,
            spec,
            state: JobState::Pending,
            frontier: Checkpoint::new(space.interval()),
            tested: 0,
            hits: Vec::new(),
        })
    }

    /// Keys still owed to this job.
    pub fn remaining(&self) -> u128 {
        if self.state.is_terminal() {
            0
        } else {
            self.frontier.remaining()
        }
    }

    /// Render the schema-stamped JSON record (one line, no trailing
    /// newline — the store appends one).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":{JOB_SCHEMA_VERSION},\"id\":{},\"name\":{},\"state\":\"{}\",\
             \"algo\":\"{}\",\"digest\":\"{}\",\"charset\":{},\"min_len\":{},\"max_len\":{},\
             \"order\":\"{}\",\"priority\":{},\"first_hit\":{},",
            self.id.0,
            json_string(&self.spec.name),
            self.state.name(),
            algo_key(self.spec.algo),
            to_hex(&self.spec.digest),
            json_string(&String::from_utf8_lossy(&self.spec.charset)),
            self.spec.min_len,
            self.spec.max_len,
            match self.spec.order {
                Order::LastCharFastest => "last",
                Order::FirstCharFastest => "first",
            },
            self.spec.priority,
            self.spec.first_hit_only,
        );
        out.push_str("\"full\":");
        push_interval(&mut out, &self.frontier.full);
        out.push_str(",\"pending\":[");
        for (i, iv) in self.frontier.pending.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_interval(&mut out, iv);
        }
        let _ = write!(out, "],\"tested\":\"{}\",\"hits\":", self.tested);
        push_hits(&mut out, &self.hits);
        out.push('}');
        out
    }

    /// Parse a schema-stamped JSON record, rejecting unknown schema
    /// versions and structurally invalid progress rather than resuming a
    /// job that would rescan or skip keys.
    pub fn from_json(text: &str) -> Result<Self, JobError> {
        let doc = parse_json(text)
            .map_err(|e| JobError::Corrupt { path: String::new(), reason: e })?;
        let invalid = |reason: String| JobError::Corrupt { path: String::new(), reason };
        let schema = u64_field(&doc, "schema")?;
        if schema != JOB_SCHEMA_VERSION {
            return Err(JobError::Schema(schema));
        }
        let id = JobId(u64_field(&doc, "id")?);
        let state = JobState::parse(str_field(&doc, "state")?)
            .ok_or_else(|| invalid(format!("unknown state {:?}", str_field(&doc, "state"))))?;
        let algo = parse_algo_key(str_field(&doc, "algo")?)
            .ok_or_else(|| invalid(format!("unknown algo {:?}", str_field(&doc, "algo"))))?;
        let digest = from_hex(str_field(&doc, "digest")?)
            .ok_or_else(|| invalid("digest is not hex".into()))?;
        let order = match str_field(&doc, "order")? {
            "last" => Order::LastCharFastest,
            "first" => Order::FirstCharFastest,
            other => return Err(invalid(format!("unknown order {other:?}"))),
        };
        let first_hit_only = match doc.get("first_hit") {
            Some(Json::Bool(b)) => *b,
            _ => return Err(invalid("missing or non-boolean first_hit".into())),
        };
        let spec = JobSpec {
            name: str_field(&doc, "name")?.to_string(),
            algo,
            digest,
            charset: str_field(&doc, "charset")?.as_bytes().to_vec(),
            min_len: u64_field(&doc, "min_len")? as u32,
            max_len: u64_field(&doc, "max_len")? as u32,
            order,
            priority: u64_field(&doc, "priority")? as u32,
            first_hit_only,
        };
        let space = spec.space()?;

        let full = checkpoint::interval_field(&doc, "full")?;
        if full != space.interval() {
            return Err(invalid(format!(
                "recorded interval [{}, +{}) does not match the spec's keyspace of {} keys",
                full.start,
                full.len,
                space.size()
            )));
        }
        let mut pending = checkpoint::interval_array(&doc, "pending")?;
        pending.sort_by_key(|iv| iv.start);
        for w in pending.windows(2) {
            if let [a, b] = w {
                if a.end() > b.start {
                    return Err(invalid("pending intervals overlap".into()));
                }
            }
        }
        for iv in &pending {
            if iv.intersect(&full) != *iv {
                return Err(invalid("pending interval escapes the job's keyspace".into()));
            }
        }
        let tested = u128_field(&doc, "tested")?;
        let hits = match doc.get("hits") {
            Some(Json::Arr(items)) => {
                let mut hs = Vec::with_capacity(items.len());
                for item in items {
                    let key = from_hex(str_field(item, "key")?)
                        .ok_or_else(|| invalid("hit key is not hex".into()))?;
                    hs.push(JobHit { id: u128_field(item, "id")?, key });
                }
                hs
            }
            _ => return Err(invalid("missing hits array".into())),
        };
        Ok(Self { id, spec, state, frontier: Checkpoint { full, pending }, tested, hits })
    }

    /// The lease interval for one scheduling quantum of up to `n` keys,
    /// or `None` when nothing is pending.
    pub fn take_lease(&mut self, n: u128) -> Option<Interval> {
        self.frontier.take_work(n)
    }

    /// Credit one scanned lease: its interval leaves the pending set,
    /// `tested` is re-derived from the frontier, and hits are added
    /// unless a hit with the same identifier is already recorded.
    /// Idempotent, so a lease-log line replayed over a snapshot that
    /// already holds it changes nothing. The state is left alone:
    /// replaying a log never moves a job through its lifecycle.
    pub(crate) fn credit_lease(&mut self, lease: Interval, hits: &[JobHit]) {
        self.frontier.complete(lease);
        // A first-hit job that stopped at its hit holds the exact scanned
        // count, which a replayed line must not overwrite.
        if !(self.spec.first_hit_only && self.state == JobState::Completed) {
            self.tested = self.frontier.consumed();
        }
        for hit in hits {
            if !self.hits.iter().any(|h| h.id == hit.id) {
                self.hits.push(hit.clone());
            }
        }
    }
}

/// Append `[{"id":"<dec>","key":"<hex>"},...]`, the hit spelling shared
/// by the record and the lease log.
fn push_hits(out: &mut String, hits: &[JobHit]) {
    out.push('[');
    for (i, hit) in hits.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"id\":\"{}\",\"key\":\"{}\"}}", hit.id, to_hex(&hit.key));
    }
    out.push(']');
}

/// One lease-log line (without its `\n`):
/// `{"lease":{"start":"<dec>","len":"<dec>"},"hits":[...]}`, in the
/// record's spelling of intervals and hits.
pub(crate) fn lease_line(lease: &Interval, hits: &[JobHit]) -> String {
    let mut out = String::with_capacity(64);
    out.push_str("{\"lease\":");
    push_interval(&mut out, lease);
    out.push_str(",\"hits\":");
    push_hits(&mut out, hits);
    out.push('}');
    out
}

/// Parse one lease-log line, exactly as [`lease_line`] spells it. The
/// parser is a flat scan over the bytes: no recursion, and it allocates
/// only for hits it has read in full, so what it holds is bounded by
/// the line's length.
pub(crate) fn parse_lease_line(line: &[u8]) -> Result<(Interval, Vec<JobHit>), String> {
    let mut cur = LineCursor { line, pos: 0 };
    cur.expect("{\"lease\":{\"start\":\"")?;
    let start = cur.decimal()?;
    cur.expect("\",\"len\":\"")?;
    let len = cur.decimal()?;
    cur.expect("\"},\"hits\":[")?;
    start
        .checked_add(len)
        .ok_or_else(|| "lease start + len overflows u128".to_string())?;
    let mut hits = Vec::new();
    while !cur.eat("]}") {
        if !hits.is_empty() {
            cur.expect(",")?;
        }
        cur.expect("{\"id\":\"")?;
        let id = cur.decimal()?;
        cur.expect("\",\"key\":\"")?;
        let key = cur.hex()?;
        cur.expect("\"}")?;
        hits.push(JobHit { id, key });
    }
    if cur.pos != line.len() {
        return Err(format!("trailing bytes at byte {}", cur.pos));
    }
    Ok((Interval::new(start, len), hits))
}

/// A position in one lease-log line.
struct LineCursor<'a> {
    line: &'a [u8],
    pos: usize,
}

impl<'a> LineCursor<'a> {
    fn rest(&self) -> &'a [u8] {
        self.line.get(self.pos..).unwrap_or_default()
    }

    /// Consume `lit` when the rest starts with it.
    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.rest().starts_with(lit.as_bytes());
        if hit {
            self.pos += lit.len();
        }
        hit
    }

    fn expect(&mut self, lit: &str) -> Result<(), String> {
        if self.eat(lit) {
            Ok(())
        } else {
            Err(format!("expected {lit:?} at byte {}", self.pos))
        }
    }

    /// The bytes up to (not including) the next `"`.
    fn quoted(&mut self) -> Result<&'a str, String> {
        let rest = self.rest();
        let n = rest
            .iter()
            .position(|&b| b == b'"')
            .ok_or_else(|| format!("unterminated string at byte {}", self.pos))?;
        let text = std::str::from_utf8(rest.get(..n).unwrap_or_default())
            .map_err(|_| format!("non-UTF-8 bytes at byte {}", self.pos))?;
        self.pos += n;
        Ok(text)
    }

    fn decimal(&mut self) -> Result<u128, String> {
        let at = self.pos;
        let text = self.quoted()?;
        if text.is_empty() || !text.bytes().all(|b| b.is_ascii_digit()) {
            return Err(format!("not a decimal integer at byte {at}"));
        }
        text.parse().map_err(|_| format!("integer out of range at byte {at}"))
    }

    fn hex(&mut self) -> Result<Vec<u8>, String> {
        let at = self.pos;
        let text = self.quoted()?;
        from_hex(text).ok_or_else(|| format!("key is not hex at byte {at}"))
    }
}

/// The stable on-disk spelling of an algorithm: `md5`/`sha1`/`ntlm`,
/// plus `md5x{iters}` for the iterated KDF (so `md5x32` round-trips the
/// iteration bound).
pub fn algo_key(algo: HashAlgo) -> String {
    match algo {
        HashAlgo::Md5 => "md5".to_string(),
        HashAlgo::Sha1 => "sha1".to_string(),
        HashAlgo::Ntlm => "ntlm".to_string(),
        HashAlgo::Md5Iter { iters } => format!("md5x{iters}"),
    }
}

/// Inverse of [`algo_key`]; `None` on an unknown spelling (including a
/// zero or unparsable iteration count).
pub fn parse_algo_key(s: &str) -> Option<HashAlgo> {
    match s {
        "md5" => Some(HashAlgo::Md5),
        "sha1" => Some(HashAlgo::Sha1),
        "ntlm" => Some(HashAlgo::Ntlm),
        _ => {
            let iters = s.strip_prefix("md5x")?.parse::<u16>().ok()?;
            (iters > 0).then_some(HashAlgo::Md5Iter { iters })
        }
    }
}

#[cfg(test)]
#[allow(clippy::indexing_slicing)]
mod tests {
    use super::*;

    pub(crate) fn sample_spec() -> JobSpec {
        JobSpec {
            name: "audit \"alpha\"".into(),
            algo: HashAlgo::Md5,
            digest: HashAlgo::Md5.hash(b"dog"),
            charset: (b'a'..=b'z').collect(),
            min_len: 1,
            max_len: 3,
            order: Order::FirstCharFastest,
            priority: 2,
            first_hit_only: true,
        }
    }

    #[test]
    fn record_json_round_trips_exactly() {
        let mut rec = JobRecord::new(JobId(7), sample_spec()).unwrap();
        rec.state = JobState::Running;
        let lease = rec.take_lease(1000).unwrap();
        rec.frontier.complete(lease);
        rec.tested = rec.frontier.consumed();
        rec.hits.push(JobHit { id: 42, key: b"dog".to_vec() });
        let back = JobRecord::from_json(&rec.to_json()).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let rec = JobRecord::new(JobId(1), sample_spec()).unwrap();
        let bumped = rec.to_json().replacen("\"schema\":1", "\"schema\":42", 1);
        assert_eq!(JobRecord::from_json(&bumped), Err(JobError::Schema(42)));
    }

    #[test]
    fn mismatched_keyspace_is_rejected() {
        // Someone edited min/max after submission: the recorded interval
        // no longer matches the spec, so resuming would mis-map ids.
        let rec = JobRecord::new(JobId(1), sample_spec()).unwrap();
        let tampered = rec.to_json().replacen("\"max_len\":3", "\"max_len\":4", 1);
        assert!(matches!(JobRecord::from_json(&tampered), Err(JobError::Corrupt { .. })));
    }

    #[test]
    fn invalid_specs_are_refused_at_submission() {
        let mut spec = sample_spec();
        spec.digest = vec![0; 3];
        assert!(matches!(JobRecord::new(JobId(1), spec), Err(JobError::InvalidSpec(_))));
        let mut spec = sample_spec();
        spec.priority = 0;
        assert!(matches!(JobRecord::new(JobId(1), spec), Err(JobError::InvalidSpec(_))));
        let mut spec = sample_spec();
        spec.charset = vec![0xFF, 0x80];
        assert!(matches!(JobRecord::new(JobId(1), spec), Err(JobError::InvalidSpec(_))));
    }

    #[test]
    fn lifecycle_rules() {
        assert!(JobState::Pending.is_runnable());
        assert!(JobState::Running.is_runnable());
        assert!(!JobState::Paused.is_runnable());
        assert!(JobState::Completed.is_terminal());
        assert!(JobState::Running.can_transition(JobState::Paused));
        assert!(JobState::Paused.can_transition(JobState::Running));
        assert!(!JobState::Completed.can_transition(JobState::Running));
        assert!(!JobState::Cancelled.can_transition(JobState::Paused));
    }

    #[test]
    fn lease_lines_round_trip() {
        let lease = Interval::new(u128::MAX - 7, 7);
        for hits in [vec![], vec![JobHit { id: 3, key: b"dog".to_vec() }, JobHit { id: 9, key: vec![] }]] {
            let line = lease_line(&lease, &hits);
            assert!(!line.contains('\n'));
            assert_eq!(parse_lease_line(line.as_bytes()), Ok((lease, hits)));
        }
        assert_eq!(
            lease_line(&Interval::new(2, 5), &[JobHit { id: 4, key: b"ab".to_vec() }]),
            "{\"lease\":{\"start\":\"2\",\"len\":\"5\"},\"hits\":[{\"id\":\"4\",\"key\":\"6162\"}]}"
        );
    }

    #[test]
    fn lease_line_parser_rejects_near_misses() {
        let good = lease_line(&Interval::new(2, 5), &[JobHit { id: 4, key: b"ab".to_vec() }]);
        for bad in [
            String::new(),
            good.replace("\"len\"", "\"lem\""),
            good.replace("\"5\"", "\"-5\""),
            good.replace("\"5\"", "\"\""),
            good.replace("6162", "616"),
            good.replace("]}", "]"),
            format!("{good} "),
            good.replace("\"2\"", &format!("\"{}\"", u128::MAX)),
            good.replace("\"2\"", "\"340282366920938463463374607431768211456\""),
        ] {
            assert!(parse_lease_line(bad.as_bytes()).is_err(), "{bad}");
        }
        let mut cut = good.into_bytes();
        while cut.pop().is_some() {
            assert!(parse_lease_line(&cut).is_err());
        }
    }

    #[test]
    fn replay_keeps_a_first_hit_jobs_exact_count() {
        // Stopped 3 keys into its last lease: a replayed line of that
        // lease (a crash between the snapshot's rename and the log's
        // removal) must not re-derive the credit from the frontier.
        let mut rec = JobRecord::new(JobId(1), sample_spec()).unwrap();
        let lease = rec.take_lease(10).unwrap();
        rec.tested = 3;
        rec.state = JobState::Completed;
        rec.credit_lease(lease, &[]);
        assert_eq!(rec.tested, 3);
    }

    #[test]
    fn job_id_parses_both_spellings() {
        assert_eq!(JobId::parse("job-12"), Some(JobId(12)));
        assert_eq!(JobId::parse("12"), Some(JobId(12)));
        assert_eq!(JobId::parse("job-"), None);
        assert_eq!(JobId::parse("batch-1"), None);
    }
}
