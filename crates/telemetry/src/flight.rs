//! The flight recorder: a black-box dump of the run's recent past,
//! written when the process panics (or on demand), replayed by
//! `eks postmortem`.
//!
//! The trace ring ([`crate::TraceSink`]) already *is* a bounded
//! black box — it keeps the most recent spans and events and evicts
//! the oldest. What a crash loses is everything in memory: this module
//! arranges for a panic to first serialize the recorder's view —
//! schema stamp, panic message and location, the last
//! [`FlightConfig::window_ns`] of trace records, the full Prometheus
//! exposition (so the dump reconciles with any mid-run scrape), and
//! the anomaly verdicts the [`LivePlane`] reached — into a
//! `flight.json` before the process dies. [`parse_flight`] validates
//! the stamp (future schemas are rejected, not misread) and
//! [`render_postmortem`] reconstructs the final seconds into a
//! human-readable timeline.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use crate::anomaly::{Anomaly, AnomalyKind, LivePlane};
use crate::metrics::json_string;
use crate::parse::{parse_json, parse_prometheus, trace_record_from_json, Json, PromSample};
use crate::trace::TraceRecord;
use crate::{names, Telemetry};

/// Version stamp written into every `flight.json`. Bump when the dump
/// shape changes; [`parse_flight`] rejects dumps from the future.
pub const SCHEMA_VERSION: u64 = 1;

/// How the panic hook builds its dump.
#[derive(Debug, Clone)]
pub struct FlightConfig {
    /// Where `flight.json` is written.
    pub path: PathBuf,
    /// How far back the trace timeline reaches (clock ns).
    pub window_ns: u64,
}

impl FlightConfig {
    /// A config dumping to `path` with the default 10 s lookback.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self { path: path.into(), window_ns: 10_000_000_000 }
    }
}

struct HookState {
    telemetry: Telemetry,
    plane: Option<Arc<LivePlane>>,
    config: FlightConfig,
}

/// Process-wide hook state: panic hooks are global, so at most one
/// flight recorder arms per process (re-arming replaces the target).
static HOOK: OnceLock<Mutex<Option<HookState>>> = OnceLock::new();

fn hook_cell() -> &'static Mutex<Option<HookState>> {
    HOOK.get_or_init(|| Mutex::new(None))
}

/// Arm the flight recorder: on panic (any thread — the hook runs on
/// the panicking thread before unwinding reaches a scope join), the
/// current telemetry state is dumped to [`FlightConfig::path`]. The
/// *first* panic wins: a worker-thread panic cascades into a "scoped
/// thread panicked" re-panic at the join, and the dump must keep the
/// root cause, not the echo — so the hook disarms itself after
/// writing. The previous panic hook still runs afterwards, so the
/// usual backtrace is not swallowed. Calling this again re-points (and
/// re-arms) the recorder.
pub fn install_panic_hook(
    telemetry: Telemetry,
    plane: Option<Arc<LivePlane>>,
    config: FlightConfig,
) {
    let cell = hook_cell();
    let first_arm = {
        let mut state = cell.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let first = state.is_none();
        *state = Some(HookState { telemetry, plane, config });
        first
    };
    if !first_arm {
        return;
    }
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let mut state = hook_cell().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        // `take`, not `as_ref`: one dump per arming, from the panic
        // that started the cascade.
        if let Some(state) = state.take() {
            let reason = panic_message(info);
            let location = info
                .location()
                .map_or_else(|| "unknown".to_string(), |l| format!("{}:{}", l.file(), l.line()));
            let dump = render_flight(
                &state.telemetry,
                state.plane.as_deref(),
                state.config.window_ns,
                &reason,
                &location,
            );
            if let Err(e) = std::fs::write(&state.config.path, dump) {
                eprintln!("flight recorder: cannot write {:?}: {e}", state.config.path);
            } else {
                eprintln!("flight recorder: dumped {:?}", state.config.path);
            }
        }
        drop(state);
        prev(info);
    }));
}

fn panic_message(info: &std::panic::PanicHookInfo<'_>) -> String {
    if let Some(s) = info.payload().downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = info.payload().downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Serialize the black box: everything `eks postmortem` needs, as one
/// JSON document. Public so callers can dump without panicking (the
/// observability smoke example snapshots mid-run this way).
pub fn render_flight(
    telemetry: &Telemetry,
    plane: Option<&LivePlane>,
    window_ns: u64,
    reason: &str,
    location: &str,
) -> String {
    use std::fmt::Write as _;
    let now = telemetry.now_ns();
    let cutoff = now.saturating_sub(window_ns);
    let trace: Vec<String> = telemetry
        .trace_snapshot()
        .iter()
        .filter(|r| r.ts_ns >= cutoff)
        .map(TraceRecord::to_json)
        .collect();
    let anomalies: Vec<String> = plane
        .map(LivePlane::recent_anomalies)
        .unwrap_or_default()
        .iter()
        .map(|a| {
            format!(
                "{{\"kind\": {}, \"worker\": {}, \"window\": {}, \"detail\": {}}}",
                json_string(a.kind.as_str()),
                json_string(&a.worker),
                a.window,
                json_string(&a.detail)
            )
        })
        .collect();
    let mut out = String::new();
    writeln!(out, "{{").expect("write");
    writeln!(out, "  \"schema\": {SCHEMA_VERSION},").expect("write");
    writeln!(out, "  \"reason\": {},", json_string(reason)).expect("write");
    writeln!(out, "  \"location\": {},", json_string(location)).expect("write");
    writeln!(out, "  \"ts_ns\": {now},").expect("write");
    writeln!(out, "  \"window_ns\": {window_ns},").expect("write");
    writeln!(out, "  \"metrics_prom\": {},", json_string(&telemetry.render_prometheus()))
        .expect("write");
    writeln!(out, "  \"trace\": [{}],", trace.join(",\n    ")).expect("write");
    writeln!(out, "  \"anomalies\": [{}]", anomalies.join(",\n    ")).expect("write");
    writeln!(out, "}}").expect("write");
    out
}

/// A parsed, schema-checked `flight.json`.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// The dump's schema stamp (≤ [`SCHEMA_VERSION`]).
    pub schema: u64,
    /// Panic message, or the caller-supplied dump reason.
    pub reason: String,
    /// `file:line` of the panic site (or a caller label).
    pub location: String,
    /// Clock ns at dump time.
    pub ts_ns: u64,
    /// The lookback the trace was filtered to.
    pub window_ns: u64,
    /// Parsed metric samples from the embedded exposition.
    pub metrics: Vec<PromSample>,
    /// The recent trace records, timestamp order.
    pub trace: Vec<TraceRecord>,
    /// The anomaly verdicts the live plane reached before the crash.
    pub anomalies: Vec<Anomaly>,
}

/// Parse and validate a `flight.json`. Rejects dumps stamped with a
/// schema newer than this binary understands.
pub fn parse_flight(text: &str) -> Result<FlightDump, String> {
    let json = parse_json(text)?;
    let schema =
        json.get("schema").and_then(Json::as_u64).ok_or("missing or non-integer \"schema\"")?;
    if schema > SCHEMA_VERSION {
        return Err(format!(
            "flight.json schema {schema} is newer than this binary's {SCHEMA_VERSION}; \
             upgrade eks to replay it"
        ));
    }
    let field_str = |key: &str| -> Result<String, String> {
        json.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing or non-string {key:?}"))
    };
    let field_u64 = |key: &str| -> Result<u64, String> {
        json.get(key).and_then(Json::as_u64).ok_or_else(|| format!("missing or non-integer {key:?}"))
    };
    let metrics_text = field_str("metrics_prom")?;
    let metrics = parse_prometheus(&metrics_text)
        .map_err(|e| format!("embedded exposition does not parse: {e}"))?;
    let mut trace = Vec::new();
    for (i, record) in
        json.get("trace").and_then(Json::as_arr).ok_or("missing \"trace\" array")?.iter().enumerate()
    {
        trace.push(
            trace_record_from_json(record).map_err(|e| format!("trace record {i}: {e}"))?,
        );
    }
    let mut anomalies = Vec::new();
    for (i, a) in json
        .get("anomalies")
        .and_then(Json::as_arr)
        .ok_or("missing \"anomalies\" array")?
        .iter()
        .enumerate()
    {
        let kind_str = a
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("anomaly {i}: missing \"kind\""))?;
        anomalies.push(Anomaly {
            kind: AnomalyKind::parse(kind_str)
                .ok_or_else(|| format!("anomaly {i}: unknown kind {kind_str:?}"))?,
            worker: a
                .get("worker")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("anomaly {i}: missing \"worker\""))?
                .to_string(),
            window: a
                .get("window")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("anomaly {i}: missing \"window\""))?,
            detail: a.get("detail").and_then(Json::as_str).unwrap_or("").to_string(),
        });
    }
    Ok(FlightDump {
        schema,
        reason: field_str("reason")?,
        location: field_str("location")?,
        ts_ns: field_u64("ts_ns")?,
        window_ns: field_u64("window_ns")?,
        metrics,
        trace,
        anomalies,
    })
}

/// Read and parse a `flight.json` from disk with a path-carrying error.
pub fn read_flight(path: &Path) -> Result<FlightDump, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read flight dump {path:?}: {e}"))?;
    parse_flight(&text).map_err(|e| format!("invalid flight dump {path:?}: {e}"))
}

/// Reconstruct the dump into the postmortem text `eks postmortem`
/// prints: crash header, per-worker totals from the embedded
/// exposition, the anomaly verdicts, and the final-seconds timeline.
pub fn render_postmortem(dump: &FlightDump) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(out, "flight postmortem (schema {})", dump.schema).expect("write");
    writeln!(out, "================================").expect("write");
    writeln!(out, "reason:   {}", dump.reason).expect("write");
    writeln!(out, "location: {}", dump.location).expect("write");
    writeln!(
        out,
        "crashed at t={:.3} ms; timeline covers the last {:.3} ms",
        dump.ts_ns as f64 / 1e6,
        dump.window_ns.min(dump.ts_ns) as f64 / 1e6
    )
    .expect("write");

    let mut workers: Vec<(&str, f64)> = dump
        .metrics
        .iter()
        .filter(|s| s.name == names::KEYS_TESTED)
        .filter_map(|s| s.label("worker").map(|w| (w, s.value)))
        .collect();
    workers.sort_by(|a, b| a.0.cmp(b.0));
    if !workers.is_empty() {
        writeln!(out, "\nper-worker keys tested at crash").expect("write");
        for (worker, tested) in workers {
            writeln!(out, "  {worker:<32} {tested:>14.0}").expect("write");
        }
    }

    if dump.anomalies.is_empty() {
        writeln!(out, "\nanomaly verdicts: none recorded").expect("write");
    } else {
        writeln!(out, "\nanomaly verdicts").expect("write");
        for a in &dump.anomalies {
            writeln!(
                out,
                "  window {:>3}  {:<13} {:<24} {}",
                a.window,
                a.kind.as_str(),
                a.worker,
                a.detail
            )
            .expect("write");
        }
    }

    writeln!(out, "\ntimeline ({} records)", dump.trace.len()).expect("write");
    for r in &dump.trace {
        let worker = r.worker.map_or_else(|| "-".to_string(), |w| format!("w{w}"));
        let device = r.device.as_deref().unwrap_or("");
        let fields = r
            .fields
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ");
        writeln!(
            out,
            "  t={:>12.3} ms  +{:>10.3} ms  {:<8} {:<5} {:<12} {}",
            r.ts_ns as f64 / 1e6,
            r.dur_ns as f64 / 1e6,
            r.name,
            worker,
            device,
            fields
        )
        .expect("write");
    }
    out
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::anomaly::AnomalyConfig;
    use crate::ManualClock;

    fn dump_fixture() -> (Telemetry, Arc<LivePlane>, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let t = Telemetry::with_clock(clock.clone());
        let plane = Arc::new(LivePlane::new(100, 8, AnomalyConfig::default()));
        t.counter(names::KEYS_TESTED, &[("worker", "slow#1")]).add(250);
        t.gauge(names::WORKER_RATE_EST, &[("worker", "slow#1")]).set(1.0);
        t.gauge(names::WORKER_RATE_TUNED, &[("worker", "slow#1")]).set(4.0);
        clock.advance(100);
        plane.observe_now(&t);
        t.span(names::SPAN_SCAN).worker(1).device("cpu").field("tested", 250u64).finish();
        (t, plane, clock)
    }

    #[test]
    fn golden_flight_schema_round_trips() {
        let (t, plane, _clock) = dump_fixture();
        let text = render_flight(&t, Some(&plane), 10_000, "boom", "dispatch.rs:1");
        // The golden shape: schema stamp first, every top-level key
        // present exactly once.
        assert!(text.starts_with("{\n  \"schema\": 1,\n"), "{text}");
        // Trace records carry their own ts_ns/worker keys, so only the
        // keys unique to the top level are pinned to one occurrence.
        for key in ["\"reason\"", "\"location\"", "\"window_ns\"", "\"metrics_prom\"", "\"trace\"", "\"anomalies\""]
        {
            assert_eq!(text.matches(key).count(), 1, "{key} once in {text}");
        }
        let dump = parse_flight(&text).expect("round trip");
        assert_eq!(dump.schema, SCHEMA_VERSION);
        assert_eq!(dump.reason, "boom");
        assert_eq!(dump.location, "dispatch.rs:1");
        assert_eq!(dump.anomalies.len(), 1);
        let anomaly = dump.anomalies.first().expect("one anomaly");
        assert_eq!(anomaly.kind, AnomalyKind::Straggler);
        assert_eq!(anomaly.worker, "slow#1");
        assert!(dump.trace.iter().any(|r| r.name == names::SPAN_SCAN));
        assert!(dump
            .metrics
            .iter()
            .any(|s| s.name == names::KEYS_TESTED && s.value == 250.0));
    }

    #[test]
    fn future_schema_is_rejected() {
        let (t, plane, _clock) = dump_fixture();
        let text = render_flight(&t, Some(&plane), 10_000, "boom", "x:1");
        let future = text.replace("\"schema\": 1,", "\"schema\": 99,");
        let err = parse_flight(&future).expect_err("future schema must not parse");
        assert!(err.contains("schema 99"), "{err}");
        assert!(err.contains("newer"), "{err}");
    }

    #[test]
    fn window_filter_drops_old_trace_records() {
        let clock = Arc::new(ManualClock::new());
        let t = Telemetry::with_clock(clock.clone());
        t.event("old").finish();
        clock.advance(1_000_000);
        t.event("recent").finish();
        clock.advance(10);
        let dump = parse_flight(&render_flight(&t, None, 500, "r", "l")).unwrap();
        assert_eq!(dump.trace.len(), 1);
        assert_eq!(dump.trace.first().map(|r| r.name.as_str()), Some("recent"));
    }

    #[test]
    fn postmortem_names_the_flagged_worker() {
        let (t, plane, _clock) = dump_fixture();
        let dump = parse_flight(&render_flight(&t, Some(&plane), 10_000, "boom", "x:1")).unwrap();
        let text = render_postmortem(&dump);
        assert!(text.contains("slow#1"), "{text}");
        assert!(text.contains("straggler"), "{text}");
        assert!(text.contains("reason:   boom"), "{text}");
        assert!(text.contains("timeline"), "{text}");
    }

    #[test]
    fn corrupt_dumps_error_cleanly() {
        assert!(parse_flight("{").is_err());
        assert!(parse_flight("{\"schema\": 1}").is_err(), "missing fields");
    }
}
