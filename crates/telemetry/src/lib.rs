//! # eks-telemetry — std-only cluster telemetry
//!
//! The observability spine of the workspace: a sharded metrics registry
//! (monotonic counters, gauges, fixed log₂-bucket histograms) with
//! Prometheus-text and JSON exposition, structured trace spans/events
//! drained to JSONL, and an injectable [`Clock`] so every timestamp is
//! deterministic under test. Hand-rolled on `std::sync::atomic` +
//! `Instant` — the workspace has no registry dependencies.
//!
//! ## The handle pattern
//!
//! A [`Telemetry`] is a cheap clone-able handle that is either *enabled*
//! (an `Arc` around a registry + trace sink + clock) or *disabled*
//! (`None`). Every instrument handed out by a disabled handle is a
//! no-op whose update is a single null check, so instrumented code pays
//! effectively nothing when nobody is watching — the bench gate in
//! `ci.sh` holds the enabled batched-MD5 path to ≤ 5 % overhead too,
//! because all instrumentation is amortized at *chunk* granularity
//! (a scan, a batch flush, a round), never per-key.
//!
//! ## Artifacts
//!
//! - `--metrics-out file.prom` → [`Telemetry::render_prometheus`], the
//!   Prometheus text format 0.0.4, validated by
//!   [`parse::parse_prometheus`].
//! - `--trace-out file.jsonl` → [`Telemetry::trace_jsonl`], one JSON
//!   object per line in the schema documented on
//!   [`trace::TraceRecord`], validated by [`parse::parse_trace_jsonl`].
//! - `eks report` renders both back into a human-readable run report
//!   via [`report::render_report`].

pub mod anomaly;
pub mod clock;
pub mod flight;
pub mod http;
pub mod metrics;
pub mod parse;
pub mod report;
pub mod trace;
pub mod window;

pub use anomaly::{Anomaly, AnomalyConfig, AnomalyDetector, AnomalyKind, LivePlane};
pub use clock::{Clock, ManualClock, RealClock, Throttle};
pub use flight::{
    install_panic_hook, parse_flight, read_flight, render_flight, render_postmortem, FlightConfig,
    FlightDump,
};
pub use http::{http_get, JobsFn, MetricsServer};
pub use metrics::{json_string, Counter, Gauge, Histogram, MetricSample, Registry, SampleValue};
pub use parse::{parse_json, parse_prometheus, parse_trace_jsonl, Json, PromSample};
pub use trace::{TraceKind, TraceRecord, TraceSink};
pub use window::{Window, WindowBook};

use std::sync::{Arc, OnceLock};

/// Canonical metric and span names, shared by every instrumented layer
/// and by the report renderer so the two ends can never drift apart.
pub mod names {
    /// Counter `{worker}`: keys tested, flushed per chunk by the
    /// Dispatcher from its exact per-worker accounting.
    pub const KEYS_TESTED: &str = "eks_keys_tested_total";
    /// Counter: candidate hits found.
    pub const HITS: &str = "eks_hits_total";
    /// Counter `{worker}`: chunks scanned.
    pub const CHUNKS: &str = "eks_chunks_total";
    /// Histogram `{worker}`: wall ns per chunk scan (the paper's
    /// `K_search` term, measured).
    pub const SCAN_NS: &str = "eks_scan_ns";
    /// Histogram: ns from the stop flag being raised to a worker
    /// observing it (the paper's stop-condition `K_D` delay).
    pub const CANCEL_LATENCY_NS: &str = "eks_cancel_latency_ns";
    /// Counter `{worker}`: successful steals.
    pub const STEALS: &str = "eks_steals_total";
    /// Counter `{worker}`: guided-chunk splits.
    pub const SPLITS: &str = "eks_splits_total";
    /// Counter `{worker}`: ns spent busy scanning.
    pub const BUSY_NS: &str = "eks_busy_ns_total";
    /// Counter `{worker}`: ns spent idle (queue empty / steal misses).
    pub const IDLE_NS: &str = "eks_idle_ns_total";
    /// Histogram: ns filling a candidate `BlockBatch` (sampled).
    pub const BATCH_FILL_NS: &str = "eks_batch_fill_ns";
    /// Histogram: ns lane-hashing one filled batch (sampled).
    pub const BATCH_HASH_NS: &str = "eks_batch_hash_ns";
    /// Counter: `TargetSet` first-word prefilter accepts.
    pub const PREFILTER_HITS: &str = "eks_prefilter_hits_total";
    /// Counter: `TargetSet` first-word prefilter rejects.
    pub const PREFILTER_MISSES: &str = "eks_prefilter_misses_total";
    /// Gauge `{device}`: tuned throughput in MKeys/s from the §VI
    /// tuning step.
    pub const DEVICE_RATE_MKEYS: &str = "eks_device_tuned_rate_mkeys";
    /// Gauge `{backend, isa}`: 1 when the run selected that instruction
    /// set for that backend (the paper's §V per-architecture kernel
    /// specialization, resolved here by runtime CPU-feature detection).
    pub const BACKEND_ISA: &str = "eks_backend_isa";
    /// Gauge `{backend}`: a CPU backend's tuned single-thread
    /// throughput in MKeys/s on this host.
    pub const BACKEND_RATE_MKEYS: &str = "eks_backend_tuned_rate_mkeys";
    /// Gauge: whole-network parallel efficiency percent (the paper
    /// reports 85–90 %).
    pub const CLUSTER_EFFICIENCY_PCT: &str = "eks_cluster_efficiency_percent";
    /// Counter: cluster rounds completed.
    pub const ROUNDS: &str = "eks_rounds_total";
    /// Counter: dynamic-membership rebalances performed.
    pub const REBALANCES: &str = "eks_rebalances_total";
    /// Counter `{job}`: keys credited to one job by the job service —
    /// the per-tenant carve-out of [`KEYS_TESTED`]. Summed over jobs it
    /// reconciles exactly with the sum over workers, because both sides
    /// are flushed from the same `DispatchReport` accounting.
    pub const JOB_KEYS_TESTED: &str = "eks_job_keys_tested_total";
    /// Counter `{job}`: hits credited to one job.
    pub const JOB_HITS: &str = "eks_job_hits_total";
    /// Counter `{job}`: keyspace leases dispatched for one job.
    pub const JOB_LEASES: &str = "eks_job_leases_total";
    /// Gauge `{job}`: keys still pending for one job (drives the
    /// per-job ETA in `eks report`).
    pub const JOB_REMAINING_KEYS: &str = "eks_job_remaining_keys";
    /// Gauge `{worker}`: live EWMA throughput estimate in MKeys/s from
    /// the closed-loop retune controller (falls back to the tuned rate
    /// while the estimator warms up).
    pub const WORKER_RATE_EST: &str = "eks_worker_rate_est_mkeys";
    /// Gauge `{worker}`: the tuned-rate baseline the live estimate is
    /// compared against (the rate-drift column in `eks report` is
    /// `(est - tuned) / tuned`).
    pub const WORKER_RATE_TUNED: &str = "eks_worker_rate_tuned_mkeys";
    /// Counter: live re-scatters performed by the retune controller.
    pub const RESCATTERS: &str = "eks_rescatter_total";

    /// Span: one chunk scan on one worker (`K_search`).
    pub const SPAN_SCAN: &str = "scan";
    /// Span: keyspace partitioning across devices (scatter).
    pub const SPAN_SCATTER: &str = "scatter";
    /// Span: collecting and merging worker reports (gather/merge).
    pub const SPAN_MERGE: &str = "merge";
    /// Span: one cluster round end to end.
    pub const SPAN_ROUND: &str = "round";
    /// Span: a whole parallel crack / cluster search.
    pub const SPAN_RUN: &str = "run";
    /// Event: a worker stole an interval.
    pub const EVENT_STEAL: &str = "steal";
    /// Event: a device joined mid-search.
    pub const EVENT_JOIN: &str = "join";
    /// Event: a device left mid-search.
    pub const EVENT_LEAVE: &str = "leave";
    /// Event: the job service dispatched one keyspace lease.
    pub const EVENT_LEASE: &str = "lease";
    /// Event: a leveled log line routed through the sink.
    pub const EVENT_LOG: &str = "log";
    /// Counter `{kind}`: live anomaly verdicts (`straggler`, `stall`,
    /// `rate-collapse`) from the sliding-window detector.
    pub const ANOMALIES: &str = "eks_anomaly_total";
    /// Gauge `{worker}`: 1 while the anomaly detector flags the worker
    /// (the rescatter plan deprioritizes it), 0 once it recovers.
    pub const WORKER_FLAGGED: &str = "eks_worker_flagged";
    /// Event: the anomaly detector classified a window.
    pub const EVENT_ANOMALY: &str = "anomaly";
}

struct TelemetryInner {
    registry: Registry,
    trace: TraceSink,
    clock: Arc<dyn Clock>,
    /// The optional live observability plane (window ring + anomaly
    /// detector), attached once after construction. The plane never
    /// holds a `Telemetry` back — it always receives the handle as an
    /// argument — so this is not a reference cycle.
    plane: OnceLock<Arc<LivePlane>>,
}

impl std::fmt::Debug for TelemetryInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryInner").field("trace", &self.trace).finish_non_exhaustive()
    }
}

/// The telemetry handle threaded through engine, cracker, cluster and
/// CLI. Clone freely — clones share the same registry and trace sink.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<TelemetryInner>>,
}

impl Telemetry {
    /// The no-op handle: every instrument drops its updates.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled handle on the real clock with default trace capacity.
    pub fn enabled() -> Self {
        Self::with_clock(Arc::new(RealClock::new()))
    }

    /// An enabled handle on an injected clock (tests pass a shared
    /// [`ManualClock`] and advance it by hand).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Self {
            inner: Some(Arc::new(TelemetryInner {
                registry: Registry::new(),
                trace: TraceSink::default(),
                clock,
                plane: OnceLock::new(),
            })),
        }
    }

    /// `true` when updates are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Nanoseconds on the run's clock (0 when disabled).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.clock.now_ns())
    }

    /// Register (or look up) a counter; no-op handle when disabled.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.inner.as_ref().map_or_else(Counter::noop, |i| i.registry.counter(name, labels))
    }

    /// Register (or look up) a gauge; no-op handle when disabled.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.inner.as_ref().map_or_else(Gauge::noop, |i| i.registry.gauge(name, labels))
    }

    /// Register (or look up) a histogram; no-op handle when disabled.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        self.inner.as_ref().map_or_else(Histogram::noop, |i| i.registry.histogram(name, labels))
    }

    /// Start a span: the guard records `[start, drop)` into the trace
    /// buffer when dropped (or at an explicit [`SpanGuard::finish`]).
    pub fn span(&self, name: &str) -> SpanGuard {
        SpanGuard::new(self, name, TraceKind::Span)
    }

    /// Build an instantaneous event, recorded when the builder drops.
    pub fn event(&self, name: &str) -> SpanGuard {
        SpanGuard::new(self, name, TraceKind::Event)
    }

    /// Push a fully-formed record (used by replay/test helpers).
    pub fn push_record(&self, record: TraceRecord) {
        if let Some(inner) = &self.inner {
            inner.trace.push(record);
        }
    }

    /// A typed snapshot of every registered metric sample (empty when
    /// disabled). The sliding-window layer diffs consecutive snapshots.
    pub fn metrics_snapshot(&self) -> Vec<MetricSample> {
        self.inner.as_ref().map_or_else(Vec::new, |i| i.registry.samples())
    }

    /// Attach the live observability plane. At most one plane per
    /// handle; later calls are ignored (first attach wins), and a
    /// disabled handle ignores the plane entirely. Instrumented layers
    /// then drive it through [`Telemetry::observe_plane`].
    pub fn attach_plane(&self, plane: Arc<LivePlane>) {
        if let Some(inner) = &self.inner {
            let _ = inner.plane.set(plane);
        }
    }

    /// The attached plane, if any.
    pub fn plane(&self) -> Option<Arc<LivePlane>> {
        self.inner.as_ref().and_then(|i| i.plane.get().cloned())
    }

    /// Poke the attached plane: flush a window and classify it if one
    /// width of the clock has elapsed. The common nothing-due path is
    /// one atomic load, so dispatch hot paths call this per chunk.
    pub fn observe_plane(&self) {
        if let Some(inner) = &self.inner {
            if let Some(plane) = inner.plane.get() {
                let _anomalies = plane.observe(self);
            }
        }
    }

    /// Render the Prometheus text exposition (empty when disabled).
    pub fn render_prometheus(&self) -> String {
        self.inner.as_ref().map_or_else(String::new, |i| i.registry.render_prometheus())
    }

    /// Render the JSON metrics snapshot (`[]` when disabled).
    pub fn snapshot_json(&self) -> String {
        self.inner.as_ref().map_or_else(|| "[]\n".to_string(), |i| i.registry.snapshot_json())
    }

    /// Render the trace buffer as JSONL (empty when disabled).
    pub fn trace_jsonl(&self) -> String {
        self.inner.as_ref().map_or_else(String::new, |i| i.trace.to_jsonl())
    }

    /// Copy out the trace buffer in timestamp order.
    pub fn trace_snapshot(&self) -> Vec<TraceRecord> {
        self.inner.as_ref().map_or_else(Vec::new, |i| i.trace.snapshot())
    }
}

/// A span/event in flight. Dropping the guard records it; build it up
/// with the chained setters first:
///
/// ```
/// # let telemetry = eks_telemetry::Telemetry::enabled();
/// {
///     let _span = telemetry.span("scan").worker(0).device("cpu").field("chunk", 4096u64);
///     // ... timed work ...
/// } // recorded here
/// ```
#[must_use = "a span measures until it is dropped; binding it to _ drops immediately"]
pub struct SpanGuard {
    inner: Option<Arc<TelemetryInner>>,
    kind: TraceKind,
    name: String,
    start_ns: u64,
    worker: Option<usize>,
    device: Option<String>,
    fields: Vec<(String, String)>,
}

impl SpanGuard {
    fn new(telemetry: &Telemetry, name: &str, kind: TraceKind) -> Self {
        let inner = telemetry.inner.clone();
        let start_ns = inner.as_ref().map_or(0, |i| i.clock.now_ns());
        // A disabled guard never records, so skip even the name copy.
        let name = if inner.is_some() { name.to_string() } else { String::new() };
        Self {
            inner,
            kind,
            name,
            start_ns,
            worker: None,
            device: None,
            fields: Vec::new(),
        }
    }

    /// Attach the dispatcher worker id.
    pub fn worker(mut self, worker: usize) -> Self {
        self.worker = Some(worker);
        self
    }

    /// Attach a device/backend label.
    pub fn device(mut self, device: &str) -> Self {
        if self.inner.is_some() {
            self.device = Some(device.to_string());
        }
        self
    }

    /// Attach a free-form field (skipped entirely when disabled, so a
    /// formatted value costs nothing on the no-op path).
    pub fn field(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        if self.inner.is_some() {
            self.fields.push((key.to_string(), value.to_string()));
        }
        self
    }

    /// Record now instead of at scope end.
    pub fn finish(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else { return };
        let dur_ns = match self.kind {
            TraceKind::Span => inner.clock.now_ns().saturating_sub(self.start_ns),
            TraceKind::Event => 0,
        };
        inner.trace.push(TraceRecord {
            ts_ns: self.start_ns,
            dur_ns,
            kind: self.kind,
            name: std::mem::take(&mut self.name),
            worker: self.worker,
            device: self.device.take(),
            fields: std::mem::take(&mut self.fields),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_drops_everything() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.counter(names::KEYS_TESTED, &[]).add(100);
        t.span(names::SPAN_SCAN).worker(0).field("x", 1).finish();
        t.event(names::EVENT_STEAL).finish();
        assert_eq!(t.render_prometheus(), "");
        assert_eq!(t.trace_jsonl(), "");
        assert_eq!(t.now_ns(), 0);
    }

    #[test]
    fn clones_share_state() {
        let t = Telemetry::with_clock(Arc::new(ManualClock::new()));
        let a = t.clone();
        a.counter(names::HITS, &[]).inc();
        assert_eq!(t.counter(names::HITS, &[]).get(), 1);
    }

    #[test]
    fn spans_measure_on_the_injected_clock() {
        let clock = Arc::new(ManualClock::new());
        let t = Telemetry::with_clock(clock.clone());
        clock.advance(100);
        {
            let _span = t.span(names::SPAN_SCAN).worker(2).device("cpu").field("chunk", 4096u64);
            clock.advance(250);
        }
        let trace = t.trace_snapshot();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].ts_ns, 100);
        assert_eq!(trace[0].dur_ns, 250);
        assert_eq!(trace[0].kind, TraceKind::Span);
        assert_eq!(trace[0].worker, Some(2));
        assert_eq!(trace[0].device.as_deref(), Some("cpu"));
        assert_eq!(trace[0].fields, vec![("chunk".to_string(), "4096".to_string())]);
    }

    #[test]
    fn events_are_instantaneous() {
        let clock = Arc::new(ManualClock::at(40));
        let t = Telemetry::with_clock(clock.clone());
        let ev = t.event(names::EVENT_STEAL).worker(1).field("from", 0);
        clock.advance(999);
        ev.finish();
        let trace = t.trace_snapshot();
        assert_eq!(trace[0].ts_ns, 40);
        assert_eq!(trace[0].dur_ns, 0);
    }

    #[test]
    fn attached_plane_flushes_through_observe() {
        let clock = Arc::new(ManualClock::new());
        let t = Telemetry::with_clock(clock.clone());
        t.attach_plane(Arc::new(LivePlane::new(100, 4, AnomalyConfig::default())));
        t.counter(names::KEYS_TESTED, &[("worker", "w0")]).add(5);
        t.observe_plane();
        assert_eq!(t.plane().unwrap().windows().flushed(), 0, "no width elapsed");
        clock.advance(100);
        t.observe_plane();
        let plane = t.plane().unwrap();
        assert_eq!(plane.windows().flushed(), 1);
        assert_eq!(plane.windows().windows()[0].counter_total(names::KEYS_TESTED), 5);
        // First attach wins; a disabled handle ignores planes.
        t.attach_plane(Arc::new(LivePlane::with_defaults()));
        assert_eq!(t.plane().unwrap().windows().flushed(), 1);
        let off = Telemetry::disabled();
        off.attach_plane(Arc::new(LivePlane::with_defaults()));
        assert!(off.plane().is_none());
        off.observe_plane();
    }

    #[test]
    fn exposition_roundtrips_through_own_parsers() {
        let t = Telemetry::with_clock(Arc::new(ManualClock::new()));
        t.counter(names::KEYS_TESTED, &[("worker", "w0")]).add(12);
        t.histogram(names::SCAN_NS, &[("worker", "w0")]).observe(512);
        t.span(names::SPAN_RUN).finish();
        assert!(parse_prometheus(&t.render_prometheus()).is_ok());
        assert_eq!(parse_trace_jsonl(&t.trace_jsonl()).unwrap().len(), 1);
    }
}
