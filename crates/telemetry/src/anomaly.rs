//! Live anomaly detection over sliding windows: stragglers, stalls,
//! and rate collapses, classified while the search is still running.
//!
//! The paper's §III efficiency model (85–90 % measured) assumes every
//! worker delivers its tuned rate; the operational reports in
//! PAPERS.md (HashKitty's agent dashboard, BitCracker's multi-GPU
//! degradation) show that long runs live or die on spotting the worker
//! that doesn't. The [`AnomalyDetector`] reads each flushed
//! [`Window`] and classifies:
//!
//! - **straggler** — a worker's live EWMA rate
//!   (`eks_worker_rate_est_mkeys`) has dropped more than
//!   [`AnomalyConfig::straggler_drift_pct`] below its tuned baseline.
//!   This is the §III scatter premise (`N_j = N_max · X_j / X_max`)
//!   failing live: the tuned `X_j` no longer describes the device.
//! - **stall** — a worker that tested keys in an earlier window tested
//!   zero in this one while the rest of the fleet progressed.
//! - **rate-collapse** — the whole fleet's window throughput fell below
//!   [`AnomalyConfig::collapse_pct`] of the previous window's, or the
//!   per-chunk scan-latency p99 shifted up by more than
//!   [`AnomalyConfig::p99_shift_factor`]×.
//!
//! Verdicts surface three ways: the `eks_anomaly_total{kind}` counter,
//! an `anomaly` trace event, and a flagged-worker set the engine's
//! rescatter plan consults to deprioritize the worker until it
//! recovers (a flag clears as soon as a window no longer exhibits the
//! condition). The [`LivePlane`] bundles the window ring and the
//! detector behind one handle that instrumented layers poke through
//! [`Telemetry::observe_plane`](crate::Telemetry::observe_plane).

use std::collections::HashSet;
use std::sync::Mutex;

use crate::metrics::SampleValue;
use crate::window::{Window, WindowBook};
use crate::{names, Telemetry};

/// What kind of live anomaly a window exhibited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnomalyKind {
    /// A worker's live rate fell far below its tuned baseline.
    Straggler,
    /// A previously-active worker made no progress this window.
    Stall,
    /// The whole fleet's throughput (or scan latency p99) degraded.
    RateCollapse,
}

impl AnomalyKind {
    /// The stable label value used in `eks_anomaly_total{kind=...}`.
    pub fn as_str(self) -> &'static str {
        match self {
            AnomalyKind::Straggler => "straggler",
            AnomalyKind::Stall => "stall",
            AnomalyKind::RateCollapse => "rate-collapse",
        }
    }

    /// Parse the label value back (exactly [`AnomalyKind::as_str`]).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "straggler" => Some(AnomalyKind::Straggler),
            "stall" => Some(AnomalyKind::Stall),
            "rate-collapse" => Some(AnomalyKind::RateCollapse),
            _ => None,
        }
    }
}

impl std::fmt::Display for AnomalyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One verdict: which worker (or the whole fleet), in which window.
#[derive(Debug, Clone, PartialEq)]
pub struct Anomaly {
    /// The classification.
    pub kind: AnomalyKind,
    /// Worker label, or `"fleet"` for whole-run conditions.
    pub worker: String,
    /// The window index the condition was observed in.
    pub window: u64,
    /// Human-readable evidence (rates, deltas).
    pub detail: String,
}

/// Detector thresholds. The defaults map onto the paper's efficiency
/// band: a worker more than 40 % under its tuned rate costs the fleet
/// more imbalance than the 10–15 % slack the §III model leaves between
/// the measured 85–90 % and ideal scaling, so that is where the
/// straggler line sits (see DESIGN §4k).
#[derive(Debug, Clone, Copy)]
pub struct AnomalyConfig {
    /// Straggler when `est < tuned · (1 - straggler_drift_pct/100)`.
    pub straggler_drift_pct: f64,
    /// Rate collapse when this window's fleet throughput is below this
    /// percentage of the previous window's.
    pub collapse_pct: f64,
    /// Rate collapse when scan p99 grows by more than this factor
    /// window over window.
    pub p99_shift_factor: f64,
    /// Ignore collapse checks until the previous window tested at
    /// least this many keys (warm-up / tail noise floor).
    pub min_window_keys: u64,
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        Self {
            straggler_drift_pct: 40.0,
            collapse_pct: 50.0,
            p99_shift_factor: 4.0,
            min_window_keys: 1_000,
        }
    }
}

/// Sliding-window anomaly classifier. Feed it windows in order with
/// `AnomalyDetector::assess`; it keeps the little cross-window state
/// the classifications need (who was active, last fleet delta, last
/// p99) and the currently-flagged worker set.
#[derive(Debug)]
pub struct AnomalyDetector {
    config: AnomalyConfig,
    /// Workers that have tested at least one key in some window.
    active: HashSet<String>,
    /// Previous window's fleet-wide keys-tested delta.
    prev_fleet_delta: Option<u64>,
    /// Previous window's scan-latency p99 (ns).
    prev_p99_ns: Option<f64>,
    /// Workers currently flagged (straggler or stall, latest window).
    flagged: HashSet<String>,
}

impl AnomalyDetector {
    /// A detector with the given thresholds.
    pub fn new(config: AnomalyConfig) -> Self {
        Self {
            config,
            active: HashSet::new(),
            prev_fleet_delta: None,
            prev_p99_ns: None,
            flagged: HashSet::new(),
        }
    }

    /// Classify one window. Returns every anomaly it exhibits and
    /// updates the flagged set (workers not re-flagged recover).
    fn assess(&mut self, window: &Window) -> Vec<Anomaly> {
        let mut out = Vec::new();
        let fleet_delta = window.counter_total(names::KEYS_TESTED);

        // Per-worker keys-tested deltas drive stall detection.
        let mut worker_deltas: Vec<(String, u64)> = Vec::new();
        for s in window.samples.iter().filter(|s| s.name == names::KEYS_TESTED) {
            if let (Some(worker), SampleValue::Counter(delta)) = (s.label("worker"), &s.value) {
                worker_deltas.push((worker.to_string(), *delta));
            }
        }
        let mut next_flagged = HashSet::new();
        for (worker, delta) in &worker_deltas {
            if *delta == 0 && fleet_delta > 0 && self.active.contains(worker) {
                out.push(Anomaly {
                    kind: AnomalyKind::Stall,
                    worker: worker.clone(),
                    window: window.index,
                    detail: format!(
                        "0 keys this window while the fleet tested {fleet_delta}"
                    ),
                });
                next_flagged.insert(worker.clone());
            }
            if *delta > 0 {
                self.active.insert(worker.clone());
            }
        }

        // Straggler: the live EWMA gauge against its tuned baseline.
        for s in window.samples.iter().filter(|s| s.name == names::WORKER_RATE_EST) {
            let (Some(worker), SampleValue::Gauge(est)) = (s.label("worker"), &s.value) else {
                continue;
            };
            let Some(tuned) = window.gauge(names::WORKER_RATE_TUNED, "worker", worker) else {
                continue;
            };
            if tuned <= 0.0 || !est.is_finite() {
                continue;
            }
            let floor = tuned * (1.0 - self.config.straggler_drift_pct / 100.0);
            if *est < floor {
                out.push(Anomaly {
                    kind: AnomalyKind::Straggler,
                    worker: worker.to_string(),
                    window: window.index,
                    detail: format!(
                        "live {est:.2} MK/s under tuned {tuned:.2} MK/s (-{:.0}%)",
                        (1.0 - est / tuned) * 100.0
                    ),
                });
                next_flagged.insert(worker.to_string());
            }
        }

        // Rate collapse: fleet throughput window over window...
        if let Some(prev) = self.prev_fleet_delta {
            if prev >= self.config.min_window_keys
                && (fleet_delta as f64) < prev as f64 * self.config.collapse_pct / 100.0
            {
                out.push(Anomaly {
                    kind: AnomalyKind::RateCollapse,
                    worker: "fleet".to_string(),
                    window: window.index,
                    detail: format!("fleet tested {fleet_delta} keys after {prev} last window"),
                });
            }
        }
        // ...or a scan-latency p99 shift.
        let p99 = window
            .histogram_buckets(names::SCAN_NS)
            .filter(|(_, count)| *count > 0)
            .map(|(buckets, _)| crate::report::quantile_from_log2_buckets(&buckets, 0.99));
        if let (Some(prev), Some(cur)) = (self.prev_p99_ns, p99) {
            if prev > 0.0 && cur > prev * self.config.p99_shift_factor {
                out.push(Anomaly {
                    kind: AnomalyKind::RateCollapse,
                    worker: "fleet".to_string(),
                    window: window.index,
                    detail: format!("scan p99 {cur:.0} ns after {prev:.0} ns last window"),
                });
            }
        }

        self.prev_fleet_delta = Some(fleet_delta);
        if p99.is_some() {
            self.prev_p99_ns = p99;
        }
        self.flagged = next_flagged;
        out
    }

    /// Workers currently flagged (straggler or stall in the latest
    /// window), sorted for determinism.
    pub fn flagged(&self) -> Vec<String> {
        let mut v: Vec<String> = self.flagged.iter().cloned().collect();
        v.sort();
        v
    }
}

/// How many windows the plane's ring and the flight recorder retain.
const DEFAULT_WINDOW_CAPACITY: usize = 64;
/// Default window width: one second of the run's clock.
const DEFAULT_WINDOW_NS: u64 = 1_000_000_000;
/// How many recent anomaly verdicts the plane keeps for dumps.
const RECENT_ANOMALIES: usize = 256;

/// The live observability plane: a window ring plus the anomaly
/// detector, attached to a [`Telemetry`] handle with
/// [`Telemetry::attach_plane`](crate::Telemetry::attach_plane) so
/// every instrumented layer (dispatcher chunks, cluster rounds, job
/// leases) can poke it with `telemetry.observe_plane()` without new
/// plumbing. The plane deliberately does *not* hold a `Telemetry` —
/// it always receives the handle as an argument, so attaching it to
/// the handle's inner state creates no reference cycle.
pub struct LivePlane {
    windows: WindowBook,
    detector: Mutex<AnomalyDetector>,
    /// Flagged-worker set mirrored out of the detector so the engine's
    /// rescatter path reads it without contending the assess lock.
    flagged: Mutex<HashSet<String>>,
    /// Recent verdicts, oldest first, bounded for the flight dump.
    recent: Mutex<Vec<Anomaly>>,
}

impl std::fmt::Debug for LivePlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LivePlane").field("windows", &self.windows).finish_non_exhaustive()
    }
}

impl LivePlane {
    /// A plane flushing `width_ns`-wide windows into a ring of
    /// `capacity`, classifying with `config`.
    pub fn new(width_ns: u64, capacity: usize, config: AnomalyConfig) -> Self {
        Self {
            windows: WindowBook::new(width_ns, capacity),
            detector: Mutex::new(AnomalyDetector::new(config)),
            flagged: Mutex::new(HashSet::new()),
            recent: Mutex::new(Vec::new()),
        }
    }

    /// A plane with the default width, capacity, and thresholds.
    pub fn with_defaults() -> Self {
        Self::new(DEFAULT_WINDOW_NS, DEFAULT_WINDOW_CAPACITY, AnomalyConfig::default())
    }

    /// The window ring.
    pub fn windows(&self) -> &WindowBook {
        &self.windows
    }

    /// Flush-if-due and classify. The cheap not-due path is one atomic
    /// load; on flush, verdicts are counted into
    /// `eks_anomaly_total{kind}`, pushed as `anomaly` trace events,
    /// mirrored into per-worker `eks_worker_flagged` gauges, and
    /// returned.
    pub fn observe(&self, telemetry: &Telemetry) -> Vec<Anomaly> {
        match self.windows.maybe_flush(telemetry) {
            Some(window) => self.classify(telemetry, &window),
            None => Vec::new(),
        }
    }

    /// Unconditionally flush one window and classify it (end-of-run,
    /// and deterministic tests).
    pub fn observe_now(&self, telemetry: &Telemetry) -> Vec<Anomaly> {
        let window = self.windows.flush(telemetry);
        self.classify(telemetry, &window)
    }

    fn classify(&self, telemetry: &Telemetry, window: &Window) -> Vec<Anomaly> {
        let (anomalies, flagged) = {
            let mut detector = self.detector.lock().expect("anomaly detector");
            let anomalies = detector.assess(window);
            (anomalies, detector.flagged())
        };
        for a in &anomalies {
            telemetry.counter(names::ANOMALIES, &[("kind", a.kind.as_str())]).inc();
            telemetry
                .event(names::EVENT_ANOMALY)
                .field("kind", a.kind)
                .field("worker", &a.worker)
                .field("window", a.window)
                .field("detail", &a.detail)
                .finish();
        }
        {
            let mut cur = self.flagged.lock().expect("flagged set");
            for worker in cur.iter() {
                if !flagged.contains(worker) {
                    telemetry.gauge(names::WORKER_FLAGGED, &[("worker", worker)]).set(0.0);
                }
            }
            for worker in &flagged {
                telemetry.gauge(names::WORKER_FLAGGED, &[("worker", worker)]).set(1.0);
            }
            *cur = flagged.into_iter().collect();
        }
        if !anomalies.is_empty() {
            let mut recent = self.recent.lock().expect("recent anomalies");
            recent.extend(anomalies.iter().cloned());
            let len = recent.len();
            if len > RECENT_ANOMALIES {
                recent.drain(..len - RECENT_ANOMALIES);
            }
        }
        anomalies
    }

    /// `true` while `worker` is flagged (the engine's rescatter plan
    /// halves a flagged worker's scatter weight).
    pub fn is_flagged(&self, worker: &str) -> bool {
        self.flagged.lock().expect("flagged set").contains(worker)
    }

    /// Currently-flagged workers, sorted.
    pub fn flagged(&self) -> Vec<String> {
        let mut v: Vec<String> =
            self.flagged.lock().expect("flagged set").iter().cloned().collect();
        v.sort();
        v
    }

    /// Recent verdicts, oldest first (bounded; feeds the flight dump).
    pub fn recent_anomalies(&self) -> Vec<Anomaly> {
        self.recent.lock().expect("recent anomalies").clone()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::{parse_prometheus, ManualClock};

    fn plane_fixture() -> (Arc<ManualClock>, Telemetry, LivePlane) {
        let clock = Arc::new(ManualClock::new());
        let t = Telemetry::with_clock(clock.clone());
        let plane = LivePlane::new(100, 8, AnomalyConfig::default());
        (clock, t, plane)
    }

    #[test]
    fn straggler_flags_and_recovers_with_the_gauges() {
        let (clock, t, plane) = plane_fixture();
        t.counter(names::KEYS_TESTED, &[("worker", "slow")]).add(10);
        t.gauge(names::WORKER_RATE_EST, &[("worker", "slow")]).set(1.0);
        t.gauge(names::WORKER_RATE_TUNED, &[("worker", "slow")]).set(4.0);
        clock.advance(100);
        let anomalies = plane.observe_now(&t);
        assert_eq!(anomalies.len(), 1);
        let first = anomalies.first().expect("one anomaly");
        assert_eq!(first.kind, AnomalyKind::Straggler);
        assert_eq!(first.worker, "slow");
        assert!(plane.is_flagged("slow"));
        assert_eq!(t.gauge(names::WORKER_FLAGGED, &[("worker", "slow")]).get(), 1.0);
        // Counter + event surfaced.
        let text = t.render_prometheus();
        let samples = parse_prometheus(&text).unwrap();
        assert!(samples
            .iter()
            .any(|s| s.name == names::ANOMALIES
                && s.label("kind") == Some("straggler")
                && s.value == 1.0));
        assert!(t.trace_snapshot().iter().any(|r| r.name == names::EVENT_ANOMALY));
        // Recovery: the live rate comes back, the flag clears.
        t.gauge(names::WORKER_RATE_EST, &[("worker", "slow")]).set(3.9);
        t.counter(names::KEYS_TESTED, &[("worker", "slow")]).add(10);
        clock.advance(100);
        assert!(plane.observe_now(&t).is_empty());
        assert!(!plane.is_flagged("slow"));
        assert_eq!(t.gauge(names::WORKER_FLAGGED, &[("worker", "slow")]).get(), 0.0);
    }

    #[test]
    fn stall_requires_prior_activity_and_fleet_progress() {
        let (clock, t, plane) = plane_fixture();
        let fast = t.counter(names::KEYS_TESTED, &[("worker", "fast")]);
        let lazy = t.counter(names::KEYS_TESTED, &[("worker", "lazy")]);
        fast.add(100);
        lazy.add(100);
        clock.advance(100);
        assert!(plane.observe_now(&t).is_empty(), "both active: no anomaly");
        fast.add(100);
        clock.advance(100);
        let anomalies = plane.observe_now(&t);
        assert_eq!(anomalies.len(), 1);
        let first = anomalies.first().expect("one anomaly");
        assert_eq!(first.kind, AnomalyKind::Stall);
        assert_eq!(first.worker, "lazy");
    }

    #[test]
    fn rate_collapse_fires_on_fleet_throughput_drop() {
        let (clock, t, plane) = plane_fixture();
        let c = t.counter(names::KEYS_TESTED, &[("worker", "w0")]);
        c.add(10_000);
        clock.advance(100);
        assert!(plane.observe_now(&t).is_empty(), "first window has no baseline");
        c.add(100);
        clock.advance(100);
        let anomalies = plane.observe_now(&t);
        assert!(anomalies.iter().any(|a| a.kind == AnomalyKind::RateCollapse), "{anomalies:?}");
    }

    #[test]
    fn small_windows_do_not_trip_the_collapse_floor() {
        let (clock, t, plane) = plane_fixture();
        let c = t.counter(names::KEYS_TESTED, &[("worker", "w0")]);
        c.add(50); // under min_window_keys
        clock.advance(100);
        plane.observe_now(&t);
        clock.advance(100);
        assert!(plane.observe_now(&t).is_empty(), "tail noise stays quiet");
    }

    #[test]
    fn kind_labels_round_trip() {
        for kind in [AnomalyKind::Straggler, AnomalyKind::Stall, AnomalyKind::RateCollapse] {
            assert_eq!(AnomalyKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(AnomalyKind::parse("nope"), None);
    }
}
