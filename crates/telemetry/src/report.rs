//! The human-readable run report: parsed metrics + trace back into the
//! tables the paper reports (per-worker utilization, per-device rates,
//! measured §III cost-model terms, whole-network efficiency).
//!
//! Works entirely from the on-disk artifacts (a [`PromSample`] list and
//! a [`TraceRecord`] list), so `eks report` can render a run that
//! finished yesterday — nothing here touches live registries.

use crate::names;
use crate::parse::PromSample;
use crate::trace::{TraceKind, TraceRecord};

/// The paper's reported whole-network efficiency band (Section VII).
pub const PAPER_EFFICIENCY_RANGE: (f64, f64) = (85.0, 90.0);

/// One worker's row of the utilization table.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerRow {
    /// The `worker` label value.
    pub worker: String,
    /// Keys charged to this worker.
    pub tested: f64,
    /// Busy nanoseconds.
    pub busy_ns: f64,
    /// Idle nanoseconds.
    pub idle_ns: f64,
    /// Steals performed.
    pub steals: f64,
    /// Splits performed.
    pub splits: f64,
}

impl WorkerRow {
    /// Busy share of accounted time, in percent. 0 when nothing was
    /// accounted (a run so short neither clock ticked) — never NaN.
    pub fn utilization_pct(&self) -> f64 {
        let total = self.busy_ns + self.idle_ns;
        if total <= 0.0 {
            0.0
        } else {
            100.0 * self.busy_ns / total
        }
    }

    /// Keys per busy second. 0 for a zero-duration run — never NaN or
    /// infinite.
    pub fn keys_per_sec(&self) -> f64 {
        if self.busy_ns <= 0.0 {
            0.0
        } else {
            self.tested / (self.busy_ns / 1e9)
        }
    }
}

/// One worker's row of the rate-drift table: the final live (EWMA)
/// rate estimate a retuned run recorded next to the frozen tuned rate
/// it started from.
#[derive(Debug, Clone, PartialEq)]
pub struct RateRow {
    /// The `worker` label value.
    pub worker: String,
    /// Live estimated rate at the end of the run, MKeys/s.
    pub est_mkeys: f64,
    /// Tuned (one-shot calibration) rate, MKeys/s.
    pub tuned_mkeys: f64,
}

impl RateRow {
    /// How far the live estimate drifted from the tuned baseline, in
    /// signed percent (`+` means the worker ran faster than tuned).
    /// 0 when no tuned baseline was recorded — never NaN.
    pub fn drift_pct(&self) -> f64 {
        if self.tuned_mkeys <= 0.0 {
            0.0
        } else {
            100.0 * (self.est_mkeys - self.tuned_mkeys) / self.tuned_mkeys
        }
    }
}

/// One job's row of the multi-tenant table: the per-job carve-out of
/// the shared worker counters, plus what the job still owes.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRow {
    /// The `job` label value.
    pub job: String,
    /// Keys credited to this job.
    pub tested: f64,
    /// Hits credited to this job.
    pub hits: f64,
    /// Leases dispatched for this job.
    pub leases: f64,
    /// Keys still pending (from the remaining-keys gauge), when the
    /// run recorded it.
    pub remaining: Option<f64>,
}

impl JobRow {
    /// This job's share of all job-credited keys, in percent. 0 when
    /// nothing was credited anywhere — never NaN.
    fn share_pct(&self, all_jobs_tested: f64) -> f64 {
        if all_jobs_tested <= 0.0 {
            0.0
        } else {
            100.0 * self.tested / all_jobs_tested
        }
    }

    /// Keys per second carved out for this job, prorating the fleet
    /// rate by the job's share of tested keys over the run wall time.
    pub fn keys_per_sec(&self, run_secs: f64) -> f64 {
        if run_secs <= 0.0 {
            0.0
        } else {
            self.tested / run_secs
        }
    }

    /// Estimated seconds to finish this job at its achieved rate.
    /// `None` when the job recorded no remaining gauge or no rate.
    pub fn eta_secs(&self, run_secs: f64) -> Option<f64> {
        let remaining = self.remaining?;
        let rate = self.keys_per_sec(run_secs);
        if rate <= 0.0 {
            return None;
        }
        Some(remaining / rate)
    }
}

/// Everything the report derives before formatting, exposed so tests
/// and the example can assert on numbers instead of grepping prose.
#[derive(Debug, Clone, Default)]
pub struct ReportData {
    /// Total keys tested across workers.
    pub keys_tested: f64,
    /// Total hits.
    pub hits: f64,
    /// Total chunks scanned.
    pub chunks: f64,
    /// Per-worker rows, sorted by worker label.
    pub workers: Vec<WorkerRow>,
    /// Per-job rows, sorted by job label (empty for single-tenant runs).
    pub jobs: Vec<JobRow>,
    /// Per-worker live-vs-tuned rate rows, sorted by worker label
    /// (empty unless the run retuned).
    pub rates: Vec<RateRow>,
    /// Re-scatters the closed-loop controller performed.
    pub rescatters: f64,
    /// Total ns inside `run` spans (wall time the job rates prorate).
    pub run_span_ns: u64,
    /// `(device, tuned MKeys/s)` rows, sorted by device.
    pub device_rates: Vec<(String, f64)>,
    /// `(backend, isa)` selections the run recorded, sorted by backend
    /// (which kernel specialization each CPU backend actually ran).
    pub backend_isas: Vec<(String, String)>,
    /// `(backend, tuned MKeys/s)` rows for CPU backends, sorted by
    /// backend.
    pub backend_rates: Vec<(String, f64)>,
    /// Whole-network efficiency percent, when the run recorded it.
    pub efficiency_pct: Option<f64>,
    /// Total ns inside `scan` spans (the measured `K_search` term).
    pub scan_span_ns: u64,
    /// Per-chunk scan latency `(p50, p95, p99)` in ns, derived from
    /// the log₂-bucket `eks_scan_ns` histogram (bucket upper bounds,
    /// so each figure is exact to within its power-of-two bucket).
    pub scan_ns_quantiles: Option<(f64, f64, f64)>,
    /// Total ns inside `scatter` spans.
    pub scatter_span_ns: u64,
    /// Total ns inside `merge` spans (gather + merge).
    pub merge_span_ns: u64,
    /// Number of `round` spans.
    pub rounds: u64,
    /// Mean stop-condition latency in ns (`K_D`), when measured.
    pub cancel_latency_mean_ns: Option<f64>,
    /// Join/leave events, in time order: `(ts_ns, kind, device)`.
    pub membership: Vec<(u64, String, String)>,
}

/// The value at quantile `q` of a raw (non-cumulative) log₂ bucket
/// vector, reported as the matched bucket's inclusive upper bound
/// (`2^i - 1`; bucket 0 holds zeros). Returns 0 for an empty
/// histogram. Shared by the report's cost-model table and the anomaly
/// detector's p99-shift check so both quote the same figure.
pub fn quantile_from_log2_buckets(buckets: &[u64], q: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
    let mut cum = 0u64;
    for (i, b) in buckets.iter().enumerate() {
        cum += b;
        if cum >= rank {
            return if i == 0 { 0.0 } else { ((1u128 << i) - 1) as f64 };
        }
    }
    ((1u128 << (buckets.len().saturating_sub(1))) - 1) as f64
}

/// `(p50, p95, p99)` of one histogram family in a parsed exposition,
/// merging every label set's cumulative `_bucket{le=...}` samples.
fn quantiles_from_prom_buckets(samples: &[PromSample], name: &str) -> Option<(f64, f64, f64)> {
    let bucket_name = format!("{name}_bucket");
    // Sum cumulative counts per `le` across label sets, then sort by
    // boundary; the merged series stays cumulative.
    let mut by_le: Vec<(f64, f64)> = Vec::new();
    for s in samples.iter().filter(|s| s.name == bucket_name) {
        let le = match s.label("le") {
            Some("+Inf") => f64::INFINITY,
            Some(v) => v.parse().ok()?,
            None => continue,
        };
        match by_le.iter_mut().find(|(b, _)| *b == le) {
            Some((_, cum)) => *cum += s.value,
            None => by_le.push((le, s.value)),
        }
    }
    by_le.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let total = by_le.last().map(|(_, cum)| *cum).filter(|t| *t > 0.0)?;
    let at = |q: f64| {
        let rank = (q * total).ceil().max(1.0);
        let mut best = 0.0;
        for (le, cum) in &by_le {
            best = if le.is_finite() { *le } else { best };
            if *cum >= rank {
                return best;
            }
        }
        best
    };
    Some((at(0.50), at(0.95), at(0.99)))
}

fn sum_by_name(samples: &[PromSample], name: &str) -> f64 {
    // `+ 0.0` normalizes the empty-sum identity (-0.0) to plain zero.
    samples.iter().filter(|s| s.name == name).map(|s| s.value).sum::<f64>() + 0.0
}

fn metric_for_worker<'a>(
    samples: &'a [PromSample],
    name: &str,
    worker: &str,
) -> impl Iterator<Item = &'a PromSample> + 'a {
    let worker = worker.to_string();
    let name = name.to_string();
    samples
        .iter()
        .filter(move |s| s.name == name && s.label("worker") == Some(worker.as_str()))
}

/// Derive [`ReportData`] from parsed artifacts.
pub fn analyze(samples: &[PromSample], trace: &[TraceRecord]) -> ReportData {
    let mut data = ReportData {
        keys_tested: sum_by_name(samples, names::KEYS_TESTED),
        hits: sum_by_name(samples, names::HITS),
        chunks: sum_by_name(samples, names::CHUNKS),
        ..ReportData::default()
    };

    let mut workers: Vec<String> = samples
        .iter()
        .filter(|s| s.name == names::KEYS_TESTED)
        .filter_map(|s| s.label("worker").map(str::to_string))
        .collect();
    workers.sort();
    workers.dedup();
    for worker in workers {
        let pick = |name: &str| {
            metric_for_worker(samples, name, &worker).map(|s| s.value).sum::<f64>() + 0.0
        };
        data.workers.push(WorkerRow {
            tested: pick(names::KEYS_TESTED),
            busy_ns: pick(names::BUSY_NS),
            idle_ns: pick(names::IDLE_NS),
            steals: pick(names::STEALS),
            splits: pick(names::SPLITS),
            worker,
        });
    }

    let mut jobs: Vec<String> = samples
        .iter()
        .filter(|s| s.name == names::JOB_KEYS_TESTED)
        .filter_map(|s| s.label("job").map(str::to_string))
        .collect();
    jobs.sort();
    jobs.dedup();
    for job in jobs {
        let pick = |name: &str| {
            samples
                .iter()
                .filter(|s| s.name == name && s.label("job") == Some(job.as_str()))
                .map(|s| s.value)
                .sum::<f64>()
                + 0.0
        };
        let remaining = samples
            .iter()
            .find(|s| s.name == names::JOB_REMAINING_KEYS && s.label("job") == Some(job.as_str()))
            .map(|s| s.value);
        data.jobs.push(JobRow {
            tested: pick(names::JOB_KEYS_TESTED),
            hits: pick(names::JOB_HITS),
            leases: pick(names::JOB_LEASES),
            remaining,
            job,
        });
    }

    let mut rated: Vec<String> = samples
        .iter()
        .filter(|s| s.name == names::WORKER_RATE_EST)
        .filter_map(|s| s.label("worker").map(str::to_string))
        .collect();
    rated.sort();
    rated.dedup();
    for worker in rated {
        let pick = |name: &str| {
            metric_for_worker(samples, name, &worker).map(|s| s.value).next().unwrap_or(0.0)
        };
        data.rates.push(RateRow {
            est_mkeys: pick(names::WORKER_RATE_EST),
            tuned_mkeys: pick(names::WORKER_RATE_TUNED),
            worker,
        });
    }
    data.rescatters = sum_by_name(samples, names::RESCATTERS);

    data.device_rates = samples
        .iter()
        .filter(|s| s.name == names::DEVICE_RATE_MKEYS)
        .filter_map(|s| s.label("device").map(|d| (d.to_string(), s.value)))
        .collect();
    data.device_rates.sort_by(|a, b| a.0.cmp(&b.0));

    data.backend_isas = samples
        .iter()
        .filter(|s| s.name == names::BACKEND_ISA && s.value != 0.0)
        .filter_map(|s| match (s.label("backend"), s.label("isa")) {
            (Some(b), Some(i)) => Some((b.to_string(), i.to_string())),
            _ => None,
        })
        .collect();
    data.backend_isas.sort();

    data.backend_rates = samples
        .iter()
        .filter(|s| s.name == names::BACKEND_RATE_MKEYS)
        .filter_map(|s| s.label("backend").map(|b| (b.to_string(), s.value)))
        .collect();
    data.backend_rates.sort_by(|a, b| a.0.cmp(&b.0));

    data.efficiency_pct = samples
        .iter()
        .find(|s| s.name == names::CLUSTER_EFFICIENCY_PCT)
        .map(|s| s.value);

    data.scan_ns_quantiles = quantiles_from_prom_buckets(samples, names::SCAN_NS);

    let cancel_sum =
        sum_by_name(samples, &format!("{}_sum", names::CANCEL_LATENCY_NS));
    let cancel_count =
        sum_by_name(samples, &format!("{}_count", names::CANCEL_LATENCY_NS));
    if cancel_count > 0.0 {
        data.cancel_latency_mean_ns = Some(cancel_sum / cancel_count);
    }

    for record in trace {
        match (&record.kind, record.name.as_str()) {
            (TraceKind::Span, names::SPAN_SCAN) => data.scan_span_ns += record.dur_ns,
            (TraceKind::Span, names::SPAN_SCATTER) => data.scatter_span_ns += record.dur_ns,
            (TraceKind::Span, names::SPAN_MERGE) => data.merge_span_ns += record.dur_ns,
            (TraceKind::Span, names::SPAN_ROUND) => data.rounds += 1,
            (TraceKind::Span, names::SPAN_RUN) => data.run_span_ns += record.dur_ns,
            (TraceKind::Event, names::EVENT_JOIN | names::EVENT_LEAVE) => {
                data.membership.push((
                    record.ts_ns,
                    record.name.clone(),
                    record.device.clone().unwrap_or_else(|| "?".into()),
                ));
            }
            _ => {}
        }
    }
    data
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Render the full report from parsed artifacts.
pub fn render_report(samples: &[PromSample], trace: &[TraceRecord]) -> String {
    use std::fmt::Write as _;
    let data = analyze(samples, trace);
    let mut out = String::new();

    writeln!(out, "run report").expect("write");
    writeln!(out, "==========").expect("write");
    writeln!(
        out,
        "keys tested: {:.0}   hits: {:.0}   chunks: {:.0}",
        data.keys_tested, data.hits, data.chunks
    )
    .expect("write");

    if !data.workers.is_empty() {
        writeln!(out, "\nper-worker utilization").expect("write");
        writeln!(
            out,
            "{:<24} {:>14} {:>10} {:>10} {:>7} {:>7} {:>7} {:>14}",
            "worker", "tested", "busy ms", "idle ms", "util%", "steals", "splits", "keys/s"
        )
        .expect("write");
        for row in &data.workers {
            writeln!(
                out,
                "{:<24} {:>14.0} {:>10.2} {:>10.2} {:>7.1} {:>7.0} {:>7.0} {:>14.0}",
                row.worker,
                row.tested,
                row.busy_ns / 1e6,
                row.idle_ns / 1e6,
                row.utilization_pct(),
                row.steals,
                row.splits,
                row.keys_per_sec()
            )
            .expect("write");
        }
    }

    if !data.jobs.is_empty() {
        let all_tested: f64 = data.jobs.iter().map(|j| j.tested).sum::<f64>() + 0.0;
        let run_secs = data.run_span_ns as f64 / 1e9;
        writeln!(out, "\nper-job carve-out").expect("write");
        writeln!(
            out,
            "{:<20} {:>14} {:>6} {:>8} {:>8} {:>12} {:>12}",
            "job", "tested", "hits", "leases", "share%", "keys/s", "eta s"
        )
        .expect("write");
        for row in &data.jobs {
            let eta = match row.eta_secs(run_secs) {
                Some(eta) => format!("{eta:>12.1}"),
                None => format!("{:>12}", "-"),
            };
            writeln!(
                out,
                "{:<20} {:>14.0} {:>6.0} {:>8.0} {:>8.1} {:>12.0} {eta}",
                row.job,
                row.tested,
                row.hits,
                row.leases,
                row.share_pct(all_tested),
                row.keys_per_sec(run_secs),
            )
            .expect("write");
        }
    }

    if !data.rates.is_empty() {
        writeln!(out, "\nrate drift (live estimate vs tuned)").expect("write");
        writeln!(
            out,
            "{:<24} {:>14} {:>14} {:>9}",
            "worker", "est MKeys/s", "tuned MKeys/s", "drift%"
        )
        .expect("write");
        for row in &data.rates {
            writeln!(
                out,
                "{:<24} {:>14.2} {:>14.2} {:>+9.1}",
                row.worker, row.est_mkeys, row.tuned_mkeys, row.drift_pct()
            )
            .expect("write");
        }
        writeln!(out, "re-scatters: {:.0}", data.rescatters).expect("write");
    }

    if !data.device_rates.is_empty() {
        writeln!(out, "\nper-device tuned rate").expect("write");
        for (device, rate) in &data.device_rates {
            writeln!(out, "  {device:<32} {rate:>10.2} MKeys/s").expect("write");
        }
    }

    writeln!(out, "\ncost model (paper SIII, measured)").expect("write");
    writeln!(out, "  K_search (scan spans):   {:>12.3} ms", ms(data.scan_span_ns)).expect("write");
    if let Some((p50, p95, p99)) = data.scan_ns_quantiles {
        writeln!(
            out,
            "  scan p50/p95/p99:        {:>12.3} / {:.3} / {:.3} ms per chunk",
            p50 / 1e6,
            p95 / 1e6,
            p99 / 1e6
        )
        .expect("write");
    }
    writeln!(out, "  scatter (partitioning):  {:>12.3} ms", ms(data.scatter_span_ns))
        .expect("write");
    writeln!(out, "  gather/merge:            {:>12.3} ms", ms(data.merge_span_ns))
        .expect("write");
    match data.cancel_latency_mean_ns {
        Some(mean) => {
            writeln!(out, "  K_D (mean stop latency): {:>12.3} ms", mean / 1e6).expect("write")
        }
        None => writeln!(out, "  K_D (mean stop latency):    not measured").expect("write"),
    }
    if data.rounds > 0 {
        writeln!(out, "  rounds:                  {:>12}", data.rounds).expect("write");
    }
    for (backend, isa) in &data.backend_isas {
        writeln!(out, "  selected ISA:            {:>12}  (backend {backend})", isa)
            .expect("write");
    }
    for (backend, rate) in &data.backend_rates {
        writeln!(out, "  tuned rate [{backend:<10}] {:>12.2} MKeys/s", rate).expect("write");
    }

    if let Some(pct) = data.efficiency_pct {
        let (lo, hi) = PAPER_EFFICIENCY_RANGE;
        let verdict = if pct >= lo {
            "within/above the paper's band"
        } else {
            "below the paper's band"
        };
        writeln!(
            out,
            "\nnetwork efficiency: {pct:.1}% (paper reports {lo:.0}-{hi:.0}%; {verdict})"
        )
        .expect("write");
    }

    if !data.membership.is_empty() {
        writeln!(out, "\nmembership events").expect("write");
        for (ts, kind, device) in &data.membership {
            writeln!(out, "  t={:>10.3} ms  {kind:<5} {device}", ms(*ts)).expect("write");
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::parse::{parse_prometheus, parse_trace_jsonl};
    use crate::Telemetry;
    use std::sync::Arc;

    fn sample_run() -> Telemetry {
        let clock = Arc::new(ManualClock::new());
        let t = Telemetry::with_clock(clock.clone());
        t.counter(names::KEYS_TESTED, &[("worker", "w0")]).add(600);
        t.counter(names::KEYS_TESTED, &[("worker", "w1")]).add(400);
        t.counter(names::HITS, &[]).inc();
        t.counter(names::BUSY_NS, &[("worker", "w0")]).add(3_000_000);
        t.counter(names::IDLE_NS, &[("worker", "w0")]).add(1_000_000);
        t.gauge(names::DEVICE_RATE_MKEYS, &[("device", "GTX 660")]).set(215.0);
        t.gauge(names::BACKEND_ISA, &[("backend", "auto"), ("isa", "avx512")]).set(1.0);
        t.gauge(names::BACKEND_RATE_MKEYS, &[("backend", "auto")]).set(40.5);
        t.gauge(names::CLUSTER_EFFICIENCY_PCT, &[]).set(87.5);
        t.histogram(names::CANCEL_LATENCY_NS, &[]).observe(2000);
        t.histogram(names::CANCEL_LATENCY_NS, &[]).observe(4000);
        {
            let span = t.span(names::SPAN_SCAN).worker(0);
            clock.advance(500_000);
            span.finish();
        }
        t.event(names::EVENT_JOIN).device("late-gpu").finish();
        t
    }

    #[test]
    fn analyze_reconstructs_run_numbers() {
        let t = sample_run();
        let samples = parse_prometheus(&t.render_prometheus()).unwrap();
        let trace = parse_trace_jsonl(&t.trace_jsonl()).unwrap();
        let data = analyze(&samples, &trace);
        assert_eq!(data.keys_tested, 1000.0);
        assert_eq!(data.hits, 1.0);
        assert_eq!(data.workers.len(), 2);
        let w0 = &data.workers[0];
        assert_eq!(w0.worker, "w0");
        assert!((w0.utilization_pct() - 75.0).abs() < 1e-9);
        assert_eq!(data.device_rates, vec![("GTX 660".to_string(), 215.0)]);
        assert_eq!(data.backend_isas, vec![("auto".to_string(), "avx512".to_string())]);
        assert_eq!(data.backend_rates, vec![("auto".to_string(), 40.5)]);
        assert_eq!(data.efficiency_pct, Some(87.5));
        assert_eq!(data.scan_span_ns, 500_000);
        assert_eq!(data.cancel_latency_mean_ns, Some(3000.0));
        assert_eq!(data.membership.len(), 1);
    }

    #[test]
    fn scan_quantiles_come_from_the_log2_buckets() {
        let t = Telemetry::enabled();
        // 100 fast chunks near 1 µs, 5 slow ones near 1 ms, split
        // across two workers so the per-le merge is exercised.
        for i in 0..100u64 {
            let worker = if i % 2 == 0 { "w0" } else { "w1" };
            t.histogram(names::SCAN_NS, &[("worker", worker)]).observe(1_000);
        }
        for _ in 0..5 {
            t.histogram(names::SCAN_NS, &[("worker", "w1")]).observe(1_000_000);
        }
        let samples = parse_prometheus(&t.render_prometheus()).unwrap();
        let data = analyze(&samples, &[]);
        let (p50, p95, p99) = data.scan_ns_quantiles.expect("quantiles derived");
        // 1000 lands in [512, 1024) ⇒ upper bound 1023; 1e6 lands in
        // [2^19, 2^20) ⇒ upper bound 2^20 - 1.
        assert_eq!(p50, 1023.0);
        assert_eq!(p95, 1023.0, "95th of 105 observations is still a fast chunk");
        assert_eq!(p99, (1u64 << 20) as f64 - 1.0);
        let report = render_report(&samples, &[]);
        assert!(report.contains("scan p50/p95/p99"), "{report}");
    }

    #[test]
    fn quantiles_of_raw_buckets_match_the_bucket_bounds() {
        let mut buckets = vec![0u64; 40];
        buckets[0] = 10; // zeros
        buckets[5] = 90; // [16, 32)
        assert_eq!(quantile_from_log2_buckets(&buckets, 0.05), 0.0);
        assert_eq!(quantile_from_log2_buckets(&buckets, 0.50), 31.0);
        assert_eq!(quantile_from_log2_buckets(&buckets, 0.99), 31.0);
        assert_eq!(quantile_from_log2_buckets(&[0; 40], 0.99), 0.0, "empty histogram");
    }

    #[test]
    fn per_job_rows_carve_the_shared_counters() {
        let clock = Arc::new(ManualClock::new());
        let t = Telemetry::with_clock(clock.clone());
        // Two workers share the fleet; two jobs split their output.
        t.counter(names::KEYS_TESTED, &[("worker", "w0")]).add(700);
        t.counter(names::KEYS_TESTED, &[("worker", "w1")]).add(300);
        t.counter(names::JOB_KEYS_TESTED, &[("job", "job-1")]).add(600);
        t.counter(names::JOB_KEYS_TESTED, &[("job", "job-2")]).add(400);
        t.counter(names::JOB_HITS, &[("job", "job-1")]).inc();
        t.counter(names::JOB_LEASES, &[("job", "job-1")]).add(3);
        t.counter(names::JOB_LEASES, &[("job", "job-2")]).add(2);
        t.gauge(names::JOB_REMAINING_KEYS, &[("job", "job-2")]).set(4000.0);
        {
            let span = t.span(names::SPAN_RUN);
            clock.advance(2_000_000_000);
            span.finish();
        }
        let samples = parse_prometheus(&t.render_prometheus()).unwrap();
        let trace = parse_trace_jsonl(&t.trace_jsonl()).unwrap();
        let data = analyze(&samples, &trace);
        assert_eq!(data.jobs.len(), 2);
        let j1 = &data.jobs[0];
        let j2 = &data.jobs[1];
        assert_eq!((j1.job.as_str(), j1.tested, j1.hits, j1.leases), ("job-1", 600.0, 1.0, 3.0));
        // Per-job totals reconcile exactly against the worker counters.
        let job_sum: f64 = data.jobs.iter().map(|j| j.tested).sum();
        assert_eq!(job_sum, data.keys_tested);
        assert!((j1.share_pct(job_sum) - 60.0).abs() < 1e-9);
        assert_eq!(data.run_span_ns, 2_000_000_000);
        // job-2: 400 keys over 2 s = 200 keys/s; 4000 remaining = 20 s ETA.
        assert_eq!(j2.keys_per_sec(2.0), 200.0);
        assert_eq!(j2.eta_secs(2.0), Some(20.0));
        assert_eq!(j1.eta_secs(2.0), None, "no remaining gauge, no ETA");

        let report = render_report(&samples, &trace);
        assert!(report.contains("per-job carve-out"), "{report}");
        assert!(!report.contains("NaN"), "{report}");
    }

    #[test]
    fn rate_drift_rows_render_with_signed_percentages() {
        let t = Telemetry::enabled();
        t.counter(names::KEYS_TESTED, &[("worker", "cpu#0")]).add(100);
        t.gauge(names::WORKER_RATE_EST, &[("worker", "cpu#0")]).set(30.0);
        t.gauge(names::WORKER_RATE_TUNED, &[("worker", "cpu#0")]).set(40.0);
        t.gauge(names::WORKER_RATE_EST, &[("worker", "gpu#0")]).set(220.0);
        t.gauge(names::WORKER_RATE_TUNED, &[("worker", "gpu#0")]).set(200.0);
        t.counter(names::RESCATTERS, &[]).add(3);
        let samples = parse_prometheus(&t.render_prometheus()).unwrap();
        let data = analyze(&samples, &[]);
        assert_eq!(data.rates.len(), 2);
        let cpu = &data.rates[0];
        assert_eq!(cpu.worker, "cpu#0");
        assert!((cpu.drift_pct() + 25.0).abs() < 1e-9, "{}", cpu.drift_pct());
        let gpu = &data.rates[1];
        assert!((gpu.drift_pct() - 10.0).abs() < 1e-9, "{}", gpu.drift_pct());
        assert_eq!(data.rescatters, 3.0);
        let report = render_report(&samples, &[]);
        assert!(report.contains("rate drift (live estimate vs tuned)"), "{report}");
        assert!(report.contains("-25.0"), "{report}");
        assert!(report.contains("+10.0"), "{report}");
        assert!(report.contains("re-scatters: 3"), "{report}");
        assert!(!report.contains("NaN"), "{report}");
        // A zero tuned baseline degrades to 0% drift, never NaN.
        let zero = RateRow { worker: "w".into(), est_mkeys: 5.0, tuned_mkeys: 0.0 };
        assert_eq!(zero.drift_pct(), 0.0);
    }

    #[test]
    fn retune_gauges_render_a_stable_prometheus_exposition() {
        // Golden test: the exact exposition text the retune gauges
        // produce, so the on-disk artifact schema can't drift silently.
        let t = Telemetry::enabled();
        t.gauge(names::WORKER_RATE_EST, &[("worker", "cpu#0")]).set(32.5);
        t.gauge(names::WORKER_RATE_TUNED, &[("worker", "cpu#0")]).set(40.0);
        t.counter(names::RESCATTERS, &[]).add(2);
        let text = t.render_prometheus();
        for line in [
            "# TYPE eks_rescatter_total counter",
            "eks_rescatter_total 2",
            "# TYPE eks_worker_rate_est_mkeys gauge",
            "eks_worker_rate_est_mkeys{worker=\"cpu#0\"} 32.5",
            "# TYPE eks_worker_rate_tuned_mkeys gauge",
            "eks_worker_rate_tuned_mkeys{worker=\"cpu#0\"} 40",
        ] {
            assert!(text.contains(line), "missing {line:?} in:\n{text}");
        }
        // And the exposition round-trips through the parser.
        let samples = parse_prometheus(&text).unwrap();
        assert!(samples.iter().any(|s| s.name == names::WORKER_RATE_EST && s.value == 32.5));
    }

    #[test]
    fn zero_duration_rows_never_produce_nan() {
        let row = WorkerRow {
            worker: "w0".into(),
            tested: 10.0,
            busy_ns: 0.0,
            idle_ns: 0.0,
            steals: 0.0,
            splits: 0.0,
        };
        assert_eq!(row.utilization_pct(), 0.0);
        assert_eq!(row.keys_per_sec(), 0.0);
    }

    #[test]
    fn report_renders_every_section() {
        let t = sample_run();
        let samples = parse_prometheus(&t.render_prometheus()).unwrap();
        let trace = parse_trace_jsonl(&t.trace_jsonl()).unwrap();
        let report = render_report(&samples, &trace);
        for needle in [
            "per-worker utilization",
            "per-device tuned rate",
            "cost model",
            "K_search",
            "K_D",
            "selected ISA:                  avx512  (backend auto)",
            "tuned rate [auto      ]        40.50 MKeys/s",
            "network efficiency: 87.5% (paper reports 85-90%",
            "membership events",
        ] {
            assert!(report.contains(needle), "missing {needle:?} in:\n{report}");
        }
        assert!(!report.contains("NaN"), "{report}");
    }

    #[test]
    fn empty_artifacts_render_without_panicking() {
        let report = render_report(&[], &[]);
        assert!(report.contains("keys tested: 0"));
    }
}
