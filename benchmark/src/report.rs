//! Metric names, units and bounds (the same ones `BENCHMARK.json` lists),
//! the reconciliation of layer costs against the end-to-end figure, and
//! the printing of both.

use crate::layers::{value_of as layer, Metric};
use crate::run::EndToEnd;
use crate::trace::Traced;
use crate::yard::Yard;

/// End-to-end metrics: `(name, unit, better, bound)`. The bound is the
/// share of the parent's median a metric may get worse by, and also what
/// two sets of runs of the same code must agree within (`--selfcheck`).
pub const END_TO_END: [(&str, &str, &str, f64); 3] = [
    ("mkeys_norm", "MKey/s", "higher", 0.08),
    ("setup_s", "s", "lower", 0.1),
    ("rss_mb", "MB", "lower", 0.1),
];

/// Per-layer metrics: `(name, unit, better)`. Never gated.
pub const PER_LAYER: [(&str, &str, &str); 61] = [
    ("keyspace.fill_w0_ns_per_key", "ns/key", "lower"),
    ("keyspace.fill16_ns_per_key", "ns/key", "lower"),
    ("keyspace.key_at_ns", "ns", "lower"),
    ("keyspace.mask_advance_ns_per_key", "ns/key", "lower"),
    ("hashes.md5_fwd49_wide_ns_per_key", "ns/key", "lower"),
    ("hashes.md5_wide_ns_per_key", "ns/key", "lower"),
    ("hashes.sha1_l8_ns_per_key", "ns/key", "lower"),
    ("hashes.md5_l16_ns_per_key", "ns/key", "lower"),
    ("hashes.ntlm_scalar_ns_per_key", "ns/key", "lower"),
    ("cracker.scan_simd_md5_ns_per_key", "ns/key", "lower"),
    ("cracker.scan_l8_sha1_ns_per_key", "ns/key", "lower"),
    ("cracker.scan_l16_md5_ns_per_key", "ns/key", "lower"),
    ("cracker.generic_ntlm_ns_per_key", "ns/key", "lower"),
    ("cracker.generic_fixed_us", "us", "lower"),
    (
        "cracker.scan_simd_md5.scan_self_ns_per_key",
        "ns/key",
        "lower",
    ),
    (
        "cracker.scan_l8_sha1.scan_self_ns_per_key",
        "ns/key",
        "lower",
    ),
    (
        "cracker.scan_l16_md5.scan_self_ns_per_key",
        "ns/key",
        "lower",
    ),
    (
        "cracker.generic_ntlm.scan_self_ns_per_key",
        "ns/key",
        "lower",
    ),
    ("cracker.generic_scaling_eff", "share", "higher"),
    ("cracker.auto_tune_ms", "ms", "lower"),
    ("cracker.auto_vs_best_ratio", "ratio", "higher"),
    ("engine.chunk_overhead_ns", "ns", "lower"),
    ("engine.search_fixed_us", "us", "lower"),
    ("engine.scatter_ns", "ns", "lower"),
    ("engine.steal_ns", "ns", "lower"),
    ("engine.dispatch_self_share", "share", "lower"),
    ("engine.busy_share", "share", "higher"),
    ("engine.chunks_per_slice", "count", "lower"),
    ("engine.steals_per_slice", "count", "lower"),
    ("engine.scaling_eff", "share", "higher"),
    ("engine.checkpoint_to_json_us", "us", "lower"),
    ("engine.checkpoint_from_json_us", "us", "lower"),
    ("engine.checkpoint_bytes", "B", "lower"),
    ("cluster.search_fixed_us", "us", "lower"),
    ("cluster.tune_device_us", "us", "lower"),
    ("cluster.simgpu_scan_ns_per_key", "ns/key", "lower"),
    ("cluster.busy_share", "share", "higher"),
    ("cluster.tune_cpu_ms", "ms", "lower"),
    ("gpusim.ir_verify_ms", "ms", "lower"),
    ("jobs.round_fixed_us", "us", "lower"),
    ("jobs.store_save_us", "us", "lower"),
    ("jobs.store_list_us", "us", "lower"),
    ("jobs.record_to_json_us", "us", "lower"),
    ("jobs.record_from_json_us", "us", "lower"),
    ("jobs.carve_budget_ns", "ns", "lower"),
    ("jobs.leases_per_mkey", "1/Mkey", "lower"),
    ("jobs.record_bytes", "B", "lower"),
    ("jobs.spool_bytes_per_mkey", "B/Mkey", "lower"),
    ("telemetry.tax_pct", "%", "lower"),
    ("telemetry.counter_add_ns", "ns", "lower"),
    ("telemetry.span_ns", "ns", "lower"),
    ("telemetry.render_prometheus_us", "us", "lower"),
    ("host.mkeys_raw", "MKey/s", "higher"),
    ("host.mkeys_by_base", "MKey/s", "higher"),
    ("host.mkeys_by_wide", "MKey/s", "higher"),
    ("host.ruler_wide_share", "share", "lower"),
    ("host.ruler_threads", "count", "higher"),
    ("host.yard_ms_p10", "ms", "lower"),
    ("host.yard_ms_p50", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("reconcile.unexplained_share", "share", "lower"),
];

/// Value reported for a count the benchmark cannot observe from outside
/// on a workload (no wrap point for a tracing backend).
pub const NOT_OBSERVABLE: f64 = -1.0;

/// Layer costs of one workload set against its end-to-end cost, all in
/// worker-nanoseconds per key at reference machine speed.
pub struct Reconciliation {
    pub rows: Vec<(&'static str, f64)>,
    pub end_to_end: f64,
}

impl Reconciliation {
    pub fn explained(&self) -> f64 {
        self.rows.iter().map(|(_, v)| v).sum()
    }

    pub fn unexplained_share(&self) -> f64 {
        1.0 - self.explained() / self.end_to_end
    }
}

/// Which layer metrics should add up to a workload's end-to-end cost.
/// Per-search fixed costs are spread over the slice's keys; costs paid by
/// every worker at once (spawn, merge) count once per worker.
pub fn reconcile(t: &Traced, layers: &[Metric], chunks_per_slice: f64) -> Reconciliation {
    let workers = t.workers();
    let keys = t.median_keys();
    let l = |name: &str| layer(layers, name);
    let per_search_us = |us: f64, searches: f64| workers * searches * us * 1e3 / keys;
    let chunks = |n: f64| n.max(0.0) * l("engine.chunk_overhead_ns") / keys;
    let rows = match t.workload.as_str() {
        "crack_md5" => vec![
            ("keyspace.fill_w0", l("keyspace.fill_w0_ns_per_key")),
            (
                "hashes.md5_fwd49_wide",
                l("hashes.md5_fwd49_wide_ns_per_key"),
            ),
            (
                "cracker scan self",
                l("cracker.scan_simd_md5.scan_self_ns_per_key"),
            ),
            ("engine chunk overhead", chunks(chunks_per_slice)),
            (
                "engine search fixed",
                per_search_us(l("engine.search_fixed_us"), 1.0),
            ),
        ],
        "crack_sha1_default" => vec![
            ("keyspace.fill16", l("keyspace.fill16_ns_per_key")),
            ("hashes.sha1_l8", l("hashes.sha1_l8_ns_per_key")),
            (
                "cracker scan self",
                l("cracker.scan_l8_sha1.scan_self_ns_per_key"),
            ),
            ("engine chunk overhead", chunks(chunks_per_slice)),
            (
                "engine search fixed",
                per_search_us(l("engine.search_fixed_us"), 1.0),
            ),
        ],
        "crack_mask_ntlm" => vec![
            (
                "keyspace.mask_advance",
                l("keyspace.mask_advance_ns_per_key"),
            ),
            ("hashes.ntlm_scalar", l("hashes.ntlm_scalar_ns_per_key")),
            (
                "cracker generic self",
                l("cracker.generic_ntlm.scan_self_ns_per_key"),
            ),
            (
                "cracker generic fixed",
                per_search_us(l("cracker.generic_fixed_us"), 1.0),
            ),
        ],
        "cluster_hetero" => vec![
            ("keyspace.fill_w0", l("keyspace.fill_w0_ns_per_key")),
            ("hashes.md5_l16", l("hashes.md5_l16_ns_per_key")),
            (
                "cracker scan self",
                l("cracker.scan_l16_md5.scan_self_ns_per_key"),
            ),
            (
                "cluster search fixed",
                per_search_us(l("cluster.search_fixed_us"), 1.0),
            ),
        ],
        "jobs_drain" => vec![
            ("keyspace.fill16", l("keyspace.fill16_ns_per_key")),
            ("hashes.sha1_l8", l("hashes.sha1_l8_ns_per_key")),
            (
                "cracker scan self",
                l("cracker.scan_l8_sha1.scan_self_ns_per_key"),
            ),
            ("engine chunk overhead", chunks(chunks_per_slice)),
            // list + carve + two dispatches + two saves, per round.
            (
                "jobs round fixed",
                per_search_us(
                    l("jobs.round_fixed_us"),
                    keys / eks_jobs::ServiceConfig::default().round_keys as f64,
                ),
            ),
        ],
        _ => Vec::new(),
    };
    Reconciliation {
        rows,
        end_to_end: workers * t.norm_s_per_key() * 1e9,
    }
}

/// The per-layer metrics that depend on which workload was traced.
pub fn workload_metrics(t: &Traced, layers: &[Metric]) -> (Vec<Metric>, Reconciliation) {
    let count = Metric::count;
    // Share of worker time not inside a scan. Where no tracing backend
    // can be injected it is estimated from the product's own busy/idle
    // accounting, and failing that from the single-thread scan cost.
    let estimated_self = || {
        let scan_ns = layer(layers, "cracker.generic_ntlm_ns_per_key");
        1.0 - scan_ns / (t.workers() * t.norm_s_per_key() * 1e9)
    };
    let dispatch_self = t
        .dispatch_self_share()
        .or_else(|| t.unbusy_share())
        .unwrap_or_else(estimated_self);
    let busy = t.busy_share().unwrap_or(1.0 - dispatch_self);
    let (chunks, steals) = match t.workload.as_str() {
        // One shared cursor, fixed 4096-key chunks, no stealing: known by
        // construction, not observed.
        "crack_mask_ntlm" => ((t.median_keys() / 4096.0).ceil(), 0.0),
        _ => (
            t.chunks_per_slice().unwrap_or(NOT_OBSERVABLE),
            t.steals_per_slice(),
        ),
    };
    let reconciliation = reconcile(t, layers, chunks);
    let metrics = vec![
        count("engine.dispatch_self_share", dispatch_self, "share"),
        count("engine.busy_share", busy, "share"),
        count("engine.chunks_per_slice", chunks, "count"),
        count("engine.steals_per_slice", steals, "count"),
        count("host.mkeys_raw", t.untraced.mkeys_raw(), "MKey/s"),
        count("host.mkeys_by_base", t.mkeys_by(Yard::Base), "MKey/s"),
        count("host.mkeys_by_wide", t.mkeys_by(Yard::Wide), "MKey/s"),
        count("host.ruler_wide_share", t.ruler.wide_share, "share"),
        count("host.ruler_threads", t.ruler.threads as f64, "count"),
        count("host.yard_ms_p10", t.untraced.yard_ms(0.10), "ms"),
        count("host.yard_ms_p50", t.untraced.yard_ms(0.50), "ms"),
        count("trace.overhead_pct", t.overhead_pct(), "%"),
        count(
            "reconcile.unexplained_share",
            reconciliation.unexplained_share(),
            "share",
        ),
    ];
    (metrics, reconciliation)
}

pub fn print_end_to_end(e: &EndToEnd) {
    println!(
        "{}  —  {}  [ruler: {} thread(s), wide share {:.3}]  {} slices (median {:.1} ms), {} set-up probes",
        e.workload,
        e.label,
        e.ruler.threads,
        e.ruler.wide_share,
        e.slices.len(),
        e.slices.median_of(|s| s.t * 1e3),
        e.probes.len()
    );
    println!(
        "  mkeys_norm   {:>12.4} MKey/s   by yard.base {:.4}, by yard.wide {:.4}, host.mkeys_raw {:.4}",
        e.mkeys_norm(),
        e.mkeys_by(Yard::Base),
        e.mkeys_by(Yard::Wide),
        e.slices.mkeys_raw()
    );
    println!(
        "  setup_s      {:>12.6} s        raw {:.6} s",
        e.setup_s(),
        e.setup_raw_s()
    );
    println!(
        "  rss_mb       {:>12.3} MB       yard ms p10/p50 {:.3}/{:.3}",
        e.rss_mb(),
        e.slices.yard_ms(0.10),
        e.slices.yard_ms(0.50)
    );
    println!(
        "  fail_share   {:>12.6}          {} failed of {} attempted",
        e.fail_share(),
        e.failed,
        e.attempted()
    );
}

pub fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    println!(
        "  {:<46} {:>14} {:>14}  {:<7} samples",
        "metric", "normalised", "raw", "unit"
    );
    for m in metrics {
        let raw = m.raw.map_or_else(|| "-".to_string(), |r| format!("{r:.4}"));
        let samples = match m.samples {
            0 => "-".to_string(),
            n => n.to_string(),
        };
        println!(
            "  {:<46} {:>14.4} {:>14}  {:<7} {samples}",
            m.name, m.value, raw, m.unit
        );
    }
}

pub fn print_traced(t: &Traced, r: &Reconciliation) {
    println!(
        "{}  —  traced pass: {} traced + {} untraced slices, {} spans",
        t.workload,
        t.traced.len(),
        t.untraced.len(),
        t.spans.len()
    );
    for (name, share, n) in t.self_shares() {
        println!(
            "  self time  {name:<8} {:>6.2} % of worker time  ({n} spans)",
            share * 100.0
        );
    }
    println!("  reconciliation (worker-ns per key at reference speed)");
    for (name, v) in &r.rows {
        println!(
            "    {name:<28} {v:>10.4}  {:>6.2} %",
            v / r.end_to_end * 100.0
        );
    }
    println!("    {:<28} {:>10.4}", "sum of layers", r.explained());
    println!("    {:<28} {:>10.4}", "end to end", r.end_to_end);
    let u = r.unexplained_share();
    let flag = if u.abs() > 0.15 {
        "   <- OPEN QUESTION (> 15 %): see README"
    } else {
        ""
    };
    println!(
        "    {:<28} {:>10.4}  {:>6.2} %{flag}",
        "unexplained",
        r.end_to_end - r.explained(),
        u * 100.0
    );
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

/// The driver's result line. A metric without a finite value makes the
/// run incorrect instead of producing invalid JSON.
pub fn result_json(attempted: u64, mut failed: u64, metrics: &[(String, f64, String)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            if value.is_finite() {
                metric_json(name, *value, unit)
            } else {
                failed += 1;
                metric_json(name, NOT_OBSERVABLE, unit)
            }
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(failed).max(1),
        failed,
        body.join(", ")
    )
}

pub fn end_to_end_metrics(e: &EndToEnd) -> Vec<(String, f64, String)> {
    let values = [e.mkeys_norm(), e.setup_s(), e.rss_mb()];
    END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit, _, _), v)| (name.to_string(), v, unit.to_string()))
        .collect()
}

/// Every per-layer metric in `BENCHMARK.json` order; one the pass did
/// not produce comes out as not finite.
pub fn per_layer_metrics(measured: &[Metric]) -> Vec<(String, f64, String)> {
    PER_LAYER
        .iter()
        .map(|(name, unit, _)| (name.to_string(), layer(measured, name), unit.to_string()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the code must name the same metrics.
    #[test]
    fn manifest_lists_exactly_these_metrics() {
        let manifest = include_str!("../../BENCHMARK.json");
        for (name, unit, better, bound) in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(manifest.contains(&entry), "{entry}");
        }
        for (name, unit, better) in PER_LAYER {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(manifest.contains(&entry), "{entry}");
        }
        let listed = manifest.matches("\"better\"").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for name in crate::workloads::NAMES {
            assert!(
                manifest.contains(&format!("{{\"name\": \"{name}\", \"why\": \"")),
                "{name}"
            );
        }
        assert_eq!(
            manifest.matches("\"why\"").count(),
            crate::workloads::NAMES.len()
        );
    }

    #[test]
    fn result_line_counts_a_missing_metric_as_a_failure() {
        let ok = result_json(10, 0, &[("a".into(), 1.5, "s".into())]);
        assert_eq!(ok, "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"s\"}}}");
        let bad = result_json(10, 0, &[("a".into(), f64::NAN, "s".into())]);
        assert!(bad.contains("\"correct\": false") && bad.contains("\"failed\": 1"));
    }
}
