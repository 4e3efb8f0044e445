//! The hand-rolled metrics registry: monotonic counters, gauges, and
//! fixed log₂-bucket histograms over `std::sync::atomic`.
//!
//! The workspace has no registry dependencies, so this is the whole
//! implementation: a lock-striped map from `(name, labels)` to an atomic
//! cell, plus two expositions — the Prometheus text format
//! ([`Registry::render_prometheus`]) and a JSON snapshot
//! ([`Registry::snapshot_json`]). Handles ([`Counter`], [`Gauge`],
//! [`Histogram`]) are registered once — a brief striped-lock hit — and
//! then updated with single relaxed atomic operations, so the hot path
//! never touches a lock. Every update site in the workspace is amortized
//! at *chunk* granularity (a scan, a batch flush, a round), never
//! per-key.

// Indexing/slicing below is over fixed-size state arrays or lengths
// established by construction; the workspace `clippy::indexing_slicing`
// escalation guards new code, not these proven accesses.
#![allow(clippy::indexing_slicing)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Striping factor of the registration map: registration from many
/// worker threads (one per device at cluster start) shards by key hash.
const SHARDS: usize = 8;

/// Number of log₂ histogram buckets: bucket `i` counts observations in
/// `[2^(i-1), 2^i)` (bucket 0 counts zeros), bucket `BUCKETS - 1` is the
/// overflow. 40 buckets cover 1 ns .. ~9 minutes of latency exactly.
pub const BUCKETS: usize = 40;

/// A monotonic counter handle. Disabled handles (from a disabled
/// registry) compile to a null-check and nothing else.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A handle that drops every update (the disabled registry's).
    pub fn noop() -> Self {
        Self(None)
    }

    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 for a disabled handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A gauge handle: a settable `f64` (stored as bits in an `AtomicU64`).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// A handle that drops every update (the disabled registry's).
    pub fn noop() -> Self {
        Self(None)
    }

    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(g) = &self.0 {
            g.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 for a disabled handle).
    pub fn get(&self) -> f64 {
        self.0.as_ref().map_or(0.0, |g| f64::from_bits(g.load(Ordering::Relaxed)))
    }
}

/// Shared storage of one histogram.
#[derive(Debug)]
pub struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// The bucket index a value lands in: 0 for 0, else
    /// `min(bits(v), BUCKETS - 1)` so bucket `i` spans `[2^(i-1), 2^i)`.
    fn bucket_of(v: u64) -> usize {
        ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// A log₂-bucket histogram handle.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// A handle that drops every update (the disabled registry's).
    pub fn noop() -> Self {
        Self(None)
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.buckets[HistogramCore::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
            h.sum.fetch_add(v, Ordering::Relaxed);
            h.count.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Observations recorded so far (0 for a disabled handle).
    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.count.load(Ordering::Relaxed))
    }

    /// Sum of all observations (0 for a disabled handle).
    pub fn sum(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.sum.load(Ordering::Relaxed))
    }
}

/// Label pairs attached to a metric, e.g. `[("worker", "lanes8#0")]`.
pub type Labels = Vec<(String, String)>;

/// One sample's value in a typed [`Registry::samples`] snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// A monotonic counter's current total.
    Counter(u64),
    /// A gauge's last-set value.
    Gauge(f64),
    /// A histogram's raw (non-cumulative) log₂ buckets plus sum/count.
    Histogram {
        /// Per-bucket observation counts, `BUCKETS` long.
        buckets: Vec<u64>,
        /// Sum of all observed values.
        sum: u64,
        /// Number of observations.
        count: u64,
    },
}

/// One `(name, labels, value)` sample from [`Registry::samples`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Metric family name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Labels,
    /// The typed value.
    pub value: SampleValue,
}

impl MetricSample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct MetricKey {
    name: String,
    labels: Labels,
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCore>),
}

impl Metric {
    fn type_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// The metrics registry: a lock-striped map from `(name, labels)` to an
/// atomic cell. Registration is idempotent — asking for the same
/// `(name, labels)` twice returns handles to the same cell, so totals
/// from different layers reconcile into one sample.
#[derive(Debug)]
pub struct Registry {
    shards: Vec<Mutex<HashMap<MetricKey, Metric>>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self { shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect() }
    }

    fn shard_of(key: &MetricKey) -> usize {
        // FNV-1a over the name only: all samples of one metric family
        // land in one shard, which keeps exposition grouping trivial.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in key.name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
        (h as usize) % SHARDS
    }

    fn register(&self, name: &str, labels: &[(&str, &str)], make: fn() -> Metric) -> Metric {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        for (k, _) in labels {
            assert!(valid_label_name(k), "invalid label name {k:?}");
        }
        let mut labels: Labels =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        labels.sort();
        let key = MetricKey { name: name.to_string(), labels };
        let mut shard = self.shards[Self::shard_of(&key)].lock().expect("registry shard");
        let entry = shard.entry(key).or_insert_with(make);
        let fresh = make();
        assert_eq!(
            entry.type_name(),
            fresh.type_name(),
            "metric {name:?} re-registered as a different type"
        );
        entry.clone()
    }

    /// Register (or look up) a counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, labels, || Metric::Counter(Arc::new(AtomicU64::new(0)))) {
            Metric::Counter(c) => Counter(Some(c)),
            _ => unreachable!("type checked in register"),
        }
    }

    /// Register (or look up) a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, labels, || {
            Metric::Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
        }) {
            Metric::Gauge(g) => Gauge(Some(g)),
            _ => unreachable!("type checked in register"),
        }
    }

    /// Register (or look up) a log₂-bucket histogram.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.register(name, labels, || Metric::Histogram(Arc::new(HistogramCore::new()))) {
            Metric::Histogram(h) => Histogram(Some(h)),
            _ => unreachable!("type checked in register"),
        }
    }

    /// Every registered sample, sorted by `(name, labels)` for a
    /// deterministic exposition.
    fn sorted(&self) -> Vec<(MetricKey, Metric)> {
        let mut out: Vec<(MetricKey, Metric)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("registry shard");
            out.extend(shard.iter().map(|(k, m)| (k.clone(), m.clone())));
        }
        out.sort_by(|(a, _), (b, _)| a.name.cmp(&b.name).then_with(|| a.labels.cmp(&b.labels)));
        out
    }

    /// A typed snapshot of every registered sample, sorted by
    /// `(name, labels)`. This is the programmatic sibling of the two
    /// text expositions: the sliding-window layer diffs consecutive
    /// snapshots into per-window deltas, and the flight recorder embeds
    /// one in its crash dump.
    pub fn samples(&self) -> Vec<MetricSample> {
        self.sorted()
            .into_iter()
            .map(|(key, metric)| MetricSample {
                name: key.name,
                labels: key.labels,
                value: match metric {
                    Metric::Counter(c) => SampleValue::Counter(c.load(Ordering::Relaxed)),
                    Metric::Gauge(g) => {
                        SampleValue::Gauge(f64::from_bits(g.load(Ordering::Relaxed)))
                    }
                    Metric::Histogram(h) => SampleValue::Histogram {
                        buckets: h.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
                        sum: h.sum.load(Ordering::Relaxed),
                        count: h.count.load(Ordering::Relaxed),
                    },
                },
            })
            .collect()
    }

    /// Render the Prometheus text exposition format (version 0.0.4):
    /// one `# TYPE` line per metric family, histogram families expanded
    /// into cumulative `_bucket{le=...}`, `_sum` and `_count` samples.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut last_family = String::new();
        for (key, metric) in self.sorted() {
            if key.name != last_family {
                writeln!(out, "# TYPE {} {}", key.name, metric.type_name()).expect("write");
                last_family = key.name.clone();
            }
            match metric {
                Metric::Counter(c) => {
                    writeln!(
                        out,
                        "{}{} {}",
                        key.name,
                        render_labels(&key.labels, None),
                        c.load(Ordering::Relaxed)
                    )
                    .expect("write");
                }
                Metric::Gauge(g) => {
                    writeln!(
                        out,
                        "{}{} {}",
                        key.name,
                        render_labels(&key.labels, None),
                        fmt_f64(f64::from_bits(g.load(Ordering::Relaxed)))
                    )
                    .expect("write");
                }
                Metric::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (i, b) in h.buckets.iter().enumerate() {
                        cumulative += b.load(Ordering::Relaxed);
                        let le = if i == BUCKETS - 1 {
                            "+Inf".to_string()
                        } else {
                            // Bucket i spans [2^(i-1), 2^i): upper bound
                            // 2^i - 1 inclusive ⇒ le = 2^i - 1.
                            ((1u128 << i) - 1).to_string()
                        };
                        writeln!(
                            out,
                            "{}_bucket{} {}",
                            key.name,
                            render_labels(&key.labels, Some(&le)),
                            cumulative
                        )
                        .expect("write");
                    }
                    writeln!(
                        out,
                        "{}_sum{} {}",
                        key.name,
                        render_labels(&key.labels, None),
                        h.sum.load(Ordering::Relaxed)
                    )
                    .expect("write");
                    writeln!(
                        out,
                        "{}_count{} {}",
                        key.name,
                        render_labels(&key.labels, None),
                        h.count.load(Ordering::Relaxed)
                    )
                    .expect("write");
                }
            }
        }
        out
    }

    /// Render a JSON snapshot: an array of sample objects, sorted by
    /// `(name, labels)`.
    pub fn snapshot_json(&self) -> String {
        use std::fmt::Write as _;
        let mut body = String::new();
        for (key, metric) in self.sorted() {
            if !body.is_empty() {
                body.push_str(",\n");
            }
            let labels = key
                .labels
                .iter()
                .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
                .collect::<Vec<_>>()
                .join(", ");
            match metric {
                Metric::Counter(c) => {
                    write!(
                        body,
                        "  {{\"name\": {}, \"type\": \"counter\", \"labels\": {{{labels}}}, \"value\": {}}}",
                        json_string(&key.name),
                        c.load(Ordering::Relaxed)
                    )
                    .expect("write");
                }
                Metric::Gauge(g) => {
                    write!(
                        body,
                        "  {{\"name\": {}, \"type\": \"gauge\", \"labels\": {{{labels}}}, \"value\": {}}}",
                        json_string(&key.name),
                        fmt_f64(f64::from_bits(g.load(Ordering::Relaxed)))
                    )
                    .expect("write");
                }
                Metric::Histogram(h) => {
                    let buckets = h
                        .buckets
                        .iter()
                        .map(|b| b.load(Ordering::Relaxed).to_string())
                        .collect::<Vec<_>>()
                        .join(", ");
                    write!(
                        body,
                        "  {{\"name\": {}, \"type\": \"histogram\", \"labels\": {{{labels}}}, \"buckets\": [{buckets}], \"sum\": {}, \"count\": {}}}",
                        json_string(&key.name),
                        h.sum.load(Ordering::Relaxed),
                        h.count.load(Ordering::Relaxed)
                    )
                    .expect("write");
                }
            }
        }
        format!("[\n{body}\n]\n")
    }
}

/// `true` for a legal Prometheus metric name: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// `true` for a legal label name: `[a-zA-Z_][a-zA-Z0-9_]*`.
fn valid_label_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Escape a label value for the text exposition: `\`, `"` and newline.
fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn render_labels(labels: &Labels, le: Option<&str>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// `s` as a JSON string literal, quotes included: the one escaper behind
/// every hand-rolled JSON writer above this crate (metrics, traces,
/// flight dumps, checkpoints, job records, the serve socket).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Format a float so it round-trips through the expositions: finite
/// values print plainly, non-finite as Prometheus spells them.
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf".into() } else { "-Inf".into() }
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_cells() {
        let r = Registry::new();
        let a = r.counter("eks_keys_tested_total", &[("worker", "w0")]);
        let b = r.counter("eks_keys_tested_total", &[("worker", "w0")]);
        a.add(5);
        b.add(7);
        assert_eq!(a.get(), 12, "same (name, labels) shares one cell");
        let other = r.counter("eks_keys_tested_total", &[("worker", "w1")]);
        other.inc();
        assert_eq!(other.get(), 1);
    }

    #[test]
    fn label_order_does_not_split_cells() {
        let r = Registry::new();
        let a = r.counter("m_total", &[("a", "1"), ("b", "2")]);
        let b = r.counter("m_total", &[("b", "2"), ("a", "1")]);
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    fn gauges_hold_the_last_value() {
        let r = Registry::new();
        let g = r.gauge("eks_rate_mkeys", &[]);
        g.set(12.5);
        g.set(99.25);
        assert_eq!(g.get(), 99.25);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(HistogramCore::bucket_of(0), 0);
        assert_eq!(HistogramCore::bucket_of(1), 1);
        assert_eq!(HistogramCore::bucket_of(2), 2);
        assert_eq!(HistogramCore::bucket_of(3), 2);
        assert_eq!(HistogramCore::bucket_of(4), 3);
        assert_eq!(HistogramCore::bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_sum_and_count_track_observations() {
        let r = Registry::new();
        let h = r.histogram("eks_scan_ns", &[("worker", "w0")]);
        h.observe(3);
        h.observe(100);
        h.observe(0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 103);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let r = Registry::new();
        r.counter("eks_keys_tested_total", &[("worker", "a\"b")]).add(42);
        r.gauge("eks_efficiency", &[]).set(0.875);
        r.histogram("eks_scan_ns", &[]).observe(5);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE eks_keys_tested_total counter"), "{text}");
        assert!(text.contains("eks_keys_tested_total{worker=\"a\\\"b\"} 42"), "{text}");
        assert!(text.contains("# TYPE eks_efficiency gauge"), "{text}");
        assert!(text.contains("eks_efficiency 0.875"), "{text}");
        assert!(text.contains("eks_scan_ns_bucket{le=\"+Inf\"} 1"), "{text}");
        assert!(text.contains("eks_scan_ns_sum 5"), "{text}");
        assert!(text.contains("eks_scan_ns_count 1"), "{text}");
        // Buckets are cumulative: the le="7" bucket already holds the 5.
        assert!(text.contains("eks_scan_ns_bucket{le=\"7\"} 1"), "{text}");
    }

    #[test]
    fn json_snapshot_is_valid_enough_to_grep() {
        let r = Registry::new();
        r.counter("a_total", &[("k", "v")]).add(1);
        r.histogram("h_ns", &[]).observe(9);
        let json = r.snapshot_json();
        assert!(json.contains("\"name\": \"a_total\""), "{json}");
        assert!(json.contains("\"type\": \"histogram\""), "{json}");
        assert!(json.contains("\"sum\": 9"), "{json}");
    }

    #[test]
    fn typed_samples_mirror_the_expositions() {
        let r = Registry::new();
        r.counter("a_total", &[("worker", "w0")]).add(7);
        r.gauge("g", &[]).set(2.5);
        r.histogram("h_ns", &[]).observe(9);
        let samples = r.samples();
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].name, "a_total");
        assert_eq!(samples[0].label("worker"), Some("w0"));
        assert_eq!(samples[0].value, SampleValue::Counter(7));
        assert_eq!(samples[1].value, SampleValue::Gauge(2.5));
        match &samples[2].value {
            SampleValue::Histogram { buckets, sum, count } => {
                assert_eq!(buckets.len(), BUCKETS);
                assert_eq!(*sum, 9);
                assert_eq!(*count, 1);
                assert_eq!(buckets[HistogramCore::bucket_of(9)], 1);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn noop_handles_do_nothing() {
        let c = Counter::noop();
        c.add(5);
        assert_eq!(c.get(), 0);
        let g = Gauge::noop();
        g.set(1.0);
        assert_eq!(g.get(), 0.0);
        let h = Histogram::noop();
        h.observe(5);
        assert_eq!(h.count(), 0);
    }

    #[test]
    #[should_panic]
    fn type_conflicts_panic() {
        let r = Registry::new();
        r.counter("same_name", &[]);
        r.gauge("same_name", &[]);
    }

    #[test]
    #[should_panic]
    fn invalid_names_panic() {
        let r = Registry::new();
        r.counter("bad name with spaces", &[]);
    }
}
