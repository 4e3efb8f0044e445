//! Sliding-window aggregation: a bounded ring of per-window metric
//! deltas diffed from consecutive [`crate::Registry::samples`] snapshots.
//!
//! The registry's counters and histograms are cumulative — perfect for
//! end-of-run reconciliation, useless for asking "what happened in the
//! last second". A [`WindowBook`] closes that gap: every `width_ns` of
//! the run's [`Clock`](crate::Clock) it snapshots the registry, diffs
//! against the previous snapshot, and stores the delta as one
//! [`Window`]. Counters and histogram buckets become per-window deltas;
//! gauges keep their last-set value (they are levels, not flows). The
//! deltas telescope: summed over every window (plus one final flush)
//! they reproduce the registry totals exactly, which
//! `tests/telemetry_reconcile.rs` pins as a seeded property under
//! concurrent steal interleavings.
//!
//! The anomaly detector ([`crate::anomaly`]) consumes these windows;
//! the flight recorder ([`crate::flight`]) dumps the recent ring.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::metrics::{Labels, MetricSample, SampleValue};
use crate::Telemetry;

/// One flushed window: the registry's activity in `[start_ns, end_ns)`.
#[derive(Debug, Clone)]
pub struct Window {
    /// Flush sequence number, starting at 0.
    pub index: u64,
    /// Clock ns at the previous flush (run start for window 0).
    pub start_ns: u64,
    /// Clock ns at this flush.
    pub end_ns: u64,
    /// Per-metric deltas (counters, histograms) and levels (gauges),
    /// sorted by `(name, labels)` like the snapshot they diff.
    pub samples: Vec<MetricSample>,
}

impl Window {
    /// Sum of every counter delta named `name` (all label sets).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| match s.value {
                SampleValue::Counter(v) => Some(v),
                _ => None,
            })
            .sum()
    }

    /// The counter delta for one `(name, label==value)` cell.
    pub fn counter_delta(&self, name: &str, label: &str, value: &str) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.name == name && s.label(label) == Some(value))
            .filter_map(|s| match s.value {
                SampleValue::Counter(v) => Some(v),
                _ => None,
            })
            .sum()
    }

    /// The last-set gauge value for one `(name, label==value)` cell.
    pub fn gauge(&self, name: &str, label: &str, value: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == name && s.label(label) == Some(value))
            .and_then(|s| match s.value {
                SampleValue::Gauge(v) => Some(v),
                _ => None,
            })
    }

    /// Merged (all label sets) histogram bucket deltas for `name`,
    /// with the window's observation count.
    pub fn histogram_buckets(&self, name: &str) -> Option<(Vec<u64>, u64)> {
        let mut merged: Option<Vec<u64>> = None;
        let mut total = 0u64;
        for s in self.samples.iter().filter(|s| s.name == name) {
            if let SampleValue::Histogram { buckets, count, .. } = &s.value {
                let acc = merged.get_or_insert_with(|| vec![0; buckets.len()]);
                for (a, b) in acc.iter_mut().zip(buckets) {
                    *a += b;
                }
                total += count;
            }
        }
        merged.map(|b| (b, total))
    }
}

#[derive(Default)]
struct Inner {
    /// Previous cumulative snapshot, keyed for the diff.
    prev: HashMap<(String, Labels), SampleValue>,
    /// The bounded ring of flushed windows, oldest first.
    windows: VecDeque<Window>,
    next_index: u64,
    last_flush_ns: u64,
}

/// The sliding-window ring. One per process; attach it to the
/// [`Telemetry`] handle through a [`crate::anomaly::LivePlane`].
pub struct WindowBook {
    width_ns: u64,
    capacity: usize,
    /// Fast-path copy of `Inner::last_flush_ns`: instrumented hot paths
    /// poll [`WindowBook::maybe_flush`] per chunk, and this atomic lets
    /// the not-due-yet case return after one load without the lock.
    last_flush_ns: AtomicU64,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for WindowBook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowBook").field("width_ns", &self.width_ns).finish_non_exhaustive()
    }
}

impl WindowBook {
    /// A ring of up to `capacity` windows, flushed every `width_ns` of
    /// the telemetry clock.
    ///
    /// # Panics
    /// Panics when `width_ns == 0` or `capacity == 0`.
    pub fn new(width_ns: u64, capacity: usize) -> Self {
        assert!(width_ns > 0, "window width must be positive");
        assert!(capacity > 0, "window ring needs capacity");
        Self {
            width_ns,
            capacity,
            last_flush_ns: AtomicU64::new(0),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The configured window width.
    pub fn width_ns(&self) -> u64 {
        self.width_ns
    }

    /// Flush a window if at least one width has elapsed on the
    /// telemetry clock since the last flush. The cheap path — called
    /// per chunk from the dispatcher — is a single atomic load.
    pub fn maybe_flush(&self, telemetry: &Telemetry) -> Option<Window> {
        let now = telemetry.now_ns();
        if now.saturating_sub(self.last_flush_ns.load(Ordering::Relaxed)) < self.width_ns {
            return None;
        }
        let mut inner = self.inner.lock().expect("window book");
        // Re-check under the lock: another thread may have just flushed.
        if now.saturating_sub(inner.last_flush_ns) < self.width_ns {
            return None;
        }
        Some(self.flush_locked(&mut inner, telemetry, now))
    }

    /// Unconditionally flush a window (the final end-of-run flush, and
    /// what tests drive directly).
    pub fn flush(&self, telemetry: &Telemetry) -> Window {
        let now = telemetry.now_ns();
        let mut inner = self.inner.lock().expect("window book");
        self.flush_locked(&mut inner, telemetry, now)
    }

    fn flush_locked(&self, inner: &mut Inner, telemetry: &Telemetry, now: u64) -> Window {
        let snapshot = telemetry.metrics_snapshot();
        let mut samples = Vec::with_capacity(snapshot.len());
        for cur in &snapshot {
            let key = (cur.name.clone(), cur.labels.clone());
            let delta = match (&cur.value, inner.prev.get(&key)) {
                (SampleValue::Counter(c), prev) => {
                    let base = match prev {
                        Some(SampleValue::Counter(p)) => *p,
                        _ => 0,
                    };
                    SampleValue::Counter(c.saturating_sub(base))
                }
                (SampleValue::Histogram { buckets, sum, count }, prev) => {
                    let (pb, ps, pc) = match prev {
                        Some(SampleValue::Histogram { buckets, sum, count }) => {
                            (Some(buckets), *sum, *count)
                        }
                        _ => (None, 0, 0),
                    };
                    SampleValue::Histogram {
                        buckets: buckets
                            .iter()
                            .enumerate()
                            .map(|(i, b)| {
                                b.saturating_sub(pb.and_then(|p| p.get(i)).copied().unwrap_or(0))
                            })
                            .collect(),
                        sum: sum.saturating_sub(ps),
                        count: count.saturating_sub(pc),
                    }
                }
                // Gauges are levels: the window carries the last value.
                (SampleValue::Gauge(g), _) => SampleValue::Gauge(*g),
            };
            samples.push(MetricSample { name: cur.name.clone(), labels: cur.labels.clone(), value: delta });
        }
        inner.prev =
            snapshot.into_iter().map(|s| ((s.name.clone(), s.labels.clone()), s.value)).collect();
        let window = Window {
            index: inner.next_index,
            start_ns: inner.last_flush_ns,
            end_ns: now,
            samples,
        };
        inner.next_index += 1;
        inner.last_flush_ns = now;
        self.last_flush_ns.store(now, Ordering::Relaxed);
        if inner.windows.len() == self.capacity {
            inner.windows.pop_front();
        }
        inner.windows.push_back(window.clone());
        window
    }

    /// The retained ring, oldest first.
    pub fn windows(&self) -> Vec<Window> {
        self.inner.lock().expect("window book").windows.iter().cloned().collect()
    }

    /// Windows flushed so far (including ones the ring has evicted).
    pub fn flushed(&self) -> u64 {
        self.inner.lock().expect("window book").next_index
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::{names, ManualClock};

    #[test]
    fn deltas_telescope_to_registry_totals() {
        let clock = Arc::new(ManualClock::new());
        let t = Telemetry::with_clock(clock.clone());
        let book = WindowBook::new(100, 8);
        let c = t.counter(names::KEYS_TESTED, &[("worker", "w0")]);
        let mut windows = Vec::new();
        for step in 1..=5u64 {
            c.add(step * 10);
            clock.advance(100);
            windows.push(book.flush(&t));
        }
        let summed: u64 = windows.iter().map(|w| w.counter_total(names::KEYS_TESTED)).sum();
        assert_eq!(summed, c.get(), "window deltas telescope to the cumulative total");
        assert_eq!(windows.last().unwrap().counter_total(names::KEYS_TESTED), 50);
    }

    #[test]
    fn maybe_flush_honors_width_and_ring_capacity() {
        let clock = Arc::new(ManualClock::new());
        let t = Telemetry::with_clock(clock.clone());
        let book = WindowBook::new(1_000, 2);
        assert!(book.maybe_flush(&t).is_none(), "no width elapsed yet");
        clock.advance(999);
        assert!(book.maybe_flush(&t).is_none());
        clock.advance(1);
        let w = book.maybe_flush(&t).expect("one width elapsed");
        assert_eq!((w.index, w.start_ns, w.end_ns), (0, 0, 1_000));
        for _ in 0..3 {
            clock.advance(1_000);
            assert!(book.maybe_flush(&t).is_some());
        }
        assert_eq!(book.flushed(), 4);
        assert_eq!(book.windows().len(), 2, "ring keeps only the newest windows");
        assert_eq!(book.windows().last().map(|w| w.index), Some(3));
    }

    #[test]
    fn histograms_diff_per_bucket_and_gauges_keep_levels() {
        let clock = Arc::new(ManualClock::new());
        let t = Telemetry::with_clock(clock.clone());
        let book = WindowBook::new(10, 4);
        let h = t.histogram(names::SCAN_NS, &[("worker", "w0")]);
        let g = t.gauge(names::WORKER_RATE_EST, &[("worker", "w0")]);
        h.observe(5);
        g.set(3.5);
        clock.advance(10);
        book.flush(&t);
        h.observe(900);
        g.set(1.25);
        clock.advance(10);
        let w = book.flush(&t);
        let (buckets, count) = w.histogram_buckets(names::SCAN_NS).expect("histogram present");
        assert_eq!(count, 1, "only the second observation is in this window");
        assert_eq!(buckets.iter().sum::<u64>(), 1);
        assert_eq!(w.gauge(names::WORKER_RATE_EST, "worker", "w0"), Some(1.25));
    }
}
