//! The traced pass of one workload: the same closed loop as the untraced
//! pass, but alternating an instance that records the benchmark's own
//! spans with one that does not, so the cost of tracing is measured by
//! the same run that produces the spans.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use crate::estimator;
use crate::run::{median_share, pilot, timed_slice, Ruler, Slices, PILOT_SLICES};
use crate::spans::{self, Span, Tracer};
use crate::workloads;
use crate::yard::{Reading, Yard};

/// Slices of each instance between two readings of the wide share.
const SLICES_PER_SHARE: u64 = 6;

pub struct Traced {
    pub workload: String,
    pub ruler: Ruler,
    /// Threads the workload was configured with.
    pub threads: usize,
    pub untraced: Slices,
    pub traced: Slices,
    pub spans: Vec<Span>,
    pub failed: u64,
}

impl Traced {
    pub fn attempted(&self) -> u64 {
        (2 * PILOT_SLICES + self.untraced.len() + self.traced.len()) as u64 + 1
    }

    /// Seconds per key at reference speed, tracing off.
    pub fn norm_s_per_key(&self) -> f64 {
        self.untraced.s_per_key(self.ruler.wide_share)
    }

    /// MKey/s at reference speed by one yardstick variant alone.
    pub fn mkeys_by(&self, yard: Yard) -> f64 {
        1e-6 / self
            .untraced
            .s_per_key(f64::from(u8::from(yard == Yard::Wide)))
    }

    /// How much slower the traced instance ran, in percent.
    pub fn overhead_pct(&self) -> f64 {
        let w = self.ruler.wide_share;
        (self.traced.s_per_key(w) / self.untraced.s_per_key(w) - 1.0) * 100.0
    }

    pub fn median_keys(&self) -> f64 {
        self.untraced.median_of(|s| s.out.keys as f64)
    }

    /// Workers the product ran per slice (as it reports them, else the
    /// thread count it was configured with).
    pub fn workers(&self) -> f64 {
        match self.untraced.0.first() {
            Some(s) if s.out.workers > 0 => s.out.workers as f64,
            _ => self.threads as f64,
        }
    }

    fn reports_stats(&self) -> bool {
        self.untraced.0.first().is_some_and(|s| s.out.workers > 0)
    }

    /// 1 − Σ busy time ÷ (workers × slice time) from the product's own
    /// `WorkerStats` (median over slices): the same share as
    /// [`Traced::dispatch_self_share`], for workloads whose backend cannot
    /// be wrapped. `None` when the product reports no stats.
    pub fn unbusy_share(&self) -> Option<f64> {
        self.reports_stats().then(|| {
            self.untraced
                .median_of(|s| 1.0 - s.out.busy_ns as f64 / (s.out.workers as f64 * s.t * 1e9))
        })
    }

    /// Busy share of accounted worker time, busy ÷ (busy + idle), from
    /// the product's own `WorkerStats` (median over slices); `None` when
    /// it reports none.
    pub fn busy_share(&self) -> Option<f64> {
        self.reports_stats().then(|| {
            self.untraced
                .median_of(|s| s.out.busy_ns as f64 / (s.out.busy_ns + s.out.idle_ns).max(1) as f64)
        })
    }

    pub fn steals_per_slice(&self) -> f64 {
        self.untraced.median_of(|s| s.out.steals as f64)
    }

    /// Per traced slice: its duration, and the number and total duration
    /// of the `scan` spans recorded under it.
    fn scans_per_slice(&self) -> Vec<(u64, u64, u64)> {
        let mut by_slice: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let entry = by_slice.entry(s.slice).or_default();
            match s.name {
                "slice" => entry.0 = s.dur_ns(),
                "scan" => {
                    entry.1 += 1;
                    entry.2 += s.dur_ns();
                }
                _ => {}
            }
        }
        by_slice
            .into_values()
            .filter(|&(dur, scans, _)| dur > 0 && scans > 0)
            .collect()
    }

    /// `scan` spans per slice (median): the chunks the dispatcher cut.
    /// `None` when the workload has no wrap point for a tracing backend.
    pub fn chunks_per_slice(&self) -> Option<f64> {
        let counts: Vec<f64> = self.scans_per_slice().iter().map(|s| s.1 as f64).collect();
        (!counts.is_empty()).then(|| estimator::median(&counts))
    }

    /// 1 − Σ scan-span time ÷ (workers × slice time), median over slices:
    /// the share of worker time not spent inside `Backend::scan`.
    pub fn dispatch_self_share(&self) -> Option<f64> {
        let workers = self.workers();
        let shares: Vec<f64> = self
            .scans_per_slice()
            .iter()
            .map(|&(dur, _, in_scan)| 1.0 - in_scan as f64 / (workers * dur as f64))
            .collect();
        (!shares.is_empty()).then(|| estimator::median(&shares))
    }

    /// Self time per span name as a share of all worker time (workers ×
    /// slice time): spans of parallel workers add up.
    pub fn self_shares(&self) -> Vec<(&'static str, f64, u64)> {
        let slices = self.spans.iter().filter(|s| s.name == "slice");
        let total = self.workers() * slices.map(Span::dur_ns).sum::<u64>() as f64;
        spans::self_ns_by_name(&self.spans)
            .into_iter()
            .map(|(name, own, n)| (name, own as f64 / total.max(1.0), n))
            .collect()
    }

    /// Write the spans to `benchmark/out/trace-<workload>.json`.
    pub fn write(&self) -> std::io::Result<std::path::PathBuf> {
        let dir = workloads::out_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("trace-{}.json", self.workload));
        std::fs::write(&path, spans::to_json(&self.spans))?;
        Ok(path)
    }
}

/// Alternate traced and untraced slices of `name` for `seconds`, the
/// yardstick between every two. Both instances get the same seed, so the
/// i-th slice of each is the same search.
pub fn traced_pass(name: &str, seed: u64, seconds: f64) -> Option<Traced> {
    let nproc = workloads::nproc();
    let tracer = Arc::new(Tracer::new());
    let mut plain = workloads::build(name, seed, nproc, None)?;
    let mut traced = workloads::build(name, seed, nproc, Some(tracer.clone()))?;
    let mut failed = u64::from(!plain.warm()) + u64::from(!traced.warm());
    // Both instances run the pilot, so that they stay in step.
    let (threads, pilot_failed) = pilot(&mut *plain);
    failed += pilot_failed + pilot(&mut *traced).1;
    let mut untraced_slices = Slices::default();
    let mut traced_slices = Slices::default();
    let mut shares = Vec::new();
    Reading::take(threads);
    let mut prev = Reading::take(threads);
    let start = Instant::now();
    // The warm-up and pilot spans are not part of any measured slice.
    let skip = tracer.snapshot().len();
    let mut slice = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        slice += 1;
        tracer.set_slice(slice);
        // Alternate which instance goes first.
        let traced_first = slice.is_multiple_of(2);
        for traced_turn in [traced_first, !traced_first] {
            let (w, side) = if traced_turn {
                (&mut traced, &mut traced_slices)
            } else {
                (&mut plain, &mut untraced_slices)
            };
            let s = timed_slice(&mut **w, threads, &mut prev);
            failed += u64::from(!s.out.ok);
            side.0.push(s);
        }
        if slice.is_multiple_of(SLICES_PER_SHARE) {
            shares.extend(plain.wide_share());
            prev = Reading::take(threads);
        }
    }
    failed += u64::from(!(plain.finish() && traced.finish()));
    Some(Traced {
        workload: name.to_string(),
        ruler: Ruler {
            threads,
            wide_share: median_share(&shares),
        },
        threads: plain.threads(),
        untraced: untraced_slices,
        traced: traced_slices,
        spans: tracer.snapshot().split_off(skip),
        failed,
    })
}
