//! Live per-worker throughput estimation: the feedback half of the
//! closed-loop balancer.
//!
//! The paper's balancing step (Section III) sizes every scatter share
//! from a rate measured *once*, in the tuning step (Section VI). That
//! estimate goes stale the moment the test function's per-key cost
//! varies (iterated KDFs) or a neighbour steals cycles. This module
//! closes the loop: every chunk scan already gets timed for the
//! `eks_scan_ns` histogram, and the same `(tested, elapsed)` pair feeds
//! a per-worker EWMA [`RateEstimator`]. A confidence gate keeps cold
//! estimates honest — until a worker has `WARMUP_SAMPLES` scans on
//! record, its estimate *is* its tuned rate, so consumers can always
//! read a usable weight.
//!
//! [`RateBook`] is the shared, thread-safe fleet view the dispatcher
//! threads write into and the re-scatter controller reads; the pure
//! helpers ([`eta_drift_pct`]) turn a `(remaining, rate)` snapshot into
//! the divergence figure the controller thresholds on.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// EWMA smoothing factor: one third of each new sample, two thirds of
/// history — reactive enough to track a KDF's cost drift within a few
/// chunks, damped enough that one cache-cold chunk does not flip the
/// scatter.
const EWMA_ALPHA: f64 = 1.0 / 3.0;

/// Scans a worker must complete before its live estimate is trusted
/// over the tuned rate.
const WARMUP_SAMPLES: u64 = 3;

/// Exponentially-weighted moving average of one worker's observed scan
/// throughput, gated by a warm-up count.
#[derive(Debug, Clone)]
pub struct RateEstimator {
    tuned_mkeys: f64,
    est_keys_per_sec: f64,
    samples: u64,
}

impl RateEstimator {
    /// A cold estimator falling back to `tuned_mkeys` (the Section VI
    /// tuning figure) until warmed up. Non-finite or non-positive tuned
    /// rates are clamped to a small positive floor so weights derived
    /// from the estimator never degenerate.
    pub fn new(tuned_mkeys: f64) -> Self {
        let tuned = if tuned_mkeys.is_finite() && tuned_mkeys > 0.0 { tuned_mkeys } else { 0.01 };
        Self { tuned_mkeys: tuned, est_keys_per_sec: 0.0, samples: 0 }
    }

    /// Feed one timed scan: `tested` keys in `dur_ns` nanoseconds.
    /// Zero-duration or zero-work scans are ignored (no information).
    pub fn observe(&mut self, tested: u128, dur_ns: u64) {
        if dur_ns == 0 || tested == 0 {
            return;
        }
        let sample = tested as f64 * 1e9 / dur_ns as f64;
        if !sample.is_finite() {
            return;
        }
        self.est_keys_per_sec = if self.samples == 0 {
            sample
        } else {
            EWMA_ALPHA * sample + (1.0 - EWMA_ALPHA) * self.est_keys_per_sec
        };
        self.samples += 1;
    }

    /// Scans observed so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Whether the estimate has cleared the warm-up gate.
    fn is_warm(&self) -> bool {
        self.samples >= WARMUP_SAMPLES
    }

    /// The gated rate in MKey/s: the live EWMA once warm, the tuned
    /// fallback before.
    pub fn mkeys(&self) -> f64 {
        if self.is_warm() {
            self.est_keys_per_sec / 1e6
        } else {
            self.tuned_mkeys
        }
    }

    /// The gated rate in keys per second.
    pub fn keys_per_sec(&self) -> f64 {
        self.mkeys() * 1e6
    }

    /// The tuned fallback this estimator was seeded with, MKey/s.
    pub fn tuned_mkeys(&self) -> f64 {
        self.tuned_mkeys
    }
}

/// The fleet's shared rate ledger: one estimator per deque slot,
/// written by the owning worker thread at chunk granularity, read by
/// whichever worker the re-scatter controller elects.
#[derive(Debug)]
pub struct RateBook {
    slots: Vec<Mutex<RateEstimator>>,
}

impl RateBook {
    /// One estimator per slot, seeded with that slot's tuned rate.
    pub fn new(tuned_mkeys: Vec<f64>) -> Self {
        Self { slots: tuned_mkeys.into_iter().map(|t| Mutex::new(RateEstimator::new(t))).collect() }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the book tracks no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Feed one timed scan for `slot`.
    pub fn observe(&self, slot: usize, tested: u128, dur_ns: u64) {
        if let Some(cell) = self.slots.get(slot) {
            cell.lock().expect("rate cell").observe(tested, dur_ns);
        }
    }

    /// The gated rate of `slot` in keys per second.
    pub fn keys_per_sec(&self, slot: usize) -> f64 {
        self.slots.get(slot).map_or(0.0, |c| c.lock().expect("rate cell").keys_per_sec())
    }

    /// The gated rate of `slot` in MKey/s.
    pub fn mkeys(&self, slot: usize) -> f64 {
        self.slots.get(slot).map_or(0.0, |c| c.lock().expect("rate cell").mkeys())
    }

    /// The tuned fallback `slot` was seeded with, MKey/s.
    pub fn tuned_mkeys(&self, slot: usize) -> f64 {
        self.slots.get(slot).map_or(0.0, |c| c.lock().expect("rate cell").tuned_mkeys())
    }

    /// The gated per-slot rates as scatter weights (MKey/s).
    pub fn weights(&self) -> Vec<f64> {
        (0..self.slots.len()).map(|s| self.mkeys(s)).collect()
    }
}

/// Estimated-time-to-drain divergence across a fleet snapshot, in
/// percent: `100 × (eta_max − eta_min) / eta_max`, where each slot's
/// `eta` is `remaining / rate`. Zero means the remainders are already
/// rate-proportional (every worker finishes together — the paper's
/// ideal scatter); 100 means at least one worker would sit idle for the
/// whole tail.
///
/// When `include_empty` is false, drained slots are ignored — under a
/// stealing policy an empty slot feeds itself, so only the imbalance
/// *among loaded slots* argues for a re-scatter. Under a static policy
/// the caller passes true: a drained worker stays idle unless the
/// controller moves work to it.
///
/// Returns 0 for degenerate snapshots (no work, no positive rates).
pub fn eta_drift_pct(remaining: &[u128], rates_mkeys: &[f64], include_empty: bool) -> f64 {
    let mut eta_max = 0.0f64;
    let mut eta_min = f64::INFINITY;
    let mut seen = false;
    for (rem, rate) in remaining.iter().zip(rates_mkeys) {
        if !rate.is_finite() || *rate <= 0.0 {
            continue;
        }
        if *rem == 0 && !include_empty {
            continue;
        }
        let eta = *rem as f64 / rate;
        eta_max = eta_max.max(eta);
        eta_min = eta_min.min(eta);
        seen = true;
    }
    if !seen || eta_max <= 0.0 {
        return 0.0;
    }
    100.0 * (eta_max - eta_min) / eta_max
}

/// The re-scatter controller: fleet-wide chunk counter electing one
/// worker to re-evaluate the balance every `every_chunks` pops. The CAS
/// reset guarantees at most one worker wins each election, so rescatter
/// attempts never pile up.
#[derive(Debug)]
pub struct RetuneControl {
    every_chunks: u64,
    chunks: AtomicU64,
    rescatters: AtomicU64,
}

impl RetuneControl {
    /// A controller re-evaluating every `every_chunks` chunk scans
    /// (clamped to at least 1).
    pub fn new(every_chunks: u64) -> Self {
        Self {
            every_chunks: every_chunks.max(1),
            chunks: AtomicU64::new(0),
            rescatters: AtomicU64::new(0),
        }
    }

    /// Count one chunk; true when this call elected the caller to run a
    /// drift check.
    pub fn tick(&self) -> bool {
        let n = self.chunks.fetch_add(1, Ordering::Relaxed) + 1;
        // Only one caller observes each exact multiple, so the fetch_add
        // itself is the election.
        n.is_multiple_of(self.every_chunks)
    }

    /// Record one performed re-scatter.
    pub fn record_rescatter(&self) {
        self.rescatters.fetch_add(1, Ordering::Relaxed);
    }

    /// Re-scatters performed so far.
    pub fn rescatters(&self) -> u64 {
        self.rescatters.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_estimator_reports_the_tuned_rate() {
        let e = RateEstimator::new(12.5);
        assert!(!e.is_warm());
        assert_eq!(e.mkeys(), 12.5);
        assert_eq!(e.keys_per_sec(), 12.5e6);
    }

    #[test]
    fn warmup_gate_opens_after_three_samples() {
        let mut e = RateEstimator::new(1.0);
        // 2e6 keys/s observed, tuned says 1e6.
        for _ in 0..WARMUP_SAMPLES {
            assert_eq!(e.mkeys(), 1.0, "cold estimate falls back to tuned");
            e.observe(2_000_000, 1_000_000_000);
        }
        assert!(e.is_warm());
        assert!((e.mkeys() - 2.0).abs() < 1e-9, "warm estimate tracks observations");
    }

    #[test]
    fn ewma_converges_toward_a_rate_step() {
        let mut e = RateEstimator::new(1.0);
        for _ in 0..10 {
            e.observe(4_000_000, 1_000_000_000);
        }
        // Step down: cost quadruples.
        for _ in 0..20 {
            e.observe(1_000_000, 1_000_000_000);
        }
        assert!((e.mkeys() - 1.0).abs() < 0.01, "EWMA follows the step, got {}", e.mkeys());
    }

    #[test]
    fn degenerate_observations_are_ignored() {
        let mut e = RateEstimator::new(3.0);
        e.observe(0, 100);
        e.observe(100, 0);
        assert_eq!(e.samples(), 0);
        assert_eq!(e.mkeys(), 3.0);
    }

    #[test]
    fn bad_tuned_rates_are_clamped_positive() {
        for bad in [0.0, -4.0, f64::NAN, f64::INFINITY] {
            let e = RateEstimator::new(bad);
            assert!(e.mkeys() > 0.0, "tuned {bad} must clamp positive");
        }
    }

    #[test]
    fn rate_book_gates_per_slot() {
        let book = RateBook::new(vec![2.0, 8.0]);
        assert_eq!(book.weights(), vec![2.0, 8.0], "cold book returns tuned weights");
        for _ in 0..WARMUP_SAMPLES {
            book.observe(0, 4_000_000, 1_000_000_000);
        }
        let [slot0, slot1] = book.slots.as_slice() else { panic!("two slots") };
        assert!(slot0.lock().unwrap().is_warm());
        assert!(!slot1.lock().unwrap().is_warm());
        let [w0, w1] = book.weights()[..] else { panic!("two weights") };
        assert!((w0 - 4.0).abs() < 1e-9, "slot 0 is live");
        assert_eq!(w1, 8.0, "slot 1 still tuned");
    }

    #[test]
    fn eta_drift_is_zero_for_proportional_remainders() {
        // remaining 4:1 over rates 4:1 — both drain together.
        assert_eq!(eta_drift_pct(&[4000, 1000], &[4.0, 1.0], true), 0.0);
    }

    #[test]
    fn eta_drift_flags_a_starved_fast_worker() {
        // The fast worker is empty while the slow one holds everything.
        let d = eta_drift_pct(&[0, 8000], &[4.0, 1.0], true);
        assert!((d - 100.0).abs() < 1e-9, "got {d}");
        // Under stealing, the empty slot is not an argument to rescatter.
        assert_eq!(eta_drift_pct(&[0, 8000], &[4.0, 1.0], false), 0.0);
    }

    #[test]
    fn eta_drift_handles_degenerate_inputs() {
        assert_eq!(eta_drift_pct(&[], &[], true), 0.0);
        assert_eq!(eta_drift_pct(&[100], &[0.0], true), 0.0);
        assert_eq!(eta_drift_pct(&[0, 0], &[1.0, 1.0], true), 0.0);
    }

    #[test]
    fn retune_control_elects_exactly_one_caller_per_period() {
        let c = RetuneControl::new(4);
        let wins: usize = (0..16).map(|_| usize::from(c.tick())).sum();
        assert_eq!(wins, 4, "one election per 4 ticks");
        c.record_rescatter();
        assert_eq!(c.rescatters(), 1);
    }
}
