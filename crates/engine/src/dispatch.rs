//! The single dispatch core: stop flag, hit merge, accounting, hooks.
//!
//! A [`Dispatcher`] owns everything the paper's master does between
//! scatter and merge: the shared stop condition, the gathered hits, the
//! per-worker tested counts and scheduler stats, and an optional
//! progress hook. Two shapes drive the same core:
//!
//! * [`Dispatcher::run_deques`] — the adaptive shape: every worker owns
//!   a pre-scattered interval deque ([`IntervalDeques`]), pops chunks
//!   off its own front ([`ChunkPolicy`]), and steals the back half of
//!   the largest remote deque when drained. Its one caller is the round
//!   driver, [`crate::Fleet::run_round`], which registers the workers
//!   and scatters the deques; [`Dispatcher::run_workers_opts`] and
//!   [`Dispatcher::run_queue`] are one-line spellings of a round over
//!   [`crate::Fleet::threads`];
//! * [`Dispatcher::scan_as`] — one scan credited to a registered worker,
//!   what every deque worker runs per chunk.
//!
//! The space and the test are type parameters (`Dispatcher<'_, S, C>`,
//! [`KeySpace`] and [`TargetSet`] by default): the core hands `&S` and
//! `&C` to [`Backend::scan`], reads the space's size once per round, to
//! clamp the round's slice, and asks the test ([`CandidateTest`]) only
//! whether one hit may end the search and which algorithm seeds a
//! retune. So a mask, a hybrid dictionary or a nonce range under a
//! mining test runs through the same scatter, stop condition, gather and
//! merge as a brute-force range against digests.
//!
//! ## Merge semantics
//!
//! Hits are merged under one lock and sorted by identifier at
//! [`Dispatcher::finish`]; [`ScanMode::FirstHit`] keeps one, the **lowest
//! matching identifier** wherever a lower match can exist:
//!
//! * *one digest* ([`CandidateTest::unique`]) — any hit raises the
//!   shared stop flag. A second match could only be the same key under
//!   another identifier (a repeated dictionary word) or a hash collision;
//! * *several digests*, or any test that several candidates may pass (a
//!   mining difficulty) — a hit must not cancel workers still below it: it
//!   lowers a `floor` (lowest hit so far) instead of raising the stop
//!   flag, [`Dispatcher::scan_as`] drops, untested, any chunk that starts
//!   above the floor, chunks in flight finish, and the run ends when the
//!   deques drain — every identifier below the floor has then been
//!   tested. The shares below the hit are searched to the end, which is
//!   why the rule is conditional (DESIGN §4d has the measured cost).
//!
//! `tested` is exact per worker; under first-hit the total varies with
//! who was cancelled or dropped when. In [`ScanMode::Exhaustive`] every
//! identifier is tested exactly once and `tested` is exact.
//!
//! ## Cancellation bound
//!
//! Once the stop flag is raised, a worker scans at most **one poll
//! quantum** more: every backend walks its chunk through a
//! [`crate::poll::PollCursor`], which re-checks the flag every
//! [`crate::poll::POLL_CHUNK`] keys (rounded up to the backend's lane
//! stride). With `W` workers in flight, total post-cancel work is
//! therefore bounded by `W × quantum` keys — a checked bound, see the
//! cancellation-latency test in `tests/steal_scheduler.rs`.

// Indexing/slicing below is over fixed-size state arrays or lengths
// established by construction; the workspace `clippy::indexing_slicing`
// escalation guards new code, not these proven accesses.
#![allow(clippy::indexing_slicing)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use eks_keyspace::{Interval, Key, KeySpace, SolutionSpace};
use eks_telemetry::{names, Counter, Gauge, Histogram, LivePlane, Telemetry};

use crate::backend::{Backend, ScanMode, ScanReport};
use crate::fleet::Fleet;
use crate::rate::{eta_drift_pct, RateBook, RetuneControl};
use crate::steal::{ChunkPolicy, IntervalDeques, SchedPolicy, StealOutcome, WorkerStats};
use crate::target::{CandidateTest, TargetSet};

/// Handle to a registered worker (index into the accounting table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerId(usize);

impl WorkerId {
    /// The registration index, as used by [`DispatchReport::per_worker`]
    /// and [`Dispatcher::worker_stats`] snapshots.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// A progress observation, emitted after each merged scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressEvent {
    /// The worker that finished a scan.
    pub worker: usize,
    /// Candidates tested by that scan.
    pub tested: u128,
    /// Candidates tested so far across all workers.
    pub total_tested: u128,
    /// Hits gathered so far across all workers.
    pub total_hits: usize,
}

impl ProgressEvent {
    /// Share of `total` keys covered so far, in percent, clamped to
    /// `[0, 100]`. An empty space reports 100 (nothing left to do) —
    /// never NaN.
    pub fn percent_of(&self, total: u128) -> f64 {
        if total == 0 {
            100.0
        } else {
            (100.0 * self.total_tested as f64 / total as f64).clamp(0.0, 100.0)
        }
    }

    /// Aggregate keys per second over `elapsed_secs` of wall time. A
    /// zero-duration run (a hit in the first chunk) reports 0 — never
    /// NaN or infinite.
    pub fn keys_per_sec(&self, elapsed_secs: f64) -> f64 {
        if elapsed_secs > 0.0 {
            self.total_tested as f64 / elapsed_secs
        } else {
            0.0
        }
    }

    /// Estimated seconds until `total` keys are covered at the current
    /// aggregate rate. `None` while the rate is still zero or the space
    /// is already covered.
    pub fn eta_secs(&self, total: u128, elapsed_secs: f64) -> Option<f64> {
        let remaining = total.saturating_sub(self.total_tested);
        if remaining == 0 {
            return Some(0.0);
        }
        let rate = self.keys_per_sec(elapsed_secs);
        if rate > 0.0 {
            Some(remaining as f64 / rate)
        } else {
            None
        }
    }
}

/// Final state of a dispatch: the paper's gather + merge step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchReport<K = Key> {
    /// Hits in identifier order; truncated to the lowest-identifier hit
    /// under [`ScanMode::FirstHit`].
    pub hits: Vec<(u128, K, usize)>,
    /// Total candidates tested (sum of `per_worker`).
    pub tested: u128,
    /// Per-worker `(label, tested)` in registration order.
    pub per_worker: Vec<(String, u128)>,
    /// Full per-worker scheduler stats (steals, splits, idle/busy time),
    /// same order as `per_worker`.
    pub stats: Vec<WorkerStats>,
}

struct Gathered<K> {
    hits: Vec<(u128, K, usize)>,
    /// Lowest hit identifier so far (`u128::MAX` before any); only
    /// maintained and consulted under the first-hit floor rule.
    floor: u128,
    workers: Vec<WorkerStats>,
    /// Live per-worker `eks_keys_tested_total{worker}` handles, parallel
    /// to `workers`: each chunk's tested count is added as it merges, so
    /// a mid-run scrape (and the sliding-window anomaly detector behind
    /// it) sees per-worker progress without waiting for
    /// [`Dispatcher::finish`]. Noop handles when telemetry is disabled.
    live_tested: Vec<Counter>,
}

type ProgressFn<'a> = Box<dyn Fn(&ProgressEvent) + Sync + 'a>;

/// Pre-registered instrument handles for the chunk-granular hot path,
/// so `scan_as` never touches the registry's striped lock: enabled
/// updates are plain atomic ops, disabled ones a null check.
struct DispatchInstruments {
    chunks: Counter,
    scan_ns: Histogram,
    cancel_latency_ns: Histogram,
    rescatters: Counter,
}

impl DispatchInstruments {
    fn new(telemetry: &Telemetry) -> Self {
        Self {
            chunks: telemetry.counter(names::CHUNKS, &[]),
            scan_ns: telemetry.histogram(names::SCAN_NS, &[]),
            cancel_latency_ns: telemetry.histogram(names::CANCEL_LATENCY_NS, &[]),
            rescatters: telemetry.counter(names::RESCATTERS, &[]),
        }
    }
}

/// Sentinel for "cancel not observed yet" in the cancel-time cell.
const CANCEL_UNSET: u64 = u64::MAX;

/// One executor in a [`Dispatcher::run_deques`] run: deque slot `i`
/// belongs to leaf `i`. Several leaves may share a [`WorkerId`] (a CPU
/// device fanning out over threads), so accounting stays per-device.
pub struct DequeLeaf<'b, S: SolutionSpace + ?Sized = KeySpace, C: ?Sized = TargetSet> {
    /// The worker this leaf's scans are credited to.
    pub worker: WorkerId,
    /// The backend that scans this leaf's chunks.
    pub backend: &'b dyn Backend<S, C>,
}

/// The closed-loop retune knobs: when set on [`SchedOptions`], every
/// worker feeds its chunk timings into a shared [`RateBook`], and every
/// `every_chunks` pops one worker is elected to compare the live rates
/// against the queued remainders ([`eta_drift_pct`]) and re-scatter the
/// deques when the divergence exceeds `drift_pct`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retune {
    /// Fleet-wide chunk count between drift checks.
    pub every_chunks: u64,
    /// Estimated-time-to-drain divergence (percent) that triggers a
    /// re-scatter.
    pub drift_pct: u32,
}

impl Default for Retune {
    fn default() -> Self {
        // A check every 8 chunks keeps the controller off the hot path;
        // 25 % drift is well past split_weighted rounding noise but far
        // below the 100 % a starved worker shows.
        Self { every_chunks: 8, drift_pct: 25 }
    }
}

/// Knobs of a [`Dispatcher::run_deques`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedOptions {
    /// How owners size the chunks they pop.
    pub chunk: ChunkPolicy,
    /// Whether drained workers steal from remote deques.
    pub steal: bool,
    /// Closed-loop adaptive rebalancing; `None` reproduces the static
    /// (tuned-rate) accounting exactly.
    pub retune: Option<Retune>,
}

impl SchedOptions {
    /// The options a [`SchedPolicy`] names, with `chunk` as the fixed
    /// size (queue mode) or guided floor (static/steal modes). Retune
    /// is off; set [`SchedOptions::retune`] to turn it on.
    pub fn for_policy(policy: SchedPolicy, chunk: u128) -> Self {
        Self { chunk: policy.chunk_policy(chunk), steal: policy.steals(), retune: None }
    }
}

/// Shared state of one `run_deques` round when retuning is on.
struct RetuneShared {
    rates: RateBook,
    control: RetuneControl,
    drift_pct: f64,
    steal: bool,
    /// Per-slot `(worker label, rate-est gauge, rate-tuned gauge)`:
    /// the elected retune tick publishes the live estimates through
    /// these, so a mid-run scrape sees current rates, not the tuned
    /// priors — the feedstock of the straggler detector.
    slots: Vec<(String, Gauge, Gauge)>,
    /// The live observability plane, when one is attached: flagged
    /// workers get their re-scatter weight halved.
    plane: Option<Arc<LivePlane>>,
}

impl RetuneShared {
    /// Export the live rate estimates (and tuned baselines) as
    /// per-worker gauges — run at every elected retune tick and once
    /// more as the run ends.
    fn publish_rates(&self) {
        for (slot, (_, est, tuned)) in self.slots.iter().enumerate() {
            est.set(self.rates.mkeys(slot));
            tuned.set(self.rates.tuned_mkeys(slot));
        }
    }

    /// Drift check + re-scatter, run by the elected worker. Returns
    /// true when a re-scatter happened.
    fn maybe_rescatter(&self, deques: &IntervalDeques) -> bool {
        let remaining: Vec<u128> = (0..deques.len()).map(|s| deques.remaining(s)).collect();
        let mut rates = self.rates.weights();
        if let Some(plane) = &self.plane {
            // An anomaly-flagged worker is deprioritized beyond what its
            // measured rate already says: halving its weight sheds keys
            // onto healthy slots now instead of waiting for the rate
            // estimate to decay chunk by chunk.
            for (slot, (label, _, _)) in self.slots.iter().enumerate() {
                if plane.is_flagged(label) {
                    rates[slot] *= 0.5;
                }
            }
        }
        // Under a stealing policy an empty slot feeds itself, so only
        // imbalance among loaded slots argues for a re-scatter; under
        // static scatter the empty slots are exactly the starved ones.
        let drift = eta_drift_pct(&remaining, &rates, !self.steal);
        if drift <= self.drift_pct {
            return false;
        }
        let changed = deques.rescatter(&rates);
        if changed {
            self.control.record_rescatter();
        }
        changed
    }
}

/// The one dispatch core every execution path runs through.
pub struct Dispatcher<'a, S: SolutionSpace + ?Sized = KeySpace, C: ?Sized = TargetSet> {
    space: &'a S,
    test: &'a C,
    mode: ScanMode,
    /// First-hit under a test several candidates may pass: a hit lowers
    /// the floor instead of raising the stop flag (see the module doc).
    lowest_wins: bool,
    stop: AtomicBool,
    gathered: Mutex<Gathered<S::Solution>>,
    progress: Option<ProgressFn<'a>>,
    telemetry: Telemetry,
    instruments: DispatchInstruments,
    cancel_ns: AtomicU64,
}

impl<'a, S, C> Dispatcher<'a, S, C>
where
    S: SolutionSpace + Sync + ?Sized,
    S::Solution: Clone + Send,
    C: CandidateTest<S::Solution> + Sync + ?Sized,
{
    /// A dispatcher for one search over `space` against `test`.
    pub fn new(space: &'a S, test: &'a C, mode: ScanMode) -> Self {
        let telemetry = Telemetry::disabled();
        let instruments = DispatchInstruments::new(&telemetry);
        Self {
            space,
            test,
            mode,
            lowest_wins: mode.first_hit_only() && !test.unique(),
            stop: AtomicBool::new(false),
            gathered: Mutex::new(Gathered {
                hits: Vec::new(),
                floor: u128::MAX,
                workers: Vec::new(),
                live_tested: Vec::new(),
            }),
            progress: None,
            telemetry,
            instruments,
            cancel_ns: AtomicU64::new(CANCEL_UNSET),
        }
    }

    /// Attach a progress hook, called after every merged scan.
    pub fn on_progress(mut self, hook: impl Fn(&ProgressEvent) + Sync + 'a) -> Self {
        self.progress = Some(Box::new(hook));
        self
    }

    /// Attach a telemetry handle: chunk scans get spans, latency
    /// histograms and live per-worker tested counters, steals get
    /// events, and [`Dispatcher::finish`] flushes the scheduler stats
    /// into labelled counters. Call this before [`Dispatcher::register`]
    /// — registration binds each worker's live counter to the handle
    /// attached at that moment. The default ([`Telemetry::disabled`])
    /// records nothing.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.instruments = DispatchInstruments::new(&telemetry);
        self.telemetry = telemetry;
        self
    }

    /// The attached telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The search mode.
    pub fn mode(&self) -> ScanMode {
        self.mode
    }

    /// Raise the stop condition: in-flight scans cancel at their next
    /// poll boundary.
    pub fn cancel(&self) {
        self.stop.store(true, Ordering::Relaxed);
        if self.telemetry.is_enabled() {
            // Remember when the flag first went up so cancelled scans can
            // report how long the stop condition took to propagate (K_D).
            let now = self.telemetry.now_ns().min(CANCEL_UNSET - 1);
            let _ = self.cancel_ns.compare_exchange(
                CANCEL_UNSET,
                now,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
    }

    /// True once any hit has been gathered.
    pub fn any_hits(&self) -> bool {
        !self.gathered.lock().expect("dispatch lock").hits.is_empty()
    }

    /// A point-in-time copy of the gathered per-worker stats — the live
    /// counterpart of [`DispatchReport::stats`]. Round masters diff
    /// successive snapshots to turn each round's `(tested, busy)`
    /// deltas into rate observations.
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        self.gathered.lock().expect("dispatch lock").workers.clone()
    }

    /// The worker accounted under `label`, registered on first use;
    /// labels appear in [`DispatchReport::per_worker`] in registration
    /// order, each once.
    pub fn register(&self, label: impl Into<String>) -> WorkerId {
        let label = label.into();
        let mut g = self.gathered.lock().expect("dispatch lock");
        if let Some(i) = g.workers.iter().position(|w| w.label == label) {
            return WorkerId(i);
        }
        let live = self.telemetry.counter(names::KEYS_TESTED, &[("worker", label.as_str())]);
        g.workers.push(WorkerStats::new(label));
        g.live_tested.push(live);
        WorkerId(g.workers.len() - 1)
    }

    /// `interval` clamped to the space.
    pub(crate) fn clamp(&self, interval: Interval) -> Interval {
        interval.intersect(&Interval::new(0, self.space.size().unwrap_or(u128::MAX)))
    }

    /// True when a hit ends the whole search at once: first-hit under a
    /// test at most one candidate passes (a single digest).
    fn stops_on_hit(&self) -> bool {
        self.mode.first_hit_only() && !self.lowest_wins
    }

    /// Scan one interval on `backend`, credited to `worker`, and merge
    /// the scan's hits and tested count. A first-hit match raises the
    /// stop flag (one digest) or lowers the floor (any other test); a
    /// chunk that starts above the floor comes back unscanned, as an
    /// empty report.
    /// Returns the backend's report for the caller's own bookkeeping.
    pub fn scan_as(
        &self,
        worker: WorkerId,
        backend: &dyn Backend<S, C>,
        interval: Interval,
    ) -> ScanReport<S::Solution> {
        if self.lowest_wins
            && interval.start > self.gathered.lock().expect("dispatch lock").floor
        {
            return ScanReport::empty();
        }
        let observed = self.telemetry.is_enabled();
        let scan_start = if observed { self.telemetry.now_ns() } else { 0 };
        let report = backend.scan(self.space, self.test, interval, &self.stop, self.mode);
        if self.stops_on_hit() && !report.hits.is_empty() {
            self.cancel();
        }
        if observed {
            let scan_end = self.telemetry.now_ns();
            self.instruments.chunks.inc();
            self.instruments.scan_ns.observe(scan_end.saturating_sub(scan_start));
            if report.cancelled {
                let raised = self.cancel_ns.load(Ordering::Relaxed);
                if raised != CANCEL_UNSET {
                    self.instruments
                        .cancel_latency_ns
                        .observe(scan_end.saturating_sub(raised));
                }
            }
            self.telemetry
                .push_record(eks_telemetry::TraceRecord {
                    ts_ns: scan_start,
                    dur_ns: scan_end.saturating_sub(scan_start),
                    kind: eks_telemetry::TraceKind::Span,
                    name: names::SPAN_SCAN.to_string(),
                    worker: Some(worker.0),
                    device: None,
                    fields: vec![
                        ("tested".to_string(), report.tested.to_string()),
                        ("hits".to_string(), report.hits.len().to_string()),
                    ],
                });
        }
        let event = {
            let mut g = self.gathered.lock().expect("dispatch lock");
            g.workers[worker.0].tested += report.tested;
            // Mirror the exact accounting into the live labelled counter
            // so scrapes and window flushes see it chunk by chunk.
            g.live_tested[worker.0].add(u64::try_from(report.tested).unwrap_or(u64::MAX));
            g.hits.extend(report.hits.iter().cloned());
            if self.lowest_wins {
                // A first-hit scan returns at its lowest match.
                if let Some((id, _, _)) = report.hits.first() {
                    g.floor = g.floor.min(*id);
                }
            }
            ProgressEvent {
                worker: worker.0,
                tested: report.tested,
                total_tested: g.workers.iter().map(|w| w.tested).sum(),
                total_hits: g.hits.len(),
            }
        };
        if let Some(hook) = &self.progress {
            hook(&event);
        }
        // Give an attached live plane a chance to close a window and run
        // the anomaly pass: a single atomic load when no window is due.
        self.telemetry.observe_plane();
        report
    }

    /// Merge a worker thread's scheduler accounting (called once per
    /// leaf as its run loop exits).
    fn credit_sched(&self, worker: WorkerId, steals: u64, splits: u64, idle_ns: u64, busy_ns: u64) {
        let mut g = self.gathered.lock().expect("dispatch lock");
        let w = &mut g.workers[worker.0];
        w.steals += steals;
        w.splits += splits;
        w.idle_ns += idle_ns;
        w.busy_ns += busy_ns;
    }

    /// The adaptive frontend: one thread per leaf, leaf `i` owning deque
    /// slot `i`. Each worker pops chunks off its own deque (sized by
    /// `opts.chunk`) and scans them via [`Dispatcher::scan_as`]; when
    /// drained it steals the back half of the largest remote deque
    /// (`opts.steal`), or exits under the static policy. The run ends
    /// when every deque is empty or the stop flag is raised; coverage is
    /// exactly-once by construction (the deques partition the interval
    /// and chunks only ever move, never duplicate).
    ///
    /// # Panics
    /// Panics when `leaves` is empty or its length differs from the
    /// number of deque slots.
    pub fn run_deques(&self, leaves: &[DequeLeaf<'_, S, C>], deques: &IntervalDeques, opts: SchedOptions) {
        assert!(!leaves.is_empty(), "need at least one leaf");
        assert_eq!(leaves.len(), deques.len(), "one deque slot per leaf");
        let retune = opts.retune.map(|r| {
            let slots = {
                let g = self.gathered.lock().expect("dispatch lock");
                leaves
                    .iter()
                    .map(|l| {
                        let label = g.workers[l.worker.0].label.clone();
                        let est = self
                            .telemetry
                            .gauge(names::WORKER_RATE_EST, &[("worker", label.as_str())]);
                        let tuned = self
                            .telemetry
                            .gauge(names::WORKER_RATE_TUNED, &[("worker", label.as_str())]);
                        (label, est, tuned)
                    })
                    .collect()
            };
            RetuneShared {
                rates: RateBook::new(
                    leaves
                        .iter()
                        .map(|l| self.test.tuned_algo().map_or(1.0, |algo| l.backend.tuned_rate(algo)))
                        .collect(),
                ),
                control: RetuneControl::new(r.every_chunks),
                drift_pct: f64::from(r.drift_pct),
                steal: opts.steal,
                slots,
                plane: self.telemetry.plane(),
            }
        });
        let retune = retune.as_ref();
        std::thread::scope(|scope| {
            for (slot, leaf) in leaves.iter().enumerate() {
                scope.spawn(move || self.drive_leaf(slot, leaf, deques, opts, retune));
            }
        });
        // Fold the split counters into the owning workers' stats once the
        // threads are done (splits are per-slot; workers may own several
        // slots).
        for (slot, leaf) in leaves.iter().enumerate() {
            self.credit_sched(leaf.worker, 0, deques.splits(slot), 0, 0);
        }
        if let Some(shared) = retune {
            // Final export of the live-rate estimates — the feedstock of
            // the rate-drift column in `eks report`.
            shared.publish_rates();
        }
    }

    /// Scan one chunk inside the worker loop: time it, feed the rate
    /// estimator, run the elected drift check. Returns true when the
    /// worker must exit (stop raised, or a hit that ends the search).
    fn drive_chunk(
        &self,
        slot: usize,
        leaf: &DequeLeaf<'_, S, C>,
        deques: &IntervalDeques,
        retune: Option<&RetuneShared>,
        chunk: Interval,
        busy_ns: &mut u64,
    ) -> bool {
        let t0 = Instant::now();
        let out = self.scan_as(leaf.worker, leaf.backend, chunk);
        let elapsed = t0.elapsed().as_nanos() as u64;
        *busy_ns += elapsed;
        if let Some(shared) = retune {
            shared.rates.observe(slot, out.tested, elapsed);
            if shared.control.tick() {
                shared.publish_rates();
                if !self.stop.load(Ordering::Relaxed) && shared.maybe_rescatter(deques) {
                    self.instruments.rescatters.inc();
                }
            }
        }
        self.stop.load(Ordering::Relaxed) || (self.stops_on_hit() && !out.hits.is_empty())
    }

    /// One worker's pop/scan/steal loop.
    fn drive_leaf(
        &self,
        slot: usize,
        leaf: &DequeLeaf<'_, S, C>,
        deques: &IntervalDeques,
        opts: SchedOptions,
        retune: Option<&RetuneShared>,
    ) {
        let mut steals = 0u64;
        let mut idle_ns = 0u64;
        let mut busy_ns = 0u64;
        'work: loop {
            if self.stop.load(Ordering::Relaxed) {
                break;
            }
            loop {
                let chunk = match retune {
                    Some(shared) => {
                        deques.pop_rated(slot, opts.chunk, shared.rates.keys_per_sec(slot))
                    }
                    None => deques.pop(slot, opts.chunk),
                };
                let Some(chunk) = chunk else { break };
                if self.drive_chunk(slot, leaf, deques, retune, chunk, &mut busy_ns) {
                    break 'work;
                }
            }
            if !opts.steal {
                if retune.is_none() {
                    break; // pure static scatter: drained means done
                }
                // Static scatter with retune on: a drained worker waits
                // for the controller to move work its way instead of
                // exiting while the fleet still holds keys. Retirement
                // is the handshake that makes the wait safe: work is
                // only assigned to slots that have not retired.
                let mut spins = 0u32;
                loop {
                    if self.stop.load(Ordering::Relaxed) {
                        break 'work;
                    }
                    if deques.remaining(slot) > 0 {
                        continue 'work;
                    }
                    if deques.total_remaining() == 0 {
                        let _ = deques.retire_if_empty(slot);
                        break 'work;
                    }
                    spins += 1;
                    if spins < 16 {
                        std::thread::yield_now();
                    } else {
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                }
            }
            let t0 = Instant::now();
            let outcome = deques.try_steal(slot);
            idle_ns += t0.elapsed().as_nanos() as u64;
            match outcome {
                StealOutcome::Stolen { victim } => {
                    steals += 1;
                    self.telemetry
                        .event(names::EVENT_STEAL)
                        .worker(leaf.worker.0)
                        .field("slot", slot)
                        .field("victim", victim)
                        .finish();
                }
                StealOutcome::Handoff { victim, chunk } => {
                    // A concurrent re-scatter refilled this slot while
                    // the steal was in flight; the split half cannot be
                    // installed, so scan it directly.
                    steals += 1;
                    self.telemetry
                        .event(names::EVENT_STEAL)
                        .worker(leaf.worker.0)
                        .field("slot", slot)
                        .field("victim", victim)
                        .finish();
                    if self.drive_chunk(slot, leaf, deques, retune, chunk, &mut busy_ns) {
                        break 'work;
                    }
                }
                StealOutcome::Drained => {
                    // Nothing to steal; exit unless a re-scatter slipped
                    // work into this slot in the meantime.
                    if deques.retire_if_empty(slot) {
                        break;
                    }
                }
            }
        }
        self.credit_sched(leaf.worker, steals, 0, idle_ns, busy_ns);
    }

    /// One round of `interval` over `workers` equal members of
    /// `backend` (labelled `{backend.name()}#{index}`), scheduled by
    /// `opts`.
    ///
    /// # Panics
    /// Panics when `workers == 0`.
    pub fn run_workers_opts(
        &self,
        backend: &dyn Backend<S, C>,
        interval: Interval,
        workers: usize,
        opts: SchedOptions,
    ) {
        Fleet::threads(backend, workers).run_round(self, interval, opts);
    }

    /// [`Dispatcher::run_workers_opts`] under [`SchedPolicy::Queue`]:
    /// even scatter, fixed `chunk`-sized pops, stealing on.
    ///
    /// # Panics
    /// Panics when `workers == 0` or `chunk == 0`.
    pub fn run_queue(&self, backend: &dyn Backend<S, C>, interval: Interval, workers: usize, chunk: u64) {
        assert!(chunk >= 1, "chunk must be positive");
        self.run_workers_opts(backend, interval, workers, SchedOptions::for_policy(SchedPolicy::Queue, chunk.into()));
    }

    /// Gather + merge: sort hits by identifier, keep only the
    /// lowest-identifier one under first-hit, sum the accounting. Keys
    /// tested flow into their labelled counters live, chunk by chunk in
    /// [`Dispatcher::scan_as`]; the scheduler stats (steals, splits,
    /// busy/idle time) and the hit count are flushed here — once per
    /// run — so the registry total still equals the sum the report
    /// carries.
    pub fn finish(self) -> DispatchReport<S::Solution> {
        let g = self.gathered.into_inner().expect("dispatch lock");
        let mut hits = g.hits;
        hits.sort_by_key(|(id, _, _)| *id);
        hits.dedup_by_key(|(id, _, _)| *id);
        if self.mode.first_hit_only() {
            hits.truncate(1);
        }
        if self.telemetry.is_enabled() {
            for w in &g.workers {
                let labels = [("worker", w.label.as_str())];
                self.telemetry.counter(names::STEALS, &labels).add(w.steals);
                self.telemetry.counter(names::SPLITS, &labels).add(w.splits);
                self.telemetry.counter(names::BUSY_NS, &labels).add(w.busy_ns);
                self.telemetry.counter(names::IDLE_NS, &labels).add(w.idle_ns);
            }
            self.telemetry.counter(names::HITS, &[]).add(hits.len() as u64);
        }
        let tested = g.workers.iter().map(|w| w.tested).sum();
        let per_worker = g.workers.iter().map(|w| (w.label.clone(), w.tested)).collect();
        DispatchReport {
            hits,
            tested,
            per_worker,
            stats: g.workers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poll::PollCursor;
    use eks_hashes::HashAlgo;
    use eks_keyspace::{Charset, Order};

    /// Minimal reference backend: the canonical PollCursor walk with the
    /// one-at-a-time test function. (The production scalar backend in
    /// `eks-cracker` is this same shape.)
    struct TestBackend;

    impl Backend for TestBackend {
        fn name(&self) -> String {
            "test".into()
        }

        fn scan(
            &self,
            space: &KeySpace,
            targets: &TargetSet,
            interval: Interval,
            stop: &AtomicBool,
            mode: ScanMode,
        ) -> ScanReport {
            let clamped = interval.intersect(&space.interval());
            let mut cursor = PollCursor::new(clamped, stop);
            let mut report = ScanReport::empty();
            'outer: while let Some(chunk) = cursor.next_chunk() {
                let mut stop_now = false;
                space.iter(chunk).for_each_key(|id, key| {
                    report.tested += 1;
                    if let Some(t) = targets.matches(key) {
                        report.hits.push((id, key.clone(), t));
                        if mode.first_hit_only() {
                            stop_now = true;
                            return false;
                        }
                    }
                    true
                });
                if stop_now {
                    break 'outer;
                }
            }
            report.cancelled = cursor.cancelled();
            report
        }

        fn tuned_rate(&self, _algo: HashAlgo) -> f64 {
            1.0
        }
    }

    fn space() -> KeySpace {
        KeySpace::new(Charset::lowercase(), 1, 3, Order::FirstCharFastest).unwrap()
    }

    fn targets(words: &[&[u8]]) -> TargetSet {
        let ds: Vec<Vec<u8>> = words.iter().map(|w| HashAlgo::Md5.hash_long(w)).collect();
        TargetSet::new(HashAlgo::Md5, &ds)
    }

    #[test]
    fn queue_exhaustive_covers_everything() {
        let s = space();
        let t = targets(&[b"cat", b"a", b"zzz"]);
        let d = Dispatcher::new(&s, &t, ScanMode::Exhaustive);
        d.run_queue(&TestBackend, s.interval(), 3, 1024);
        let r = d.finish();
        assert_eq!(r.tested, s.size());
        assert_eq!(r.hits.len(), 3);
        let ids: Vec<u128> = r.hits.iter().map(|(id, _, _)| *id).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted, "hits come back in identifier order");
        assert_eq!(r.per_worker.len(), 3);
        assert_eq!(r.per_worker.iter().map(|(_, c)| *c).sum::<u128>(), r.tested);
        assert!(r.per_worker[0].0.starts_with("test#"));
    }

    #[test]
    fn every_sched_policy_covers_exhaustively() {
        let s = space();
        let t = targets(&[b"cat", b"a", b"zzz"]);
        for sched in SchedPolicy::ALL {
            let d = Dispatcher::new(&s, &t, ScanMode::Exhaustive);
            d.run_workers_opts(&TestBackend, s.interval(), 3, SchedOptions::for_policy(sched, 512));
            let r = d.finish();
            assert_eq!(r.tested, s.size(), "{sched}");
            assert_eq!(r.hits.len(), 3, "{sched}");
            assert_eq!(r.stats.len(), 3, "{sched}");
            let steals: u64 = r.stats.iter().map(|w| w.steals).sum();
            let splits: u64 = r.stats.iter().map(|w| w.splits).sum();
            assert_eq!(steals, splits, "{sched}: every steal splits exactly one victim");
            if sched == SchedPolicy::Static {
                assert_eq!(steals, 0, "static never steals");
                // Static accounting equals the even split shares.
                let parts = s.interval().split_even(3);
                for (w, part) in r.stats.iter().zip(&parts) {
                    assert_eq!(w.tested, part.len, "static share of {}", w.label);
                }
            }
        }
    }

    #[test]
    fn forced_steal_is_accounted_in_worker_stats() {
        // Leaf 1 starts with an empty deque: everything it tests must
        // come from stealing. (Whether it wins any chunk is a race on
        // one core, but the counters must stay consistent either way.)
        let s = space();
        let t = targets(&[b"zzz"]);
        let d = Dispatcher::new(&s, &t, ScanMode::Exhaustive);
        let ids = [d.register("owner"), d.register("thief")];
        let leaves: Vec<DequeLeaf<'_>> =
            ids.iter().map(|&worker| DequeLeaf { worker, backend: &TestBackend }).collect();
        let deques =
            IntervalDeques::assign(vec![s.interval(), Interval::new(s.interval().end(), 0)]);
        d.run_deques(
            &leaves,
            &deques,
            SchedOptions { chunk: ChunkPolicy::Guided { min: 256 }, steal: true, retune: None },
        );
        let r = d.finish();
        assert_eq!(r.tested, s.size(), "nothing lost, nothing doubled");
        let thief = &r.stats[1];
        assert_eq!(thief.tested > 0, thief.steals > 0, "thief only tests what it stole");
        let steals: u64 = r.stats.iter().map(|w| w.steals).sum();
        let splits: u64 = r.stats.iter().map(|w| w.splits).sum();
        assert_eq!(steals, splits);
    }

    #[test]
    fn queue_first_hit_keeps_the_lowest_identifier() {
        let s = space();
        let t = targets(&[b"a", b"zzz"]); // identifiers 0 and last
        let d = Dispatcher::new(&s, &t, ScanMode::FirstHit);
        d.run_queue(&TestBackend, s.interval(), 4, 256);
        let r = d.finish();
        assert_eq!(r.hits.len(), 1, "first-hit truncates to one");
        assert_eq!(r.hits[0].1.as_bytes(), b"a", "lowest identifier wins");
    }

    #[test]
    fn tree_dispatch_accounts_per_worker_in_registration_order() {
        let s = space();
        let t = targets(&[b"zzz"]);
        let d = Dispatcher::new(&s, &t, ScanMode::Exhaustive);
        let left = d.register("node/left");
        let right = d.register("node/right");
        let parts = s.interval().split_even(2);
        std::thread::scope(|scope| {
            scope.spawn(|| d.scan_as(left, &TestBackend, parts[0]));
            scope.spawn(|| d.scan_as(right, &TestBackend, parts[1]));
        });
        let r = d.finish();
        assert_eq!(r.per_worker[0].0, "node/left");
        assert_eq!(r.per_worker[1].0, "node/right");
        assert_eq!(r.per_worker[0].1, parts[0].len);
        assert_eq!(r.per_worker[1].1, parts[1].len);
        assert_eq!(r.tested, s.size());
        assert_eq!(r.hits.len(), 1);
    }

    #[test]
    fn first_hit_scan_raises_the_shared_stop() {
        let s = space();
        let t = targets(&[b"b"]);
        let d = Dispatcher::new(&s, &t, ScanMode::FirstHit);
        let w = d.register("solo");
        let out = d.scan_as(w, &TestBackend, s.interval());
        assert_eq!(out.hits.len(), 1);
        assert!(d.stop.load(Ordering::Relaxed), "stop raised on hit");
        assert!(d.any_hits());
    }

    #[test]
    fn several_digests_lower_a_floor_instead_of_raising_the_stop() {
        let s = space();
        let parts = s.interval().split_even(4);
        let mid = s.key_at(parts[2].start + 5);
        let t = targets(&[b"b", mid.as_bytes()]); // identifier 1 and one in part 2
        let d = Dispatcher::new(&s, &t, ScanMode::FirstHit);
        let w = d.register("solo");
        // The higher hit first: it must not end the search...
        let high = d.scan_as(w, &TestBackend, parts[2]);
        assert_eq!((high.hits.len(), high.tested), (1, 6));
        assert!(!d.stop.load(Ordering::Relaxed), "a lower identifier may still match");
        // ...chunks above it are dropped untested, chunks below it are not.
        assert_eq!(d.scan_as(w, &TestBackend, parts[3]), ScanReport::empty());
        let low = d.scan_as(w, &TestBackend, parts[0]);
        assert_eq!((low.hits.len(), low.tested), (1, 2));
        assert_eq!(d.scan_as(w, &TestBackend, parts[1]), ScanReport::empty());
        let r = d.finish();
        assert_eq!(r.hits.len(), 1);
        assert_eq!(r.hits[0].1.as_bytes(), b"b", "the lowest matching identifier");
        assert_eq!(r.tested, 8, "dropped chunks count nothing");
    }

    #[test]
    fn cancel_stops_the_queue_early() {
        let s = space();
        let t = targets(&[b"zzz"]);
        let d = Dispatcher::new(&s, &t, ScanMode::Exhaustive);
        d.cancel();
        d.run_queue(&TestBackend, s.interval(), 2, 1024);
        let r = d.finish();
        assert_eq!(r.tested, 0, "pre-cancelled queue tests nothing");
        assert!(r.hits.is_empty());
    }

    #[test]
    fn progress_hook_observes_monotone_totals() {
        let s = space();
        let t = targets(&[b"dog"]);
        let events: Mutex<Vec<ProgressEvent>> = Mutex::new(Vec::new());
        let d = Dispatcher::new(&s, &t, ScanMode::Exhaustive)
            .on_progress(|e| events.lock().unwrap().push(*e));
        d.run_queue(&TestBackend, s.interval(), 1, 4096);
        let r = d.finish();
        let events = events.into_inner().unwrap();
        assert!(!events.is_empty());
        let mut last = 0u128;
        for e in &events {
            assert!(e.total_tested >= last, "total_tested is monotone");
            last = e.total_tested;
        }
        assert_eq!(last, r.tested);
        assert_eq!(events.last().unwrap().total_hits, 1);
    }

    #[test]
    fn huge_intervals_dispatch_without_overflow() {
        // A u128-sized interval with chunk = 1: the deques are
        // u128-native, so no cursor-width widening is needed; the
        // planted key at identifier 0 is found at once.
        let s = KeySpace::new(Charset::alphanumeric(), 1, 20, Order::FirstCharFastest).unwrap();
        let t = targets(&[b"a"]);
        let d = Dispatcher::new(&s, &t, ScanMode::FirstHit);
        d.run_queue(&TestBackend, s.interval(), 2, 1);
        let r = d.finish();
        assert_eq!(r.hits.len(), 1);
        assert_eq!(r.hits[0].1.as_bytes(), b"a");
    }

    #[test]
    fn empty_interval_reports_zero() {
        let s = space();
        let t = targets(&[b"dog"]);
        let d = Dispatcher::new(&s, &t, ScanMode::Exhaustive);
        d.run_queue(&TestBackend, Interval::new(0, 0), 2, 64);
        let r = d.finish();
        assert_eq!(r.tested, 0);
        assert!(r.hits.is_empty());
    }
}
