//! CPU search over every space whose candidates are keys: the one
//! scalar scan and the multi-threaded search.
//!
//! [`crack_interval`] is one node's `K_search` (Section III): generate
//! `f(start)` once per poll chunk, walk it with `next`, test every
//! candidate through the test `C` ([`CandidateTest::test`], a
//! [`TargetSet`] lookup for every key search), and poll a stop flag
//! between chunks — the chunk/poll/cancel loop itself is `eks-engine`'s
//! [`PollCursor`]. It is the one scalar scan of the workspace and the
//! reference every equivalence test compares against: what
//! [`ScalarBackend`](crate::ScalarBackend) runs over any space and any
//! test (mining's nonce range too), and what the lane loop of
//! [`crate::batch`] hands tails shorter than a batch, `Lanes::Scalar` and
//! algorithms with no lockstep formulation (`Md5Iter`).
//!
//! [`crack_parallel_backend_observed`] is the fine-grain parallelization
//! of Section III mapped onto CPU threads, and the one search entry point:
//! one [`Fleet::run_round`] of `config.threads` equal members of one
//! [`Backend`] on the engine layer's [`Dispatcher`] over the space — a
//! brute-force [`KeySpace`], a mask, a hybrid dictionary. Scatter,
//! stealing ([`ParallelConfig::sched`]), retune, stop condition, merge,
//! stats, telemetry and progress are the round driver's for every space; only `f` and `next` differ, behind the
//! backend's `scan`. First-hit returns the lowest matching identifier
//! whenever more than one digest is searched, any occurrence of the one
//! key otherwise. [`crack_parallel`], [`crack_parallel_backend`] and
//! [`crack_space_parallel`] are one-line spellings of that entry point.

use std::sync::atomic::AtomicBool;
use std::time::Instant;

use eks_engine::{
    Backend, CandidateTest, Dispatcher, Fleet, PollCursor, ProgressEvent, Retune, ScanMode,
    SchedOptions, SchedPolicy, WorkerStats,
};
use eks_keyspace::{BlockSpace, Interval, Key, KeySpace, SolutionSpace};
use eks_telemetry::{names, Telemetry};

use crate::backend::CpuBackend;
use crate::batch::Lanes;
use crate::target::TargetSet;

/// Result of scanning one interval (the engine layer's [`ScanReport`],
/// under its historical name).
///
/// [`ScanReport`]: eks_engine::ScanReport
pub use eks_engine::ScanReport as CrackOutcome;

/// Scan `interval` (clamped to the space) against the test `test` (a
/// target set, for every key search), stopping early when `stop` is
/// raised or — if `first_hit_only` — at the first match.
pub fn crack_interval<S, C>(
    space: &S,
    test: &C,
    interval: Interval,
    stop: &AtomicBool,
    first_hit_only: bool,
) -> CrackOutcome<S::Solution>
where
    S: SolutionSpace + ?Sized,
    S::Solution: Clone,
    C: CandidateTest<S::Solution> + ?Sized,
{
    let whole = Interval::new(0, space.size().unwrap_or(u128::MAX));
    let mut cursor = PollCursor::new(interval.intersect(&whole), stop);
    let mut out = CrackOutcome::empty();
    'outer: while let Some(chunk) = cursor.next_chunk() {
        let mut candidate = space.generate(chunk.start);
        for id in chunk.start..chunk.end() {
            out.tested += 1;
            if let Some(t) = test.test(id, &candidate) {
                out.hits.push((id, candidate.clone(), t));
                if first_hit_only {
                    break 'outer;
                }
            }
            if id + 1 < chunk.end() {
                space.advance(id, &mut candidate);
            }
        }
    }
    out.cancelled = cursor.cancelled();
    out
}

/// [`crack_interval`] over `[start, start + len)`, the end saturating.
pub fn crack_space_interval<S>(
    space: &S,
    targets: &TargetSet,
    start: u128,
    len: u128,
    stop: &AtomicBool,
    first_hit_only: bool,
) -> CrackOutcome
where
    S: SolutionSpace<Solution = Key> + ?Sized,
{
    let interval = Interval { start, len: len.min(u128::MAX - start) };
    crack_interval(space, targets, interval, stop, first_hit_only)
}

/// Parallel search configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker thread count (≥ 1).
    pub threads: usize,
    /// Keys per work chunk: the fixed pop size under
    /// [`SchedPolicy::Queue`], the guided floor otherwise.
    pub chunk: u64,
    /// Stop the whole search at the first hit.
    pub first_hit_only: bool,
    /// Lane width of the per-thread test path (batched by default; the
    /// detected explicit-SIMD kernel replaces the portable lanes where
    /// the CPU has one, see [`CpuBackend::detect`]).
    pub lanes: Lanes,
    /// Scheduling policy across threads (adaptive stealing by default).
    pub sched: SchedPolicy,
    /// Closed-loop retuning: live per-thread rate estimates feed
    /// periodic drift checks and deque re-scatters. `None` (the
    /// default) reproduces the static accounting exactly.
    pub retune: Option<Retune>,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self::for_threads(4)
    }
}

impl ParallelConfig {
    /// A configuration whose chunk size is derived from the thread count
    /// via `ParallelConfig::default_chunk`, first-hit semantics, default
    /// lane width.
    pub fn for_threads(threads: usize) -> Self {
        Self {
            threads,
            chunk: Self::default_chunk(threads),
            first_hit_only: true,
            lanes: Lanes::default(),
            sched: SchedPolicy::Steal,
            retune: None,
        }
    }

    /// Chunk size for a thread count: a fixed per-sweep work budget
    /// (2¹⁸ keys) divided across threads, so more workers pull finer
    /// chunks (better load balance and first-hit latency) while few
    /// workers amortize cursor traffic over bigger ones. Clamped to
    /// `[16, 2¹⁶]` and kept a multiple of 16 so chunks compose with every
    /// lane width.
    ///
    /// # Panics
    /// Panics when `threads == 0`.
    fn default_chunk(threads: usize) -> u64 {
        assert!(threads >= 1, "need at least one thread");
        ((1u64 << 18) / threads as u64)
            .clamp(16, 1 << 16)
            .next_multiple_of(16)
    }
}

/// Outcome of a parallel search.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelReport {
    /// All hits found, in identifier order.
    pub hits: Vec<(u128, Key, usize)>,
    /// Total candidates tested across threads.
    pub tested: u128,
    /// Wall-clock seconds.
    pub elapsed_s: f64,
    /// Throughput in million key tests per second (the paper's MKey/s).
    pub mkeys_per_s: f64,
    /// Per-thread scheduler stats (tested, steals, splits, idle/busy
    /// time) in registration order.
    pub stats: Vec<WorkerStats>,
}

/// Crack `interval` of `space` against `targets` with `config.threads`
/// workers on the CPU backend selected by `config.lanes`.
///
/// # Panics
/// Panics when `config.threads == 0` or `config.chunk == 0`.
pub fn crack_parallel(
    space: &KeySpace,
    targets: &TargetSet,
    interval: Interval,
    config: ParallelConfig,
) -> ParallelReport {
    crack_parallel_backend(space, targets, interval, &CpuBackend::detect(config.lanes), config)
}

/// [`crack_parallel`] over the whole of any space with a block writer
/// (a mask, a hybrid dictionary).
///
/// # Panics
/// Panics when `config.threads == 0`, `config.chunk == 0` or the space is
/// not finite.
pub fn crack_space_parallel<S>(
    space: &S,
    targets: &TargetSet,
    config: ParallelConfig,
) -> ParallelReport
where
    S: BlockSpace + Sync,
{
    let whole = Interval::new(0, space.size().expect("finite space"));
    crack_parallel_backend(space, targets, whole, &CpuBackend::detect(config.lanes), config)
}

/// Like [`crack_parallel`] but over any engine-layer [`Backend`],
/// unobserved.
///
/// # Panics
/// Panics when `config.threads == 0` or `config.chunk == 0`.
pub fn crack_parallel_backend<S>(
    space: &S,
    targets: &TargetSet,
    interval: Interval,
    backend: &dyn Backend<S>,
    config: ParallelConfig,
) -> ParallelReport
where
    S: SolutionSpace<Solution = Key> + Sync + ?Sized,
{
    crack_parallel_backend_observed(
        space,
        targets,
        interval,
        backend,
        config,
        &Telemetry::disabled(),
        |_| {},
    )
}

/// The search: one round of `interval` of `space` (clamped to it) over
/// `config.threads` equal members `{backend.name()}#i` of `backend`, on
/// the round driver the cluster and the job service share. An enabled
/// `telemetry` gets chunk spans and per-worker accounting (attach the
/// same handle to the backend for fill/hash timing and prefilter
/// counters); `progress` fires after every merged chunk.
///
/// # Panics
/// Panics when `config.threads == 0` or `config.chunk == 0`.
pub fn crack_parallel_backend_observed<S>(
    space: &S,
    targets: &TargetSet,
    interval: Interval,
    backend: &dyn Backend<S>,
    config: ParallelConfig,
    telemetry: &Telemetry,
    progress: impl Fn(&ProgressEvent) + Sync,
) -> ParallelReport
where
    S: SolutionSpace<Solution = Key> + Sync + ?Sized,
{
    let start = Instant::now();
    let run_span = telemetry
        .span(names::SPAN_RUN)
        .device(&backend.name())
        .field("threads", config.threads)
        .field("sched", config.sched)
        .field("chunk", config.chunk);
    let dispatcher = Dispatcher::new(
        space,
        targets,
        ScanMode::from_first_hit(config.first_hit_only),
    )
    .with_telemetry(telemetry.clone())
    .on_progress(progress);
    assert!(config.chunk >= 1, "chunk must be positive");
    let opts =
        SchedOptions { retune: config.retune, ..SchedOptions::for_policy(config.sched, config.chunk.into()) };
    Fleet::threads(backend, config.threads).run_round(&dispatcher, interval, opts);
    let report = dispatcher.finish();
    run_span.finish();
    let elapsed_s = start.elapsed().as_secs_f64().max(1e-9);
    ParallelReport {
        hits: report.hits,
        tested: report.tested,
        elapsed_s,
        mkeys_per_s: report.tested as f64 / elapsed_s / 1e6,
        stats: report.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eks_hashes::HashAlgo;
    use eks_keyspace::{Charset, MaskSpace, Order};

    fn space() -> KeySpace {
        KeySpace::new(Charset::lowercase(), 1, 4, Order::FirstCharFastest).unwrap()
    }

    fn targets(words: &[&[u8]]) -> TargetSet {
        let ds: Vec<Vec<u8>> = words.iter().map(|w| HashAlgo::Md5.hash_long(w)).collect();
        TargetSet::new(HashAlgo::Md5, &ds)
    }

    #[test]
    fn finds_single_target() {
        let s = space();
        let t = targets(&[b"dog"]);
        let stop = AtomicBool::new(false);
        let out = crack_interval(&s, &t, s.interval(), &stop, true);
        assert_eq!(out.hits.len(), 1);
        assert_eq!(out.hits.first().map(|h| h.1.as_bytes()), Some(&b"dog"[..]));
        assert!(!out.cancelled);
        // First-hit scan stops at the hit.
        assert_eq!(Some(out.tested), out.hits.first().map(|h| h.0 + 1));
    }

    #[test]
    fn finds_all_targets_when_not_first_hit() {
        let s = space();
        let t = targets(&[b"cat", b"dog", b"pig"]);
        let stop = AtomicBool::new(false);
        let out = crack_interval(&s, &t, s.interval(), &stop, false);
        assert_eq!(out.hits.len(), 3);
        let found: Vec<&[u8]> = out.hits.iter().map(|(_, k, _)| k.as_bytes()).collect();
        // Hits come back in identifier order.
        let mut ids: Vec<u128> = out.hits.iter().map(|(id, _, _)| *id).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
        ids.dedup();
        assert_eq!(ids.len(), 3);
        for w in [&b"cat"[..], b"dog", b"pig"] {
            assert!(found.contains(&w), "{w:?}");
        }
        assert_eq!(out.tested, s.size());
    }

    #[test]
    fn pre_raised_stop_tests_nothing() {
        let s = space();
        let t = targets(&[b"dog"]);
        let stop = AtomicBool::new(true);
        let out = crack_interval(&s, &t, s.interval(), &stop, true);
        assert!(out.cancelled);
        assert_eq!(out.tested, 0);
        assert!(out.hits.is_empty());
    }

    #[test]
    fn interval_is_clamped_to_space() {
        let s = space();
        let t = targets(&[b"zzzz"]);
        let stop = AtomicBool::new(false);
        let out = crack_interval(&s, &t, Interval::new(0, u64::MAX as u128), &stop, false);
        assert_eq!(out.tested, s.size());
        assert_eq!(out.hits.len(), 1);
    }

    #[test]
    fn empty_interval() {
        let s = space();
        let t = targets(&[b"dog"]);
        let stop = AtomicBool::new(false);
        let out = crack_interval(&s, &t, Interval::new(5, 0), &stop, true);
        assert_eq!(out.tested, 0);
        assert!(out.hits.is_empty());
        assert!(!out.cancelled);
    }

    #[test]
    fn hit_exactly_at_interval_boundaries() {
        let s = space();
        let t = targets(&[b"dog"]);
        let id = s.id_of(&eks_keyspace::Key::from_bytes(b"dog")).unwrap();
        let stop = AtomicBool::new(false);
        // Interval starting exactly at the hit.
        let out = crack_interval(&s, &t, Interval::new(id, 1), &stop, true);
        assert_eq!(out.hits.len(), 1);
        // Interval ending just before the hit.
        let out = crack_interval(&s, &t, Interval::new(0, id), &stop, true);
        assert!(out.hits.is_empty());
    }

    #[test]
    fn any_key_producing_space_scans_through_the_same_body() {
        let mask = MaskSpace::parse("?d?d").unwrap();
        let t = targets(&[b"57"]);
        let stop = AtomicBool::new(false);
        let hit = crack_space_interval(&mask, &t, 70, 10, &stop, true);
        assert_eq!(hit.hits.len(), 1, "57 is id 75 in a ?d?d mask (first position fastest)");
        assert_eq!(hit.tested, 6, "first-hit stops at the match");
        let miss = crack_space_interval(&mask, &t, 0, 75, &stop, true);
        assert!(miss.hits.is_empty());
        let all = crack_space_interval(&mask, &t, 90, u128::MAX, &stop, false);
        assert_eq!(all.tested, 10, "clamped to the space, no overflow");
    }

    #[test]
    fn parallel_finds_planted_key() {
        let s = space();
        let t = targets(&[b"mule"]);
        let cfg = ParallelConfig {
            threads: 4,
            chunk: 1 << 12,
            ..ParallelConfig::default()
        };
        let r = crack_parallel(&s, &t, s.interval(), cfg);
        assert_eq!(r.hits.len(), 1);
        assert_eq!(r.hits.first().map(|h| h.1.as_bytes()), Some(&b"mule"[..]));
        assert!(r.mkeys_per_s > 0.0);
    }

    #[test]
    fn parallel_finds_every_target_in_full_sweep() {
        let s = space();
        let words: Vec<&[u8]> = vec![b"a", b"zz", b"cat", b"mnop"];
        let t = targets(&words);
        let cfg = ParallelConfig {
            threads: 3,
            chunk: 1 << 10,
            first_hit_only: false,
            ..ParallelConfig::default()
        };
        let r = crack_parallel(&s, &t, s.interval(), cfg);
        assert_eq!(r.hits.len(), 4);
        assert_eq!(r.tested, s.size(), "full sweep tests everything");
        // Identifier order.
        let ids: Vec<u128> = r.hits.iter().map(|(id, _, _)| *id).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn single_thread_matches_multi_thread_results() {
        let s = space();
        let t = targets(&[b"dog", b"pig"]);
        let base = ParallelConfig {
            threads: 1,
            chunk: 1 << 10,
            first_hit_only: false,
            ..ParallelConfig::default()
        };
        let multi = ParallelConfig { threads: 4, ..base };
        let r1 = crack_parallel(&s, &t, s.interval(), base);
        let r4 = crack_parallel(&s, &t, s.interval(), multi);
        assert_eq!(r1.hits, r4.hits);
    }

    #[test]
    fn huge_interval_does_not_overflow_chunk_dispatch() {
        // Σ_{i=1}^{20} 62^i ≈ 7.2·10³⁵ candidates: an early dispatch
        // tracked chunks on a u64 cursor and panicked here with chunk = 1.
        // The interval deques are u128-native, so no widening is needed.
        let s = KeySpace::new(Charset::alphanumeric(), 1, 20, Order::FirstCharFastest).unwrap();
        let t = targets(&[b"a"]); // identifier 0: found immediately
        let cfg = ParallelConfig {
            threads: 2,
            chunk: 1,
            first_hit_only: true,
            lanes: Lanes::L8,
            ..ParallelConfig::for_threads(2)
        };
        let r = crack_parallel(&s, &t, s.interval(), cfg);
        assert_eq!(r.hits.len(), 1);
        assert_eq!(r.hits.first().map(|h| h.1.as_bytes()), Some(&b"a"[..]));
    }

    #[test]
    fn default_chunk_scales_with_threads_and_composes_with_lanes() {
        assert_eq!(ParallelConfig::default_chunk(1), 1 << 16);
        assert_eq!(ParallelConfig::default_chunk(4), 1 << 16);
        assert_eq!(ParallelConfig::default_chunk(8), 1 << 15);
        assert_eq!(ParallelConfig::default_chunk(1 << 20), 16);
        for threads in 1..=64 {
            let chunk = ParallelConfig::default_chunk(threads);
            assert_eq!(chunk % 16, 0, "chunk must compose with every lane width");
            assert!(chunk >= 16);
        }
    }

    #[test]
    fn every_sched_policy_finds_the_same_hits() {
        let s = space();
        let t = targets(&[b"dog", b"pig", b"mnop"]);
        let mut reference: Option<Vec<(u128, Key, usize)>> = None;
        for sched in SchedPolicy::ALL {
            let cfg = ParallelConfig {
                threads: 3,
                first_hit_only: false,
                sched,
                ..ParallelConfig::for_threads(3)
            };
            let r = crack_parallel(&s, &t, s.interval(), cfg);
            assert_eq!(r.tested, s.size(), "{sched}: full sweep");
            assert_eq!(r.stats.len(), 3, "{sched}: one stats row per thread");
            assert_eq!(
                r.stats.iter().map(|w| w.tested).sum::<u128>(),
                r.tested,
                "{sched}: stats account for every test"
            );
            match &reference {
                None => reference = Some(r.hits),
                Some(hits) => assert_eq!(&r.hits, hits, "{sched}"),
            }
        }
    }

    #[test]
    fn steal_and_split_counters_balance() {
        let s = space();
        let t = targets(&[b"zzzz"]);
        let cfg = ParallelConfig {
            threads: 4,
            first_hit_only: false,
            ..ParallelConfig::for_threads(4)
        };
        let r = crack_parallel(&s, &t, s.interval(), cfg);
        let steals: u64 = r.stats.iter().map(|w| w.steals).sum();
        let splits: u64 = r.stats.iter().map(|w| w.splits).sum();
        assert_eq!(steals, splits, "every steal splits exactly one victim");
    }

    #[test]
    fn empty_interval_reports_zero() {
        let s = space();
        let t = targets(&[b"dog"]);
        let r = crack_parallel(&s, &t, Interval::new(0, 0), ParallelConfig::default());
        assert!(r.hits.is_empty());
        assert_eq!(r.tested, 0);
    }

    #[test]
    fn first_hit_stops_early_on_full_space() {
        let s = space();
        // "a" is identifier 0: the search should terminate almost
        // immediately even over the full space. One worker: how far other
        // workers run before they see the stop flag depends on when the
        // host schedules them (`tests/steal_scheduler.rs` bounds that
        // overrun per worker).
        let t = targets(&[b"a"]);
        let cfg = ParallelConfig {
            threads: 1,
            chunk: 1 << 10,
            ..ParallelConfig::default()
        };
        let r = crack_parallel(&s, &t, s.interval(), cfg);
        assert_eq!(r.hits.first().map(|h| h.1.as_bytes()), Some(&b"a"[..]));
        assert!(
            r.tested <= u128::from(cfg.chunk),
            "tested {} of {}, more than one chunk of {}",
            r.tested,
            s.size(),
            cfg.chunk
        );
    }

    #[test]
    fn more_threads_do_not_lose_hits_near_chunk_boundaries() {
        let s = space();
        // Plant keys adjacent to chunk edges.
        let k1 = s.key_at(1023);
        let k2 = s.key_at(1024);
        let ds = vec![
            HashAlgo::Md5.hash_long(k1.as_bytes()),
            HashAlgo::Md5.hash_long(k2.as_bytes()),
        ];
        let t = TargetSet::new(HashAlgo::Md5, &ds);
        let cfg = ParallelConfig {
            threads: 8,
            chunk: 1024,
            first_hit_only: false,
            ..ParallelConfig::default()
        };
        let r = crack_parallel(&s, &t, Interval::new(0, 4096), cfg);
        assert_eq!(r.hits.len(), 2);
    }
}
