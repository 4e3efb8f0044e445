//! Properties of the adaptive work-stealing dispatcher.
//!
//! Three contracts keep the scheduler honest:
//!
//! * **exactly-once** — across arbitrary pop/steal interleavings, the
//!   interval deques hand out every identifier exactly once: chunks and
//!   steal-halves only ever *move* work, never duplicate or drop it;
//! * **result equivalence** — a stealing multi-thread search reports the
//!   same hits and tested count as the static and queue schedules;
//! * **bounded cancellation** — once the stop flag is raised, no worker
//!   scans more than one poll quantum of additional keys (the checked
//!   version of the old "may race past the stop flag" comment).
//!
//! The randomized interleavings sample the schedule space; the
//! `eks-verify` model checker closes the gap by exhaustively exploring
//! *every* interleaving of a bounded configuration (the model shares the
//! live `steal_split` / `ChunkPolicy` arithmetic, so the verified
//! relation cannot drift from the shipped scheduler).

// Indexing/slicing below is over fixed-size state arrays or lengths
// established by construction; the workspace `clippy::indexing_slicing`
// escalation guards new code, not these proven accesses.
#![allow(clippy::indexing_slicing)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use eks::core::prop::{forall, Rng};
use eks::cracker::batch::Lanes;
use eks::cracker::{cpu_backend, TargetSet};
use eks::engine::{
    poll_quantum, Backend, ChunkPolicy, Dispatcher, IntervalDeques, Retune, ScanMode,
    ScanReport, SchedOptions, SchedPolicy,
};
use eks::hashes::HashAlgo;
use eks::keyspace::{Charset, Interval, KeySpace, Order};
use eks::verify::{check, standard_checks, CheckOptions, ModelConfig, Mutation, Property};

fn space() -> KeySpace {
    KeySpace::new(Charset::lowercase(), 1, 4, Order::FirstCharFastest).unwrap()
}

fn targets(words: &[&[u8]]) -> TargetSet {
    let ds: Vec<Vec<u8>> = words.iter().map(|w| HashAlgo::Md5.hash_long(w)).collect();
    TargetSet::new(HashAlgo::Md5, &ds)
}

/// Drive the deques single-threaded with a seeded random interleaving:
/// each step picks a random slot, which pops from its own deque when it
/// has work and steals otherwise. Every popped chunk is recorded; the
/// union must tile the original interval exactly.
#[test]
fn random_steal_interleavings_cover_every_identifier_exactly_once() {
    forall("exactly-once under stealing", 60, |rng: &mut Rng| {
        let start = rng.range_u128(0, 1 << 40);
        let len = rng.range_u128(1, 200_000);
        let slots = rng.range(1, 6) as usize;
        let interval = Interval::new(start, len);

        // Random scatter weights, occasionally including zero-weight
        // slots (an empty deque owner that can only ever steal).
        let weights: Vec<f64> =
            (0..slots).map(|_| if rng.index(4) == 0 { 0.0 } else { rng.range(1, 100) as f64 }).collect();
        let deques = if weights.iter().all(|w| *w == 0.0) {
            IntervalDeques::scatter(interval, &vec![1.0; slots])
        } else {
            IntervalDeques::scatter(interval, &weights)
        };

        let policy = match rng.index(3) {
            0 => ChunkPolicy::Fixed(rng.range(1, 5000) as u128),
            1 => ChunkPolicy::Guided { min: rng.range(1, 2000) as u128 },
            _ => ChunkPolicy::Guided { min: 1 },
        };

        let mut popped: Vec<Interval> = Vec::new();
        loop {
            let slot = rng.index(slots);
            match deques.pop(slot, policy) {
                Some(chunk) => popped.push(chunk),
                // Own deque drained: steal. A failed steal means no
                // other deque has work either (single-threaded, so the
                // scan cannot race), and the run is over.
                None => {
                    if deques.steal_into(slot).is_none() {
                        break;
                    }
                }
            }
        }

        // The popped chunks tile [start, start+len) contiguously: no
        // gaps, no overlaps, nothing outside the interval.
        popped.sort_by_key(|iv| iv.start);
        let mut cursor = interval.start;
        for chunk in &popped {
            assert_eq!(chunk.start, cursor, "chunks tile without gap or overlap");
            assert!(!chunk.is_empty(), "no empty pops");
            cursor = chunk.end();
        }
        assert_eq!(cursor, interval.end(), "the tail is covered");
        let total: u128 = popped.iter().map(|iv| iv.len).sum();
        assert_eq!(total, len, "every identifier handed out exactly once");
    });
}

/// The adaptive extension of the exactly-once property: re-scatters
/// injected at *arbitrary* points of a random pop/steal interleaving —
/// with arbitrary (sometimes zero, sometimes degenerate) live weights —
/// still hand out every identifier exactly once. This is the
/// load-shaped cousin of the test above: a re-scatter may move any
/// queued remainder between any pair of slots at any moment, and the
/// union of popped chunks must still tile the interval.
#[test]
fn random_rescatter_points_preserve_exactly_once_coverage() {
    forall("exactly-once under re-scattering", 60, |rng: &mut Rng| {
        let start = rng.range_u128(0, 1 << 40);
        let len = rng.range_u128(1, 200_000);
        let slots = rng.range(2, 6) as usize;
        let interval = Interval::new(start, len);
        let deques = IntervalDeques::scatter(interval, &vec![1.0; slots]);
        let policy = ChunkPolicy::Guided { min: rng.range(1, 2000) as u128 };

        let mut popped: Vec<Interval> = Vec::new();
        let mut rescatters = 0u32;
        loop {
            // An eighth of the steps are drift corrections instead of
            // pops: fresh pseudo-live weights, zeros included (a slot
            // the estimator believes is dead keeps its queue but takes
            // no new work).
            if rng.index(8) == 0 {
                let live: Vec<f64> = (0..slots)
                    .map(|_| if rng.index(5) == 0 { 0.0 } else { rng.range(1, 400) as f64 })
                    .collect();
                if deques.rescatter(&live) {
                    rescatters += 1;
                }
                continue;
            }
            let slot = rng.index(slots);
            match deques.pop(slot, policy) {
                Some(chunk) => popped.push(chunk),
                None => {
                    if deques.steal_into(slot).is_none() {
                        break;
                    }
                }
            }
        }

        popped.sort_by_key(|iv| iv.start);
        let mut cursor = interval.start;
        for chunk in &popped {
            assert_eq!(
                chunk.start, cursor,
                "chunks tile without gap or overlap ({rescatters} re-scatters)"
            );
            assert!(!chunk.is_empty(), "no empty pops");
            cursor = chunk.end();
        }
        assert_eq!(cursor, interval.end(), "the tail is covered");
        let total: u128 = popped.iter().map(|iv| iv.len).sum();
        assert_eq!(total, len, "every identifier handed out exactly once");
    });
}

/// The live closed loop end to end: seeded configurations run the real
/// threaded dispatcher with `--retune` semantics (drift threshold zero,
/// so every elected check re-scatters) and must match the retune-off
/// reference exactly — same exhaustive coverage, same identifier-sorted
/// hit set, and under first-hit the same planted key. This is the
/// integration-level counterpart of the model checker's `Rescatter`
/// transitions: the re-scatter points here fall wherever real chunk
/// timings put them.
#[test]
fn retuned_dispatch_preserves_coverage_and_merge_determinism() {
    forall("retuned dispatch equivalence", 6, |rng: &mut Rng| {
        let s = space();
        let backend = cpu_backend(Lanes::L8);
        let workers = rng.range(2, 4) as usize;
        let chunk = rng.range(512, 4096) as u128;
        let retune = Retune {
            every_chunks: rng.range(1, 4),
            // Zero threshold: every elected drift check re-scatters, so
            // the run crosses as many re-scatter points as possible.
            drift_pct: 0,
        };

        // Exhaustive: the retuned run must agree with the static
        // reference on total coverage and the full merged hit set.
        let planted: Vec<Vec<u8>> = (0..rng.range(1, 3))
            .map(|_| s.key_at(rng.range_u128(0, s.size() - 1)).as_bytes().to_vec())
            .collect();
        let t = TargetSet::new(
            HashAlgo::Md5,
            &planted.iter().map(|w| HashAlgo::Md5.hash_long(w)).collect::<Vec<_>>(),
        );
        let reference = {
            let d = Dispatcher::new(&s, &t, ScanMode::Exhaustive);
            d.run_workers_opts(backend.as_ref(), s.interval(), workers, SchedOptions::for_policy(SchedPolicy::Steal, chunk));
            d.finish()
        };
        let retuned = {
            let d = Dispatcher::new(&s, &t, ScanMode::Exhaustive);
            let opts = SchedOptions { retune: Some(retune), ..SchedOptions::for_policy(SchedPolicy::Steal, chunk) };
            d.run_workers_opts(backend.as_ref(), s.interval(), workers, opts);
            d.finish()
        };
        assert_eq!(retuned.tested, s.size(), "exactly-once coverage under retune");
        assert_eq!(reference.tested, s.size(), "reference covers the space too");
        assert_eq!(retuned.hits, reference.hits, "identifier-sorted merge is identical");

        // First-hit: one planted key; however the re-scatters shuffled
        // the queues, the merge must surface exactly that key.
        let id = rng.range_u128(0, s.size() - 1);
        let key = s.key_at(id);
        let t1 = TargetSet::new(HashAlgo::Md5, &[HashAlgo::Md5.hash_long(key.as_bytes())]);
        let d = Dispatcher::new(&s, &t1, ScanMode::FirstHit);
        let opts = SchedOptions { retune: Some(retune), ..SchedOptions::for_policy(SchedPolicy::Steal, chunk) };
        d.run_workers_opts(backend.as_ref(), s.interval(), workers, opts);
        let r = d.finish();
        assert_eq!(r.hits.len(), 1, "planted key at id {id} under retune");
        assert_eq!(r.hits[0].1.as_bytes(), key.as_bytes());
        assert!(r.tested <= s.size(), "never more than the space");
    });
}

/// The same search run under all three policies must agree on hits and
/// tested counts (exhaustive mode, where both are deterministic).
#[test]
fn stealing_matches_static_and_queue_results() {
    let s = space();
    let t = targets(&[b"dog", b"mnop", b"zzzz"]);
    let backend = cpu_backend(Lanes::L8);
    let mut reference = None;
    for sched in SchedPolicy::ALL {
        let d = Dispatcher::new(&s, &t, ScanMode::Exhaustive);
        d.run_workers_opts(backend.as_ref(), s.interval(), 3, SchedOptions::for_policy(sched, 1 << 12));
        let r = d.finish();
        assert_eq!(r.tested, s.size(), "{sched}");
        match &reference {
            None => reference = Some(r.hits),
            Some(hits) => assert_eq!(&r.hits, hits, "{sched}"),
        }
    }
}

/// A backend that counts every scanned key through the canonical
/// PollCursor walk and raises the stop flag itself once the global
/// count passes its trigger — the worst-case cancellation prober.
struct CountingBackend {
    counted: AtomicU64,
    trigger: u64,
}

impl Backend for CountingBackend {
    fn name(&self) -> String {
        "counting".into()
    }

    fn scan(
        &self,
        space: &KeySpace,
        _targets: &TargetSet,
        interval: Interval,
        stop: &AtomicBool,
        _mode: ScanMode,
    ) -> ScanReport {
        let clamped = interval.intersect(&space.interval());
        let mut cursor = eks::engine::PollCursor::new(clamped, stop);
        let mut report = ScanReport::empty();
        while let Some(chunk) = cursor.next_chunk() {
            // Count key by key, raising the stop flag mid-chunk the
            // moment the trigger is crossed — the chunk still finishes,
            // which is exactly the latency the bound allows.
            for _ in 0..chunk.len {
                if self.counted.fetch_add(1, Ordering::Relaxed) + 1 == self.trigger {
                    stop.store(true, Ordering::Relaxed);
                }
            }
            report.tested += chunk.len;
        }
        report.cancelled = cursor.cancelled();
        report
    }

    fn tuned_rate(&self, _algo: HashAlgo) -> f64 {
        1.0
    }
}

/// After the stop flag is raised at key `K`, every in-flight worker may
/// finish at most the chunk it is scanning: total work is bounded by
/// `K + workers × poll_quantum`.
#[test]
fn cancellation_overruns_at_most_one_poll_quantum_per_worker() {
    let s = KeySpace::new(Charset::lowercase(), 1, 6, Order::FirstCharFastest).unwrap();
    let t = targets(&[b"zzzzzz"]);
    for workers in [1usize, 2, 4] {
        let trigger = 40_000u64;
        let backend = CountingBackend { counted: AtomicU64::new(0), trigger };
        let d = Dispatcher::new(&s, &t, ScanMode::Exhaustive);
        let opts = SchedOptions::for_policy(SchedPolicy::Steal, 1 << 12);
        d.run_workers_opts(&backend, Interval::new(0, 10_000_000), workers, opts);
        let r = d.finish();
        let counted = backend.counted.load(Ordering::Relaxed);
        let bound = trigger as u128 + workers as u128 * poll_quantum(1);
        assert!(
            counted as u128 <= bound,
            "{workers} workers: counted {counted} > bound {bound}"
        );
        assert!(counted >= trigger, "{workers} workers: ran at least to the trigger");
        assert_eq!(r.tested, counted as u128, "dispatcher accounting matches the count");
    }
}

/// Stealing under first-hit still reports the planted key and never
/// tests more than the whole space.
#[test]
fn first_hit_under_stealing_finds_a_planted_key() {
    forall("first-hit steal finds the key", 20, |rng: &mut Rng| {
        let s = space();
        let id = rng.range_u128(0, s.size() - 1);
        let key = s.key_at(id);
        let t = TargetSet::new(HashAlgo::Md5, &[HashAlgo::Md5.hash_long(key.as_bytes())]);
        let backend = cpu_backend(Lanes::L16);
        let d = Dispatcher::new(&s, &t, ScanMode::FirstHit);
        d.run_workers_opts(backend.as_ref(), s.interval(), 3, SchedOptions::for_policy(SchedPolicy::Steal, 256));
        let r = d.finish();
        assert_eq!(r.hits.len(), 1, "planted key at id {id}");
        assert_eq!(r.hits[0].1.as_bytes(), key.as_bytes());
        assert!(r.tested <= s.size(), "never more than the space");
        let steals: u64 = r.stats.iter().map(|w| w.steals).sum();
        let splits: u64 = r.stats.iter().map(|w| w.splits).sum();
        assert_eq!(steals, splits, "steal/split accounting stays balanced");
    });
}

/// The acceptance configuration: two workers popping eight two-key
/// intervals. The exhaustive exploration must be nontrivial (well past
/// 10^3 distinct states) and clean, and exhaustive mode must reach the
/// same merged hit set on every complete schedule.
#[test]
fn model_checker_exhausts_two_workers_eight_intervals() {
    let out = check(ModelConfig::steal_intervals(2, 8), CheckOptions::default());
    assert!(out.clean(), "{}", out.violation.unwrap().render());
    assert!(!out.truncated, "the bounded exploration must complete");
    assert!(out.states > 1_000, "only {} states: the model collapsed", out.states);
    assert_eq!(out.outcomes.len(), 1, "merge must be schedule-independent");
}

/// Every standard check stays clean up to three workers (the largest
/// worker count that explores in seconds), across steal/guided/first-hit
/// /cancel/static shapes.
#[test]
fn model_checker_standard_suite_is_clean_up_to_three_workers() {
    for workers in 1..=3 {
        // Three workers explore a factorially larger schedule space:
        // shrink the interval count to keep the suite under a second.
        let intervals = if workers == 3 { 3 } else { 6 };
        for named in standard_checks(workers, intervals) {
            let out = check(named.config, CheckOptions::default());
            assert!(
                out.clean(),
                "{} (workers={workers}): {}",
                named.name,
                out.violation.unwrap().render()
            );
            assert!(!out.truncated, "{} must explore to completion", named.name);
        }
    }
}

/// Negative path: each seeded protocol bug must be caught by exactly the
/// property it breaks, with a non-empty counterexample schedule.
#[test]
fn model_checker_flags_every_seeded_scheduler_bug() {
    let cases = [
        (Mutation::DropStolenLease, Property::NoLostLease, ModelConfig::steal_intervals(2, 4)),
        (Mutation::DoubleCountSteal, Property::ExactlyOnce, ModelConfig::steal_intervals(2, 4)),
        (Mutation::MergeHighestFirst, Property::MergeDeterminism, ModelConfig::first_hit(2, 8)),
        (Mutation::IgnoreCancelPoll, Property::CancellationBound, ModelConfig::cancel_bound(2, 8)),
        (Mutation::StopAtAnyHit, Property::MergeDeterminism, ModelConfig::first_hit(2, 8)),
    ];
    for (mutation, property, cfg) in cases {
        let out = check(cfg.with_mutation(mutation), CheckOptions::default());
        let v = out.violation.unwrap_or_else(|| panic!("{mutation:?} was not flagged"));
        assert_eq!(v.property, property, "{mutation:?} must break {property}");
        assert!(!v.trace.is_empty(), "{mutation:?} needs a printable counterexample");
    }
}
