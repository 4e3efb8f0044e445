//! One differential for every way to search: backend × space × scheduler
//! × retune × scan mode, against the one scalar oracle.
//!
//! The paper's point is that one dispatch pattern covers heterogeneous
//! devices *and* every search strategy — a strategy changes the bijection,
//! a device the test kernel, and neither the result. So every
//! [`eks::engine::Backend`] (scalar, the CPU backend's portable 8/16-lane
//! cores, its detected kernel, every explicit-SIMD ISA the host allows,
//! and for charset spaces the simulated-GPU kernel) is run through the
//! same `Dispatcher` search over brute-force ranges in both orders, masks
//! and hybrid dictionaries, under every `SchedPolicy`, with and without a
//! forced re-scatter at every chunk, and held to
//! [`eks::cracker::crack_interval`]: the same hits (identifier, key, target
//! index) and `tested == interval.len` when exhaustive; under first-hit
//! the **lowest matching identifier** whenever several digests are
//! searched, whatever the threads do, and a genuine occurrence of the one
//! key when one is.

// Indexing below is over vectors sized by the same expression that draws
// the index; the workspace `clippy::indexing_slicing` escalation guards
// product code.
#![allow(clippy::indexing_slicing)]

use std::sync::atomic::AtomicBool;

use eks::cluster::SimKernelBackend;
use eks::core::prop::{forall, Rng};
use eks::cracker::batch::Lanes;
use eks::cracker::{
    cpu_backend, crack_interval, crack_parallel, crack_parallel_backend, crack_space_parallel,
    AutoBackend, CpuBackend, ParallelConfig, ScalarBackend, TargetSet,
};
use eks::engine::{Backend, Dispatcher, Retune, ScanMode, SchedPolicy};
use eks::gpusim::device::Device;
use eks::hashes::{HashAlgo, SimdIsa};
use eks::keyspace::{
    BlockSpace, Charset, HybridSpace, Interval, Key, KeySpace, MaskSlot, MaskSpace, Order,
};

const ALGOS: [HashAlgo; 4] =
    [HashAlgo::Md5, HashAlgo::Sha1, HashAlgo::Ntlm, HashAlgo::Md5Iter { iters: 3 }];
/// Chunk knobs: below, at and above the 4096-key stop poll, and none a
/// multiple of a lane width except the last.
const CHUNKS: [u64; 7] = [1, 7, 33, 97, 1_000, 4_097, 8_192];

/// Every backend that can search `S`, freshly built. On a host with an
/// explicit ISA the detected kernel dispatches past the portable cores, so
/// they join through the constructor that never dispatches; each explicit
/// ISA joins only where the CPU exposes it.
fn backends<S: BlockSpace + 'static>() -> Vec<Box<dyn Backend<S>>> {
    let mut all: Vec<Box<dyn Backend<S>>> = vec![
        Box::new(ScalarBackend),
        Box::new(CpuBackend::portable(Lanes::L8)),
        Box::new(CpuBackend::portable(Lanes::L16)),
        Box::new(CpuBackend::detect(Lanes::L8)),
    ];
    for simd in SimdIsa::ALL.into_iter().filter_map(|isa| CpuBackend::new(isa).ok()) {
        all.push(Box::new(simd));
    }
    all
}

/// [`backends`] plus what only enumerates charset keys: the simulated GPU
/// kernel and the older spellings of the CPU backend.
fn keyspace_backends() -> Vec<Box<dyn Backend>> {
    let mut all = backends::<KeySpace>();
    all.push(Box::new(SimKernelBackend::new(Device::geforce_gtx_660())));
    all.push(cpu_backend(Lanes::L16));
    all.push(Box::new(AutoBackend::new(eks::telemetry::Telemetry::disabled())));
    all
}

/// A brute-force range of at most ~18k keys, in either order.
fn random_keyspace(rng: &mut Rng) -> KeySpace {
    let (charset, longest) = match rng.index(3) {
        0 => (Charset::lowercase(), 3),
        1 => (Charset::digits(), 4),
        _ => (Charset::from_bytes(b"abcd").unwrap(), 4),
    };
    let min = rng.range(1, 2) as u32;
    let order = [Order::FirstCharFastest, Order::LastCharFastest][rng.index(2)];
    KeySpace::new(charset, min, rng.range(min as u64, longest) as u32, order).unwrap()
}

/// A mask of `len` positions holding a few thousand candidates at most:
/// literals, one-symbol sets, and up to three positions with a real
/// choice — the last of them anywhere from byte 0 to byte `len - 1`, so
/// the stepping byte lands in every block word, in both byte orders.
fn random_mask(rng: &mut Rng, len: usize) -> MaskSpace {
    let mut slots: Vec<MaskSlot> = (0..len)
        .map(|_| match rng.below(2) {
            0 => MaskSlot::Literal(b'!' + rng.below(90) as u8),
            _ => MaskSlot::Set(Charset::from_bytes(&[b'0' + rng.below(70) as u8]).expect("one symbol")),
        })
        .collect();
    for _ in 0..rng.range(1, 3) {
        let choice = [Charset::digits(), Charset::lowercase(), Charset::from_bytes(b"xyz").expect("distinct")];
        slots[rng.index(len)] = MaskSlot::Set(choice[rng.index(3)].clone());
    }
    MaskSpace::from_slots(slots).expect("at most 26^3 candidates")
}

/// Words of different lengths, one of them twice, so batches span word
/// boundaries, change length mid-batch, and one candidate has two ids.
fn random_hybrid(rng: &mut Rng) -> HybridSpace {
    let mut words: Vec<Vec<u8>> = (0..rng.range(2, 12))
        .map(|_| {
            let len = rng.range(1, 10) as usize;
            rng.vec(len, |r| b'a' + r.below(26) as u8)
        })
        .collect();
    words.push(words[0].clone());
    let refs: Vec<&[u8]> = words.iter().map(Vec::as_slice).collect();
    match rng.below(3) {
        0 => HybridSpace::dictionary_only(&refs),
        1 => HybridSpace::with_digit_suffixes(&refs, rng.range(1, 2) as u32),
        _ => {
            let suffix = KeySpace::new(Charset::from_bytes(b"!19").expect("distinct"), 0, 3, Order::FirstCharFastest);
            HybridSpace::new(&refs, suffix.expect("fits u128"))
        }
    }
    .expect("words + suffix fit a key")
}

/// A drawn scheduler: any policy, any chunk, 1–3 threads, and half the
/// time a retune whose zero threshold re-scatters at every drift check.
fn random_config(rng: &mut Rng) -> ParallelConfig {
    ParallelConfig {
        threads: 1 + rng.index(3),
        chunk: CHUNKS[rng.index(CHUNKS.len())],
        first_hit_only: false,
        sched: SchedPolicy::ALL[rng.index(3)],
        retune: (rng.below(2) == 0).then(|| Retune { every_chunks: rng.range(1, 4), drift_pct: 0 }),
        ..ParallelConfig::default()
    }
}

/// The property. For two drawn algorithms: one drawn interval of `space`
/// (the whole space, or a stretch with a ragged start and tail), the
/// digest of one of its candidates alone (half the cases: the reversed
/// single-target kernels) or of 1–3 plus one nothing hashes to, and for
/// every backend a drawn scheduler: exhaustive ≡ the oracle, and
/// first-hit on three racing workers = the oracle's first hit (with one
/// digest whose key has two ids, either of them).
fn check_space<S: BlockSpace + Sync>(space: &S, backends: &[Box<dyn Backend<S>>], rng: &mut Rng, name: &str) {
    let size = space.size().expect("finite");
    let stop = AtomicBool::new(false);
    let skip = rng.index(ALGOS.len());
    for algo in [ALGOS[(skip + 1) % 4], ALGOS[(skip + 2) % 4]] {
        let start = if rng.below(2) == 0 { 0 } else { rng.range_u128(0, size / 2) };
        let interval = Interval::new(start, if start == 0 { size } else { rng.range_u128(1, size - start) });
        // Half the cases seek one planted digest alone — the single-target
        // reversed kernels' case — the rest several plus one nothing
        // hashes to.
        let single = rng.below(2) == 0;
        let mut digests: Vec<Vec<u8>> = (0..if single { 1 } else { rng.range(1, 4) })
            .map(|_| algo.hash(space.generate(rng.range_u128(start, interval.end() - 1)).as_bytes()))
            .collect();
        if !single {
            digests.push(vec![0xa5; algo.digest_len()]);
        }
        let targets = TargetSet::new(algo, &digests);
        let oracle = crack_interval(space, &targets, interval, &stop, false);
        assert_eq!(oracle.tested, interval.len);
        assert!(!oracle.hits.is_empty(), "planted keys are found, {name} {algo:?}");
        for backend in backends {
            let config = random_config(rng);
            let case = format!("{} on {name} {interval:?} {algo:?} {config:?}", backend.name());
            let all = crack_parallel_backend(space, &targets, interval, backend.as_ref(), config);
            assert_eq!(all.hits, oracle.hits, "exhaustive hits, {case}");
            assert_eq!(all.tested, interval.len, "exhaustive tested, {case}");
            assert_eq!(all.stats.len(), config.threads, "one stats row per worker, {case}");
            assert_eq!(all.stats.iter().map(|w| w.tested).sum::<u128>(), interval.len, "{case}");
            let racing = ParallelConfig { first_hit_only: true, threads: 3, ..config };
            let first = crack_parallel_backend(space, &targets, interval, backend.as_ref(), racing);
            if targets.len() > 1 || oracle.hits.len() == 1 {
                assert_eq!(first.hits, oracle.hits[..1], "first hit is the lowest id, {case}");
            } else {
                // One digest whose key has several ids (a repeated hybrid
                // word): any hit ends the search, and it is one of them.
                assert_eq!(first.hits.len(), 1, "{case}");
                assert!(oracle.hits.contains(&first.hits[0]), "a planted occurrence, {case}");
            }
            assert!(first.tested <= interval.len, "{case}");
        }
    }
}

#[test]
fn exhaustive_hit_sets_are_identical_across_backends() {
    forall("keyspace differential", 8, |rng| {
        let space = random_keyspace(rng);
        check_space(&space, &keyspace_backends(), rng, &format!("{space:?}"));
    });
}

#[test]
fn batched_mask_search_equals_the_scalar_oracle() {
    for len in 1..=20 {
        forall("mask differential", 2, |rng| {
            let mask = random_mask(rng, len);
            check_space(&mask, &backends(), rng, &format!("mask of {len} ({} keys)", mask.size()));
        });
    }
}

#[test]
fn batched_hybrid_search_equals_the_scalar_oracle() {
    forall("hybrid differential", 16, |rng| {
        let hybrid = random_hybrid(rng);
        check_space(&hybrid, &backends(), rng, &format!("hybrid of {} keys", hybrid.size()));
    });
}

#[test]
fn scalar_lanes_and_iterated_md5_take_the_oracle_itself() {
    // `Lanes::Scalar` and algorithms without a lockstep formulation run
    // `crack_interval` chunk by chunk: first-hit `tested` is then exact to
    // the key on one thread (no batch rounding).
    let mask = MaskSpace::parse("?d?l?d").expect("mask");
    let key = mask.key_at(1_234);
    for (algo, lanes) in [(HashAlgo::Ntlm, Lanes::Scalar), (HashAlgo::Md5Iter { iters: 3 }, Lanes::L8)] {
        let targets = TargetSet::new(algo, &[algo.hash(key.as_bytes())]);
        let config = ParallelConfig { threads: 1, chunk: 1_000, lanes, ..ParallelConfig::default() };
        let report = crack_space_parallel(&mask, &targets, config);
        assert_eq!(report.hits, vec![(1_234, key.clone(), 0)], "{algo:?} {lanes}");
        assert_eq!(report.tested, 1_235, "{algo:?} {lanes}");
        assert_eq!(CpuBackend::detect(lanes).isa(algo).as_deref(), Some("scalar"), "{algo:?} {lanes}");
    }
}

#[test]
fn first_hit_winner_is_the_lowest_identifier_on_every_backend() {
    // Two digests on a plain `KeySpace`, two workers under the default
    // config: the lower id sits late in worker 0's share, the higher one
    // early in worker 1's, so worker 1 always hits first — and must not
    // win. (Before the floor rule the higher id came back in 11 of 20
    // such runs.)
    let plant = |longest, gap| {
        let space = KeySpace::new(Charset::lowercase(), 1, longest, Order::FirstCharFastest).unwrap();
        let ids = [space.size() / 2 - gap, space.size() / 2 + gap];
        let digests = ids.map(|id| HashAlgo::Md5.hash(space.key_at(id).as_bytes()));
        (TargetSet::new(HashAlgo::Md5, &digests), ids[0], space)
    };
    let (targets, low, space) = plant(4, 2_000);
    for _ in 0..5 {
        let report = crack_parallel(&space, &targets, space.interval(), ParallelConfig::for_threads(2));
        assert_eq!(report.hits.iter().map(|h| h.0).collect::<Vec<_>>(), [low], "default backend");
    }
    // The same shape, thirteen times smaller, for every backend and policy.
    let (targets, low, space) = plant(3, 200);
    for backend in keyspace_backends() {
        for sched in SchedPolicy::ALL {
            let config = ParallelConfig { sched, chunk: 512, ..ParallelConfig::for_threads(2) };
            let report = crack_parallel_backend(&space, &targets, space.interval(), backend.as_ref(), config);
            assert_eq!(report.hits.iter().map(|h| h.0).collect::<Vec<_>>(), [low], "{} {sched}", backend.name());
        }
    }
}

#[test]
fn first_hit_is_the_lowest_identifier_on_every_threaded_run() {
    // 240 multi-target searches on three racing workers, any policy, any
    // backend, chunks on both sides of the 4096-key stop poll: a hit must
    // not cancel a worker still below it, and the answer may not depend on
    // who finishes first. The expectation needs no sweep: `identify` is
    // the lowest identifier of a planted key (for a repeated hybrid word,
    // its first occurrence).
    let mask = MaskSpace::parse("?l?d?l?d").expect("mask"); // 67 600 keys
    let words: Vec<Vec<u8>> = (0..40).map(|i| format!("w{}", i % 37).into_bytes()).collect();
    let refs: Vec<&[u8]> = words.iter().map(Vec::as_slice).collect();
    let hybrid = HybridSpace::with_digit_suffixes(&refs, 3).expect("hybrid"); // 44 440 keys
    fn run<S: BlockSpace + Sync + 'static>(space: &S, rng: &mut Rng, name: &str) {
        let size = space.size().expect("finite");
        let algo = [HashAlgo::Md5, HashAlgo::Sha1, HashAlgo::Ntlm][rng.index(3)];
        // Targets spread over the space, often in neighbouring chunks.
        let chunk = [512u64, 3_000, 4_096, 5_000, 10_000, 16_384][rng.index(6)];
        let anchor = rng.range_u128(0, size - 1);
        let mut keys: Vec<Key> = (0..rng.range(2, 5))
            .map(|_| {
                let near = anchor.saturating_add(rng.range_u128(0, 3 * u128::from(chunk)));
                space.generate(if rng.below(3) == 0 { rng.range_u128(0, size - 1) } else { near.min(size - 1) })
            })
            .collect();
        // Several digests means several distinct keys: draws that all hit
        // one key (`w2999` is `w2` + `999` and `w29` + `99`) leave one
        // digest, whose first hit may be any of its ids.
        while keys.iter().all(|k| *k == keys[0]) {
            keys.push(space.generate(rng.range_u128(0, size - 1)));
        }
        let digests: Vec<Vec<u8>> = keys.iter().map(|k| algo.hash(k.as_bytes())).collect();
        let targets = TargetSet::new(algo, &digests);
        let want = keys.iter().map(|k| space.identify(k).expect("member")).min().expect("planted");
        let mut all = backends::<S>();
        let backend = all.swap_remove(rng.index(all.len()));
        let config = ParallelConfig { threads: 3, chunk, sched: SchedPolicy::ALL[rng.index(3)], ..ParallelConfig::default() };
        let report = crack_parallel_backend(space, &targets, Interval::new(0, size), backend.as_ref(), config);
        let case = format!("{name} {algo:?} {} {config:?}", backend.name());
        assert_eq!(report.hits.len(), 1, "{case}");
        let (id, key, target) = &report.hits[0];
        assert_eq!(*id, want, "{case}: planted {keys:?}");
        assert_eq!(*key, space.generate(want));
        assert_eq!(targets.digest(*target), algo.hash(key.as_bytes()).as_slice());
    }
    forall("lowest-id first hit, mask", 120, |rng| run(&mask, rng, "mask"));
    forall("lowest-id first hit, hybrid", 120, |rng| run(&hybrid, rng, "hybrid"));
}

#[test]
fn multi_worker_first_hit_returns_a_real_planted_hit() {
    // One digest: any hit ends the search, so with four workers racing
    // WHICH occurrence wins can vary — a repeated hybrid word has two
    // identifiers — but the winner is the planted key at one of its own.
    fn run<S: BlockSpace + Sync + 'static>(space: &S, rng: &mut Rng) {
        let size = space.size().expect("finite");
        let key = space.generate(rng.range_u128(0, size - 1));
        let algo = ALGOS[rng.index(3)];
        let targets = TargetSet::new(algo, &[algo.hash(key.as_bytes())]);
        let mut all = backends::<S>();
        let backend = all.swap_remove(rng.index(all.len()));
        let config = ParallelConfig { threads: 4, ..random_config(rng) };
        let racing = ParallelConfig { first_hit_only: true, ..config };
        let report = crack_parallel_backend(space, &targets, Interval::new(0, size), backend.as_ref(), racing);
        assert_eq!(report.hits.len(), 1, "{} {racing:?}", backend.name());
        let (id, found, t) = &report.hits[0];
        assert_eq!((found, *t), (&key, 0), "{} {racing:?}", backend.name());
        assert_eq!(space.generate(*id), key, "{} {racing:?}", backend.name());
    }
    forall("racy single-digest first hit, keyspace", 8, |rng| run(&random_keyspace(rng), rng));
    forall("racy single-digest first hit, hybrid", 8, |rng| run(&random_hybrid(rng), rng));
}

#[test]
fn mid_interval_cancellation_reports_a_subset() {
    forall("cancellation subset", 8, |rng| {
        let algo = HashAlgo::Md5;
        let space = random_keyspace(rng);
        let digests: Vec<Vec<u8>> = (0..3)
            .map(|_| algo.hash(space.key_at(rng.range_u128(0, space.size() - 1)).as_bytes()))
            .collect();
        let targets = TargetSet::new(algo, &digests);
        let interval = space.interval();
        let stop = AtomicBool::new(false);
        let reference = crack_interval(&space, &targets, interval, &stop, false).hits;

        // A scan cancelled somewhere mid-interval: raise the stop flag
        // from a watcher thread after a drawn number of spins (none: the
        // flag is up before the first poll).
        let backends = keyspace_backends();
        let backend = backends[rng.index(backends.len())].as_ref();
        let d = Dispatcher::new(&space, &targets, ScanMode::Exhaustive);
        let spins = rng.below(3) * rng.below(20_000);
        let w = d.register("cancelled");
        let report = std::thread::scope(|scope| {
            let handle = scope.spawn(|| d.scan_as(w, backend, interval));
            for _ in 0..spins {
                if handle.is_finished() {
                    break;
                }
                std::hint::spin_loop();
            }
            d.cancel();
            handle.join().expect("scan thread")
        });
        assert!(report.tested <= interval.len);
        for hit in &report.hits {
            assert!(reference.contains(hit), "cancelled scan invented a hit");
        }
        let r = d.finish();
        assert_eq!(r.tested, report.tested, "accounting matches the scan report");
    });
}

/// The dispatch itself: on a host with an explicit ISA the lane backends
/// must *be* the explicit backend — same hits, same `tested` (which
/// counts whole batches of the kernel that ran, so it tells a 32-key
/// AVX-512 batch from an 8-key portable one) — in both scan modes, for
/// every algorithm and enumeration order.
#[test]
fn dispatched_lane_backends_equal_the_best_explicit_backend() {
    let Some(simd) = CpuBackend::best() else {
        eprintln!("skipped: no explicit-SIMD ISA on this host");
        return;
    };
    let stop = AtomicBool::new(false);
    for order in [Order::FirstCharFastest, Order::LastCharFastest] {
        let space = KeySpace::new(Charset::lowercase(), 1, 3, order).unwrap();
        for algo in [HashAlgo::Md5, HashAlgo::Sha1, HashAlgo::Ntlm] {
            let digests: Vec<Vec<u8>> =
                [b"q".as_slice(), b"dog", b"zz"].iter().map(|w| algo.hash(w)).collect();
            let targets = TargetSet::new(algo, &digests);
            // Off a batch boundary at both ends, so the scalar tail runs too.
            let interval = Interval::new(3, space.size() - 5);
            for mode in [ScanMode::Exhaustive, ScanMode::FirstHit] {
                let want = simd.scan(&space, &targets, interval, &stop, mode);
                assert!(!want.hits.is_empty(), "{algo:?} {order:?}: planted keys are in range");
                for lanes in [Lanes::L8, Lanes::L16] {
                    let backend = cpu_backend(lanes);
                    let got = backend.scan(&space, &targets, interval, &stop, mode);
                    let case = format!("{} vs {} {algo:?} {order:?} {mode:?}", backend.name(), simd.name());
                    assert_eq!(got.hits, want.hits, "{case}");
                    assert_eq!(got.tested, want.tested, "{case}");
                    assert_eq!(backend.isa(algo), simd.isa(algo), "{case}");
                }
            }
        }
    }
}
