//! Structured keyspaces through the batched kernels ≡ the scalar oracle.
//!
//! `crack_space_parallel` scans masks and hybrid dictionaries with the
//! lane loop of `eks::cracker::batch` — the ISA-dispatched hash kernels
//! fed by the space's own block writer — where it used to hash one
//! candidate at a time. The reference it is held to is that old loop,
//! [`crack_space_interval`]: same hits (identifier, key, target index)
//! and, when the search is exhaustive, the same `tested`; a first-hit
//! search returns exactly the lowest matching identifier, whatever the
//! threads do.

// Indexing below is over vectors sized by the same expression that draws
// the index; the workspace `clippy::indexing_slicing` escalation guards
// product code.
#![allow(clippy::indexing_slicing)]

use std::sync::atomic::AtomicBool;

use eks::core::prop::{forall, Rng};
use eks::core::SolutionSpace;
use eks::cracker::batch::{Kernel, Lanes};
use eks::cracker::{
    crack_interval_batched, crack_space_interval, crack_space_parallel, ParallelConfig, TargetSet,
};
use eks::hashes::HashAlgo;
use eks::keyspace::{
    BlockSpace, Charset, HybridSpace, Interval, Key, KeySpace, MaskSlot, MaskSpace, Order,
};

const ALGOS: [HashAlgo; 4] =
    [HashAlgo::Md5, HashAlgo::Sha1, HashAlgo::Ntlm, HashAlgo::Md5Iter { iters: 3 }];
/// Cursor chunks: below, at and above the 4096-key stop poll, and none a
/// multiple of a lane width except the last.
const CHUNKS: [u64; 7] = [1, 7, 33, 97, 1_000, 4_097, 8_192];

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

/// Digests of 1–4 candidates of the space, plus one nothing hashes to.
fn plant<S: BlockSpace>(space: &S, algo: HashAlgo, rng: &mut Rng) -> TargetSet {
    let size = space.size().expect("finite");
    let mut digests: Vec<Vec<u8>> = (0..rng.range(1, 4))
        .map(|_| algo.hash(space.generate(rng.range_u128(0, size - 1)).as_bytes()))
        .collect();
    digests.push(vec![0xa5; algo.digest_len()]);
    TargetSet::new(algo, &digests)
}

/// One drawn search of `space`: batched parallel ≡ scalar, both modes,
/// and the portable lane cores ≡ scalar on a ragged interval.
fn check_space<S: BlockSpace + Sync>(space: &S, rng: &mut Rng, name: &str) {
    let size = space.size().expect("finite");
    let stop = AtomicBool::new(false);
    for algo in ALGOS {
        let targets = plant(space, algo, rng);
        let oracle = crack_space_interval(space, &targets, 0, size, &stop, false);
        assert_eq!(oracle.tested, size);
        assert!(!oracle.hits.is_empty(), "planted keys are found, {name} {algo:?}");
        for threads in [1, 3] {
            let config = ParallelConfig {
                threads,
                chunk: CHUNKS[rng.index(CHUNKS.len())],
                first_hit_only: false,
                lanes: [Lanes::L8, Lanes::L16][rng.index(2)],
                ..ParallelConfig::default()
            };
            let case = format!("{name} {algo:?} {config:?}");
            let all = crack_space_parallel(space, &targets, config);
            assert_eq!(all.hits, oracle.hits, "exhaustive hits, {case}");
            assert_eq!(all.tested, size, "exhaustive tested, {case}");
            assert_eq!(all.stats.len(), threads, "one stats row per worker, {case}");
            assert_eq!(all.stats.iter().map(|w| w.tested).sum::<u128>(), size, "{case}");
            let first = crack_space_parallel(space, &targets, ParallelConfig { first_hit_only: true, ..config });
            assert_eq!(first.hits, oracle.hits[..1], "first hit is the lowest id, {case}");
            assert!(first.tested <= size, "{case}");
        }
        // The portable cores (on an AVX host the search above dispatched
        // past them), on an interval with a ragged start and tail.
        let start = rng.range_u128(0, size / 2);
        let interval = Interval::new(start, rng.range_u128(1, size - start));
        let oracle = crack_space_interval(space, &targets, interval.start, interval.len, &stop, false);
        for lanes in [Lanes::L8, Lanes::L16] {
            let batched = crack_interval_batched(
                space,
                &targets,
                interval,
                &stop,
                false,
                Kernel::Portable(lanes),
                &eks::telemetry::Telemetry::disabled(),
            );
            assert_eq!(batched, oracle, "portable {lanes} over {interval:?}, {name} {algo:?}");
        }
    }
}

#[test]
fn batched_mask_search_equals_the_scalar_oracle() {
    for len in 1..=20 {
        forall("batched mask search equals scalar", 2, |rng| {
            let mask = random_mask(rng, len);
            check_space(&mask, rng, &format!("mask of {len} ({} keys)", mask.size()));
        });
    }
}

#[test]
fn batched_hybrid_search_equals_the_scalar_oracle() {
    forall("batched hybrid search equals scalar", 16, |rng| {
        let hybrid = random_hybrid(rng);
        check_space(&hybrid, rng, &format!("hybrid of {} keys", hybrid.size()));
    });
}

#[test]
fn scalar_lanes_and_iterated_md5_take_the_oracle_itself() {
    // `Lanes::Scalar` and algorithms without a lockstep formulation run
    // `crack_space_interval` chunk by chunk: first-hit `tested` is then
    // exact to the key on one thread (no batch rounding).
    let mask = MaskSpace::parse("?d?l?d").expect("mask");
    let key = mask.key_at(1_234);
    for (algo, lanes) in [
        (HashAlgo::Ntlm, Lanes::Scalar),
        (HashAlgo::Md5Iter { iters: 3 }, Lanes::L8),
    ] {
        let targets = TargetSet::new(algo, &[algo.hash(key.as_bytes())]);
        let config = ParallelConfig { threads: 1, chunk: 1_000, lanes, ..ParallelConfig::default() };
        let report = crack_space_parallel(&mask, &targets, config);
        assert_eq!(report.hits, vec![(1_234, key.clone(), 0)], "{algo:?} {lanes}");
        assert_eq!(report.tested, 1_235, "{algo:?} {lanes}");
        assert!(report.stats[0].label.starts_with("scalar#"), "{:?}", report.stats[0].label);
    }
}

/// The lowest identifier any of `keys` has in the space.
fn lowest_id<S: SolutionSpace<Solution = Key>>(space: &S, keys: &[Key]) -> u128 {
    keys.iter()
        .map(|k| space.identify(k).expect("planted keys are members"))
        .min()
        .expect("at least one planted key")
}

#[test]
fn first_hit_is_the_lowest_identifier_on_every_threaded_run() {
    // 240 multi-target searches on three racing workers, chunks on both
    // sides of the 4096-key stop poll: a hit in chunk n must not cancel
    // the worker still inside chunk n - 1, and the answer may not depend
    // on who finishes first. The expectation needs no sweep: `identify`
    // is the lowest identifier of a planted key (for a repeated hybrid
    // word, its first occurrence).
    let mask = MaskSpace::parse("?l?d?l?d").expect("mask"); // 67 600 keys
    let words: Vec<Vec<u8>> = (0..40).map(|i| format!("w{}", i % 37).into_bytes()).collect();
    let refs: Vec<&[u8]> = words.iter().map(Vec::as_slice).collect();
    let hybrid = HybridSpace::with_digit_suffixes(&refs, 3).expect("hybrid"); // 44 440 keys
    fn run<S: BlockSpace + Sync>(space: &S, rng: &mut Rng, name: &str) {
        let size = space.size().expect("finite");
        let algo = [HashAlgo::Md5, HashAlgo::Sha1, HashAlgo::Ntlm][rng.index(3)];
        // Targets spread over the space, often in neighbouring chunks.
        let chunk = [512u64, 3_000, 4_096, 5_000, 10_000, 16_384][rng.index(6)];
        let anchor = rng.range_u128(0, size - 1);
        let keys: Vec<Key> = (0..rng.range(2, 5))
            .map(|_| {
                let near = anchor.saturating_add(rng.range_u128(0, 3 * u128::from(chunk)));
                space.generate(if rng.below(3) == 0 { rng.range_u128(0, size - 1) } else { near.min(size - 1) })
            })
            .collect();
        let digests: Vec<Vec<u8>> = keys.iter().map(|k| algo.hash(k.as_bytes())).collect();
        let targets = TargetSet::new(algo, &digests);
        let want = lowest_id(space, &keys);
        let config = ParallelConfig { threads: 3, chunk, ..ParallelConfig::default() };
        let report = crack_space_parallel(space, &targets, config);
        assert_eq!(report.hits.len(), 1, "{name} {algo:?} chunk {chunk}");
        let (id, key, target) = &report.hits[0];
        assert_eq!(*id, want, "{name} {algo:?} chunk {chunk}: planted {keys:?}");
        assert_eq!(*key, space.generate(want));
        assert_eq!(targets.digest(*target), algo.hash(key.as_bytes()).as_slice());
    }
    forall("lowest-id first hit, mask", 120, |rng| run(&mask, rng, "mask"));
    forall("lowest-id first hit, hybrid", 120, |rng| run(&hybrid, rng, "hybrid"));
}
