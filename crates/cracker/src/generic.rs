//! Engines over any space whose candidates are keys — the pattern's
//! promise made concrete: brute-force ranges, masks and hybrid
//! dictionaries all crack through the same machinery because each is a
//! bijection from `0..size` onto its candidates.
//!
//! [`crack_space_parallel`] is what `eks crack --mask/--words` runs: a
//! shared chunk cursor over the space, each chunk scanned by the kernel
//! [`Kernel::detect_for`] resolves for `config.lanes` — the one
//! [`cpu_backend`](crate::cpu_backend) would pick: the widest
//! explicit-SIMD ISA the CPU has, else the portable lanes — through the
//! one lane loop of [`crate::batch`], fed by
//! the space's own block writer ([`BlockSpace::blocks`]: run-based for
//! masks, advance-and-re-pad for hybrids). Only `f` and `next` differ
//! from a `KeySpace` search; the hash kernel is the same code.
//!
//! [`crack_space_interval`] is the scalar oracle of that path, as
//! [`crate::engine::crack_interval`] is for `KeySpace`: one candidate at
//! a time through [`TargetSet::matches`]. It scans tails shorter than a
//! batch, everything under `Lanes::Scalar`, algorithms with no lockstep
//! formulation (`Md5Iter`), and it is the reference the equivalence
//! tests hold the batched path to.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use eks_core::SolutionSpace;
use eks_engine::WorkerStats;
use eks_keyspace::{BlockSpace, Interval, Key};
use eks_telemetry::Telemetry;

use crate::batch::{crack_interval_batched, Kernel};
use crate::parallel::{ParallelConfig, ParallelReport};
use crate::target::TargetSet;

/// Scan `[start, start + len)` of any key-producing space.
///
/// Semantics match [`crate::engine::crack_interval`]: generate once,
/// advance thereafter, poll `stop` between chunks, optionally return at
/// the first hit.
pub fn crack_space_interval<S>(
    space: &S,
    targets: &TargetSet,
    start: u128,
    len: u128,
    stop: &AtomicBool,
    first_hit_only: bool,
) -> crate::engine::CrackOutcome
where
    S: SolutionSpace<Solution = Key>,
{
    const POLL: u128 = 4096;
    let mut hits = Vec::new();
    let mut tested: u128 = 0;
    let mut cancelled = false;
    let size = SolutionSpace::size(space).unwrap_or(u128::MAX);
    let end = start.saturating_add(len).min(size);
    if start >= end {
        return crate::engine::CrackOutcome { hits, tested, cancelled };
    }
    let mut id = start;
    let mut key = space.generate(id);
    'outer: loop {
        if stop.load(Ordering::Relaxed) {
            cancelled = true;
            break;
        }
        let chunk_end = (id + POLL).min(end);
        while id < chunk_end {
            tested += 1;
            if let Some(t) = targets.matches(&key) {
                hits.push((id, key.clone(), t));
                if first_hit_only {
                    break 'outer;
                }
            }
            if id + 1 == end {
                break 'outer;
            }
            space.advance(id, &mut key);
            id += 1;
        }
    }
    crate::engine::CrackOutcome { hits, tested, cancelled }
}

/// One worker's cancellation state in [`crack_space_parallel`].
struct Slot {
    /// The chunk the worker last took off the cursor.
    chunk: AtomicU64,
    /// Raised once a hit is known in a chunk below the worker's.
    stop: AtomicBool,
}

/// Parallel search over any key-producing space: a chunked shared cursor
/// like [`SchedPolicy::Queue`](eks_engine::SchedPolicy), each chunk
/// scanned by the batched kernel `config.lanes` selects (see the module
/// doc). `config.sched` and `config.retune` belong to the `Dispatcher`
/// and are not consulted.
///
/// A first-hit search returns exactly one hit, the lowest matching
/// identifier, whatever the thread timing: a hit in chunk *n* stops only
/// the workers inside chunks above *n*, the ones below finish, and no
/// chunk above the lowest hit chunk is started. `stats` has one row per
/// worker (`steals`/`splits` stay 0 on a shared cursor).
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
    assert!(config.threads >= 1 && config.chunk >= 1);
    let size = SolutionSpace::size(space).expect("finite space");
    let start_t = Instant::now();
    let kernel = Kernel::detect_for(config.lanes, targets.algo());
    let telemetry = Telemetry::disabled();
    let cursor = AtomicU64::new(0);
    // Same cursor-width guard as `crack_parallel`: widen the effective
    // chunk so the chunk count always fits the u64 cursor.
    let chunk: u128 = (config.chunk as u128).max(size.div_ceil(u64::MAX as u128));
    let total_chunks: u64 = size
        .div_ceil(chunk)
        .try_into()
        .expect("size/ceil(size/u64::MAX) chunks always fit a u64");
    let lowest_hit_chunk = AtomicU64::new(u64::MAX);
    let slots: Vec<Slot> = (0..config.threads)
        .map(|_| Slot { chunk: AtomicU64::new(0), stop: AtomicBool::new(false) })
        .collect();
    let hits: Mutex<Vec<(u128, Key, usize)>> = Mutex::new(Vec::new());

    let work = |index: usize, me: &Slot| {
        let mut stats = WorkerStats::new(format!("{}#{index}", kernel.name()));
        let mut idle_since = Instant::now();
        loop {
            let n = cursor.fetch_add(1, Ordering::Relaxed);
            if n >= total_chunks {
                break;
            }
            // SeqCst pairs this store/load with the hitter's
            // `fetch_min`/load below: either the hitter sees this chunk
            // and raises our flag, or we see its hit and stop here.
            me.chunk.store(n, Ordering::SeqCst);
            if n > lowest_hit_chunk.load(Ordering::SeqCst) {
                break;
            }
            let lo = (n as u128) * chunk;
            let interval = Interval::new(lo, chunk.min(size - lo));
            let busy_since = Instant::now();
            let out = crack_interval_batched(
                space,
                targets,
                interval,
                &me.stop,
                config.first_hit_only,
                kernel,
                &telemetry,
            );
            let done = Instant::now();
            stats.idle_ns += (busy_since - idle_since).as_nanos() as u64;
            stats.busy_ns += (done - busy_since).as_nanos() as u64;
            idle_since = done;
            stats.tested += out.tested;
            if out.hits.is_empty() {
                continue;
            }
            hits.lock().expect("no worker panics holding the hits lock").extend(out.hits);
            if config.first_hit_only {
                // Every later chunk of this worker lies above `n` too.
                lowest_hit_chunk.fetch_min(n, Ordering::SeqCst);
                for other in &slots {
                    if other.chunk.load(Ordering::SeqCst) > n {
                        other.stop.store(true, Ordering::Relaxed);
                    }
                }
                break;
            }
        }
        stats.idle_ns += idle_since.elapsed().as_nanos() as u64;
        stats
    };
    let stats: Vec<WorkerStats> = std::thread::scope(|scope| {
        let work = &work;
        let workers: Vec<_> = slots
            .iter()
            .enumerate()
            .map(|(index, me)| scope.spawn(move || work(index, me)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    });

    let elapsed_s = start_t.elapsed().as_secs_f64().max(1e-9);
    let mut all = hits.into_inner().expect("no worker panics holding the hits lock");
    all.sort_by_key(|(id, _, _)| *id);
    if config.first_hit_only {
        // Hits above the lowest one depend on who was cancelled when.
        all.truncate(1);
    }
    let tested: u128 = stats.iter().map(|w| w.tested).sum();
    ParallelReport {
        hits: all,
        tested,
        elapsed_s,
        mkeys_per_s: tested as f64 / elapsed_s / 1e6,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eks_hashes::HashAlgo;
    use eks_keyspace::{HybridSpace, MaskSpace};

    fn targets(words: &[&[u8]]) -> TargetSet {
        let ds: Vec<Vec<u8>> = words.iter().map(|w| HashAlgo::Md5.hash_long(w)).collect();
        TargetSet::new(HashAlgo::Md5, &ds)
    }

    #[test]
    fn mask_attack_cracks_patterned_password() {
        // "Capitalized word-ish + two digits" pattern.
        let mask = MaskSpace::parse("?u?l?l?d?d").unwrap();
        let t = targets(&[b"Cat42"]);
        let cfg = ParallelConfig { threads: 4, chunk: 1 << 12, ..ParallelConfig::default() };
        let r = crack_space_parallel(&mask, &t, cfg);
        assert_eq!(r.hits[0].1.as_bytes(), b"Cat42");
        assert!(r.tested <= mask.size());
    }

    #[test]
    fn hybrid_attack_cracks_word_plus_digits() {
        let words: Vec<&[u8]> = vec![b"winter", b"dragon", b"summer"];
        let space = HybridSpace::with_digit_suffixes(&words, 2).unwrap();
        let t = targets(&[b"dragon77"]);
        let cfg = ParallelConfig { threads: 2, chunk: 64, ..ParallelConfig::default() };
        let r = crack_space_parallel(&space, &t, cfg);
        assert_eq!(r.hits[0].1.as_bytes(), b"dragon77");
    }

    #[test]
    fn full_sweep_counts_every_candidate() {
        let mask = MaskSpace::parse("?d?d?d").unwrap();
        let t = targets(&[b"zzz-not-there"]);
        let cfg = ParallelConfig {
            threads: 3,
            chunk: 97,
            first_hit_only: false,
            ..ParallelConfig::default()
        };
        let r = crack_space_parallel(&mask, &t, cfg);
        assert_eq!(r.tested, 1000);
        assert!(r.hits.is_empty());
    }

    #[test]
    fn interval_respects_bounds() {
        let mask = MaskSpace::parse("?d?d").unwrap();
        let t = targets(&[b"57"]);
        let stop = AtomicBool::new(false);
        let hit = crack_space_interval(&mask, &t, 50, 10, &stop, true);
        assert_eq!(hit.hits.len(), 1, "57 is id 57 in a ?d?d mask");
        let miss = crack_space_interval(&mask, &t, 0, 57, &stop, true);
        assert!(miss.hits.is_empty());
    }

    #[test]
    fn generic_and_specialized_engines_agree() {
        use eks_keyspace::{Charset, KeySpace, Order};
        let ks = KeySpace::new(Charset::lowercase(), 1, 3, Order::FirstCharFastest).unwrap();
        let t = targets(&[b"cab", b"me"]);
        let stop = AtomicBool::new(false);
        let generic = crack_space_interval(&ks, &t, 0, ks.size(), &stop, false);
        let special = crate::engine::crack_interval(&ks, &t, ks.interval(), &stop, false);
        assert_eq!(generic.hits, special.hits);
        assert_eq!(generic.tested, special.tested);
    }
}
