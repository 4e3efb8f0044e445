//! A generic parallel driver over any [`SolutionSpace`] and any test `C`
//! — the fine-grain half of the pattern without committing to keys or
//! hashes. Searches for hash targets run on `eks-engine`'s `Dispatcher`
//! (whose leaves are hash kernels); this driver is what the other
//! exhaustive-search instantiations (the paper: "our solution pattern can
//! be applied to other exhaustive search strategies") run on — today
//! `eks-cracker::mining::mine`, a nonce range tested by a SHA-256d
//! difficulty check.
//!
//! Threads pull fixed-size chunks from a shared cursor; each chunk is
//! scanned with one `generate` and `next` thereafter; a stop flag
//! implements first-hit termination.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::space::{CandidateTest, SolutionSpace};

/// Configuration for [`parallel_search`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelDriver {
    /// Worker thread count (≥ 1).
    pub threads: usize,
    /// Identifiers per chunk pulled from the shared cursor.
    pub chunk: u64,
    /// Stop all threads at the first accepted candidate.
    pub first_hit_only: bool,
}

impl Default for ParallelDriver {
    fn default() -> Self {
        Self { threads: 4, chunk: 1 << 12, first_hit_only: true }
    }
}

/// Result of a generic parallel search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelOutcome<E> {
    /// Accepted candidates, in identifier order.
    pub hits: Vec<(u128, E)>,
    /// Candidates evaluated across all threads.
    pub tested: u128,
}

/// Search `[start, start + len)` of `space` with `driver.threads` workers.
///
/// Under `first_hit_only` the first of the returned hits is the lowest
/// accepted identifier of the interval, whatever the thread count: chunks
/// are handed out in identifier order, a stop only keeps threads from
/// taking new chunks, and every chunk handed out is scanned in order to
/// its end or its own first hit.
///
/// Generic over the space and the test; the only requirements are the
/// pattern's own (`Sync` access to both, identifiers that fit the chunked
/// cursor).
///
/// # Panics
/// Panics when `threads == 0`, `chunk == 0`, or the interval needs more
/// than `u64::MAX` chunks.
pub fn parallel_search<S, T>(
    space: &S,
    test: &T,
    start: u128,
    len: u128,
    driver: ParallelDriver,
) -> ParallelOutcome<T::Evidence>
where
    S: SolutionSpace + Sync,
    T: CandidateTest<S::Solution> + Sync,
    T::Evidence: Send,
{
    assert!(driver.threads >= 1 && driver.chunk >= 1);
    let total_chunks: u64 = len
        .div_ceil(driver.chunk as u128)
        .try_into()
        .expect("interval too large for chunked dispatch");
    let cursor = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let tested = AtomicU64::new(0);
    let hits: Mutex<Vec<(u128, T::Evidence)>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for _ in 0..driver.threads {
            scope.spawn(|| loop {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let n = cursor.fetch_add(1, Ordering::Relaxed);
                if n >= total_chunks {
                    break;
                }
                let lo = start + (n as u128) * (driver.chunk as u128);
                let chunk_len = (driver.chunk as u128).min(start + len - lo);
                let mut local_tested = 0u64;
                let mut id = lo;
                let mut candidate = space.generate(id);
                loop {
                    local_tested += 1;
                    if let Some(e) = test.test(id, &candidate) {
                        hits.lock().expect("hits lock").push((id, e));
                        if driver.first_hit_only {
                            stop.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                    if id + 1 == lo + chunk_len {
                        break;
                    }
                    space.advance(id, &mut candidate);
                    id += 1;
                }
                tested.fetch_add(local_tested, Ordering::Relaxed);
            });
        }
    });

    let mut all = hits.into_inner().expect("hits lock");
    all.sort_by_key(|(id, _)| *id);
    ParallelOutcome { hits: all, tested: tested.load(Ordering::Relaxed) as u128 }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A non-string instantiation of the pattern: search for integer
    /// solutions of x² ≡ a (mod m) — exactly the "arbitrary test
    /// function" case the abstract section allows.
    struct Naturals;

    impl SolutionSpace for Naturals {
        type Solution = u128;
        fn size(&self) -> Option<u128> {
            None
        }
        fn generate(&self, id: u128) -> u128 {
            id
        }
        fn advance(&self, _id: u128, s: &mut u128) {
            *s += 1;
        }
    }

    fn quadratic_residue_test(a: u128, m: u128) -> impl Fn(u128, &u128) -> Option<u128> + Sync {
        move |_id, x| ((x * x) % m == a).then_some(*x)
    }

    #[test]
    fn finds_all_square_roots_mod_m() {
        // x² ≡ 4 (mod 101): roots 2 and 99.
        let out = parallel_search(
            &Naturals,
            &quadratic_residue_test(4, 101),
            0,
            101,
            ParallelDriver { threads: 4, chunk: 8, first_hit_only: false },
        );
        let roots: Vec<u128> = out.hits.iter().map(|(_, x)| *x).collect();
        assert_eq!(roots, vec![2, 99]);
        assert_eq!(out.tested, 101, "full sweep");
    }

    #[test]
    fn first_hit_stops_early() {
        let out = parallel_search(
            &Naturals,
            &quadratic_residue_test(4, 101),
            0,
            1_000_000,
            ParallelDriver { threads: 4, chunk: 64, first_hit_only: true },
        );
        assert!(!out.hits.is_empty());
        assert!(out.tested < 1_000_000, "tested {}", out.tested);
    }

    #[test]
    fn offset_intervals_respected() {
        let out = parallel_search(
            &Naturals,
            &quadratic_residue_test(4, 101),
            3,
            50,
            ParallelDriver { threads: 2, chunk: 7, first_hit_only: false },
        );
        // Only root 2 is below 53... root 2 < 3, so nothing in [3, 53).
        assert!(out.hits.is_empty());
        assert_eq!(out.tested, 50);
    }

    #[test]
    fn single_thread_single_chunk_degenerate() {
        let out = parallel_search(
            &Naturals,
            &quadratic_residue_test(0, 7),
            0,
            7,
            ParallelDriver { threads: 1, chunk: 1_000, first_hit_only: false },
        );
        // x² ≡ 0 (mod 7) within 0..7: {0, 7? no — just 0}.
        assert_eq!(out.hits.len(), 1);
        assert_eq!(out.hits[0].0, 0);
    }

    #[test]
    fn zero_length_interval() {
        let out = parallel_search(
            &Naturals,
            &quadratic_residue_test(1, 5),
            10,
            0,
            ParallelDriver::default(),
        );
        assert!(out.hits.is_empty());
        assert_eq!(out.tested, 0);
    }
}
