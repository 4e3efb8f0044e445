//! Bitcoin-style mining as exhaustive search (paper Section I).
//!
//! "An exhaustive search is performed to find a 32-bit value (nonce) that
//! is used as input to a hashing function based on the SHA256 algorithm,
//! producing a hash with a certain number of leading zero bits." The
//! solution space is the nonce range, `f` appends the nonce to the header
//! template, and `C` counts leading zero bits of the double-SHA-256 —
//! the same pattern, a different test function, run by the same round
//! driver as every key search ([`Fleet::run_round`] over
//! [`ScalarBackend`]), with [`MiningJob`] as the dispatcher's test `C`.
//! Many nonces pass a difficulty test, so a first-hit round takes the
//! dispatcher's floor rule and returns its lowest passing nonce, and the
//! rounds run in nonce order.

use eks_engine::{CandidateTest, Dispatcher, Fleet, ScanMode, SchedOptions, SchedPolicy};
use eks_hashes::sha256::{leading_zero_bits, sha256d};
use eks_keyspace::{Interval, SolutionSpace};

use crate::backend::ScalarBackend;

/// A mining work item: header template plus difficulty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MiningJob {
    /// Block-header bytes without the trailing 4-byte nonce.
    pub header: Vec<u8>,
    /// Required leading zero bits of `sha256d(header ‖ nonce)`.
    pub difficulty_bits: u32,
}

impl MiningJob {
    /// Hash of the header with the given nonce.
    pub fn digest(&self, nonce: u32) -> [u8; 32] {
        let mut msg = Vec::with_capacity(self.header.len() + 4);
        msg.extend_from_slice(&self.header);
        msg.extend_from_slice(&nonce.to_le_bytes());
        sha256d(&msg)
    }
}

/// The test function `C` for one nonce: enough leading zero bits.
impl CandidateTest<u32> for MiningJob {
    fn test(&self, _id: u128, nonce: &u32) -> Option<usize> {
        (leading_zero_bits(&self.digest(*nonce)) >= self.difficulty_bits).then_some(0)
    }
}

/// A successful mining result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MiningResult {
    /// The winning nonce.
    pub nonce: u32,
    /// Its digest.
    pub digest: [u8; 32],
    /// Nonces tested across all threads before returning.
    pub tested: u64,
}

/// The 2³² nonces.
const NONCES: u128 = 1 << 32;

/// Nonces per round. Each round scatters one slice over the threads, so
/// they all scan the lowest nonces left: a pass near the start of a long
/// range costs the time the fleet takes to reach it, not the time one
/// thread takes to reach it in the first of `threads` contiguous shares.
const ROUND_NONCES: u128 = 1 << 16;

/// The solution space: identifier `i` is the nonce `i` itself.
struct Nonces;

impl SolutionSpace for Nonces {
    type Solution = u32;

    fn size(&self) -> Option<u128> {
        Some(NONCES)
    }

    fn generate(&self, id: u128) -> u32 {
        id as u32
    }

    fn advance(&self, _id: u128, nonce: &mut u32) {
        *nonce = nonce.wrapping_add(1);
    }
}

/// Scan `nonce_range` with `threads` workers; returns the lowest winning
/// nonce, or `None` when the range is exhausted. The range is clamped to
/// the 2³² nonces (`0..1 << 32` is the whole space), so identifiers past
/// `u32::MAX` are never tested as a wrapped nonce. The search is rounds
/// of 2¹⁶ nonces over `threads` scalar members in 4096-nonce chunks, on
/// one dispatcher, until a round finds a pass.
///
/// # Panics
/// Panics when `threads == 0`.
pub fn mine(
    job: &MiningJob,
    nonce_range: std::ops::Range<u64>,
    threads: usize,
) -> Option<MiningResult> {
    let len = nonce_range.end.saturating_sub(nonce_range.start);
    let mut rest = Interval::new(nonce_range.start.into(), len.into()).intersect(&Interval::new(0, NONCES));
    let dispatcher = Dispatcher::new(&Nonces, job, ScanMode::FirstHit);
    let fleet = Fleet::threads(&ScalarBackend, threads);
    let opts = SchedOptions::for_policy(SchedPolicy::Queue, 4096);
    while !rest.is_empty() && !dispatcher.any_hits() {
        fleet.run_round(&dispatcher, rest.take_front(ROUND_NONCES), opts);
    }
    let report = dispatcher.finish();
    let &(_, nonce, _) = report.hits.first()?;
    Some(MiningResult { nonce, digest: job.digest(nonce), tested: report.tested as u64 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(bits: u32) -> MiningJob {
        MiningJob { header: b"eks-test-block-header".to_vec(), difficulty_bits: bits }
    }

    #[test]
    fn finds_low_difficulty_nonce() {
        let j = job(12);
        let r = mine(&j, 0..1 << 20, 4).expect("12 bits is easy");
        assert!(leading_zero_bits(&r.digest) >= 12);
        assert_eq!(r.digest, j.digest(r.nonce));
    }

    #[test]
    fn exhausted_range_returns_none() {
        // 40 zero bits within 1000 nonces is (practically) impossible.
        let j = job(40);
        assert_eq!(mine(&j, 0..1000, 2), None);
    }

    #[test]
    fn zero_difficulty_accepts_first_nonce() {
        let j = job(0);
        let r = mine(&j, 7..100, 1).expect("anything matches");
        assert_eq!(r.nonce, 7);
    }

    #[test]
    fn single_and_multi_thread_agree_on_difficulty() {
        let j = job(10);
        let a = mine(&j, 0..1 << 18, 1).map(|r| r.nonce);
        let b = mine(&j, 0..1 << 18, 4).map(|r| r.nonce);
        // The floor rule returns the lowest passing nonce whatever the
        // thread count, so both runs name the same nonce.
        assert!(a.is_some_and(|n| leading_zero_bits(&j.digest(n)) >= 10));
        assert_eq!(a, b);
    }

    #[test]
    fn ranges_past_the_nonce_space_test_nothing() {
        // Every nonce matches at difficulty 0, so a wrapped id would show.
        assert_eq!(mine(&job(0), 1 << 32..(1 << 32) + 3, 1), None);
    }

    #[test]
    fn the_last_nonce_is_tested() {
        let r = mine(&job(0), u32::MAX as u64..1 << 32, 1).expect("anything matches");
        assert_eq!(r.nonce, u32::MAX);
    }

    #[test]
    fn a_zero_length_range_tests_nothing() {
        assert_eq!(mine(&job(0), 10..10, 2), None);
    }

    #[test]
    fn one_thread_in_one_chunk_tests_up_to_its_hit() {
        // The range is shorter than a chunk: one pop, scanned in order
        // up to its first pass.
        let j = job(2);
        let r = mine(&j, 5..105, 1).expect("2 bits within 100 nonces");
        assert_eq!(Some(r.nonce), (5..105).find(|&n| leading_zero_bits(&j.digest(n)) >= 2));
        assert_eq!(r.tested, u64::from(r.nonce) - 4);
    }

    #[test]
    fn a_pass_past_the_first_round_is_found_in_a_later_one() {
        // At 16 bits the lowest pass from nonce 23 803 on lies more than
        // one round past it.
        let j = job(16);
        let want = (23_803..u32::MAX).find(|&n| leading_zero_bits(&j.digest(n)) >= 16);
        let r = mine(&j, 23_803..1 << 20, 2).expect("16 bits within 2^20 nonces");
        assert_eq!(Some(r.nonce), want);
        assert!(u128::from(r.nonce - 23_803) >= ROUND_NONCES, "nonce {}", r.nonce);
        assert!(u64::from(r.nonce) - 23_803 < r.tested, "every nonce below the pass tested");
    }

    #[test]
    fn first_hit_stops_before_the_range_ends() {
        // Every thread's share holds a pass long before its end.
        let r = mine(&job(4), 0..1 << 12, 4).expect("4 bits within 4096 nonces");
        assert!(r.tested < 1 << 12, "tested {}", r.tested);
    }

    #[test]
    fn higher_difficulty_needs_more_tests() {
        let j8 = job(8);
        let j14 = job(14);
        let r8 = mine(&j8, 0..1 << 22, 1).expect("8 bits");
        let r14 = mine(&j14, 0..1 << 22, 1).expect("14 bits");
        assert!(r14.tested > r8.tested, "{} vs {}", r14.tested, r8.tested);
    }
}
