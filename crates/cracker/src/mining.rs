//! Bitcoin-style mining as exhaustive search (paper Section I).
//!
//! "An exhaustive search is performed to find a 32-bit value (nonce) that
//! is used as input to a hashing function based on the SHA256 algorithm,
//! producing a hash with a certain number of leading zero bits." The
//! solution space is the nonce range, `f` appends the nonce to the header
//! template, and `C` counts leading zero bits of the double-SHA-256 —
//! the same pattern, a different test function, run by the pattern's
//! generic driver (`eks_core::parallel_search`) rather than the hash-target
//! `Dispatcher`.

use eks_core::{parallel_search, ParallelDriver, SolutionSpace};
use eks_hashes::sha256::{leading_zero_bits, sha256d};

/// A mining work item: header template plus difficulty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MiningJob {
    /// Block-header bytes without the trailing 4-byte nonce.
    pub header: Vec<u8>,
    /// Required leading zero bits of `sha256d(header ‖ nonce)`.
    pub difficulty_bits: u32,
}

impl MiningJob {
    /// The test function `C` for one nonce.
    pub fn test(&self, nonce: u32) -> Option<[u8; 32]> {
        let digest = self.digest(nonce);
        (leading_zero_bits(&digest) >= self.difficulty_bits).then_some(digest)
    }

    /// Hash of the header with the given nonce.
    pub fn digest(&self, nonce: u32) -> [u8; 32] {
        let mut msg = Vec::with_capacity(self.header.len() + 4);
        msg.extend_from_slice(&self.header);
        msg.extend_from_slice(&nonce.to_le_bytes());
        sha256d(&msg)
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

/// The solution space: identifier `i` is the nonce `i` itself.
struct Nonces;

impl SolutionSpace for Nonces {
    type Solution = u32;

    fn size(&self) -> Option<u128> {
        Some(1 << 32)
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
/// `u32::MAX` are never tested as a wrapped nonce. The search is
/// [`parallel_search`], the pattern's generic driver for a test function
/// that is not a hash-target set: the space is the nonce range, the test
/// is [`MiningJob::test`].
pub fn mine(
    job: &MiningJob,
    nonce_range: std::ops::Range<u64>,
    threads: usize,
) -> Option<MiningResult> {
    const NONCES: u64 = 1 << 32;
    let start = nonce_range.start.min(NONCES);
    let end = nonce_range.end.min(NONCES);
    let out = parallel_search(
        &Nonces,
        &|_id: u128, nonce: &u32| job.test(*nonce),
        u128::from(start),
        u128::from(end.saturating_sub(start)),
        ParallelDriver { threads, chunk: 4096, first_hit_only: true },
    );
    let (id, digest) = out.hits.first()?;
    Some(MiningResult { nonce: *id as u32, digest: *digest, tested: out.tested as u64 })
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
        // `parallel_search` returns the lowest accepted id whatever the
        // thread count, so both runs name the same nonce.
        assert!(a.is_some_and(|n| j.test(n).is_some()));
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
    fn higher_difficulty_needs_more_tests() {
        let j8 = job(8);
        let j14 = job(14);
        let r8 = mine(&j8, 0..1 << 22, 1).expect("8 bits");
        let r14 = mine(&j14, 0..1 << 22, 1).expect("14 bits");
        assert!(r14.tested > r8.tested, "{} vs {}", r14.tested, r8.tested);
    }
}
