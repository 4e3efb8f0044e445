//! SHA-1 early-exit testing — the SHA-1 analogue of the MD5 reversal
//! (Section V-B: "The same kind of analysis and optimizations were
//! applied to the implementation of the SHA1 hash function").
//!
//! SHA-1's message schedule blocks a true reversal: every late `W[i]`
//! depends on `W[0]`, so the final rounds cannot be inverted
//! candidate-independently. What *does* transfer is the early exit: the
//! digest's `e` component equals `rotl30(a75) + IV[4]`, so after round 76
//! a candidate can be **rejected** against the precomputed
//! `rotr30(e_target − IV[4])` — skipping rounds 76..=79 and the remaining
//! schedule expansion in the (overwhelming) common case. A candidate that
//! survives the check is confirmed with the full computation.

// Indexing/slicing below is over fixed-size state arrays or lengths
// established by construction; the workspace `clippy::indexing_slicing`
// escalation guards new code, not these proven accesses.
#![allow(clippy::indexing_slicing)]

use crate::padding::pad_sha_block;
use crate::sha1::{round, sha1_compress, state_to_digest, IV};

/// Rounds executed per candidate in the average case.
pub const PARTIAL_ROUNDS: usize = 76;

/// A prepared early-exit SHA-1 test for a fixed target digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sha1PartialSearch {
    /// The target digest.
    target: [u8; 20],
    /// `rotr30(e_target − IV[4])` — what `a75` must equal.
    a75_expected: u32,
}

impl Sha1PartialSearch {
    /// Prepare a search against `target`.
    pub fn new(target: &[u8; 20]) -> Self {
        let e_target = u32::from_be_bytes(target[16..20].try_into().expect("4 bytes"));
        let a75_expected = e_target.wrapping_sub(IV[4]).rotate_right(30);
        Self { target: *target, a75_expected }
    }

    /// Test a candidate key (≤ 55 bytes): 76 rounds, then the early
    /// check; only a passing candidate pays for the confirmation.
    pub fn matches_key(&self, key: &[u8]) -> bool {
        let block = pad_sha_block(key);
        self.matches_block(&block)
    }

    /// Test a pre-padded block.
    fn matches_block(&self, block: &[u32; 16]) -> bool {
        // Rolling schedule: only the first 76 expansions are computed.
        let mut w = [0u32; PARTIAL_ROUNDS];
        w[..16].copy_from_slice(block);
        for i in 16..PARTIAL_ROUNDS {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let mut s = IV;
        for (i, &wi) in w.iter().enumerate() {
            s = round(i, s, wi);
        }
        if s[0] != self.a75_expected {
            return false; // the common case: rejected 4 rounds early
        }
        // Rare survivor: confirm with the full hash (collisions of the
        // single component occur with probability 2^-32).
        state_to_digest(sha1_compress(IV, block)) == self.target
    }

    /// The expected `a75` value (for tests).
    pub fn a75_expected(&self) -> u32 {
        self.a75_expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha1::{expand_schedule, sha1};

    #[test]
    fn finds_the_planted_key() {
        let key = b"Zeb4";
        let target = sha1(key);
        let search = Sha1PartialSearch::new(&target);
        assert!(search.matches_key(key));
        assert!(!search.matches_key(b"Zeb5"));
        assert!(!search.matches_key(b"AAAA"));
    }

    #[test]
    fn agrees_with_full_sha1_on_many_candidates() {
        let target = sha1(b"q7Gw");
        let search = Sha1PartialSearch::new(&target);
        for i in 0..20_000u32 {
            let key = format!("k{i:05}");
            let full = sha1(key.as_bytes()) == target;
            assert_eq!(search.matches_key(key.as_bytes()), full, "key {key}");
        }
        assert!(search.matches_key(b"q7Gw"));
    }

    #[test]
    fn a75_identity_holds() {
        // e_final = rotl30(a75) + IV[4] for arbitrary inputs.
        for key in [&b"x"[..], b"hello", b"0123456789abcdefghij"] {
            let block = pad_sha_block(key);
            let sched = expand_schedule(&block);
            let mut s = IV;
            for (i, &w) in sched.iter().enumerate().take(76) {
                s = round(i, s, w);
            }
            let full = sha1_compress(IV, &block);
            assert_eq!(full[4], s[0].rotate_left(30).wrapping_add(IV[4]), "key {key:?}");
        }
    }

    #[test]
    fn works_for_longer_keys() {
        let key = b"correct horse battery";
        // 21 bytes exceeds MAX_KEY_LEN for keyspaces but not the block.
        let target = sha1(key);
        let search = Sha1PartialSearch::new(&target);
        assert!(search.matches_key(key));
    }
}
