//! The MD5 step-reversal optimization (Section V-B, originally from the
//! BarsWF cracker).
//!
//! Testing a candidate can run in two directions: forward (hash the string,
//! compare with the target) or backward (invert MD5 steps starting from the
//! target). MD5's schedule has the property that message word `w[0]` — the
//! first 4 bytes of the (padded) key — is used by step 0 and step 48 but by
//! **none of the last 15 steps** (49..=63). A search that only varies the
//! first 4 bytes can therefore:
//!
//! 1. once per target: subtract the IV from the digest and invert steps
//!    63 down to 49 using the fixed message words, yielding the reference
//!    state after step 48;
//! 2. per candidate: run only the 49 forward steps 0..=48 and compare with
//!    the reference — a ≈ 1.25× speedup (64/49 ≈ 1.31 minus bookkeeping).
//!
//! The comparison early-exits on the first mismatching word, mirroring the
//! paper's "anticipate the checks as soon as each part is computed".
//!
//! This requires enumerating keys in [`FirstCharFastest`] order (the
//! paper's mapping (4)) so consecutive candidates share everything but the
//! first block of 4 bytes.
//!
//! [`FirstCharFastest`]: https://docs.rs/eks-keyspace

// Indexing/slicing below is over fixed-size state arrays or lengths
// established by construction; the workspace `clippy::indexing_slicing`
// escalation guards new code, not these proven accesses.
#![allow(clippy::indexing_slicing)]

use crate::md5::{digest_to_state, md5_compress, step, unstep, IV};
use crate::padding::pad_md5_block;

/// Number of forward steps executed per candidate (steps `0..=48`).
pub const FORWARD_STEPS: usize = 49;

/// Number of steps reverted once per target (steps `49..=63`).
pub const REVERSED_STEPS: usize = 15;

/// A prepared reversed-MD5 test for candidates that share all message
/// words except `w[0]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Md5PrefixSearch {
    /// The padded message words; `w[0]` is overwritten per candidate.
    template: [u32; 16],
    /// Reference state after step 48, obtained by reversal.
    reference: [u32; 4],
}

impl Md5PrefixSearch {
    /// Prepare a search against `target` for candidates whose padded block
    /// matches `template` in words `1..16`.
    ///
    /// `template` is the padded 16-word block of any candidate of the right
    /// length (e.g. from [`pad_md5_block`]); only its `w[0]` differs
    /// between candidates, as guaranteed by suffix-stable enumeration.
    pub fn new(target: &[u8; 16], template: [u32; 16]) -> Self {
        // Undo the final chaining addition, then invert steps 63..=49.
        let final_state = digest_to_state(target);
        let mut s = [
            final_state[0].wrapping_sub(IV[0]),
            final_state[1].wrapping_sub(IV[1]),
            final_state[2].wrapping_sub(IV[2]),
            final_state[3].wrapping_sub(IV[3]),
        ];
        for i in (64 - REVERSED_STEPS..64).rev() {
            s = unstep(i, s, &template);
        }
        Self { template, reference: s }
    }

    /// Convenience: prepare from a sample key (bytes of a candidate of the
    /// correct length).
    ///
    /// # Panics
    /// Panics when `sample_key` exceeds the single-block limit (55 bytes).
    pub fn from_sample_key(target: &[u8; 16], sample_key: &[u8]) -> Self {
        Self::new(target, pad_md5_block(sample_key))
    }

    /// Test a candidate first word: run the 49 forward steps with
    /// `w[0] = w0` and compare against the reverted reference,
    /// early-exiting on the first mismatch.
    #[inline]
    pub fn matches_w0(&self, w0: u32) -> bool {
        let mut w = self.template;
        w[0] = w0;
        let mut s = IV;
        for i in 0..FORWARD_STEPS {
            s = step(i, s, &w);
        }
        // Early-exit comparison: in the overwhelmingly common case the
        // first word already differs.
        s[0] == self.reference[0]
            && s[1] == self.reference[1]
            && s[2] == self.reference[2]
            && s[3] == self.reference[3]
    }

    /// Test a full candidate key (must share words 1..16 with the
    /// template). Packs the first 4 bytes (zero-padded per MD5's
    /// little-endian layout, including the 0x80 terminator for short keys)
    /// exactly as [`pad_md5_block`] would.
    #[inline]
    pub fn matches_key(&self, key: &[u8]) -> bool {
        let mut first = [0u8; 4];
        let n = key.len().min(4);
        first[..n].copy_from_slice(&key[..n]);
        if n < 4 {
            first[n] = 0x80;
        }
        self.matches_w0(u32::from_le_bytes(first))
    }

    /// The reference state after step 48 (for tests and the kernel model).
    pub fn reference(&self) -> [u32; 4] {
        self.reference
    }

    /// The message-word template.
    pub fn template(&self) -> &[u32; 16] {
        &self.template
    }
}

/// Check the reversal against a full forward computation: true iff
/// `md5(padded block with w[0]=w0) == target`. Used by tests and as the
/// naive baseline semantics.
pub fn full_forward_matches(target: &[u8; 16], template: &[u32; 16], w0: u32) -> bool {
    let mut w = *template;
    w[0] = w0;
    let state = md5_compress(IV, &w);
    crate::md5::state_to_digest(state) == *target
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::md5::md5;

    #[test]
    fn finds_the_planted_key() {
        let key = b"Zeb4"; // 4 bytes: exactly one message word varies
        let target = md5(key);
        let search = Md5PrefixSearch::from_sample_key(&target, b"AAAA");
        assert!(search.matches_key(key));
        assert!(!search.matches_key(b"Zeb5"));
        assert!(!search.matches_key(b"AAAA"));
    }

    #[test]
    fn agrees_with_full_forward_on_many_words() {
        let target = md5(b"q7Gw");
        let template = pad_md5_block(b"xxxx");
        let search = Md5PrefixSearch::new(&target, template);
        for w0 in 0..10_000u32 {
            assert_eq!(
                search.matches_w0(w0),
                full_forward_matches(&target, &template, w0),
                "w0={w0:#x}"
            );
        }
    }

    #[test]
    fn works_for_keys_longer_than_four_bytes() {
        // Only the first 4 bytes vary; the suffix "pepper01" is fixed.
        let key = b"Mz3qpepper01";
        let target = md5(key);
        let search = Md5PrefixSearch::from_sample_key(&target, b"AAAApepper01");
        assert!(search.matches_key(key));
        assert!(!search.matches_key(b"Mz3rpepper01"));
    }

    #[test]
    fn works_for_keys_shorter_than_four_bytes() {
        let key = b"ab";
        let target = md5(key);
        let search = Md5PrefixSearch::from_sample_key(&target, b"xy");
        assert!(search.matches_key(key));
        assert!(!search.matches_key(b"ac"));
    }

    #[test]
    fn reference_equals_forward_state_after_step_48() {
        let key = b"hunter2!";
        let target = md5(key);
        let w = pad_md5_block(key);
        let search = Md5PrefixSearch::new(&target, w);
        let mut s = IV;
        for i in 0..FORWARD_STEPS {
            s = crate::md5::step(i, s, &w);
        }
        assert_eq!(s, search.reference());
    }

    #[test]
    fn step_counts_match_the_paper() {
        assert_eq!(FORWARD_STEPS + REVERSED_STEPS, 64);
        assert_eq!(FORWARD_STEPS, 49);
        assert_eq!(REVERSED_STEPS, 15);
    }
}
