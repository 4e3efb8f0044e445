//! The step-reversal optimization for MD4 — the NTLM test function.
//!
//! MD4 inherits the property [`crate::md5_reverse`] exploits: message
//! word `w[0]` is read at steps 0, 16 and 32 and by **none of the last
//! 15 steps** (33..=47). A search that only varies `w[0]` — the first two
//! key bytes under NTLM's UTF-16LE layout — can therefore:
//!
//! 1. once per target: subtract the IV from the digest and invert steps
//!    47 down to 33 with the fixed message words, yielding the state
//!    after step 32;
//! 2. per candidate: run the forward steps and compare with it.
//!
//! The early exit goes further than MD5's. In the rotating state the
//! oldest register after step 32 is the one step 29 wrote, and steps 30,
//! 31 and 32 only *add* newer registers. So the first word of the
//! reference is known after step 29: a candidate runs 30 of MD4's 48
//! steps and compares one word — the same trace as `eks-kernels::md4`'s
//! `Optimized` GPU kernel. A lane that passes is confirmed with the full
//! hash (a false positive costs one in 2³² candidates).

// Indexing/slicing below is over fixed-size state arrays; the workspace
// `clippy::indexing_slicing` escalation guards new code, not these
// proven accesses.
#![allow(clippy::indexing_slicing)]

use crate::md4::{step, unstep, IV};

/// Forward steps executed per candidate (steps `0..=29`).
pub const FORWARD_STEPS: usize = 30;

/// Steps reverted once per target (steps `33..=47`).
pub const REVERSED_STEPS: usize = 15;

/// A prepared reversed-MD4 test for candidates that share all message
/// words except `w[0]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Md4PrefixSearch {
    /// The padded message words; `w[0]` is overwritten per candidate.
    template: [u32; 16],
    /// The rotating-form state after step 32, obtained by reversal.
    state: [u32; 4],
}

impl Md4PrefixSearch {
    /// Prepare a search against the MD4 digest `target` for candidates
    /// whose padded block matches `template` in words `1..16`.
    pub fn new(target: &[u8; 16], template: [u32; 16]) -> Self {
        // Undo the final chaining addition, then invert steps 47..=33.
        let mut s = IV;
        for (r, word) in s.iter_mut().zip(target.chunks_exact(4)) {
            *r = u32::from_le_bytes(word.try_into().expect("4-byte word")).wrapping_sub(*r);
        }
        for i in (48 - REVERSED_STEPS..48).rev() {
            s = unstep(i, s, &template);
        }
        Self { template, state: s }
    }

    /// The reference word: the register step 29 writes in a candidate
    /// that hashes to the target — the oldest register of the state after
    /// step 32.
    #[inline]
    pub fn reference(&self) -> u32 {
        self.state[0]
    }

    /// Test a candidate first word: run the 30 forward steps with
    /// `w[0] = w0` and compare the newest register with the reference. A
    /// match is a candidate to confirm, not yet a hit.
    pub fn matches_w0(&self, w0: u32) -> bool {
        let mut w = self.template;
        w[0] = w0;
        let mut s = IV;
        for i in 0..FORWARD_STEPS {
            s = step(i, s, &w);
        }
        s[1] == self.reference()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::md4::{md4_compress, md4_single_block};
    use crate::padding::pad_md5_block;

    /// `w` hashed forward, as the digest's little-endian state words.
    fn digest_of(w: &[u32; 16]) -> [u8; 16] {
        let state = md4_compress(IV, w);
        let mut out = [0u8; 16];
        for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    #[test]
    fn reference_equals_forward_state_after_step_32() {
        let w = pad_md5_block(b"h\0u\0n\0t\0e\0r\x002\0");
        let search = Md4PrefixSearch::new(&digest_of(&w), w);
        let mut s = IV;
        for i in 0..48 - REVERSED_STEPS {
            s = step(i, s, &w);
        }
        assert_eq!(s, search.state);
        assert_eq!(s[0], search.reference());
    }

    #[test]
    fn one_word_test_agrees_with_the_full_hash_on_many_words() {
        let template = pad_md5_block(b"x\0x\0l\0m\0");
        // The target is one of the words tested: exactly one match.
        let mut planted = template;
        planted[0] = 4_321;
        let target = digest_of(&planted);
        let search = Md4PrefixSearch::new(&target, template);
        let mut matches = 0;
        for w0 in 0..10_000u32 {
            let mut w = template;
            w[0] = w0;
            let full = digest_of(&w) == target;
            assert_eq!(search.matches_w0(w0), full, "w0={w0:#x}");
            matches += u32::from(full);
        }
        assert_eq!(matches, 1);
    }

    #[test]
    fn finds_the_planted_ntlm_key() {
        // NTLM `Ab12`: `A`, `b` in w[0]; `1`, `2` in the shared suffix.
        let target = md4_single_block(b"A\0b\x001\x002\0");
        let search = Md4PrefixSearch::new(&target, pad_md5_block(b"Z\0z\x001\x002\0"));
        assert!(search.matches_w0(u32::from_le_bytes(*b"A\0b\0")));
        assert!(!search.matches_w0(u32::from_le_bytes(*b"A\0c\0")));
    }

    #[test]
    fn step_counts_match_the_model() {
        // Steps 30, 31 and 32 are neither run nor reverted: they only
        // write registers newer than the one compared.
        assert_eq!(48 - FORWARD_STEPS - REVERSED_STEPS, 3);
    }
}
