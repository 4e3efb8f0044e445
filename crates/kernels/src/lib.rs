//! # eks-kernels — cracking kernels as executable GPU IR
//!
//! Builds the MD5 and SHA-1 brute-force kernels of Sections IV–V as
//! [`eks_gpusim`] IR. Each builder emits the *complete* hash computation
//! (the IR is functionally executable and tested against `eks-hashes`),
//! with the message words that are fixed for a given key length emitted as
//! compile-time constants — the simulator's codegen then folds them away
//! exactly as `nvcc` does, so per-architecture instruction counts
//! (Tables IV–VI) come out of a *real* MD5/SHA-1, not a hand-tuned count.
//!
//! Kernel variants:
//!
//! * **naive** — full 64-step MD5 (80-round SHA-1) per candidate plus the
//!   candidate-generation add; the Cryptohaze-Multiforcer-class baseline;
//! * **reversed** — the BarsWF trick (Section V-B): 15 MD5 steps reverted
//!   once per target, 49 forward steps per candidate;
//! * **optimized** — reversed + early-exit: the comparison anticipates the
//!   state component produced at step 45, so the average-case trace runs
//!   46 steps; `__byte_perm` lowers rotate-by-16 to `PRMT` on cc 3.0;
//! * **interleaved ×2** — two independent candidates interleaved
//!   instruction-by-instruction to feed dual-issue on Fermi ("a better ILP
//!   factor ... is nevertheless a good choice on Fermi").
//!
//! The crate runs no search of its own: a simulated GPU's answers come
//! from the host kernels every CPU search runs (`eks-cluster::simgpu`),
//! checked against this IR on sampled candidates.

// Indexing/slicing below is over fixed-size state arrays or lengths
// established by construction; the workspace `clippy::indexing_slicing`
// escalation guards new code, not these proven accesses.
#![allow(clippy::indexing_slicing)]

pub mod baseline;
pub mod counts;
pub mod generation;
pub mod interleave;
pub mod md4;
pub mod md5;
pub mod sha1;

pub use baseline::{Tool, ToolKernel};
pub use eks_hashes::HashAlgo;
pub use interleave::interleave;
pub use md4::{build_md4, Md4Variant};
pub use md5::{build_md5, Md5Variant};
pub use sha1::{build_sha1, Sha1Variant};

/// How message words reach the kernel: compile-time constant (padding,
/// fixed suffix) or runtime register (the enumerated characters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WordSource {
    /// Known at compile time; folds away.
    Const(u32),
    /// Varies per candidate; loaded as kernel parameter `index`.
    Param(u32),
}

/// Message-word layout for a fixed key length: the words a padded
/// single-block message occupies, with the key-bearing words as runtime
/// parameters and everything else constant.
///
/// For the paper's headline case (length-4 keys) only `w[0]` is runtime.
pub fn words_for_key_len(key_len: usize) -> [WordSource; 16] {
    assert!(key_len <= 20, "paper caps keys at 20 characters");
    let mut words = [WordSource::Const(0); 16];
    // Bytes 0..key_len are key bytes; byte key_len is 0x80; the rest 0.
    let full_words = key_len / 4;
    let mut param = 0u32;
    for w in words.iter_mut().take(full_words) {
        *w = WordSource::Param(param);
        param += 1;
    }
    if !key_len.is_multiple_of(4) {
        // Mixed word: key bytes plus the 0x80 terminator — still runtime.
        words[full_words] = WordSource::Param(param);
    } else {
        words[full_words] = WordSource::Const(0x80);
    }
    // Bit length (little-endian MD5 layout; SHA-1 swaps 14/15 — builders
    // handle that).
    words[14] = WordSource::Const((key_len as u32) * 8);
    words
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length4_has_single_runtime_word() {
        let w = words_for_key_len(4);
        assert_eq!(w[0], WordSource::Param(0));
        assert_eq!(w[1], WordSource::Const(0x80));
        assert_eq!(w[14], WordSource::Const(32));
        assert!(w[2..14].iter().all(|s| *s == WordSource::Const(0)));
    }

    #[test]
    fn length6_has_two_runtime_words() {
        let w = words_for_key_len(6);
        assert_eq!(w[0], WordSource::Param(0));
        assert_eq!(w[1], WordSource::Param(1), "terminator shares the word");
        assert_eq!(w[2], WordSource::Const(0));
        assert_eq!(w[14], WordSource::Const(48));
    }

    #[test]
    fn length8_terminator_gets_own_word() {
        let w = words_for_key_len(8);
        assert_eq!(w[0], WordSource::Param(0));
        assert_eq!(w[1], WordSource::Param(1));
        assert_eq!(w[2], WordSource::Const(0x80));
    }

    #[test]
    #[should_panic]
    fn oversized_key_rejected() {
        words_for_key_len(21);
    }
}
