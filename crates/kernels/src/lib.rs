//! # eks-kernels — cracking kernels as executable GPU IR
//!
//! Records the MD5, MD4 (NTLM) and SHA-1 brute-force kernels of Sections
//! IV–V as [`eks_gpusim`] IR from the one algorithm text the host runs:
//! each builder runs an `eks-hashes` step core (`md5_steps`, `md4_steps`,
//! `sha1_rounds`) over a symbolic word that folds constants at build
//! time and emits every other op. The message words that are fixed for a
//! given key length ([`words_for`]) are constants, so IV, padding and
//! `K[i] + w[g]` fold away exactly as `nvcc` folds them; the simulator's
//! codegen then lowers what remains, so per-architecture instruction
//! counts (Tables III–VI) come out of a *real* MD5/SHA-1, not a
//! hand-tuned count. The IR is functionally executable
//! ([`BuiltKernel::eval`]) and tested against `eks-hashes`.
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
mod record;
pub mod sha1;

use eks_gpusim::isa::{KernelIr, Reg};
use eks_hashes::padding::{pad_md5_block, pad_sha_block};

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

/// The padded single block `algo`'s kernel hashes for `key`: MD5's
/// little-endian packing, NTLM's over the UTF-16LE expansion, SHA-1's
/// big-endian. An iterated algorithm pads as its base hash.
pub fn block_for(algo: HashAlgo, key: &[u8]) -> [u32; 16] {
    match algo.base() {
        HashAlgo::Sha1 => pad_sha_block(key),
        HashAlgo::Ntlm => {
            let utf16: Vec<u8> = key.iter().flat_map(|&b| [b, 0]).collect();
            pad_md5_block(&utf16)
        }
        _ => pad_md5_block(key),
    }
}

/// Message-word layout of `algo`'s kernel for keys of `key_len` bytes:
/// the padded block of a zero key, with every word that holds a key byte
/// a runtime parameter (`Param(i)` is word `i`) and the rest constant.
///
/// For the paper's headline case (length-4 MD5 keys) only `w[0]` is
/// runtime.
///
/// # Panics
/// Panics when `key_len > 20`.
pub fn words_for(algo: HashAlgo, key_len: usize) -> [WordSource; 16] {
    assert!(key_len <= 20, "paper caps keys at 20 characters");
    let block = block_for(algo, &[0; 20][..key_len]);
    let byte_len = if algo.base() == HashAlgo::Ntlm { 2 * key_len } else { key_len };
    let key_words = byte_len.div_ceil(4);
    core::array::from_fn(|i| {
        if i < key_words {
            WordSource::Param(i as u32)
        } else {
            WordSource::Const(block[i])
        }
    })
}

/// A built kernel plus the registers holding its comparison outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct BuiltKernel {
    /// The executable IR (one candidate per iteration unless interleaved).
    pub ir: KernelIr,
    /// Registers holding the output state words, in comparison order.
    pub outputs: Vec<Reg>,
    /// Loop-carried registers: values the *next* iteration consumes (the
    /// advanced candidate word from the `next` operator). Dead-store
    /// analysis must treat these as roots alongside `outputs`.
    pub carried: Vec<Reg>,
}

impl BuiltKernel {
    /// Execute the IR on one candidate's padded block (see
    /// [`block_for`]) and return the output registers' values, in
    /// comparison order.
    pub fn eval(&self, block: &[u32; 16]) -> Vec<u32> {
        let regs = self.ir.evaluate(block);
        self.outputs.iter().map(|r| regs[r.0 as usize]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn md5_length4_has_single_runtime_word() {
        let w = words_for(HashAlgo::Md5, 4);
        assert_eq!(w[0], WordSource::Param(0));
        assert_eq!(w[1], WordSource::Const(0x80));
        assert_eq!(w[14], WordSource::Const(32));
        assert!(w[2..14].iter().all(|s| *s == WordSource::Const(0)));
    }

    #[test]
    fn md5_terminator_shares_the_last_key_word_or_gets_its_own() {
        let w = words_for(HashAlgo::Md5, 6);
        assert_eq!(w[..3], [WordSource::Param(0), WordSource::Param(1), WordSource::Const(0)]);
        assert_eq!(w[14], WordSource::Const(48));
        assert_eq!(words_for(HashAlgo::Md5, 8)[2], WordSource::Const(0x80));
    }

    #[test]
    fn ntlm_layout_doubles_the_byte_length() {
        let w = words_for(HashAlgo::Ntlm, 4); // 8 bytes UTF-16
        assert_eq!(w[..3], [WordSource::Param(0), WordSource::Param(1), WordSource::Const(0x80)]);
        assert_eq!(w[14], WordSource::Const(64));
        // Odd length: the terminator shares the last runtime word.
        assert_eq!(words_for(HashAlgo::Ntlm, 5)[2], WordSource::Param(2));
    }

    #[test]
    fn sha1_layout_is_big_endian() {
        let w = words_for(HashAlgo::Sha1, 4);
        assert_eq!(w[0], WordSource::Param(0));
        assert_eq!(w[1], WordSource::Const(0x8000_0000));
        assert_eq!(w[14], WordSource::Const(0));
        assert_eq!(w[15], WordSource::Const(32));
    }

    #[test]
    #[should_panic]
    fn oversized_key_rejected() {
        words_for(HashAlgo::Md5, 21);
    }
}
