//! The batched-hash contract ([`LaneHasher`]) and its portable
//! implementation ([`AutoVec`]).
//!
//! The paper's Section V argument is that throughput is decided by the
//! instruction mix of a *vectorized* inner loop: a warp evaluates 32 keys
//! in lockstep, one padded block per key, with no per-key control flow.
//! A batch is therefore handed over *word-major* — `rows[w][l]` is word
//! `w` of lane `l`'s block, one vector load per message word — and the
//! states come back the same way, one row per state word.
//! The compression cores with that shape are written once, generic over
//! a vector leaf, in `simd/cores.rs`; this module names the trait the
//! cracker's scan loop drives them through and instantiates them over
//! plain `[u32; L]` arrays — the same algorithm text the AVX2 / AVX-512 /
//! NEON kernels compile from, with each vector op a loop over `L` lanes.
//!
//! How fast that is depends on the *build's* target features. With
//! `-C target-cpu=native` on an AVX host the lane loops vectorise; in the
//! baseline x86-64 build (SSE2, sixteen 128-bit registers) they stay
//! largely scalar, 4–10× slower per key than the explicit kernels
//! (EXPERIMENTS.md "One CPU kernel path" has the table). So [`AutoVec`]
//! is the *portable* path: what runs on CPUs without an explicit ISA and
//! under Miri, and a second instantiation of the cores for the property
//! tests; the cracker picks [`crate::simd`] by runtime detection wherever
//! it can.

use crate::simd::cores;

/// A batched hash implementation at lane width `L`: the abstraction the
/// cracker's scan loop is generic over, so the same loop drives the
/// portable cores ([`AutoVec`]) and the explicit-SIMD kernels in
/// [`crate::simd`] (whose handles implement this trait at their ISA's
/// width).
///
/// Every method must be bit-for-bit equal to the scalar compression
/// functions lane by lane — the property tests enforce this for every
/// implementation.
pub trait LaneHasher<const L: usize>: Copy + Send + Sync {
    /// MD5 final chained state, one row per state word: lane `l` of it
    /// equals `md5_compress(IV, block l)`.
    fn md5_rows(&self, rows: &[[u32; L]; 16]) -> [[u32; L]; 4];

    /// MD4 final chained state (the NTLM core), one row per state word.
    fn md4_rows(&self, rows: &[[u32; L]; 16]) -> [[u32; L]; 4];

    /// SHA-1 `a75` partial value per lane (76 rounds; survivors must be
    /// confirmed with the full compression).
    fn sha1_a75_rows(&self, rows: &[[u32; L]; 16]) -> [u32; L];

    /// The reversed-MD4 forward half: steps 0..=29, the register step 29
    /// writes per lane (comparable with
    /// [`crate::Md4PrefixSearch::reference`] for lanes sharing words
    /// 1..16).
    fn md4_forward30_rows(&self, rows: &[[u32; L]; 16]) -> [u32; L];

    /// The reversed-MD5 forward half: 49 steps for lanes sharing
    /// `template` in words 1..16, rotating-form state after step 48 per
    /// lane (comparable with [`crate::Md5PrefixSearch::reference`]).
    fn md5_forward49_batch(&self, template: &[u32; 16], w0s: &[u32; L]) -> [[u32; 4]; L];

    /// [`LaneHasher::md5_rows`] for a caller holding one block per lane:
    /// transposes in and out around the rows kernel.
    fn md5_batch(&self, blocks: &[[u32; 16]; L]) -> [[u32; 4]; L] {
        cores::state_lanes(&self.md5_rows(&cores::rows_of(blocks)))
    }

    /// [`LaneHasher::sha1_a75_rows`] for a caller holding one block per
    /// lane.
    fn sha1_a75_batch(&self, blocks: &[[u32; 16]; L]) -> [u32; L] {
        self.sha1_a75_rows(&cores::rows_of(blocks))
    }
}

/// The generic cores over `[u32; L]` lanes as a [`LaneHasher`] at any
/// width — the portable fallback when no explicit-SIMD ISA is available.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AutoVec;

impl<const L: usize> LaneHasher<L> for AutoVec {
    #[inline]
    fn md5_rows(&self, rows: &[[u32; L]; 16]) -> [[u32; L]; 4] {
        cores::md5_rows::<[u32; L], L>(rows)
    }

    #[inline]
    fn md4_rows(&self, rows: &[[u32; L]; 16]) -> [[u32; L]; 4] {
        cores::md4_rows::<[u32; L], L>(rows)
    }

    #[inline]
    fn md4_forward30_rows(&self, rows: &[[u32; L]; 16]) -> [u32; L] {
        cores::md4_forward30::<[u32; L], L>(rows)
    }

    #[inline]
    fn sha1_a75_rows(&self, rows: &[[u32; L]; 16]) -> [u32; L] {
        cores::sha1_a75_rows::<[u32; L], L>(rows)
    }

    #[inline]
    fn md5_forward49_batch(&self, template: &[u32; 16], w0s: &[u32; L]) -> [[u32; 4]; L] {
        cores::md5_forward49::<[u32; L], L>(template, w0s)
    }
}
