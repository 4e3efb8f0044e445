//! The portable vector vocabulary the explicit-SIMD cores are written
//! against.
//!
//! [`Vec32`] is the small set of `u32`-lane operations every compression
//! function in this module needs: splat, wrapping add, the bitwise ring,
//! and a rotate by a uniform (runtime) amount. The boolean step functions
//! of MD4/MD5/SHA-1 — select, majority, three-way xor, and MD5's round-4
//! `I` — and the step sums are *derived* operations with default
//! compositions, so an ISA that has a fused form (AVX-512's `vpternlogd`)
//! overrides them with a single instruction while AVX2 and NEON inherit
//! the 3-op composition, and the `eks-kernels` IR recorder overrides them
//! with the paper's CUDA source forms. [`LaneVec`] adds the lane
//! load/store only the row helpers need.
//!
//! Every method is `#[inline(always)]`: the generic cores in
//! [`super::cores`] instantiate to straight-line vector code *inside* the
//! per-ISA `#[target_feature]` entry shims, so LLVM sees the whole hash
//! as one feature-enabled function — the same structure `memchr` and the
//! stdlib use to keep `unsafe` confined to one-line intrinsic wrappers.
//!
//! [`X2`] pairs two vectors into one logical batch of `2 × LANES` keys:
//! the two halves form independent dependency chains, so an out-of-order
//! core overlaps their rotate/add latencies — the paper's Section V
//! observation that the kernel must expose instruction-level parallelism
//! beyond a single hash state (interleaved multi-buffer scheduling).

// Indexing/slicing below is over fixed-size lane arrays whose lengths
// are established by `Self::LANES`; the workspace
// `clippy::indexing_slicing` escalation guards new code, not these
// proven accesses.
#![allow(clippy::indexing_slicing)]

/// The op vocabulary of the compression cores: a value of `u32` lanes
/// (one candidate key per lane) or, in `eks-kernels`, a symbolic word
/// that records each op into the §V kernel IR.
///
/// Implementations: `[u32; N]` (portable lanes), the per-ISA register
/// wrappers in `x86`/`neon`, the `X2` pair combinator, and the IR
/// recorder. The cores take nothing else, so one algorithm text serves
/// every ISA and the GPU model alike.
pub trait Vec32: Copy {
    /// Broadcast one word to every lane.
    fn splat(x: u32) -> Self;

    /// Lane-wise wrapping addition.
    fn add(self, other: Self) -> Self;

    /// Lane-wise exclusive or.
    fn xor(self, other: Self) -> Self;

    /// Lane-wise and.
    fn and(self, other: Self) -> Self;

    /// Lane-wise or.
    fn or(self, other: Self) -> Self;

    /// Lane-wise rotate left by a uniform amount `1..=31`.
    fn rotl(self, s: u32) -> Self;

    /// Bitwise select: `(self & t) | (!self & f)` — MD5/MD4 `F`, MD5 `G`
    /// (with swapped operands) and SHA-1 `Ch`. AVX-512 overrides with
    /// `vpternlogd` imm `0xCA`.
    #[inline(always)]
    fn sel(self, t: Self, f: Self) -> Self {
        // The mux identity f ^ (mask & (t ^ f)): 3 ops, no NOT.
        f.xor(self.and(t.xor(f)))
    }

    /// Bitwise majority of `self, b, c` — MD4 `G` and SHA-1 `Maj`.
    /// AVX-512 overrides with `vpternlogd` imm `0xE8`.
    #[inline(always)]
    fn maj(self, b: Self, c: Self) -> Self {
        // (a & (b ^ c)) ^ (b & c): 3 ops instead of the 5-op or-of-ands.
        self.and(b.xor(c)).xor(b.and(c))
    }

    /// Three-way xor — MD4/MD5 `H` and SHA-1 `Parity`. AVX-512
    /// overrides with `vpternlogd` imm `0x96`.
    #[inline(always)]
    fn xor3(self, b: Self, c: Self) -> Self {
        self.xor(b).xor(c)
    }

    /// MD5 round-4 `I(b, c, d) = c ^ (b | !d)` with `self = b`.
    /// AVX-512 overrides with `vpternlogd` imm `0x39`.
    #[inline(always)]
    fn md5i(self, c: Self, d: Self) -> Self {
        c.xor(self.or(d.xor(Self::splat(!0))))
    }

    /// `self + b + c`, added left to right — MD4's round-1 step sum.
    #[inline(always)]
    fn sum3(self, b: Self, c: Self) -> Self {
        self.add(b).add(c)
    }

    /// `self + b + c + d`, added left to right — the MD5 and MD4 step
    /// sums.
    #[inline(always)]
    fn sum4(self, b: Self, c: Self, d: Self) -> Self {
        self.add(b).add(c).add(d)
    }

    /// `self + b + c + d + e`, added left to right — the SHA-1 round
    /// sum.
    #[inline(always)]
    fn sum5(self, b: Self, c: Self, d: Self, e: Self) -> Self {
        self.add(b).add(c).add(d).add(e)
    }
}

/// A [`Vec32`] that holds real lanes: what the row helpers load message
/// words into and store states out of.
pub(crate) trait LaneVec: Vec32 {
    /// Lanes per vector.
    const LANES: usize;

    /// Load the first `LANES` words of `words` (one per lane).
    ///
    /// # Panics
    /// Panics when `words` holds fewer than `LANES` words.
    fn load(words: &[u32]) -> Self;

    /// Store each lane into the first `LANES` slots of `out`.
    ///
    /// # Panics
    /// Panics when `out` holds fewer than `LANES` slots.
    fn store(self, out: &mut [u32]);
}

/// Portable lanes: `N` keys in a plain array, each op a loop over the
/// lanes that LLVM vectorises as far as the *build's* target features
/// reach (fully under `-C target-cpu=native` on an AVX host; scalar code
/// in a baseline x86-64 build). Instantiating the generic cores over this
/// leaf gives the fallback for CPUs without an explicit ISA, the Miri
/// path, and — at `N = 1` — the scalar form the core tests start from.
impl<const N: usize> Vec32 for [u32; N] {
    #[inline(always)]
    fn splat(x: u32) -> Self {
        [x; N]
    }

    #[inline(always)]
    fn add(self, other: Self) -> Self {
        core::array::from_fn(|l| self[l].wrapping_add(other[l]))
    }

    #[inline(always)]
    fn xor(self, other: Self) -> Self {
        core::array::from_fn(|l| self[l] ^ other[l])
    }

    #[inline(always)]
    fn and(self, other: Self) -> Self {
        core::array::from_fn(|l| self[l] & other[l])
    }

    #[inline(always)]
    fn or(self, other: Self) -> Self {
        core::array::from_fn(|l| self[l] | other[l])
    }

    #[inline(always)]
    fn rotl(self, s: u32) -> Self {
        core::array::from_fn(|l| self[l].rotate_left(s))
    }
}

impl<const N: usize> LaneVec for [u32; N] {
    const LANES: usize = N;

    #[inline(always)]
    fn load(words: &[u32]) -> Self {
        core::array::from_fn(|l| words[l])
    }

    #[inline(always)]
    fn store(self, out: &mut [u32]) {
        out[..N].copy_from_slice(&self);
    }
}

/// Two independent vectors treated as one batch of `2 × LANES` keys.
///
/// The halves never mix: every operation applies to both pairwise, so
/// the compiled kernel carries two interleaved dependency chains per
/// hash state register — enough ILP to keep the rotate/add ports busy
/// while one chain waits on its previous step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct X2<V>(pub V, pub V);

impl<V: Vec32> Vec32 for X2<V> {
    #[inline(always)]
    fn splat(x: u32) -> Self {
        X2(V::splat(x), V::splat(x))
    }

    #[inline(always)]
    fn add(self, other: Self) -> Self {
        X2(self.0.add(other.0), self.1.add(other.1))
    }

    #[inline(always)]
    fn xor(self, other: Self) -> Self {
        X2(self.0.xor(other.0), self.1.xor(other.1))
    }

    #[inline(always)]
    fn and(self, other: Self) -> Self {
        X2(self.0.and(other.0), self.1.and(other.1))
    }

    #[inline(always)]
    fn or(self, other: Self) -> Self {
        X2(self.0.or(other.0), self.1.or(other.1))
    }

    #[inline(always)]
    fn rotl(self, s: u32) -> Self {
        X2(self.0.rotl(s), self.1.rotl(s))
    }

    // Forward the derived ops so a half's ISA override (e.g. AVX-512
    // ternlog) is used; the trait defaults would re-derive them from the
    // pair's own and/or/xor and lose the fused forms.

    #[inline(always)]
    fn sel(self, t: Self, f: Self) -> Self {
        X2(self.0.sel(t.0, f.0), self.1.sel(t.1, f.1))
    }

    #[inline(always)]
    fn maj(self, b: Self, c: Self) -> Self {
        X2(self.0.maj(b.0, c.0), self.1.maj(b.1, c.1))
    }

    #[inline(always)]
    fn xor3(self, b: Self, c: Self) -> Self {
        X2(self.0.xor3(b.0, c.0), self.1.xor3(b.1, c.1))
    }

    #[inline(always)]
    fn md5i(self, c: Self, d: Self) -> Self {
        X2(self.0.md5i(c.0, d.0), self.1.md5i(c.1, d.1))
    }
}

impl<V: LaneVec> LaneVec for X2<V> {
    const LANES: usize = 2 * V::LANES;

    #[inline(always)]
    fn load(words: &[u32]) -> Self {
        X2(V::load(&words[..V::LANES]), V::load(&words[V::LANES..]))
    }

    #[inline(always)]
    fn store(self, out: &mut [u32]) {
        self.0.store(&mut out[..V::LANES]);
        self.1.store(&mut out[V::LANES..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_derived_ops_match_bit_formulas() {
        let cases: [(u32, u32, u32); 3] = [
            (0x0000_0000, 0xffff_ffff, 0x1234_5678),
            (0xdead_beef, 0x0f0f_0f0f, 0x8000_0001),
            (0xffff_ffff, 0x0000_0000, 0xcafe_babe),
        ];
        for (a, b, c) in cases {
            let (va, vb, vc) = ([a], [b], [c]);
            assert_eq!(va.sel(vb, vc), [(a & b) | (!a & c)]);
            assert_eq!(va.maj(vb, vc), [(a & b) | (a & c) | (b & c)]);
            assert_eq!(va.xor3(vb, vc), [a ^ b ^ c]);
            assert_eq!(va.md5i(vb, vc), [b ^ (a | !c)]);
        }
    }

    #[test]
    fn x2_pairs_are_independent() {
        let v = X2::<[u32; 1]>::load(&[7, 11]);
        let w = X2::<[u32; 1]>::load(&[1, 2]);
        let mut out = [0u32; 2];
        v.add(w).store(&mut out);
        assert_eq!(out, [8, 13]);
        v.rotl(4).store(&mut out);
        assert_eq!(out, [7 << 4, 11 << 4]);
        assert_eq!(X2::<[u32; 1]>::LANES, 2);
    }
}
