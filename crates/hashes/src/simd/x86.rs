//! x86-64 vector lanes: AVX2 (`U32x8`) and AVX-512F (`U32x16`).
//!
//! All `unsafe` in this file is one of two proven shapes:
//!
//! * a single vendor intrinsic inside an `#[inline(always)]` [`Vec32`]
//!   op — sound because every call path into these ops is nested inside
//!   one of the `#[target_feature]` entry shims below, which are only
//!   reachable through `super` handles whose constructors verified the
//!   feature at runtime (`is_x86_feature_detected!`);
//! * a `transmute` between a `u32` lane array and the register type of
//!   identical size and plain-old-data layout.
//!
//! The entry shims instantiate the generic cores at `X2<_>` pairs —
//! 2 × 8 = 16 keys per AVX2 call, 2 × 16 = 32 per AVX-512 call — so two
//! independent dependency chains are in flight per hash state register
//! (interleaved multi-buffer scheduling).

// This module is the designated home for vendor intrinsics; the
// workspace-wide `unsafe_code = deny` stays in force everywhere else.
#![allow(unsafe_code)]
// Lane-array slicing below is over fixed 8/16-word arrays.
#![allow(clippy::indexing_slicing)]

use core::arch::x86_64::{
    __m256i, __m512i, _mm256_add_epi32, _mm256_and_si256, _mm256_or_si256,
    _mm256_set1_epi32, _mm256_sll_epi32, _mm256_srl_epi32, _mm256_xor_si256, _mm512_add_epi32,
    _mm512_and_si512, _mm512_or_si512, _mm512_rolv_epi32, _mm512_set1_epi32,
    _mm512_ternarylogic_epi32, _mm512_xor_si512, _mm_cvtsi32_si128,
};

use super::cores;
use super::vec::{LaneVec, Vec32, X2};

/// Eight `u32` lanes in one AVX2 register.
#[derive(Debug, Clone, Copy)]
pub(crate) struct U32x8(__m256i);

impl Vec32 for U32x8 {
    #[inline(always)]
    fn splat(x: u32) -> Self {
        // SAFETY: single AVX intrinsic; reachable only through the
        // `#[target_feature(enable = "avx2")]` shims below, entered via
        // handles that proved AVX2 at runtime.
        unsafe { Self(_mm256_set1_epi32(x as i32)) }
    }

    #[inline(always)]
    fn add(self, other: Self) -> Self {
        // SAFETY: single AVX2 intrinsic; see `splat` for the
        // feature-availability argument.
        unsafe { Self(_mm256_add_epi32(self.0, other.0)) }
    }

    #[inline(always)]
    fn xor(self, other: Self) -> Self {
        // SAFETY: single AVX2 intrinsic; see `splat`.
        unsafe { Self(_mm256_xor_si256(self.0, other.0)) }
    }

    #[inline(always)]
    fn and(self, other: Self) -> Self {
        // SAFETY: single AVX2 intrinsic; see `splat`.
        unsafe { Self(_mm256_and_si256(self.0, other.0)) }
    }

    #[inline(always)]
    fn or(self, other: Self) -> Self {
        // SAFETY: single AVX2 intrinsic; see `splat`.
        unsafe { Self(_mm256_or_si256(self.0, other.0)) }
    }

    #[inline(always)]
    fn rotl(self, s: u32) -> Self {
        debug_assert!((1..=31).contains(&s));
        // SAFETY: AVX2 shift intrinsics with a uniform runtime count
        // (see `splat` for availability). After the cores unroll, `s` is
        // a constant and LLVM folds these to immediate-form shifts.
        unsafe {
            let left = _mm256_sll_epi32(self.0, _mm_cvtsi32_si128(s as i32));
            let right = _mm256_srl_epi32(self.0, _mm_cvtsi32_si128(32 - s as i32));
            Self(_mm256_or_si256(left, right))
        }
    }
}

impl LaneVec for U32x8 {
    const LANES: usize = 8;

    #[inline(always)]
    fn load(words: &[u32]) -> Self {
        let arr: [u32; 8] = words[..8].try_into().expect("8 lanes");
        // SAFETY: `[u32; 8]` and `__m256i` are both 32-byte
        // plain-old-data with no invalid bit patterns.
        unsafe { Self(core::mem::transmute::<[u32; 8], __m256i>(arr)) }
    }

    #[inline(always)]
    fn store(self, out: &mut [u32]) {
        // SAFETY: same plain-old-data transmute as `load`, in reverse.
        let arr = unsafe { core::mem::transmute::<__m256i, [u32; 8]>(self.0) };
        out[..8].copy_from_slice(&arr);
    }
}

/// Sixteen `u32` lanes in one AVX-512 register. Uses the native rotate
/// (`vprolvd`) and folds every boolean step function into one
/// `vpternlogd`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct U32x16(__m512i);

impl Vec32 for U32x16 {
    #[inline(always)]
    fn splat(x: u32) -> Self {
        // SAFETY: single AVX-512F intrinsic; reachable only through the
        // `#[target_feature(enable = "avx512f")]` shims below, entered
        // via handles that proved AVX-512F at runtime.
        unsafe { Self(_mm512_set1_epi32(x as i32)) }
    }

    #[inline(always)]
    fn add(self, other: Self) -> Self {
        // SAFETY: single AVX-512F intrinsic; see `splat`.
        unsafe { Self(_mm512_add_epi32(self.0, other.0)) }
    }

    #[inline(always)]
    fn xor(self, other: Self) -> Self {
        // SAFETY: single AVX-512F intrinsic; see `splat`.
        unsafe { Self(_mm512_xor_si512(self.0, other.0)) }
    }

    #[inline(always)]
    fn and(self, other: Self) -> Self {
        // SAFETY: single AVX-512F intrinsic; see `splat`.
        unsafe { Self(_mm512_and_si512(self.0, other.0)) }
    }

    #[inline(always)]
    fn or(self, other: Self) -> Self {
        // SAFETY: single AVX-512F intrinsic; see `splat`.
        unsafe { Self(_mm512_or_si512(self.0, other.0)) }
    }

    #[inline(always)]
    fn rotl(self, s: u32) -> Self {
        debug_assert!((1..=31).contains(&s));
        // SAFETY: AVX-512F variable-rotate with a splatted count; see
        // `splat` for availability.
        unsafe { Self(_mm512_rolv_epi32(self.0, _mm512_set1_epi32(s as i32))) }
    }

    // One vpternlogd per boolean step function: imm8 bit
    // `(a << 2) | (b << 1) | c` gives the truth table over the three
    // operands in argument order.

    #[inline(always)]
    fn sel(self, t: Self, f: Self) -> Self {
        // SAFETY: single AVX-512F intrinsic; see `splat`. 0xCA is the
        // truth table of `(a & b) | (!a & c)`.
        unsafe { Self(_mm512_ternarylogic_epi32::<0xCA>(self.0, t.0, f.0)) }
    }

    #[inline(always)]
    fn maj(self, b: Self, c: Self) -> Self {
        // SAFETY: single AVX-512F intrinsic; see `splat`. 0xE8 is the
        // majority truth table.
        unsafe { Self(_mm512_ternarylogic_epi32::<0xE8>(self.0, b.0, c.0)) }
    }

    #[inline(always)]
    fn xor3(self, b: Self, c: Self) -> Self {
        // SAFETY: single AVX-512F intrinsic; see `splat`. 0x96 is the
        // three-way xor truth table.
        unsafe { Self(_mm512_ternarylogic_epi32::<0x96>(self.0, b.0, c.0)) }
    }

    #[inline(always)]
    fn md5i(self, c: Self, d: Self) -> Self {
        // SAFETY: single AVX-512F intrinsic; see `splat`. 0x39 is the
        // truth table of `b ^ (a | !c)` over operands `(a, b, c)` —
        // MD5's `I` with `a = b-register, b = c-register, c = d-register`.
        unsafe { Self(_mm512_ternarylogic_epi32::<0x39>(self.0, c.0, d.0)) }
    }
}

impl LaneVec for U32x16 {
    const LANES: usize = 16;

    #[inline(always)]
    fn load(words: &[u32]) -> Self {
        let arr: [u32; 16] = words[..16].try_into().expect("16 lanes");
        // SAFETY: `[u32; 16]` and `__m512i` are both 64-byte
        // plain-old-data with no invalid bit patterns.
        unsafe { Self(core::mem::transmute::<[u32; 16], __m512i>(arr)) }
    }

    #[inline(always)]
    fn store(self, out: &mut [u32]) {
        // SAFETY: same plain-old-data transmute as `load`, in reverse.
        let arr = unsafe { core::mem::transmute::<__m512i, [u32; 16]>(self.0) };
        out[..16].copy_from_slice(&arr);
    }
}

/// Generate the five `#[target_feature]` entry points for one ISA: the
/// only places the explicit-SIMD kernels are codegenned, and the only
/// functions a handle calls (via `unsafe`, with detection as the proof).
macro_rules! define_shims {
    ($modname:ident, $feature:literal, $vec:ty, $lanes:expr) => {
        pub(crate) mod $modname {
            use super::*;

            #[target_feature(enable = $feature)]
            pub(crate) fn md5_rows(rows: &[[u32; $lanes]; 16]) -> [[u32; $lanes]; 4] {
                cores::md5_rows::<$vec, $lanes>(rows)
            }

            #[target_feature(enable = $feature)]
            pub(crate) fn md4_rows(rows: &[[u32; $lanes]; 16]) -> [[u32; $lanes]; 4] {
                cores::md4_rows::<$vec, $lanes>(rows)
            }

            #[target_feature(enable = $feature)]
            pub(crate) fn md4_forward30(rows: &[[u32; $lanes]; 16]) -> [u32; $lanes] {
                cores::md4_forward30::<$vec, $lanes>(rows)
            }

            #[target_feature(enable = $feature)]
            pub(crate) fn sha1_a75_rows(rows: &[[u32; $lanes]; 16]) -> [u32; $lanes] {
                cores::sha1_a75_rows::<$vec, $lanes>(rows)
            }

            #[target_feature(enable = $feature)]
            pub(crate) fn md5_forward49(
                template: &[u32; 16],
                w0s: &[u32; $lanes],
            ) -> [[u32; 4]; $lanes] {
                cores::md5_forward49::<$vec, $lanes>(template, w0s)
            }
        }
    };
}

define_shims!(avx2, "avx2", X2<U32x8>, 16);
define_shims!(avx512, "avx512f", X2<U32x16>, 32);
