//! AArch64 NEON vector lanes (`U32x4`).
//!
//! Same structure as the x86 module: every `unsafe` is either one
//! vendor intrinsic inside an `#[inline(always)]` [`Vec32`] op —
//! reachable only through the `#[target_feature(enable = "neon")]`
//! shims, entered via a handle whose constructor verified NEON at
//! runtime — or a plain-old-data `transmute` between a lane array and
//! the register type. The shims instantiate the cores at
//! `X2<U32x4>` = 8 keys per call (interleaved multi-buffer pairs).

// This module is the designated home for vendor intrinsics; the
// workspace-wide `unsafe_code = deny` stays in force everywhere else.
#![allow(unsafe_code)]
// Lane-array slicing below is over fixed 4-word arrays.
#![allow(clippy::indexing_slicing)]

use core::arch::aarch64::{
    uint32x4_t, vaddq_u32, vandq_u32, vdupq_n_s32, vdupq_n_u32, veorq_u32, vorrq_u32,
    vshlq_u32,
};

use super::cores;
use super::vec::{LaneVec, Vec32, X2};

/// Four `u32` lanes in one NEON register.
#[derive(Debug, Clone, Copy)]
pub(crate) struct U32x4(uint32x4_t);

impl Vec32 for U32x4 {
    #[inline(always)]
    fn splat(x: u32) -> Self {
        // SAFETY: single NEON intrinsic; reachable only through the
        // `#[target_feature(enable = "neon")]` shims below, entered via
        // handles that proved NEON at runtime.
        unsafe { Self(vdupq_n_u32(x)) }
    }

    #[inline(always)]
    fn add(self, other: Self) -> Self {
        // SAFETY: single NEON intrinsic; see `splat`.
        unsafe { Self(vaddq_u32(self.0, other.0)) }
    }

    #[inline(always)]
    fn xor(self, other: Self) -> Self {
        // SAFETY: single NEON intrinsic; see `splat`.
        unsafe { Self(veorq_u32(self.0, other.0)) }
    }

    #[inline(always)]
    fn and(self, other: Self) -> Self {
        // SAFETY: single NEON intrinsic; see `splat`.
        unsafe { Self(vandq_u32(self.0, other.0)) }
    }

    #[inline(always)]
    fn or(self, other: Self) -> Self {
        // SAFETY: single NEON intrinsic; see `splat`.
        unsafe { Self(vorrq_u32(self.0, other.0)) }
    }

    #[inline(always)]
    fn rotl(self, s: u32) -> Self {
        debug_assert!((1..=31).contains(&s));
        // SAFETY: single NEON intrinsics; see `splat`. `vshl` with a
        // negative per-lane count shifts right, so a left/right pair
        // composes the rotate; counts are in `1..=31`, within VSHL's
        // defined range.
        unsafe {
            let left = vshlq_u32(self.0, vdupq_n_s32(s as i32));
            let right = vshlq_u32(self.0, vdupq_n_s32(s as i32 - 32));
            Self(vorrq_u32(left, right))
        }
    }
}

impl LaneVec for U32x4 {
    const LANES: usize = 4;

    #[inline(always)]
    fn load(words: &[u32]) -> Self {
        let arr: [u32; 4] = words[..4].try_into().expect("4 lanes");
        // SAFETY: `[u32; 4]` and `uint32x4_t` are both 16-byte
        // plain-old-data with no invalid bit patterns.
        unsafe { Self(core::mem::transmute::<[u32; 4], uint32x4_t>(arr)) }
    }

    #[inline(always)]
    fn store(self, out: &mut [u32]) {
        // SAFETY: same plain-old-data transmute as `load`, in reverse.
        let arr = unsafe { core::mem::transmute::<uint32x4_t, [u32; 4]>(self.0) };
        out[..4].copy_from_slice(&arr);
    }
}

/// The five `#[target_feature(enable = "neon")]` entry points at
/// `X2<U32x4>` (8 keys per call) — the NEON counterpart of the x86
/// module's `define_shims!` output.
pub(crate) mod neon_shims {
    use super::*;

    #[target_feature(enable = "neon")]
    pub(crate) fn md5_rows(rows: &[[u32; 8]; 16]) -> [[u32; 8]; 4] {
        cores::md5_rows::<X2<U32x4>, 8>(rows)
    }

    #[target_feature(enable = "neon")]
    pub(crate) fn md4_rows(rows: &[[u32; 8]; 16]) -> [[u32; 8]; 4] {
        cores::md4_rows::<X2<U32x4>, 8>(rows)
    }

    #[target_feature(enable = "neon")]
    pub(crate) fn md4_forward30(rows: &[[u32; 8]; 16]) -> [u32; 8] {
        cores::md4_forward30::<X2<U32x4>, 8>(rows)
    }

    #[target_feature(enable = "neon")]
    pub(crate) fn sha1_a75_rows(rows: &[[u32; 8]; 16]) -> [u32; 8] {
        cores::sha1_a75_rows::<X2<U32x4>, 8>(rows)
    }

    #[target_feature(enable = "neon")]
    pub(crate) fn md5_forward49(template: &[u32; 16], w0s: &[u32; 8]) -> [[u32; 4]; 8] {
        cores::md5_forward49::<X2<U32x4>, 8>(template, w0s)
    }
}
