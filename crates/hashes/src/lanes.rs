//! Structure-of-arrays lane-parallel compression functions.
//!
//! The paper's Section V argument is that throughput is decided by the
//! instruction mix of a *vectorized* inner loop: a warp evaluates 32 keys
//! in lockstep, one padded block per key, with no per-key control flow.
//! This module is the CPU transliteration of that shape. `L` candidate
//! blocks are transposed into structure-of-arrays form (`[u32; L]` per
//! message word / state register) and every step of the compression
//! function runs an inner `for l in 0..L` loop with **no per-lane
//! branches** — exactly the pattern LLVM's loop auto-vectorizer turns into
//! SIMD: with `L = 8` the lane arrays fill one AVX2 register, with
//! `L = 16` two (or one AVX-512 register), mirroring how 32 CUDA lanes
//! fill a warp.
//!
//! That holds only as far as the *build's* target features reach. With
//! `-C target-cpu=native` on an AVX host these loops do vectorise; in the
//! baseline x86-64 build (SSE2, eight 128-bit registers) the compiler
//! keeps them scalar — measured with every lane's output consumed:
//! 65–76 ns/key for the 49-step MD5, 84–143 for SHA-1 `a75`, scalar
//! speed, against 4.4 and 15.6 for the AVX-512 cores of [`crate::simd`].
//! So these cores are the *portable* path: the fallback on CPUs without
//! an explicit ISA and the second implementation the equivalence tests
//! compare against; the cracker's backends pick [`crate::simd`] by
//! runtime detection wherever they can.
//!
//! The round structure is fully unrolled in groups of four (MD5/MD4) or
//! five (SHA-1) steps so the state "rotation" is a compile-time renaming
//! of the lane arrays rather than a per-step shuffle, and so the round
//! function and rotation amounts are loop-invariant scalars hoisted out
//! of the lane loop.

// Indexing/slicing below is over fixed-size state arrays or lengths
// established by construction; the workspace `clippy::indexing_slicing`
// escalation guards new code, not these proven accesses.
#![allow(clippy::indexing_slicing)]

use crate::md4;
use crate::md5::{self, IV as MD5_IV, K as MD5_K, S as MD5_S};
use crate::sha1::{IV as SHA1_IV, K as SHA1_K};

/// A batched hash implementation at lane width `L`: the abstraction the
/// cracker's scan loop is generic over, so the same loop drives the
/// autovectorized cores here ([`AutoVec`]) and the explicit-SIMD
/// kernels in [`crate::simd`] (whose handles implement this trait at
/// their ISA's width).
///
/// Every method must be bit-for-bit equal to the scalar compression
/// functions lane by lane — the property tests enforce this for every
/// implementation.
pub trait LaneHasher<const L: usize>: Copy + Send + Sync {
    /// MD5 final chained state per lane
    /// (= `md5_compress(IV, &blocks[l])`).
    fn md5_batch(&self, blocks: &[[u32; 16]; L]) -> [[u32; 4]; L];

    /// MD4 final chained state per lane (the NTLM core).
    fn md4_batch(&self, blocks: &[[u32; 16]; L]) -> [[u32; 4]; L];

    /// SHA-1 final chained state per lane.
    fn sha1_batch(&self, blocks: &[[u32; 16]; L]) -> [[u32; 5]; L];

    /// SHA-1 `a75` partial value per lane (76 rounds; survivors must be
    /// confirmed with the full compression).
    fn sha1_a75_batch(&self, blocks: &[[u32; 16]; L]) -> [u32; L];

    /// The reversed-MD5 forward half: 49 steps for lanes sharing
    /// `template` in words 1..16, rotating-form state after step 48 per
    /// lane (comparable with [`crate::Md5PrefixSearch::reference`]).
    fn md5_forward49_batch(&self, template: &[u32; 16], w0s: &[u32; L]) -> [[u32; 4]; L];
}

/// The autovectorized lane cores of this module as a [`LaneHasher`] at
/// any width — the portable fallback when no explicit-SIMD ISA is
/// available (and the reference the explicit kernels are tested
/// against).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AutoVec;

impl<const L: usize> LaneHasher<L> for AutoVec {
    #[inline]
    fn md5_batch(&self, blocks: &[[u32; 16]; L]) -> [[u32; 4]; L] {
        md5_lanes(blocks)
    }

    #[inline]
    fn md4_batch(&self, blocks: &[[u32; 16]; L]) -> [[u32; 4]; L] {
        md4_lanes(blocks)
    }

    #[inline]
    fn sha1_batch(&self, blocks: &[[u32; 16]; L]) -> [[u32; 5]; L] {
        sha1_lanes(blocks)
    }

    #[inline]
    fn sha1_a75_batch(&self, blocks: &[[u32; 16]; L]) -> [u32; L] {
        sha1_a75_lanes(blocks)
    }

    #[inline]
    fn md5_forward49_batch(&self, template: &[u32; 16], w0s: &[u32; L]) -> [[u32; 4]; L] {
        md5_forward49_lanes(template, w0s)
    }
}

/// Transpose `L` 16-word blocks from array-of-structures into
/// structure-of-arrays form: `out[w][l] = blocks[l][w]`.
#[inline(always)]
fn transpose_blocks<const L: usize>(blocks: &[[u32; 16]; L]) -> [[u32; L]; 16] {
    let mut m = [[0u32; L]; 16];
    for (l, block) in blocks.iter().enumerate() {
        for (w, lane_row) in m.iter_mut().enumerate() {
            lane_row[l] = block[w];
        }
    }
    m
}

// ---------------------------------------------------------------------------
// MD5
// ---------------------------------------------------------------------------

/// One MD5 F-round step over `L` lanes: `a = b + rotl(a+F(b,c,d)+k+w, s)`.
#[inline(always)]
fn md5_f<const L: usize>(
    a: &mut [u32; L],
    b: &[u32; L],
    c: &[u32; L],
    d: &[u32; L],
    w: &[u32; L],
    k: u32,
    s: u32,
) {
    for l in 0..L {
        let f = (b[l] & c[l]) | (!b[l] & d[l]);
        a[l] = b[l].wrapping_add(
            a[l].wrapping_add(f).wrapping_add(k).wrapping_add(w[l]).rotate_left(s),
        );
    }
}

/// One MD5 G-round step over `L` lanes.
#[inline(always)]
fn md5_g<const L: usize>(
    a: &mut [u32; L],
    b: &[u32; L],
    c: &[u32; L],
    d: &[u32; L],
    w: &[u32; L],
    k: u32,
    s: u32,
) {
    for l in 0..L {
        let g = (d[l] & b[l]) | (!d[l] & c[l]);
        a[l] = b[l].wrapping_add(
            a[l].wrapping_add(g).wrapping_add(k).wrapping_add(w[l]).rotate_left(s),
        );
    }
}

/// One MD5 H-round step over `L` lanes.
#[inline(always)]
fn md5_h<const L: usize>(
    a: &mut [u32; L],
    b: &[u32; L],
    c: &[u32; L],
    d: &[u32; L],
    w: &[u32; L],
    k: u32,
    s: u32,
) {
    for l in 0..L {
        let h = b[l] ^ c[l] ^ d[l];
        a[l] = b[l].wrapping_add(
            a[l].wrapping_add(h).wrapping_add(k).wrapping_add(w[l]).rotate_left(s),
        );
    }
}

/// One MD5 I-round step over `L` lanes.
#[inline(always)]
fn md5_i<const L: usize>(
    a: &mut [u32; L],
    b: &[u32; L],
    c: &[u32; L],
    d: &[u32; L],
    w: &[u32; L],
    k: u32,
    s: u32,
) {
    for l in 0..L {
        let i = c[l] ^ (b[l] | !d[l]);
        a[l] = b[l].wrapping_add(
            a[l].wrapping_add(i).wrapping_add(k).wrapping_add(w[l]).rotate_left(s),
        );
    }
}

/// Run the 64 MD5 steps over `L` transposed lanes starting from the IV.
/// Returns the four working registers *without* the final chaining
/// addition (the reversed search compares the raw step-48 state; the full
/// hash adds the IV afterwards).
#[inline(always)]
fn md5_steps<const L: usize>(
    m: &[[u32; L]; 16],
    steps: usize,
) -> ([u32; L], [u32; L], [u32; L], [u32; L]) {
    let mut a = [MD5_IV[0]; L];
    let mut b = [MD5_IV[1]; L];
    let mut c = [MD5_IV[2]; L];
    let mut d = [MD5_IV[3]; L];

    // Round 1: steps 0..16, word schedule w[i].
    let mut i = 0;
    while i < 16.min(steps) {
        md5_f(&mut a, &b, &c, &d, &m[md5::word_index(i)], MD5_K[i], MD5_S[i]);
        md5_f(&mut d, &a, &b, &c, &m[md5::word_index(i + 1)], MD5_K[i + 1], MD5_S[i + 1]);
        md5_f(&mut c, &d, &a, &b, &m[md5::word_index(i + 2)], MD5_K[i + 2], MD5_S[i + 2]);
        md5_f(&mut b, &c, &d, &a, &m[md5::word_index(i + 3)], MD5_K[i + 3], MD5_S[i + 3]);
        i += 4;
    }
    // Round 2: steps 16..32.
    while i < 32.min(steps) {
        md5_g(&mut a, &b, &c, &d, &m[md5::word_index(i)], MD5_K[i], MD5_S[i]);
        md5_g(&mut d, &a, &b, &c, &m[md5::word_index(i + 1)], MD5_K[i + 1], MD5_S[i + 1]);
        md5_g(&mut c, &d, &a, &b, &m[md5::word_index(i + 2)], MD5_K[i + 2], MD5_S[i + 2]);
        md5_g(&mut b, &c, &d, &a, &m[md5::word_index(i + 3)], MD5_K[i + 3], MD5_S[i + 3]);
        i += 4;
    }
    // Round 3: steps 32..48.
    while i < 48.min(steps) {
        md5_h(&mut a, &b, &c, &d, &m[md5::word_index(i)], MD5_K[i], MD5_S[i]);
        md5_h(&mut d, &a, &b, &c, &m[md5::word_index(i + 1)], MD5_K[i + 1], MD5_S[i + 1]);
        md5_h(&mut c, &d, &a, &b, &m[md5::word_index(i + 2)], MD5_K[i + 2], MD5_S[i + 2]);
        md5_h(&mut b, &c, &d, &a, &m[md5::word_index(i + 3)], MD5_K[i + 3], MD5_S[i + 3]);
        i += 4;
    }
    // Round 4: steps 48..64. The reversed search stops after step 48
    // (steps = FORWARD_STEPS = 49): only the first call of the quad runs.
    while i < steps {
        md5_i(&mut a, &b, &c, &d, &m[md5::word_index(i)], MD5_K[i], MD5_S[i]);
        if i + 1 >= steps {
            break;
        }
        md5_i(&mut d, &a, &b, &c, &m[md5::word_index(i + 1)], MD5_K[i + 1], MD5_S[i + 1]);
        md5_i(&mut c, &d, &a, &b, &m[md5::word_index(i + 2)], MD5_K[i + 2], MD5_S[i + 2]);
        md5_i(&mut b, &c, &d, &a, &m[md5::word_index(i + 3)], MD5_K[i + 3], MD5_S[i + 3]);
        i += 4;
    }
    (a, b, c, d)
}

/// MD5 over `L` pre-padded single-block messages in lockstep.
///
/// `blocks[l]` is the little-endian 16-word padded block of lane `l`
/// (as produced by [`crate::padding::pad_md5_block`]); the result is the
/// final chained state per lane — serialize with
/// [`crate::md5::state_to_digest`] for digest bytes. Equals
/// `md5_compress(IV, &blocks[l])` on every lane.
#[inline(always)]
pub fn md5_lanes<const L: usize>(blocks: &[[u32; 16]; L]) -> [[u32; 4]; L] {
    let m = transpose_blocks(blocks);
    let (a, b, c, d) = md5_steps(&m, 64);
    let mut out = [[0u32; 4]; L];
    for l in 0..L {
        out[l] = [
            a[l].wrapping_add(MD5_IV[0]),
            b[l].wrapping_add(MD5_IV[1]),
            c[l].wrapping_add(MD5_IV[2]),
            d[l].wrapping_add(MD5_IV[3]),
        ];
    }
    out
}

/// The lane-parallel half of the reversed-MD5 search: run the 49 forward
/// steps (0..=48) for `L` lanes that share `template` in words 1..16 and
/// differ only in `w0s`, returning the rotating-form state after step 48
/// per lane (`[s0, s1, s2, s3]`, comparable with
/// [`crate::Md5PrefixSearch::reference`]).
#[inline(always)]
pub fn md5_forward49_lanes<const L: usize>(
    template: &[u32; 16],
    w0s: &[u32; L],
) -> [[u32; 4]; L] {
    // Splat the shared words across lanes; only w[0] is per-lane.
    let mut m = [[0u32; L]; 16];
    m[0] = *w0s;
    for (w, lane_row) in m.iter_mut().enumerate().skip(1) {
        *lane_row = [template[w]; L];
    }
    // 49 = 12 quads + 1: the last executed call writes `a`, giving the
    // rotating-form state [d, a, b, c] after step 48.
    let (a, b, c, d) = md5_steps(&m, crate::md5_reverse::FORWARD_STEPS);
    let mut out = [[0u32; 4]; L];
    for l in 0..L {
        out[l] = [d[l], a[l], b[l], c[l]];
    }
    out
}

// ---------------------------------------------------------------------------
// MD4
// ---------------------------------------------------------------------------

/// One MD4 F-round step over `L` lanes.
#[inline(always)]
fn md4_f<const L: usize>(
    a: &mut [u32; L],
    b: &[u32; L],
    c: &[u32; L],
    d: &[u32; L],
    w: &[u32; L],
    s: u32,
) {
    for l in 0..L {
        let f = (b[l] & c[l]) | (!b[l] & d[l]);
        a[l] = a[l].wrapping_add(f).wrapping_add(w[l]).rotate_left(s);
    }
}

/// One MD4 G-round step over `L` lanes.
#[inline(always)]
fn md4_g<const L: usize>(
    a: &mut [u32; L],
    b: &[u32; L],
    c: &[u32; L],
    d: &[u32; L],
    w: &[u32; L],
    s: u32,
) {
    const K2: u32 = 0x5a82_7999;
    for l in 0..L {
        let g = (b[l] & c[l]) | (b[l] & d[l]) | (c[l] & d[l]);
        a[l] = a[l].wrapping_add(g).wrapping_add(w[l]).wrapping_add(K2).rotate_left(s);
    }
}

/// One MD4 H-round step over `L` lanes.
#[inline(always)]
fn md4_h<const L: usize>(
    a: &mut [u32; L],
    b: &[u32; L],
    c: &[u32; L],
    d: &[u32; L],
    w: &[u32; L],
    s: u32,
) {
    const K3: u32 = 0x6ed9_eba1;
    for l in 0..L {
        let h = b[l] ^ c[l] ^ d[l];
        a[l] = a[l].wrapping_add(h).wrapping_add(w[l]).wrapping_add(K3).rotate_left(s);
    }
}

/// MD4 over `L` pre-padded single-block messages in lockstep (the NTLM
/// batch core). Equals `md4_compress(IV, &blocks[l])` on every lane.
#[inline(always)]
pub fn md4_lanes<const L: usize>(blocks: &[[u32; 16]; L]) -> [[u32; 4]; L] {
    let m = transpose_blocks(blocks);
    let mut a = [md4::IV[0]; L];
    let mut b = [md4::IV[1]; L];
    let mut c = [md4::IV[2]; L];
    let mut d = [md4::IV[3]; L];

    // Round 1: sequential words.
    for chunk in 0..4 {
        let base = chunk * 4;
        md4_f(&mut a, &b, &c, &d, &m[base], 3);
        md4_f(&mut d, &a, &b, &c, &m[base + 1], 7);
        md4_f(&mut c, &d, &a, &b, &m[base + 2], 11);
        md4_f(&mut b, &c, &d, &a, &m[base + 3], 19);
    }
    // Round 2: column-major words.
    for col in 0..4 {
        md4_g(&mut a, &b, &c, &d, &m[col], 3);
        md4_g(&mut d, &a, &b, &c, &m[col + 4], 5);
        md4_g(&mut c, &d, &a, &b, &m[col + 8], 9);
        md4_g(&mut b, &c, &d, &a, &m[col + 12], 13);
    }
    // Round 3: bit-reversed column order.
    for &col in &[0usize, 2, 1, 3] {
        md4_h(&mut a, &b, &c, &d, &m[col], 3);
        md4_h(&mut d, &a, &b, &c, &m[col + 8], 9);
        md4_h(&mut c, &d, &a, &b, &m[col + 4], 11);
        md4_h(&mut b, &c, &d, &a, &m[col + 12], 15);
    }

    let mut out = [[0u32; 4]; L];
    for l in 0..L {
        out[l] = [
            a[l].wrapping_add(md4::IV[0]),
            b[l].wrapping_add(md4::IV[1]),
            c[l].wrapping_add(md4::IV[2]),
            d[l].wrapping_add(md4::IV[3]),
        ];
    }
    out
}

// ---------------------------------------------------------------------------
// SHA-1
// ---------------------------------------------------------------------------

/// One SHA-1 Ch round over `L` lanes:
/// `e += rotl5(a) + Ch(b,c,d) + k + w; b = rotl30(b)`.
#[inline(always)]
fn sha1_ch<const L: usize>(
    a: &[u32; L],
    b: &mut [u32; L],
    c: &[u32; L],
    d: &[u32; L],
    e: &mut [u32; L],
    w: &[u32; L],
    k: u32,
) {
    for l in 0..L {
        let f = (b[l] & c[l]) | (!b[l] & d[l]);
        e[l] = e[l]
            .wrapping_add(a[l].rotate_left(5))
            .wrapping_add(f)
            .wrapping_add(k)
            .wrapping_add(w[l]);
        b[l] = b[l].rotate_left(30);
    }
}

/// One SHA-1 Parity round over `L` lanes.
#[inline(always)]
fn sha1_par<const L: usize>(
    a: &[u32; L],
    b: &mut [u32; L],
    c: &[u32; L],
    d: &[u32; L],
    e: &mut [u32; L],
    w: &[u32; L],
    k: u32,
) {
    for l in 0..L {
        let f = b[l] ^ c[l] ^ d[l];
        e[l] = e[l]
            .wrapping_add(a[l].rotate_left(5))
            .wrapping_add(f)
            .wrapping_add(k)
            .wrapping_add(w[l]);
        b[l] = b[l].rotate_left(30);
    }
}

/// One SHA-1 Maj round over `L` lanes.
#[inline(always)]
fn sha1_maj<const L: usize>(
    a: &[u32; L],
    b: &mut [u32; L],
    c: &[u32; L],
    d: &[u32; L],
    e: &mut [u32; L],
    w: &[u32; L],
    k: u32,
) {
    for l in 0..L {
        let f = (b[l] & c[l]) | (b[l] & d[l]) | (c[l] & d[l]);
        e[l] = e[l]
            .wrapping_add(a[l].rotate_left(5))
            .wrapping_add(f)
            .wrapping_add(k)
            .wrapping_add(w[l]);
        b[l] = b[l].rotate_left(30);
    }
}

/// Expand the message schedule for `L` lanes in SoA form: `w[i][l]` is
/// round `i`'s word for lane `l`. `ROUNDS` is 80 for the full hash or
/// [`crate::sha1_partial::PARTIAL_ROUNDS`] for the early-exit variant.
#[inline(always)]
fn sha1_schedule_lanes<const L: usize, const ROUNDS: usize>(
    blocks: &[[u32; 16]; L],
) -> [[u32; L]; ROUNDS] {
    let mut w = [[0u32; L]; ROUNDS];
    for (l, block) in blocks.iter().enumerate() {
        for (i, &word) in block.iter().enumerate() {
            w[i][l] = word;
        }
    }
    for i in 16..ROUNDS {
        let (prev, cur) = w.split_at_mut(i);
        for (l, out) in cur[0].iter_mut().enumerate() {
            *out = (prev[i - 3][l] ^ prev[i - 8][l] ^ prev[i - 14][l] ^ prev[i - 16][l])
                .rotate_left(1);
        }
    }
    w
}

/// The five SoA state words `(a, b, c, d, e)` of `L` SHA-1 lanes.
type Sha1StateLanes<const L: usize> = ([u32; L], [u32; L], [u32; L], [u32; L], [u32; L]);

/// Run `groups` five-round groups of SHA-1 over the SoA schedule, with
/// the round function selected by the 20-round quarter. The five-fold
/// unroll keeps the register rotation a renaming, like the paper's
/// unrolled kernels.
#[inline(always)]
fn sha1_groups<const L: usize>(w: &[[u32; L]], groups: usize) -> Sha1StateLanes<L> {
    let mut a = [SHA1_IV[0]; L];
    let mut b = [SHA1_IV[1]; L];
    let mut c = [SHA1_IV[2]; L];
    let mut d = [SHA1_IV[3]; L];
    let mut e = [SHA1_IV[4]; L];
    for g in 0..groups {
        let i = g * 5;
        let k = SHA1_K[i / 20];
        match i / 20 {
            0 => {
                sha1_ch(&a, &mut b, &c, &d, &mut e, &w[i], k);
                sha1_ch(&e, &mut a, &b, &c, &mut d, &w[i + 1], k);
                sha1_ch(&d, &mut e, &a, &b, &mut c, &w[i + 2], k);
                sha1_ch(&c, &mut d, &e, &a, &mut b, &w[i + 3], k);
                sha1_ch(&b, &mut c, &d, &e, &mut a, &w[i + 4], k);
            }
            2 => {
                sha1_maj(&a, &mut b, &c, &d, &mut e, &w[i], k);
                sha1_maj(&e, &mut a, &b, &c, &mut d, &w[i + 1], k);
                sha1_maj(&d, &mut e, &a, &b, &mut c, &w[i + 2], k);
                sha1_maj(&c, &mut d, &e, &a, &mut b, &w[i + 3], k);
                sha1_maj(&b, &mut c, &d, &e, &mut a, &w[i + 4], k);
            }
            _ => {
                sha1_par(&a, &mut b, &c, &d, &mut e, &w[i], k);
                sha1_par(&e, &mut a, &b, &c, &mut d, &w[i + 1], k);
                sha1_par(&d, &mut e, &a, &b, &mut c, &w[i + 2], k);
                sha1_par(&c, &mut d, &e, &a, &mut b, &w[i + 3], k);
                sha1_par(&b, &mut c, &d, &e, &mut a, &w[i + 4], k);
            }
        }
    }
    (a, b, c, d, e)
}

/// SHA-1 over `L` pre-padded single-block messages in lockstep.
///
/// `blocks[l]` is the big-endian 16-word padded block of lane `l`; the
/// result equals `sha1_compress(IV, &blocks[l])` on every lane.
#[inline(always)]
pub fn sha1_lanes<const L: usize>(blocks: &[[u32; 16]; L]) -> [[u32; 5]; L] {
    let w = sha1_schedule_lanes::<L, 80>(blocks);
    let (a, b, c, d, e) = sha1_groups(&w, 16);
    let mut out = [[0u32; 5]; L];
    for l in 0..L {
        out[l] = [
            a[l].wrapping_add(SHA1_IV[0]),
            b[l].wrapping_add(SHA1_IV[1]),
            c[l].wrapping_add(SHA1_IV[2]),
            d[l].wrapping_add(SHA1_IV[3]),
            e[l].wrapping_add(SHA1_IV[4]),
        ];
    }
    out
}

/// The lane-parallel SHA-1 partial path: 76 rounds per lane, returning
/// each lane's `a75` — the value [`crate::Sha1PartialSearch`] compares
/// against `rotr30(e_target − IV[4])`. A lane that passes the filter must
/// be confirmed with the full hash (e.g. scalar
/// [`crate::sha1::sha1_compress`]); a lane that fails is rejected four
/// rounds and four schedule expansions early, like the paper's
/// "anticipate the checks" rule.
#[inline(always)]
pub fn sha1_a75_lanes<const L: usize>(blocks: &[[u32; 16]; L]) -> [u32; L] {
    let w = sha1_schedule_lanes::<L, { crate::sha1_partial::PARTIAL_ROUNDS }>(blocks);
    // 75 rounds = 15 aligned groups; round 75 (the 76th) writes `e`,
    // which is a75 in the rotating naming.
    let (a, mut b, c, d, mut e) = sha1_groups(&w, 15);
    sha1_par(&a, &mut b, &c, &d, &mut e, &w[75], SHA1_K[3]);
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::md4::md4_compress;
    use crate::md5::md5_compress;
    use crate::padding::{pad_md5_block, pad_sha_block};
    use crate::sha1::{round as sha1_round, expand_schedule, sha1_compress};

    fn sample_blocks_le<const L: usize>() -> [[u32; 16]; L] {
        let mut blocks = [[0u32; 16]; L];
        for (l, b) in blocks.iter_mut().enumerate() {
            *b = pad_md5_block(format!("lane-{l:02}-payload").as_bytes());
        }
        blocks
    }

    #[test]
    fn md5_lanes_agree_with_scalar() {
        let blocks = sample_blocks_le::<8>();
        let got = md5_lanes(&blocks);
        for l in 0..8 {
            assert_eq!(got[l], md5_compress(MD5_IV, &blocks[l]), "lane {l}");
        }
        let blocks = sample_blocks_le::<16>();
        let got = md5_lanes(&blocks);
        for l in 0..16 {
            assert_eq!(got[l], md5_compress(MD5_IV, &blocks[l]), "lane {l}");
        }
    }

    #[test]
    fn md4_lanes_agree_with_scalar() {
        let blocks = sample_blocks_le::<8>();
        let got = md4_lanes(&blocks);
        for l in 0..8 {
            assert_eq!(got[l], md4_compress(md4::IV, &blocks[l]), "lane {l}");
        }
    }

    #[test]
    fn sha1_lanes_agree_with_scalar() {
        let mut blocks = [[0u32; 16]; 8];
        for (l, b) in blocks.iter_mut().enumerate() {
            *b = pad_sha_block(format!("sha-lane-{l}").as_bytes());
        }
        let got = sha1_lanes(&blocks);
        for l in 0..8 {
            assert_eq!(got[l], sha1_compress(SHA1_IV, &blocks[l]), "lane {l}");
        }
    }

    #[test]
    fn forward49_matches_rotating_scalar_steps() {
        let template = pad_md5_block(b"AAAAsuffix");
        let w0s: [u32; 8] = core::array::from_fn(|l| 0xdead_0000 + l as u32);
        let got = md5_forward49_lanes(&template, &w0s);
        for (l, &w0) in w0s.iter().enumerate() {
            let mut w = template;
            w[0] = w0;
            let mut s = MD5_IV;
            for i in 0..crate::md5_reverse::FORWARD_STEPS {
                s = crate::md5::step(i, s, &w);
            }
            assert_eq!(got[l], s, "lane {l}");
        }
    }

    #[test]
    fn a75_lanes_match_scalar_partial_rounds() {
        let mut blocks = [[0u32; 16]; 8];
        for (l, b) in blocks.iter_mut().enumerate() {
            *b = pad_sha_block(format!("a75-{l}").as_bytes());
        }
        let got = sha1_a75_lanes(&blocks);
        for l in 0..8 {
            let sched = expand_schedule(&blocks[l]);
            let mut s = SHA1_IV;
            for i in 0..crate::sha1_partial::PARTIAL_ROUNDS {
                s = sha1_round(i, s, sched[i]);
            }
            assert_eq!(got[l], s[0], "lane {l}");
        }
    }
}
