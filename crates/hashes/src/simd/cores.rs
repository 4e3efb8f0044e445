//! The compression cores, written once against [`Vec32`] and
//! instantiated per ISA by the `#[target_feature]` shims — and over plain
//! `[u32; L]` arrays by [`crate::AutoVec`], the portable fallback.
//!
//! The step cores ([`md5_steps`], [`md4_steps`], [`sha1_rounds`]) are
//! public and bounded on the op vocabulary alone: `eks-kernels` runs them
//! over a symbolic leaf to record the §V GPU kernel IR, so the host
//! kernels and the simulated GPUs' kernels are one algorithm text.
//!
//! Batches arrive *word-major* — `rows[w]` holds message word `w` of all
//! `L` candidates — so a core's input is sixteen vector loads and its
//! output one vector store per state word: the writers
//! (`eks-keyspace`'s `Rows`) produce that form directly, and nothing
//! between them and the hash moves a word that is the same in every
//! lane one lane at a time.
//!
//! Every core carries the Section V tricks (49-step reversed MD5, 30-step
//! reversed MD4, SHA-1 `a75` partial rounds) with the vector operations
//! *explicit*, so on an ISA leaf the instruction mix is fixed by
//! construction rather than left to the loop vectorizer. Step counts and
//! round counts are const generics so every instantiation fully unrolls
//! and the state "rotation" is a compile-time renaming, exactly like the
//! paper's unrolled kernels.
//!
//! The functions here contain no `unsafe`: all intrinsic access lives in
//! the one-line `Vec32` op impls, and feature-availability proofs live
//! in the entry shims.

// Indexing/slicing below is over fixed-size state arrays or lengths
// established by construction; the workspace `clippy::indexing_slicing`
// escalation guards new code, not these proven accesses.
#![allow(clippy::indexing_slicing)]

use super::vec::{LaneVec, Vec32};
use crate::md4;
use crate::md5::{self, IV as MD5_IV, K as MD5_K, S as MD5_S};
use crate::sha1::{IV as SHA1_IV, K as SHA1_K};

/// One vector per message word: sixteen loads.
#[inline(always)]
fn load_rows<V: LaneVec, const L: usize>(rows: &[[u32; L]; 16]) -> [V; 16] {
    debug_assert_eq!(L, V::LANES);
    core::array::from_fn(|w| V::load(&rows[w]))
}

/// `blocks` word-major: what a caller holding one block per lane does
/// before it can enter a rows kernel.
#[inline]
pub(crate) fn rows_of<const L: usize>(blocks: &[[u32; 16]; L]) -> [[u32; L]; 16] {
    core::array::from_fn(|w| core::array::from_fn(|l| blocks[l][w]))
}

/// A word-major state as one `[a, b, c, d]` per lane. Spelled out per
/// word: `state.map(|row| row[l])` copies the whole state once per lane
/// and cost the 49-step MD5 search two thirds of its rate.
#[inline(always)]
pub(crate) fn state_lanes<const L: usize>(state: &[[u32; L]; 4]) -> [[u32; 4]; L] {
    core::array::from_fn(|l| [state[0][l], state[1][l], state[2][l], state[3][l]])
}

/// One row per state word: four stores.
#[inline(always)]
fn store_rows<V: LaneVec, const L: usize>(s: [V; 4]) -> [[u32; L]; 4] {
    debug_assert_eq!(L, V::LANES);
    let mut rows = [[0u32; L]; 4];
    for (row, v) in rows.iter_mut().zip(s) {
        v.store(row);
    }
    rows
}

// ---------------------------------------------------------------------------
// MD5
// ---------------------------------------------------------------------------

/// One MD5 round-1 step: `a = b + rotl(a + F(b,c,d) + k + w, s)`.
#[inline(always)]
fn md5_f<V: Vec32>(a: V, b: V, c: V, d: V, w: V, k: u32, s: u32) -> V {
    b.add(a.sum4(b.sel(c, d), V::splat(k), w).rotl(s))
}

/// One MD5 round-2 step (`G(b,c,d) = (d & b) | (!d & c)`).
#[inline(always)]
fn md5_g<V: Vec32>(a: V, b: V, c: V, d: V, w: V, k: u32, s: u32) -> V {
    b.add(a.sum4(d.sel(b, c), V::splat(k), w).rotl(s))
}

/// One MD5 round-3 step (`H = b ^ c ^ d`).
#[inline(always)]
fn md5_h<V: Vec32>(a: V, b: V, c: V, d: V, w: V, k: u32, s: u32) -> V {
    b.add(a.sum4(b.xor3(c, d), V::splat(k), w).rotl(s))
}

/// One MD5 round-4 step (`I = c ^ (b | !d)`).
#[inline(always)]
fn md5_i<V: Vec32>(a: V, b: V, c: V, d: V, w: V, k: u32, s: u32) -> V {
    b.add(a.sum4(b.md5i(c, d), V::splat(k), w).rotl(s))
}

/// Expand one quad of steps `i..i+4` for the given round function,
/// keeping the state rotation a compile-time renaming. Each step is
/// guarded by `STEPS` — after unrolling, `i` and `STEPS` are constants,
/// so a guard folds away and a cut mid-quad costs nothing.
macro_rules! md5_quad {
    ($step:ident, $a:ident, $b:ident, $c:ident, $d:ident, $m:ident, $i:ident, $steps:ident) => {
        if $i < $steps {
            $a = $step($a, $b, $c, $d, $m[md5::word_index($i)], MD5_K[$i], MD5_S[$i]);
        }
        if $i + 1 < $steps {
            $d = $step($d, $a, $b, $c, $m[md5::word_index($i + 1)], MD5_K[$i + 1], MD5_S[$i + 1]);
        }
        if $i + 2 < $steps {
            $c = $step($c, $d, $a, $b, $m[md5::word_index($i + 2)], MD5_K[$i + 2], MD5_S[$i + 2]);
        }
        if $i + 3 < $steps {
            $b = $step($b, $c, $d, $a, $m[md5::word_index($i + 3)], MD5_K[$i + 3], MD5_S[$i + 3]);
        }
    };
}

/// Run the first `STEPS` MD5 steps from the IV, returning the raw
/// working registers `[a, b, c, d]` (no chaining addition) — `STEPS` is
/// 64 for the full hash, [`crate::md5_reverse::FORWARD_STEPS`] (49) for
/// the reversed search, and 46 for the early-exit GPU kernel.
#[inline(always)]
pub fn md5_steps<V: Vec32, const STEPS: usize>(m: &[V; 16]) -> [V; 4] {
    let mut a = V::splat(MD5_IV[0]);
    let mut b = V::splat(MD5_IV[1]);
    let mut c = V::splat(MD5_IV[2]);
    let mut d = V::splat(MD5_IV[3]);
    let mut i = 0;
    while i < 16.min(STEPS) {
        md5_quad!(md5_f, a, b, c, d, m, i, STEPS);
        i += 4;
    }
    while i < 32.min(STEPS) {
        md5_quad!(md5_g, a, b, c, d, m, i, STEPS);
        i += 4;
    }
    while i < 48.min(STEPS) {
        md5_quad!(md5_h, a, b, c, d, m, i, STEPS);
        i += 4;
    }
    // Round 4 stops after any step (the 49-step search after its first).
    while i < STEPS {
        a = md5_i(a, b, c, d, m[md5::word_index(i)], MD5_K[i], MD5_S[i]);
        if i + 1 >= STEPS {
            break;
        }
        d = md5_i(d, a, b, c, m[md5::word_index(i + 1)], MD5_K[i + 1], MD5_S[i + 1]);
        c = md5_i(c, d, a, b, m[md5::word_index(i + 2)], MD5_K[i + 2], MD5_S[i + 2]);
        b = md5_i(b, c, d, a, m[md5::word_index(i + 3)], MD5_K[i + 3], MD5_S[i + 3]);
        i += 4;
    }
    [a, b, c, d]
}

/// MD5 over `L` pre-padded single-block messages: the final chained
/// state, one row per state word — lane `l` of it equals
/// `md5_compress(IV, block l)`.
#[inline(always)]
pub(crate) fn md5_rows<V: LaneVec, const L: usize>(rows: &[[u32; L]; 16]) -> [[u32; L]; 4] {
    let m = load_rows::<V, L>(rows);
    let [a, b, c, d] = md5_steps::<V, 64>(&m);
    store_rows([
        a.add(V::splat(MD5_IV[0])),
        b.add(V::splat(MD5_IV[1])),
        c.add(V::splat(MD5_IV[2])),
        d.add(V::splat(MD5_IV[3])),
    ])
}

/// The reversed-MD5 forward half (Section V-B): 49 steps for `L` lanes
/// sharing `template` in words 1..16 and differing only in `w0s`.
/// Returns the rotating-form state after step 48 per lane
/// (`[d, a, b, c]`, comparable with
/// [`crate::Md5PrefixSearch::reference`]).
#[inline(always)]
pub(crate) fn md5_forward49<V: LaneVec, const L: usize>(
    template: &[u32; 16],
    w0s: &[u32; L],
) -> [[u32; 4]; L] {
    debug_assert_eq!(L, V::LANES);
    let mut m = [V::splat(0); 16];
    m[0] = V::load(w0s);
    for (w, slot) in m.iter_mut().enumerate().skip(1) {
        *slot = V::splat(template[w]);
    }
    // 49 steps: the last executed step (index 48, i % 4 == 0) writes the
    // register that is `a` in its frame; the rotating-form state after
    // step 48 is therefore [d, a, b, c] of our fixed naming.
    let [a, b, c, d] = md5_steps::<V, { crate::md5_reverse::FORWARD_STEPS }>(&m);
    state_lanes(&store_rows::<V, L>([d, a, b, c]))
}

// ---------------------------------------------------------------------------
// MD4 (the NTLM core)
// ---------------------------------------------------------------------------

/// One MD4 round-1 step.
#[inline(always)]
fn md4_f<V: Vec32>(a: V, b: V, c: V, d: V, w: V, s: u32) -> V {
    a.sum3(b.sel(c, d), w).rotl(s)
}

/// One MD4 round-2 step (`G` is majority, constant `K2`).
#[inline(always)]
fn md4_g<V: Vec32>(a: V, b: V, c: V, d: V, w: V, s: u32) -> V {
    const K2: u32 = 0x5a82_7999;
    a.sum4(b.maj(c, d), w, V::splat(K2)).rotl(s)
}

/// One MD4 round-3 step (`H` is xor3, constant `K3`).
#[inline(always)]
fn md4_h<V: Vec32>(a: V, b: V, c: V, d: V, w: V, s: u32) -> V {
    const K3: u32 = 0x6ed9_eba1;
    a.sum4(b.xor3(c, d), w, V::splat(K3)).rotl(s)
}

/// Expand one quad of MD4 steps `i..i+4` for the given round function,
/// each step guarded by `STEPS` — after unrolling, `i` and `STEPS` are
/// constants, so a guard folds away and a cut mid-quad costs nothing.
macro_rules! md4_quad {
    ($step:ident, $a:ident, $b:ident, $c:ident, $d:ident, $m:ident, $i:ident, $steps:ident) => {
        if $i < $steps {
            $a = $step($a, $b, $c, $d, $m[md4::WORD_INDEX[$i]], md4::ROT[$i]);
        }
        if $i + 1 < $steps {
            $d = $step($d, $a, $b, $c, $m[md4::WORD_INDEX[$i + 1]], md4::ROT[$i + 1]);
        }
        if $i + 2 < $steps {
            $c = $step($c, $d, $a, $b, $m[md4::WORD_INDEX[$i + 2]], md4::ROT[$i + 2]);
        }
        if $i + 3 < $steps {
            $b = $step($b, $c, $d, $a, $m[md4::WORD_INDEX[$i + 3]], md4::ROT[$i + 3]);
        }
    };
}

/// Run the first `STEPS` MD4 steps from the IV, returning the raw
/// working registers `[a, b, c, d]` (no chaining addition) — `STEPS` is
/// 48 for the full hash, [`crate::md4_reverse::FORWARD_STEPS`] for the
/// reversed search (which stops after the second step of the last
/// round-2 quad).
#[inline(always)]
pub fn md4_steps<V: Vec32, const STEPS: usize>(m: &[V; 16]) -> [V; 4] {
    let mut a = V::splat(md4::IV[0]);
    let mut b = V::splat(md4::IV[1]);
    let mut c = V::splat(md4::IV[2]);
    let mut d = V::splat(md4::IV[3]);
    let mut i = 0;
    while i < 16.min(STEPS) {
        md4_quad!(md4_f, a, b, c, d, m, i, STEPS);
        i += 4;
    }
    while i < 32.min(STEPS) {
        md4_quad!(md4_g, a, b, c, d, m, i, STEPS);
        i += 4;
    }
    while i < STEPS {
        md4_quad!(md4_h, a, b, c, d, m, i, STEPS);
        i += 4;
    }
    [a, b, c, d]
}

/// MD4 over `L` pre-padded single-block messages (the NTLM batch core),
/// one row per state word: lane `l` equals `md4_compress(IV, block l)`.
#[inline(always)]
pub(crate) fn md4_rows<V: LaneVec, const L: usize>(rows: &[[u32; L]; 16]) -> [[u32; L]; 4] {
    let [a, b, c, d] = md4_steps::<V, 48>(&load_rows::<V, L>(rows));
    store_rows([
        a.add(V::splat(md4::IV[0])),
        b.add(V::splat(md4::IV[1])),
        c.add(V::splat(md4::IV[2])),
        d.add(V::splat(md4::IV[3])),
    ])
}

/// The reversed-MD4 forward half: steps 0..=29 for `L` lanes, returning
/// the register step 29 writes per lane — the word
/// [`crate::Md4PrefixSearch::reference`] is compared with. Lanes must
/// share words 1..16 for that comparison to mean anything; the kernel
/// itself reads every row.
#[inline(always)]
pub(crate) fn md4_forward30<V: LaneVec, const L: usize>(rows: &[[u32; L]; 16]) -> [u32; L] {
    // Step 29 (i % 4 == 1) writes the register named `d` in this frame.
    let [_, _, _, d] =
        md4_steps::<V, { crate::md4_reverse::FORWARD_STEPS }>(&load_rows::<V, L>(rows));
    let mut out = [0u32; L];
    d.store(&mut out);
    out
}

// ---------------------------------------------------------------------------
// SHA-1
// ---------------------------------------------------------------------------

/// Expand schedule word `i` (`i >= 16`) on the 16-slot ring: the
/// `(i mod 16)` slot holds exactly `w[i-16]` and is never read again,
/// so it is overwritten in place.
macro_rules! sha1_expand {
    ($w:ident, $i:expr) => {{
        let x = $w[($i + 13) & 15]
            .xor3($w[($i + 8) & 15], $w[($i + 2) & 15])
            .xor($w[$i & 15])
            .rotl(1);
        $w[$i & 15] = x;
        x
    }};
    // Final expansion of a partial trace: no slot will ever read it, so
    // skip the ring store.
    ($w:ident, $i:expr, last) => {
        $w[($i + 13) & 15]
            .xor3($w[($i + 8) & 15], $w[($i + 2) & 15])
            .xor($w[$i & 15])
            .rotl(1)
    };
}

/// One SHA-1 round with the rotating renaming spelled out by the
/// caller: `e += rotl5(a) + f(b, c, d) + k + wi; b = rotl30(b)` (the
/// caller then shifts which register plays which role). It computes
/// `wi`, then `f`, then `rotl5(a)`: the order the §V kernel IR records.
macro_rules! sha1_round {
    ($f:ident, $a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $wi:expr, $k:ident) => {
        let wi = $wi;
        let f = $b.$f($c, $d);
        $e = $a.rotl(5).sum5(f, $e, $k, wi);
        $b = $b.rotl(30);
    };
}

/// Five rounds — one full renaming cycle — of a 20-round phase, with
/// schedule expansion when `$i >= 16`.
macro_rules! sha1_group {
    ($f:ident, $a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $w:ident, $i:ident, $k:ident, expand) => {
        sha1_round!($f, $a, $b, $c, $d, $e, sha1_expand!($w, $i), $k);
        sha1_round!($f, $e, $a, $b, $c, $d, sha1_expand!($w, $i + 1), $k);
        sha1_round!($f, $d, $e, $a, $b, $c, sha1_expand!($w, $i + 2), $k);
        sha1_round!($f, $c, $d, $e, $a, $b, sha1_expand!($w, $i + 3), $k);
        sha1_round!($f, $b, $c, $d, $e, $a, sha1_expand!($w, $i + 4), $k);
    };
    ($f:ident, $a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $w:ident, $i:ident, $k:ident, direct) => {
        sha1_round!($f, $a, $b, $c, $d, $e, $w[$i], $k);
        sha1_round!($f, $e, $a, $b, $c, $d, $w[$i + 1], $k);
        sha1_round!($f, $d, $e, $a, $b, $c, $w[$i + 2], $k);
        sha1_round!($f, $c, $d, $e, $a, $b, $w[$i + 3], $k);
        sha1_round!($f, $b, $c, $d, $e, $a, $w[$i + 4], $k);
    };
}

/// Run the first `ROUNDS` SHA-1 rounds from the IV with a rolling
/// 16-entry schedule ring, returning the raw working registers
/// `[a, b, c, d, e]` (no chaining addition). `ROUNDS` is 80 for the full
/// hash and [`crate::sha1_partial::PARTIAL_ROUNDS`] (76) for the partial
/// path, whose round 75 writes `e` — `a75` — and skips the rotate of a
/// `b` nothing reads.
#[inline(always)]
pub fn sha1_rounds<V: Vec32, const ROUNDS: usize>(m: &[V; 16]) -> [V; 5] {
    const { assert!(ROUNDS == crate::sha1_partial::PARTIAL_ROUNDS || ROUNDS == 80) };
    let mut w = *m;
    let mut a = V::splat(SHA1_IV[0]);
    let mut b = V::splat(SHA1_IV[1]);
    let mut c = V::splat(SHA1_IV[2]);
    let mut d = V::splat(SHA1_IV[3]);
    let mut e = V::splat(SHA1_IV[4]);

    let k0 = V::splat(SHA1_K[0]);
    let k1 = V::splat(SHA1_K[1]);
    let k2 = V::splat(SHA1_K[2]);
    let k3 = V::splat(SHA1_K[3]);

    let mut i = 0;
    while i < 15 {
        sha1_group!(sel, a, b, c, d, e, w, i, k0, direct);
        i += 5;
    }
    // Rounds 15..20: the first expansion lands mid-group.
    sha1_round!(sel, a, b, c, d, e, w[15], k0);
    sha1_round!(sel, e, a, b, c, d, sha1_expand!(w, 16), k0);
    sha1_round!(sel, d, e, a, b, c, sha1_expand!(w, 17), k0);
    sha1_round!(sel, c, d, e, a, b, sha1_expand!(w, 18), k0);
    sha1_round!(sel, b, c, d, e, a, sha1_expand!(w, 19), k0);
    i = 20;
    while i < 40 {
        sha1_group!(xor3, a, b, c, d, e, w, i, k1, expand);
        i += 5;
    }
    while i < 60 {
        sha1_group!(maj, a, b, c, d, e, w, i, k2, expand);
        i += 5;
    }
    while i + 5 <= ROUNDS {
        sha1_group!(xor3, a, b, c, d, e, w, i, k3, expand);
        i += 5;
    }
    if i < ROUNDS {
        // Round 75 of the partial trace writes the register named `e` in
        // this frame.
        let wi = sha1_expand!(w, i, last);
        let f = b.xor3(c, d);
        e = a.rotl(5).sum5(f, e, k3, wi);
    }
    [a, b, c, d, e]
}

/// The SHA-1 partial path: 76 rounds per lane, returning each lane's
/// `a75` — the value [`crate::Sha1PartialSearch`] compares against
/// `rotr30(e_target − IV[4])`. A lane that passes must be confirmed with
/// the full hash; one that fails is rejected four rounds and four
/// schedule expansions early (the paper's "anticipate the checks" rule).
#[inline(always)]
pub(crate) fn sha1_a75_rows<V: LaneVec, const L: usize>(rows: &[[u32; L]; 16]) -> [u32; L] {
    debug_assert_eq!(L, V::LANES);
    let [_, _, _, _, a75] =
        sha1_rounds::<V, { crate::sha1_partial::PARTIAL_ROUNDS }>(&load_rows::<V, L>(rows));
    let mut out = [0u32; L];
    a75.store(&mut out);
    out
}

#[cfg(test)]
mod tests {
    //! The generic cores over one-lane (`[u32; 1]`) and paired
    //! (`X2<[u32; 1]>`) arrays vs. the scalar compression functions:
    //! proves the *algorithm structure* before any ISA enters the picture.

    use super::*;
    use crate::md4::md4_compress;
    use crate::md5::md5_compress;
    use crate::padding::{pad_md5_block, pad_sha_block};
    use crate::sha1::{expand_schedule, round as scalar_sha1_round};
    use crate::simd::vec::X2;

    /// Lane `l` of a word-major state.
    fn lane<const L: usize>(state: &[[u32; L]; 4], l: usize) -> [u32; 4] {
        state_lanes(state)[l]
    }

    #[test]
    fn scalar_core_md5_matches_compress() {
        let block = pad_md5_block(b"core-check");
        let got = md5_rows::<[u32; 1], 1>(&rows_of(&[block]));
        assert_eq!(lane(&got, 0), md5_compress(MD5_IV, &block));
    }

    #[test]
    fn paired_core_md5_matches_compress() {
        let blocks = [pad_md5_block(b"left"), pad_md5_block(b"right")];
        let got = md5_rows::<X2<[u32; 1]>, 2>(&rows_of(&blocks));
        for (l, block) in blocks.iter().enumerate() {
            assert_eq!(lane(&got, l), md5_compress(MD5_IV, block), "lane {l}");
        }
    }

    #[test]
    fn paired_core_md4_matches_compress() {
        let blocks = [pad_md5_block(b"ntlm-a"), pad_md5_block(b"ntlm-b")];
        let got = md4_rows::<X2<[u32; 1]>, 2>(&rows_of(&blocks));
        for (l, block) in blocks.iter().enumerate() {
            assert_eq!(lane(&got, l), md4_compress(md4::IV, block), "lane {l}");
        }
    }

    #[test]
    fn paired_core_md4_forward30_matches_scalar_steps() {
        let blocks = [pad_md5_block(b"n\0t\0l\0m\0"), pad_md5_block(b"x\0t\0l\0m\0")];
        let got = md4_forward30::<X2<[u32; 1]>, 2>(&rows_of(&blocks));
        for (l, block) in blocks.iter().enumerate() {
            let mut s = md4::IV;
            for i in 0..crate::md4_reverse::FORWARD_STEPS {
                s = md4::step(i, s, block);
            }
            // The rotating form keeps the newest register in `s[1]`.
            assert_eq!(got[l], s[1], "lane {l}");
        }
    }

    #[test]
    fn paired_core_forward49_matches_scalar_steps() {
        let template = pad_md5_block(b"AAAA-tail");
        let w0s = [0x6162_6364u32, 0x7a79_7877];
        let got = md5_forward49::<X2<[u32; 1]>, 2>(&template, &w0s);
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
    fn paired_core_a75_matches_scalar_partial() {
        let blocks = [pad_sha_block(b"a75-x"), pad_sha_block(b"a75-y")];
        let got = sha1_a75_rows::<X2<[u32; 1]>, 2>(&rows_of(&blocks));
        for (l, block) in blocks.iter().enumerate() {
            let sched = expand_schedule(block);
            let mut s = SHA1_IV;
            for (i, &w) in sched.iter().enumerate().take(crate::sha1_partial::PARTIAL_ROUNDS) {
                s = scalar_sha1_round(i, s, w);
            }
            assert_eq!(got[l], s[0], "lane {l}");
        }
    }
}
