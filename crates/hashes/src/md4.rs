//! MD4 (RFC 1320) and the NTLM password hash (MD4 over UTF-16LE).
//!
//! An extension beyond the paper's MD5/SHA-1 pair: NTLM is the password
//! hash most audit sessions actually face, and it slots into the same
//! pattern — MD4 is MD5's 48-step predecessor with the same block
//! structure, so everything downstream (single-block fast path, target
//! sets, dispatch) works unchanged.

// Indexing/slicing below is over fixed-size state arrays or lengths
// established by construction; the workspace `clippy::indexing_slicing`
// escalation guards new code, not these proven accesses.
#![allow(clippy::indexing_slicing)]

use crate::digest::Digest;
use crate::padding::{pad_md5_block, MAX_SINGLE_BLOCK_MSG};

/// MD4 initial state (identical to MD5's).
pub const IV: [u32; 4] = [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476];

/// Message-word index used by step `i` (RFC 1320 round schedules).
pub const WORD_INDEX: [usize; 48] = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, // round 1
    0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15, // round 2
    0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15, // round 3
];

/// Per-step left-rotation amounts.
pub const ROT: [u32; 48] = [
    3, 7, 11, 19, 3, 7, 11, 19, 3, 7, 11, 19, 3, 7, 11, 19, //
    3, 5, 9, 13, 3, 5, 9, 13, 3, 5, 9, 13, 3, 5, 9, 13, //
    3, 9, 11, 15, 3, 9, 11, 15, 3, 9, 11, 15, 3, 9, 11, 15,
];

/// Additive constant of step `i` (0, √2-, √3-derived per round).
const fn step_k(i: usize) -> u32 {
    match i / 16 {
        0 => 0,
        1 => 0x5a82_7999,
        _ => 0x6ed9_eba1,
    }
}

/// The non-linear round function of step `i`.
#[inline]
pub fn round_fn(i: usize, b: u32, c: u32, d: u32) -> u32 {
    match i / 16 {
        0 => (b & c) | (!b & d),          // F
        1 => (b & c) | (b & d) | (c & d), // G
        _ => b ^ c ^ d,                   // H
    }
}

/// One forward MD4 step in the rotating-state formulation: returns
/// `[d, new, b, c]` with `new = rotl(a + f(b,c,d) + w[g] + K, s)`.
#[inline]
pub fn step(i: usize, state: [u32; 4], w: &[u32; 16]) -> [u32; 4] {
    let [a, b, c, d] = state;
    let new = a
        .wrapping_add(round_fn(i, b, c, d))
        .wrapping_add(w[WORD_INDEX[i]])
        .wrapping_add(step_k(i))
        .rotate_left(ROT[i]);
    [d, new, b, c]
}

/// Invert one MD4 step (requires the message word of step `i`).
#[inline]
pub fn unstep(i: usize, state: [u32; 4], w: &[u32; 16]) -> [u32; 4] {
    let [a_after, b_after, c_after, d_after] = state;
    let b = c_after;
    let c = d_after;
    let d = a_after;
    let a = b_after
        .rotate_right(ROT[i])
        .wrapping_sub(round_fn(i, b, c, d))
        .wrapping_sub(w[WORD_INDEX[i]])
        .wrapping_sub(step_k(i));
    [a, b, c, d]
}

/// The MD4 compression function over one little-endian 16-word block.
pub fn md4_compress(state: [u32; 4], w: &[u32; 16]) -> [u32; 4] {
    let [mut a, mut b, mut c, mut d] = state;
    let f = |x: u32, y: u32, z: u32| (x & y) | (!x & z);
    let g = |x: u32, y: u32, z: u32| (x & y) | (x & z) | (y & z);
    let h = |x: u32, y: u32, z: u32| x ^ y ^ z;

    // Round 1.
    for chunk in 0..4 {
        let base = chunk * 4;
        a = a.wrapping_add(f(b, c, d)).wrapping_add(w[base]).rotate_left(3);
        d = d.wrapping_add(f(a, b, c)).wrapping_add(w[base + 1]).rotate_left(7);
        c = c.wrapping_add(f(d, a, b)).wrapping_add(w[base + 2]).rotate_left(11);
        b = b.wrapping_add(f(c, d, a)).wrapping_add(w[base + 3]).rotate_left(19);
    }
    // Round 2.
    const K2: u32 = 0x5a82_7999;
    for col in 0..4 {
        a = a.wrapping_add(g(b, c, d)).wrapping_add(w[col]).wrapping_add(K2).rotate_left(3);
        d = d.wrapping_add(g(a, b, c)).wrapping_add(w[col + 4]).wrapping_add(K2).rotate_left(5);
        c = c.wrapping_add(g(d, a, b)).wrapping_add(w[col + 8]).wrapping_add(K2).rotate_left(9);
        b = b.wrapping_add(g(c, d, a)).wrapping_add(w[col + 12]).wrapping_add(K2).rotate_left(13);
    }
    // Round 3 (bit-reversed word order).
    const K3: u32 = 0x6ed9_eba1;
    for &col in &[0usize, 2, 1, 3] {
        a = a.wrapping_add(h(b, c, d)).wrapping_add(w[col]).wrapping_add(K3).rotate_left(3);
        d = d.wrapping_add(h(a, b, c)).wrapping_add(w[col + 8]).wrapping_add(K3).rotate_left(9);
        c = c.wrapping_add(h(d, a, b)).wrapping_add(w[col + 4]).wrapping_add(K3).rotate_left(11);
        b = b.wrapping_add(h(c, d, a)).wrapping_add(w[col + 12]).wrapping_add(K3).rotate_left(15);
    }
    [
        a.wrapping_add(state[0]),
        b.wrapping_add(state[1]),
        c.wrapping_add(state[2]),
        d.wrapping_add(state[3]),
    ]
}

/// Hash a message that fits one block (≤ 55 bytes).
pub fn md4_single_block(msg: &[u8]) -> [u8; 16] {
    debug_assert!(msg.len() <= MAX_SINGLE_BLOCK_MSG);
    let w = pad_md5_block(msg); // identical padding layout to MD5
    state_to_digest(md4_compress(IV, &w))
}

fn state_to_digest(state: [u32; 4]) -> [u8; 16] {
    let mut out = [0u8; 16];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// One-shot MD4 of arbitrary-length input.
pub fn md4(data: &[u8]) -> [u8; 16] {
    let mut h = Md4::new();
    h.update(data);
    h.finalize_fixed()
}

/// NTLM: MD4 of the UTF-16LE encoding of the password. ASCII passwords
/// (the brute-force case) simply interleave zero bytes. Heap-free: a
/// password whose encoding fits one block (≤ 27 bytes — every candidate
/// key) is expanded on the stack and compressed once; longer input
/// streams through [`Md4`] a code unit at a time.
pub fn ntlm(password: &[u8]) -> [u8; 16] {
    const MAX: usize = MAX_SINGLE_BLOCK_MSG / 2;
    if password.len() <= MAX {
        let mut utf16 = [0u8; 2 * MAX];
        for (unit, &b) in utf16.chunks_exact_mut(2).zip(password) {
            unit[0] = b;
        }
        return md4_single_block(&utf16[..2 * password.len()]);
    }
    let mut h = Md4::new();
    for &b in password {
        h.update(&[b, 0]);
    }
    h.finalize_fixed()
}

/// Streaming MD4 hasher.
#[derive(Debug, Clone)]
pub struct Md4 {
    state: [u32; 4],
    buffer: [u8; 64],
    buffered: usize,
    total_len: u64,
}

impl Md4 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Self { state: IV, buffer: [0; 64], buffered: 0, total_len: 0 }
    }

    /// Finalize into the fixed-size digest.
    pub fn finalize_fixed(mut self) -> [u8; 16] {
        let bitlen = self.total_len.wrapping_mul(8);
        self.update_bytes(&[0x80]);
        while self.buffered != 56 {
            self.update_bytes(&[0]);
        }
        let mut block = self.buffer;
        block[56..64].copy_from_slice(&bitlen.to_le_bytes());
        let w = words_le(&block);
        self.state = md4_compress(self.state, &w);
        state_to_digest(self.state)
    }

    fn update_bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.buffer[self.buffered] = b;
            self.buffered += 1;
            if self.buffered == 64 {
                let w = words_le(&self.buffer);
                self.state = md4_compress(self.state, &w);
                self.buffered = 0;
            }
        }
    }
}

impl Default for Md4 {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest for Md4 {
    const OUTPUT_LEN: usize = 16;

    fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        self.update_bytes(data);
    }

    fn finalize(self) -> Vec<u8> {
        self.finalize_fixed().to_vec()
    }

    fn reset(&mut self) {
        *self = Self::new();
    }
}

fn words_le(block: &[u8; 64]) -> [u32; 16] {
    let mut w = [0u32; 16];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::to_hex;

    /// RFC 1320 appendix A.5 test suite.
    #[test]
    fn rfc1320_vectors() {
        let cases = [
            ("", "31d6cfe0d16ae931b73c59d7e0c089c0"),
            ("a", "bde52cb31de33e46245e05fbdbd6fb24"),
            ("abc", "a448017aaf21d8525fc10ae87aa6729d"),
            ("message digest", "d9130a8164549fe818874806e1c7014b"),
            ("abcdefghijklmnopqrstuvwxyz", "d79e1c308aa5bbcdeea8ed63df412da9"),
            (
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "043f8582f241db351ce627e153e7f0e4",
            ),
            (
                "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "e33b4ddc9c38f2199c3e7b164fcc0536",
            ),
        ];
        for (msg, want) in cases {
            assert_eq!(to_hex(&md4(msg.as_bytes())), want, "md4({msg:?})");
        }
    }

    #[test]
    fn ntlm_known_values() {
        // Widely-published NTLM test values.
        assert_eq!(to_hex(&ntlm(b"password")), "8846f7eaee8fb117ad06bdd830b7586c");
        assert_eq!(to_hex(&ntlm(b"")), "31d6cfe0d16ae931b73c59d7e0c089c0");
        assert_eq!(to_hex(&ntlm(b"admin")), "209c6174da490caeb422f3fa5a7ae634");
    }

    #[test]
    fn ntlm_is_md4_of_the_utf16le_encoding_on_both_paths() {
        // 0..=27 bytes take the single-block stack path, 28..=64 stream.
        for len in 0..=64usize {
            let password: Vec<u8> = (0..len).map(|i| b'!' + (i * 7 % 90) as u8).collect();
            let utf16: Vec<u8> = password.iter().flat_map(|&b| [b, 0]).collect();
            assert_eq!(ntlm(&password), md4(&utf16), "len={len}");
        }
    }

    #[test]
    fn single_block_agrees_with_streaming() {
        for len in 0..=55usize {
            let msg: Vec<u8> = (0..len as u8).collect();
            assert_eq!(md4_single_block(&msg), md4(&msg), "len={len}");
        }
    }

    #[test]
    fn streaming_is_chunking_invariant() {
        let msg: Vec<u8> = (0..=255u8).cycle().take(700).collect();
        let whole = md4(&msg);
        let mut h = Md4::new();
        for chunk in msg.chunks(11) {
            h.update(chunk);
        }
        assert_eq!(h.finalize_fixed(), whole);
    }

    #[test]
    fn md4_differs_from_md5() {
        assert_ne!(md4(b"abc").to_vec(), crate::md5::md5(b"abc").to_vec());
    }

    #[test]
    fn rotating_step_form_matches_compress() {
        let w = pad_md5_block(b"equivalence");
        let mut s = IV;
        for i in 0..48 {
            s = step(i, s, &w);
        }
        let chained = [
            s[0].wrapping_add(IV[0]),
            s[1].wrapping_add(IV[1]),
            s[2].wrapping_add(IV[2]),
            s[3].wrapping_add(IV[3]),
        ];
        assert_eq!(chained, md4_compress(IV, &w));
    }

    #[test]
    fn unstep_inverts_step() {
        let w = pad_md5_block(b"reversible");
        let mut state = IV;
        let mut history = vec![state];
        for i in 0..48 {
            state = step(i, state, &w);
            history.push(state);
        }
        for i in (0..48).rev() {
            state = unstep(i, state, &w);
            assert_eq!(state, history[i], "unstep({i})");
        }
    }

    #[test]
    fn word_index_last_15_steps_avoid_w0() {
        // The reversal property transfers from MD5: w[0] is used at steps
        // 0, 16 and 32, never in the final 15 steps.
        assert_eq!(WORD_INDEX[0], 0);
        assert_eq!(WORD_INDEX[16], 0);
        assert_eq!(WORD_INDEX[32], 0);
        for (i, &w) in WORD_INDEX.iter().enumerate().skip(33) {
            assert_ne!(w, 0, "step {i}");
        }
    }
}
