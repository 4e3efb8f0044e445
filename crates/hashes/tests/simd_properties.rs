//! Seeded property tests for every [`LaneHasher`]: on the portable
//! `AutoVec` cores at both widths and on every ISA the running CPU
//! supports, every lane of every batched algorithm — forward MD5/MD4,
//! the 49-step reversed-MD5 and 30-step reversed-MD4 forward halves, the
//! 76-round SHA-1 `a75` partial — must be bit-for-bit equal to its scalar reference on random
//! single-block messages. The kernels take the batch word-major (`rows[w]`
//! = word `w` of every lane); the messages here are random per lane, so
//! every row's lanes all differ.
//!
//! The checks are written once, generic over [`LaneHasher`], and
//! instantiated per implementation (`AutoVec` = 8 and 16 keys, AVX2 = 16,
//! AVX-512 = 32, NEON = 8). A handle constructor returning `None` — an
//! unsupported ISA, or any run under Miri, where vendor intrinsics cannot
//! execute — skips that ISA's instantiation cleanly; the test then proves
//! exactly the set of kernels the host can run.

use eks_core::prop::{forall, Rng};
use eks_hashes::md5_reverse::FORWARD_STEPS;
use eks_hashes::padding::{pad_md5_block, pad_sha_block, MAX_SINGLE_BLOCK_MSG};
use eks_hashes::{md4, md4_reverse, md5, sha1, LaneHasher, Md4PrefixSearch, Md5PrefixSearch, Sha1PartialSearch};

/// A random message of random length (0..=55 bytes, arbitrary bytes).
fn random_msg(rng: &mut Rng) -> Vec<u8> {
    let len = rng.index(MAX_SINGLE_BLOCK_MSG + 1);
    rng.vec(len, |r| r.u32() as u8)
}

/// `L` random messages and their pre-padded blocks, lane by lane.
fn random_blocks<const L: usize>(
    rng: &mut Rng,
    pad: fn(&[u8]) -> [u32; 16],
) -> Vec<(Vec<u8>, [u32; 16])> {
    (0..L)
        .map(|_| {
            let msg = random_msg(rng);
            let block = pad(&msg);
            (msg, block)
        })
        .collect()
}

/// The lanes' blocks, one per lane.
fn blocks_of<const L: usize>(lanes: &[(Vec<u8>, [u32; 16])]) -> [[u32; 16]; L] {
    let mut blocks = [[0u32; 16]; L];
    for (b, (_, block)) in blocks.iter_mut().zip(lanes) {
        *b = *block;
    }
    blocks
}

/// `blocks` in the word-major form the rows kernels take.
fn rows_of<const L: usize>(blocks: &[[u32; 16]; L]) -> [[u32; L]; 16] {
    let mut rows = [[0u32; L]; 16];
    for (l, block) in blocks.iter().enumerate() {
        for (row, &word) in rows.iter_mut().zip(block) {
            if let Some(slot) = row.get_mut(l) {
                *slot = word;
            }
        }
    }
    rows
}

/// A word-major state as one `[a, b, c, d]` per lane, in lane order.
fn lane_states<const L: usize>(state: &[[u32; L]; 4]) -> impl Iterator<Item = [u32; 4]> + '_ {
    let [a, b, c, d] = state;
    a.iter().zip(b).zip(c).zip(d).map(|(((&a, &b), &c), &d)| [a, b, c, d])
}

/// 76 scalar SHA-1 rounds, newest register.
fn scalar_a75(block: &[u32; 16]) -> u32 {
    let w = sha1::expand_schedule(block);
    let mut s = sha1::IV;
    for (i, &wi) in w.iter().enumerate().take(76) {
        s = sha1::round(i, s, wi);
    }
    s[0]
}

/// Every batched kernel of `hasher` against its scalar reference, at the
/// hasher's native width.
fn check_hasher<const L: usize, H: LaneHasher<L>>(name: &'static str, hasher: H) {
    forall(name, 48, |rng| {
        // Forward MD5: each lane equals the scalar compression, and its
        // serialised state the single-block digest of the message.
        let lanes = random_blocks::<L>(rng, pad_md5_block);
        let blocks = blocks_of(&lanes);
        let states = hasher.md5_rows(&rows_of(&blocks));
        for (l, (state, (msg, b))) in lane_states(&states).zip(&lanes).enumerate() {
            assert_eq!(state, md5::md5_compress(md5::IV, b), "{name} md5 lane {l}");
            assert_eq!(md5::state_to_digest(state), md5::md5_single_block(msg), "{name} md5 lane {l}");
        }
        // The one-block-per-lane form is the same kernel behind a transpose.
        assert_eq!(
            hasher.md5_batch(&blocks).to_vec(),
            lane_states(&states).collect::<Vec<_>>(),
            "{name} md5_batch"
        );

        // Forward MD4 (the NTLM core).
        let lanes = random_blocks::<L>(rng, pad_md5_block);
        let states = hasher.md4_rows(&rows_of(&blocks_of(&lanes)));
        for (l, (state, (msg, b))) in lane_states(&states).zip(&lanes).enumerate() {
            assert_eq!(state, md4::md4_compress(md4::IV, b), "{name} md4 lane {l}");
            assert_eq!(md5::state_to_digest(state), md4::md4_single_block(msg), "{name} md4 lane {l}");
        }

        // NTLM = MD4 over the UTF-16LE expansion; the lane path sees the
        // expanded bytes as an ordinary single-block message.
        let passwords: Vec<Vec<u8>> = (0..L)
            .map(|_| {
                let len = rng.index(21); // ≤ 20 chars → ≤ 40 expanded bytes
                rng.vec(len, |r| r.range(0x20, 0x7e) as u8)
            })
            .collect();
        let mut blocks = [[0u32; 16]; L];
        for (b, p) in blocks.iter_mut().zip(&passwords) {
            let utf16: Vec<u8> = p.iter().flat_map(|&c| [c, 0]).collect();
            *b = pad_md5_block(&utf16);
        }
        let states = hasher.md4_rows(&rows_of(&blocks));
        for (l, (state, p)) in lane_states(&states).zip(&passwords).enumerate() {
            assert_eq!(md5::state_to_digest(state), md4::ntlm(p), "{name} ntlm lane {l}");
        }

        // SHA-1 `a75` partial: 76 scalar rounds, newest register — which
        // is also what the search accepts with the lane's own digest as
        // the target.
        let lanes = random_blocks::<L>(rng, pad_sha_block);
        let blocks = blocks_of(&lanes);
        let a75s = hasher.sha1_a75_rows(&rows_of(&blocks));
        assert_eq!(hasher.sha1_a75_batch(&blocks), a75s, "{name} sha1_a75_batch");
        for (l, (&a75, (msg, b))) in a75s.iter().zip(&lanes).enumerate() {
            assert_eq!(a75, scalar_a75(b), "{name} a75 lane {l}");
            let search = Sha1PartialSearch::new(&sha1::sha1_single_block(msg));
            assert_eq!(a75, search.a75_expected(), "{name} a75 lane {l} self-target");
        }

        // The searches' own batch shape: every lane the same block but for
        // one word, which steps — fifteen rows hold one value in all lanes.
        let mut blocks = [[0u32; 16]; L];
        let shared: [u32; 16] = core::array::from_fn(|_| rng.u32());
        let stepping = rng.index(16);
        for b in blocks.iter_mut() {
            *b = shared;
            if let Some(word) = b.get_mut(stepping) {
                *word = rng.u32();
            }
        }
        let rows = rows_of(&blocks);
        let (md5s, md4s, a75s) =
            (hasher.md5_rows(&rows), hasher.md4_rows(&rows), hasher.sha1_a75_rows(&rows));
        let per_lane = lane_states(&md5s).zip(lane_states(&md4s)).zip(blocks.iter().zip(&a75s));
        for (l, ((md5_state, md4_state), (b, &a75))) in per_lane.enumerate() {
            assert_eq!(md5_state, md5::md5_compress(md5::IV, b), "{name} stepping md5 lane {l}");
            assert_eq!(md4_state, md4::md4_compress(md4::IV, b), "{name} stepping md4 lane {l}");
            assert_eq!(a75, scalar_a75(b), "{name} stepping a75 lane {l}");
        }

        // Reversed-MD5 forward half: lanes share words 1..16, differ only
        // in w[0]; each lane equals 49 scalar steps in rotating form.
        let mut template = [0u32; 16];
        for w in template.iter_mut() {
            *w = rng.u32();
        }
        let mut w0s = [0u32; L];
        for w in w0s.iter_mut() {
            *w = rng.u32();
        }
        for (l, (got, &w0)) in hasher.md5_forward49_batch(&template, &w0s).iter().zip(&w0s).enumerate() {
            let mut w = template;
            w[0] = w0;
            let mut s = md5::IV;
            for i in 0..FORWARD_STEPS {
                s = md5::step(i, s, &w);
            }
            assert_eq!(*got, s, "{name} forward49 lane {l}");
        }

        // The reversed filter over those states: a real target (some key
        // of a random length; candidates vary only the leading 4 bytes, as
        // in first-char-fastest order) planted in a random lane must pass,
        // and every lane must agree with the scalar `matches_w0`.
        let key_len = rng.range(4, 12) as usize;
        let key = rng.vec(key_len, |r| r.range(0x21, 0x7e) as u8);
        let search = Md5PrefixSearch::from_sample_key(&md5::md5_single_block(&key), &key);
        let plant = rng.index(L);
        if let (Some(slot), Some(first)) = (w0s.get_mut(plant), key.first_chunk::<4>()) {
            *slot = u32::from_le_bytes(*first);
        }
        let states = hasher.md5_forward49_batch(search.template(), &w0s);
        for (l, (state, &w0)) in states.iter().zip(&w0s).enumerate() {
            let hit = *state == search.reference();
            assert_eq!(hit, search.matches_w0(w0), "{name} reversed filter lane {l}");
            assert!(hit || l != plant, "{name}: the planted key's lane must pass the filter");
        }

        // Reversed-MD4 forward half: the register step 29 writes, on
        // blocks whose lanes all differ, equals 30 scalar steps.
        let lanes = random_blocks::<L>(rng, pad_md5_block);
        let blocks = blocks_of(&lanes);
        for (l, (got, b)) in hasher.md4_forward30_rows(&rows_of(&blocks)).iter().zip(&blocks).enumerate() {
            let mut s = md4::IV;
            for i in 0..md4_reverse::FORWARD_STEPS {
                s = md4::step(i, s, b);
            }
            assert_eq!(*got, s[1], "{name} md4 forward30 lane {l}");
        }

        // And the NTLM search shape: lanes share words 1..16 of a random
        // password and differ in its first two UTF-16 units; a planted
        // lane passes, every lane agrees with the scalar `matches_w0`.
        let len = rng.range(2, 20) as usize;
        let password = rng.vec(len, |r| r.range(0x21, 0x7e) as u8);
        let utf16: Vec<u8> = password.iter().flat_map(|&c| [c, 0]).collect();
        let template = pad_md5_block(&utf16);
        let search = Md4PrefixSearch::new(&md4::ntlm(&password), template);
        let mut blocks = [template; L];
        for b in blocks.iter_mut() {
            b[0] = rng.u32();
        }
        let plant = rng.index(L);
        if let (Some(block), Some(first)) = (blocks.get_mut(plant), utf16.first_chunk::<4>()) {
            block[0] = u32::from_le_bytes(*first);
        }
        for (l, (&got, b)) in hasher.md4_forward30_rows(&rows_of(&blocks)).iter().zip(&blocks).enumerate() {
            let hit = got == search.reference();
            assert_eq!(hit, search.matches_w0(b[0]), "{name} reversed md4 filter lane {l}");
            assert!(hit || l != plant, "{name}: the planted NTLM key's lane must pass the filter");
        }
    });
}

#[cfg(target_arch = "x86_64")]
#[test]
fn avx2_kernels_equal_scalar_on_supported_hosts() {
    match eks_hashes::simd::Avx2::new() {
        Some(h) => check_hasher::<16, _>("avx2_kernels_equal_scalar", h),
        None => eprintln!("skipped: AVX2 unavailable on this host"),
    }
}

#[cfg(target_arch = "x86_64")]
#[test]
fn avx512_kernels_equal_scalar_on_supported_hosts() {
    match eks_hashes::simd::Avx512::new() {
        Some(h) => check_hasher::<32, _>("avx512_kernels_equal_scalar", h),
        None => eprintln!("skipped: AVX-512F unavailable on this host"),
    }
}

#[cfg(target_arch = "aarch64")]
#[test]
fn neon_kernels_equal_scalar_on_supported_hosts() {
    match eks_hashes::simd::Neon::new() {
        Some(h) => check_hasher::<8, _>("neon_kernels_equal_scalar", h),
        None => eprintln!("skipped: NEON unavailable on this host"),
    }
}

/// The portable instantiation of the cores satisfies the same trait
/// contract, at both widths the cracker uses — so `AutoVec` and the
/// explicit handles are interchangeable wherever a [`LaneHasher`] is
/// expected. Runs under both ci.sh codegens (baseline and
/// `-C target-cpu=native`), which compile these loops differently.
#[test]
fn autovec_fallback_satisfies_the_same_contract() {
    check_hasher::<8, _>("autovec8_kernels_equal_scalar", eks_hashes::AutoVec);
    check_hasher::<16, _>("autovec16_kernels_equal_scalar", eks_hashes::AutoVec);
}
