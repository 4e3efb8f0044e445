//! Property-based tests for the hash layer: streaming/chunking invariance,
//! single-block agreement, and — the load-bearing one — the reversed-MD5
//! test agreeing with the full forward computation on arbitrary inputs.

use eks_core::prop::{forall, Rng};
use eks_hashes::md5::{md5, md5_single_block};
use eks_hashes::md5_reverse::{full_forward_matches, Md5PrefixSearch};
use eks_hashes::padding::pad_md5_block;
use eks_hashes::sha1::{sha1, sha1_single_block};
use eks_hashes::sha256::{leading_zero_bits, sha256};
use eks_hashes::Digest;

fn arb_bytes(rng: &mut Rng, max_len: usize) -> Vec<u8> {
    let len = rng.index(max_len + 1);
    rng.vec(len, |r| r.u32() as u8)
}

/// Chunked updates produce the same MD5/SHA-1/SHA-256 as a single update.
#[test]
fn chunking_invariant() {
    forall("chunking_invariant", 128, |rng| {
        let msg = arb_bytes(rng, 511);
        let cut = rng.range(1, 63) as usize;

        let mut h = eks_hashes::Md5::new();
        for chunk in msg.chunks(cut) {
            h.update(chunk);
        }
        assert_eq!(h.finalize_fixed(), md5(&msg));

        let mut h = eks_hashes::Sha1::new();
        for chunk in msg.chunks(cut) {
            h.update(chunk);
        }
        assert_eq!(h.finalize_fixed(), sha1(&msg));

        let mut h = eks_hashes::Sha256::new();
        for chunk in msg.chunks(cut) {
            h.update(chunk);
        }
        assert_eq!(h.finalize_fixed(), sha256(&msg));
    });
}

/// The kernel single-block fast paths agree with the general hashers.
#[test]
fn single_block_paths_agree() {
    forall("single_block_paths_agree", 256, |rng| {
        let msg = arb_bytes(rng, 55);
        assert_eq!(md5_single_block(&msg), md5(&msg));
        assert_eq!(sha1_single_block(&msg), sha1(&msg));
    });
}

/// The reversed-MD5 prefix search accepts exactly what a full forward
/// MD5 accepts, for arbitrary targets and candidate first words.
#[test]
fn reversal_agrees_with_forward() {
    forall("reversal_agrees_with_forward", 256, |rng| {
        let suffix_len = rng.index(20);
        let suffix = rng.vec(suffix_len, |r| r.range(0x20, 0x7e) as u8);
        let planted_w0 = rng.u32();
        let probe_w0 = rng.u32();

        // Build a template from a sample key "AAAA" + suffix.
        let mut sample = b"AAAA".to_vec();
        sample.extend_from_slice(&suffix);
        let template = pad_md5_block(&sample);
        // Plant a target produced by planted_w0 on this template.
        let mut w = template;
        w[0] = planted_w0;
        let state = eks_hashes::md5::md5_compress(eks_hashes::md5::IV, &w);
        let target = eks_hashes::md5::state_to_digest(state);

        let search = Md5PrefixSearch::new(&target, template);
        assert!(search.matches_w0(planted_w0), "must accept the planted word");
        assert_eq!(
            search.matches_w0(probe_w0),
            full_forward_matches(&target, &template, probe_w0)
        );
    });
}

/// Digests are deterministic and (practically) collision-free under a
/// single changed byte.
#[test]
fn bit_flip_changes_digest() {
    forall("bit_flip_changes_digest", 128, |rng| {
        let len = rng.range(1, 127) as usize;
        let msg = rng.vec(len, |r| r.u32() as u8);
        let at = rng.index(msg.len());
        let bit = rng.range(0, 7) as u8;
        let mut flipped = msg.clone();
        if let Some(byte) = flipped.get_mut(at) {
            *byte ^= 1 << bit;
        }
        assert_ne!(md5(&msg), md5(&flipped));
        assert_ne!(sha1(&msg), sha1(&flipped));
        assert_ne!(sha256(&msg), sha256(&flipped));
    });
}

/// leading_zero_bits is the position of the highest set bit.
#[test]
fn leading_zeros_consistent() {
    forall("leading_zeros_consistent", 256, |rng| {
        let len = rng.range(1, 32) as usize;
        let digest = rng.vec(len, |r| r.u32() as u8);
        let bits = leading_zero_bits(&digest);
        let total_bits = digest.len() as u32 * 8;
        assert!(bits <= total_bits);
        if bits < total_bits {
            // The bit at position `bits` is set, and all earlier bits
            // are clear.
            let (before, rest) = digest.split_at((bits / 8) as usize);
            let in_byte = bits % 8;
            assert!(rest.first().is_some_and(|&b| b & (0x80 >> in_byte) != 0));
            assert!(before.iter().all(|&b| b == 0));
        }
    });
}
