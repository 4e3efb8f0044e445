//! The §V kernel IR, pinned and checked against the scalar hashes.
//!
//! Tables III–VI, the register-pressure lints and every cycle-simulated
//! rate are functions of the exact op stream a builder emits, so the
//! stream itself is the golden artifact: one FNV-1a-64 fingerprint per
//! variant over key lengths 1..=20 of the ops, the register count, and
//! the output and carried registers. A change that reorders, adds or
//! renames a single op fails here before it can move a table.
//!
//! The seeded property then executes every variant at every length on
//! random keys against `eks-hashes`' scalar `step` / `round` /
//! `*_compress`, including the early-exit identities each optimized
//! kernel's one-word comparison rests on.

use eks_core::prop::forall;
use eks_hashes::{md4, md5, sha1};
use eks_kernels::{
    block_for, build_md4, build_md5, build_sha1, words_for, BuiltKernel, HashAlgo, Md4Variant,
    Md5Variant, Sha1Variant,
};

/// Every kernel variant, named as its IR is, with the algorithm whose
/// word layout and padded block it takes.
const VARIANTS: [(&str, HashAlgo); 8] = [
    ("md5/naive", HashAlgo::Md5),
    ("md5/reversed", HashAlgo::Md5),
    ("md5/optimized", HashAlgo::Md5),
    ("md4/naive", HashAlgo::Ntlm),
    ("md4/reversed", HashAlgo::Ntlm),
    ("md4/optimized", HashAlgo::Ntlm),
    ("sha1/naive", HashAlgo::Sha1),
    ("sha1/optimized", HashAlgo::Sha1),
];

/// Build variant `name` for keys of `len` bytes.
fn build(name: &str, algo: HashAlgo, len: usize) -> BuiltKernel {
    let words = words_for(algo, len);
    match name {
        "md5/naive" => build_md5(Md5Variant::Naive, &words),
        "md5/reversed" => build_md5(Md5Variant::Reversed, &words),
        "md5/optimized" => build_md5(Md5Variant::Optimized, &words),
        "md4/naive" => build_md4(Md4Variant::Naive, &words),
        "md4/reversed" => build_md4(Md4Variant::Reversed, &words),
        "md4/optimized" => build_md4(Md4Variant::Optimized, &words),
        "sha1/naive" => build_sha1(Sha1Variant::Naive, &words),
        "sha1/optimized" => build_sha1(Sha1Variant::Optimized, &words),
        other => unreachable!("unknown variant {other}"),
    }
}

/// Key lengths the kernels are built for (the paper caps keys at 20).
const LENGTHS: std::ops::RangeInclusive<usize> = 1..=20;

/// FNV-1a-64 of `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[test]
fn kernel_ir_matches_its_golden_fingerprint() {
    const GOLDEN: [(&str, u64); 8] = [
        ("md5/naive", 0xce51_fff6_fefa_4d6b),
        ("md5/reversed", 0x7f33_2ab1_e1ec_d24d),
        ("md5/optimized", 0x2799_fb57_9b17_b2f5),
        ("md4/naive", 0xfa46_56f3_be12_cb8f),
        ("md4/reversed", 0x305e_0e86_9bcb_6b9b),
        ("md4/optimized", 0xc1b3_c099_26d0_fe70),
        ("sha1/naive", 0xfa65_b4f0_d3f9_a4f7),
        ("sha1/optimized", 0xb28f_ba39_2e0a_841b),
    ];
    let got: Vec<(&str, u64)> = VARIANTS
        .iter()
        .map(|&(name, algo)| {
            let print = LENGTHS.fold(0xcbf2_9ce4_8422_2325, |hash, len| {
                let b = build(name, algo, len);
                let text = format!(
                    "{:?} {} {:?} {:?}",
                    b.ir.ops, b.ir.reg_count, b.outputs, b.carried
                );
                fnv1a(hash, text.as_bytes())
            });
            (name, print)
        })
        .collect();
    assert_eq!(got, GOLDEN);
}

/// The scalar state after the first `steps` MD5 or MD4 steps, in the
/// rotating form the kernels compare (newest register in slot 1).
fn steps4(
    step: fn(usize, [u32; 4], &[u32; 16]) -> [u32; 4],
    iv: [u32; 4],
    steps: usize,
    block: &[u32; 16],
) -> [u32; 4] {
    (0..steps).fold(iv, |s, i| step(i, s, block))
}

/// What `name`'s kernel must output for `key`'s padded `block`, from the
/// scalar hash; asserts on the way that a naive kernel's block is the one
/// the real hash pads (its state serializes to the digest) and that each
/// optimized kernel's early-exit identity holds.
fn expected(name: &str, key: &[u8], block: &[u32; 16]) -> Vec<u32> {
    match name {
        "md5/naive" => {
            let state = md5::md5_compress(md5::IV, block);
            assert_eq!(
                md5::state_to_digest(state).to_vec(),
                HashAlgo::Md5.hash(key)
            );
            state.to_vec()
        }
        "md5/reversed" => steps4(md5::step, md5::IV, 49, block).to_vec(),
        "md5/optimized" => {
            // b45 equals a48: the first digest component to stabilize.
            let b45 = steps4(md5::step, md5::IV, 46, block)[1];
            assert_eq!(
                b45,
                steps4(md5::step, md5::IV, 49, block)[0],
                "early-exit identity"
            );
            vec![b45]
        }
        "md4/naive" => {
            let state = md4::md4_compress(md4::IV, block);
            // MD4 shares MD5's little-endian serialization.
            assert_eq!(
                md5::state_to_digest(state).to_vec(),
                HashAlgo::Ntlm.hash(key)
            );
            state.to_vec()
        }
        "md4/reversed" => steps4(md4::step, md4::IV, 33, block).to_vec(),
        "md4/optimized" => {
            // The register step 29 writes is the `a` component of the
            // step-32 comparison state.
            let new29 = steps4(md4::step, md4::IV, 30, block)[1];
            assert_eq!(
                new29,
                steps4(md4::step, md4::IV, 33, block)[0],
                "early-exit identity"
            );
            vec![new29]
        }
        "sha1/naive" => {
            let state = sha1::sha1_compress(sha1::IV, block);
            assert_eq!(
                sha1::state_to_digest(state).to_vec(),
                HashAlgo::Sha1.hash(key)
            );
            state.to_vec()
        }
        "sha1/optimized" => {
            let sched = sha1::expand_schedule(block);
            let a75 = sched
                .iter()
                .take(76)
                .enumerate()
                .fold(sha1::IV, |s, (i, &w)| sha1::round(i, s, w))[0];
            // The digest's `e` is rotl30(a75) + IV[4].
            let e = sha1::sha1_compress(sha1::IV, block)[4];
            assert_eq!(
                e,
                a75.rotate_left(30).wrapping_add(sha1::IV[4]),
                "early-exit identity"
            );
            vec![a75]
        }
        other => unreachable!("unknown variant {other}"),
    }
}

#[test]
fn every_kernel_computes_its_hash_at_every_length() {
    let kernels: Vec<Vec<BuiltKernel>> = LENGTHS
        .map(|len| {
            VARIANTS
                .iter()
                .map(|&(name, algo)| build(name, algo, len))
                .collect()
        })
        .collect();
    forall("every_kernel_computes_its_hash_at_every_length", 8, |rng| {
        for (len, built) in LENGTHS.zip(&kernels) {
            let key = rng.vec(len, |r| r.u32() as u8);
            for (&(name, algo), kernel) in VARIANTS.iter().zip(built) {
                let block = block_for(algo, &key);
                assert_eq!(
                    kernel.eval(&block),
                    expected(name, &key, &block),
                    "{name} key {key:?}"
                );
            }
        }
    });
}
