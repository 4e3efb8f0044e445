//! Property-based tests for the enumeration invariants the paper's
//! correctness rests on: bijectivity of `f`, the `next(i, f(i)) = f(i+1)`
//! contract, and ordering.

use eks_core::prop::{forall, Rng};
use eks_keyspace::{decode, encode, Charset, Interval, Key, KeySpace, Order};

fn arb_charset(rng: &mut Rng) -> Charset {
    // Draw a charset size and build from a fixed distinct symbol pool.
    let n = rng.range(2, 62) as usize;
    let pool: Vec<u8> = (b'a'..=b'z')
        .chain(b'A'..=b'Z')
        .chain(b'0'..=b'9')
        .take(n)
        .collect();
    Charset::from_bytes(&pool).expect("distinct pool")
}

fn arb_order(rng: &mut Rng) -> Order {
    if rng.below(2) == 0 {
        Order::LastCharFastest
    } else {
        Order::FirstCharFastest
    }
}

/// Clamp a drawn identifier seed so that both `id` and `id + 1` encode
/// within [`eks_keyspace::MAX_KEY_LEN`] characters for this charset.
fn clamp_id(cs: &Charset, seed: u128) -> u128 {
    let capacity =
        eks_keyspace::strings_with_lengths(cs.len() as u128, 0, eks_keyspace::MAX_KEY_LEN as u32)
            .unwrap_or(u128::MAX);
    seed % (capacity - 1)
}

/// decode(encode(id)) == id for both orders and arbitrary charsets.
#[test]
fn encode_decode_roundtrip() {
    forall("encode_decode_roundtrip", 256, |rng| {
        let cs = arb_charset(rng);
        let order = arb_order(rng);
        let id = clamp_id(&cs, rng.range_u128(0, 999_999_999));
        let k = encode(id, &cs, order);
        assert_eq!(decode(&k, &cs, order), Some(id));
    });
}

/// The bijection is injective: different ids give different keys.
#[test]
fn encode_injective() {
    forall("encode_injective", 256, |rng| {
        let cs = arb_charset(rng);
        let order = arb_order(rng);
        let a = clamp_id(&cs, rng.range_u128(0, 999_999));
        let b = clamp_id(&cs, rng.range_u128(0, 999_999));
        if a != b {
            assert_ne!(encode(a, &cs, order), encode(b, &cs, order));
        }
    });
}

/// next(f(i)) == f(i + 1): the Fig. 2 contract.
#[test]
fn advance_is_successor() {
    forall("advance_is_successor", 256, |rng| {
        let cs = arb_charset(rng);
        let order = arb_order(rng);
        let id = clamp_id(&cs, rng.range_u128(0, 999_999_999));
        let mut k = encode(id, &cs, order);
        eks_keyspace::encode::advance(&mut k, &cs, order);
        assert_eq!(k, encode(id + 1, &cs, order));
    });
}

/// Lengths are monotone in the identifier (enumeration by length).
#[test]
fn length_monotone() {
    forall("length_monotone", 256, |rng| {
        let cs = arb_charset(rng);
        let order = arb_order(rng);
        let id = clamp_id(&cs, rng.range_u128(0, 999_999));
        let a = encode(id, &cs, order);
        let b = encode(id + 1, &cs, order);
        assert!(b.len() >= a.len());
        assert!(b.len() - a.len() <= 1);
    });
}

/// In LastCharFastest order, same-length keys are lexicographic.
#[test]
fn last_char_fastest_is_lexicographic() {
    forall("last_char_fastest_is_lexicographic", 256, |rng| {
        let cs = arb_charset(rng);
        let id = clamp_id(&cs, rng.range_u128(0, 999_999));
        let a = encode(id, &cs, Order::LastCharFastest);
        let b = encode(id + 1, &cs, Order::LastCharFastest);
        if a.len() == b.len() {
            // Compare by digit indices, which is what "lexicographic in the
            // charset's order" means.
            let da: Vec<usize> = a.as_bytes().iter().map(|&x| cs.index_of(x).unwrap()).collect();
            let db: Vec<usize> = b.as_bytes().iter().map(|&x| cs.index_of(x).unwrap()).collect();
            assert!(da < db);
        }
    });
}

/// KeySpace-local ids survive the min_len offset round trip.
#[test]
fn keyspace_roundtrip() {
    forall("keyspace_roundtrip", 256, |rng| {
        let order = arb_order(rng);
        let min_len = rng.range(0, 3) as u32;
        let extra = rng.range(0, 2) as u32;
        let cs = Charset::from_bytes(b"abcde").unwrap();
        let space = KeySpace::new(cs, min_len, min_len + extra, order).unwrap();
        let id = rng.range_u128(0, 99_999) % space.size();
        let k = space.key_at(id);
        assert_eq!(space.id_of(&k), Some(id));
        assert!(k.len() as u32 >= min_len);
        assert!(k.len() as u32 <= min_len + extra);
    });
}

/// Splitting an interval by weights never loses or duplicates ids.
#[test]
fn split_weighted_partitions() {
    forall("split_weighted_partitions", 256, |rng| {
        let start = rng.range_u128(0, 999_999);
        let len = rng.range_u128(0, 99_999);
        let n_weights = rng.range(1, 5) as usize;
        let w = rng.vec(n_weights, |r| r.f64_range(0.0, 10.0));
        let iv = Interval::new(start, len);
        let parts = iv.split_weighted(&w);
        assert_eq!(parts.iter().map(|p| p.len).sum::<u128>(), len);
        let mut cursor = start;
        for p in parts {
            assert_eq!(p.start, cursor);
            cursor += p.len;
        }
    });
}

/// Iterator agrees with direct indexing on arbitrary sub-intervals.
#[test]
fn iter_matches_indexing() {
    forall("iter_matches_indexing", 64, |rng| {
        let start = rng.range_u128(0, 199);
        let len = rng.range_u128(0, 199);
        let cs = Charset::from_bytes(b"abc").unwrap();
        let space = KeySpace::new(cs, 1, 5, Order::LastCharFastest).unwrap();
        let clamped_len = len.min(space.size().saturating_sub(start));
        let collected: Vec<Key> = space.iter(Interval::new(start, len)).map(|(_, k)| k).collect();
        assert_eq!(collected.len() as u128, clamped_len);
        for (i, k) in collected.iter().enumerate() {
            assert_eq!(k, &space.key_at(start + i as u128));
        }
    });
}

mod mask_and_hybrid {
    use eks_core::prop::{forall, Rng};
    use eks_keyspace::{HybridSpace, Key, MaskSpace};

    fn arb_mask(rng: &mut Rng) -> MaskSpace {
        // 1-5 positions drawn from the class alphabet plus literals.
        let parts = ["?l", "?u", "?d", "x", "-"];
        let n = rng.range(1, 5) as usize;
        let mask: String = (0..n).map(|_| *rng.pick(&parts)).collect();
        MaskSpace::parse(&mask).expect("valid mask")
    }

    /// key_at/id_of round-trip for arbitrary masks.
    #[test]
    fn mask_roundtrip() {
        forall("mask_roundtrip", 256, |rng| {
            let mask = arb_mask(rng);
            let id = rng.range_u128(0, 999_999) % mask.size();
            let k = mask.key_at(id);
            assert_eq!(mask.id_of(&k), Some(id));
            assert_eq!(k.len(), mask.len());
        });
    }

    /// advance_key is the successor for arbitrary masks.
    #[test]
    fn mask_advance_is_successor() {
        forall("mask_advance_is_successor", 256, |rng| {
            let mask = arb_mask(rng);
            if mask.size() <= 1 {
                return;
            }
            let id = rng.range_u128(0, 999_999) % (mask.size() - 1);
            let mut k = mask.key_at(id);
            mask.advance_key(&mut k);
            assert_eq!(k, mask.key_at(id + 1));
        });
    }

    /// Mask enumeration is injective over a window.
    #[test]
    fn mask_injective_window() {
        forall("mask_injective_window", 128, |rng| {
            let mask = arb_mask(rng);
            let start = rng.range_u128(0, 999_999) % mask.size();
            let n = 50u128.min(mask.size() - start);
            let keys: Vec<Key> = (start..start + n).map(|i| mask.key_at(i)).collect();
            let mut dedup = keys.clone();
            dedup.dedup();
            assert_eq!(dedup.len(), keys.len());
        });
    }

    /// Hybrid spaces round-trip and enumerate suffix-fastest.
    #[test]
    fn hybrid_roundtrip() {
        forall("hybrid_roundtrip", 128, |rng| {
            let digits = rng.range(0, 2) as u32;
            let words: Vec<&[u8]> = vec![b"alpha", b"bravo", b"ch4rl1e"];
            let s = HybridSpace::with_digit_suffixes(&words, digits).unwrap();
            let id = rng.range_u128(0, 99_999) % s.size();
            let k = s.key_at(id);
            assert_eq!(s.id_of(&k), Some(id));
            // advance agrees with key_at
            if id + 1 < s.size() {
                let mut kk = k.clone();
                s.advance_key_at(id, &mut kk);
                assert_eq!(kk, s.key_at(id + 1));
            }
        });
    }
}
