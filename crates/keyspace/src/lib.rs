//! # eks-keyspace — bijective string enumeration over charsets
//!
//! Implements Section IV of *"Exhaustive Key Search on Clusters of GPUs"*:
//! the `f(id)` bijection between natural numbers and strings over a charset
//! (Fig. 1 / mapping (1)), the suffix-first variant required by the MD5
//! reversal optimization (mapping (4)), the in-place `next` operator
//! (Fig. 2), the keyspace-size closed forms (Eqs. 2–3), identifier
//! intervals, and fast iterators.
//!
//! Strings are treated as numbers in *bijective base-N* numeration: with a
//! charset `{a, b, c}` the enumeration runs
//! `ε, a, b, c, aa, ab, ac, ba, …` — every string of every length appears
//! exactly once, ordered by length and then lexicographically (in
//! [`Order::LastCharFastest`]) or with the first character cycling fastest
//! (in [`Order::FirstCharFastest`], mapping (4) of the paper).
//!
//! ```
//! use eks_keyspace::{Charset, KeySpace, Order};
//!
//! let cs = Charset::from_bytes(b"abc").unwrap();
//! let space = KeySpace::new(cs, 1, 3, Order::LastCharFastest).unwrap();
//! assert_eq!(space.size(), 3 + 9 + 27);
//! assert_eq!(space.key_at(3).to_string(), "aa");
//! let mut k = space.key_at(3);
//! space.advance_key(&mut k);
//! assert_eq!(k.to_string(), "ab");
//! ```

pub mod batch;
pub mod charset;
pub mod dictionary;
pub mod encode;
pub mod interval;
pub mod iter;
pub mod key;
pub mod mask;
pub mod source;
pub mod space;

pub use batch::{BatchInfo, BlockBatch, BlockLayout, MaskBlocks};
pub use charset::Charset;
pub use dictionary::{HybridError, HybridSpace};
pub use encode::{advance_tracked, decode, encode, encode_into, AdvanceDelta, Order};
pub use interval::Interval;
pub use iter::KeyIter;
pub use key::{Key, MAX_KEY_LEN};
pub use mask::{MaskError, MaskSlot, MaskSpace};
pub use source::{BlockSpace, Rows, Segment};
pub use space::{KeySpace, KeySpaceError};

/// The trait every space here implements, re-exported so the layers
/// above reach it without a dependency edge of their own.
pub use eks_core::SolutionSpace;

/// Number of strings over an `n`-symbol charset with lengths in
/// `[k0, k]` — Equations (2) and (3) of the paper. Returns `None` on
/// `u128` overflow or when `k0 > k`.
///
/// ```
/// // |{a,b,c}|^1 + ... + |{a,b,c}|^3 = 3 + 9 + 27
/// assert_eq!(eks_keyspace::strings_with_lengths(3, 1, 3), Some(39));
/// // N = 1 degenerates to K - K0 + 1 (Eq. 3)
/// assert_eq!(eks_keyspace::strings_with_lengths(1, 2, 5), Some(4));
/// ```
pub fn strings_with_lengths(n: u128, k0: u32, k: u32) -> Option<u128> {
    if k0 > k {
        return None;
    }
    match n {
        0 => Some(if k0 == 0 { 1 } else { 0 }), // only the empty string exists
        1 => Some((k - k0 + 1) as u128),        // Eq. (3)
        _ => {
            // Eq. (2): (N^(K+1) - N^K0) / (N - 1), evaluated with checked
            // arithmetic. We sum instead of using the closed form to avoid
            // overflow in the numerator for sizes that still fit in u128.
            let mut total: u128 = 0;
            let mut pow = n.checked_pow(k0)?;
            for i in k0..=k {
                total = total.checked_add(pow)?;
                if i < k {
                    pow = pow.checked_mul(n)?;
                }
            }
            Some(total)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq2_matches_closed_form_when_it_fits() {
        // Cross-check the summed evaluation against the paper's closed
        // form (N^(K+1) - N^K0) / (N - 1).
        for n in [2u128, 3, 26, 62] {
            for k0 in 0..4u32 {
                for k in k0..6u32 {
                    let closed = (n.pow(k + 1) - n.pow(k0)) / (n - 1);
                    assert_eq!(strings_with_lengths(n, k0, k), Some(closed), "n={n} k0={k0} k={k}");
                }
            }
        }
    }

    #[test]
    fn paper_intro_examples() {
        // "strings containing at most 8 alphabetic characters (both lower
        // and upper case) ≈ 54,508 billions" — lengths 1..=8 over 52
        // symbols.
        let count = strings_with_lengths(52, 1, 8).unwrap();
        assert_eq!(count, 54_507_958_502_660);
        // "...with 10 characters it becomes ≈ 147,389,520 billions"
        let count10 = strings_with_lengths(52, 1, 10).unwrap();
        assert_eq!(count10, 147_389_519_791_195_396);
    }

    #[test]
    fn eq3_unary_charset() {
        assert_eq!(strings_with_lengths(1, 0, 0), Some(1));
        assert_eq!(strings_with_lengths(1, 3, 3), Some(1));
        assert_eq!(strings_with_lengths(1, 0, 9), Some(10));
    }

    #[test]
    fn invalid_ranges() {
        assert_eq!(strings_with_lengths(3, 5, 4), None);
    }

    #[test]
    fn overflow_is_none() {
        assert_eq!(strings_with_lengths(95, 0, 20), None, "95^20 exceeds u128");
        assert!(strings_with_lengths(95, 0, 19).is_some());
    }

    #[test]
    fn zero_symbol_charset_has_only_empty_string() {
        assert_eq!(strings_with_lengths(0, 0, 5), Some(1));
        assert_eq!(strings_with_lengths(0, 1, 5), Some(0));
    }
}
