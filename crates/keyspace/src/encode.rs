//! The bijection `f(id)` (Fig. 1), its inverse, and the in-place `next`
//! operator (Fig. 2), in both enumeration orders.
//!
//! Strings over an `N`-symbol charset are *bijective base-N numerals*:
//! decrement-divide digit extraction maps each natural number to exactly
//! one string, with `0 -> ε`.
//!
//! * [`Order::LastCharFastest`] is the paper's mapping (1): consecutive
//!   identifiers differ in the **last** character
//!   (`ε, a, b, c, aa, ab, ac, ba, …`). This is the natural order produced
//!   by Fig. 1 (digits are prepended).
//! * [`Order::FirstCharFastest`] is mapping (4): consecutive identifiers
//!   differ in the **first** character
//!   (`ε, a, b, c, aa, ba, ca, ab, …`). The MD5 reversal optimization
//!   requires it, because a GPU thread iterating with `next` must only
//!   touch the first 4-byte block of the key.

// Indexing/slicing below is over fixed-size state arrays or lengths
// established by construction; the workspace `clippy::indexing_slicing`
// escalation guards new code, not these proven accesses.
#![allow(clippy::indexing_slicing)]

use crate::charset::Charset;
use crate::key::{Key, MAX_KEY_LEN};

/// Which end of the string the low-order digit lives at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Order {
    /// Mapping (1): last character varies fastest (Fig. 1 as printed).
    LastCharFastest,
    /// Mapping (4): first character varies fastest (Fig. 1 with the
    /// concatenation flipped to `str ⊕ currentChar`).
    FirstCharFastest,
}

/// The bijection `f(id)`: build the key for `id` from scratch (Fig. 1).
///
/// # Panics
/// Panics if the resulting key would exceed [`MAX_KEY_LEN`] characters.
pub fn encode(id: u128, charset: &Charset, order: Order) -> Key {
    let mut key = Key::empty();
    encode_into(id, charset, order, &mut key);
    key
}

/// Like [`encode`] but reuses an existing key buffer.
pub fn encode_into(id: u128, charset: &Charset, order: Order, key: &mut Key) {
    let n = charset.len() as u128;
    // Extract digits low-order first, exactly as Fig. 1: decrement, take
    // the remainder, divide.
    let mut digits = [0u8; MAX_KEY_LEN];
    let mut count = 0usize;
    let mut id = id;
    while id > 0 {
        assert!(count < MAX_KEY_LEN, "identifier {id} encodes past MAX_KEY_LEN");
        id -= 1;
        digits[count] = (id % n) as u8;
        count += 1;
        id /= n;
    }
    key.set_len(count);
    match order {
        // Fig. 1 prepends each extracted digit, so the low-order digit ends
        // up last: write digits back-to-front.
        Order::LastCharFastest => {
            for (i, &d) in digits[..count].iter().enumerate() {
                key.set_byte(count - 1 - i, charset.symbol(d as usize));
            }
        }
        // Mapping (4) appends instead: low-order digit first.
        Order::FirstCharFastest => {
            for (i, &d) in digits[..count].iter().enumerate() {
                key.set_byte(i, charset.symbol(d as usize));
            }
        }
    }
}

/// Inverse of [`encode`]: recover the identifier of a key.
///
/// Returns `None` when the key contains bytes outside the charset or when
/// the identifier would overflow `u128`.
pub fn decode(key: &Key, charset: &Charset, order: Order) -> Option<u128> {
    let n = charset.len() as u128;
    let mut id: u128 = 0;
    // Horner evaluation over digits high-order first: id = id*N + (d+1).
    let fold = |id: u128, byte: u8| -> Option<u128> {
        let d = charset.index_of(byte)? as u128;
        id.checked_mul(n)?.checked_add(d + 1)
    };
    match order {
        Order::LastCharFastest => {
            for &b in key.as_bytes() {
                id = fold(id, b)?;
            }
        }
        Order::FirstCharFastest => {
            for &b in key.as_bytes().iter().rev() {
                id = fold(id, b)?;
            }
        }
    }
    Some(id)
}

/// The `next` operator (Fig. 2): transform `f(id)` into `f(id + 1)` in
/// place. Amortized O(1): in `(N-1)/N` of the calls only one character
/// changes.
///
/// # Panics
/// Panics when the key contains bytes outside the charset, or when the
/// successor would exceed [`MAX_KEY_LEN`].
pub fn advance(key: &mut Key, charset: &Charset, order: Order) {
    advance_tracked(key, charset, order);
}

/// What [`advance_tracked`] changed: which bytes of the key were
/// rewritten, so a block writer can mirror the delta into a pre-padded
/// message buffer instead of reformatting from scratch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdvanceDelta {
    /// Number of key positions rewritten. In
    /// [`Order::FirstCharFastest`] the changed positions are the prefix
    /// `0..changed`; in [`Order::LastCharFastest`] the suffix
    /// `len-changed..len`. When the key grew, every position changed and
    /// `changed == len` (the new length).
    pub changed: usize,
    /// True when the key grew by one symbol (all carries rippled out).
    pub grew: bool,
}

/// Like [`advance`], but reports which positions changed. Most steps
/// return `changed == 1` — the amortized-O(1) fact the paper's `next`
/// operator (and our zero-allocation batch writer) relies on.
///
/// # Panics
/// Same as [`advance`].
pub fn advance_tracked(key: &mut Key, charset: &Charset, order: Order) -> AdvanceDelta {
    // Bump the digit at `pos`; true when done, false when it carried.
    fn bump(key: &mut Key, charset: &Charset, pos: usize) -> bool {
        let byte = key.as_bytes()[pos];
        let d = charset
            .index_of(byte)
            .unwrap_or_else(|| panic!("byte {byte:#04x} not in charset"));
        if d + 1 < charset.len() {
            key.set_byte(pos, charset.symbol(d + 1));
            true
        } else {
            // Carry: this digit wraps to the zero symbol.
            key.set_byte(pos, charset.first());
            false
        }
    }

    let len = key.len();
    let mut changed = 0usize;
    let mut done = false;
    match order {
        Order::LastCharFastest => {
            for pos in (0..len).rev() {
                changed += 1;
                if bump(key, charset, pos) {
                    done = true;
                    break;
                }
            }
        }
        Order::FirstCharFastest => {
            for pos in 0..len {
                changed += 1;
                if bump(key, charset, pos) {
                    done = true;
                    break;
                }
            }
        }
    }
    if done {
        AdvanceDelta { changed, grew: false }
    } else {
        // Every position carried (or the key was empty): the string grows
        // by one zero symbol. "cc" -> "aaa" in both orders.
        key.push(charset.first());
        AdvanceDelta { changed: key.len(), grew: true }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> Charset {
        Charset::from_bytes(b"abc").unwrap()
    }

    #[test]
    fn mapping_1_first_entries() {
        // [0..8] -> [ε, a, b, c, aa, ab, ac, ba, bb] (paper Eq. (1))
        let expect = ["", "a", "b", "c", "aa", "ab", "ac", "ba", "bb"];
        for (id, want) in expect.iter().enumerate() {
            let k = encode(id as u128, &abc(), Order::LastCharFastest);
            assert_eq!(&k.to_string(), want, "id={id}");
        }
    }

    #[test]
    fn mapping_4_first_entries() {
        // [0..8] -> [ε, a, b, c, aa, ba, ca, ab, bb] (paper Eq. (4))
        let expect = ["", "a", "b", "c", "aa", "ba", "ca", "ab", "bb"];
        for (id, want) in expect.iter().enumerate() {
            let k = encode(id as u128, &abc(), Order::FirstCharFastest);
            assert_eq!(&k.to_string(), want, "id={id}");
        }
    }

    #[test]
    fn decode_inverts_encode_both_orders() {
        for order in [Order::LastCharFastest, Order::FirstCharFastest] {
            for id in 0..2_000u128 {
                let k = encode(id, &abc(), order);
                assert_eq!(decode(&k, &abc(), order), Some(id), "id={id} {order:?}");
            }
        }
    }

    #[test]
    fn advance_matches_encode_both_orders() {
        for order in [Order::LastCharFastest, Order::FirstCharFastest] {
            let mut k = encode(0, &abc(), order);
            for id in 0..2_000u128 {
                assert_eq!(k, encode(id, &abc(), order), "id={id} {order:?}");
                advance(&mut k, &abc(), order);
            }
        }
    }

    #[test]
    fn advance_grows_at_length_boundaries() {
        let cs = abc();
        let mut k = Key::from_bytes(b"cc");
        advance(&mut k, &cs, Order::LastCharFastest);
        assert_eq!(k.as_bytes(), b"aaa");
        let mut k = Key::from_bytes(b"cc");
        advance(&mut k, &cs, Order::FirstCharFastest);
        assert_eq!(k.as_bytes(), b"aaa");
    }

    #[test]
    fn advance_from_empty() {
        let cs = abc();
        let mut k = Key::empty();
        advance(&mut k, &cs, Order::LastCharFastest);
        assert_eq!(k.as_bytes(), b"a");
    }

    #[test]
    fn single_symbol_charset_is_unary() {
        let cs = Charset::from_bytes(b"x").unwrap();
        assert_eq!(encode(0, &cs, Order::LastCharFastest).to_string(), "");
        assert_eq!(encode(3, &cs, Order::LastCharFastest).to_string(), "xxx");
        assert_eq!(
            decode(&Key::from_bytes(b"xxxx"), &cs, Order::LastCharFastest),
            Some(4)
        );
    }

    #[test]
    fn decode_rejects_foreign_bytes() {
        assert_eq!(decode(&Key::from_bytes(b"ad"), &abc(), Order::LastCharFastest), None);
    }

    #[test]
    fn encode_into_reuses_buffer() {
        let cs = abc();
        let mut k = Key::from_bytes(b"leftover");
        encode_into(4, &cs, Order::LastCharFastest, &mut k);
        assert_eq!(k.as_bytes(), b"aa");
    }
}
