//! Mask spaces: per-position charsets, hashcat-style.
//!
//! The paper's introduction lists the attack families exhaustive search
//! competes with; masks are the standard way practitioners narrow a
//! brute-force run ("a list of common password patterns"). A mask such as
//! `?u?l?l?l?d?d` enumerates Capitalized-word-plus-two-digits candidates
//! only — a mixed-radix space that plugs into the same dispatch pattern,
//! because it, too, is a bijection from `0..size` onto its candidates.
//!
//! Mask syntax: `?l` lowercase, `?u` uppercase, `?d` digits, `?s` ASCII
//! symbols, `?a` all printable ASCII, `??` a literal `?`, any other
//! character a literal — one position per byte of its UTF-8 encoding.

// Indexing/slicing below is over fixed-size state arrays or lengths
// established by construction; the workspace `clippy::indexing_slicing`
// escalation guards new code, not these proven accesses.
#![allow(clippy::indexing_slicing)]

use std::fmt;

use eks_core::SolutionSpace;

use crate::charset::Charset;
use crate::key::{Key, MAX_KEY_LEN};
use crate::source::{BlockSpace, Segment};

/// One position of a mask: a charset or a fixed literal byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaskSlot {
    /// Any symbol of the charset.
    Set(Charset),
    /// Exactly this byte.
    Literal(u8),
}

impl MaskSlot {
    /// Number of choices at this position.
    pub fn cardinality(&self) -> u128 {
        match self {
            MaskSlot::Set(cs) => cs.len() as u128,
            MaskSlot::Literal(_) => 1,
        }
    }

    /// The choices at this position, in digit order.
    pub(crate) fn symbols(&self) -> &[u8] {
        match self {
            MaskSlot::Set(cs) => cs.symbols(),
            MaskSlot::Literal(b) => std::slice::from_ref(b),
        }
    }

    fn byte_at(&self, digit: u128) -> u8 {
        match self {
            MaskSlot::Set(cs) => cs.symbol(digit as usize),
            MaskSlot::Literal(b) => {
                debug_assert_eq!(digit, 0);
                *b
            }
        }
    }

    fn digit_of(&self, byte: u8) -> Option<u128> {
        match self {
            MaskSlot::Set(cs) => cs.index_of(byte).map(|i| i as u128),
            MaskSlot::Literal(b) => (byte == *b).then_some(0),
        }
    }
}

/// Error parsing or building a mask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaskError {
    /// The mask expands to zero positions.
    Empty,
    /// More than [`MAX_KEY_LEN`] positions.
    TooLong,
    /// A `?x` escape with an unknown class letter.
    UnknownClass(char),
    /// A trailing `?` with no class letter.
    DanglingEscape,
    /// The total candidate count overflows `u128`.
    TooLarge,
}

impl fmt::Display for MaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaskError::Empty => write!(f, "mask has no positions"),
            MaskError::TooLong => write!(f, "mask exceeds {MAX_KEY_LEN} positions"),
            MaskError::UnknownClass(c) => write!(f, "unknown mask class ?{c}"),
            MaskError::DanglingEscape => write!(f, "mask ends with a bare '?'"),
            MaskError::TooLarge => write!(f, "mask size overflows u128"),
        }
    }
}

impl std::error::Error for MaskError {}

/// A fixed-length candidate space with an independent choice per position.
///
/// Enumeration is first-position-fastest (mixed radix, position 0 the
/// least significant digit) — the paper's mapping (4), as
/// [`Order::FirstCharFastest`](crate::Order) is for a
/// [`KeySpace`](crate::KeySpace): consecutive candidates differ in the
/// leading key bytes, which every layout packs into block word `w[0]`,
/// the word MD5 and MD4 do not read in their last 15 steps — so a
/// single-target search can reverse those steps once instead of hashing
/// them per candidate. A literal prefix has no choice and is skipped:
/// the first position *with* one steps fastest.
#[derive(Debug, Clone, PartialEq)]
pub struct MaskSpace {
    slots: Vec<MaskSlot>,
    size: u128,
}

impl MaskSpace {
    /// Build from explicit slots.
    pub fn from_slots(slots: Vec<MaskSlot>) -> Result<Self, MaskError> {
        if slots.is_empty() {
            return Err(MaskError::Empty);
        }
        if slots.len() > MAX_KEY_LEN {
            return Err(MaskError::TooLong);
        }
        let mut size: u128 = 1;
        for s in &slots {
            size = size.checked_mul(s.cardinality()).ok_or(MaskError::TooLarge)?;
        }
        Ok(Self { slots, size })
    }

    /// Parse hashcat-style syntax (`?l?u?d?s?a`, `??` literal `?`, any
    /// other character literal, as its UTF-8 bytes).
    pub fn parse(mask: &str) -> Result<Self, MaskError> {
        let mut slots = Vec::new();
        let mut chars = mask.chars();
        while let Some(c) = chars.next() {
            if c == '?' {
                let class = chars.next().ok_or(MaskError::DanglingEscape)?;
                let slot = match class {
                    'l' => MaskSlot::Set(Charset::lowercase()),
                    'u' => MaskSlot::Set(Charset::uppercase()),
                    'd' => MaskSlot::Set(Charset::digits()),
                    's' => MaskSlot::Set(
                        Charset::from_bytes(b" !\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~")
                            .expect("distinct symbols"),
                    ),
                    'a' => MaskSlot::Set(Charset::printable_ascii()),
                    '?' => MaskSlot::Literal(b'?'),
                    other => return Err(MaskError::UnknownClass(other)),
                };
                slots.push(slot);
            } else {
                // One literal per UTF-8 byte: the key is the typed
                // string's bytes, as `eks hash` hashes them.
                let mut utf8 = [0u8; 4];
                slots.extend(c.encode_utf8(&mut utf8).bytes().map(MaskSlot::Literal));
            }
        }
        Self::from_slots(slots)
    }

    /// Candidate count.
    pub fn size(&self) -> u128 {
        self.size
    }

    /// Mask length in characters.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the mask has no positions (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The candidate at `id` (mixed-radix decode, first position fastest).
    ///
    /// # Panics
    /// Panics when `id >= size()`.
    pub fn key_at(&self, id: u128) -> Key {
        assert!(id < self.size, "id {id} out of range");
        let mut key = Key::empty();
        key.set_len(self.slots.len());
        let mut rest = id;
        for (pos, slot) in self.slots.iter().enumerate() {
            let card = slot.cardinality();
            key.set_byte(pos, slot.byte_at(rest % card));
            rest /= card;
        }
        key
    }

    /// Inverse of [`MaskSpace::key_at`].
    pub fn id_of(&self, key: &Key) -> Option<u128> {
        if key.len() != self.slots.len() {
            return None;
        }
        let mut id: u128 = 0;
        for (slot, &byte) in self.slots.iter().zip(key.as_bytes()).rev() {
            id = id * slot.cardinality() + slot.digit_of(byte)?;
        }
        Some(id)
    }

    /// In-place successor (the mask space's `next` operator): increments
    /// the first position, carrying rightward.
    ///
    /// # Panics
    /// Panics when the key is not a member of the space.
    pub fn advance_key(&self, key: &mut Key) {
        for (pos, slot) in self.slots.iter().enumerate() {
            let byte = key.as_bytes()[pos];
            let d = slot
                .digit_of(byte)
                .unwrap_or_else(|| panic!("byte {byte:#04x} not valid at position {pos}"));
            if d + 1 < slot.cardinality() {
                key.set_byte(pos, slot.byte_at(d + 1));
                return;
            }
            key.set_byte(pos, slot.byte_at(0));
        }
        // Wrapped past the last candidate: stays at the first (callers
        // bound iteration by size()).
    }
}

impl SolutionSpace for MaskSpace {
    type Solution = Key;

    fn size(&self) -> Option<u128> {
        Some(self.size)
    }

    fn generate(&self, id: u128) -> Key {
        self.key_at(id)
    }

    fn advance(&self, _id: u128, solution: &mut Key) {
        self.advance_key(solution);
    }

    fn identify(&self, solution: &Key) -> Option<u128> {
        self.id_of(solution)
    }
}

impl BlockSpace for MaskSpace {
    fn segment(&self, _k: usize) -> Segment<'_> {
        Segment::slots(&self.slots)
    }

    fn locate(&self, id: u128) -> (usize, u128) {
        (0, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_size() {
        let m = MaskSpace::parse("?u?l?d").unwrap();
        assert_eq!(m.len(), 3);
        assert_eq!(m.size(), 26 * 26 * 10);
    }

    #[test]
    fn literals_and_escapes() {
        let m = MaskSpace::parse("a??b?d").unwrap();
        // 'a', literal '?', 'b', digit
        assert_eq!(m.len(), 4);
        assert_eq!(m.size(), 10);
        assert_eq!(m.key_at(0).as_bytes(), b"a?b0");
        assert_eq!(m.key_at(9).as_bytes(), b"a?b9");
    }

    #[test]
    fn first_and_last_candidates() {
        let m = MaskSpace::parse("?u?d").unwrap();
        assert_eq!(m.key_at(0).as_bytes(), b"A0");
        assert_eq!(m.key_at(m.size() - 1).as_bytes(), b"Z9");
        // First position fastest.
        assert_eq!(m.key_at(1).as_bytes(), b"B0");
        assert_eq!(m.key_at(26).as_bytes(), b"A1");
    }

    #[test]
    fn first_position_is_fastest() {
        // A literal prefix has no choice: the first position with one
        // steps, the next carries.
        let m = MaskSpace::parse("ab?d?l").unwrap();
        assert_eq!(m.key_at(0).as_bytes(), b"ab0a");
        assert_eq!(m.key_at(1).as_bytes(), b"ab1a");
        assert_eq!(m.key_at(10).as_bytes(), b"ab0b");
        assert_eq!(m.id_of(&Key::from_bytes(b"ab0b")), Some(10));
        let mut k = m.key_at(9);
        m.advance_key(&mut k);
        assert_eq!(k.as_bytes(), b"ab0b");
    }

    #[test]
    fn id_round_trip() {
        let m = MaskSpace::parse("?l?d?l").unwrap();
        for id in (0..m.size()).step_by(97) {
            assert_eq!(m.id_of(&m.key_at(id)), Some(id));
        }
    }

    #[test]
    fn advance_matches_key_at() {
        let m = MaskSpace::parse("x?d?l").unwrap();
        let mut k = m.key_at(0);
        for id in 0..m.size() - 1 {
            m.advance_key(&mut k);
            assert_eq!(k, m.key_at(id + 1), "id {id}");
        }
    }

    #[test]
    fn id_of_rejects_foreign_keys() {
        let m = MaskSpace::parse("?l?d").unwrap();
        assert_eq!(m.id_of(&Key::from_bytes(b"a")), None, "wrong length");
        assert_eq!(m.id_of(&Key::from_bytes(b"aa")), None, "digit expected");
        assert_eq!(m.id_of(&Key::from_bytes(b"A0")), None, "lower expected");
    }

    #[test]
    fn non_ascii_literals_are_their_utf8_bytes() {
        // 2-, 3- and 4-byte characters next to ASCII classes.
        for (mask, typed) in [("?lé?d", "xé7"), ("€?u?d", "€Q0"), ("?d🦀?l", "9🦀z")] {
            let m = MaskSpace::parse(mask).unwrap();
            let key = Key::from_bytes(typed.as_bytes());
            assert_eq!(m.len(), typed.len(), "{mask}: one position per byte");
            let id = m.id_of(&key).unwrap_or_else(|| panic!("{typed} is in {mask}"));
            assert_eq!(m.key_at(id), key, "{mask}");
            for id in (0..m.size()).step_by(7) {
                assert_eq!(m.id_of(&m.key_at(id)), Some(id), "{mask} id {id}");
            }
        }
        // The byte count, not the character count, meets MAX_KEY_LEN.
        assert!(MaskSpace::parse(&"🦀".repeat(MAX_KEY_LEN / 4)).is_ok());
        assert_eq!(MaskSpace::parse(&"🦀".repeat(MAX_KEY_LEN / 4 + 1)), Err(MaskError::TooLong));
    }

    #[test]
    fn parse_errors() {
        assert_eq!(MaskSpace::parse(""), Err(MaskError::Empty));
        assert_eq!(MaskSpace::parse("?z"), Err(MaskError::UnknownClass('z')));
        assert_eq!(MaskSpace::parse("?l?"), Err(MaskError::DanglingEscape));
        let long = "?l".repeat(MAX_KEY_LEN + 1);
        assert_eq!(MaskSpace::parse(&long), Err(MaskError::TooLong));
    }

    #[test]
    fn solution_space_impl() {
        let m = MaskSpace::parse("?d?d").unwrap();
        assert_eq!(SolutionSpace::size(&m), Some(100));
        let mut k = m.generate(41);
        m.advance(41, &mut k);
        assert_eq!(k, m.generate(42));
        assert_eq!(m.identify(&k), Some(42));
    }
}
