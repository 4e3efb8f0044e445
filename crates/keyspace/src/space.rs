//! A bounded keyspace: all strings over a charset with lengths in
//! `[min_len, max_len]`, exposed as an [`eks_core::SolutionSpace`].

use std::fmt;

use eks_core::SolutionSpace;

use crate::charset::Charset;
use crate::encode::{advance, decode, encode_into, Order};
use crate::interval::Interval;
use crate::iter::KeyIter;
use crate::key::{Key, MAX_KEY_LEN};
use crate::strings_with_lengths;

/// Error constructing a [`KeySpace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeySpaceError {
    /// `min_len > max_len`.
    EmptyRange,
    /// `max_len` exceeds [`MAX_KEY_LEN`].
    TooLong,
    /// The keyspace size does not fit in `u128`.
    TooLarge,
}

impl fmt::Display for KeySpaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeySpaceError::EmptyRange => write!(f, "min_len exceeds max_len"),
            KeySpaceError::TooLong => write!(f, "max_len exceeds MAX_KEY_LEN ({MAX_KEY_LEN})"),
            KeySpaceError::TooLarge => write!(f, "keyspace size overflows u128"),
        }
    }
}

impl std::error::Error for KeySpaceError {}

/// All strings over `charset` with lengths in `[min_len, max_len]`,
/// enumerated in the given [`Order`].
///
/// Identifiers are local to the space: id 0 is the first string of length
/// `min_len`. Internally they are offset by the count of shorter strings so
/// the global bijection of Fig. 1 applies unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeySpace {
    charset: Charset,
    min_len: u32,
    max_len: u32,
    order: Order,
    /// Number of strings strictly shorter than `min_len` (the ε-inclusive
    /// prefix of the global enumeration that this space skips).
    offset: u128,
    size: u128,
}

impl KeySpace {
    /// Create a keyspace.
    pub fn new(
        charset: Charset,
        min_len: u32,
        max_len: u32,
        order: Order,
    ) -> Result<Self, KeySpaceError> {
        if min_len > max_len {
            return Err(KeySpaceError::EmptyRange);
        }
        if max_len as usize > MAX_KEY_LEN {
            return Err(KeySpaceError::TooLong);
        }
        let n = charset.len() as u128;
        let offset = if min_len == 0 {
            0
        } else {
            strings_with_lengths(n, 0, min_len - 1).ok_or(KeySpaceError::TooLarge)?
        };
        let size = strings_with_lengths(n, min_len, max_len).ok_or(KeySpaceError::TooLarge)?;
        offset.checked_add(size).ok_or(KeySpaceError::TooLarge)?;
        Ok(Self { charset, min_len, max_len, order, offset, size })
    }

    /// Number of keys in the space.
    pub fn size(&self) -> u128 {
        self.size
    }

    /// The whole space as an identifier interval.
    pub fn interval(&self) -> Interval {
        Interval::new(0, self.size)
    }

    /// The charset.
    pub fn charset(&self) -> &Charset {
        &self.charset
    }

    /// Minimum key length.
    pub fn min_len(&self) -> u32 {
        self.min_len
    }

    /// Maximum key length.
    pub fn max_len(&self) -> u32 {
        self.max_len
    }

    /// Enumeration order.
    pub fn order(&self) -> Order {
        self.order
    }

    /// The key for a space-local identifier.
    ///
    /// # Panics
    /// Panics when `id >= size()`.
    pub fn key_at(&self, id: u128) -> Key {
        let mut key = Key::empty();
        self.key_at_into(id, &mut key);
        key
    }

    /// Like [`KeySpace::key_at`] but reuses a buffer.
    pub fn key_at_into(&self, id: u128, key: &mut Key) {
        assert!(id < self.size, "id {id} out of range (size {})", self.size);
        encode_into(id + self.offset, &self.charset, self.order, key);
    }

    /// The space-local identifier of a key, or `None` when the key is not
    /// in the space (wrong length or foreign bytes).
    pub fn id_of(&self, key: &Key) -> Option<u128> {
        let len = key.len() as u32;
        if len < self.min_len || len > self.max_len {
            return None;
        }
        let global = decode(key, &self.charset, self.order)?;
        Some(global - self.offset)
    }

    /// Advance a key to its successor in place (Fig. 2).
    ///
    /// Valid for any key whose successor is still within `max_len`; the
    /// caller owns the bound check (drivers never advance past `size - 1`).
    pub fn advance_key(&self, key: &mut Key) {
        advance(key, &self.charset, self.order);
    }

    /// Iterate over `interval` (clamped to the space).
    pub fn iter(&self, interval: Interval) -> KeyIter<'_> {
        KeyIter::new(self, interval)
    }
}

impl SolutionSpace for KeySpace {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn abc_1_3() -> KeySpace {
        KeySpace::new(Charset::from_bytes(b"abc").unwrap(), 1, 3, Order::LastCharFastest).unwrap()
    }

    #[test]
    fn size_and_bounds() {
        let s = abc_1_3();
        assert_eq!(s.size(), 39);
        assert_eq!(s.key_at(0).to_string(), "a");
        assert_eq!(s.key_at(38).to_string(), "ccc");
    }

    #[test]
    #[should_panic]
    fn key_at_out_of_range_panics() {
        abc_1_3().key_at(39);
    }

    #[test]
    fn min_len_offset_is_applied() {
        let s = KeySpace::new(
            Charset::from_bytes(b"abc").unwrap(),
            2,
            3,
            Order::LastCharFastest,
        )
        .unwrap();
        assert_eq!(s.size(), 9 + 27);
        assert_eq!(s.key_at(0).to_string(), "aa");
        assert_eq!(s.id_of(&Key::from_bytes(b"aa")), Some(0));
    }

    #[test]
    fn id_of_rejects_out_of_space_keys() {
        let s = abc_1_3();
        assert_eq!(s.id_of(&Key::from_bytes(b"")), None, "too short");
        assert_eq!(s.id_of(&Key::from_bytes(b"aaaa")), None, "too long");
        assert_eq!(s.id_of(&Key::from_bytes(b"ad")), None, "foreign byte");
    }

    #[test]
    fn id_of_inverts_key_at() {
        let s = abc_1_3();
        for id in 0..s.size() {
            assert_eq!(s.id_of(&s.key_at(id)), Some(id));
        }
    }

    #[test]
    fn solution_space_trait_agrees() {
        let s = abc_1_3();
        assert_eq!(SolutionSpace::size(&s), Some(39));
        let mut k = s.generate(3);
        SolutionSpace::advance(&s, 3, &mut k);
        assert_eq!(k, s.generate(4));
        assert_eq!(s.identify(&k), Some(4));
    }

    #[test]
    fn construction_errors() {
        let cs = Charset::from_bytes(b"abc").unwrap();
        assert_eq!(
            KeySpace::new(cs.clone(), 3, 2, Order::LastCharFastest),
            Err(KeySpaceError::EmptyRange)
        );
        assert_eq!(
            KeySpace::new(cs, 0, 21, Order::LastCharFastest),
            Err(KeySpaceError::TooLong)
        );
        let big = Charset::printable_ascii();
        assert_eq!(
            KeySpace::new(big, 0, 20, Order::LastCharFastest),
            Err(KeySpaceError::TooLarge)
        );
    }

    #[test]
    fn first_char_fastest_space() {
        let s = KeySpace::new(
            Charset::from_bytes(b"abc").unwrap(),
            1,
            2,
            Order::FirstCharFastest,
        )
        .unwrap();
        // [a, b, c, aa, ba, ca, ab, bb, cb, ac, bc, cc]
        assert_eq!(s.key_at(3).to_string(), "aa");
        assert_eq!(s.key_at(4).to_string(), "ba");
        assert_eq!(s.key_at(11).to_string(), "cc");
    }
}
