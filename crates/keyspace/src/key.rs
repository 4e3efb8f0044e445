//! Fixed-capacity key buffers.
//!
//! The paper limits candidate keys to 20 characters (Section IV-A), which
//! lets every key live in a small inline buffer — no heap traffic on the
//! hot enumeration path.

// Indexing/slicing below is over fixed-size state arrays or lengths
// established by construction; the workspace `clippy::indexing_slicing`
// escalation guards new code, not these proven accesses.
#![allow(clippy::indexing_slicing)]

use std::fmt;

/// Maximum key length supported, matching the paper's 20-character cap.
pub const MAX_KEY_LEN: usize = 20;

/// A candidate key: up to [`MAX_KEY_LEN`] bytes stored inline.
///
/// `Key` is `Copy`-sized but deliberately not `Copy` so accidental implicit
/// copies on hot paths stay visible; it is cheap to `Clone`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Key {
    bytes: [u8; MAX_KEY_LEN],
    len: u8,
}

impl Key {
    /// The empty key (`ε`, identifier 0 of the full enumeration).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Build a key from a byte slice.
    ///
    /// # Panics
    /// Panics when `bytes.len() > MAX_KEY_LEN`.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        assert!(
            bytes.len() <= MAX_KEY_LEN,
            "key length {} exceeds MAX_KEY_LEN {MAX_KEY_LEN}",
            bytes.len()
        );
        let mut k = Self::default();
        k.bytes[..bytes.len()].copy_from_slice(bytes);
        k.len = bytes.len() as u8;
        k
    }

    /// The key's bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }

    /// Current length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True for the empty key.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set the length, zero-filling any newly exposed bytes.
    ///
    /// # Panics
    /// Panics when `len > MAX_KEY_LEN`.
    pub fn set_len(&mut self, len: usize) {
        assert!(len <= MAX_KEY_LEN);
        if len > self.len as usize {
            for b in &mut self.bytes[self.len as usize..len] {
                *b = 0;
            }
        }
        self.len = len as u8;
    }

    /// Overwrite the byte at `pos`.
    ///
    /// # Panics
    /// Panics when `pos >= len()`.
    #[inline]
    pub fn set_byte(&mut self, pos: usize, byte: u8) {
        assert!(pos < self.len as usize);
        self.bytes[pos] = byte;
    }

    /// Grow by one byte at the end.
    ///
    /// # Panics
    /// Panics when already at capacity.
    #[inline]
    pub fn push(&mut self, byte: u8) {
        assert!((self.len as usize) < MAX_KEY_LEN, "key at capacity");
        self.bytes[self.len as usize] = byte;
        self.len += 1;
    }

    /// The raw inline buffer including bytes past `len` (zero-padded after
    /// construction); useful for word-packed hashing.
    #[inline]
    pub fn raw(&self) -> &[u8; MAX_KEY_LEN] {
        &self.bytes
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", String::from_utf8_lossy(self.as_bytes()))
    }
}

impl From<&str> for Key {
    fn from(s: &str) -> Self {
        Key::from_bytes(s.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_bytes_round_trips() {
        let k = Key::from_bytes(b"hello");
        assert_eq!(k.as_bytes(), b"hello");
        assert_eq!(k.len(), 5);
        assert_eq!(k.to_string(), "hello");
    }

    #[test]
    fn empty_key() {
        let k = Key::empty();
        assert!(k.is_empty());
        assert_eq!(k.as_bytes(), b"");
    }

    #[test]
    fn push_and_set_byte() {
        let mut k = Key::from_bytes(b"ab");
        k.push(b'c');
        assert_eq!(k.as_bytes(), b"abc");
        k.set_byte(0, b'z');
        assert_eq!(k.as_bytes(), b"zbc");
    }

    #[test]
    fn set_len_zero_fills_growth() {
        let mut k = Key::from_bytes(b"ab");
        k.set_byte(1, b'x');
        k.set_len(1);
        k.set_len(3);
        assert_eq!(k.as_bytes(), &[b'a', 0, 0]);
    }

    #[test]
    #[should_panic]
    fn oversize_panics() {
        Key::from_bytes(&[0u8; MAX_KEY_LEN + 1]);
    }

    #[test]
    #[should_panic]
    fn push_past_capacity_panics() {
        let mut k = Key::from_bytes(&[b'a'; MAX_KEY_LEN]);
        k.push(b'x');
    }
}
