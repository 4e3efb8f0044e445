//! Dictionary and hybrid spaces (paper Section I): "The number of
//! attempts can be drastically reduced if a dictionary of recurring words
//! is involved in the string set production. A hybrid technique that uses
//! a dictionary along with a list of common password patterns provides a
//! good way to guess longer passwords."
//!
//! A [`HybridSpace`] enumerates `word ⊕ suffix` for every dictionary word
//! and every candidate of a suffix [`KeySpace`] (digits, years, symbols —
//! whatever the pattern list says). With an empty-suffix space it
//! degenerates to a plain dictionary attack. Like every space here it is
//! a bijection from `0..size`, so the same dispatch pattern applies.

// Indexing/slicing below is over fixed-size state arrays or lengths
// established by construction; the workspace `clippy::indexing_slicing`
// escalation guards new code, not these proven accesses.
#![allow(clippy::indexing_slicing)]

use std::fmt;

use eks_core::SolutionSpace;

use crate::charset::Charset;
use crate::encode::Order;
use crate::key::{Key, MAX_KEY_LEN};
use crate::source::{BlockSpace, Segment};
use crate::space::{KeySpace, KeySpaceError};

/// Error building a hybrid space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HybridError {
    /// No dictionary words.
    EmptyDictionary,
    /// A word alone (or with the longest suffix) exceeds [`MAX_KEY_LEN`].
    WordTooLong(Vec<u8>),
    /// A word contains no bytes.
    EmptyWord,
    /// Total size overflows `u128`.
    TooLarge,
    /// The suffix space construction failed.
    Suffix(KeySpaceError),
}

impl fmt::Display for HybridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HybridError::EmptyDictionary => write!(f, "the dictionary has no words"),
            HybridError::WordTooLong(word) => write!(
                f,
                "word \"{}\" with its longest suffix exceeds {MAX_KEY_LEN} bytes",
                String::from_utf8_lossy(word)
            ),
            HybridError::EmptyWord => write!(f, "the dictionary has an empty word"),
            HybridError::TooLarge => write!(f, "hybrid space size overflows u128"),
            HybridError::Suffix(e) => write!(f, "suffix space: {e}"),
        }
    }
}

impl std::error::Error for HybridError {}

/// `word ⊕ suffix` for every (word, suffix) pair; suffix varies fastest.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridSpace {
    words: Vec<Vec<u8>>,
    suffix: KeySpace,
    size: u128,
}

impl HybridSpace {
    /// Build from dictionary words and a suffix space.
    pub fn new(words: &[&[u8]], suffix: KeySpace) -> Result<Self, HybridError> {
        if words.is_empty() {
            return Err(HybridError::EmptyDictionary);
        }
        let max_suffix = suffix.max_len() as usize;
        for w in words {
            if w.is_empty() {
                return Err(HybridError::EmptyWord);
            }
            if w.len() + max_suffix > MAX_KEY_LEN {
                return Err(HybridError::WordTooLong(w.to_vec()));
            }
        }
        let size = (words.len() as u128)
            .checked_mul(suffix.size())
            .ok_or(HybridError::TooLarge)?;
        Ok(Self { words: words.iter().map(|w| w.to_vec()).collect(), suffix, size })
    }

    /// A plain dictionary attack: each word once, no suffix.
    pub fn dictionary_only(words: &[&[u8]]) -> Result<Self, HybridError> {
        // A zero-length suffix space has exactly one member: ε.
        let suffix = KeySpace::new(Charset::digits(), 0, 0, Order::LastCharFastest)
            .map_err(HybridError::Suffix)?;
        Self::new(words, suffix)
    }

    /// The classic "word + up to `digits` digits" pattern.
    pub fn with_digit_suffixes(words: &[&[u8]], digits: u32) -> Result<Self, HybridError> {
        let suffix = KeySpace::new(Charset::digits(), 0, digits, Order::LastCharFastest)
            .map_err(HybridError::Suffix)?;
        Self::new(words, suffix)
    }

    /// Candidate count.
    pub fn size(&self) -> u128 {
        self.size
    }

    /// Number of dictionary words.
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// The candidate at `id`: suffix-fastest enumeration.
    ///
    /// # Panics
    /// Panics when `id >= size()`.
    pub fn key_at(&self, id: u128) -> Key {
        assert!(id < self.size, "id {id} out of range");
        let per_word = self.suffix.size();
        let word = &self.words[(id / per_word) as usize];
        let suffix = self.suffix.key_at(id % per_word);
        let mut key = Key::from_bytes(word);
        for &b in suffix.as_bytes() {
            key.push(b);
        }
        key
    }

    /// Inverse of [`HybridSpace::key_at`]: finds the *first* matching
    /// (word, suffix) decomposition in enumeration order.
    pub fn id_of(&self, key: &Key) -> Option<u128> {
        let bytes = key.as_bytes();
        let per_word = self.suffix.size();
        for (wi, word) in self.words.iter().enumerate() {
            if bytes.len() < word.len() || &bytes[..word.len()] != word.as_slice() {
                continue;
            }
            let suffix = Key::from_bytes(&bytes[word.len()..]);
            if let Some(sid) = self.suffix.id_of(&suffix) {
                return Some(wi as u128 * per_word + sid);
            }
        }
        None
    }

    /// In-place successor.
    ///
    /// The current word is identified by prefix match; the suffix is
    /// advanced (wrapping to the next word when exhausted).
    pub fn advance_key_at(&self, id: u128, key: &mut Key) {
        let per_word = self.suffix.size();
        let next = id + 1;
        if next.is_multiple_of(per_word) {
            // Next word, first suffix.
            *key = self.key_at(next % self.size);
        } else {
            // Same word: advance the suffix portion in place.
            let word_len = self.words[(id / per_word) as usize].len();
            let mut suffix = Key::from_bytes(&key.as_bytes()[word_len..]);
            self.suffix.advance_key(&mut suffix);
            key.set_len(word_len + suffix.len());
            for (i, &b) in suffix.as_bytes().iter().enumerate() {
                key.set_byte(word_len + i, b);
            }
        }
    }
}

impl SolutionSpace for HybridSpace {
    type Solution = Key;

    fn size(&self) -> Option<u128> {
        Some(self.size)
    }

    fn generate(&self, id: u128) -> Key {
        self.key_at(id)
    }

    fn advance(&self, id: u128, solution: &mut Key) {
        self.advance_key_at(id, solution);
    }

    fn identify(&self, solution: &Key) -> Option<u128> {
        self.id_of(solution)
    }
}

/// Segment `k` is word `k / lengths` followed by the suffixes of the
/// suffix space's `k % lengths`-th length: the word is the segment's
/// literal prefix, the suffix keeps its own order.
impl BlockSpace for HybridSpace {
    fn segment(&self, k: usize) -> Segment<'_> {
        let lengths = (self.suffix.max_len() - self.suffix.min_len()) as usize + 1;
        self.suffix.segment(k % lengths).after(&self.words[k / lengths])
    }

    fn locate(&self, id: u128) -> (usize, u128) {
        let lengths = (self.suffix.max_len() - self.suffix.min_len()) as usize + 1;
        let per_word = self.suffix.size();
        let (k, offset) = self.suffix.locate(id % per_word);
        ((id / per_word) as usize * lengths + k, offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words() -> Vec<&'static [u8]> {
        vec![b"winter", b"dragon", b"admin"]
    }

    #[test]
    fn dictionary_only_enumerates_each_word_once() {
        let s = HybridSpace::dictionary_only(&words()).unwrap();
        assert_eq!(s.size(), 3);
        assert_eq!(s.key_at(0).as_bytes(), b"winter");
        assert_eq!(s.key_at(1).as_bytes(), b"dragon");
        assert_eq!(s.key_at(2).as_bytes(), b"admin");
    }

    #[test]
    fn digit_suffixes_cover_the_pattern() {
        let s = HybridSpace::with_digit_suffixes(&words(), 2).unwrap();
        // per word: ε + 10 + 100 = 111 suffixes.
        assert_eq!(s.size(), 3 * 111);
        assert_eq!(s.key_at(0).as_bytes(), b"winter");
        assert_eq!(s.key_at(1).as_bytes(), b"winter0");
        assert_eq!(s.key_at(11).as_bytes(), b"winter00");
        assert_eq!(s.key_at(111).as_bytes(), b"dragon");
        assert_eq!(s.key_at(s.size() - 1).as_bytes(), b"admin99");
    }

    #[test]
    fn id_round_trip() {
        let s = HybridSpace::with_digit_suffixes(&words(), 2).unwrap();
        for id in 0..s.size() {
            assert_eq!(s.id_of(&s.key_at(id)), Some(id), "id {id}");
        }
    }

    #[test]
    fn advance_matches_key_at() {
        let s = HybridSpace::with_digit_suffixes(&words(), 1).unwrap();
        let mut k = s.key_at(0);
        for id in 0..s.size() - 1 {
            s.advance_key_at(id, &mut k);
            assert_eq!(k, s.key_at(id + 1), "id {id}");
        }
    }

    #[test]
    fn id_of_rejects_non_members() {
        let s = HybridSpace::with_digit_suffixes(&words(), 1).unwrap();
        assert_eq!(s.id_of(&Key::from_bytes(b"hunter2")), None);
        assert_eq!(s.id_of(&Key::from_bytes(b"winterx")), None, "bad suffix");
    }

    #[test]
    fn construction_errors() {
        assert_eq!(
            HybridSpace::dictionary_only(&[]),
            Err(HybridError::EmptyDictionary)
        );
        assert_eq!(
            HybridSpace::dictionary_only(&[b""]),
            Err(HybridError::EmptyWord)
        );
        let long = [b'x'; 19];
        assert!(matches!(
            HybridSpace::with_digit_suffixes(&[&long], 3),
            Err(HybridError::WordTooLong(_))
        ));
    }

    #[test]
    fn solution_space_impl() {
        let s = HybridSpace::with_digit_suffixes(&words(), 1).unwrap();
        let mut k = s.generate(5);
        s.advance(5, &mut k);
        assert_eq!(k, s.generate(6));
        assert_eq!(s.identify(&k), Some(6));
    }
}
