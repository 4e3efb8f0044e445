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
//! symbols, `?a` all printable ASCII, `??` a literal `?`, any other byte
//! a literal.

// Indexing/slicing below is over fixed-size state arrays or lengths
// established by construction; the workspace `clippy::indexing_slicing`
// escalation guards new code, not these proven accesses.
#![allow(clippy::indexing_slicing)]

use std::fmt;

use eks_core::SolutionSpace;

use crate::batch::{BatchInfo, BlockLayout};
use crate::charset::Charset;
use crate::interval::Interval;
use crate::key::{Key, MAX_KEY_LEN};
use crate::source::{BlockSource, BlockSpace, Rows};

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
    fn symbols(&self) -> &[u8] {
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
/// Enumeration is last-position-fastest (mixed radix, most significant
/// position first), so same-mask candidates are ordered lexicographically
/// by digit index.
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

    /// Parse hashcat-style syntax (`?l?u?d?s?a`, `??` literal `?`,
    /// other bytes literal).
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
                slots.push(MaskSlot::Literal(c as u8));
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

    /// The candidate at `id` (mixed-radix decode, last position fastest).
    ///
    /// # Panics
    /// Panics when `id >= size()`.
    pub fn key_at(&self, id: u128) -> Key {
        assert!(id < self.size, "id {id} out of range");
        let mut key = Key::empty();
        key.set_len(self.slots.len());
        let mut rest = id;
        for (pos, slot) in self.slots.iter().enumerate().rev() {
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
        for (slot, &byte) in self.slots.iter().zip(key.as_bytes()) {
            id = id * slot.cardinality() + slot.digit_of(byte)?;
        }
        Some(id)
    }

    /// In-place successor (the mask space's `next` operator): increments
    /// the last position, carrying leftward.
    ///
    /// # Panics
    /// Panics when the key is not a member of the space.
    pub fn advance_key(&self, key: &mut Key) {
        for (pos, slot) in self.slots.iter().enumerate().rev() {
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
    type Blocks<'a> = MaskBlocks<'a>;

    fn blocks(&self, layout: BlockLayout, interval: Interval) -> MaskBlocks<'_> {
        MaskBlocks::new(self, layout, interval)
    }
}

/// In-place batch writer over an interval of a [`MaskSpace`]: the mask
/// counterpart of [`BlockBatch`](crate::BlockBatch).
///
/// A mask is a fixed-length mixed-radix counter, so the writer keeps one
/// digit per position next to the current candidate's padded block and
/// never goes back to bytes: the candidates up to the fastest position's
/// next carry differ in that position's byte alone, and are written as
/// `base | symbol[d + j] << shift` into the row of whichever block word
/// holds it (`w[1]` for `?u?l?l?d` under NTLM's UTF-16 layout, `w[0]`
/// under MD5's). Every other row holds one value in all lanes unless a
/// carry inside the batch moved it, and is then rewritten from that lane
/// on. No reverse charset look-up, no `key_at` after the first candidate,
/// no heap.
#[derive(Debug, Clone)]
pub struct MaskBlocks<'a> {
    slots: &'a [MaskSlot],
    layout: BlockLayout,
    /// Digit of every position in the candidate `next_id` maps to.
    digits: [u8; MAX_KEY_LEN],
    /// That candidate's padded block.
    template: [u32; 16],
    /// The last position with more than one choice — the one that steps
    /// between carries (literals after it never move); the last position
    /// when the mask is all literals.
    fast: usize,
    next_id: u128,
    remaining: u128,
    epoch: u64,
}

impl<'a> MaskBlocks<'a> {
    /// Create a writer over `interval` (clamped to the space bounds).
    pub fn new(space: &'a MaskSpace, layout: BlockLayout, interval: Interval) -> Self {
        let clamped = interval.intersect(&Interval::new(0, space.size));
        let slots = space.slots.as_slice();
        // Mixed-radix decode of the first identifier, as `key_at` does;
        // an empty interval keeps candidate 0 and never hands it out.
        let mut digits = [0u8; MAX_KEY_LEN];
        let mut key = [0u8; MAX_KEY_LEN];
        let mut rest = if clamped.is_empty() { 0 } else { clamped.start };
        for (pos, slot) in slots.iter().enumerate().rev() {
            let card = slot.cardinality();
            let digit = (rest % card) as usize;
            digits[pos] = digit as u8;
            key[pos] = slot.symbols()[digit];
            rest /= card;
        }
        Self {
            slots,
            layout,
            digits,
            template: layout.pad(&key[..slots.len()]),
            fast: slots.iter().rposition(|s| s.cardinality() > 1).unwrap_or(slots.len() - 1),
            next_id: clamped.start,
            remaining: clamped.len,
            epoch: 0,
        }
    }

    /// Set position `pos` to `digit`, in the digits and in the template;
    /// the suffix epoch moves when a word other than `w[0]` changes.
    /// Returns the template word written.
    #[inline]
    fn set_digit(&mut self, pos: usize, digit: usize) -> usize {
        self.digits[pos] = digit as u8;
        let (word, shift) = self.layout.key_byte_slot(pos);
        let symbol = self.slots[pos].symbols()[digit];
        let updated = (self.template[word] & !(0xff << shift)) | u32::from(symbol) << shift;
        if word != 0 && updated != self.template[word] {
            self.epoch += 1;
        }
        self.template[word] = updated;
        word
    }

    /// The counter's `next`: increment the fastest position, carrying
    /// leftward (wrapping past the last candidate, which callers bound).
    /// Returns the template words written, one bit each.
    fn advance(&mut self) -> u16 {
        let mut written = 0;
        for pos in (0..=self.fast).rev() {
            let digit = usize::from(self.digits[pos]) + 1;
            if digit < self.slots[pos].symbols().len() {
                return written | 1 << self.set_digit(pos, digit);
            }
            written |= 1 << self.set_digit(pos, 0);
        }
        written
    }
}

impl BlockSource for MaskBlocks<'_> {
    #[inline]
    fn next_id(&self) -> u128 {
        self.next_id
    }

    #[inline]
    fn remaining(&self) -> u128 {
        self.remaining
    }

    #[inline]
    fn fill_rows<const L: usize>(&mut self, rows: &mut Rows<L>) -> BatchInfo {
        assert!(
            self.remaining >= L as u128,
            "fill of {L} lanes with only {} candidates remaining",
            self.remaining
        );
        let (start_id, epoch) = (self.next_id, self.epoch);
        let symbols = self.slots[self.fast].symbols();
        let (word, shift) = self.layout.key_byte_slot(self.fast);
        for (w, &value) in self.template.iter().enumerate() {
            if w != word {
                rows.uniform(w, value);
            }
        }
        let mut l = 0;
        loop {
            // The lanes up to the next carry differ in one byte of one
            // word: write them into that word's row from registers, then
            // move the digit and the template to the last of them in one
            // step.
            let digit = usize::from(self.digits[self.fast]);
            let base = self.template[word] & !(0xff << shift);
            let ahead = &symbols[digit..symbols.len().min(digit + L - l)];
            for (slot, &symbol) in rows.row_mut(word)[l..].iter_mut().zip(ahead) {
                *slot = base | u32::from(symbol) << shift;
            }
            self.set_digit(self.fast, digit + ahead.len() - 1);
            l += ahead.len();
            if l == L {
                break;
            }
            // A carry out of the stepping word changes another row from
            // this lane on; the stepping word's own row is rewritten by
            // the next run either way.
            let mut moved = self.advance() & !(1 << word);
            while moved != 0 {
                let w = moved.trailing_zeros() as usize;
                rows.from_lane(w, l, self.template[w]);
                moved &= moved - 1;
            }
        }
        // As in `BlockBatch`: the advance that positions the writer for
        // the next batch may move the epoch without invalidating this one.
        let uniform_suffix = self.epoch == epoch;
        self.next_id += L as u128;
        self.remaining -= L as u128;
        if self.remaining > 0 {
            self.advance();
        }
        BatchInfo { start_id, epoch, uniform_suffix }
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
        // Last position fastest.
        assert_eq!(m.key_at(1).as_bytes(), b"A1");
        assert_eq!(m.key_at(10).as_bytes(), b"B0");
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
