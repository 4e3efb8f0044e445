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

use crate::batch::{BatchInfo, BlockLayout};
use crate::charset::Charset;
use crate::interval::Interval;
use crate::key::{Key, MAX_KEY_LEN};
use crate::source::{BlockSource, BlockSpace, Rows, StepTable};

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
/// never goes back to bytes. The first positions with a choice — as many
/// as share the fastest one's block word and fit a `StepTable` — step
/// between two carries of the slower ones, and the table holds that
/// word's value at every combination of them (`w[0]` = `?u?l` for
/// `?u?l?l?d` under NTLM's UTF-16 layout, 676 entries; `?u?l` in `w[0]`
/// under MD5 and SHA-1 too, where `?u?l?l` would pass the cap): a batch
/// copies the row out of it segment by segment and settles the slower
/// digits once per period. Every other row holds one value in all lanes
/// unless a carry inside the batch moved it, and is then rewritten from
/// that lane on. No reverse charset look-up, no `key_at` after the first
/// candidate, no heap.
#[derive(Debug, Clone)]
pub struct MaskBlocks<'a> {
    slots: &'a [MaskSlot],
    layout: BlockLayout,
    /// Digit of every position in the candidate `next_id` maps to; those
    /// of the table's positions are not kept up to date.
    digits: [u8; MAX_KEY_LEN],
    /// That candidate's padded block, but for the table positions' bytes.
    template: [u32; 16],
    /// The stepping word over the first positions with a choice (the
    /// first position when the mask is all literals); literals before
    /// them never move.
    table: StepTable,
    /// The positions slower than the table's: `slow..`.
    slow: usize,
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
        for (pos, slot) in slots.iter().enumerate() {
            let card = slot.cardinality();
            let digit = (rest % card) as usize;
            digits[pos] = digit as u8;
            key[pos] = slot.symbols()[digit];
            rest /= card;
        }
        let template = layout.pad(&key[..slots.len()]);
        let fast = slots.iter().position(|s| s.cardinality() > 1).unwrap_or(0);
        let mut table = StepTable::new();
        table.build(
            &template,
            (fast..slots.len()).map(|pos| {
                let (word, shift) = layout.key_byte_slot(pos);
                (word, shift, slots[pos].symbols(), usize::from(digits[pos]))
            }),
        );
        Self {
            slots,
            layout,
            digits,
            template,
            slow: fast + table.positions(),
            table,
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

    /// The carry out of the table: its positions wrap to digit 0 and the
    /// slower ones step, carrying rightward (wrapping past the last
    /// candidate, which callers bound). Returns the template words
    /// written, one bit each.
    fn carry(&mut self) -> u16 {
        let mut written = 0;
        for pos in self.slow..self.slots.len() {
            let digit = usize::from(self.digits[pos]) + 1;
            if digit < self.slots[pos].symbols().len() {
                written |= 1 << self.set_digit(pos, digit);
                break;
            }
            written |= 1 << self.set_digit(pos, 0);
        }
        self.table.restart(&self.template);
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
        let word = self.table.word();
        for (w, &value) in self.template.iter().enumerate() {
            if w != word {
                rows.uniform(w, value);
            }
        }
        let mut l = 0;
        loop {
            // The lanes up to the next carry differ in the table
            // positions alone: copy their stepping words out of it.
            let (base, run) = self.table.take(L - l);
            for (slot, &e) in rows.row_mut(word)[l..].iter_mut().zip(run) {
                *slot = base | e;
            }
            l += run.len();
            if l == L {
                break;
            }
            // A carry out of the table changes another row from this
            // lane on; the stepping word's own row is rewritten by the
            // next segment either way.
            let mut moved = self.carry() & !(1 << word);
            while moved != 0 {
                let w = moved.trailing_zeros() as usize;
                rows.from_lane(w, l, self.template[w]);
                moved &= moved - 1;
            }
        }
        // As in `BlockBatch`: a stepping word other than `w[0]` moves the
        // suffix from lane to lane, and the carry that positions the
        // writer for the next batch may move the epoch without
        // invalidating this one.
        let uniform_suffix = self.epoch == epoch && (word == 0 || L == 1);
        if word != 0 {
            self.epoch += 1;
        }
        self.next_id += L as u128;
        self.remaining -= L as u128;
        if self.remaining > 0 && self.table.at_end() {
            self.carry();
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
