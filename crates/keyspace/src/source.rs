//! Where a lane-batched test loop gets its padded blocks from.
//!
//! Section III's pattern changes only the bijection `f` and `next` from
//! one search strategy to the other; the test kernel `K_C` stays. On the
//! host that kernel hashes `L` pre-padded single-block messages in
//! lockstep, so "another strategy" means exactly "another way to write
//! those blocks".
//!
//! Every space here is a run of fixed-length masks laid end to end
//! ([`Segment`]): a [`KeySpace`] over a charset `c` is `c^ℓ` for ℓ =
//! min..=max (§IV, Fig. 1 and Eqs. 2–3), its [`Order`] naming the least
//! significant position; a [`HybridSpace`](crate::HybridSpace) is, per
//! dictionary word and suffix length, a mask whose first positions are
//! the word's literal bytes; a [`MaskSpace`](crate::MaskSpace) is one
//! first-position-fastest mask. A [`BlockSpace`] is a key-producing space
//! that describes itself that way, and [`MaskBlocks`] — the one writer —
//! writes any interval of it.
//!
//! The batch is *word-major* ([`Rows`]): row `w` holds block word `w` of
//! all `L` candidates, which is the form the kernels load — one vector
//! per message word — so nothing transposes between writer and hash. It
//! is also the form in which a batch is cheap to write: consecutive
//! candidates differ in one byte of one word, so fifteen of the sixteen
//! rows hold one value in every lane, and [`Rows`] remembers which, so a
//! row that has not changed since the previous batch costs a compare.

// Indexing/slicing below is over fixed-size state arrays; the workspace
// `clippy::indexing_slicing` escalation guards new code, not these
// proven accesses.
#![allow(clippy::indexing_slicing)]

use eks_core::SolutionSpace;

use crate::batch::{BlockLayout, MaskBlocks};
use crate::encode::Order;
use crate::interval::Interval;
use crate::key::{Key, MAX_KEY_LEN};
use crate::mask::MaskSlot;
#[cfg(doc)]
use crate::space::KeySpace;

// Every key fits one block under every layout (UTF-16 doubles it), so no
// writer needs a multi-block path.
const _: () = assert!(2 * MAX_KEY_LEN <= 55);

/// `L` padded blocks, word-major: `words()[w][l]` is word `w` of lane
/// `l`'s block.
///
/// The buffer carries its own uniformity state: per row, the value every
/// lane from some index on is known to hold. [`Rows::from_lane`] stores
/// only what that does not already cover, so the writer states what each
/// row must hold and pays for the rows that changed. Because the state
/// describes the *buffer*, not a writer's history, any writer may follow
/// any other into the same `Rows`.
#[derive(Debug, Clone)]
pub struct Rows<const L: usize> {
    words: [[u32; L]; 16],
    /// `words[w][known_from[w]..]` all hold `tail[w]`; `known_from[w]`
    /// is `L` when nothing is known about the row.
    tail: [u32; 16],
    known_from: [u8; 16],
}

impl<const L: usize> Default for Rows<L> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const L: usize> Rows<L> {
    /// `L` all-zero blocks.
    pub fn new() -> Self {
        const { assert!(L <= u8::MAX as usize, "lane indices are kept in a byte") };
        Self { words: [[0; L]; 16], tail: [0; 16], known_from: [0; 16] }
    }

    /// Make lanes `l..` of row `w` hold `v`, leaving the lanes before
    /// `l` as they are; nothing is stored when they already do.
    #[inline]
    pub fn from_lane(&mut self, w: usize, l: usize, v: u32) {
        if self.tail[w] == v && usize::from(self.known_from[w]) <= l {
            return;
        }
        self.words[w][l..].fill(v);
        self.tail[w] = v;
        self.known_from[w] = l as u8;
    }

    /// Row `w` for lane-by-lane writing; the row counts as unknown from
    /// here on.
    #[inline]
    pub fn row_mut(&mut self, w: usize) -> &mut [u32; L] {
        self.known_from[w] = L as u8;
        &mut self.words[w]
    }

    /// Lane `l`'s block.
    #[inline]
    pub fn block(&self, l: usize) -> [u32; 16] {
        core::array::from_fn(|w| self.words[w][l])
    }

    /// Row `w`: block word `w` of every lane.
    #[inline]
    pub fn row(&self, w: usize) -> &[u32; L] {
        &self.words[w]
    }

    /// All sixteen rows, the form the lane kernels load.
    #[inline]
    pub fn words(&self) -> &[[u32; L]; 16] {
        &self.words
    }
}

/// Largest period a [`StepTable`] spans: 1 024 words, 4 KiB kept inline
/// in the writer — an L1-resident copy source, and enough for two
/// positions of up to 32 symbols (`?l?l`, `?l?d`, `?u?d?d`).
pub(crate) const TABLE_CAP: usize = 1024;

/// The stepping word's value at every combination of the key positions
/// that step between two carries: the fastest position and, slowest
/// last, as many of the next ones as share its block word while the
/// product of their cardinalities stays within [`TABLE_CAP`].
///
/// `entries[j]` holds those positions' bytes at combined digit `j`
/// (fastest position least significant); the rest of the word, `base`,
/// moves only when a carry moves a slower position in the same word. The
/// table is built once per writer (and again at each segment boundary),
/// as an outer product — one slower position multiplied in at a time, no
/// division per entry — and then read run by run up to the next carry.
#[derive(Debug, Clone)]
pub(crate) struct StepTable {
    entries: [u32; TABLE_CAP],
    period: usize,
    /// Combined digit of the next candidate, `0..=period`.
    j: usize,
    /// The block word the positions live in.
    word: usize,
    /// Their bytes' mask in it, and everything else in it.
    mask: u32,
    base: u32,
    /// How many key positions the table steps (at most four: one word).
    positions: usize,
}

impl StepTable {
    /// The table of no positions: a period of one candidate.
    pub(crate) fn new() -> Self {
        Self {
            entries: [0; TABLE_CAP],
            period: 1,
            j: 0,
            word: 0,
            mask: 0,
            base: 0,
            positions: 0,
        }
    }

    /// Rebuild over `positions` — each `(word, shift, symbols, digit)`,
    /// fastest first — for as long as they share the first one's word and
    /// the period stays within [`TABLE_CAP`], positioned at their current
    /// digits, with the rest of the word taken from `template`.
    pub(crate) fn build<'s>(
        &mut self,
        template: &[u32; 16],
        positions: impl IntoIterator<Item = (usize, u32, &'s [u8], usize)>,
    ) {
        self.entries[0] = 0;
        (self.period, self.j, self.word, self.mask, self.positions) = (1, 0, 0, 0, 0);
        for (word, shift, symbols, digit) in positions {
            if self.positions == 0 {
                self.word = word;
            }
            if word != self.word || self.period * symbols.len() > TABLE_CAP {
                break;
            }
            // Every combination so far, once per symbol of the new
            // position (the zero symbol last: it is written in place).
            let (head, tail) = self.entries.split_at_mut(self.period);
            for (block, &symbol) in tail.chunks_exact_mut(self.period).zip(&symbols[1..]) {
                for (e, &h) in block.iter_mut().zip(head.iter()) {
                    *e = h | u32::from(symbol) << shift;
                }
            }
            for e in head {
                *e |= u32::from(symbols[0]) << shift;
            }
            self.j += digit * self.period;
            self.period *= symbols.len();
            self.mask |= 0xff << shift;
            self.positions += 1;
        }
        self.base = template[self.word] & !self.mask;
    }

    /// Back to combined digit 0 after a carry, with the rest of the word
    /// taken from `template` again.
    pub(crate) fn restart(&mut self, template: &[u32; 16]) {
        self.j = 0;
        self.base = template[self.word] & !self.mask;
    }

    /// The block word the table steps.
    #[inline]
    pub(crate) fn word(&self) -> usize {
        self.word
    }

    /// Number of key positions in the table.
    #[inline]
    pub(crate) fn positions(&self) -> usize {
        self.positions
    }

    /// True once every entry of the period has been handed out: the next
    /// candidate is a carry away.
    #[inline]
    pub(crate) fn at_end(&self) -> bool {
        self.j == self.period
    }

    /// Combined digit of the next candidate.
    #[inline]
    pub(crate) fn j(&self) -> usize {
        self.j
    }

    /// The next at most `max` candidates' stepping words up to the carry,
    /// as `base` and the entries to OR into it; moves past them.
    #[inline]
    pub(crate) fn take(&mut self, max: usize) -> (u32, &[u32]) {
        let j = self.j;
        let n = max.min(self.period - j);
        self.j += n;
        (self.base, &self.entries[j..j + n])
    }

    /// The stepping word at combined digit `j`.
    #[inline]
    pub(crate) fn value(&self, j: usize) -> u32 {
        self.base | self.entries[j]
    }

    /// The last combined digit, every table position at its last symbol.
    #[inline]
    pub(crate) fn last(&self) -> usize {
        self.period - 1
    }
}


/// One fixed-length mask of a [`BlockSpace`]: literal prefix bytes, then
/// positions that each take one symbol of their set, with `order` naming
/// the end whose position is the least significant digit. A space is its
/// segments laid end to end in identifier order, each one's candidates
/// numbered as a mixed-radix counter over its positions.
///
/// Only this crate builds segments, so only its spaces are block spaces.
#[derive(Debug, Clone, Copy)]
pub struct Segment<'a> {
    pub(crate) prefix: &'a [u8],
    sets: Sets<'a>,
    order: Order,
}

/// The symbol sets of a segment's positions.
#[derive(Debug, Clone, Copy)]
enum Sets<'a> {
    /// `n` positions over one set: a key space's keys of one length, a
    /// hybrid's suffixes of one length.
    Repeat(&'a [u8], usize),
    /// A mask's positions, one slot each.
    Slots(&'a [MaskSlot]),
}

impl<'a> Segment<'a> {
    /// `n` positions over `symbols` after `prefix`.
    pub(crate) fn repeat(prefix: &'a [u8], symbols: &'a [u8], n: usize, order: Order) -> Self {
        Self { prefix, sets: Sets::Repeat(symbols, n), order }
    }

    /// The same positions after `prefix` instead.
    pub(crate) fn after(self, prefix: &'a [u8]) -> Self {
        Self { prefix, ..self }
    }

    /// A mask's slots, first position fastest.
    pub(crate) fn slots(slots: &'a [MaskSlot]) -> Self {
        Self { prefix: &[], sets: Sets::Slots(slots), order: Order::FirstCharFastest }
    }

    /// Number of positions after the prefix.
    #[inline]
    pub(crate) fn positions(&self) -> usize {
        match self.sets {
            Sets::Repeat(_, n) => n,
            Sets::Slots(slots) => slots.len(),
        }
    }

    /// Key length of every candidate of the segment.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.prefix.len() + self.positions()
    }

    /// The key position of the digit of significance `rank` (0 the
    /// fastest), and its symbols in digit order.
    #[inline]
    pub(crate) fn digit(&self, rank: usize) -> (usize, &'a [u8]) {
        let i = match self.order {
            Order::FirstCharFastest => rank,
            Order::LastCharFastest => self.positions() - 1 - rank,
        };
        let symbols = match self.sets {
            Sets::Repeat(symbols, _) => symbols,
            Sets::Slots(slots) => slots[i].symbols(),
        };
        (self.prefix.len() + i, symbols)
    }
}

/// A key-producing space whose intervals can be written as padded
/// blocks: what the batched crackers accept. It describes itself as a
/// run of [`Segment`]s, which [`MaskBlocks`] writes.
pub trait BlockSpace: SolutionSpace<Solution = Key> {
    /// Segment `k`, counting from the space's first.
    fn segment(&self, k: usize) -> Segment<'_>;

    /// The segment holding identifier `id` (below the space's size), and
    /// `id`'s offset in it.
    fn locate(&self, id: u128) -> (usize, u128);

    /// The writer over `interval` (clamped to the space) under `layout`.
    fn blocks(&self, layout: BlockLayout, interval: Interval) -> MaskBlocks<'_, Self>
    where
        Self: Sized,
    {
        MaskBlocks::new(self, layout, interval)
    }
}
