//! Where a lane-batched test loop gets its padded blocks from.
//!
//! Section III's pattern changes only the bijection `f` and `next` from
//! one search strategy to the other; the test kernel `K_C` stays. On the
//! host that kernel hashes `L` pre-padded single-block messages in
//! lockstep, so "another strategy" means exactly "another way to write
//! those blocks": a [`BlockSpace`] is a key-producing space that knows
//! how, and a [`BlockSource`] is its writer over one interval.
//!
//! The batch is *word-major* ([`Rows`]): row `w` holds block word `w` of
//! all `L` candidates, which is the form the kernels load — one vector
//! per message word — so nothing transposes between writer and hash. It
//! is also the form in which a batch is cheap to write: consecutive
//! candidates differ in one byte of one word, so fifteen of the sixteen
//! rows hold one value in every lane, and [`Rows`] remembers which, so a
//! row that has not changed since the previous batch costs a compare.
//!
//! Three writers exist. [`BlockBatch`] serves [`KeySpace`] and
//! [`MaskBlocks`](crate::MaskBlocks) serves
//! [`MaskSpace`](crate::MaskSpace): both know which key positions move
//! between two carries of the slower ones — the fastest position and the
//! next few that share its block word — and precompute that word's values
//! over one whole period of those positions once (`StepTable`). A batch
//! is then the stepping word's row copied out of the table segment by
//! segment (`base | table[j..]`); the counter is settled once per table
//! period, at a carry, which touches another row only from the lane at
//! which it moved it. [`KeyBlocks`] serves everything else (today
//! [`HybridSpace`]): it drives the space's own `next`, re-pads the key
//! each step and writes the block as a column — no knowledge of the
//! space, no heap, roughly one block format per candidate.

// Indexing/slicing below is over fixed-size state arrays; the workspace
// `clippy::indexing_slicing` escalation guards new code, not these
// proven accesses.
#![allow(clippy::indexing_slicing)]

use eks_core::SolutionSpace;

use crate::batch::{BatchInfo, BlockBatch, BlockLayout};
use crate::dictionary::HybridSpace;
use crate::interval::Interval;
use crate::key::{Key, MAX_KEY_LEN};
use crate::space::KeySpace;

// Every key fits one block under every layout (UTF-16 doubles it), so no
// writer needs a multi-block path.
const _: () = assert!(2 * MAX_KEY_LEN <= 55);

/// `L` padded blocks, word-major: `words()[w][l]` is word `w` of lane
/// `l`'s block.
///
/// The buffer carries its own uniformity state: per row, the value every
/// lane from some index on is known to hold. [`Rows::uniform`] and
/// [`Rows::from_lane`] store only what that does not already cover, so a
/// writer states what each row must hold and pays for the rows that
/// changed. Because the state describes the *buffer*, not a writer's
/// history, any writer may follow any other into the same `Rows`.
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

    /// Make every lane of row `w` hold `v`; nothing is stored when the
    /// row already does.
    #[inline]
    pub fn uniform(&mut self, w: usize, v: u32) {
        self.from_lane(w, 0, v);
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

    /// Overwrite lane `l` with `block` (a column write).
    #[inline]
    fn set_block(&mut self, l: usize, block: &[u32; 16]) {
        for (w, &word) in block.iter().enumerate() {
            self.row_mut(w)[l] = word;
        }
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
const TABLE_CAP: usize = 1024;

/// The stepping word's value at every combination of the key positions
/// that step between two carries: the fastest position and, slowest
/// last, as many of the next ones as share its block word while the
/// product of their cardinalities stays within [`TABLE_CAP`].
///
/// `entries[j]` holds those positions' bytes at combined digit `j`
/// (fastest position least significant); the rest of the word, `base`,
/// moves only when a carry moves a slower position in the same word. The
/// table is built once per writer (and again when a key grows), as an
/// outer product — one slower position multiplied in at a time, no
/// division per entry — and then read segment by segment up to the next
/// carry.
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
    /// Bit offsets of their bytes, fastest first; `positions` are used.
    shifts: [u32; 4],
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
            shifts: [0; 4],
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
            self.shifts[self.positions] = shift;
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

    /// Number of key positions in the table (at most four: one word).
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

    /// The stepping word at combined digit `j`, and the table positions'
    /// bytes there, fastest first.
    #[inline]
    pub(crate) fn at(&self, j: usize) -> (u32, impl Iterator<Item = u8> + '_) {
        let entry = self.entries[j];
        let bytes = self.shifts[..self.positions].iter().map(move |&s| (entry >> s) as u8);
        (self.base | entry, bytes)
    }

    /// The last combined digit, every table position at its last symbol.
    #[inline]
    pub(crate) fn last(&self) -> usize {
        self.period - 1
    }
}

/// A stream of consecutive candidates, handed out `L` pre-padded blocks
/// at a time.
pub trait BlockSource {
    /// Identifier of the next candidate to be handed out.
    fn next_id(&self) -> u128;

    /// Candidates left in the interval.
    fn remaining(&self) -> u128;

    /// Write the next `L` candidates' padded blocks into `rows` and
    /// advance; lane `l` receives the block of identifier `start_id + l`.
    /// `rows` may hold anything on entry — another writer's batch
    /// included — and holds exactly these `L` blocks on return.
    ///
    /// # Panics
    /// Panics when fewer than `L` candidates remain — the caller owns the
    /// tail.
    fn fill_rows<const L: usize>(&mut self, rows: &mut Rows<L>) -> BatchInfo;

    /// [`fill_rows`] transposed to one block per lane: the lane-major
    /// form the tests compare with per-key references.
    ///
    /// [`fill_rows`]: BlockSource::fill_rows
    fn fill<const L: usize>(&mut self, out: &mut [[u32; 16]; L]) -> BatchInfo {
        let mut rows = Rows::<L>::new();
        let info = self.fill_rows(&mut rows);
        for (l, block) in out.iter_mut().enumerate() {
            *block = rows.block(l);
        }
        info
    }

    /// Write only the next `L` candidates' first block words and advance,
    /// returning the batch metadata and the first candidate's whole block
    /// (see [`BlockBatch::fill_w0s`]). `None` — from the default, and
    /// from a source whose candidates do not mostly differ in `w[0]` —
    /// means nothing was consumed and the caller should [`fill_rows`]; a
    /// source that declines once declines for its whole interval.
    ///
    /// [`fill_rows`]: BlockSource::fill_rows
    #[inline]
    fn try_fill_w0s<const L: usize>(
        &mut self,
        _out: &mut [u32; L],
    ) -> Option<(BatchInfo, [u32; 16])> {
        None
    }
}

/// A key-producing space whose intervals can be written as padded
/// blocks: what the batched crackers accept.
pub trait BlockSpace: SolutionSpace<Solution = Key> {
    /// The space's block writer.
    type Blocks<'a>: BlockSource
    where
        Self: 'a;

    /// A writer over `interval` (clamped to the space) under `layout`.
    fn blocks(&self, layout: BlockLayout, interval: Interval) -> Self::Blocks<'_>;
}

impl BlockSpace for KeySpace {
    type Blocks<'a> = BlockBatch<'a>;

    fn blocks(&self, layout: BlockLayout, interval: Interval) -> BlockBatch<'_> {
        BlockBatch::new(self, layout, interval)
    }
}

impl BlockSpace for HybridSpace {
    type Blocks<'a> = KeyBlocks<'a, Self>;

    fn blocks(&self, layout: BlockLayout, interval: Interval) -> KeyBlocks<'_, Self> {
        KeyBlocks::new(self, layout, interval)
    }
}

/// The writer of last resort: generate once, `advance`, re-pad, write
/// the block as a column. Works for any [`SolutionSpace`] of keys and
/// allocates nothing; costs one block format per candidate where the
/// run-based writers cost one store.
#[derive(Debug, Clone)]
pub struct KeyBlocks<'a, S> {
    space: &'a S,
    layout: BlockLayout,
    /// The candidate `next_id` maps to, and its padded block.
    key: Key,
    template: [u32; 16],
    next_id: u128,
    remaining: u128,
    epoch: u64,
}

impl<'a, S: SolutionSpace<Solution = Key>> KeyBlocks<'a, S> {
    /// Create a writer over `interval` (clamped to the space bounds).
    pub fn new(space: &'a S, layout: BlockLayout, interval: Interval) -> Self {
        let whole = Interval { start: 0, len: space.size().unwrap_or(u128::MAX) };
        let clamped = interval.intersect(&whole);
        let key = if clamped.is_empty() { Key::empty() } else { space.generate(clamped.start) };
        Self {
            space,
            layout,
            template: layout.pad(key.as_bytes()),
            key,
            next_id: clamped.start,
            remaining: clamped.len,
            epoch: 0,
        }
    }

    /// Move from the candidate at `id` to its successor; the suffix epoch
    /// moves with any block word other than `w[0]`.
    #[inline]
    fn step(&mut self, id: u128) {
        self.space.advance(id, &mut self.key);
        let block = self.layout.pad(self.key.as_bytes());
        if block[1..] != self.template[1..] {
            self.epoch += 1;
        }
        self.template = block;
    }
}

impl<S: SolutionSpace<Solution = Key>> BlockSource for KeyBlocks<'_, S> {
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
        let mut id = start_id;
        for l in 0..L {
            rows.set_block(l, &self.template);
            if l + 1 < L {
                self.step(id);
                id += 1;
            }
        }
        // As in `BlockBatch`: the step that positions the writer for the
        // next batch may move the epoch without invalidating this one.
        let uniform_suffix = self.epoch == epoch;
        self.next_id += L as u128;
        self.remaining -= L as u128;
        if self.remaining > 0 {
            self.step(id);
        }
        BatchInfo { start_id, epoch, uniform_suffix }
    }
}
