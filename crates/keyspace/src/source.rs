//! Where a lane-batched test loop gets its padded blocks from.
//!
//! Section III's pattern changes only the bijection `f` and `next` from
//! one search strategy to the other; the test kernel `K_C` stays. On the
//! host that kernel hashes `L` pre-padded single-block messages in
//! lockstep, so "another strategy" means exactly "another way to write
//! those blocks": a [`BlockSpace`] is a key-producing space that knows
//! how, and a [`BlockSource`] is its writer over one interval.
//!
//! Three writers exist. [`BlockBatch`] serves [`KeySpace`] and
//! [`MaskBlocks`](crate::MaskBlocks) serves
//! [`MaskSpace`](crate::MaskSpace): both know which single byte moves
//! between two carries and emit those runs from registers.
//! [`KeyBlocks`] serves everything else (today [`HybridSpace`]): it
//! drives the space's own `next` and re-pads the key each step — no
//! knowledge of the space, no heap, roughly one block format per
//! candidate.

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

/// A stream of consecutive candidates, handed out `L` pre-padded blocks
/// at a time.
pub trait BlockSource {
    /// Identifier of the next candidate to be handed out.
    fn next_id(&self) -> u128;

    /// Candidates left in the interval.
    fn remaining(&self) -> u128;

    /// Write the next `L` candidates' padded blocks into `out` and
    /// advance; lane `l` receives the block of identifier `start_id + l`.
    ///
    /// # Panics
    /// Panics when fewer than `L` candidates remain — the caller owns the
    /// tail.
    fn fill<const L: usize>(&mut self, out: &mut [[u32; 16]; L]) -> BatchInfo;

    /// Write only the next `L` candidates' first block words and advance,
    /// returning the batch metadata and the first candidate's whole block
    /// (see [`BlockBatch::fill_w0s`]). `None` — from the default, and
    /// from a source whose candidates do not mostly differ in `w[0]` —
    /// means nothing was consumed and the caller should [`fill`]; a
    /// source that declines once declines for its whole interval.
    ///
    /// [`fill`]: BlockSource::fill
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

/// The writer of last resort: generate once, `advance`, re-pad. Works
/// for any [`SolutionSpace`] of keys and allocates nothing; costs one
/// block format per candidate where the run-based writers cost one
/// store.
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
    fn fill<const L: usize>(&mut self, out: &mut [[u32; 16]; L]) -> BatchInfo {
        assert!(
            self.remaining >= L as u128,
            "fill of {L} lanes with only {} candidates remaining",
            self.remaining
        );
        let (start_id, epoch) = (self.next_id, self.epoch);
        let mut id = start_id;
        for (l, block) in out.iter_mut().enumerate() {
            *block = self.template;
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
