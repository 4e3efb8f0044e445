//! Zero-allocation candidate generation into pre-padded message blocks.
//!
//! A cracking kernel never re-pads a candidate from scratch: the padded
//! 64-byte block of `f(id+1)` differs from that of `f(id)` in exactly the
//! bytes the `next` operator changed — usually one (Section IV: "in most
//! cases it modifies just a single character") — plus, rarely, the
//! terminator and length words when the key grows. [`BlockBatch`] exploits
//! this: it keeps the current key's fully padded 16-word block as a
//! template, advances the key in place, mirrors the byte delta into the
//! template, and hands out batches of `L` candidates for the
//! lane-parallel compression cores, word-major ([`Rows`]): the stepping
//! word's row is written per candidate, every other row only from the
//! lane at which a carry moved it. Steady state writes one word per
//! candidate and performs **no heap allocation** — the key buffer and
//! the table below are inline, the batch output lives on the caller's
//! stack.
//!
//! Between two carries of its slower positions even `next` is more than
//! the writer needs: the candidates differ only in the fastest position
//! and the next few that share its block word, and that word's value at
//! every combination of them is precomputed once (`StepTable`: `?l?l`
//! in `w[0]`, 676 entries, for a first-char-fastest lowercase sweep). A
//! batch copies the row out of the table segment by segment and touches
//! the key, the charset's reverse table and the template once per table
//! period — at the carry — instead of once per candidate. That is what
//! makes `K_next` vanish next to `K_C` (Section III) on a host core too.
//!
//! The writer also tracks a *suffix epoch*, a version of block words
//! 1..16: it never decreases, and two batches that report the same one
//! start from the same suffix. A batch whose lanes all share that suffix
//! (`uniform_suffix`) satisfies the precondition of the reversed MD5 and
//! MD4 searches, so the consumer can run the 49-step (or 30-step) path
//! and only rebuild the reversed reference when the epoch moves.

// Indexing/slicing below is over fixed-size state arrays or lengths
// established by construction; the workspace `clippy::indexing_slicing`
// escalation guards new code, not these proven accesses.
#![allow(clippy::indexing_slicing)]

use crate::encode::{advance_tracked, Order};
use crate::interval::Interval;
use crate::key::Key;
use crate::source::{BlockSource, Rows, StepTable};
use crate::space::KeySpace;

/// How key bytes map into the padded single-block message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockLayout {
    /// Little-endian word packing, bit length in `w[14]` (MD5/MD4
    /// convention).
    Md5Le,
    /// Big-endian word packing, bit length in `w[15]` (SHA-1/SHA-256
    /// convention).
    ShaBe,
    /// NTLM: the key is expanded to UTF-16LE (a zero byte after every
    /// ASCII byte) before little-endian packing — key byte `p` lands at
    /// block byte `2p`.
    NtlmUtf16Le,
}

impl BlockLayout {
    /// Message length in block bytes for a key of `key_len` bytes.
    #[inline]
    pub fn msg_len(self, key_len: usize) -> usize {
        match self {
            BlockLayout::Md5Le | BlockLayout::ShaBe => key_len,
            BlockLayout::NtlmUtf16Le => key_len * 2,
        }
    }

    /// `(word, shift)` of the block byte at `byte_pos`.
    #[inline]
    fn word_shift(self, byte_pos: usize) -> (usize, u32) {
        match self {
            BlockLayout::Md5Le | BlockLayout::NtlmUtf16Le => {
                (byte_pos >> 2, ((byte_pos & 3) * 8) as u32)
            }
            BlockLayout::ShaBe => (byte_pos >> 2, ((3 - (byte_pos & 3)) * 8) as u32),
        }
    }

    /// `(word, shift)` of the block byte holding key byte `pos`.
    #[inline]
    pub(crate) fn key_byte_slot(self, pos: usize) -> (usize, u32) {
        match self {
            BlockLayout::NtlmUtf16Le => self.word_shift(pos * 2),
            _ => self.word_shift(pos),
        }
    }

    /// Pad `key` into its single 16-word block from scratch: key bytes,
    /// `0x80` terminator, zero fill, length words.
    ///
    /// # Panics
    /// Panics when the message does not fit one block (more than 55
    /// bytes) — no [`Key`] does, under any layout.
    pub fn pad(self, key: &[u8]) -> [u32; 16] {
        let msg_len = self.msg_len(key.len());
        assert!(msg_len <= 55, "a {msg_len}-byte message does not fit a single block");
        let mut block = [0u32; 16];
        for (pos, &byte) in key.iter().enumerate() {
            let (word, shift) = self.key_byte_slot(pos);
            block[word] |= u32::from(byte) << shift;
        }
        let (word, shift) = self.word_shift(msg_len);
        block[word] |= 0x80 << shift;
        let bitlen = (msg_len as u64) * 8;
        match self {
            BlockLayout::Md5Le | BlockLayout::NtlmUtf16Le => {
                block[14] = bitlen as u32;
                block[15] = (bitlen >> 32) as u32;
            }
            BlockLayout::ShaBe => {
                block[14] = (bitlen >> 32) as u32;
                block[15] = bitlen as u32;
            }
        }
        block
    }
}

/// Metadata for one batch handed out by a [`BlockSource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchInfo {
    /// Space-local identifier of the batch's first candidate; lane `l`
    /// holds `start_id + l`.
    pub start_id: u128,
    /// The suffix epoch the batch was generated under.
    pub epoch: u64,
    /// True when every candidate in the batch shares all block words
    /// except `w[0]` — the precondition of the reversed MD5/MD4 lane paths.
    pub uniform_suffix: bool,
}

/// In-place batch writer: walks an interval of a [`KeySpace`] and formats
/// each candidate into a pre-padded 16-word block, maintained
/// incrementally from the `next` operator's byte deltas.
#[derive(Debug, Clone)]
pub struct BlockBatch<'a> {
    space: &'a KeySpace,
    layout: BlockLayout,
    /// The candidate `next_id` maps to, and its padded block, between
    /// batches; inside one, the table positions' bytes lag behind.
    key: Key,
    template: [u32; 16],
    next_id: u128,
    remaining: u128,
    epoch: u64,
    /// The stepping word over the key's fastest positions.
    table: StepTable,
}

impl<'a> BlockBatch<'a> {
    /// Create a writer over `interval` (clamped to the space bounds).
    pub fn new(space: &'a KeySpace, layout: BlockLayout, interval: Interval) -> Self {
        let clamped = interval.intersect(&space.interval());
        let mut b = Self {
            space,
            layout,
            key: Key::empty(),
            template: [0u32; 16],
            next_id: clamped.start,
            remaining: clamped.len,
            epoch: 0,
            table: StepTable::new(),
        };
        if b.remaining > 0 {
            space.key_at_into(b.next_id, &mut b.key);
            b.format_full();
        }
        b
    }

    /// Candidates left in the interval.
    #[inline]
    pub fn remaining(&self) -> u128 {
        self.remaining
    }

    /// Identifier of the next candidate to be handed out.
    #[inline]
    pub fn next_id(&self) -> u128 {
        self.next_id
    }

    /// The current suffix epoch.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The current key (the candidate `next_id` maps to).
    #[inline]
    pub fn key(&self) -> &Key {
        &self.key
    }

    /// The current padded block.
    #[inline]
    pub fn template(&self) -> &[u32; 16] {
        &self.template
    }

    /// Write the next `L` candidates' padded blocks into `out`, one
    /// whole block per lane, and advance. Lane `l` receives the block of
    /// identifier `start_id + l`. The searches take the word-major
    /// [`BlockSource::fill_rows`]; this lane-major form serves callers
    /// that read blocks one at a time.
    ///
    /// # Panics
    /// Panics when fewer than `L` candidates remain — the caller owns the
    /// tail (scalar path).
    #[inline]
    pub fn fill<const L: usize>(&mut self, out: &mut [[u32; 16]; L]) -> BatchInfo {
        self.emit::<L>(&mut LaneBlocks(out))
    }

    /// Write the next `L` candidates' **first block words** into `out`
    /// and advance, returning the batch metadata and the padded block of
    /// the batch's first candidate (its words 1..16 are shared by every
    /// lane whenever `uniform_suffix` holds).
    ///
    /// This is the reversed-MD5 fast path: when a search varies only the
    /// leading 4 key bytes, the kernel needs one word per candidate —
    /// 1/16th of [`BlockBatch::fill`]'s stores. When the returned info
    /// says the suffix moved mid-batch (rare: once per `w[0]` rollover),
    /// the caller must reconstruct full blocks for these identifiers and
    /// take the forward path instead.
    ///
    /// # Panics
    /// Panics when fewer than `L` candidates remain — the caller owns the
    /// tail (scalar path).
    #[inline]
    pub fn fill_w0s<const L: usize>(&mut self, out: &mut [u32; L]) -> (BatchInfo, [u32; 16]) {
        let template0 = self.template;
        let info = self.emit::<L>(&mut FirstWords(out));
        (info, template0)
    }

    /// Hand the next `L` candidates to `sink` and advance past them.
    ///
    /// # Panics
    /// Panics when fewer than `L` candidates remain.
    #[inline]
    fn emit<const L: usize>(&mut self, sink: &mut impl Sink) -> BatchInfo {
        assert!(
            self.remaining >= L as u128,
            "fill of {L} lanes with only {} candidates remaining",
            self.remaining
        );
        let start_id = self.next_id;
        let epoch0 = self.epoch;
        sink.rest(0, &self.template, self.table.word());
        let mut l = 0;
        loop {
            // Lanes up to the next carry differ in the table positions
            // alone: their stepping words come straight out of the table.
            let word = self.table.word();
            let (base, run) = self.table.take(L - l);
            sink.run(l, &self.template, word, base, run);
            l += run.len();
            if l == L {
                break;
            }
            self.carry();
            sink.rest(l, &self.template, self.table.word());
        }
        // Uniformity covers the steps *between* the batch's lanes, and a
        // stepping word other than `w[0]` moves the suffix at every one;
        // the step positioning the writer for the next batch may bump the
        // epoch without invalidating this batch.
        let word = self.table.word();
        let uniform_suffix = self.epoch == epoch0 && (word == 0 || L == 1);
        if word != 0 {
            self.epoch += 1;
        }
        self.next_id += L as u128;
        self.remaining -= L as u128;
        if self.remaining == 0 {
            self.settle(self.table.j() - 1);
        } else if self.table.at_end() {
            self.carry();
        } else {
            self.settle(self.table.j());
        }
        BatchInfo { start_id, epoch: epoch0, uniform_suffix }
    }

    /// Bring the key and the template to the table's combined digit `j`.
    #[inline]
    fn settle(&mut self, j: usize) {
        let (value, bytes) = self.table.at(j);
        self.template[self.table.word()] = value;
        let (order, len) = (self.space.order(), self.key.len());
        for (i, byte) in bytes.enumerate() {
            self.key.set_byte(fastest(order, len, i), byte);
        }
    }

    /// The carry out of the table: from its last entry, advance the key
    /// once — every table position wraps, a slower one steps — and mirror
    /// the byte delta into the template.
    fn carry(&mut self) {
        self.settle(self.table.last());
        let delta = advance_tracked(&mut self.key, self.space.charset(), self.space.order());
        if delta.grew {
            // Length changed: terminator, length words and the table's
            // positions move. Rare (once per charset^len candidates) —
            // reformat from scratch.
            self.format_full();
            self.epoch += 1;
            return;
        }
        let len = self.key.len();
        let range = match self.space.order() {
            Order::FirstCharFastest => 0..delta.changed,
            Order::LastCharFastest => len - delta.changed..len,
        };
        let mut touched_suffix = false;
        for pos in range {
            let byte = self.key.as_bytes()[pos];
            touched_suffix |= self.write_key_byte(pos, byte);
        }
        if touched_suffix {
            self.epoch += 1;
        }
        self.table.restart(&self.template);
    }

    /// Overwrite the block byte(s) of key byte `pos`; returns true when a
    /// word other than `w[0]` was touched.
    #[inline]
    fn write_key_byte(&mut self, pos: usize, byte: u8) -> bool {
        let (word, shift) = self.layout.key_byte_slot(pos);
        self.template[word] = (self.template[word] & !(0xff << shift)) | ((byte as u32) << shift);
        word != 0
    }

    /// Format the current key into the template from scratch, and build
    /// the table over its fastest positions.
    fn format_full(&mut self) {
        self.template = self.layout.pad(self.key.as_bytes());
        let (charset, order, layout) = (self.space.charset(), self.space.order(), self.layout);
        let key = self.key.as_bytes();
        let positions = (0..key.len()).map(|i| {
            let pos = fastest(order, key.len(), i);
            let (word, shift) = layout.key_byte_slot(pos);
            let digit = charset.index_of(key[pos]).expect("keys hold charset symbols");
            (word, shift, charset.symbols(), digit)
        });
        self.table.build(&self.template, positions);
    }
}

/// Key position of the `i`-th fastest position of a `len`-byte key.
#[inline]
fn fastest(order: Order, len: usize, i: usize) -> usize {
    match order {
        Order::FirstCharFastest => i,
        Order::LastCharFastest => len - 1 - i,
    }
}

/// Where [`BlockBatch::emit`] puts a batch: the three output forms
/// differ only in how much of each candidate's block they keep.
trait Sink {
    /// Lanes `l..l + run.len()` hold `template` with word `word` replaced
    /// by `base | run[i]`.
    fn run(&mut self, l: usize, template: &[u32; 16], word: usize, base: u32, run: &[u32]);

    /// From lane `l` on — the batch's start, or a carry between lanes
    /// `l - 1` and `l` — every word but `word` is `template`'s.
    fn rest(&mut self, _l: usize, _template: &[u32; 16], _word: usize) {}
}

/// One whole block per lane ([`BlockBatch::fill`]).
struct LaneBlocks<'o, const L: usize>(&'o mut [[u32; 16]; L]);

impl<const L: usize> Sink for LaneBlocks<'_, L> {
    #[inline]
    fn run(&mut self, l: usize, template: &[u32; 16], word: usize, base: u32, run: &[u32]) {
        for (block, &e) in self.0[l..].iter_mut().zip(run) {
            *block = *template;
            block[word] = base | e;
        }
    }
}

/// First words only ([`BlockBatch::fill_w0s`]).
struct FirstWords<'o, const L: usize>(&'o mut [u32; L]);

impl<const L: usize> Sink for FirstWords<'_, L> {
    #[inline]
    fn run(&mut self, l: usize, template: &[u32; 16], word: usize, base: u32, run: &[u32]) {
        let out = &mut self.0[l..l + run.len()];
        if word == 0 {
            for (o, &e) in out.iter_mut().zip(run) {
                *o = base | e;
            }
        } else {
            out.fill(template[0]);
        }
    }
}

/// Word-major: the stepping word's row segment by segment, every other
/// row only where it differs from what [`Rows`] already holds.
struct WordRows<'o, const L: usize>(&'o mut Rows<L>);

impl<const L: usize> Sink for WordRows<'_, L> {
    #[inline]
    fn run(&mut self, l: usize, _template: &[u32; 16], word: usize, base: u32, run: &[u32]) {
        for (o, &e) in self.0.row_mut(word)[l..].iter_mut().zip(run) {
            *o = base | e;
        }
    }

    #[inline]
    fn rest(&mut self, l: usize, template: &[u32; 16], word: usize) {
        for (w, &v) in template.iter().enumerate() {
            if w != word {
                self.0.from_lane(w, l, v);
            }
        }
    }
}

impl BlockSource for BlockBatch<'_> {
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
        self.emit::<L>(&mut WordRows(rows))
    }

    /// First-char-fastest sweeps vary only the leading key bytes, so one
    /// word per candidate is the whole steady state. Under
    /// last-char-fastest nearly every batch would need the full-block
    /// reconstruction, so the writer declines there.
    #[inline]
    fn try_fill_w0s<const L: usize>(&mut self, out: &mut [u32; L]) -> Option<(BatchInfo, [u32; 16])> {
        (self.space.order() == Order::FirstCharFastest).then(|| self.fill_w0s(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charset::Charset;

    fn fresh_block(space: &KeySpace, layout: BlockLayout, id: u128) -> [u32; 16] {
        *BlockBatch::new(space, layout, Interval::new(id, 1)).template()
    }

    #[test]
    fn incremental_template_equals_full_reformat() {
        for order in [Order::FirstCharFastest, Order::LastCharFastest] {
            for layout in [BlockLayout::Md5Le, BlockLayout::ShaBe, BlockLayout::NtlmUtf16Le] {
                let s =
                    KeySpace::new(Charset::from_bytes(b"abc").unwrap(), 1, 4, order).unwrap();
                let mut bb = BlockBatch::new(&s, layout, s.interval());
                let mut blocks = [[0u32; 16]; 4];
                let mut id = 0u128;
                while bb.remaining() >= 4 {
                    let info = bb.fill(&mut blocks);
                    assert_eq!(info.start_id, id);
                    for (l, b) in blocks.iter().enumerate() {
                        let want = fresh_block(&s, layout, id + l as u128);
                        assert_eq!(*b, want, "id {} {order:?} {layout:?}", id + l as u128);
                    }
                    id += 4;
                }
            }
        }
    }

    #[test]
    fn md5_layout_matches_hand_padding() {
        let s = KeySpace::new(Charset::lowercase(), 3, 3, Order::FirstCharFastest).unwrap();
        let bb = BlockBatch::new(&s, BlockLayout::Md5Le, s.interval());
        // First key is "aaa": bytes a,a,a,0x80 little-endian in w[0].
        let t = bb.template();
        assert_eq!(t[0], u32::from_le_bytes([b'a', b'a', b'a', 0x80]));
        assert_eq!(t[14], 24, "bit length low word");
        assert_eq!(t[15], 0);
        for w in &t[1..14] {
            assert_eq!(*w, 0);
        }
    }

    #[test]
    fn sha_layout_matches_hand_padding() {
        let s = KeySpace::new(Charset::lowercase(), 3, 3, Order::FirstCharFastest).unwrap();
        let bb = BlockBatch::new(&s, BlockLayout::ShaBe, s.interval());
        let t = bb.template();
        assert_eq!(t[0], u32::from_be_bytes([b'a', b'a', b'a', 0x80]));
        assert_eq!(t[15], 24, "bit length lives in w[15] big-endian");
        assert_eq!(t[14], 0);
    }

    #[test]
    fn ntlm_layout_interleaves_zero_bytes() {
        let s = KeySpace::new(Charset::lowercase(), 2, 2, Order::FirstCharFastest).unwrap();
        let bb = BlockBatch::new(&s, BlockLayout::NtlmUtf16Le, s.interval());
        // "aa" -> UTF-16LE "a\0a\0" + 0x80: one word of text, terminator
        // at byte 4.
        let t = bb.template();
        assert_eq!(t[0], u32::from_le_bytes([b'a', 0, b'a', 0]));
        assert_eq!(t[1], 0x80);
        assert_eq!(t[14], 32, "4 message bytes = 32 bits");
    }

    #[test]
    fn uniform_suffix_tracks_w0_only_batches() {
        // 26 symbols, first-char-fastest, fixed length 4: the first 26
        // candidates differ only in byte 0 (inside w[0]); byte 1 changes
        // every 26 candidates and still lives in w[0]; byte 4 would be
        // w[1] but length is 4 so suffix words never change except at
        // format boundaries.
        let s = KeySpace::new(Charset::lowercase(), 4, 4, Order::FirstCharFastest).unwrap();
        let mut bb = BlockBatch::new(&s, BlockLayout::Md5Le, s.interval());
        let mut blocks = [[0u32; 16]; 8];
        let mut uniform_batches = 0u32;
        for _ in 0..64 {
            let info = bb.fill(&mut blocks);
            if info.uniform_suffix {
                uniform_batches += 1;
            }
        }
        // All four varying characters live in w[0]: every batch uniform.
        assert_eq!(uniform_batches, 64);
    }

    #[test]
    fn epoch_bumps_when_suffix_words_change() {
        // Length 5: byte 4 lives in w[1], so every 26^4-th candidate...
        // use a tiny charset so suffix changes happen quickly: abc, len 2
        // last-char-fastest — byte 1 changes every step but byte 1 is in
        // w[0]; use len 5 so the last byte is in w[1].
        let s = KeySpace::new(Charset::from_bytes(b"abc").unwrap(), 5, 5, Order::LastCharFastest)
            .unwrap();
        let mut bb = BlockBatch::new(&s, BlockLayout::Md5Le, s.interval());
        let e0 = bb.epoch();
        let mut blocks = [[0u32; 16]; 2];
        bb.fill(&mut blocks); // advances at least once: byte 4 changes
        assert!(bb.epoch() > e0, "last byte of a 5-byte key lives in w[1]");
    }

    #[test]
    fn growth_reformats_and_bumps_epoch() {
        let s = KeySpace::new(Charset::from_bytes(b"ab").unwrap(), 1, 3, Order::FirstCharFastest)
            .unwrap();
        let mut bb = BlockBatch::new(&s, BlockLayout::Md5Le, s.interval());
        let mut blocks = [[0u32; 16]; 2];
        // ids 0.."b" then growth "aa" at id 2.
        let i1 = bb.fill(&mut blocks); // a, b
        assert_eq!(i1.start_id, 0);
        let i2 = bb.fill(&mut blocks); // aa, ba
        assert_eq!(blocks[0][14], 16, "grown key has 2-byte length");
        assert!(i2.epoch > i1.epoch);
    }

    #[test]
    fn fill_w0s_agrees_with_full_fill() {
        let s = KeySpace::new(Charset::lowercase(), 4, 4, Order::FirstCharFastest).unwrap();
        let mut full = BlockBatch::new(&s, BlockLayout::Md5Le, s.interval());
        let mut fast = full.clone();
        let mut blocks = [[0u32; 16]; 8];
        let mut w0s = [0u32; 8];
        for _ in 0..64 {
            let info_full = full.fill(&mut blocks);
            let (info_fast, template0) = fast.fill_w0s(&mut w0s);
            assert_eq!(info_fast, info_full);
            assert_eq!(template0, blocks[0], "first lane's whole block");
            for (l, b) in blocks.iter().enumerate() {
                assert_eq!(w0s[l], b[0], "lane {l} first word");
                if info_fast.uniform_suffix {
                    assert_eq!(b[1..], template0[1..], "lane {l} shared suffix");
                }
            }
        }
        assert_eq!(fast.next_id(), full.next_id());
        assert_eq!(fast.remaining(), full.remaining());
    }

    #[test]
    #[should_panic]
    fn fill_past_end_panics() {
        let s = KeySpace::new(Charset::from_bytes(b"ab").unwrap(), 1, 1, Order::FirstCharFastest)
            .unwrap();
        let mut bb = BlockBatch::new(&s, BlockLayout::Md5Le, s.interval());
        let mut blocks = [[0u32; 16]; 4];
        bb.fill(&mut blocks); // only 2 candidates exist
    }

    #[test]
    fn interval_is_clamped_and_offset() {
        let s = KeySpace::new(Charset::lowercase(), 1, 3, Order::FirstCharFastest).unwrap();
        let mut bb = BlockBatch::new(&s, BlockLayout::Md5Le, Interval::new(100, 1 << 40));
        assert_eq!(bb.next_id(), 100);
        assert_eq!(bb.remaining(), s.size() - 100);
        let mut blocks = [[0u32; 16]; 2];
        let info = bb.fill(&mut blocks);
        assert_eq!(info.start_id, 100);
        assert_eq!(blocks[0], fresh_block(&s, BlockLayout::Md5Le, 100));
        assert_eq!(blocks[1], fresh_block(&s, BlockLayout::Md5Le, 101));
    }
}
