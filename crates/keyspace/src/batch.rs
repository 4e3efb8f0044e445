//! Zero-allocation candidate generation into pre-padded message blocks.
//!
//! A cracking kernel never re-pads a candidate from scratch: the padded
//! 64-byte block of `f(id+1)` differs from that of `f(id)` in exactly the
//! bytes the `next` operator changed — usually one (Section IV: "in most
//! cases it modifies just a single character") — plus, rarely, the
//! terminator and length words when the key grows. [`MaskBlocks`], the
//! one writer, exploits this over any [`BlockSpace`]: every such space is
//! a run of fixed-length masks (`Segment`s), and the writer keeps the
//! current candidate's digits and fully padded 16-word block, mirrors
//! each carry's byte delta into that template, and hands out batches of
//! `L` candidates for the lane-parallel compression cores, word-major
//! ([`Rows`]): the stepping word's row is written per candidate, every
//! other row only from the lane at which a carry moved it. Steady state
//! writes one word per candidate and performs **no heap allocation** —
//! the digits and the table below are inline, the batch output lives on
//! the caller's stack — not even at a mask boundary, where the writer
//! rebuilds in place as it does at a carry.
//!
//! Between two carries of its slower positions even `next` is more than
//! the writer needs: the candidates differ only in the fastest position
//! and the next few that share its block word, and that word's value at
//! every combination of them is precomputed once (`StepTable`: `?l?l`
//! in `w[0]`, 676 entries, for a first-char-fastest lowercase sweep). A
//! batch copies the row out of the table run by run and touches
//! the digits and the template once per table period — at the carry —
//! instead of once per candidate. That is what makes `K_next` vanish
//! next to `K_C` (Section III) on a host core too.
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

use crate::interval::Interval;
use crate::key::MAX_KEY_LEN;
use crate::source::{BlockSpace, Rows, Segment, StepTable, TABLE_CAP};
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
    fn msg_len(self, key_len: usize) -> usize {
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
    /// bytes) — no [`Key`](crate::Key) does, under any layout.
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

/// Metadata for one batch handed out by a [`MaskBlocks`].
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

/// The one block writer: walks an interval of a [`BlockSpace`] segment by
/// segment, keeping one digit per position and the current candidate's
/// padded block, and hands out batches of `L` candidates word-major.
///
/// Within a segment the candidates differ in its fastest digits with a
/// choice — as many as share the fastest one's block word and fit a
/// `StepTable` — between two carries of the slower ones, and the table
/// holds that word's value at every combination of them (`?l?l` in `w[0]`
/// for a first-char-fastest lowercase sweep, 676 entries; `?u?l` for
/// `?u?l?l?d`): a batch copies the stepping word's row out of it run by
/// run and settles the slower digits once per period. Every other
/// row holds one value in all lanes unless a carry inside the batch moved
/// it, and is then rewritten from that lane on. A carry past the
/// segment's last candidate rebuilds the digits, the template and the
/// table in place from the next segment — a key space's next length, a
/// hybrid's next suffix length or word — so a batch spans boundaries as
/// it spans carries. No reverse charset look-up, no `key_at` after the
/// first candidate, no heap.
#[derive(Debug, Clone)]
pub struct MaskBlocks<'a, S> {
    space: &'a S,
    layout: BlockLayout,
    /// The segment of the candidate `next_id` maps to, and its index.
    segment: Segment<'a>,
    k: usize,
    /// That candidate's digits by significance (0 the fastest); those of
    /// the table's positions are not kept up to date.
    digits: [u8; MAX_KEY_LEN],
    /// Its padded block; inside a batch, the table positions' bytes lag
    /// behind.
    template: [u32; 16],
    /// The stepping word over the fastest digits with a choice (none
    /// when the segment has no choice); digits before them never move.
    table: StepTable,
    /// The digits slower than the table's: `slow..`.
    slow: usize,
    next_id: u128,
    remaining: u128,
    epoch: u64,
    /// The segment's candidates share words 1..16 in runs of at least
    /// `TABLE_CAP`: the `w[0]`-only fill pays there.
    w0_runs: bool,
    /// False once [`MaskBlocks::try_fill_w0s`] has declined.
    w0: bool,
}

/// The writer over a [`KeySpace`], under the name the per-layer
/// benchmark links.
pub type BlockBatch<'a> = MaskBlocks<'a, KeySpace>;

impl<'a, S: BlockSpace> MaskBlocks<'a, S> {
    /// Create a writer over `interval` (clamped to the space bounds).
    pub fn new(space: &'a S, layout: BlockLayout, interval: Interval) -> Self {
        let clamped = interval.intersect(&Interval::new(0, space.size().unwrap_or(u128::MAX)));
        // An empty interval keeps the first candidate and never hands it
        // out.
        let (k, offset) = space.locate(if clamped.is_empty() { 0 } else { clamped.start });
        let mut writer = Self {
            space,
            layout,
            segment: space.segment(k),
            k,
            digits: [0; MAX_KEY_LEN],
            template: [0; 16],
            table: StepTable::new(),
            slow: 0,
            next_id: clamped.start,
            remaining: clamped.len,
            epoch: 0,
            w0_runs: false,
            w0: true,
        };
        writer.enter(k, offset);
        writer
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

    /// The padded block of the candidate `next_id` maps to (of the last
    /// one handed out, once none remain).
    #[inline]
    pub fn template(&self) -> &[u32; 16] {
        &self.template
    }

    /// Write the next `L` candidates' padded blocks into `rows` and
    /// advance; lane `l` receives the block of identifier `start_id + l`.
    /// `rows` may hold anything on entry — another writer's batch
    /// included — and holds exactly these `L` blocks on return.
    ///
    /// # Panics
    /// Panics when fewer than `L` candidates remain — the caller owns the
    /// tail (scalar path).
    #[inline]
    pub fn fill_rows<const L: usize>(&mut self, rows: &mut Rows<L>) -> BatchInfo {
        self.emit::<L>(|l, mut moved, template, word, base, entries| {
            while moved != 0 {
                let w = moved.trailing_zeros() as usize;
                rows.from_lane(w, l, template[w]);
                moved &= moved - 1;
            }
            for (o, &e) in rows.row_mut(word)[l..].iter_mut().zip(entries) {
                *o = base | e;
            }
        })
    }

    /// [`MaskBlocks::fill_rows`] transposed to one block per lane, for
    /// callers that read blocks one at a time.
    ///
    /// # Panics
    /// Panics when fewer than `L` candidates remain.
    pub fn fill<const L: usize>(&mut self, out: &mut [[u32; 16]; L]) -> BatchInfo {
        let mut rows = Rows::<L>::new();
        let info = self.fill_rows(&mut rows);
        for (l, block) in out.iter_mut().enumerate() {
            *block = rows.block(l);
        }
        info
    }

    /// Write the next `L` candidates' **first block words** into `out`
    /// and advance, returning the batch metadata and the padded block of
    /// the batch's first candidate (its words 1..16 are shared by every
    /// lane whenever `uniform_suffix` holds).
    ///
    /// This is the reversed-MD5 fast path: when a search varies only the
    /// leading 4 key bytes, the kernel needs one word per candidate —
    /// 1/16th of a whole block's stores. When the returned info says the
    /// suffix moved mid-batch (rare: once per `w[0]` rollover), the
    /// caller must reconstruct full blocks for these identifiers and take
    /// the forward path instead.
    ///
    /// # Panics
    /// Panics when fewer than `L` candidates remain.
    #[inline]
    pub fn fill_w0s<const L: usize>(&mut self, out: &mut [u32; L]) -> (BatchInfo, [u32; 16]) {
        let template0 = self.template;
        let info = self.emit::<L>(|l, _, template, word, base, entries| {
            let out = &mut out[l..l + entries.len()];
            if word == 0 {
                for (o, &e) in out.iter_mut().zip(entries) {
                    *o = base | e;
                }
            } else {
                out.fill(template[0]);
            }
        });
        (info, template0)
    }

    /// [`MaskBlocks::fill_w0s`] where the current segment's candidates
    /// differ only in `w[0]` for runs of at least `TABLE_CAP` (a
    /// first-char-fastest key space; `?u?l?l?d`, all in `w[0]`; not
    /// `abc?d?l?l`, whose `?d` carries into `w[1]` every ten); `None`
    /// otherwise, and from then on for the whole interval, having
    /// consumed nothing: the caller should
    /// [`fill_rows`](MaskBlocks::fill_rows). Each batch that crosses the
    /// end of a run costs the caller a rebuild from a fresh writer (up to
    /// a whole table); at one per `TABLE_CAP` candidates that stays below
    /// one table entry per candidate.
    #[inline]
    pub fn try_fill_w0s<const L: usize>(
        &mut self,
        out: &mut [u32; L],
    ) -> Option<(BatchInfo, [u32; 16])> {
        self.w0 &= self.w0_runs;
        self.w0.then(|| self.fill_w0s(out))
    }

    /// Hand the next `L` candidates out run by run and advance past them.
    /// `run(l, moved, template, word, base, entries)`: lanes `l..l +
    /// entries.len()` hold `template` with word `word` replaced by `base |
    /// entries[i]`, and the other words set in `moved` (one bit each) may
    /// differ from lane `l - 1`'s — from whatever the output held, at lane
    /// 0.
    ///
    /// # Panics
    /// Panics when fewer than `L` candidates remain.
    #[inline(always)]
    fn emit<const L: usize>(
        &mut self,
        mut run: impl FnMut(usize, u16, &[u32; 16], usize, u32, &[u32]),
    ) -> BatchInfo {
        assert!(
            self.remaining >= L as u128,
            "fill of {L} lanes with only {} candidates remaining",
            self.remaining
        );
        let (start_id, epoch) = (self.next_id, self.epoch);
        // Two lanes of one run differ in a stepping word other than `w[0]`.
        let mut stepped = false;
        let mut moved = u16::MAX;
        let mut l = 0;
        loop {
            // The lanes up to the next carry differ in the table
            // positions alone: their stepping words come out of it.
            let word = self.table.word();
            let (base, entries) = self.table.take(L - l);
            run(l, moved & !(1 << word), &self.template, word, base, entries);
            stepped |= word != 0 && entries.len() > 1;
            l += entries.len();
            if l == L {
                break;
            }
            moved = self.carry();
        }
        let uniform_suffix = self.epoch == epoch && !stepped;
        // A stepping word other than `w[0]` moves the suffix from lane to
        // lane, so the next batch starts from another one; a carry
        // positioning the writer for it counts its own moves.
        if stepped || self.table.word() != 0 {
            self.epoch += 1;
        }
        self.next_id += L as u128;
        self.remaining -= L as u128;
        if self.remaining == 0 {
            self.settle(self.table.j() - 1);
        } else {
            if self.table.at_end() {
                self.carry();
            }
            self.settle(self.table.j());
        }
        BatchInfo { start_id, epoch, uniform_suffix }
    }

    /// Bring the template's stepping word to the table's combined digit
    /// `j`.
    #[inline]
    fn settle(&mut self, j: usize) {
        self.template[self.table.word()] = self.table.value(j);
    }

    /// The carry out of the table: its digits wrap to 0 and the next
    /// slower one that can steps; past the segment's last candidate, the
    /// next segment's first. Returns the template words to rewrite, one
    /// bit each.
    fn carry(&mut self) -> u16 {
        let segment = self.segment;
        let can_step = |rank: usize| usize::from(self.digits[rank]) + 1 < segment.digit(rank).1.len();
        let Some(rank) = (self.slow..segment.positions()).find(|&rank| can_step(rank)) else {
            return self.next_segment();
        };
        let mut changed = self.set_digit(rank, usize::from(self.digits[rank]) + 1);
        for wrapped in self.slow..rank {
            changed |= self.set_digit(wrapped, 0);
        }
        // The table's own bytes wrapped too: a suffix move when they live
        // outside `w[0]`.
        if changed & !1 != 0 || self.table.word() != 0 {
            self.epoch += 1;
        }
        self.table.restart(&self.template);
        changed
    }

    /// From the segment's last candidate to the next segment's first; the
    /// suffix epoch moves when words 1..16 do. Returns the template words
    /// changed, and the word the segment stepped, one bit each.
    fn next_segment(&mut self) -> u16 {
        let stepped = self.table.word();
        self.settle(self.table.last());
        let last = self.template;
        self.enter(self.k + 1, 0);
        let changed = (0..16).fold(0, |bits, w| bits | u16::from(last[w] != self.template[w]) << w);
        if changed & !1 != 0 {
            self.epoch += 1;
        }
        changed | 1 << stepped
    }

    /// Move to the candidate at `offset` in segment `k`: its digits (a
    /// mixed-radix decode), its block padded from scratch, and the table
    /// over its fastest digits with a choice.
    fn enter(&mut self, k: usize, mut offset: u128) {
        let space: &'a S = self.space;
        let segment = space.segment(k);
        let mut key = [0u8; MAX_KEY_LEN];
        key[..segment.prefix.len()].copy_from_slice(segment.prefix);
        let mut fast = segment.positions();
        // Candidates in a row that share words 1..16: the product of the
        // cardinalities up to the first digit outside `w[0]`, if any.
        let mut w0_run: Option<u128> = None;
        let mut run: u128 = 1;
        for rank in 0..segment.positions() {
            let (pos, symbols) = segment.digit(rank);
            let mut digit = 0;
            if offset != 0 {
                let card = symbols.len() as u128;
                digit = (offset % card) as usize;
                offset /= card;
            }
            self.digits[rank] = digit as u8;
            key[pos] = symbols[digit];
            if symbols.len() > 1 {
                fast = fast.min(rank);
            }
            if w0_run.is_none() && self.layout.key_byte_slot(pos).0 != 0 {
                w0_run = Some(run);
            }
            run = run.saturating_mul(symbols.len() as u128);
        }
        self.w0_runs = fast < segment.positions() && w0_run.is_none_or(|run| run >= TABLE_CAP as u128);
        self.template = self.layout.pad(&key[..segment.len()]);
        let (layout, digits) = (self.layout, &self.digits);
        self.table.build(
            &self.template,
            (fast..segment.positions()).map(|rank| {
                let (pos, symbols) = segment.digit(rank);
                let (word, shift) = layout.key_byte_slot(pos);
                (word, shift, symbols, usize::from(digits[rank]))
            }),
        );
        self.slow = fast + self.table.positions();
        (self.segment, self.k) = (segment, k);
    }

    /// Set digit `rank` to `digit`, in the digits and in the template.
    /// Returns the template word, as a bit, when its value changed.
    #[inline]
    fn set_digit(&mut self, rank: usize, digit: usize) -> u16 {
        let (pos, symbols) = self.segment.digit(rank);
        self.digits[rank] = digit as u8;
        let (word, shift) = self.layout.key_byte_slot(pos);
        let old = self.template[word];
        self.template[word] = (old & !(0xff << shift)) | u32::from(symbols[digit]) << shift;
        u16::from(self.template[word] != old) << word
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charset::Charset;
    use crate::encode::Order;
    use crate::mask::MaskSpace;

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
    fn w0_fills_are_offered_where_runs_stay_in_w0() {
        let mut w0s = [0u32; 8];
        let keys = |order| KeySpace::new(Charset::lowercase(), 1, 6, order).unwrap();
        let first = keys(Order::FirstCharFastest);
        assert!(first.blocks(BlockLayout::Md5Le, first.interval()).try_fill_w0s(&mut w0s).is_some());
        // Six-byte keys step their last byte, in `w[1]`.
        let last = keys(Order::LastCharFastest);
        let tail = Interval::new(last.size() - 64, 64);
        assert!(last.blocks(BlockLayout::Md5Le, tail).try_fill_w0s(&mut w0s).is_none());
        let mask = MaskSpace::parse("?u?l?l?d").unwrap();
        let whole = Interval::new(0, mask.size());
        assert!(mask.blocks(BlockLayout::Md5Le, whole).try_fill_w0s(&mut w0s).is_some());
        // `?d` carries into `w[1]` every ten candidates.
        let mask = MaskSpace::parse("abc?d?l?l").unwrap();
        let whole = Interval::new(0, mask.size());
        assert!(mask.blocks(BlockLayout::Md5Le, whole).try_fill_w0s(&mut w0s).is_none());
        // The empty key has no choice; declined once, declined for good,
        // though the one-byte keys after it would run in `w[0]`.
        let keys = KeySpace::new(Charset::lowercase(), 0, 4, Order::FirstCharFastest).unwrap();
        let mut writer = keys.blocks(BlockLayout::Md5Le, keys.interval());
        assert!(writer.try_fill_w0s(&mut w0s).is_none());
        writer.fill_rows(&mut Rows::<8>::new());
        assert!(writer.try_fill_w0s(&mut w0s).is_none());
        let rest = Interval::new(1, keys.size() - 1);
        assert!(keys.blocks(BlockLayout::Md5Le, rest).try_fill_w0s(&mut w0s).is_some());
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
