//! Seeded and exhaustive properties: the one block writer,
//! [`MaskBlocks`] — `fill_rows` / `fill` / `fill_w0s` — is
//! indistinguishable from generating every candidate on its own.
//!
//! The writer copies the candidates between two carries of its slower
//! positions out of a precomputed stepping-word table, touches its digits
//! only at the carry, and rebuilds in place at each segment boundary (a
//! key space's next length, a hybrid's next suffix length or word). The
//! key-space reference below knows nothing of tables: it advances a
//! [`Key`] with [`advance_tracked`] once per candidate, pads it from
//! scratch, and marks a batch uniform exactly when no block word other
//! than `w[0]` differs between its lanes. Blocks, `start_id`,
//! `uniform_suffix` and the writer's `template`, `next_id` and
//! `remaining` must agree after every batch, and the suffix epoch must
//! keep its contract (see [`SuffixEpochs`]).
//!
//! Masks and hybrids get an even blunter reference: lane by lane, the
//! block padded from scratch from `generate(start_id + l)`. The table's
//! edges — a period of exactly its 1 024-entry cap and one cardinality
//! past it, periods shorter than a batch, literals before and after the
//! stepping position — are drawn by the properties and pinned by
//! `table_edges_equal_the_per_key_reference`; every small mask, key space
//! and hybrid is swept from every start identifier by
//! `every_small_space_from_every_start_equals_the_per_key_reference`.
//!
//! The batch is word-major ([`Rows`]) and the buffer remembers which of
//! its rows hold one value in every lane, so every sweep here reuses one
//! buffer from batch to batch, and the last property hands one buffer
//! from writer to writer: whatever it held, a fill leaves exactly the
//! batch in it.
//!
//! The root package runs this file too (`tests/batch_fill.rs` includes
//! it), so the tier-1 `cargo test -q` covers it.

// Indexing below is over fixed-size arrays at offsets bounded by the
// 20-byte key cap; the workspace `clippy::indexing_slicing` escalation
// guards product code, not this reference padder.
#![allow(clippy::indexing_slicing)]

use eks_core::prop::{forall, Rng};
use eks_keyspace::{
    advance_tracked, BatchInfo, BlockBatch, BlockLayout, BlockSpace, Charset, HybridSpace,
    Interval, Key, KeySpace, MaskBlocks, MaskSlot, MaskSpace, Order, Rows,
};

const ORDERS: [Order; 2] = [Order::FirstCharFastest, Order::LastCharFastest];
const LAYOUTS: [BlockLayout; 3] =
    [BlockLayout::Md5Le, BlockLayout::ShaBe, BlockLayout::NtlmUtf16Le];
/// 32 and 33 straddle the table's cap: two 32-symbol positions fill it
/// exactly, a 33-symbol one leaves its slower neighbour outside.
const CHARSET_SIZES: [usize; 8] = [1, 2, 3, 10, 26, 32, 33, 95];

/// `n` distinct printable symbols in a scrambled order, so that a fill
/// that stepped the byte instead of the digit would be caught.
fn charset(n: usize) -> Charset {
    let symbols: Vec<u8> = (0..n).map(|i| b' ' + (i * 37 % 95) as u8).collect();
    Charset::from_bytes(&symbols).expect("37 is coprime to 95: symbols are distinct")
}

/// Pad `key` into its single 64-byte block from scratch.
fn reference_block(layout: BlockLayout, key: &Key) -> [u32; 16] {
    let mut bytes = [0u8; 64];
    let mut len = 0;
    for &b in key.as_bytes() {
        bytes[len] = b;
        len += if layout == BlockLayout::NtlmUtf16Le { 2 } else { 1 };
    }
    bytes[len] = 0x80;
    let bits = (len as u64) * 8;
    let big_endian = layout == BlockLayout::ShaBe;
    let length = if big_endian { bits.to_be_bytes() } else { bits.to_le_bytes() };
    bytes[56..].copy_from_slice(&length);
    let mut block = [0u32; 16];
    for (word, chunk) in block.iter_mut().zip(bytes.chunks_exact(4)) {
        let chunk: [u8; 4] = chunk.try_into().expect("chunks of 4");
        *word = if big_endian { u32::from_be_bytes(chunk) } else { u32::from_le_bytes(chunk) };
    }
    block
}

/// One candidate at a time: the behaviour [`BlockBatch`] must reproduce.
/// Its epoch counts every change of words 1..16 — finer than the
/// contract asks — and decides `uniform_suffix`.
struct Reference<'a> {
    space: &'a KeySpace,
    layout: BlockLayout,
    key: Key,
    block: [u32; 16],
    next_id: u128,
    remaining: u128,
    epoch: u64,
}

impl<'a> Reference<'a> {
    fn new(space: &'a KeySpace, layout: BlockLayout, interval: Interval) -> Self {
        let key = space.key_at(interval.start);
        Self {
            space,
            layout,
            block: reference_block(layout, &key),
            key,
            next_id: interval.start,
            remaining: interval.len,
            epoch: 0,
        }
    }

    fn step(&mut self) {
        advance_tracked(&mut self.key, self.space.charset(), self.space.order());
        let block = reference_block(self.layout, &self.key);
        if block[1..] != self.block[1..] {
            self.epoch += 1;
        }
        self.block = block;
    }

    fn fill<const L: usize>(&mut self) -> ([[u32; 16]; L], BatchInfo) {
        let mut blocks = [[0u32; 16]; L];
        let (start_id, epoch) = (self.next_id, self.epoch);
        for (l, block) in blocks.iter_mut().enumerate() {
            *block = self.block;
            if l + 1 < L {
                self.step();
            }
        }
        let uniform_suffix = self.epoch == epoch;
        self.next_id += L as u128;
        self.remaining -= L as u128;
        if self.remaining > 0 {
            self.step();
        }
        (blocks, BatchInfo { start_id, epoch, uniform_suffix })
    }
}

/// `rows` lane by lane.
fn blocks_of<const L: usize>(rows: &Rows<L>) -> [[u32; 16]; L] {
    core::array::from_fn(|l| rows.block(l))
}

/// The suffix epoch's contract, which every writer keeps: it never
/// decreases, and two batches that report the same one start from the
/// same words 1..16. Together with an exact `uniform_suffix` that is all
/// the reversed-MD5 memo relies on (it rebuilds its reference when a
/// uniform batch's epoch moves) — a writer may bump the epoch more often
/// than the suffix changes, never less.
#[derive(Default)]
struct SuffixEpochs(Option<(u64, [u32; 16])>);

impl SuffixEpochs {
    /// `info` is the next batch, `first` its lane 0's block.
    fn check(&mut self, info: &BatchInfo, first: &[u32; 16], case: &str) {
        let start = info.start_id;
        if let Some((epoch, suffix)) = self.0 {
            assert!(info.epoch >= epoch, "epoch went backwards at id {start}, {case}");
            if info.epoch == epoch {
                assert_eq!(first[1..], suffix[1..], "same epoch, other suffix at id {start}, {case}");
            }
        }
        self.0 = Some((info.epoch, *first));
    }
}

/// `info` describes the same batch as the reference's `want`, the epoch
/// aside.
fn assert_same_batch(info: BatchInfo, want: BatchInfo, case: &str) {
    assert_eq!(info.start_id, want.start_id, "start_id, {case}");
    assert_eq!(info.uniform_suffix, want.uniform_suffix, "uniform_suffix at id {}, {case}", want.start_id);
}

/// Sweep `interval` in batches of `L`, drawing `fill_rows` (into one
/// buffer for the whole sweep), `fill` or `fill_w0s` per batch, and
/// compare everything observable with the reference — the epoch by its
/// contract.
fn check_sweep<const L: usize>(
    space: &KeySpace,
    layout: BlockLayout,
    interval: Interval,
    rng: &mut Rng,
) {
    let mut writer = BlockBatch::new(space, layout, interval);
    let mut reference = Reference::new(space, layout, interval);
    let case = format!(
        "{:?} {layout:?} |charset| {} lengths {}..={} {interval:?} L={L}",
        space.order(),
        space.charset().len(),
        space.min_len(),
        space.max_len(),
    );
    assert_eq!(writer.template(), &reference.block, "first block, {case}");
    let mut rows = Rows::<L>::new();
    let mut epochs = SuffixEpochs::default();
    while writer.remaining() >= L as u128 {
        let (want_blocks, want_info) = reference.fill::<L>();
        let draw = rng.below(4);
        let info = if draw < 2 {
            let info = writer.fill_rows(&mut rows);
            assert_eq!(blocks_of(&rows), want_blocks, "fill_rows at id {}, {case}", info.start_id);
            info
        } else if draw == 2 {
            let mut blocks = [[0u32; 16]; L];
            let info = writer.fill(&mut blocks);
            assert_eq!(blocks, want_blocks, "fill blocks at id {}, {case}", info.start_id);
            info
        } else {
            let mut w0s = [0u32; L];
            let (info, template0) = writer.fill_w0s(&mut w0s);
            assert_eq!(template0, want_blocks[0], "fill_w0s first block, {case}");
            for (l, (w0, want)) in w0s.iter().zip(&want_blocks).enumerate() {
                assert_eq!(*w0, want[0], "fill_w0s lane {l} at id {}, {case}", info.start_id);
            }
            info
        };
        assert_same_batch(info, want_info, &case);
        epochs.check(&info, &want_blocks[0], &case);
        assert_eq!(writer.template(), &reference.block, "template, {case}");
        assert_eq!(writer.next_id(), reference.next_id, "next_id, {case}");
        assert_eq!(writer.remaining(), reference.remaining, "remaining, {case}");
    }
}

/// A start identifier that puts a carry chain, a growth step or the
/// `w[0]` rollover a few candidates ahead: a key whose `k` fastest digits
/// are the last symbol, minus a short run-up — so the sweep begins
/// mid-run and crosses the boundary inside a batch.
fn start_before_a_carry(space: &KeySpace, rng: &mut Rng, run_up: u64) -> u128 {
    let cs = space.charset();
    let len = rng.range(u64::from(space.min_len().max(1)), u64::from(space.max_len())) as usize;
    let k = rng.range(1, len as u64) as usize;
    let bytes: Vec<u8> = (0..len)
        .map(|pos| {
            let fast_rank = match space.order() {
                Order::FirstCharFastest => pos,
                Order::LastCharFastest => len - 1 - pos,
            };
            if fast_rank < k { cs.last() } else { cs.symbol(rng.index(cs.len())) }
        })
        .collect();
    let id = space.id_of(&Key::from_bytes(&bytes)).expect("key built from the space's charset");
    id.saturating_sub(u128::from(rng.below(run_up)))
}

#[test]
fn run_based_fill_equals_the_per_key_reference() {
    for order in ORDERS {
        for layout in LAYOUTS {
            for n in CHARSET_SIZES {
                forall("run-based fill equals per-key reference", 24, |rng| {
                    // Lengths from "fastest digit always in w[0]" up past
                    // the point where, last-char-fastest, it no longer is
                    // (5 bytes, 3 under UTF-16); small charsets reach
                    // several growth steps within a few batches.
                    let min = rng.range(0, 4) as u32;
                    let max = match n {
                        1 => 20,
                        _ => min.max(1) + rng.range(1, 4) as u32,
                    };
                    let space = KeySpace::new(charset(n), min, max, order).expect("fits u128");
                    let width = [8u64, 16, 32][rng.index(3)];
                    let start = if rng.below(3) == 0 {
                        rng.range_u128(0, space.size() - 1)
                    } else {
                        start_before_a_carry(&space, rng, 2 * width)
                    };
                    // Up to a dozen batches and a ragged tail, clamped to
                    // the space by the writer itself.
                    let len = rng.range_u128(1, 12 * u128::from(width) + 5);
                    let interval = Interval::new(start, len).intersect(&space.interval());
                    match width {
                        8 => check_sweep::<8>(&space, layout, interval, rng),
                        16 => check_sweep::<16>(&space, layout, interval, rng),
                        _ => check_sweep::<32>(&space, layout, interval, rng),
                    }
                });
            }
        }
    }
}

/// Last-char-fastest keys longer than `w[0]` holds: the fastest digit's
/// byte is in a suffix word, which the table then steps, so no batch is
/// uniform and no two batches share an epoch. That is the contract the
/// other writers are held to (`uniform_suffix` exact, `epoch` monotone,
/// same epoch ⇒ same words 1..16) and all the reversed-MD5 memo relies
/// on — not an epoch per candidate, which the writer stopped counting
/// when it stopped stepping one candidate at a time.
#[test]
fn fastest_digit_outside_w0_keeps_the_suffix_contract() {
    for layout in LAYOUTS {
        let space =
            KeySpace::new(charset(26), 6, 6, Order::LastCharFastest).expect("fits u128");
        let mut writer = BlockBatch::new(&space, layout, Interval::new(1_000, 64));
        let info = writer.fill_rows(&mut Rows::<16>::new());
        assert!(!info.uniform_suffix, "{layout:?}");
        assert!(writer.epoch() > info.epoch, "{layout:?}: the next batch starts from another suffix");
        let mut rng = Rng::new(7);
        check_sweep::<16>(&space, layout, Interval::new(1_000, 200), &mut rng);
    }
}

/// Sweep `writer` in batches of `L`, into `rows` as it was left by
/// whoever wrote it last, against blocks padded from scratch
/// from `generate(id)`: every lane, `start_id`, `uniform_suffix` (true
/// exactly when the lanes share words 1..16), and the epoch by its
/// contract ([`SuffixEpochs`]). Returns the number of batches checked.
fn check_structured_sweep<const L: usize, S: BlockSpace>(
    space: &S,
    mut writer: MaskBlocks<'_, S>,
    rows: &mut Rows<L>,
    layout: BlockLayout,
    case: &str,
) -> u32 {
    let mut batches = 0;
    let mut epochs = SuffixEpochs::default();
    while writer.remaining() >= L as u128 {
        let (start, remaining) = (writer.next_id(), writer.remaining());
        let info = writer.fill_rows(rows);
        let blocks = blocks_of(rows);
        assert_eq!(info.start_id, start, "start_id, {case}");
        for (l, block) in blocks.iter().enumerate() {
            let id = start + l as u128;
            let want = reference_block(layout, &space.generate(id));
            assert_eq!(*block, want, "lane {l} (id {id}), {case}");
        }
        let uniform = blocks.iter().all(|b| b[1..] == blocks[0][1..]);
        assert_eq!(info.uniform_suffix, uniform, "uniform_suffix at id {start}, {case}");
        epochs.check(&info, &blocks[0], case);
        assert_eq!(writer.next_id(), start + L as u128, "next_id, {case}");
        assert_eq!(writer.remaining(), remaining - L as u128, "remaining, {case}");
        batches += 1;
    }
    batches
}

/// Check the space's writer over one drawn interval; returns the number
/// of batches the interval held.
fn check_structured<S: BlockSpace>(
    space: &S,
    layout: BlockLayout,
    periods: &[u128],
    rng: &mut Rng,
    name: &str,
) -> u32 {
    let size = space.size().expect("finite");
    let width = [8u64, 16, 32][rng.index(3)];
    // Start a short run-up before a multiple of one of `periods` (where
    // the space carries), or anywhere.
    let start = match rng.below(3) {
        0 => rng.range_u128(0, size - 1),
        _ => {
            let period = periods[rng.index(periods.len())];
            let carry = rng.range_u128(0, size / period) * period;
            carry.saturating_sub(u128::from(rng.below(2 * width))).min(size - 1)
        }
    };
    let len = rng.range_u128(1, 12 * u128::from(width) + 5);
    let interval = Interval::new(start, len.min(size - start));
    let case = format!("{name} {layout:?} {interval:?} L={width}");
    match width {
        8 => check_writer::<8, _>(space, layout, interval, &case),
        16 => check_writer::<16, _>(space, layout, interval, &case),
        _ => check_writer::<32, _>(space, layout, interval, &case),
    }
}

/// The space's writer over `interval`, into one fresh buffer.
fn check_writer<const L: usize, S: BlockSpace>(
    space: &S,
    layout: BlockLayout,
    interval: Interval,
    case: &str,
) -> u32 {
    let writer = space.blocks(layout, interval);
    check_structured_sweep(space, writer, &mut Rows::<L>::new(), layout, case)
}

/// A mask of `len` positions: literals, one-symbol sets and sets of 2, 3,
/// 10, 26, 32, 33 or 95 scrambled symbols, so the stepping position — the
/// first one with a choice — lands in every block word a 20-byte key
/// reaches, with literals before it or not, and its table stops short
/// of, at, or one cardinality past the cap. Also returns where the mask
/// carries: the products of its first cardinalities.
fn random_mask(rng: &mut Rng, len: usize) -> (MaskSpace, Vec<u128>) {
    loop {
        let slots: Vec<MaskSlot> = (0..len)
            .map(|_| match rng.below(9) {
                0 => MaskSlot::Literal(b'!' + rng.below(90) as u8),
                k => MaskSlot::Set(charset([1, 2, 3, 10, 26, 32, 33, 95][k as usize - 1])),
            })
            .collect();
        let periods = carry_periods(&slots);
        // Too many 95s overflow u128: draw again.
        if let Ok(mask) = MaskSpace::from_slots(slots) {
            return (mask, periods);
        }
    }
}

/// The products of the first 1, 2, … cardinalities of a mask (position
/// 0 is its fastest digit): the identifiers at whose multiples it
/// carries, short of its size.
fn carry_periods(slots: &[MaskSlot]) -> Vec<u128> {
    let mut periods = vec![1];
    for slot in slots {
        match periods.last().and_then(|p: &u128| p.checked_mul(slot.cardinality())) {
            Some(p) => periods.push(p),
            None => break,
        }
    }
    periods
}

#[test]
fn mask_writer_equals_the_per_key_reference() {
    let mut batches = 0;
    for layout in LAYOUTS {
        for len in 1..=20 {
            forall("mask blocks equal per-key reference", 12, |rng| {
                let (mask, periods) = random_mask(rng, len);
                let name = format!("mask of {len} ({} keys)", mask.size());
                batches += check_structured(&mask, layout, &periods, rng, &name);
            });
        }
    }
    assert!(batches > 2_000, "only {batches} batches: the drawn intervals are too short to test much");
}

/// The table's edges on fixed spaces, under every layout and lane width:
/// a period of exactly the 1 024-entry cap (two 32-symbol positions), one
/// cardinality past it (32 × 33: the slower position shares the word but
/// not the table, so `base` must move on a carry), a period shorter than
/// a batch (`xyz?d?l?l?l?l`: `?d` alone at the last byte of its word,
/// several carries per batch), literals before and after the stepping
/// position inside and outside its word, and sets of 1, 2, 3 and 95
/// symbols; then key spaces of 32 and 33 symbols, both orders, across
/// growth and the first carries that move `base`.
#[test]
fn table_edges_equal_the_per_key_reference() {
    let set = |n| MaskSlot::Set(charset(n));
    let lit = MaskSlot::Literal;
    let masks: [Vec<MaskSlot>; 11] = [
        vec![set(32), set(32), set(3)],
        vec![set(32), set(33), set(2)],
        vec![set(32), set(33)],
        vec![lit(b'x'), lit(b'y'), lit(b'z'), set(10), set(26), set(26), set(26), set(26)],
        vec![set(3), set(2), lit(b'x'), lit(b'y')],
        vec![lit(b'y'), lit(b'x'), set(2), set(3)],
        vec![set(2), set(3), set(2), lit(b'x'), lit(b'y'), lit(b'z')],
        vec![lit(b'z'), lit(b'y'), lit(b'x'), set(2), set(3), set(2)],
        vec![set(2), set(95), set(95)],
        vec![set(1), set(2), set(1), set(3), set(1)],
        vec![set(1), set(3), set(1), set(2), set(1)],
    ];
    for layout in LAYOUTS {
        for slots in &masks {
            let mask = MaskSpace::from_slots(slots.clone()).expect("fits u128");
            for interval in windows(mask.size(), &carry_periods(slots)) {
                let case = format!("mask {slots:?} {layout:?} {interval:?}");
                check_writer::<8, _>(&mask, layout, interval, &case);
                check_writer::<16, _>(&mask, layout, interval, &case);
                check_writer::<32, _>(&mask, layout, interval, &case);
            }
        }
        for n in [32, 33] {
            for order in ORDERS {
                let space = KeySpace::new(charset(n), 1, 3, order).expect("fits u128");
                // Lengths 1 and 2, both growth steps, and the first
                // carry past two table positions (a base move wherever
                // the third position shares their word).
                let interval = Interval::new(0, (n + 2 * n * n + 40) as u128);
                let mut rng = Rng::new(n as u64);
                check_sweep::<8>(&space, layout, interval, &mut rng);
                check_sweep::<16>(&space, layout, interval, &mut rng);
                check_sweep::<32>(&space, layout, interval, &mut rng);
            }
        }
    }
}

/// The whole of a small space; else 200 identifiers around the first
/// carry of each period.
fn windows(size: u128, periods: &[u128]) -> Vec<Interval> {
    let whole = Interval::new(0, size);
    if size <= 4096 {
        return vec![whole];
    }
    periods
        .iter()
        .filter(|&&p| p > 1 && p < size)
        .map(|&p| Interval::new(p - p.min(40), 200).intersect(&whole))
        .collect()
}

/// The writer over hybrids, each word and suffix length a segment of its
/// own, so batches cross boundaries where the key length and the prefix
/// change.
#[test]
fn advance_and_repad_writer_equals_the_per_key_reference() {
    let mut batches = 0;
    for layout in LAYOUTS {
        forall("hybrid blocks equal per-key reference", 48, |rng| {
            // Words of different lengths (one repeated), so a batch that
            // spans a word boundary changes length mid-batch.
            let mut words: Vec<Vec<u8>> = (0..rng.range(1, 40))
                .map(|_| {
                    let len = rng.range(1, 12) as usize;
                    rng.vec(len, |r| b'a' + r.below(26) as u8)
                })
                .collect();
            words.push(words[0].clone());
            let refs: Vec<&[u8]> = words.iter().map(Vec::as_slice).collect();
            let space = match rng.below(3) {
                0 => HybridSpace::dictionary_only(&refs),
                1 => HybridSpace::with_digit_suffixes(&refs, rng.range(1, 3) as u32),
                _ => {
                    let order = ORDERS[rng.index(2)];
                    let min = rng.range(0, 2) as u32;
                    let suffix = KeySpace::new(charset(3), min, min + rng.range(0, 3) as u32, order);
                    HybridSpace::new(&refs, suffix.expect("fits u128"))
                }
            }
            .expect("words + suffix fit a key");
            let name = format!("hybrid of {} keys", space.size());
            batches += check_structured(&space, layout, &[10, 26, 100, 111, 676, 1000], rng, &name);
        });
    }
    assert!(batches > 300, "only {batches} batches: the drawn intervals are too short to test much");
}

/// One batch from a fresh writer at `start` into `rows`, whatever `rows`
/// held, is exactly the `L` blocks padded from scratch.
fn check_one_batch<const L: usize, S: BlockSpace>(
    space: &S,
    layout: BlockLayout,
    start: u128,
    rows: &mut Rows<L>,
    case: &str,
) {
    let info = space.blocks(layout, Interval::new(start, L as u128)).fill_rows(rows);
    assert_eq!(info.start_id, start, "{case}");
    for l in 0..L {
        let id = start + l as u128;
        let want = reference_block(layout, &space.generate(id));
        assert_eq!(rows.block(l), want, "lane {l} (id {id}) {layout:?}, {case}");
    }
}

/// The uniformity state lives in the buffer, not in a writer: one `Rows`
/// handed from writer to writer — other spaces, other layouts, other
/// stepping words, intervals that start mid-run — holds exactly the batch
/// last written. Includes the lane loop's own hand-over: a `w[0]`-only
/// sweep that leaves the buffer untouched for many batches, interrupted by
/// a fresh writer rebuilding one batch's full blocks, and finally
/// abandoned for full fills by the sweeping writer itself.
#[test]
fn one_rows_buffer_serves_any_sequence_of_writers() {
    const L: usize = 16;
    forall("stale rows", 64, |rng| {
        let mut rows = Rows::<L>::new();
        let keys = KeySpace::new(charset(3), 1, 8, ORDERS[rng.index(2)]).expect("fits u128");
        let mask_len = rng.range(2, 12) as usize;
        let (mask, _) = random_mask(rng, mask_len);
        let hybrid = HybridSpace::with_digit_suffixes(&[b"alpha".as_slice(), b"be", b"gamma-ray"], 2)
            .expect("words + suffix fit a key");
        for step in 0..12 {
            let layout = LAYOUTS[rng.index(3)];
            match rng.below(3) {
                0 => {
                    let start = rng.range_u128(0, keys.size() - L as u128);
                    check_one_batch(&keys, layout, start, &mut rows, &format!("step {step}: keys"));
                }
                1 if mask.size() >= L as u128 => {
                    let start = rng.range_u128(0, mask.size() - L as u128);
                    check_one_batch(&mask, layout, start, &mut rows, &format!("step {step}: mask"));
                }
                _ => {
                    let start = rng.range_u128(0, hybrid.size() - L as u128);
                    check_one_batch(&hybrid, layout, start, &mut rows, &format!("step {step}: hybrid"));
                }
            }
        }

        // The lane loop's hand-over, on a space whose `w[0]` rolls over
        // every 27 candidates so that rebuilds are frequent.
        let keys = KeySpace::new(charset(3), 3, 6, Order::FirstCharFastest).expect("fits u128");
        let layout = LAYOUTS[rng.index(3)];
        let mut sweep = keys.blocks(layout, keys.interval());
        let mut w0s = [0u32; L];
        for _ in 0..rng.range(1, 20) {
            let (info, _) = sweep.fill_w0s(&mut w0s);
            if !info.uniform_suffix || rng.below(4) == 0 {
                check_one_batch(&keys, layout, info.start_id, &mut rows, "rebuild under the w0 sweep");
            }
        }
        let mut reference = Reference::new(&keys, layout, Interval::new(sweep.next_id(), sweep.remaining()));
        reference.epoch = sweep.epoch();
        for _ in 0..8 {
            let (want_blocks, want_info) = reference.fill::<L>();
            assert_eq!(sweep.fill_rows(&mut rows), want_info, "full fills after the w0 sweep");
            assert_eq!(blocks_of(&rows), want_blocks, "full fills after the w0 sweep");
        }
    });
}

/// Sweep `space` from `start` to its end in batches of `L` through a
/// fresh writer, alternating `fill_rows` (one buffer for the sweep) and
/// `fill_w0s`, and compare every lane, `uniform_suffix`, the epoch
/// contract and the template with blocks padded from scratch from
/// `generate(id)`.
fn check_from<const L: usize, S: BlockSpace>(
    space: &S,
    layout: BlockLayout,
    start: u128,
    case: &str,
) {
    let size = space.size().expect("finite");
    let want = |id: u128| reference_block(layout, &space.generate(id));
    let mut writer = space.blocks(layout, Interval::new(start, size - start));
    let mut rows = Rows::<L>::new();
    let mut epochs = SuffixEpochs::default();
    assert_eq!(writer.template(), &want(start), "first block from {start}, {case}");
    let mut batch = 0;
    while writer.remaining() >= L as u128 {
        let (info, blocks) = if batch % 2 == 0 {
            let info = writer.fill_rows(&mut rows);
            (info, blocks_of(&rows))
        } else {
            let mut w0s = [0u32; L];
            let (info, template0) = writer.fill_w0s(&mut w0s);
            let id0 = info.start_id;
            assert_eq!(template0, want(id0), "fill_w0s first block at {id0}, {case}");
            // Words 1..16 as the reference has them: only `w[0]` is
            // checked from the writer.
            let blocks: [[u32; 16]; L] = core::array::from_fn(|l| {
                let mut block = want(info.start_id + l as u128);
                assert_eq!(w0s[l], block[0], "fill_w0s lane {l} at {}, {case}", info.start_id);
                block[0] = w0s[l];
                block
            });
            (info, blocks)
        };
        let id0 = start + batch * L as u128;
        assert_eq!(info.start_id, id0, "start_id, {case}");
        for (l, block) in blocks.iter().enumerate() {
            let id = id0 + l as u128;
            assert_eq!(*block, want(id), "lane {l} (id {id}) from {start}, {case}");
        }
        let uniform = blocks.iter().all(|b| b[1..] == blocks[0][1..]);
        assert_eq!(info.uniform_suffix, uniform, "uniform_suffix at id {id0} from {start}, {case}");
        epochs.check(&info, &blocks[0], case);
        let next = id0 + L as u128;
        assert_eq!(writer.next_id(), next, "next_id, {case}");
        assert_eq!(writer.remaining(), size - next, "remaining, {case}");
        assert_eq!(writer.template(), &want(next.min(size - 1)), "template at {next}, {case}");
        batch += 1;
    }
}

/// [`check_from`] from every start identifier, under every layout, at
/// the lane widths the kernels use and at 2 (where a batch may hold no
/// two lanes of one run). Returns the number of sweeps that held a
/// batch.
fn check_every_start<S: BlockSpace>(space: &S, case: &str) -> u32 {
    let size = space.size().expect("finite");
    let mut swept = 0;
    for layout in LAYOUTS {
        for start in 0..size {
            let case = format!("{case} {layout:?}");
            check_from::<2, _>(space, layout, start, &case);
            check_from::<8, _>(space, layout, start, &case);
            check_from::<16, _>(space, layout, start, &case);
            check_from::<32, _>(space, layout, start, &case);
            swept += [2, 8, 16, 32].iter().filter(|&&l| size - start >= l).count() as u32;
        }
    }
    swept
}

/// Bounded-exhaustive: every mask of up to three positions over literals
/// and sets of 1, 2 and 3 symbols, bare and behind a four-byte literal
/// prefix (the stepping byte in `w[1]` under every layout); every key
/// space of lengths within 0..=3 over 1, 2 and 3 symbols, both orders
/// (growth inside a batch, the empty key); and hybrids of one to three
/// words of 1 to 6 bytes — every ordered pair of lengths, and triples —
/// with suffixes of lengths 0..=0, 0..=2 and 1..=2 in both orders, so
/// the stepping byte moves between `w[0]` and `w[1]` at word boundaries
/// inside a batch. Each is swept from every start identifier under every
/// layout at L = 2, 8, 16 and 32.
#[test]
fn every_small_space_from_every_start_equals_the_per_key_reference() {
    let mut swept = 0;
    let kinds = [
        MaskSlot::Literal(b'q'),
        MaskSlot::Set(charset(1)),
        MaskSlot::Set(charset(2)),
        MaskSlot::Set(charset(3)),
    ];
    for len in 1..=3 {
        for code in 0..kinds.len().pow(len) {
            let slots: Vec<MaskSlot> = (0..len).map(|i| kinds[code / 4usize.pow(i) % 4].clone()).collect();
            let prefix = b"wxyz".iter().map(|&b| MaskSlot::Literal(b));
            for slots in [slots.clone(), prefix.chain(slots).collect()] {
                let mask = MaskSpace::from_slots(slots.clone()).expect("fits u128");
                swept += check_every_start(&mask, &format!("mask {slots:?}"));
            }
        }
    }
    for n in 1..=3 {
        for order in ORDERS {
            for min in 0..=3 {
                for max in min..=3 {
                    let space = KeySpace::new(charset(n), min, max, order).expect("fits u128");
                    let case = format!("keys |c| {n} {order:?} {min}..={max}");
                    swept += check_every_start(&space, &case);
                }
            }
        }
    }
    // Every ordered pair of word lengths, and triples around a pair.
    let mut lists: Vec<Vec<usize>> = (1..=6).map(|a| vec![a]).collect();
    lists.extend((1..=6).flat_map(|a| (1..=6).map(move |b| vec![a, b])));
    lists.extend((1..=6).map(|a| vec![a, 7 - a, a]));
    for lens in &lists {
        let words: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| (0..len).map(|j| b'a' + ((i * 7 + j) % 26) as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = words.iter().map(Vec::as_slice).collect();
        for order in ORDERS {
            for (min, max) in [(0, 0), (0, 2), (1, 2)] {
                let suffix = KeySpace::new(charset(3), min, max, order).expect("fits u128");
                let hybrid = HybridSpace::new(&refs, suffix).expect("words + suffix fit a key");
                let case = format!("hybrid {lens:?} {order:?} {min}..={max}");
                swept += check_every_start(&hybrid, &case);
            }
        }
    }
    assert!(swept > 25_000, "only {swept} sweeps held a batch");
}
