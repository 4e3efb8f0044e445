//! Lane-batched interval scanning: the CPU mirror of the paper's
//! one-thread-per-candidate GPU kernels.
//!
//! Where the scalar engine ([`crate::search::crack_interval`]) tests one
//! candidate at a time (generate, hash, compare — with a heap-allocated
//! digest per test), this module tests `L` candidates in lockstep, exactly as `L` threads of a
//! warp would: the space's block writer puts `L` consecutive candidates'
//! pre-padded blocks in place (no allocation), a [`LaneHasher`] hashes
//! all lanes together, and the [`TargetSet`] prefilter reduces the common
//! miss to one vector compare of the whole batch per target word.
//!
//! The batch has one layout from writer to kernel: *word-major*
//! ([`Rows`] — row `w` is block word `w` of all `L` candidates). That is
//! what a kernel loads (one vector per message word) and what a writer
//! can produce cheaply (fifteen of sixteen rows hold one value in every
//! lane and are left alone while it does not change), so nothing that is
//! constant across candidates moves per candidate — the host form of the
//! paper's "`K_next` vanishes next to `K_C`". The kernel's first state
//! word comes back as a row too; the prefilter turns the whole row into a
//! lane mask at once ([`TargetSet::prefilter_row`]) and the rare survivor
//! is confirmed by the oracle's own test.
//!
//! That loop exists once (`crack_lanes`), behind one entry point
//! ([`crack_interval_batched`]), and is generic in two directions. *Where
//! the blocks come from* is the space's business ([`BlockSpace::blocks`]):
//! `BlockBatch` for a `KeySpace` and `MaskBlocks` for a mask, which copy
//! the stepping word's row out of a precomputed table and settle their
//! counter once per table period, the advance-and-re-pad `KeyBlocks` for
//! a hybrid dictionary —
//! Section III's "only `f` and `next` change". *What hashes them* is the
//! [`Kernel`]: one family of compression cores (`eks-hashes::simd`),
//! instantiated per ISA behind runtime detection — what
//! [`Kernel::detect`], hence every CPU backend, picks where the CPU has
//! one — or over plain arrays ([`AutoVec`], `L` = 8 or 16), which the compiler vectorises only as far as the *build's*
//! target allows: with `-C target-cpu=native` it does, in the baseline
//! x86-64 build it emits scalar code (a whole scan costs 40–51 ns/key
//! for single-target MD5 and 118–133 for SHA-1, against 5 and 12 on
//! AVX-512: BENCH_cracker.json, `portable8`/`portable16` vs `cpu`). The portable instantiation is the fallback for CPUs without
//! an explicit ISA and a second participant in the equivalence tests.
//!
//! The step-reversal optimization (Section V-B) composes with batching:
//! when a batch's candidates share every block word except `w[0]` —
//! reported by [`BatchInfo::uniform_suffix`], by every writer — and a
//! single target is sought, one reversed branch runs instead of the
//! forward hash, with the reversed reference memoized per suffix epoch.
//! For MD5 that is 49 of 64 steps and a four-word compare; for MD4 (NTLM)
//! 15 steps are reversed and the early exit drops 3 more, so a lane costs
//! 30 of 48 steps and one word, compared as `prefilter_row` compares a
//! forward row. Writers step `w[0]` wherever the space lets them: a
//! `KeySpace` in first-char-fastest order and every mask whose first
//! position with a choice lies in `w[0]` (`?u?l?l?d`: `?u?l` under NTLM).
//! Writing *only* `w[0]` per candidate on top of that
//! ([`BlockSource::try_fill_w0s`]) is a capability `BlockBatch` alone
//! offers, and the MD5 branch alone uses.
//!
//! The scalar engine remains the correctness oracle: tails shorter than
//! `L` and algorithms with no lockstep formulation (`Md5Iter`) fall back
//! to it, and the property tests assert batched and scalar sweeps produce
//! identical hits. (No [`Key`] is long enough for its message to leave
//! the single block the kernels hash.)
//!
//! [`BatchInfo::uniform_suffix`]: eks_keyspace::BatchInfo

use std::sync::atomic::AtomicBool;
use std::time::Instant;

use eks_engine::PollCursor;
use eks_hashes::{AutoVec, HashAlgo, LaneHasher, Md4PrefixSearch, Md5PrefixSearch, SimdHasher};
use eks_keyspace::{BlockLayout, BlockSource, BlockSpace, Interval, Key, Rows};
use eks_telemetry::{names, Counter, Histogram, Telemetry};

#[cfg(test)]
use eks_engine::POLL_CHUNK;
use crate::search::{crack_interval, CrackOutcome};
use crate::target::TargetSet;

/// Lane width of the *portable* batched test path — how many candidates
/// [`Kernel::Portable`] tests in lockstep. It says nothing about
/// registers: whether a width vectorises is up to the compiler and the
/// build's target features, and [`Kernel::detect`] picks the explicit-SIMD
/// kernel (16 or 32 keys per batch) instead when the CPU has one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Lanes {
    /// The scalar reference path: one candidate at a time.
    Scalar,
    /// 8 candidates per batch.
    #[default]
    L8,
    /// 16 candidates per batch.
    L16,
}

impl Lanes {
    /// Candidates per batch; 0 for the scalar path.
    pub fn width(self) -> usize {
        match self {
            Lanes::Scalar => 0,
            Lanes::L8 => 8,
            Lanes::L16 => 16,
        }
    }

    /// Parse a CLI argument: `scalar`/`1`, `8`, or `16`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "scalar" | "1" => Some(Lanes::Scalar),
            "8" => Some(Lanes::L8),
            "16" => Some(Lanes::L16),
            _ => None,
        }
    }

    /// Human-readable name (mirrors [`Lanes::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            Lanes::Scalar => "scalar",
            Lanes::L8 => "8",
            Lanes::L16 => "16",
        }
    }
}

impl std::fmt::Display for Lanes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The block layout a hash algorithm expects its candidates in.
fn layout_for(algo: HashAlgo) -> BlockLayout {
    match algo {
        HashAlgo::Md5 | HashAlgo::Md5Iter { .. } => BlockLayout::Md5Le,
        HashAlgo::Ntlm => BlockLayout::NtlmUtf16Le,
        HashAlgo::Sha1 => BlockLayout::ShaBe,
    }
}

/// True when the batched lane kernels cannot run `algo` directly: the
/// iterated KDF re-hashes each digest a data-dependent number of times,
/// which has no lockstep formulation, so the batched entry points drop
/// to the scalar cracker (which hashes through [`TargetSet::matches`]
/// and is therefore correct for every algorithm).
pub(crate) fn needs_scalar_fallback(algo: HashAlgo) -> bool {
    algo.base() != algo
}

/// Every `SAMPLE_MASK + 1`-th batch gets its fill and hash phases wall-
/// timed when telemetry is on; all other batches run untimed, so the
/// instrumented loop stays within the bench's overhead gate.
const SAMPLE_MASK: u64 = 63;

/// Pre-registered batch-path instruments. Prefilter outcomes are tallied
/// in thread-local integers and flushed once per scan; fill/hash timing
/// is sampled per [`SAMPLE_MASK`].
struct BatchInstruments {
    enabled: bool,
    fill_ns: Histogram,
    hash_ns: Histogram,
    prefilter_hits: Counter,
    prefilter_misses: Counter,
}

impl BatchInstruments {
    fn new(telemetry: &Telemetry) -> Self {
        Self {
            enabled: telemetry.is_enabled(),
            fill_ns: telemetry.histogram(names::BATCH_FILL_NS, &[]),
            hash_ns: telemetry.histogram(names::BATCH_HASH_NS, &[]),
            prefilter_hits: telemetry.counter(names::PREFILTER_HITS, &[]),
            prefilter_misses: telemetry.counter(names::PREFILTER_MISSES, &[]),
        }
    }
}

/// A single target's reversed reference, memoized per suffix epoch.
enum Reversed {
    /// 49 forward MD5 steps against the state after step 48.
    Md5(Md5PrefixSearch),
    /// 30 forward MD4 steps (NTLM) against the register step 29 writes.
    Md4(Md4PrefixSearch),
}

/// The 30-step MD4 test of one batch against the reversed `reference`:
/// one word per lane, the compare `prefilter_row` makes of a forward
/// row. Out of line, as is [`Reversed::new`]: inlined into the shared
/// loop, they cost the MD5 sweep (`crack_md5`) 2.7 %, 1 of 10 pairs.
#[inline(never)]
fn md4_reversed<const L: usize, H: LaneHasher<L>>(hasher: &H, rows: &Rows<L>, reference: u32) -> u64 {
    let mut survivors = 0;
    for (l, &v) in hasher.md4_forward30_rows(rows.words()).iter().enumerate() {
        survivors |= u64::from(v == reference) << l;
    }
    survivors
}

impl Reversed {
    /// Reverse `target` over `template`'s suffix: once per suffix epoch.
    #[cold]
    #[inline(never)]
    fn new(algo: HashAlgo, target: &[u8; 16], template: [u32; 16]) -> Self {
        match algo {
            HashAlgo::Md5 => Reversed::Md5(Md5PrefixSearch::new(target, template)),
            _ => Reversed::Md4(Md4PrefixSearch::new(target, template)),
        }
    }
}

/// One batched kernel the CPU can run, resolved once (per backend, per
/// search) and matched on per scan to pick the lane loop's width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// The portable cores at a lane width (or the scalar engine).
    Portable(Lanes),
    /// The explicit kernels of a detected ISA. The [`SimdHasher`] is the
    /// proof of availability: only runtime detection builds one.
    Simd(SimdHasher),
}

impl Kernel {
    /// What a CPU worker asked for `lanes` runs: the widest explicit ISA
    /// the CPU has, else the portable cores at that width. Scalar stays
    /// scalar — it is the reference.
    pub fn detect(lanes: Lanes) -> Self {
        match (lanes, SimdHasher::best()) {
            (Lanes::L8 | Lanes::L16, Some(hasher)) => Kernel::Simd(hasher),
            _ => Kernel::Portable(lanes),
        }
    }

    /// [`Kernel::detect`] for a search whose algorithm is known up
    /// front: one the lane kernels cannot run is the scalar engine's —
    /// so a caller can say what will run before it does.
    pub fn detect_for(lanes: Lanes, algo: HashAlgo) -> Self {
        if needs_scalar_fallback(algo) {
            Kernel::Portable(Lanes::Scalar)
        } else {
            Kernel::detect(lanes)
        }
    }

    /// `lanes8`, `simd-avx512`, `scalar`: the name of the backend that
    /// runs exactly this kernel.
    pub fn name(self) -> String {
        match self {
            Kernel::Portable(Lanes::Scalar) => "scalar".into(),
            Kernel::Portable(lanes) => format!("lanes{}", lanes.width()),
            Kernel::Simd(hasher) => format!("simd-{}", hasher.isa()),
        }
    }

    /// The instruction set the kernel's hash cores are compiled for.
    pub fn isa(self) -> &'static str {
        match self {
            Kernel::Portable(Lanes::Scalar) => "scalar",
            Kernel::Portable(_) => "autovec",
            Kernel::Simd(hasher) => hasher.isa().name(),
        }
    }
}

/// Like [`crack_interval`] but testing a batch of candidates in lockstep
/// on `kernel` — exactly that kernel, whatever the CPU
/// offers; [`Kernel::detect`] is where the choice is made.
///
/// Produces the same hits as the scalar engine over the same interval;
/// `tested` counts whole batches, so a first-hit stop may report up to
/// `L - 1` more candidates than the scalar path (the other lanes really
/// were tested — in lockstep). An enabled `telemetry` handle adds sampled
/// batch-fill vs. lane-hash wall time and `TargetSet` prefilter hit/miss
/// counters (flushed once per scan, never per key).
pub fn crack_interval_batched<S: BlockSpace>(
    space: &S,
    targets: &TargetSet,
    interval: Interval,
    stop: &AtomicBool,
    first_hit_only: bool,
    kernel: Kernel,
    telemetry: &Telemetry,
) -> CrackOutcome {
    if kernel == Kernel::Portable(Lanes::Scalar) || needs_scalar_fallback(targets.algo()) {
        return crack_interval(space, targets, interval, stop, first_hit_only);
    }
    let instruments = BatchInstruments::new(telemetry);
    macro_rules! lanes {
        ($l:literal, $hasher:expr) => {
            crack_lanes::<$l, _, _>(space, targets, interval, stop, first_hit_only, &instruments, $hasher)
        };
    }
    match kernel {
        Kernel::Portable(Lanes::L16) => lanes!(16, AutoVec),
        Kernel::Portable(_) => lanes!(8, AutoVec),
        #[cfg(target_arch = "x86_64")]
        Kernel::Simd(SimdHasher::Avx2(h)) => lanes!(16, h),
        #[cfg(target_arch = "x86_64")]
        Kernel::Simd(SimdHasher::Avx512(h)) => lanes!(32, h),
        #[cfg(target_arch = "aarch64")]
        Kernel::Simd(SimdHasher::Neon(h)) => lanes!(8, h),
    }
}

/// The one lane loop: fill `L` candidates' blocks from the space's
/// writer, word-major, hash them in lockstep, prefilter on the first
/// state word's row, confirm the rare survivor. Everything that differs
/// between a brute-force range, a mask and a hybrid dictionary is behind
/// [`BlockSpace::blocks`].
///
/// Never inlined: each instantiation is called from one arm of
/// [`crack_interval_batched`], and folded into it they share a frame with
/// every other width's block buffers — the AVX-512 MD5 loop then measured
/// 4 % slower end to end (`crack_md5`, 0 of 10 pairs won).
#[inline(never)]
fn crack_lanes<const L: usize, H: LaneHasher<L>, S: BlockSpace>(
    space: &S,
    targets: &TargetSet,
    interval: Interval,
    stop: &AtomicBool,
    first_hit_only: bool,
    instruments: &BatchInstruments,
    hasher: H,
) -> CrackOutcome {
    const { assert!(L <= 64, "one survivor bit per lane") };
    let algo = targets.algo();
    let layout = layout_for(algo);
    // The writer clamps the interval to the space.
    let mut writer = space.blocks(layout, interval);
    let clamped = Interval::new(writer.next_id(), writer.remaining());
    // One buffer for the whole scan: it remembers which rows hold one
    // value in every lane, so a batch costs the rows that changed.
    let mut rows = Rows::<L>::new();
    let mut hits: Vec<(u128, Key, usize)> = Vec::new();
    let mut tested: u128 = 0;
    // The shared poll loop, with chunks rounded up to the lane count so
    // batches never straddle a stop check.
    let mut cursor = PollCursor::with_stride(clamped, stop, L as u128);
    let mut found_first = false;
    // The reversed paths need a single target (the reversal is
    // per-target) and a batch whose lanes share all words but w[0]: MD5
    // runs 49 steps and compares the state, MD4 (NTLM) 30 and one word.
    let single: Option<[u8; 16]> = match algo {
        HashAlgo::Md5 | HashAlgo::Ntlm if targets.len() == 1 => {
            Some(targets.digest(0).try_into().expect("MD5 and MD4 digests are 16 bytes"))
        }
        _ => None,
    };
    // The w0-only fast fill: where a single-target MD5 search varies
    // only the leading key bytes (the writer knows — today `BlockBatch`
    // in first-char-fastest order), the steady state writes one word per
    // candidate, touches no row at all, and the reversed kernel reads the
    // shared suffix from the epoch template. Cleared for good the first
    // time the writer declines.
    let mut w0_fast = single.is_some() && algo == HashAlgo::Md5;
    let mut w0s = [0u32; L];
    let mut reversed: Option<(u64, Reversed)> = None;
    let mut batch_index: u64 = 0;
    let mut pf_hits: u64 = 0;

    'outer: while let Some(chunk) = cursor.next_chunk() {
        debug_assert_eq!(chunk.start, writer.next_id(), "writer tracks the cursor");
        let mut batches = chunk.len / L as u128;
        while batches > 0 {
            batches -= 1;
            let sample = instruments.enabled && batch_index & SAMPLE_MASK == 0;
            batch_index += 1;
            let t_fill = sample.then(Instant::now);
            let w0_filled = if w0_fast { writer.try_fill_w0s(&mut w0s) } else { None };
            let (info, w0_template) = match w0_filled {
                Some((info, template0)) => (info, Some(template0)),
                None => {
                    w0_fast = false;
                    (writer.fill_rows(&mut rows), None)
                }
            };
            if let Some(t0) = t_fill {
                instruments.fill_ns.observe(t0.elapsed().as_nanos() as u64);
            }
            tested += L as u128;

            let t_hash = sample.then(Instant::now);
            // The lanes the kernel could not reject, one bit each.
            let mut survivors: u64 = 0;
            if let Some(target) = single.as_ref().filter(|_| info.uniform_suffix) {
                // The reversed reference depends only on the target and the
                // suffix words: rebuild it when the suffix epoch moves,
                // reuse it otherwise (the overwhelmingly common case).
                if reversed.as_ref().map(|(e, _)| *e) != Some(info.epoch) {
                    let template0 = w0_template.unwrap_or_else(|| rows.block(0));
                    reversed = Some((info.epoch, Reversed::new(algo, target, template0)));
                }
                match &reversed.as_ref().expect("just built").1 {
                    Reversed::Md5(search) => {
                        let w0s = if w0_fast { &w0s } else { rows.row(0) };
                        let states = hasher.md5_forward49_batch(search.template(), w0s);
                        let r = search.reference();
                        for (l, s) in states.iter().enumerate() {
                            // `&` instead of `&&`: no per-lane branches in
                            // the common all-miss case.
                            if (s[0] == r[0]) & (s[1] == r[1]) & (s[2] == r[2]) & (s[3] == r[3]) {
                                survivors |= 1 << l;
                            }
                        }
                    }
                    Reversed::Md4(search) => survivors = md4_reversed(&hasher, &rows, search.reference()),
                }
            } else {
                if w0_fast {
                    // A suffix word moved mid-batch under the w0-only
                    // fill (once per w[0] rollover): reconstruct the full
                    // blocks for these identifiers and hash forward.
                    space.blocks(layout, Interval::new(info.start_id, L as u128)).fill_rows(&mut rows);
                }
                // The prefilter word of every lane: the first state word
                // (MD4 shares MD5's serialization), or SHA-1's `a75`.
                let first: [u32; L] = match algo {
                    HashAlgo::Md5 => hasher.md5_rows(rows.words())[0],
                    HashAlgo::Ntlm => hasher.md4_rows(rows.words())[0],
                    HashAlgo::Sha1 => hasher.sha1_a75_rows(rows.words()),
                    HashAlgo::Md5Iter { .. } => {
                        unreachable!("iterated algos fall back to the scalar cracker")
                    }
                };
                survivors = targets.prefilter_row(&first);
            }
            // Either branch's compare is the batch's prefilter.
            pf_hits += u64::from(survivors.count_ones());
            if let Some(t0) = t_hash {
                instruments.hash_ns.observe(t0.elapsed().as_nanos() as u64);
            }
            // Rare (a hit, or ≈ len·2⁻³² of candidates): the oracle's own
            // test confirms the lane, lowest identifier first.
            while survivors != 0 {
                let id = info.start_id + u128::from(survivors.trailing_zeros());
                survivors &= survivors - 1;
                let key = space.generate(id);
                if let Some(t) = targets.matches(&key) {
                    hits.push((id, key, t));
                    if first_hit_only {
                        found_first = true;
                        break 'outer;
                    }
                }
            }
        }
    }
    if instruments.enabled {
        instruments.prefilter_hits.add(pf_hits);
        // Every batch went through one compare or the other.
        instruments.prefilter_misses.add(batch_index * L as u64 - pf_hits);
    }

    // Tail shorter than a batch: hand the remainder to the scalar oracle,
    // unless the batched loop already terminated the search.
    let mut cancelled = cursor.cancelled();
    if !cancelled && !found_first && writer.remaining() > 0 {
        let tail = Interval::new(writer.next_id(), writer.remaining());
        let out = crack_interval(space, targets, tail, stop, first_hit_only);
        hits.extend(out.hits);
        tested += out.tested;
        cancelled = out.cancelled;
    }
    CrackOutcome {
        hits,
        tested,
        cancelled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eks_keyspace::{Charset, KeySpace, MaskSpace, Order};

    fn space(order: Order) -> KeySpace {
        KeySpace::new(Charset::lowercase(), 1, 4, order).unwrap()
    }

    /// `crack_interval_batched` on an unobserved kernel.
    fn batched(
        s: &KeySpace,
        t: &TargetSet,
        interval: Interval,
        stop: &AtomicBool,
        first_hit_only: bool,
        kernel: Kernel,
    ) -> CrackOutcome {
        crack_interval_batched(s, t, interval, stop, first_hit_only, kernel, &Telemetry::disabled())
    }

    const PORTABLE: [Kernel; 2] = [Kernel::Portable(Lanes::L8), Kernel::Portable(Lanes::L16)];

    fn targets(algo: HashAlgo, words: &[&[u8]]) -> TargetSet {
        let ds: Vec<Vec<u8>> = words.iter().map(|w| algo.hash_long(w)).collect();
        TargetSet::new(algo, &ds)
    }

    #[test]
    fn poll_boundary_is_a_multiple_of_every_lane_width() {
        for lanes in [Lanes::L8, Lanes::L16] {
            assert_eq!(POLL_CHUNK % lanes.width() as u128, 0, "{lanes}");
        }
    }

    #[test]
    fn poll_boundary_is_a_multiple_of_every_simd_width() {
        for isa in eks_hashes::SimdIsa::ALL {
            assert_eq!(POLL_CHUNK % isa.batch_width() as u128, 0, "{isa}");
        }
    }

    #[test]
    fn simd_full_sweep_matches_scalar_all_algos() {
        let Some(hasher) = SimdHasher::best() else {
            eprintln!("skipped: no explicit-SIMD ISA on this host");
            return;
        };
        for algo in [HashAlgo::Md5, HashAlgo::Sha1, HashAlgo::Ntlm] {
            for order in [Order::FirstCharFastest, Order::LastCharFastest] {
                let s = space(order);
                let t = targets(algo, &[b"a", b"zz", b"cat", b"mnop"]);
                let stop = AtomicBool::new(false);
                let scalar = crack_interval(&s, &t, s.interval(), &stop, false);
                let simd = batched(&s, &t, s.interval(), &stop, false, Kernel::Simd(hasher));
                assert_eq!(simd.hits, scalar.hits, "{algo:?} {order:?} {hasher:?}");
                assert_eq!(simd.tested, scalar.tested, "{algo:?} {order:?} {hasher:?}");
            }
        }
    }

    #[test]
    fn simd_reversed_md5_sweep_matches_scalar_across_growth_epochs() {
        // A single MD5 target in first-char-fastest order turns on the
        // w0-only fast fill; lengths 1..4 cross growth boundaries, so
        // non-uniform batches exercise the full-block reconstruction.
        let Some(hasher) = SimdHasher::best() else {
            eprintln!("skipped: no explicit-SIMD ISA on this host");
            return;
        };
        let s = space(Order::FirstCharFastest);
        let t = targets(HashAlgo::Md5, &[b"dog"]);
        let stop = AtomicBool::new(false);
        let scalar = crack_interval(&s, &t, s.interval(), &stop, false);
        let simd = batched(&s, &t, s.interval(), &stop, false, Kernel::Simd(hasher));
        assert_eq!(simd.hits, scalar.hits);
        assert_eq!(simd.tested, scalar.tested);
    }

    #[test]
    fn simd_reversed_ntlm_sweep_matches_scalar_across_epochs() {
        // A single NTLM target takes the 30-step branch on every batch
        // whose lanes share words 1..16: key spaces in both orders across
        // growth, a mask stepping `w[0]` with a planted key, a literal
        // prefix that pushes the stepping byte into `w[1]`, and multi-byte
        // literals. Hits and `tested` equal the scalar oracle's.
        fn check<S: BlockSpace>(s: &S, word: &[u8], case: &str) {
            let t = targets(HashAlgo::Ntlm, &[word]);
            let stop = AtomicBool::new(false);
            let whole = Interval::new(0, s.size().expect("finite"));
            let scalar = crack_interval(s, &t, whole, &stop, false);
            assert!(!scalar.hits.is_empty(), "{case}: the key is in the space");
            let kernels = PORTABLE.into_iter().chain(SimdHasher::best().map(Kernel::Simd));
            for kernel in kernels {
                let got = crack_interval_batched(s, &t, whole, &stop, false, kernel, &Telemetry::disabled());
                assert_eq!(got.hits, scalar.hits, "{case} {kernel:?}");
                assert_eq!(got.tested, scalar.tested, "{case} {kernel:?}");
            }
        }
        for order in [Order::FirstCharFastest, Order::LastCharFastest] {
            check(&space(order), b"cat", &format!("{order:?}"));
        }
        check(&MaskSpace::parse("?u?l?l?d").unwrap(), b"Cat4", "?u?l?l?d");
        check(&MaskSpace::parse("ab?d?l").unwrap(), b"ab7q", "ab?d?l");
        check(&MaskSpace::parse("?lé?d").unwrap(), "xé7".as_bytes(), "?lé?d");
    }

    /// The portable cores, counting which MD4 kernel each batch ran on
    /// this thread: `(md4_rows, md4_forward30_rows)`.
    #[derive(Clone, Copy)]
    struct CountingMd4;

    thread_local! {
        static MD4_CALLS: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
    }

    impl<const L: usize> LaneHasher<L> for CountingMd4 {
        fn md5_rows(&self, rows: &[[u32; L]; 16]) -> [[u32; L]; 4] {
            AutoVec.md5_rows(rows)
        }
        fn md4_rows(&self, rows: &[[u32; L]; 16]) -> [[u32; L]; 4] {
            MD4_CALLS.with(|c| c.set((c.get().0 + 1, c.get().1)));
            AutoVec.md4_rows(rows)
        }
        fn md4_forward30_rows(&self, rows: &[[u32; L]; 16]) -> [u32; L] {
            MD4_CALLS.with(|c| c.set((c.get().0, c.get().1 + 1)));
            AutoVec.md4_forward30_rows(rows)
        }
        fn sha1_a75_rows(&self, rows: &[[u32; L]; 16]) -> [u32; L] {
            AutoVec.sha1_a75_rows(rows)
        }
        fn md5_forward49_batch(&self, template: &[u32; 16], w0s: &[u32; L]) -> [[u32; 4]; L] {
            AutoVec.md5_forward49_batch(template, w0s)
        }
    }

    #[test]
    fn single_target_ntlm_mask_batches_take_the_30_step_kernel() {
        // `?u?l?l?d` steps `?u?l` in `w[0]` and carries into `w[1]` every
        // 676 ids: exactly the batches straddling such a carry hash all
        // 48 steps, every other batch runs 30; several targets run 48
        // everywhere. A search that silently lost the reversed branch for
        // some batch class fails here, whatever the host's timing noise.
        const L: usize = 8;
        let mask = MaskSpace::parse("?u?l?l?d").unwrap();
        let whole = Interval::new(0, mask.size());
        let batches = (mask.size() / L as u128) as u64;
        let straddling = (1..mask.size() / 676).filter(|k| k * 676 % L as u128 != 0).count() as u64;
        let stop = AtomicBool::new(false);
        let instruments = BatchInstruments::new(&Telemetry::disabled());
        for (words, want) in [
            (&[&b"Cat4"[..]][..], (straddling, batches - straddling)),
            (&[&b"Cat4"[..], b"Dog5"][..], (batches, 0)),
        ] {
            let t = targets(HashAlgo::Ntlm, words);
            MD4_CALLS.with(|c| c.set((0, 0)));
            let out = crack_lanes::<L, _, _>(&mask, &t, whole, &stop, false, &instruments, CountingMd4);
            assert_eq!(out.hits.len(), words.len(), "{words:?}");
            assert_eq!(MD4_CALLS.with(|c| c.get()), want, "{words:?}: (48-step, 30-step) batches");
        }
    }

    #[test]
    fn w0_fast_fill_sweep_matches_scalar_on_portable_lanes() {
        // Same single-target setup on the portable path: the fast fill
        // is independent of the hasher, so L8/L16 take it too.
        let s = space(Order::FirstCharFastest);
        let t = targets(HashAlgo::Md5, &[b"mnop"]);
        let stop = AtomicBool::new(false);
        let scalar = crack_interval(&s, &t, s.interval(), &stop, false);
        for kernel in PORTABLE {
            let got = batched(&s, &t, s.interval(), &stop, false, kernel);
            assert_eq!(got.hits, scalar.hits, "{kernel:?}");
            assert_eq!(got.tested, scalar.tested, "{kernel:?}");
        }
    }

    #[test]
    fn batched_full_sweep_matches_scalar_all_algos() {
        for algo in [HashAlgo::Md5, HashAlgo::Sha1, HashAlgo::Ntlm] {
            for order in [Order::FirstCharFastest, Order::LastCharFastest] {
                let s = space(order);
                let t = targets(algo, &[b"a", b"zz", b"cat", b"mnop"]);
                let stop = AtomicBool::new(false);
                let scalar = crack_interval(&s, &t, s.interval(), &stop, false);
                for kernel in PORTABLE {
                    let got = batched(&s, &t, s.interval(), &stop, false, kernel);
                    assert_eq!(got.hits, scalar.hits, "{algo:?} {order:?} {kernel:?}");
                    assert_eq!(got.tested, scalar.tested, "{algo:?} {order:?} {kernel:?}");
                }
            }
        }
    }

    #[test]
    fn reversed_md5_path_finds_single_target() {
        // Single MD5 target + uniform batches: the 49-step path runs.
        let s = space(Order::FirstCharFastest);
        let t = targets(HashAlgo::Md5, &[b"dog"]);
        let stop = AtomicBool::new(false);
        let out = batched(&s, &t, s.interval(), &stop, true, Kernel::Portable(Lanes::L8));
        assert_eq!(out.hits.len(), 1);
        assert_eq!(out.hits[0].1.as_bytes(), b"dog");
    }

    #[test]
    fn reversed_md5_survives_epoch_changes() {
        // Last-char-fastest on a length-5..6 space: suffix words change
        // constantly, forcing reversed-reference rebuilds (or the forward
        // fallback on non-uniform batches). Either way hits must match.
        let s = KeySpace::new(
            Charset::from_bytes(b"abcd").unwrap(),
            5,
            6,
            Order::LastCharFastest,
        )
        .unwrap();
        let t = targets(HashAlgo::Md5, &[b"bacad"]);
        let stop = AtomicBool::new(false);
        let scalar = crack_interval(&s, &t, s.interval(), &stop, false);
        let got = batched(&s, &t, s.interval(), &stop, false, Kernel::Portable(Lanes::L16));
        assert_eq!(got.hits, scalar.hits);
    }

    #[test]
    fn tail_shorter_than_a_batch_is_scanned() {
        let s = space(Order::FirstCharFastest);
        // 26 + 3 candidates: one L16 batch + 13-candidate tail.
        let iv = Interval::new(0, 29);
        let tail_key = s.key_at(27);
        let t = TargetSet::new(
            HashAlgo::Md5,
            &[HashAlgo::Md5.hash_long(tail_key.as_bytes())],
        );
        let stop = AtomicBool::new(false);
        let out = batched(&s, &t, iv, &stop, false, Kernel::Portable(Lanes::L16));
        assert_eq!(out.hits.len(), 1);
        assert_eq!(out.hits[0].0, 27);
        assert_eq!(out.tested, 29);
    }

    #[test]
    fn interval_smaller_than_a_batch_is_all_tail() {
        let s = space(Order::FirstCharFastest);
        let t = targets(HashAlgo::Md5, &[b"c"]);
        let stop = AtomicBool::new(false);
        let out = batched(&s, &t, Interval::new(0, 5), &stop, false, Kernel::Portable(Lanes::L8));
        assert_eq!(out.hits.len(), 1);
        assert_eq!(out.tested, 5);
    }

    #[test]
    fn pre_raised_stop_tests_nothing() {
        let s = space(Order::FirstCharFastest);
        let t = targets(HashAlgo::Md5, &[b"dog"]);
        let stop = AtomicBool::new(true);
        let out = batched(&s, &t, s.interval(), &stop, true, Kernel::Portable(Lanes::L8));
        assert!(out.cancelled);
        assert_eq!(out.tested, 0);
    }

    #[test]
    fn first_hit_stops_the_batched_scan() {
        let s = space(Order::FirstCharFastest);
        let t = targets(HashAlgo::Md5, &[b"b"]); // identifier 1
        let stop = AtomicBool::new(false);
        for lanes in [Lanes::L8, Lanes::L16] {
            let out = batched(&s, &t, s.interval(), &stop, true, Kernel::Portable(lanes));
            assert_eq!(out.hits.len(), 1);
            assert_eq!(out.tested, lanes.width() as u128, "{lanes}: stopped within the first batch");
        }
        // The explicit kernels stop within *their* first batch, which is
        // wider than either portable width on AVX (16 or 32 keys).
        if let Some(hasher) = SimdHasher::best() {
            let out = batched(&s, &t, s.interval(), &stop, true, Kernel::Simd(hasher));
            assert_eq!(out.hits.len(), 1);
            assert_eq!(out.tested, hasher.batch_width() as u128, "{hasher:?}");
        }
    }

    #[test]
    fn scalar_lanes_delegate_to_the_engine() {
        let s = space(Order::FirstCharFastest);
        let t = targets(HashAlgo::Md5, &[b"dog"]);
        let stop = AtomicBool::new(false);
        let a = batched(&s, &t, s.interval(), &stop, true, Kernel::Portable(Lanes::Scalar));
        let b = crack_interval(&s, &t, s.interval(), &stop, true);
        assert_eq!(a, b);
    }

    #[test]
    fn non_ascii_mask_literals_find_the_typed_string() {
        let kernels = PORTABLE.into_iter().chain(SimdHasher::best().map(Kernel::Simd));
        for kernel in kernels {
            for (mask, typed) in [("?lé?d", "xé7"), ("€?u?d", "€Q0"), ("?d🦀?l", "9🦀z")] {
                let m = MaskSpace::parse(mask).unwrap();
                for algo in [HashAlgo::Md5, HashAlgo::Sha1] {
                    let t = targets(algo, &[typed.as_bytes()]);
                    let stop = AtomicBool::new(false);
                    let whole = Interval::new(0, m.size());
                    let out =
                        crack_interval_batched(&m, &t, whole, &stop, false, kernel, &Telemetry::disabled());
                    let found: Vec<&[u8]> = out.hits.iter().map(|(_, k, _)| k.as_bytes()).collect();
                    assert_eq!(found, [typed.as_bytes()], "{mask} {algo:?} {kernel:?}");
                }
            }
        }
    }

    #[test]
    fn lanes_parse_round_trips() {
        for lanes in [Lanes::Scalar, Lanes::L8, Lanes::L16] {
            assert_eq!(Lanes::parse(lanes.name()), Some(lanes));
        }
        assert_eq!(Lanes::parse("1"), Some(Lanes::Scalar));
        assert_eq!(Lanes::parse("32"), None);
    }
}
