//! The yardstick: a frozen reference kernel timed between every two
//! measured slices, so that a workload's value is a *ratio* to the
//! machine's speed at that moment and not a number of seconds.
//!
//! FROZEN: a change to this file changes the unit every recorded number
//! is expressed in. Only a PR whose subject is the benchmark may edit it,
//! and it must re-freeze [`Y_REF_WIDE_S`] / [`Y_REF_BASE_S`] and
//! re-measure the baseline.
//!
//! Shape (each choice is from a failed alternative, see README):
//! * MD5-round-like add/rotate/select mix, so it loads the same ports as
//!   the hash cores;
//! * four independent 16-lane chains (`[u32; 64]` of state), so it is
//!   throughput-bound like the real kernels, not latency-bound;
//! * cut into `32 × threads` pieces that `threads` scoped threads pull
//!   from an atomic counter — work-shared like the product's dispatcher,
//!   so a descheduled thread costs the yardstick what it costs a search;
//! * two compiled variants matching the two ISA classes of the product's
//!   hot paths: `wide` (AVX-512/AVX2 by runtime detection) and `base`
//!   (baseline codegen, what the autovectorised lane cores get). Both are
//!   timed next to every measurement ([`Reading`]); how much of each goes
//!   into the normaliser is measured in the same run, never fixed here.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::time::Instant;

const CHAINS: usize = 4;
const LANES: usize = 16;
const PIECES_PER_THREAD: usize = 32;

/// Steps per piece. Sized so one yardstick run takes ≈ 8–10 ms on the
/// authoring host with every core busy, for either variant.
const WIDE_STEPS: u32 = 40_000;
const BASE_STEPS: u32 = 4_800;

/// Seconds one `wide` yardstick run took on the authoring host in its
/// fast state (2 threads: p25 over several runs). Only a unit conversion: it turns the dimensionless slice/yardstick ratio back
/// into "seconds at reference machine speed". Never re-measured by a
/// non-benchmark PR.
pub const Y_REF_WIDE_S: f64 = 0.008_5;
/// Same for the `base` variant (which on that host swung between 7 and
/// 12 ms from one minute to the next while `wide` stayed near 8.5).
pub const Y_REF_BASE_S: f64 = 0.008_0;

/// A compiled variant of the yardstick. A measurement is normalised by
/// the variant whose ISA class matches the measured code's hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Yard {
    /// Widest of AVX-512F / AVX2 the CPU reports, else same as `Base`.
    Wide,
    /// Baseline codegen.
    Base,
}

impl Yard {
    /// The frozen reference duration of this variant.
    pub fn ref_s(self) -> f64 {
        match self {
            Yard::Wide => Y_REF_WIDE_S,
            Yard::Base => Y_REF_BASE_S,
        }
    }

    /// `seconds` of this variant as a multiple of its reference duration:
    /// how much slower than the reference machine that moment was.
    pub fn slowness(self, seconds: f64) -> f64 {
        seconds / self.ref_s()
    }

    /// Run the yardstick once over `threads` threads; seconds taken.
    pub fn run(self, threads: usize) -> f64 {
        match self {
            Yard::Wide => run_pieces(threads, |piece| wide_piece(piece, WIDE_STEPS)),
            Yard::Base => run_pieces(threads, |piece| mix(piece, BASE_STEPS)),
        }
    }
}

/// Both variants timed back to back: the machine's state at one moment.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    /// Seconds `yard.base` took.
    pub base: f64,
    /// Seconds `yard.wide` took.
    pub wide: f64,
}

impl Reading {
    pub fn take(threads: usize) -> Self {
        Self {
            base: Yard::Base.run(threads),
            wide: Yard::Wide.run(threads),
        }
    }

    /// How much slower than the reference machine this moment was, for
    /// code that spends `wide_share` of its time in explicit-SIMD kernels
    /// and the rest in baseline code. Dividing a duration by it gives
    /// seconds at reference machine speed.
    pub fn slowness(&self, wide_share: f64) -> f64 {
        let w = wide_share.clamp(0.0, 1.0);
        (1.0 - w) * Yard::Base.slowness(self.base) + w * Yard::Wide.slowness(self.wide)
    }
}

/// Time `PIECES_PER_THREAD × threads` calls of `piece`, pulled from a
/// shared counter by `threads` scoped threads; the folded results keep
/// the optimiser honest.
fn run_pieces(threads: usize, piece: impl Fn(u32) -> u32 + Sync) -> f64 {
    let threads = threads.max(1);
    let pieces = PIECES_PER_THREAD * threads;
    let next = AtomicUsize::new(0);
    let sink = AtomicU32::new(0);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut acc = 0u32;
                loop {
                    let n = next.fetch_add(1, Ordering::Relaxed);
                    if n >= pieces {
                        break;
                    }
                    acc ^= piece(n as u32);
                }
                sink.fetch_xor(acc, Ordering::Relaxed);
            });
        }
    });
    let dt = t0.elapsed().as_secs_f64();
    std::hint::black_box(sink.load(Ordering::Relaxed));
    dt
}

/// What `Yard::Wide` compiles to on this CPU, for labels.
pub fn wide_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "base"
}

fn wide_piece(seed: u32, steps: u32) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the `avx512f` feature was detected on the running
            // CPU on the line above; the callee needs nothing else.
            return unsafe { mix_avx512(seed, steps) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the `avx2` feature was detected on the running CPU
            // on the line above; the callee needs nothing else.
            return unsafe { mix_avx2(seed, steps) };
        }
    }
    mix(seed, steps)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn mix_avx512(seed: u32, steps: u32) -> u32 {
    mix(seed, steps)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mix_avx2(seed: u32, steps: u32) -> u32 {
    mix(seed, steps)
}

const K: [u32; 16] = [
    0xd76a_a478,
    0xe8c7_b756,
    0x2420_70db,
    0xc1bd_ceee,
    0xf57c_0faf,
    0x4787_c62a,
    0xa830_4613,
    0xfd46_9501,
    0x6980_98d8,
    0x8b44_f7af,
    0xffff_5bb1,
    0x895c_d7be,
    0x6b90_1122,
    0xfd98_7193,
    0xa679_438e,
    0x49b4_0821,
];

/// One step of one chain: every lane does the same add/select/rotate.
/// The rotation is a constant, as in MD5, so that baseline codegen keeps
/// the lane loop in vector registers (a variable count scalarises it).
#[inline(always)]
fn step<const R: u32>(chain: &mut [u32; LANES], sel: u32, k: u32) {
    for x in chain.iter_mut() {
        let v = *x;
        let f = (v & sel) | (!v & k);
        *x = v
            .wrapping_add(f)
            .wrapping_add(k)
            .rotate_left(R)
            .wrapping_add(v);
    }
}

/// One step of all four chains.
#[inline(always)]
fn round<const R: u32>(st: &mut [[u32; LANES]; CHAINS], k: u32) {
    let [a, b, c, d] = st;
    step::<R>(a, K[1], k);
    step::<R>(b, K[5], k);
    step::<R>(c, K[9], k);
    step::<R>(d, K[13], k);
}

/// The kernel: `steps` MD5-like steps on four independent 16-lane chains.
/// `inline(always)` so each `#[target_feature]` shim gets its own
/// vectorisation of the lane loops.
#[inline(always)]
fn mix(seed: u32, steps: u32) -> u32 {
    let mut st = [[0u32; LANES]; CHAINS];
    for (c, chain) in st.iter_mut().enumerate() {
        for (l, x) in chain.iter_mut().enumerate() {
            *x = seed
                .wrapping_mul(0x9e37_79b9)
                .wrapping_add((c * LANES + l) as u32)
                .wrapping_mul(0x85eb_ca6b);
        }
    }
    for i in 0..steps / 4 {
        let k = (i & 3) as usize * 4;
        round::<7>(&mut st, K[k]);
        round::<12>(&mut st, K[k + 1]);
        round::<17>(&mut st, K[k + 2]);
        round::<22>(&mut st, K[k + 3]);
    }
    st.iter()
        .flatten()
        .fold(0u32, |acc, &x| acc.rotate_left(1) ^ x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_compute_the_same_function() {
        for seed in [0, 1, 77] {
            assert_eq!(wide_piece(seed, 1000), mix(seed, 1000));
        }
        assert_ne!(mix(1, 1000), mix(2, 1000));
        assert_ne!(mix(1, 1000), mix(1, 1004));
    }

    #[test]
    fn one_thread_still_runs() {
        assert!(Yard::Base.run(0) > 0.0);
        assert!(Yard::Wide.run(1) > 0.0);
    }

    #[test]
    fn slowness_mixes_the_variants_by_the_wide_share() {
        let r = Reading {
            base: 2.0 * Y_REF_BASE_S,
            wide: Y_REF_WIDE_S,
        };
        assert_eq!(r.slowness(0.0), 2.0);
        assert_eq!(r.slowness(1.0), 1.0);
        assert!((r.slowness(0.25) - 1.75).abs() < 1e-12);
        assert_eq!(r.slowness(7.0), 1.0);
    }
}
