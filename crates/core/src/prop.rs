//! Minimal deterministic property-testing support.
//!
//! The workspace builds in network-isolated environments, so it cannot
//! pull `proptest` or `rand` from a registry. This module is the
//! offline stand-in: a [SplitMix64] PRNG with the generator helpers the
//! test suites need, and a [`forall`] runner that reports the failing
//! case (seed and iteration) so a reproduction is one constant away.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c
//!
//! ```
//! use eks_core::prop::{forall, Rng};
//!
//! forall("addition commutes", 64, |rng| {
//!     let (a, b) = (rng.u32(), rng.u32());
//!     assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
//! });
//! ```

/// Deterministic SplitMix64 pseudo-random generator.
///
/// Not cryptographic — it exists to enumerate diverse test cases
/// reproducibly. Identical seeds yield identical sequences on every
/// platform.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next 32-bit value.
    pub fn u32(&mut self) -> u32 {
        (self.u64() >> 32) as u32
    }

    /// Uniform value in `[0, bound)`. `bound` must be positive.
    ///
    /// # Panics
    /// Panics when `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        // The tiny modulo bias is irrelevant for test-case generation.
        self.u64() % bound
    }

    /// Uniform value in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    /// Panics when `lo > hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "inverted range");
        lo + self.below(hi - lo + 1)
    }

    /// Uniform `usize` in `[0, bound)`.
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// One of `items`, uniformly: the draw `index(items.len())` makes.
    ///
    /// # Panics
    /// Panics when `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        let i = self.index(items.len());
        items.get(i).expect("a non-empty slice")
    }

    /// Uniform `u128` in `[lo, hi]` (uses 64 bits of entropy, plenty for
    /// interval-sized test values).
    pub fn range_u128(&mut self, lo: u128, hi: u128) -> u128 {
        assert!(lo <= hi, "inverted range");
        let span = hi - lo + 1;
        if span <= u64::MAX as u128 {
            lo + self.below(span as u64) as u128
        } else {
            lo + ((self.u64() as u128) << 64 | self.u64() as u128) % span
        }
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }

    /// A vector of `len` values produced by `gen`.
    pub fn vec<T>(&mut self, len: usize, mut gen: impl FnMut(&mut Self) -> T) -> Vec<T> {
        (0..len).map(|_| gen(self)).collect()
    }
}

/// Run `body` for `cases` generated cases; panics with the case number
/// and seed on the first failure so the case can be replayed by seeding
/// [`Rng::new`] directly.
pub fn forall(name: &str, cases: u32, mut body: impl FnMut(&mut Rng)) {
    for case in 0..cases {
        let seed = 0xEC5_0000 + case as u64;
        let mut rng = Rng::new(seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(payload) = outcome {
            eprintln!("property {name:?} failed at case {case} (Rng seed {seed:#x})");
            std::panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = Rng::new(7);
        for _ in 0..1000 {
            assert!(rng.below(13) < 13);
        }
    }

    #[test]
    fn range_is_inclusive_and_covers() {
        let mut rng = Rng::new(1);
        let mut seen = [false; 4];
        for _ in 0..200 {
            let v = rng.range(10, 13);
            assert!((10..=13).contains(&v));
            *seen.get_mut((v - 10) as usize).expect("asserted in 10..=13") = true;
        }
        assert!(seen.iter().all(|&s| s), "all four values reached");
    }

    #[test]
    fn f64_range_in_bounds() {
        let mut rng = Rng::new(3);
        for _ in 0..1000 {
            let v = rng.f64_range(1.0, 5000.0);
            assert!((1.0..5000.0).contains(&v));
        }
    }

    #[test]
    fn forall_reports_failures() {
        let caught = std::panic::catch_unwind(|| {
            forall("always fails", 3, |_| panic!("boom"));
        });
        assert!(caught.is_err());
    }

    #[test]
    fn range_u128_handles_wide_spans() {
        let mut rng = Rng::new(9);
        for _ in 0..100 {
            let v = rng.range_u128(1, 1_000_000);
            assert!((1..=1_000_000).contains(&v));
        }
    }
}
