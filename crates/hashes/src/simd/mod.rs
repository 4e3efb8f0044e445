//! Explicit-SIMD hash cores with runtime ISA detection.
//!
//! The paper's Section V answer to throughput is *per-architecture
//! specialization*: a kernel variant per device generation, each tuned
//! to that ISA's register width and instruction mix (the BarsWF
//! lineage). This module is the CPU version of that table: the
//! compression cores are written once against the [`Vec32`] op
//! vocabulary (the private `cores` module) and instantiated per ISA —
//!
//! | ISA | register | keys/call (2× interleave) | extras |
//! |---------|----------|---------------------------|-------------------------|
//! | AVX2 | 8×u32 | 16 | — |
//! | AVX-512F| 16×u32 | 32 | `vprolvd`, `vpternlogd` |
//! | NEON | 4×u32 | 8 | — |
//!
//! Every width carries the Section V tricks: the 49-step reversed-MD5
//! and 30-step reversed-MD4 forward halves, the SHA-1 `a75` partial
//! rounds, and a final state layout the `TargetSet` first-word prefilter
//! consumes directly.
//!
//! Detection is done **once** per process ([`SimdIsa::detect`], cached)
//! and capability is encoded in the type system: an ISA handle such as
//! [`Avx2`] can only be built by its checked constructor, so its hash
//! methods may enter the `#[target_feature]` shims with the handle
//! itself as the safety proof. Under Miri every probe reports
//! unavailable, so intrinsic paths are skipped cleanly by construction.
//!
//! [`Vec32`]: vec::Vec32

// Handle methods enter the `#[target_feature]` shims; the construction
// invariant (runtime detection) is each call's safety proof. Everything
// else in this file is safe code.
#![allow(unsafe_code)]

pub(crate) mod cores;
#[cfg(target_arch = "aarch64")]
mod neon;
mod vec;
#[cfg(target_arch = "x86_64")]
mod x86;

use std::sync::OnceLock;

use crate::lanes::LaneHasher;

pub use cores::{md4_steps, md5_steps, sha1_rounds};
pub use vec::Vec32;

/// An instruction-set architecture with an explicit-SIMD kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdIsa {
    /// x86-64 AVX2: 8×u32 registers.
    Avx2,
    /// x86-64 AVX-512F: 16×u32 registers, native rotate and ternary
    /// logic.
    Avx512,
    /// AArch64 NEON: 4×u32 registers.
    Neon,
}

impl SimdIsa {
    /// Every ISA, widest first (the preference order of
    /// [`SimdIsa::detect`]).
    pub const ALL: [SimdIsa; 3] = [SimdIsa::Avx512, SimdIsa::Avx2, SimdIsa::Neon];

    /// Parse a CLI argument (`avx2`, `avx512`, `neon`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "avx2" => Some(SimdIsa::Avx2),
            "avx512" => Some(SimdIsa::Avx512),
            "neon" => Some(SimdIsa::Neon),
            _ => None,
        }
    }

    /// Canonical name (round-trips through [`SimdIsa::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            SimdIsa::Avx2 => "avx2",
            SimdIsa::Avx512 => "avx512",
            SimdIsa::Neon => "neon",
        }
    }

    /// `u32` lanes per vector register.
    fn register_lanes(self) -> usize {
        match self {
            SimdIsa::Avx2 => 8,
            SimdIsa::Avx512 => 16,
            SimdIsa::Neon => 4,
        }
    }

    /// Keys tested per kernel call: two interleaved register blocks.
    pub fn batch_width(self) -> usize {
        2 * self.register_lanes()
    }

    /// True when the running CPU supports this ISA.
    ///
    /// Always false under Miri (the interpreter cannot execute vendor
    /// intrinsics), so every explicit-SIMD constructor returns `None`
    /// there and tests skip the intrinsic paths cleanly.
    pub fn is_available(self) -> bool {
        #[cfg(miri)]
        {
            let _ = self;
            false
        }
        #[cfg(not(miri))]
        {
            match self {
                #[cfg(target_arch = "x86_64")]
                SimdIsa::Avx2 => is_x86_feature_detected!("avx2"),
                #[cfg(target_arch = "x86_64")]
                SimdIsa::Avx512 => is_x86_feature_detected!("avx512f"),
                #[cfg(target_arch = "aarch64")]
                SimdIsa::Neon => std::arch::is_aarch64_feature_detected!("neon"),
                _ => false,
            }
        }
    }

    /// The widest ISA the running CPU supports, probed once per process
    /// and cached (the paper's "tune once at startup" rule).
    pub fn detect() -> Option<SimdIsa> {
        static DETECTED: OnceLock<Option<SimdIsa>> = OnceLock::new();
        *DETECTED.get_or_init(|| SimdIsa::ALL.into_iter().find(|isa| isa.is_available()))
    }
}

impl std::fmt::Display for SimdIsa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The CPU-feature probe results relevant to backend selection, for the
/// schema-3 `BENCH_cracker.json` `cpu_features` record and `eks bench`.
pub fn cpu_features() -> Vec<(&'static str, bool)> {
    vec![
        ("avx2", SimdIsa::Avx2.is_available()),
        ("avx512f", SimdIsa::Avx512.is_available()),
        ("neon", SimdIsa::Neon.is_available()),
    ]
}

/// Expand one ISA handle: a unit struct whose only constructor checks
/// runtime availability, plus a [`LaneHasher`] impl whose methods call
/// the `#[target_feature]` shims with the handle as the safety proof.
macro_rules! isa_handle {
    ($(#[$doc:meta])* $name:ident, $isa:expr, $arch:literal, $shims:path, $width:expr) => {
        $(#[$doc])*
        #[cfg(target_arch = $arch)]
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub struct $name(());

        #[cfg(target_arch = $arch)]
        impl $name {
            /// A handle iff the running CPU supports the ISA (never
            /// under Miri). The handle's existence is the proof each
            /// hash method relies on.
            pub fn new() -> Option<Self> {
                $isa.is_available().then_some(Self(()))
            }
        }

        #[cfg(target_arch = $arch)]
        impl LaneHasher<{ $width }> for $name {
            fn md5_rows(&self, rows: &[[u32; $width]; 16]) -> [[u32; $width]; 4] {
                use $shims as shims;
                // SAFETY: `self` was constructed by `new`, which proved
                // the ISA is available on this CPU.
                unsafe { shims::md5_rows(rows) }
            }

            fn md4_rows(&self, rows: &[[u32; $width]; 16]) -> [[u32; $width]; 4] {
                use $shims as shims;
                // SAFETY: as in `md5_rows` — construction proved the ISA.
                unsafe { shims::md4_rows(rows) }
            }

            fn md4_forward30_rows(&self, rows: &[[u32; $width]; 16]) -> [u32; $width] {
                use $shims as shims;
                // SAFETY: as in `md5_rows` — construction proved the ISA.
                unsafe { shims::md4_forward30(rows) }
            }

            fn sha1_a75_rows(&self, rows: &[[u32; $width]; 16]) -> [u32; $width] {
                use $shims as shims;
                // SAFETY: as in `md5_rows` — construction proved the ISA.
                unsafe { shims::sha1_a75_rows(rows) }
            }

            fn md5_forward49_batch(
                &self,
                template: &[u32; 16],
                w0s: &[u32; $width],
            ) -> [[u32; 4]; $width] {
                use $shims as shims;
                // SAFETY: as in `md5_rows` — construction proved the ISA.
                unsafe { shims::md5_forward49(template, w0s) }
            }
        }
    };
}

isa_handle!(
    /// Capability handle for the AVX2 kernels (16 keys per call).
    Avx2,
    SimdIsa::Avx2,
    "x86_64",
    crate::simd::x86::avx2,
    16
);
isa_handle!(
    /// Capability handle for the AVX-512F kernels (32 keys per call).
    Avx512,
    SimdIsa::Avx512,
    "x86_64",
    crate::simd::x86::avx512,
    32
);
isa_handle!(
    /// Capability handle for the NEON kernels (8 keys per call).
    Neon,
    SimdIsa::Neon,
    "aarch64",
    crate::simd::neon::neon_shims,
    8
);

/// A detected explicit-SIMD implementation: the dispatch vocabulary the
/// cracker's batched scan loop matches on to pick its lane width. Only
/// constructible when the ISA is actually available, so consumers never
/// need a fallback branch *inside* the hot loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdHasher {
    /// AVX2 kernels, 16 keys per call.
    #[cfg(target_arch = "x86_64")]
    Avx2(Avx2),
    /// AVX-512F kernels, 32 keys per call.
    #[cfg(target_arch = "x86_64")]
    Avx512(Avx512),
    /// NEON kernels, 8 keys per call.
    #[cfg(target_arch = "aarch64")]
    Neon(Neon),
}

impl SimdHasher {
    /// The implementation for `isa`, iff the running CPU supports it.
    pub fn new(isa: SimdIsa) -> Option<Self> {
        match isa {
            #[cfg(target_arch = "x86_64")]
            SimdIsa::Avx2 => Avx2::new().map(SimdHasher::Avx2),
            #[cfg(target_arch = "x86_64")]
            SimdIsa::Avx512 => Avx512::new().map(SimdHasher::Avx512),
            #[cfg(target_arch = "aarch64")]
            SimdIsa::Neon => Neon::new().map(SimdHasher::Neon),
            #[allow(unreachable_patterns)]
            _ => None,
        }
    }

    /// The widest available implementation ([`SimdIsa::detect`]).
    pub fn best() -> Option<Self> {
        SimdIsa::detect().and_then(Self::new)
    }

    /// The ISA this implementation runs on.
    pub fn isa(self) -> SimdIsa {
        match self {
            #[cfg(target_arch = "x86_64")]
            SimdHasher::Avx2(_) => SimdIsa::Avx2,
            #[cfg(target_arch = "x86_64")]
            SimdHasher::Avx512(_) => SimdIsa::Avx512,
            #[cfg(target_arch = "aarch64")]
            SimdHasher::Neon(_) => SimdIsa::Neon,
        }
    }

    /// Keys tested per kernel call.
    pub fn batch_width(self) -> usize {
        self.isa().batch_width()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isa_parse_round_trips() {
        for isa in SimdIsa::ALL {
            assert_eq!(SimdIsa::parse(isa.name()), Some(isa));
        }
        assert_eq!(SimdIsa::parse("sse2"), None);
    }

    #[test]
    fn widths_are_two_register_blocks() {
        assert_eq!(SimdIsa::Avx2.batch_width(), 16);
        assert_eq!(SimdIsa::Avx512.batch_width(), 32);
        assert_eq!(SimdIsa::Neon.batch_width(), 8);
    }

    #[test]
    fn detect_is_stable_and_consistent_with_availability() {
        let first = SimdIsa::detect();
        assert_eq!(first, SimdIsa::detect(), "cached probe is stable");
        if let Some(isa) = first {
            assert!(isa.is_available());
            // detect() promises the *widest*: nothing wider is available.
            for wider in SimdIsa::ALL.iter().take_while(|i| **i != isa) {
                assert!(!wider.is_available(), "{wider} is wider and available");
            }
        } else {
            for isa in SimdIsa::ALL {
                assert!(!isa.is_available());
            }
        }
    }

    #[test]
    fn hasher_construction_mirrors_availability() {
        for isa in SimdIsa::ALL {
            assert_eq!(
                SimdHasher::new(isa).is_some(),
                isa.is_available(),
                "{isa}: handle construction must equal the probe"
            );
            if let Some(h) = SimdHasher::new(isa) {
                assert_eq!(h.isa(), isa);
                assert_eq!(h.batch_width(), isa.batch_width());
            }
        }
    }

    #[test]
    fn cpu_features_reports_every_probe() {
        let feats = cpu_features();
        assert_eq!(feats.len(), 3);
        let avx2 = feats.iter().find(|(n, _)| *n == "avx2").expect("avx2 row");
        assert_eq!(avx2.1, SimdIsa::Avx2.is_available());
    }
}
