//! Instruction-count tables: the paper's published numbers (Tables III–VI)
//! side by side with the counts our kernels produce through the simulator
//! codegen. The bench targets print both columns; EXPERIMENTS.md records
//! the deltas.

use eks_gpusim::arch::ComputeCapability;
use eks_gpusim::codegen::{lower, InstrCounts, LoweringOptions};
use eks_gpusim::isa::SourceCounts;

use crate::md5::{build_md5, Md5Variant};
use crate::{words_for, HashAlgo, WordSource};

/// Table III — source-level MD5 operation counts as published.
pub const PAPER_TABLE3_MD5_SOURCE: PaperSourceCounts =
    PaperSourceCounts { add: 320, logic: 160, not: 160, shift: 128 };

/// Source-level counts as published (Table III row layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperSourceCounts {
    /// 32-bit integer ADD.
    pub add: u32,
    /// 32-bit bitwise AND/OR/XOR.
    pub logic: u32,
    /// 32-bit NOT.
    pub not: u32,
    /// 32-bit integer shift.
    pub shift: u32,
}

/// One column of a compiled-count table as published.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperInstrCounts {
    /// `IADD`.
    pub iadd: u32,
    /// `AND/OR/XOR`.
    pub lop: u32,
    /// `SHR/SHL`.
    pub shift: u32,
    /// `IMAD/ISCADD`.
    pub imad: u32,
    /// `PRMT`.
    pub prmt: u32,
}

impl PaperInstrCounts {
    /// Total instructions.
    pub fn total(&self) -> u32 {
        self.iadd + self.lop + self.shift + self.imad + self.prmt
    }

    /// Shift-port instructions.
    pub fn shift_mad(&self) -> u32 {
        self.shift + self.imad + self.prmt
    }
}

/// Table IV — compiled counts of the naive kernel.
pub const PAPER_TABLE4_MD5_CC1X: PaperInstrCounts =
    PaperInstrCounts { iadd: 284, lop: 156, shift: 128, imad: 0, prmt: 0 };
/// Table IV, cc 2.x / 3.0 column.
pub const PAPER_TABLE4_MD5_CC2X: PaperInstrCounts =
    PaperInstrCounts { iadd: 220, lop: 155, shift: 64, imad: 64, prmt: 0 };

/// Table V — after the 15-step reversal (+ early exit).
pub const PAPER_TABLE5_MD5_CC1X: PaperInstrCounts =
    PaperInstrCounts { iadd: 197, lop: 118, shift: 90, imad: 0, prmt: 0 };
/// Table V, cc 2.x / 3.0 column.
pub const PAPER_TABLE5_MD5_CC2X: PaperInstrCounts =
    PaperInstrCounts { iadd: 150, lop: 120, shift: 46, imad: 46, prmt: 0 };

/// Table VI — the final optimized kernel (`__byte_perm` on cc 3.0).
pub const PAPER_TABLE6_MD5_CC1X: PaperInstrCounts =
    PaperInstrCounts { iadd: 197, lop: 118, shift: 90, imad: 0, prmt: 0 };
/// Table VI, cc 2.x / 3.0 column.
pub const PAPER_TABLE6_MD5_CC2X: PaperInstrCounts =
    PaperInstrCounts { iadd: 150, lop: 120, shift: 43, imad: 43, prmt: 3 };

/// Our source-level counts for the full MD5 kernel (Table III analogue).
///
/// Table III counts "all the operations that cannot be evaluated at
/// compile time in the CUDA source code" *before* constant folding, so
/// every message word is treated as runtime here.
pub fn our_md5_source_counts() -> SourceCounts {
    let mut words = [WordSource::Param(0); 16];
    for (i, w) in words.iter_mut().enumerate() {
        *w = WordSource::Param(i as u32);
    }
    build_md5(Md5Variant::Naive, &words).ir.source_counts()
}

/// Our compiled counts for an MD5 variant on an architecture.
pub fn our_md5_counts(variant: Md5Variant, cc: ComputeCapability) -> InstrCounts {
    let built = build_md5(variant, &words_for(HashAlgo::Md5, 4));
    let options = match variant {
        // Tables IV and V predate the __byte_perm optimization.
        Md5Variant::Naive | Md5Variant::Reversed => LoweringOptions::plain(cc),
        Md5Variant::Optimized => LoweringOptions::for_cc(cc),
    };
    lower(&built.ir, options).counts
}

/// Our compiled counts for a SHA-1 variant on an architecture.
pub fn our_sha1_counts(
    variant: crate::sha1::Sha1Variant,
    cc: ComputeCapability,
) -> InstrCounts {
    let built = crate::sha1::build_sha1(variant, &crate::words_for(HashAlgo::Sha1, 4));
    lower(&built.ir, LoweringOptions::for_cc(cc)).counts
}

/// Our compiled counts for an MD4 (NTLM) variant on an architecture.
pub fn our_md4_counts(
    variant: crate::md4::Md4Variant,
    cc: ComputeCapability,
) -> InstrCounts {
    let built = crate::md4::build_md4(variant, &crate::words_for(HashAlgo::Ntlm, 4));
    lower(&built.ir, LoweringOptions::for_cc(cc)).counts
}

/// Relative difference between a paper count and ours, per class, as a
/// fraction of the paper value (0.0 = exact).
pub fn count_deltas(paper: &PaperInstrCounts, ours: &InstrCounts) -> Vec<(&'static str, f64)> {
    let rel = |p: u32, o: u32| {
        if p == 0 {
            if o == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (o as f64 - p as f64) / p as f64
        }
    };
    vec![
        ("IADD", rel(paper.iadd, ours.iadd())),
        ("AND/OR/XOR", rel(paper.lop, ours.lop())),
        ("SHR/SHL", rel(paper.shift, ours.shift())),
        ("IMAD/ISCADD", rel(paper.imad, ours.imad())),
        ("PRMT", rel(paper.prmt, ours.prmt())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_counts_match_table3_structure() {
        // Our source counts: 5 adds and 2 shifts per step × 64 steps plus
        // chaining/next — the add and shift rows of Table III match
        // exactly; the paper's NOT row (160) exceeds the canonical 48
        // NOTs of RFC 1321 (documented delta).
        let c = our_md5_source_counts();
        assert_eq!(c.shift, PAPER_TABLE3_MD5_SOURCE.shift, "128 shifts");
        assert!(
            (c.add as i64 - PAPER_TABLE3_MD5_SOURCE.add as i64).unsigned_abs() <= 10,
            "adds {} vs 320",
            c.add
        );
        assert!(c.logic.abs_diff(PAPER_TABLE3_MD5_SOURCE.logic) <= 10, "logic {}", c.logic);
        // RFC 1321 has 48 complements; step 0's folds against the
        // constant IV, leaving 47 in the emitted source.
        assert_eq!(c.not, 47);
    }

    #[test]
    fn naive_shift_counts_match_table4_exactly() {
        let c1 = our_md5_counts(Md5Variant::Naive, ComputeCapability::Sm1x);
        assert_eq!(c1.shift(), PAPER_TABLE4_MD5_CC1X.shift, "128 shifts on cc 1.x");
        let c2 = our_md5_counts(Md5Variant::Naive, ComputeCapability::Sm21);
        assert_eq!(c2.shift(), PAPER_TABLE4_MD5_CC2X.shift, "64 SHL on cc 2.x");
        assert_eq!(c2.imad(), PAPER_TABLE4_MD5_CC2X.imad, "64 IMAD on cc 2.x");
    }

    #[test]
    fn optimized_shift_counts_match_table6_exactly() {
        let c = our_md5_counts(Md5Variant::Optimized, ComputeCapability::Sm30);
        assert_eq!(c.shift(), PAPER_TABLE6_MD5_CC2X.shift, "43 SHL");
        assert_eq!(c.imad(), PAPER_TABLE6_MD5_CC2X.imad, "43 IMAD");
        assert_eq!(c.prmt(), PAPER_TABLE6_MD5_CC2X.prmt, "3 PRMT");
    }

    #[test]
    fn reversed_counts_near_table5() {
        let c = our_md5_counts(Md5Variant::Optimized, ComputeCapability::Sm21);
        // Without PRMT (cc 2.1): 46 SHL + 46 IMAD, Table V.
        assert_eq!(c.shift(), PAPER_TABLE5_MD5_CC2X.shift);
        assert_eq!(c.imad(), PAPER_TABLE5_MD5_CC2X.imad);
        // Adds/logic within 10 % of the paper.
        for (name, d) in count_deltas(&PAPER_TABLE5_MD5_CC2X, &c) {
            if name == "PRMT" {
                continue;
            }
            assert!(d.abs() < 0.10, "{name} delta {d}");
        }
    }

    #[test]
    fn all_class_deltas_within_ten_percent() {
        let cases = [
            (Md5Variant::Naive, ComputeCapability::Sm1x, PAPER_TABLE4_MD5_CC1X),
            (Md5Variant::Naive, ComputeCapability::Sm21, PAPER_TABLE4_MD5_CC2X),
            (Md5Variant::Optimized, ComputeCapability::Sm1x, PAPER_TABLE6_MD5_CC1X),
            (Md5Variant::Optimized, ComputeCapability::Sm30, PAPER_TABLE6_MD5_CC2X),
        ];
        for (variant, cc, paper) in cases {
            let ours = our_md5_counts(variant, cc);
            for (name, d) in count_deltas(&paper, &ours) {
                if !d.is_finite() {
                    continue;
                }
                assert!(d.abs() <= 0.12, "{variant:?}/{cc:?} {name}: delta {d:.3}");
            }
        }
    }

    #[test]
    fn ratio_r_matches_paper() {
        // Paper: R = 270/92 ≈ 2.93 before PRMT on cc ≥ 2.0.
        let c = our_md5_counts(Md5Variant::Optimized, ComputeCapability::Sm21);
        assert!((c.ratio() - 2.93).abs() < 0.15, "R = {}", c.ratio());
    }

    #[test]
    fn sha1_ratio_matches_papers_claim() {
        // Section V: SHA-1 "shows an even lower ratio between addition
        // and shifts/MAD operations (~1.53)". Our SHA-1 lands close.
        let c = our_sha1_counts(crate::sha1::Sha1Variant::Optimized, ComputeCapability::Sm21);
        let r = c.ratio();
        assert!((1.3..2.0).contains(&r), "SHA-1 R = {r}");
        let md5 = our_md5_counts(Md5Variant::Optimized, ComputeCapability::Sm21).ratio();
        assert!(r < md5, "SHA-1 ratio below MD5's");
    }

    #[test]
    fn md4_counts_scale_with_step_count() {
        // 30 of MD4's steps vs 46 of MD5's: the shift-port load scales
        // accordingly (one rotate per step on both).
        let md4 = our_md4_counts(crate::md4::Md4Variant::Optimized, ComputeCapability::Sm21);
        let md5 = our_md5_counts(Md5Variant::Optimized, ComputeCapability::Sm21);
        assert_eq!(md4.shift_mad(), 60, "30 rotates = SHL+IMAD each");
        assert_eq!(md5.shift_mad(), 92, "46 rotates");
    }

    #[test]
    fn paper_tables_internal_consistency() {
        // Table VI totals: 270 add/logic and 89 shift-port on cc 2.x/3.0;
        // the paper's "43 + 43 + 3 = 89 ≈ 270/3" observation.
        assert_eq!(
            PAPER_TABLE6_MD5_CC2X.iadd + PAPER_TABLE6_MD5_CC2X.lop,
            270
        );
        assert_eq!(PAPER_TABLE6_MD5_CC2X.shift_mad(), 89);
    }
}
