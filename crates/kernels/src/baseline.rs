//! Baseline tool models: BarsWF and Cryptohaze Multiforcer as kernel
//! variants on the same simulator.
//!
//! The paper compares its kernels against both tools on every device
//! (Table VIII). We cannot run the original binaries, so each tool is
//! modeled by the kernel structure it is known to use:
//!
//! * **Cryptohaze Multiforcer** — a straightforward full-hash kernel: all
//!   64 MD5 steps (80 SHA-1 rounds) per candidate. Its measured numbers
//!   sit almost exactly at the theoretical throughput of such a kernel
//!   (e.g. GTX 660: 1280 MKey/s measured vs 32·5·1033e6/128 = 1291 MKey/s
//!   for a 128-rotate-port kernel), which is what this model produces.
//! * **BarsWF** — introduced the 15-step reversal (the paper credits it),
//!   but performs its per-candidate generation with a byte-wise base-N
//!   conversion on the GPU (division/remainder per character), adding
//!   shift-port pressure that our suffix-stable `next` operator avoids.
//!   The conversion is modeled as a divide-by-multiply sequence per
//!   candidate byte.

use eks_gpusim::arch::ComputeCapability;
use eks_gpusim::codegen::LoweringOptions;
use eks_gpusim::isa::{KernelBuilder, KernelIr};

use crate::HashAlgo;
use crate::md4::{build_md4, ntlm_words_for_key_len, Md4Variant};
use crate::md5::{build_md5, Md5Variant};
use crate::sha1::{build_sha1, sha1_words_for_key_len, Sha1Variant};
use crate::words_for_key_len;

/// The competing implementations of Table VIII.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tool {
    /// This paper's kernel (reversal + early exit + per-arch lowering).
    OurApproach,
    /// BarsWF model: reversal, but expensive on-GPU candidate generation
    /// and no per-architecture tuning.
    BarsWf,
    /// Cryptohaze Multiforcer model: full hash per candidate.
    Cryptohaze,
}

impl Tool {
    /// Display name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Tool::OurApproach => "our approach",
            Tool::BarsWf => "BarsWF",
            Tool::Cryptohaze => "Cryptohaze",
        }
    }
}

/// A tool's kernel for one hash algorithm, ready to lower and simulate.
#[derive(Debug, Clone, PartialEq)]
pub struct ToolKernel {
    /// The abstract kernel body.
    pub ir: KernelIr,
    /// Lowering choices the tool would compile with.
    pub options: LoweringOptions,
}

impl ToolKernel {
    /// Build the kernel a tool runs for `algo` on `cc`, for length-4 keys
    /// (the kernel class the paper optimizes; other lengths pad into more
    /// runtime words but keep the same structure).
    pub fn build(tool: Tool, algo: HashAlgo, cc: ComputeCapability) -> Self {
        let key_len = 4;
        // An iterated KDF re-runs its base kernel; the per-key round loop
        // lives in the driver, so the device kernel is the base hash's
        // (throughput modeling divides by `HashAlgo::cost_factor`).
        let algo = algo.base();
        match (tool, algo) {
            (Tool::OurApproach, HashAlgo::Md5) => ToolKernel {
                ir: build_md5(Md5Variant::Optimized, &words_for_key_len(key_len)).ir,
                options: LoweringOptions::for_cc(cc),
            },
            (Tool::OurApproach, HashAlgo::Sha1) => ToolKernel {
                ir: build_sha1(Sha1Variant::Optimized, &sha1_words_for_key_len(key_len)).ir,
                options: LoweringOptions::for_cc(cc),
            },
            (Tool::BarsWf, HashAlgo::Md5) => {
                let mut built = build_md5(Md5Variant::Reversed, &words_for_key_len(key_len));
                append_base_n_generation(&mut built.ir, key_len);
                ToolKernel { ir: built.ir, options: LoweringOptions::plain(cc) }
            }
            (Tool::BarsWf, HashAlgo::Sha1) => {
                // BarsWF never shipped SHA-1 CUDA kernels of note; the
                // paper's Table VIII accordingly has no BarsWF SHA-1 row.
                // Model it as naive + generation for completeness.
                let mut built = build_sha1(Sha1Variant::Naive, &sha1_words_for_key_len(key_len));
                append_base_n_generation(&mut built.ir, key_len);
                ToolKernel { ir: built.ir, options: LoweringOptions::plain(cc) }
            }
            (Tool::Cryptohaze, HashAlgo::Md5) => ToolKernel {
                ir: build_md5(Md5Variant::Naive, &words_for_key_len(key_len)).ir,
                options: LoweringOptions::plain(cc),
            },
            (Tool::Cryptohaze, HashAlgo::Sha1) => ToolKernel {
                ir: build_sha1(Sha1Variant::Naive, &sha1_words_for_key_len(key_len)).ir,
                options: LoweringOptions::plain(cc),
            },
            // NTLM (extension): MD4 inherits MD5's reversal property, so
            // the same tool models apply.
            (Tool::OurApproach, HashAlgo::Ntlm) => ToolKernel {
                ir: build_md4(Md4Variant::Optimized, &ntlm_words_for_key_len(key_len)).ir,
                options: LoweringOptions::for_cc(cc),
            },
            (Tool::BarsWf, HashAlgo::Ntlm) => {
                let mut built = build_md4(Md4Variant::Reversed, &ntlm_words_for_key_len(key_len));
                append_base_n_generation(&mut built.ir, key_len);
                ToolKernel { ir: built.ir, options: LoweringOptions::plain(cc) }
            }
            (Tool::Cryptohaze, HashAlgo::Ntlm) => ToolKernel {
                ir: build_md4(Md4Variant::Naive, &ntlm_words_for_key_len(key_len)).ir,
                options: LoweringOptions::plain(cc),
            },
            (_, HashAlgo::Md5Iter { .. }) => {
                unreachable!("HashAlgo::base() strips iteration")
            }
        }
    }
}

/// Per-candidate byte-wise base-N conversion, as BarsWF's generator
/// performs it: for each of the four counter bytes, a divide-by-multiply
/// (`IMAD.HI` + shift), a remainder computation, a table-free symbol map
/// and re-packing. Costs ~6 shift-port and ~2 add + ~2 logic instructions
/// per byte.
fn append_base_n_generation(ir: &mut KernelIr, key_len: usize) {
    let mut b = KernelBuilder::new("gen");
    let counter = b.param(100); // the thread's candidate counter
    let mut packed = b.xor(counter, counter); // zero
    let mut rest = counter;
    for byte in 0..key_len.min(4) {
        // quotient ≈ (rest * magic) >> s : multiply-high + shift.
        let hi = b.shl(rest, 1); // stands in for IMAD.HI (multiply-high)
        let q = b.shr(hi, 6);
        // remainder = rest - q * N: multiply-add + subtract.
        let qn = b.shl(q, 6); // stands in for IMAD (q * N)
        let rem = b.add(rest, qn);
        // symbol = charset_base + rem; insert into the packed word.
        let sym = b.add(rem, 0x61u32);
        let shifted = b.shl(sym, (byte as u32 % 4) * 8);
        packed = b.or(packed, shifted);
        rest = q;
    }
    let _ = packed;
    // Splice the generation stream in front of the hash body, renumbering
    // its registers above the existing ones.
    let gen = b.build();
    let offset = ir.reg_count;
    let remapped = crate::interleave::interleave(
        &KernelIr { name: ir.name.clone(), ops: vec![], keys_per_iteration: 1, reg_count: offset },
        &gen,
    );
    let mut ops = remapped.ops;
    ops.extend(ir.ops.iter().copied());
    ir.ops = ops;
    ir.reg_count += gen.reg_count;
    ir.name = format!("{}+basen", ir.name);
}

#[cfg(test)]
mod tests {
    use super::*;
    use eks_gpusim::codegen::lower;
    use eks_gpusim::device::Device;
    use eks_gpusim::throughput::theoretical_mkeys;

    fn theoretical(tool: Tool, algo: HashAlgo, dev: &Device) -> f64 {
        let tk = ToolKernel::build(tool, algo, dev.cc);
        let k = lower(&tk.ir, tk.options);
        theoretical_mkeys(dev, &k.counts) * k.keys_per_iteration as f64
    }

    #[test]
    fn tool_ordering_on_kepler_md5() {
        // Table VIII GTX 660 MD5: ours 1841 > BarsWF 1340 > Cryptohaze 1280.
        let dev = Device::geforce_gtx_660();
        let ours = theoretical(Tool::OurApproach, HashAlgo::Md5, &dev);
        let bars = theoretical(Tool::BarsWf, HashAlgo::Md5, &dev);
        let crypto = theoretical(Tool::Cryptohaze, HashAlgo::Md5, &dev);
        assert!(ours > bars && bars > crypto, "ours={ours} bars={bars} crypto={crypto}");
    }

    #[test]
    fn cryptohaze_model_matches_its_measured_kepler_number() {
        // Cryptohaze measured 1280 MKey/s on the GTX 660; a full-64-step
        // kernel is shift-bound at 32·5·1033e6/(64+64) ≈ 1291.
        let dev = Device::geforce_gtx_660();
        let crypto = theoretical(Tool::Cryptohaze, HashAlgo::Md5, &dev);
        assert!((crypto - 1280.0).abs() < 60.0, "got {crypto}");
    }

    #[test]
    fn barswf_model_lands_near_its_measured_kepler_number() {
        // BarsWF measured 1340 MKey/s on the GTX 660.
        let dev = Device::geforce_gtx_660();
        let bars = theoretical(Tool::BarsWf, HashAlgo::Md5, &dev);
        assert!((bars - 1340.0).abs() < 120.0, "got {bars}");
    }

    #[test]
    fn tool_names() {
        assert_eq!(Tool::OurApproach.name(), "our approach");
        assert_eq!(Tool::BarsWf.name(), "BarsWF");
        assert_eq!(Tool::Cryptohaze.name(), "Cryptohaze");
    }

    #[test]
    fn generation_overhead_is_shift_heavy() {
        let dev = Device::geforce_gtx_660();
        let plain = ToolKernel {
            ir: crate::md5::build_md5(Md5Variant::Reversed, &words_for_key_len(4)).ir,
            options: eks_gpusim::codegen::LoweringOptions::plain(dev.cc),
        };
        let bars = ToolKernel::build(Tool::BarsWf, HashAlgo::Md5, dev.cc);
        let kp = lower(&plain.ir, plain.options);
        let kb = lower(&bars.ir, bars.options);
        assert!(kb.counts.shift_mad() > kp.counts.shift_mad() + 15);
    }
}
