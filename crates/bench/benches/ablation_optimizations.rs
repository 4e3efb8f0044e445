//! Ablation: each optimization of Section V in isolation, on every
//! architecture — what the paper's narrative claims, measured.
//!
//! * naive → reversed: the BarsWF trick (paper: ≈ 1.25× "in almost all
//!   architectures");
//! * reversed → +early exit (46 vs 49 steps);
//! * +`__byte_perm` (cc 3.0);
//! * ×2 interleave (ILP for Fermi);
//! * funnel shift (cc 3.5 projection).

use eks_bench::header;
use eks_gpusim::arch::ComputeCapability;
use eks_gpusim::codegen::{lower, LoweringOptions};
use eks_gpusim::device::{Device, DeviceCatalog};
use eks_gpusim::sched::{simulate, SimConfig};
use eks_kernels::interleave::interleave_self;
use eks_kernels::md5::{build_md5, Md5Variant};
use eks_kernels::{words_for, HashAlgo};

fn mkeys(ir: &eks_gpusim::isa::KernelIr, opts: LoweringOptions, dev: &Device) -> f64 {
    let k = lower(ir, opts);
    simulate(&k, SimConfig::for_cc(dev.cc)).device_mkeys(dev)
}

fn main() {
    header("Ablation — MD5 kernel optimizations per architecture");
    let words = words_for(HashAlgo::Md5, 4);
    let naive = build_md5(Md5Variant::Naive, &words).ir;
    let reversed = build_md5(Md5Variant::Reversed, &words).ir;
    let optimized = build_md5(Md5Variant::Optimized, &words).ir;
    let optimized_x2 = interleave_self(&optimized);

    println!(
        "{:<24}{:>10}{:>10}{:>10}{:>10}{:>10}",
        "device", "naive", "reversed", "earlyex", "+prmt", "x2 ilp"
    );
    for dev in DeviceCatalog::paper_devices() {
        let plain = LoweringOptions::plain(dev.cc);
        let tuned = LoweringOptions::for_cc(dev.cc);
        let n = mkeys(&naive, plain, &dev);
        let r = mkeys(&reversed, plain, &dev);
        let e = mkeys(&optimized, plain, &dev);
        let p = mkeys(&optimized, tuned, &dev);
        let x = mkeys(&optimized_x2, tuned, &dev);
        println!(
            "{:<24}{:>10.0}{:>10.0}{:>10.0}{:>10.0}{:>10.0}",
            dev.name, n, r, e, p, x
        );
        assert!(r > n, "reversal must help on {}", dev.name);
        assert!(e >= r, "early exit must not hurt on {}", dev.name);
    }

    // cc 3.5 projection: funnel shift on a GTX 780.
    let d780 = Device::geforce_gtx_780();
    let funnel = mkeys(&optimized, LoweringOptions::for_cc(ComputeCapability::Sm35), &d780);
    let no_funnel = mkeys(&optimized, LoweringOptions::plain(ComputeCapability::Sm35), &d780);
    println!(
        "\ncc 3.5 projection (GTX 780): {no_funnel:.0} MKey/s without funnel shift, {funnel:.0} with \
         ({:.2}x)",
        funnel / no_funnel
    );
    println!("the paper predicts a large rotate-throughput gain from SHF (Section V-B).");
}
