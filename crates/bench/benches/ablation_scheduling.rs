//! Ablation: compiler instruction scheduling and dual-issue.
//!
//! The paper measured < 10 % dual-issue on its kernels and attributed the
//! Fermi gap to missing ILP. This ablation quantifies how much a
//! pairing-aware list scheduler (what `nvcc` does) can recover on each
//! architecture, for the optimized MD5 kernel and its ×2-interleaved
//! variant.

use eks_bench::header;
use eks_gpusim::codegen::{lower, CompiledKernel, LoweringOptions};
use eks_gpusim::device::DeviceCatalog;
use eks_gpusim::schedule::{adjacent_independence, schedule_for_pairing};
use eks_gpusim::sched::{simulate, SimConfig};
use eks_kernels::interleave::interleave_self;
use eks_kernels::md5::{build_md5, Md5Variant};
use eks_kernels::{words_for, HashAlgo};

fn scheduled(k: &CompiledKernel) -> CompiledKernel {
    let mut out = k.clone();
    out.instrs = schedule_for_pairing(&k.instrs);
    out
}

fn main() {
    header("Ablation — instruction scheduling and dual-issue");
    let words = words_for(HashAlgo::Md5, 4);
    let single = build_md5(Md5Variant::Optimized, &words).ir;
    let x2 = interleave_self(&single);

    println!(
        "{:<24}{:>12}{:>12}{:>12}{:>12}{:>14}{:>14}",
        "device", "MK/s", "+sched", "dual%", "+sched", "indep before", "after"
    );
    for dev in DeviceCatalog::paper_devices() {
        for (label, ir) in [("x1", &single), ("x2", &x2)] {
            let k = lower(ir, LoweringOptions::for_cc(dev.cc));
            let ks = scheduled(&k);
            let cfg = SimConfig::for_cc(dev.cc);
            let r0 = simulate(&k, cfg);
            let r1 = simulate(&ks, cfg);
            println!(
                "{:<24}{:>12.0}{:>12.0}{:>11.1}%{:>11.1}%{:>13.1}%{:>13.1}%",
                format!("{} {}", dev.name, label),
                r0.device_mkeys(&dev),
                r1.device_mkeys(&dev),
                r0.dual_issue_rate() * 100.0,
                r1.dual_issue_rate() * 100.0,
                adjacent_independence(&k.instrs) * 100.0,
                adjacent_independence(&ks.instrs) * 100.0,
            );
        }
    }
    println!("\nthe hash body is a near-serial chain, so scheduling alone recovers");
    println!("little on x1 (matching the paper's <10 % dual-issue observation);");
    println!("the ×2 interleave supplies the independence the scheduler needs.");
}
