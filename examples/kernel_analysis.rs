//! Section V walkthrough: how kernel instruction counts and architecture
//! structure determine throughput.
//!
//! Prints, for MD5: the source-level counts (Table III), the compiled
//! counts per architecture for the naive / reversed / optimized kernels
//! (Tables IV–VI), and per device the theoretical vs cycle-simulated
//! throughput plus the dual-issue rate the CUDA profiler would report.
//!
//! Run with: `cargo run --release --example kernel_analysis`

use eks::gpusim::arch::ComputeCapability;
use eks::gpusim::codegen::{lower, LoweringOptions};
use eks::gpusim::device::DeviceCatalog;
use eks::gpusim::sched::{simulate, SimConfig};
use eks::gpusim::throughput::theoretical_mkeys;
use eks::kernels::counts::our_md5_source_counts;
use eks::kernels::md5::{build_md5, Md5Variant};
use eks::kernels::{words_for, HashAlgo};

fn main() {
    // Table III: source-level operation counts.
    let src = our_md5_source_counts();
    println!("MD5 source-level counts (Table III):");
    println!("  ADD {}  AND/OR/XOR {}  NOT {}  shift {}\n", src.add, src.logic, src.not, src.shift);

    // Tables IV-VI: compiled counts per variant and architecture.
    let words = words_for(HashAlgo::Md5, 4);
    for (label, variant) in [
        ("naive (Table IV)", Md5Variant::Naive),
        ("reversed+early-exit (Table V)", Md5Variant::Optimized),
    ] {
        println!("compiled counts — {label}:");
        for cc in [ComputeCapability::Sm1x, ComputeCapability::Sm21, ComputeCapability::Sm30] {
            let opts = if variant == Md5Variant::Optimized && cc == ComputeCapability::Sm30 {
                LoweringOptions::for_cc(cc) // Table VI: + __byte_perm
            } else {
                LoweringOptions::plain(cc)
            };
            let k = lower(&build_md5(variant, &words).ir, opts);
            println!(
                "  cc {:<4} IADD {:>3}  LOP {:>3}  SHR/SHL {:>3}  IMAD {:>3}  PRMT {:>2}  (R = {:.2})",
                cc.label(),
                k.counts.iadd(),
                k.counts.lop(),
                k.counts.shift(),
                k.counts.imad(),
                k.counts.prmt(),
                k.counts.ratio(),
            );
        }
        println!();
    }

    // Table VIII: theoretical vs simulated achieved per device.
    println!("per-device MD5 throughput (optimized kernel):");
    println!(
        "{:<24} {:>12} {:>12} {:>8} {:>10}",
        "device", "theoretical", "simulated", "eff", "dual-issue"
    );
    for dev in DeviceCatalog::paper_devices() {
        let built = build_md5(Md5Variant::Optimized, &words);
        let k = lower(&built.ir, LoweringOptions::for_cc(dev.cc));
        let theo = theoretical_mkeys(&dev, &k.counts);
        let sim = simulate(&k, SimConfig::for_cc(dev.cc));
        let achieved = sim.device_mkeys(&dev);
        println!(
            "{:<24} {:>8.1} MK/s {:>8.1} MK/s {:>7.1}% {:>9.1}%",
            dev.name,
            theo,
            achieved,
            achieved / theo * 100.0,
            sim.dual_issue_rate() * 100.0
        );
    }
}
