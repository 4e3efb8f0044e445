//! Ablation: does fixing what the analyzer flags actually pay?
//!
//! For each architecture, lower the MD5 kernel twice — once plainly
//! (the stream the peephole lints complain about) and once with the
//! per-architecture lowerings they recommend — and compare simulated
//! throughput next to the number of findings. A lint is only worth its
//! name if the fix moves the needle; a clean report should mean there is
//! nothing left to win. Also times the analyzer itself: a linter that is
//! slower than the simulation it guards would not be run.

use eks_analyzer::{analyze_compiled, analyze_ir, md5_budget_report, DEFAULT_TOLERANCE};
use eks_bench::harness::Group;
use eks_bench::header;
use eks_gpusim::codegen::{lower, LoweringOptions};
use eks_gpusim::device::{Device, DeviceCatalog};
use eks_gpusim::sched::{simulate, SimConfig};
use eks_kernels::md5::{build_md5, Md5Variant};
use eks_kernels::{words_for, HashAlgo};

fn main() {
    header("Ablation — analyzer findings vs the throughput of fixing them");
    let words = words_for(HashAlgo::Md5, 4);
    let built = build_md5(Md5Variant::Optimized, &words);

    println!(
        "{:<24}{:>9}{:>12}{:>9}{:>12}{:>9}",
        "device", "findings", "plain", "findings", "tuned", "gain"
    );
    let mut devices = DeviceCatalog::paper_devices();
    devices.push(Device::geforce_gtx_780());
    for dev in &devices {
        let plain = lower(&built.ir, LoweringOptions::plain(dev.cc));
        let tuned = lower(&built.ir, LoweringOptions::for_cc(dev.cc));
        let plain_findings = analyze_compiled(&plain).diagnostics.len();
        let tuned_findings = analyze_compiled(&tuned).diagnostics.len();
        let plain_mkeys = simulate(&plain, SimConfig::for_cc(dev.cc)).device_mkeys(dev);
        let tuned_mkeys = simulate(&tuned, SimConfig::for_cc(dev.cc)).device_mkeys(dev);
        println!(
            "{:<24}{:>9}{:>7.0} MK/s{:>9}{:>7.0} MK/s{:>8.2}x",
            dev.name,
            plain_findings,
            plain_mkeys,
            tuned_findings,
            tuned_mkeys,
            tuned_mkeys / plain_mkeys
        );
        // The recommended lowering must silence the peephole lints and
        // never lose throughput.
        assert_eq!(tuned_findings, 0, "tuned lowering must be clean on {}", dev.name);
        assert!(tuned_mkeys >= plain_mkeys * 0.999, "fixes must not hurt on {}", dev.name);
        // Wherever the lints found something, the fix must win.
        if plain_findings > 0 {
            assert!(
                tuned_mkeys > plain_mkeys,
                "findings on {} did not translate into throughput",
                dev.name
            );
        }
    }

    println!();
    let mut roots = built.outputs.clone();
    roots.extend_from_slice(&built.carried);
    let sm30 = lower(&built.ir, LoweringOptions::plain(eks_gpusim::arch::ComputeCapability::Sm30));

    let mut g = Group::new("analyzer runtime");
    g.throughput_elements(built.ir.ops.len() as u64);
    g.bench("dataflow (ops)", || analyze_ir(&built.ir, Some(&roots)));
    let mut g = Group::new("analyzer runtime");
    g.throughput_elements(sm30.instrs.len() as u64);
    g.bench("peephole+pressure (instrs)", || analyze_compiled(&sm30));
    let mut g = Group::new("analyzer runtime");
    g.bench("budget gate (tables)", || md5_budget_report(DEFAULT_TOLERANCE));
}
