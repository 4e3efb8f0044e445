//! Benchmarks for the simulator stack itself: kernel building, lowering,
//! instruction scheduling and the cycle-level simulation — the costs a
//! user pays when tuning or exploring configurations.

use eks_bench::harness::Group;
use eks_gpusim::arch::ComputeCapability;
use eks_gpusim::codegen::{lower, LoweringOptions};
use eks_gpusim::sched::{simulate, SimConfig};
use eks_gpusim::schedule::schedule_for_pairing;
use eks_kernels::md5::{build_md5, Md5Variant};
use eks_kernels::{words_for, HashAlgo};
use std::hint::black_box;

fn bench_build_and_lower() {
    let words = words_for(HashAlgo::Md5, 4);
    let mut g = Group::new("build_and_lower");
    g.bench("build_md5_optimized_ir", || {
        build_md5(Md5Variant::Optimized, black_box(&words))
    });
    let ir = build_md5(Md5Variant::Optimized, &words).ir;
    g.bench("lower_sm30", || {
        lower(black_box(&ir), LoweringOptions::for_cc(ComputeCapability::Sm30))
    });
}

fn bench_schedule_pass() {
    let ir = build_md5(Md5Variant::Optimized, &words_for(HashAlgo::Md5, 4)).ir;
    let k = lower(&ir, LoweringOptions::for_cc(ComputeCapability::Sm30));
    let mut g = Group::new("schedule");
    g.bench("schedule_for_pairing", || schedule_for_pairing(black_box(&k.instrs)));
}

fn bench_cycle_sim() {
    let ir = build_md5(Md5Variant::Optimized, &words_for(HashAlgo::Md5, 4)).ir;
    let mut g = Group::new("cycle_sim");
    for cc in [ComputeCapability::Sm1x, ComputeCapability::Sm21, ComputeCapability::Sm30] {
        let k = lower(&ir, LoweringOptions::for_cc(cc));
        g.bench(&format!("md5_optimized_{}", cc.label()), || {
            simulate(
                black_box(&k),
                SimConfig { warps: cc.mp_spec().max_warps, iterations: 4, max_cycles: 50_000_000 },
            )
        });
    }
}

fn main() {
    bench_build_and_lower();
    bench_schedule_pass();
    bench_cycle_sim();
}
