//! Property tests for the analyzer's two semantic claims:
//!
//! 1. Dead-store elimination never changes the values a kernel computes
//!    at its roots — checked on random straight-line IR and on the real
//!    MD5 kernels against the host hash implementation.
//! 2. The reported live-register count is a sound upper bound on the
//!    true number of simultaneously-needed values, checked against an
//!    independent brute-force reference on random lowered streams.

use eks_analyzer::eliminate_dead_stores;
use eks_core::prop::{forall, Rng};
use eks_gpusim::arch::ComputeCapability;
use eks_gpusim::codegen::{lower, LoweringOptions};
use eks_gpusim::isa::{KernelBuilder, KernelIr, MachineInstr, Reg};
use eks_gpusim::liveness;
use eks_hashes::md5::{md5_compress, IV};
use eks_hashes::padding::pad_md5_block;
use eks_kernels::md5::{build_md5, Md5Variant};
use eks_kernels::{words_for, BuiltKernel, HashAlgo, WordSource};

/// A random straight-line program over `n_params` parameters. Returns
/// the IR and every register in definition order.
fn random_ir(rng: &mut Rng) -> (KernelIr, Vec<Reg>, usize) {
    let mut b = KernelBuilder::new("random");
    let n_params = rng.range(1, 3) as usize;
    let mut regs: Vec<Reg> = (0..n_params).map(|i| b.param(i as u32)).collect();
    let n_ops = rng.range(5, 40);
    for _ in 0..n_ops {
        let a = regs[rng.index(regs.len())];
        let c = regs[rng.index(regs.len())];
        let r = match rng.below(8) {
            0 => b.add(a, c),
            1 => b.and(a, c),
            2 => b.or(a, c),
            3 => b.xor(a, c),
            4 => b.not(a),
            5 => b.shl(a, rng.range(0, 31) as u32),
            6 => b.shr(a, rng.range(0, 31) as u32),
            _ => b.rotl(a, rng.range(1, 31) as u32),
        };
        regs.push(r);
    }
    (b.build(), regs, n_params)
}

/// DSE preserves every root's value on arbitrary programs, arbitrary
/// root choices and arbitrary inputs — even though it may remove a large
/// fraction of the operations.
#[test]
fn dse_preserves_roots_on_random_programs() {
    forall("dse_preserves_roots_on_random_programs", 256, |rng| {
        let (ir, regs, n_params) = random_ir(rng);
        // Roots: the final register plus a few random earlier ones.
        let mut roots = vec![*regs.last().unwrap()];
        for _ in 0..rng.index(3) {
            roots.push(regs[rng.index(regs.len())]);
        }
        let pruned = eliminate_dead_stores(&ir, &roots);
        assert!(pruned.ops.len() <= ir.ops.len());

        let params: Vec<u32> = (0..n_params).map(|_| rng.u32()).collect();
        let full = ir.evaluate(&params);
        let small = pruned.evaluate(&params);
        for r in &roots {
            assert_eq!(
                full[r.0 as usize], small[r.0 as usize],
                "root {r:?} changed after DSE"
            );
        }
    });
}

/// DSE on the real MD5 kernels: the pruned naive kernel still computes
/// the exact digest the host implementation computes, and every variant
/// keeps its comparison outputs bit-identical.
#[test]
fn dse_preserves_md5_digests() {
    forall("dse_preserves_md5_digests", 64, |rng| {
        let key_len = rng.range(1, 12) as usize;
        let key: Vec<u8> = rng.vec(key_len, |r| r.range(0x21, 0x7e) as u8);
        let words = words_for(HashAlgo::Md5, key.len());
        let block = pad_md5_block(&key);
        let n_params = words.iter().filter(|s| matches!(s, WordSource::Param(_))).count();
        let params: Vec<u32> = block[..n_params].to_vec();

        for variant in [Md5Variant::Naive, Md5Variant::Reversed, Md5Variant::Optimized] {
            let BuiltKernel { ir, outputs, carried } = build_md5(variant, &words);
            let mut roots = outputs.clone();
            roots.extend_from_slice(&carried);
            let pruned = eliminate_dead_stores(&ir, &roots);

            let full = ir.evaluate(&params);
            let small = pruned.evaluate(&params);
            for r in &roots {
                assert_eq!(full[r.0 as usize], small[r.0 as usize], "{variant:?}");
            }
            if variant == Md5Variant::Naive {
                let want = md5_compress(IV, &block);
                let got: Vec<u32> = outputs.iter().map(|r| small[r.0 as usize]).collect();
                assert_eq!(got, want.to_vec(), "pruned naive kernel must still be MD5");
            }
        }
    });
}

/// Independent brute-force reference: at each instruction, count the
/// registers whose value is already produced (or enters as a parameter)
/// and is still read at or after this point, plus the register being
/// written here. The analyzer's figure must never be below this.
fn brute_force_max_live(instrs: &[MachineInstr]) -> u32 {
    let mut regs: Vec<Reg> = Vec::new();
    for ins in instrs {
        for r in std::iter::once(ins.dst).chain(ins.srcs.iter().copied()) {
            if !regs.contains(&r) {
                regs.push(r);
            }
        }
    }
    let mut max = 0u32;
    for i in 0..instrs.len() {
        let mut live = 0u32;
        for &r in &regs {
            let born = instrs
                .iter()
                .position(|ins| ins.dst == r || ins.srcs.contains(&r))
                .unwrap();
            let param = instrs[born].dst != r || instrs[born].srcs.contains(&r);
            let available = born <= i || param;
            let read_later = instrs[i..].iter().any(|ins| ins.srcs.contains(&r));
            if (available && read_later) || instrs[i].dst == r {
                live += 1;
            }
        }
        max = max.max(live);
    }
    max
}

/// The live-range analysis is sound: its maximum is an upper bound on
/// the true simultaneous-live count for arbitrary programs under every
/// lowering option set, and its ranges cover every actual use.
#[test]
fn reported_pressure_bounds_true_pressure() {
    forall("reported_pressure_bounds_true_pressure", 128, |rng| {
        let (ir, _, _) = random_ir(rng);
        let cc = ComputeCapability::ALL[rng.index(ComputeCapability::ALL.len())];
        let opts = if rng.below(2) == 0 {
            LoweringOptions::plain(cc)
        } else {
            LoweringOptions::for_cc(cc)
        };
        let kernel = lower(&ir, opts);

        let reported = liveness::max_live(&kernel.instrs);
        let truth = brute_force_max_live(&kernel.instrs);
        assert!(
            reported >= truth,
            "reported {reported} < true simultaneous-live {truth}"
        );

        // Every read and write position falls inside the register's range.
        let ranges = liveness::live_ranges(&kernel.instrs);
        for (i, ins) in kernel.instrs.iter().enumerate() {
            for r in std::iter::once(ins.dst).chain(ins.srcs.iter().copied()) {
                let range = ranges.iter().find(|lr| lr.reg == r).unwrap();
                assert!(range.contains(i), "{r:?} used at {i} outside its range");
            }
        }

        // And the occupancy model agrees with the analyzer's estimate.
        let report = eks_analyzer::check_pressure(&kernel);
        assert!(!report
            .iter()
            .any(|d| d.lint == eks_analyzer::Lint::PressureModelMismatch));
    });
}
