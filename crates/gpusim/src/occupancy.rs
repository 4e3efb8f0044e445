//! Occupancy: how many warps actually fit on a multiprocessor.
//!
//! The simulator defaults to the architecture's maximum resident warps,
//! justified by the kernels' small register footprints — this module
//! supplies the justification. Physical registers are estimated with a
//! linear-scan over the lowered stream (maximum simultaneously-live
//! virtual registers), and occupancy follows from the register file size.
//! The paper’s reference \[13\] (Volkov, "Better performance at lower
//! occupancy") is the classic treatment of why this matters: latency
//! hiding needs `latency / issue` warps, not necessarily the maximum.

use crate::arch::ComputeCapability;
use crate::codegen::CompiledKernel;
use crate::liveness;

/// Register file size (32-bit registers per multiprocessor).
fn register_file_size(cc: ComputeCapability) -> u32 {
    match cc {
        ComputeCapability::Sm1x => 8 * 1024,
        ComputeCapability::Sm20 | ComputeCapability::Sm21 => 32 * 1024,
        ComputeCapability::Sm30 | ComputeCapability::Sm35 => 64 * 1024,
    }
}

/// Estimate the physical registers one thread needs: the maximum number
/// of simultaneously-live virtual registers over the stream (a register
/// is live from its definition to its last use; parameters are live from
/// entry to their last use).
pub fn live_registers(kernel: &CompiledKernel) -> u32 {
    liveness::max_live(&kernel.instrs)
}

/// Resident warps given the kernel's register pressure: the architecture
/// maximum clamped by the register file (each warp holds 32 threads'
/// registers).
pub fn resident_warps(kernel: &CompiledKernel) -> u32 {
    let spec = kernel.cc.mp_spec();
    let per_thread = live_registers(kernel).max(1);
    let by_registers = register_file_size(kernel.cc) / (32 * per_thread);
    spec.max_warps.min(by_registers.max(1))
}

/// Occupancy as a fraction of the architecture maximum.
pub fn occupancy(kernel: &CompiledKernel) -> f64 {
    resident_warps(kernel) as f64 / kernel.cc.mp_spec().max_warps as f64
}

/// Minimum warps needed to hide pipeline latency at full issue rate
/// (Volkov's bound: `latency / issue interval` warps per scheduler).
pub fn latency_hiding_warps(cc: ComputeCapability) -> u32 {
    let spec = cc.mp_spec();
    spec.warp_schedulers * spec.result_latency.div_ceil(spec.issue_cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::{lower, LoweringOptions};
    use crate::isa::KernelBuilder;

    fn chain(n: u32) -> CompiledKernel {
        let mut b = KernelBuilder::new("chain");
        let mut x = b.param(0);
        for _ in 0..n {
            x = b.add(x, 1u32);
        }
        lower(&b.build(), LoweringOptions::plain(ComputeCapability::Sm30))
    }

    #[test]
    fn serial_chain_uses_two_registers() {
        // Only the current and next value are ever live together.
        let k = chain(32);
        assert!(live_registers(&k) <= 2, "got {}", live_registers(&k));
    }

    #[test]
    fn wide_fanin_raises_pressure() {
        let mut b = KernelBuilder::new("wide");
        let inputs: Vec<_> = (0..16).map(|i| b.param(i)).collect();
        // Keep everything live until the final reduction.
        let (&first, rest) = inputs.split_first().expect("16 inputs");
        let mut acc = first;
        for &x in rest {
            acc = b.xor(acc, x);
        }
        // Reuse every input once more so they stay live through the tree.
        let mut acc2 = acc;
        for &x in &inputs {
            acc2 = b.add(acc2, x);
        }
        let k = lower(&b.build(), LoweringOptions::plain(ComputeCapability::Sm30));
        assert!(live_registers(&k) >= 16, "got {}", live_registers(&k));
    }

    #[test]
    fn md5_kernel_runs_at_full_occupancy() {
        // The claim behind SimConfig's default: hash kernels use few
        // registers, so occupancy is register-unconstrained everywhere.
        use eks_hashes_free::build_md5_like;
        let k = build_md5_like();
        let regs = live_registers(&k);
        assert!(regs < 40, "MD5-class kernels are lean: {regs} registers");
        for cc in ComputeCapability::ALL {
            let mut kc = k.clone();
            kc.cc = cc;
            assert!(
                (occupancy(&kc) - 1.0).abs() < 1e-9,
                "{cc:?} occupancy {}",
                occupancy(&kc)
            );
        }
    }

    /// A standalone MD5-shaped kernel (state rotation + schedule reads)
    /// without depending on eks-kernels (which depends on us).
    mod eks_hashes_free {
        use super::*;

        pub(super) fn build_md5_like() -> CompiledKernel {
            let mut b = KernelBuilder::new("md5-like");
            let w0 = b.param(0);
            let mut state = [b.constant(1), b.constant(2), b.constant(3), b.constant(4)];
            for i in 0..64u32 {
                let f = {
                    let bc = b.and(state[1], state[2]);
                    let nb = b.not(state[1]);
                    let nbd = b.and(nb, state[3]);
                    b.or(bc, nbd)
                };
                let sum1 = b.add(state[0], f);
                let sum2 = b.add(sum1, if i % 16 == 0 { w0 } else { sum1 });
                let rot = b.rotl(sum2, 1 + (i % 23));
                let nb = b.add(state[1], rot);
                state = [state[3], nb, state[1], state[2]];
            }
            lower(&b.build(), LoweringOptions::plain(ComputeCapability::Sm30))
        }
    }

    #[test]
    fn register_hog_limits_occupancy() {
        // 200 live registers: 64K / (32 × 200) = 10 warps on Kepler.
        let mut b = KernelBuilder::new("hog");
        let inputs: Vec<_> = (0..200).map(|i| b.param(i)).collect();
        let (&first, rest) = inputs.split_first().expect("200 inputs");
        let mut acc = first;
        for &x in rest {
            acc = b.xor(acc, x);
        }
        for &x in &inputs {
            acc = b.add(acc, x);
        }
        let k = lower(&b.build(), LoweringOptions::plain(ComputeCapability::Sm30));
        let w = resident_warps(&k);
        assert!(w < 16, "register pressure must cut occupancy: {w} warps");
        assert!(occupancy(&k) < 0.3);
    }

    #[test]
    fn latency_hiding_bound() {
        // Kepler: 4 schedulers × ceil(6/1) = 24 warps suffice; the MD5
        // kernel at full occupancy (64) is far above the bound.
        let need = latency_hiding_warps(ComputeCapability::Sm30);
        assert!(need <= ComputeCapability::Sm30.mp_spec().max_warps);
        let fermi = latency_hiding_warps(ComputeCapability::Sm21);
        assert!(fermi <= ComputeCapability::Sm21.mp_spec().max_warps);
    }

    #[test]
    fn register_file_sizes() {
        assert_eq!(register_file_size(ComputeCapability::Sm1x), 8192);
        assert_eq!(register_file_size(ComputeCapability::Sm21), 32768);
        assert_eq!(register_file_size(ComputeCapability::Sm30), 65536);
    }
}
