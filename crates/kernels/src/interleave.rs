//! Instruction-level interleaving of two independent candidate hashes.
//!
//! Section V-B: "A better ILP factor, that is achievable interleaving the
//! production of the hash of two strings at a time, is nevertheless a good
//! choice on Fermi, since that architecture is limited by addition/logical
//! instructions." Dual-issue pairs *consecutive* independent instructions
//! of one warp, so the two hash computations must be zipped
//! instruction-by-instruction, not concatenated.

use eks_gpusim::isa::{AbstractOp, KernelIr, Operand, Reg};

/// Interleave two kernel bodies into one, renumbering the second body's
/// registers and parameters so the streams are fully independent.
///
/// The result tests `a.keys_per_iteration + b.keys_per_iteration`
/// candidates per iteration.
pub fn interleave(a: &KernelIr, b: &KernelIr) -> KernelIr {
    let reg_offset = a.reg_count;
    let param_offset = max_param(a).map_or(0, |p| p + 1);
    let remapped: Vec<AbstractOp> = b
        .ops
        .iter()
        .map(|op| remap(*op, reg_offset, param_offset))
        .collect();

    // Zip the two streams op-by-op; the tail of the longer one follows.
    let mut ops = Vec::with_capacity(a.ops.len() + b.ops.len());
    let mut ia = a.ops.iter().copied();
    let mut ib = remapped.into_iter();
    loop {
        match (ia.next(), ib.next()) {
            (Some(x), Some(y)) => {
                ops.push(x);
                ops.push(y);
            }
            (Some(x), None) => ops.push(x),
            (None, Some(y)) => ops.push(y),
            (None, None) => break,
        }
    }
    KernelIr {
        name: format!("{}+x2", a.name),
        ops,
        keys_per_iteration: a.keys_per_iteration + b.keys_per_iteration,
        reg_count: a.reg_count + b.reg_count,
    }
}

/// Interleave a kernel with a register-renamed copy of itself.
pub fn interleave_self(a: &KernelIr) -> KernelIr {
    interleave(a, a)
}

fn max_param(ir: &KernelIr) -> Option<u32> {
    ir.ops
        .iter()
        .filter_map(|op| match op {
            AbstractOp::LoadParam { index, .. } => Some(*index),
            _ => None,
        })
        .max()
}

fn remap(op: AbstractOp, dr: u32, dp: u32) -> AbstractOp {
    let r = |x: Reg| Reg(x.0 + dr);
    let o = |x: Operand| match x {
        Operand::R(reg) => Operand::R(Reg(reg.0 + dr)),
        imm => imm,
    };
    match op {
        AbstractOp::Add { dst, a, b } => AbstractOp::Add { dst: r(dst), a: o(a), b: o(b) },
        AbstractOp::And { dst, a, b } => AbstractOp::And { dst: r(dst), a: o(a), b: o(b) },
        AbstractOp::Or { dst, a, b } => AbstractOp::Or { dst: r(dst), a: o(a), b: o(b) },
        AbstractOp::Xor { dst, a, b } => AbstractOp::Xor { dst: r(dst), a: o(a), b: o(b) },
        AbstractOp::Not { dst, a } => AbstractOp::Not { dst: r(dst), a: o(a) },
        AbstractOp::Shl { dst, a, n } => AbstractOp::Shl { dst: r(dst), a: o(a), n },
        AbstractOp::Shr { dst, a, n } => AbstractOp::Shr { dst: r(dst), a: o(a), n },
        AbstractOp::Rotl { dst, a, n } => AbstractOp::Rotl { dst: r(dst), a: o(a), n },
        AbstractOp::Const { dst, value } => AbstractOp::Const { dst: r(dst), value },
        AbstractOp::LoadParam { dst, index } => {
            AbstractOp::LoadParam { dst: r(dst), index: index + dp }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::md5::{build_md5, Md5Variant};
    use crate::{words_for, HashAlgo};
    use eks_gpusim::arch::ComputeCapability;
    use eks_gpusim::codegen::{lower, LoweringOptions};
    use eks_gpusim::isa::KernelBuilder;
    use eks_gpusim::sched::{simulate, SimConfig};

    fn chain(n: u32) -> KernelIr {
        let mut b = KernelBuilder::new("chain");
        let mut acc = b.param(0);
        for _ in 0..n {
            acc = b.add(acc, 1u32);
        }
        b.build()
    }

    #[test]
    fn interleaved_counts_double() {
        let a = chain(10);
        let x2 = interleave_self(&a);
        assert_eq!(x2.ops.len(), 2 * a.ops.len());
        assert_eq!(x2.keys_per_iteration, 2);
        assert_eq!(x2.reg_count, 2 * a.reg_count);
    }

    #[test]
    fn interleaving_preserves_semantics() {
        let words = words_for(HashAlgo::Md5, 4);
        let built = build_md5(Md5Variant::Optimized, &words);
        let x2 = interleave_self(&built.ir);
        // Evaluate with two different candidate words; the two streams
        // must produce their own results independently.
        let w_a = 0x6162_6364u32;
        let w_b = 0x7172_7374u32;
        let single_a = built.ir.evaluate(&[w_a]);
        let single_b = built.ir.evaluate(&[w_b]);
        let both = x2.evaluate(&[w_a, w_b]);
        let out = built.outputs[0].0 as usize;
        assert_eq!(both[out], single_a[out]);
        assert_eq!(both[built.ir.reg_count as usize + out], single_b[out]);
    }

    #[test]
    fn interleaving_raises_dual_issue_on_fermi() {
        let words = words_for(HashAlgo::Md5, 4);
        let built = build_md5(Md5Variant::Optimized, &words);
        let single = lower(&built.ir, LoweringOptions::plain(ComputeCapability::Sm21));
        let doubled = lower(
            &interleave_self(&built.ir),
            LoweringOptions::plain(ComputeCapability::Sm21),
        );
        let cfg = SimConfig { warps: 48, iterations: 6, max_cycles: 100_000_000 };
        let r1 = simulate(&single, cfg);
        let r2 = simulate(&doubled, cfg);
        assert!(
            r2.dual_issue_rate() > r1.dual_issue_rate() + 0.2,
            "x2 dual-issue {} vs single {}",
            r2.dual_issue_rate(),
            r1.dual_issue_rate()
        );
        // The win is bounded by the shared-port contention the model
        // captures (≈ +9 % keys/cycle on cc 2.1); any regression below a
        // 5 % improvement means interleaving stopped helping.
        assert!(
            r2.keys_per_cycle() > r1.keys_per_cycle() * 1.05,
            "x2 keys/cycle {} vs {}",
            r2.keys_per_cycle(),
            r1.keys_per_cycle()
        );
    }

    #[test]
    fn uneven_streams_zip_with_tail() {
        let a = chain(3);
        let b = chain(6);
        let z = interleave(&a, &b);
        assert_eq!(z.ops.len(), 9 + 2, "3+1 params… ops: 4 + 7 = 11");
    }
}
