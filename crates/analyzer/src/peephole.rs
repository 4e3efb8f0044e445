//! Peephole lints over lowered machine-instruction streams.
//!
//! These encode exactly the hand-optimizations of Section V-B: on cc 3.0
//! a rotate-by-16 should be one `PRMT` (`__byte_perm`), on cc 3.5 every
//! rotate should be one `SHF` funnel shift, and a materialized NOT
//! (`LOP.XOR r, -1`) feeding only logic instructions should merge into
//! its consumers' operand modifiers. Each lint recognizes the rotate
//! emulation sequences the compiler emits — `SHL+IMAD.HI` on cc ≥ 2.0,
//! `SHL+SHR+ADD` on cc 1.x — from the instruction stream alone, the way
//! the authors read `cuobjdump -sass` listings.

// Indexing/slicing below is over fixed-size state arrays or lengths
// established by construction; the workspace `clippy::indexing_slicing`
// escalation guards new code, not these proven accesses.
#![allow(clippy::indexing_slicing)]

use eks_gpusim::codegen::CompiledKernel;
use eks_gpusim::isa::{MachineClass, MachineInstr};

use crate::diagnostic::{Diagnostic, Lint, Span};

/// A rotate-emulation sequence recognized in a lowered stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RotateSeq {
    /// Index of the first instruction of the sequence.
    pub start: usize,
    /// Index of the combining instruction (`IMAD` or `IADD`).
    pub end: usize,
    /// The left-rotate amount.
    pub amount: u32,
}

/// Recognize rotate-emulation sequences: `SHL t,r,n ; IMAD.HI d,r,t`
/// (cc ≥ 2.0) and `SHL t1,r,n ; SHR t2,r,32-n ; IADD d,t1,t2` (cc 1.x).
fn rotate_sequences(instrs: &[MachineInstr]) -> Vec<RotateSeq> {
    // Def index per register (streams are single-assignment after
    // lowering, where every temporary is fresh).
    let def = |reg, before: usize| -> Option<usize> {
        (0..before).rev().find(|&j| instrs[j].dst == reg)
    };
    let mut seqs = Vec::new();
    for (i, ins) in instrs.iter().enumerate() {
        match ins.class {
            MachineClass::Imad if ins.srcs.len() == 2 => {
                // IMAD.HI d, r, 2^(32-n), t — operands [r, t].
                let (r, t) = (ins.srcs[0], ins.srcs[1]);
                if let Some(j) = def(t, i) {
                    let s = &instrs[j];
                    if s.class == MachineClass::Shift && s.srcs == [r] {
                        if let Some(n) = s.imm {
                            seqs.push(RotateSeq { start: j, end: i, amount: n });
                        }
                    }
                }
            }
            MachineClass::IAdd if ins.srcs.len() == 2 => {
                let (t1, t2) = (ins.srcs[0], ins.srcs[1]);
                if let (Some(j1), Some(j2)) = (def(t1, i), def(t2, i)) {
                    let (s1, s2) = (&instrs[j1], &instrs[j2]);
                    if s1.class == MachineClass::Shift
                        && s2.class == MachineClass::Shift
                        && s1.srcs.len() == 1
                        && s1.srcs == s2.srcs
                    {
                        if let (Some(n), Some(m)) = (s1.imm, s2.imm) {
                            if n + m == 32 {
                                seqs.push(RotateSeq {
                                    start: j1.min(j2),
                                    end: i,
                                    amount: n,
                                });
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }
    seqs
}

/// Whether an instruction is a materialized NOT: `LOP.XOR r, -1`.
fn is_materialized_not(ins: &MachineInstr) -> bool {
    ins.class == MachineClass::Lop && ins.srcs.len() == 1 && ins.imm == Some(u32::MAX)
}

/// Run every peephole lint against a lowered kernel.
pub fn check_compiled(kernel: &CompiledKernel) -> Vec<Diagnostic> {
    let cc = kernel.cc;
    let instrs = &kernel.instrs;
    let mut out = Vec::new();

    for seq in rotate_sequences(instrs) {
        let span = Span { start: seq.start, len: seq.end - seq.start + 1 };
        if cc.has_funnel_shift() {
            out.push(Diagnostic::warn(
                Lint::FunnelMissed,
                span,
                format!(
                    "rotate-by-{} emulated with {} instructions; cc {} has the SHF funnel shift",
                    seq.amount,
                    seq.end - seq.start + 1,
                    cc.label()
                ),
            ));
        } else if seq.amount == 16 && cc.prefers_prmt_rot16() {
            out.push(Diagnostic::warn(
                Lint::PrmtMissed,
                span,
                format!(
                    "rotate-by-16 emulated with shifts; __byte_perm lowers it to one PRMT on cc {}",
                    cc.label()
                ),
            ));
        }
    }

    for (i, ins) in instrs.iter().enumerate() {
        if !is_materialized_not(ins) {
            continue;
        }
        let uses: Vec<usize> = (i + 1..instrs.len())
            .filter(|&j| instrs[j].srcs.contains(&ins.dst))
            .collect();
        if !uses.is_empty() && uses.iter().all(|&j| instrs[j].class == MachineClass::Lop) {
            out.push(Diagnostic::warn(
                Lint::NotFoldable,
                Span::at(i),
                format!(
                    "NOT materialized as LOP.XOR {}, -1 feeds only logic instructions; \
                     it folds into their operand modifiers",
                    ins.dst
                ),
            ));
        }
    }

    out.sort_by_key(|d| d.span.start);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use eks_gpusim::arch::ComputeCapability;
    use eks_gpusim::codegen::{lower, LoweringOptions};
    use eks_gpusim::isa::{KernelBuilder, Reg};

    fn rotate_kernel(n: u32) -> eks_gpusim::isa::KernelIr {
        let mut b = KernelBuilder::new("rot");
        let x = b.param(0);
        let y = b.rotl(x, n);
        let _ = b.add(x, y);
        b.build()
    }

    #[test]
    fn recognizes_cc2x_rotate_sequence() {
        let k = lower(&rotate_kernel(7), LoweringOptions::plain(ComputeCapability::Sm30));
        let seqs = rotate_sequences(&k.instrs);
        assert_eq!(seqs.len(), 1);
        assert_eq!(seqs[0].amount, 7);
    }

    #[test]
    fn recognizes_cc1x_rotate_sequence() {
        let k = lower(&rotate_kernel(11), LoweringOptions::plain(ComputeCapability::Sm1x));
        let seqs = rotate_sequences(&k.instrs);
        assert_eq!(seqs.len(), 1);
        assert_eq!(seqs[0].amount, 11);
        assert_eq!(seqs[0].end - seqs[0].start, 2, "SHL+SHR+ADD spans three instructions");
    }

    #[test]
    fn prmt_missed_on_sm30_plain() {
        let k = lower(&rotate_kernel(16), LoweringOptions::plain(ComputeCapability::Sm30));
        let diags = check_compiled(&k);
        assert!(diags.iter().any(|d| d.lint == Lint::PrmtMissed), "{diags:?}");
        // Non-16 rotates do not trigger the PRMT lint.
        let k7 = lower(&rotate_kernel(7), LoweringOptions::plain(ComputeCapability::Sm30));
        assert!(check_compiled(&k7).is_empty());
    }

    #[test]
    fn funnel_missed_on_sm35_plain() {
        let k = lower(&rotate_kernel(7), LoweringOptions::plain(ComputeCapability::Sm35));
        let diags = check_compiled(&k);
        assert!(diags.iter().any(|d| d.lint == Lint::FunnelMissed), "{diags:?}");
    }

    #[test]
    fn optimized_lowering_is_clean() {
        for n in [7, 16, 23] {
            for cc in [ComputeCapability::Sm30, ComputeCapability::Sm35] {
                let k = lower(&rotate_kernel(n), LoweringOptions::for_cc(cc));
                assert!(check_compiled(&k).is_empty(), "rot{n} on {cc:?}");
            }
        }
    }

    #[test]
    fn foldable_not_flagged() {
        // Hand-built stream: a materialized NOT feeding a LOP.
        let instrs = vec![
            MachineInstr::new(MachineClass::Lop, Reg(1), vec![Reg(0)]).with_imm(u32::MAX),
            MachineInstr::new(MachineClass::Lop, Reg(2), vec![Reg(1), Reg(0)]),
        ];
        let k = CompiledKernel {
            name: "t".into(),
            cc: ComputeCapability::Sm30,
            counts: eks_gpusim::codegen::InstrCounts::of(&instrs),
            instrs,
            keys_per_iteration: 1,
            reg_count: 3,
        };
        let diags = check_compiled(&k);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].lint, Lint::NotFoldable);
    }

    #[test]
    fn not_feeding_arithmetic_not_flagged() {
        // The lowering materializes NOTs only for non-logic consumers;
        // those must stay unflagged.
        let mut b = KernelBuilder::new("n");
        let x = b.param(0);
        let nx = b.not(x);
        let _ = b.add(nx, 1u32);
        let k = lower(&b.build(), LoweringOptions::plain(ComputeCapability::Sm30));
        assert!(check_compiled(&k).is_empty());
    }
}
