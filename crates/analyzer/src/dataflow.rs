//! Dataflow analysis over abstract (source-level) kernel programs.
//!
//! The kernels are straight-line single-assignment-ish programs, so
//! def-use chains come out of one forward scan and liveness out of one
//! backward scan. The lints encode the properties the paper's authors
//! checked by hand: no operation reads garbage, nothing computes a value
//! the comparison never consumes, and nothing runtime-computes what the
//! compiler would fold.

// Indexing/slicing below is over fixed-size state arrays or lengths
// established by construction; the workspace `clippy::indexing_slicing`
// escalation guards new code, not these proven accesses.
#![allow(clippy::indexing_slicing)]

use std::collections::{HashMap, HashSet};

use eks_gpusim::isa::{AbstractOp, KernelIr, Operand, Reg};

use crate::diagnostic::{Diagnostic, Lint, Span};

/// Def-use chains for a straight-line abstract program.
#[derive(Debug, Clone, Default)]
pub struct DefUse {
    /// First defining operation index per register.
    pub defs: HashMap<Reg, usize>,
    /// Operation indices reading each register, in order.
    pub uses: HashMap<Reg, Vec<usize>>,
}

impl DefUse {
    /// Build the chains with one forward scan.
    pub fn of(ir: &KernelIr) -> Self {
        let mut du = DefUse::default();
        for (i, op) in ir.ops.iter().enumerate() {
            for r in op.src_regs() {
                du.uses.entry(r).or_default().push(i);
            }
            du.defs.entry(op.dst()).or_insert(i);
        }
        du
    }
}

/// Registers read before any operation defines them — in abstract IR
/// every input arrives through `LoadParam`, so any such read is a bug.
fn use_before_def(ir: &KernelIr) -> Vec<(Reg, usize)> {
    let mut defined: HashSet<Reg> = HashSet::new();
    let mut bad = Vec::new();
    for (i, op) in ir.ops.iter().enumerate() {
        for r in op.src_regs() {
            if !defined.contains(&r) {
                bad.push((r, i));
            }
        }
        defined.insert(op.dst());
    }
    bad
}

/// Indices of operations whose results never (transitively) reach a root
/// register — classic backward-liveness dead-code detection.
///
/// `roots` are the registers the kernel's comparison reads (the
/// `BuiltKernel::outputs`); everything feeding them stays, the rest is a
/// dead store.
fn dead_stores(ir: &KernelIr, roots: &[Reg]) -> Vec<usize> {
    let mut live: HashSet<Reg> = roots.iter().copied().collect();
    let mut dead = Vec::new();
    for (i, op) in ir.ops.iter().enumerate().rev() {
        if live.remove(&op.dst()) {
            live.extend(op.src_regs());
        } else {
            dead.push(i);
        }
    }
    dead.reverse();
    dead
}

/// Rebuild the kernel with dead stores removed. Register numbering and
/// semantics of the remaining operations are untouched, so evaluating
/// the result with the same parameters produces identical values in
/// every live register.
pub fn eliminate_dead_stores(ir: &KernelIr, roots: &[Reg]) -> KernelIr {
    let dead: HashSet<usize> = dead_stores(ir, roots).into_iter().collect();
    KernelIr {
        name: ir.name.clone(),
        ops: ir
            .ops
            .iter()
            .enumerate()
            .filter(|(i, _)| !dead.contains(i))
            .map(|(_, op)| *op)
            .collect(),
        keys_per_iteration: ir.keys_per_iteration,
        reg_count: ir.reg_count,
    }
}

/// Indices of non-load operations whose inputs are all compile-time
/// constants: a compiler folds them, so their presence means the builder
/// emitted avoidable runtime work.
fn const_foldable(ir: &KernelIr) -> Vec<usize> {
    let mut konst: HashSet<Reg> = HashSet::new();
    let mut foldable = Vec::new();
    for (i, op) in ir.ops.iter().enumerate() {
        match op {
            AbstractOp::Const { dst, .. } => {
                konst.insert(*dst);
            }
            AbstractOp::LoadParam { .. } => {}
            _ => {
                let all_const = op.operands().into_iter().flatten().all(|o| match o {
                    Operand::Imm(_) => true,
                    Operand::R(r) => konst.contains(&r),
                });
                if all_const {
                    konst.insert(op.dst());
                    foldable.push(i);
                }
            }
        }
    }
    foldable
}

/// Run every IR-level check and return the findings.
///
/// `roots` enables the dead-store lint; pass `None` when the kernel's
/// output registers are unknown (e.g. baseline tool models) and the
/// check is skipped.
pub fn check_ir(ir: &KernelIr, roots: Option<&[Reg]>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (r, i) in use_before_def(ir) {
        out.push(Diagnostic::deny(
            Lint::UseBeforeDef,
            Span::at(i),
            format!("operation {i} reads {r} before any definition"),
        ));
    }
    if let Some(roots) = roots {
        for i in dead_stores(ir, roots) {
            out.push(Diagnostic::warn(
                Lint::DeadStore,
                Span::at(i),
                format!("result {} of operation {i} never reaches an output", ir.ops[i].dst()),
            ));
        }
    }
    for i in const_foldable(ir) {
        out.push(Diagnostic::warn(
            Lint::ConstFoldable,
            Span::at(i),
            format!("operation {i} has all-constant inputs; the compiler would fold it"),
        ));
    }
    out.sort_by_key(|d| d.span.start);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use eks_gpusim::isa::KernelBuilder;

    #[test]
    fn def_use_chains() {
        let mut b = KernelBuilder::new("t");
        let x = b.param(0);
        let y = b.add(x, 1u32);
        let _ = b.xor(x, y);
        let ir = b.build();
        let du = DefUse::of(&ir);
        assert_eq!(du.defs[&x], 0);
        assert_eq!(du.uses[&x], [1, 2]);
        assert_eq!(du.uses[&y], [2]);
    }

    #[test]
    fn use_before_def_detected() {
        let mut b = KernelBuilder::new("t");
        let x = b.param(0);
        let ghost = Reg(99);
        let dst = b.fresh();
        // Hand-build an op reading a never-defined register.
        let mut ir = b.build();
        ir.ops.push(AbstractOp::Add { dst, a: Operand::R(x), b: Operand::R(ghost) });
        ir.reg_count = 100;
        let bad = use_before_def(&ir);
        assert_eq!(bad, vec![(ghost, 1)]);
        let diags = check_ir(&ir, None);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].lint, Lint::UseBeforeDef);
    }

    #[test]
    fn dead_store_found_and_eliminated() {
        let mut b = KernelBuilder::new("t");
        let x = b.param(0);
        let live = b.add(x, 1u32);
        let dead = b.xor(x, 0xffu32); // never consumed
        let out = b.add(live, 2u32);
        let _ = dead;
        let ir = b.build();
        let d = dead_stores(&ir, &[out]);
        assert_eq!(d, vec![2]);
        let slim = eliminate_dead_stores(&ir, &[out]);
        assert_eq!(slim.ops.len(), ir.ops.len() - 1);
        // Values of live registers unchanged.
        let a = ir.evaluate(&[7]);
        let bvals = slim.evaluate(&[7]);
        assert_eq!(a[out.0 as usize], bvals[out.0 as usize]);
    }

    #[test]
    fn transitively_dead_chain_eliminated() {
        let mut b = KernelBuilder::new("t");
        let x = b.param(0);
        let d1 = b.add(x, 1u32);
        let d2 = b.add(d1, 2u32); // both dead: d2 unread
        let out = b.xor(x, 3u32);
        let _ = d2;
        let ir = b.build();
        assert_eq!(dead_stores(&ir, &[out]), vec![1, 2]);
    }

    #[test]
    fn const_foldable_found() {
        let mut b = KernelBuilder::new("t");
        let c1 = b.constant(5);
        let c2 = b.constant(7);
        let s = b.add(c1, c2); // foldable
        let x = b.param(0);
        let _ = b.add(x, s);
        let ir = b.build();
        assert_eq!(const_foldable(&ir), vec![2]);
        // Transitive: a shift of the folded sum is foldable too.
        let mut b = KernelBuilder::new("t2");
        let c = b.constant(5);
        let s = b.add(c, 1u32);
        let _ = b.shl(s, 2);
        assert_eq!(const_foldable(&b.build()), vec![1, 2]);
    }

    #[test]
    fn clean_kernel_reports_nothing() {
        let mut b = KernelBuilder::new("clean");
        let x = b.param(0);
        let y = b.rotl(x, 7);
        let out = b.add(x, y);
        let ir = b.build();
        assert!(check_ir(&ir, Some(&[out])).is_empty());
    }
}
