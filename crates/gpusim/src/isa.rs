//! Kernel IR: the abstract operations a kernel author emits, and the
//! machine instruction classes they lower to.
//!
//! The abstract level corresponds to CUDA C source after trivial
//! simplification (what Table III counts); the machine level corresponds
//! to the `cuobjdump -sass` output the authors inspected (Tables IV–VI).

// Indexing/slicing below is over fixed-size state arrays or lengths
// established by construction; the workspace `clippy::indexing_slicing`
// escalation guards new code, not these proven accesses.
#![allow(clippy::indexing_slicing)]

use std::fmt;

/// A virtual 32-bit register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u32);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Abstract (source-level) operations.
///
/// Field names are uniform across variants: `dst` is the destination
/// register, `a`/`b` the input operands, `n` a compile-time shift or
/// rotate distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // fields follow the uniform naming documented above
pub enum AbstractOp {
    /// `dst = a + b` (wrapping 32-bit).
    Add { dst: Reg, a: Operand, b: Operand },
    /// `dst = a AND/OR/XOR b`.
    And { dst: Reg, a: Operand, b: Operand },
    /// `dst = a | b`.
    Or { dst: Reg, a: Operand, b: Operand },
    /// `dst = a ^ b`.
    Xor { dst: Reg, a: Operand, b: Operand },
    /// `dst = !a` (bitwise complement).
    Not { dst: Reg, a: Operand },
    /// `dst = a << n`.
    Shl { dst: Reg, a: Operand, n: u32 },
    /// `dst = a >> n` (logical).
    Shr { dst: Reg, a: Operand, n: u32 },
    /// `dst = rotate_left(a, n)` — written in CUDA as
    /// `(x << n) + (x >> (32 - n))`, lowered per architecture.
    Rotl { dst: Reg, a: Operand, n: u32 },
    /// Load a compile-time constant (folds away; no machine instruction).
    Const { dst: Reg, value: u32 },
    /// Load a kernel parameter from constant memory (target hash words,
    /// common substring) — modeled as free after first use, per the
    /// paper's "it can be read very quickly".
    LoadParam { dst: Reg, index: u32 },
}

/// An operand: a register or an immediate constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// Register operand.
    R(Reg),
    /// Immediate constant (folds with other constants).
    Imm(u32),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::R(r)
    }
}

impl From<u32> for Operand {
    fn from(v: u32) -> Self {
        Operand::Imm(v)
    }
}

impl Operand {
    /// The register this operand reads, if any.
    pub fn reg(self) -> Option<Reg> {
        match self {
            Operand::R(r) => Some(r),
            Operand::Imm(_) => None,
        }
    }
}

impl AbstractOp {
    /// The register this operation defines.
    pub fn dst(&self) -> Reg {
        match *self {
            AbstractOp::Add { dst, .. }
            | AbstractOp::And { dst, .. }
            | AbstractOp::Or { dst, .. }
            | AbstractOp::Xor { dst, .. }
            | AbstractOp::Not { dst, .. }
            | AbstractOp::Shl { dst, .. }
            | AbstractOp::Shr { dst, .. }
            | AbstractOp::Rotl { dst, .. }
            | AbstractOp::Const { dst, .. }
            | AbstractOp::LoadParam { dst, .. } => dst,
        }
    }

    /// The operands this operation reads (0–2 of them).
    pub fn operands(&self) -> [Option<Operand>; 2] {
        match *self {
            AbstractOp::Add { a, b, .. }
            | AbstractOp::And { a, b, .. }
            | AbstractOp::Or { a, b, .. }
            | AbstractOp::Xor { a, b, .. } => [Some(a), Some(b)],
            AbstractOp::Not { a, .. }
            | AbstractOp::Shl { a, .. }
            | AbstractOp::Shr { a, .. }
            | AbstractOp::Rotl { a, .. } => [Some(a), None],
            AbstractOp::Const { .. } | AbstractOp::LoadParam { .. } => [None, None],
        }
    }

    /// The registers this operation reads (def-use hook for dataflow
    /// analyses; immediates impose no dependence).
    pub fn src_regs(&self) -> impl Iterator<Item = Reg> {
        self.operands().into_iter().flatten().filter_map(Operand::reg)
    }

}

/// Machine instruction classes, matching the paper's Tables IV–VI rows
/// plus the cc 3.5 funnel shift.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MachineClass {
    /// `IADD` — 32-bit integer addition.
    IAdd,
    /// `AND`/`OR`/`XOR` (`LOP`) — 32-bit bitwise logic.
    Lop,
    /// `SHR`/`SHL` — 32-bit shifts.
    Shift,
    /// `IMAD`/`ISCADD` — multiply-add / scaled add (shift-and-add
    /// emulation of the second half of a rotate on cc ≥ 2.0).
    Imad,
    /// `PRMT` — byte permute (`__byte_perm`), used for rotate-by-16.
    Prmt,
    /// `SHF` — funnel shift (cc 3.5+): a full rotate in one instruction.
    Funnel,
}

impl MachineClass {
    /// All classes, in display order.
    pub const ALL: [MachineClass; 6] = [
        MachineClass::IAdd,
        MachineClass::Lop,
        MachineClass::Shift,
        MachineClass::Imad,
        MachineClass::Prmt,
        MachineClass::Funnel,
    ];

    /// Short mnemonic used in table output.
    pub fn mnemonic(self) -> &'static str {
        match self {
            MachineClass::IAdd => "IADD",
            MachineClass::Lop => "AND/OR/XOR",
            MachineClass::Shift => "SHR/SHL",
            MachineClass::Imad => "IMAD/ISCADD",
            MachineClass::Prmt => "PRMT",
            MachineClass::Funnel => "SHF",
        }
    }
}

/// A lowered machine instruction with register dependences (sources that
/// are registers; immediates impose no dependence).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineInstr {
    /// Execution class (selects the execution port and throughput).
    pub class: MachineClass,
    /// Destination register.
    pub dst: Reg,
    /// Source registers (0–3 of them).
    pub srcs: Vec<Reg>,
    /// Compile-time immediate the instruction carries, when the class
    /// takes one: the shift distance for `Shift`, the rotate amount for
    /// `Prmt`/`Funnel`. `None` for plain ALU instructions. Peephole
    /// analyses use it to recognize rotate-emulation sequences.
    pub imm: Option<u32>,
}

impl MachineInstr {
    /// An instruction with no immediate operand.
    pub fn new(class: MachineClass, dst: Reg, srcs: Vec<Reg>) -> Self {
        Self { class, dst, srcs, imm: None }
    }

    /// Attach an immediate operand (shift or rotate amount).
    pub fn with_imm(mut self, imm: u32) -> Self {
        self.imm = Some(imm);
        self
    }
}

/// A kernel body in abstract form: the per-candidate loop body of a
/// cracking kernel. Candidate count per execution of the body is
/// `keys_per_iteration` (the ×2 interleaved variant hashes two).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelIr {
    /// Human-readable kernel name (e.g. `md5/reversed`).
    pub name: String,
    /// Abstract operation stream for one loop iteration.
    pub ops: Vec<AbstractOp>,
    /// Candidates tested per loop iteration.
    pub keys_per_iteration: u32,
    /// Highest register id used + 1.
    pub reg_count: u32,
}

/// Builder for [`KernelIr`] with fresh-register allocation and source-level
/// operation counting.
#[derive(Debug, Clone)]
pub struct KernelBuilder {
    name: String,
    ops: Vec<AbstractOp>,
    next_reg: u32,
    keys_per_iteration: u32,
}

impl KernelBuilder {
    /// Start a kernel.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), ops: Vec::new(), next_reg: 0, keys_per_iteration: 1 }
    }

    /// Set how many candidates one loop iteration tests.
    pub fn keys_per_iteration(&mut self, n: u32) -> &mut Self {
        assert!(n > 0);
        self.keys_per_iteration = n;
        self
    }

    /// Allocate a fresh register.
    pub fn fresh(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// Emit `dst = a + b` into a fresh register.
    pub fn add(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        let dst = self.fresh();
        self.ops.push(AbstractOp::Add { dst, a: a.into(), b: b.into() });
        dst
    }

    /// Emit `dst = a & b`.
    pub fn and(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        let dst = self.fresh();
        self.ops.push(AbstractOp::And { dst, a: a.into(), b: b.into() });
        dst
    }

    /// Emit `dst = a | b`.
    pub fn or(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        let dst = self.fresh();
        self.ops.push(AbstractOp::Or { dst, a: a.into(), b: b.into() });
        dst
    }

    /// Emit `dst = a ^ b`.
    pub fn xor(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        let dst = self.fresh();
        self.ops.push(AbstractOp::Xor { dst, a: a.into(), b: b.into() });
        dst
    }

    /// Emit `dst = !a`.
    pub fn not(&mut self, a: impl Into<Operand>) -> Reg {
        let dst = self.fresh();
        self.ops.push(AbstractOp::Not { dst, a: a.into() });
        dst
    }

    /// Emit `dst = a << n`.
    pub fn shl(&mut self, a: impl Into<Operand>, n: u32) -> Reg {
        let dst = self.fresh();
        self.ops.push(AbstractOp::Shl { dst, a: a.into(), n });
        dst
    }

    /// Emit `dst = a >> n`.
    pub fn shr(&mut self, a: impl Into<Operand>, n: u32) -> Reg {
        let dst = self.fresh();
        self.ops.push(AbstractOp::Shr { dst, a: a.into(), n });
        dst
    }

    /// Emit `dst = rotl(a, n)`.
    pub fn rotl(&mut self, a: impl Into<Operand>, n: u32) -> Reg {
        assert!(n > 0 && n < 32, "rotate amount must be in 1..=31");
        let dst = self.fresh();
        self.ops.push(AbstractOp::Rotl { dst, a: a.into(), n });
        dst
    }

    /// Materialize a compile-time constant.
    pub fn constant(&mut self, value: u32) -> Reg {
        let dst = self.fresh();
        self.ops.push(AbstractOp::Const { dst, value });
        dst
    }

    /// Load a kernel parameter (constant memory).
    pub fn param(&mut self, index: u32) -> Reg {
        let dst = self.fresh();
        self.ops.push(AbstractOp::LoadParam { dst, index });
        dst
    }

    /// Finish the kernel.
    pub fn build(self) -> KernelIr {
        KernelIr {
            name: self.name,
            ops: self.ops,
            keys_per_iteration: self.keys_per_iteration,
            reg_count: self.next_reg,
        }
    }
}

impl KernelIr {
    /// Functionally evaluate one iteration of the kernel body with the
    /// given parameter values, returning every register's final value.
    ///
    /// This makes the IR executable, so tests can verify that a kernel
    /// trace really computes MD5/SHA-1 (not just that it has plausible
    /// instruction counts).
    ///
    /// # Panics
    /// Panics on reads of never-written registers or out-of-range
    /// parameters.
    pub fn evaluate(&self, params: &[u32]) -> Vec<u32> {
        let mut regs: Vec<Option<u32>> = vec![None; self.reg_count as usize];
        let get = |regs: &[Option<u32>], op: Operand| -> u32 {
            match op {
                Operand::Imm(v) => v,
                Operand::R(r) => regs[r.0 as usize].expect("read of unwritten register"),
            }
        };
        for op in &self.ops {
            match *op {
                AbstractOp::Add { dst, a, b } => {
                    regs[dst.0 as usize] = Some(get(&regs, a).wrapping_add(get(&regs, b)))
                }
                AbstractOp::And { dst, a, b } => {
                    regs[dst.0 as usize] = Some(get(&regs, a) & get(&regs, b))
                }
                AbstractOp::Or { dst, a, b } => {
                    regs[dst.0 as usize] = Some(get(&regs, a) | get(&regs, b))
                }
                AbstractOp::Xor { dst, a, b } => {
                    regs[dst.0 as usize] = Some(get(&regs, a) ^ get(&regs, b))
                }
                AbstractOp::Not { dst, a } => regs[dst.0 as usize] = Some(!get(&regs, a)),
                AbstractOp::Shl { dst, a, n } => {
                    regs[dst.0 as usize] = Some(get(&regs, a) << n)
                }
                AbstractOp::Shr { dst, a, n } => {
                    regs[dst.0 as usize] = Some(get(&regs, a) >> n)
                }
                AbstractOp::Rotl { dst, a, n } => {
                    regs[dst.0 as usize] = Some(get(&regs, a).rotate_left(n))
                }
                AbstractOp::Const { dst, value } => regs[dst.0 as usize] = Some(value),
                AbstractOp::LoadParam { dst, index } => {
                    regs[dst.0 as usize] = Some(params[index as usize])
                }
            }
        }
        regs.into_iter().map(|r| r.unwrap_or(0)).collect()
    }
}

/// Source-level operation counts (the quantities of Table III: operations
/// "that cannot be evaluated at compile time in the CUDA source code").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceCounts {
    /// 32-bit integer additions (a source rotate contributes one, since it
    /// is written `(x << n) + (x >> (32 - n))`).
    pub add: u32,
    /// Bitwise AND/OR/XOR.
    pub logic: u32,
    /// Unary NOT.
    pub not: u32,
    /// Shifts (a source rotate contributes two).
    pub shift: u32,
}

impl KernelIr {
    /// Count source-level operations, expanding rotates into two shifts
    /// plus one addition as the CUDA source expresses them. Constant loads
    /// and parameter loads are free.
    pub fn source_counts(&self) -> SourceCounts {
        let mut c = SourceCounts::default();
        for op in &self.ops {
            match op {
                AbstractOp::Add { .. } => c.add += 1,
                AbstractOp::And { .. } | AbstractOp::Or { .. } | AbstractOp::Xor { .. } => {
                    c.logic += 1
                }
                AbstractOp::Not { .. } => c.not += 1,
                AbstractOp::Shl { .. } | AbstractOp::Shr { .. } => c.shift += 1,
                AbstractOp::Rotl { .. } => {
                    c.shift += 2;
                    c.add += 1;
                }
                AbstractOp::Const { .. } | AbstractOp::LoadParam { .. } => {}
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_allocates_fresh_registers() {
        let mut b = KernelBuilder::new("t");
        let r0 = b.constant(1);
        let r1 = b.constant(2);
        let r2 = b.add(r0, r1);
        assert_eq!((r0, r1, r2), (Reg(0), Reg(1), Reg(2)));
        let k = b.build();
        assert_eq!(k.reg_count, 3);
        assert_eq!(k.ops.len(), 3);
    }

    #[test]
    fn source_counts_expand_rotates() {
        let mut b = KernelBuilder::new("t");
        let x = b.param(0);
        let y = b.rotl(x, 7);
        let z = b.add(x, y);
        let _ = b.xor(z, x);
        let k = b.build();
        let c = k.source_counts();
        assert_eq!(c.add, 2, "rotate contributes one add");
        assert_eq!(c.shift, 2, "rotate contributes two shifts");
        assert_eq!(c.logic, 1);
        assert_eq!(c.not, 0);
    }

    #[test]
    #[should_panic]
    fn zero_rotate_rejected() {
        let mut b = KernelBuilder::new("t");
        let x = b.param(0);
        b.rotl(x, 0);
    }

    #[test]
    fn operand_conversions() {
        assert_eq!(Operand::from(Reg(3)), Operand::R(Reg(3)));
        assert_eq!(Operand::from(7u32), Operand::Imm(7));
    }

    #[test]
    fn mnemonics_are_table_rows() {
        assert_eq!(MachineClass::IAdd.mnemonic(), "IADD");
        assert_eq!(MachineClass::Imad.mnemonic(), "IMAD/ISCADD");
        assert_eq!(MachineClass::ALL.len(), 6);
    }
}
