//! Grid-level kernel IR: the launch-visible skeleton of a search kernel.
//!
//! The straight-line [`crate::isa`] IR models the *arithmetic* of one
//! candidate test; it has no notion of threads, buffers or control
//! flow, so it cannot express the bug classes that live at the launch
//! boundary — an out-of-bounds store when `gridDim·blockDim` overshoots
//! the keyspace, a register read that is only defined on one side of
//! the tail guard, or a `__syncthreads()` sitting inside a divergent
//! branch. This module is a deliberately small IR for exactly that
//! skeleton:
//!
//! * symbolic launch quantities ([`Sym`]): `tid`, `bid`, `blockDim`,
//!   `gridDim` and the keyspace size `n_keys` — never concrete, so a
//!   proof over a [`GridKernel`] holds for *all* grid shapes;
//! * buffers with symbolic extents ([`Extent`]);
//! * structured control flow ([`GStmt::If`]) with `a < b` guards, block
//!   barriers, and an opaque [`GStmt::Body`] standing in for the hashed
//!   candidate test (which the scalar IR and its analyzer passes cover).
//!
//! `eks-analyzer::grid` runs three soundness passes over this IR:
//! value-range bounds proofs, must-defined register dataflow, and a
//! barrier-divergence lint. [`search_wrapper`] builds the canonical
//! guarded wrapper every shipped kernel variant launches with, and the
//! `mutant_*` constructors build known-broken wrappers the passes must
//! flag.

use std::fmt;

/// A virtual register holding a 64-bit launch-skeleton value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GReg(pub u32);

impl fmt::Display for GReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// A symbolic launch quantity. None of these ever take a concrete
/// value during analysis; the only facts the passes may use are the
/// CUDA execution-model ranges (`tid < blockDim`, `bid < gridDim`,
/// `blockDim ≥ 1`, `gridDim ≥ 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sym {
    /// `threadIdx.x` — varies per thread within a block.
    Tid,
    /// `blockIdx.x` — uniform within a block.
    Bid,
    /// `blockDim.x`.
    BlockDim,
    /// `gridDim.x`.
    GridDim,
    /// The number of keys this launch covers (kernel parameter).
    NKeys,
}

impl Sym {
    /// Source-level spelling.
    pub fn name(self) -> &'static str {
        match self {
            Sym::Tid => "tid",
            Sym::Bid => "bid",
            Sym::BlockDim => "blockDim",
            Sym::GridDim => "gridDim",
            Sym::NKeys => "nKeys",
        }
    }
}

/// A buffer identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufId(pub u32);

/// A buffer's symbolic length, in elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extent {
    /// A fixed element count.
    Const(u64),
    /// One element per key in the launch (`n_keys`).
    NKeys,
    /// One element per thread in a block (`blockDim`): shared staging.
    BlockDim,
    /// One element per thread in the grid (`gridDim·blockDim`).
    Threads,
}

/// A named buffer the kernel may load from or store to.
#[derive(Debug, Clone)]
pub struct Buffer {
    /// Display name.
    pub name: String,
    /// Symbolic element count.
    pub extent: Extent,
}

/// A register-producing operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GOp {
    /// Read a symbolic launch quantity.
    ReadSym(Sym),
    /// A compile-time constant.
    Const(u64),
    /// Wrapping addition.
    Add(GReg, GReg),
    /// Wrapping multiplication.
    Mul(GReg, GReg),
    /// Load `buf[index]`.
    Load {
        /// Source buffer.
        buf: BufId,
        /// Element index register.
        index: GReg,
    },
}

/// A branch predicate. Only `<` exists: it is the shape of every tail
/// guard the generated wrappers emit, and keeping the language minimal
/// keeps the range-refinement rule in the analyzer exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pred {
    /// `a < b`, unsigned.
    Lt(GReg, GReg),
}

/// One statement of the launch skeleton.
#[derive(Debug, Clone)]
pub enum GStmt {
    /// `dst = op`.
    Op {
        /// Destination register.
        dst: GReg,
        /// Producing operation.
        op: GOp,
    },
    /// `buf[index] = value`.
    Store {
        /// Destination buffer.
        buf: BufId,
        /// Element index register.
        index: GReg,
        /// Stored register.
        value: GReg,
    },
    /// Structured two-way branch.
    If {
        /// The guard.
        pred: Pred,
        /// Statements executed when the guard holds.
        then_: Vec<GStmt>,
        /// Statements executed otherwise (often empty).
        else_: Vec<GStmt>,
    },
    /// A block-wide barrier (`__syncthreads()`): every thread of the
    /// block must reach it, so it may not sit inside a branch whose
    /// guard varies across the block's threads.
    Barrier,
    /// The opaque candidate-test body (the scalar-IR hash kernel):
    /// reads `reads`, defines `writes`. Its internals are analyzed by
    /// the scalar passes, not here.
    Body {
        /// Registers the body consumes.
        reads: Vec<GReg>,
        /// Registers the body defines.
        writes: Vec<GReg>,
    },
}

/// A grid-level kernel: buffers plus a statement list.
#[derive(Debug, Clone)]
pub struct GridKernel {
    /// Kernel name (`algo/variant` for the shipped wrappers).
    pub name: String,
    /// Number of virtual registers (all `GReg` indices are `< regs`).
    pub regs: u32,
    /// Declared buffers, indexed by [`BufId`].
    pub buffers: Vec<Buffer>,
    /// Top-level statement list.
    pub body: Vec<GStmt>,
}

impl GridKernel {
    /// The buffer behind `id`.
    ///
    /// # Panics
    /// Panics when `id` was not declared on this kernel.
    pub fn buffer(&self, id: BufId) -> &Buffer {
        self.buffers.get(id.0 as usize).expect("undeclared buffer id")
    }

    /// Total number of statements, counting nested branch arms — the
    /// span domain used by analyzer diagnostics.
    pub fn stmt_count(&self) -> usize {
        fn count(stmts: &[GStmt]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    GStmt::If { then_, else_, .. } => 1 + count(then_) + count(else_),
                    _ => 1,
                })
                .sum()
        }
        count(&self.body)
    }
}

/// Incremental [`GridKernel`] builder with structured-branch closures.
pub struct GridBuilder {
    name: String,
    next_reg: u32,
    buffers: Vec<Buffer>,
    frames: Vec<Vec<GStmt>>,
}

impl GridBuilder {
    /// Start a kernel called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        GridBuilder {
            name: name.into(),
            next_reg: 0,
            buffers: Vec::new(),
            frames: vec![Vec::new()],
        }
    }

    fn fresh(&mut self) -> GReg {
        let r = GReg(self.next_reg);
        self.next_reg += 1;
        r
    }

    fn push(&mut self, stmt: GStmt) {
        self.frames.last_mut().expect("builder frame").push(stmt);
    }

    /// Declare a buffer.
    pub fn buffer(&mut self, name: impl Into<String>, extent: Extent) -> BufId {
        let id = BufId(self.buffers.len() as u32);
        self.buffers.push(Buffer { name: name.into(), extent });
        id
    }

    /// `dst = <sym>`.
    pub fn sym(&mut self, s: Sym) -> GReg {
        let dst = self.fresh();
        self.push(GStmt::Op { dst, op: GOp::ReadSym(s) });
        dst
    }

    /// `dst = value`.
    pub fn constant(&mut self, value: u64) -> GReg {
        let dst = self.fresh();
        self.push(GStmt::Op { dst, op: GOp::Const(value) });
        dst
    }

    /// `dst = a + b`.
    pub fn add(&mut self, a: GReg, b: GReg) -> GReg {
        let dst = self.fresh();
        self.push(GStmt::Op { dst, op: GOp::Add(a, b) });
        dst
    }

    /// `dst = a * b`.
    pub fn mul(&mut self, a: GReg, b: GReg) -> GReg {
        let dst = self.fresh();
        self.push(GStmt::Op { dst, op: GOp::Mul(a, b) });
        dst
    }

    /// `dst = buf[index]`.
    pub fn load(&mut self, buf: BufId, index: GReg) -> GReg {
        let dst = self.fresh();
        self.push(GStmt::Op { dst, op: GOp::Load { buf, index } });
        dst
    }

    /// `buf[index] = value`.
    pub fn store(&mut self, buf: BufId, index: GReg, value: GReg) {
        self.push(GStmt::Store { buf, index, value });
    }

    /// A block barrier.
    pub fn barrier(&mut self) {
        self.push(GStmt::Barrier);
    }

    /// The opaque candidate-test body.
    pub fn body(&mut self, reads: &[GReg], writes: &[GReg]) {
        self.push(GStmt::Body { reads: reads.to_vec(), writes: writes.to_vec() });
    }

    /// A fresh register the body will define — lets mutants declare a
    /// register without any defining statement.
    fn undef(&mut self) -> GReg {
        self.fresh()
    }

    /// `if a < b { then_ } else { else_ }`.
    pub fn if_lt(
        &mut self,
        a: GReg,
        b: GReg,
        then_: impl FnOnce(&mut Self),
        else_: impl FnOnce(&mut Self),
    ) {
        self.frames.push(Vec::new());
        then_(self);
        let t = self.frames.pop().expect("then frame");
        self.frames.push(Vec::new());
        else_(self);
        let e = self.frames.pop().expect("else frame");
        self.push(GStmt::If { pred: Pred::Lt(a, b), then_: t, else_: e });
    }

    /// Finish the kernel.
    ///
    /// # Panics
    /// Panics when called with an unclosed branch frame (impossible via
    /// [`GridBuilder::if_lt`], which always closes its frames).
    pub fn finish(mut self) -> GridKernel {
        assert_eq!(self.frames.len(), 1, "unclosed branch frame");
        GridKernel {
            name: self.name,
            regs: self.next_reg,
            buffers: self.buffers,
            body: self.frames.pop().expect("root frame"),
        }
    }
}

/// The canonical launch wrapper every shipped search kernel uses
/// (§IV-A of the paper: one thread per candidate, tail-guarded):
///
/// ```text
/// stage[tid] = table[tid]          // uniform shared staging
/// __syncthreads()                  // top-level: uniform, legal
/// gid = bid * blockDim + tid
/// if gid < nKeys {                 // divergent tail guard, no barrier
///     hit = body(gid, stage...)    // scalar hash kernel
///     out[gid] = hit               // in bounds: gid < nKeys proven
/// }
/// ```
///
/// Every access is provably in bounds for *all* grid shapes, every read
/// is dominated by its definition, and the only barrier sits outside
/// the divergent guard — the clean baseline the soundness passes must
/// accept.
pub fn search_wrapper(name: &str) -> GridKernel {
    let mut b = GridBuilder::new(name);
    let table = b.buffer("table", Extent::BlockDim);
    let stage = b.buffer("stage", Extent::BlockDim);
    let out = b.buffer("out", Extent::NKeys);
    let tid = b.sym(Sym::Tid);
    let staged = b.load(table, tid);
    b.store(stage, tid, staged);
    b.barrier();
    let bid = b.sym(Sym::Bid);
    let bdim = b.sym(Sym::BlockDim);
    let base = b.mul(bid, bdim);
    let gid = b.add(base, tid);
    let nkeys = b.sym(Sym::NKeys);
    b.if_lt(
        gid,
        nkeys,
        |b| {
            let hit = b.undef();
            b.body(&[gid, staged], &[hit]);
            b.store(out, gid, hit);
        },
        |_| {},
    );
    b.finish()
}

/// Mutant: the tail guard is dropped, so `out[gid]` is written for
/// every thread in the grid even when `gridDim·blockDim > nKeys`. The
/// bounds pass must reject the store.
pub fn mutant_unguarded_store(name: &str) -> GridKernel {
    let mut b = GridBuilder::new(name);
    let out = b.buffer("out", Extent::NKeys);
    let tid = b.sym(Sym::Tid);
    let bid = b.sym(Sym::Bid);
    let bdim = b.sym(Sym::BlockDim);
    let base = b.mul(bid, bdim);
    let gid = b.add(base, tid);
    let hit = b.undef();
    b.body(&[gid], &[hit]);
    b.store(out, gid, hit);
    b.finish()
}

/// Mutant: `hit` is only defined inside the guard but read after the
/// join — the PR 1 dead-rotl bug class lifted to the launch skeleton.
/// The must-defined pass must reject the read.
pub fn mutant_uninit_read(name: &str) -> GridKernel {
    let mut b = GridBuilder::new(name);
    let out = b.buffer("out", Extent::NKeys);
    let tid = b.sym(Sym::Tid);
    let bid = b.sym(Sym::Bid);
    let bdim = b.sym(Sym::BlockDim);
    let base = b.mul(bid, bdim);
    let gid = b.add(base, tid);
    let nkeys = b.sym(Sym::NKeys);
    let hit = b.undef();
    b.if_lt(
        gid,
        nkeys,
        |b| {
            b.body(&[gid], &[hit]);
        },
        |_| {},
    );
    // `hit` is undefined on the else path.
    b.if_lt(
        gid,
        nkeys,
        |b| {
            b.store(out, gid, hit);
        },
        |_| {},
    );
    b.finish()
}

/// Mutant: the staging barrier moved inside the divergent tail guard —
/// threads past the tail never arrive and the block hangs. The
/// divergence lint must reject the barrier.
pub fn mutant_divergent_barrier(name: &str) -> GridKernel {
    let mut b = GridBuilder::new(name);
    let table = b.buffer("table", Extent::BlockDim);
    let stage = b.buffer("stage", Extent::BlockDim);
    let out = b.buffer("out", Extent::NKeys);
    let tid = b.sym(Sym::Tid);
    let bid = b.sym(Sym::Bid);
    let bdim = b.sym(Sym::BlockDim);
    let base = b.mul(bid, bdim);
    let gid = b.add(base, tid);
    let nkeys = b.sym(Sym::NKeys);
    b.if_lt(
        gid,
        nkeys,
        |b| {
            let staged = b.load(table, tid);
            b.store(stage, tid, staged);
            b.barrier();
            let hit = b.undef();
            b.body(&[gid, staged], &[hit]);
            b.store(out, gid, hit);
        },
        |_| {},
    );
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapper_declares_three_buffers_and_a_guard() {
        let k = search_wrapper("md5/optimized");
        assert_eq!(k.buffers.len(), 3);
        assert_eq!(k.buffer(BufId(2)).extent, Extent::NKeys);
        assert!(k.body.iter().any(|s| matches!(s, GStmt::If { .. })));
        assert!(k.body.iter().any(|s| matches!(s, GStmt::Barrier)));
        assert!(k.stmt_count() > k.body.len(), "branch arms count toward spans");
    }

    #[test]
    fn builder_numbers_registers_densely() {
        let k = search_wrapper("sha1/naive");
        let mut seen = vec![false; k.regs as usize];
        fn visit(stmts: &[GStmt], seen: &mut [bool]) {
            for s in stmts {
                match s {
                    GStmt::Op { dst, .. } => {
                        *seen.get_mut(dst.0 as usize).unwrap() = true
                    }
                    GStmt::Body { writes, .. } => {
                        for w in writes {
                            *seen.get_mut(w.0 as usize).unwrap() = true;
                        }
                    }
                    GStmt::If { then_, else_, .. } => {
                        visit(then_, seen);
                        visit(else_, seen);
                    }
                    _ => {}
                }
            }
        }
        visit(&k.body, &mut seen);
        assert!(seen.iter().filter(|s| **s).count() >= k.regs as usize - 1);
    }

    #[test]
    fn mutants_build_and_keep_their_names() {
        assert_eq!(mutant_unguarded_store("m").name, "m");
        assert_eq!(mutant_uninit_read("m").name, "m");
        assert_eq!(mutant_divergent_barrier("m").name, "m");
    }
}
