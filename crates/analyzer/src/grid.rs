//! Soundness passes over the grid-level kernel IR.
//!
//! Three passes, each a small abstract interpretation over
//! [`eks_gpusim::gridir::GridKernel`], each reporting through the same
//! [`Diagnostic`] types as the scalar-IR passes:
//!
//! 1. **Bounds** — value-range abstract interpretation in a symbolic
//!    *linear-expression domain*: every register is mapped to
//!    `c + a·tid + b·bid + d·blockDim + e·gridDim + f·nKeys + g·(bid·blockDim)
//!    + h·(blockDim·gridDim)` or ⊤. A load/store index is in bounds only
//!    if both `index ≥ 0` and `extent − 1 − index ≥ 0` are provable for
//!    **all** grid shapes, using only the execution-model facts
//!    `0 ≤ tid < blockDim`, `0 ≤ bid < gridDim`, `blockDim ≥ 1`,
//!    `gridDim ≥ 1`, `nKeys ≥ 0` — mechanized as variable elimination
//!    (substitute each bounded variable's worst end, fail on any
//!    remaining negative coefficient). Branch guards `a < b` refine the
//!    range of `a` inside the taken arm, which is what proves the
//!    canonical `if gid < nKeys` tail guard safe.
//! 2. **Must-defined** — forward dataflow on the powerset lattice of
//!    registers with set-intersection at branch joins: a register read
//!    is rejected unless *every* path to it contains a definition
//!    (generalizing the PR 1 dead-rotl bug class to branchy code).
//! 3. **Divergence** — a taint lattice `uniform < varying` seeded at
//!    `tid`: a block barrier under a branch whose guard is
//!    thread-varying can never be reached by the whole block and is
//!    rejected. `bid` is uniform *within* a block, so block-uniform
//!    guards (e.g. `bid < k`) keep barriers legal.
//!
//! All three passes share one pre-order statement numbering, so their
//! spans agree and point into the same statement stream.

use crate::diagnostic::{Diagnostic, Lint, Report, Span};
use eks_gpusim::gridir::{Extent, GOp, GReg, GStmt, GridKernel, Pred, Sym};

/// A symbolic linear expression over the launch quantities. The two
/// product terms (`bxb = bid·blockDim`, `thr = blockDim·gridDim`) are
/// tracked as opaque variables with the derived bounds
/// `0 ≤ bxb ≤ thr − blockDim` and `thr ≥ 1` — enough to prove the
/// global-thread-index patterns without a full polynomial domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Lin {
    c: i128,
    tid: i128,
    bid: i128,
    bdim: i128,
    gdim: i128,
    nkeys: i128,
    /// Coefficient of `bid·blockDim`.
    bxb: i128,
    /// Coefficient of `blockDim·gridDim` (total threads).
    thr: i128,
}

impl Lin {
    const ZERO: Lin =
        Lin { c: 0, tid: 0, bid: 0, bdim: 0, gdim: 0, nkeys: 0, bxb: 0, thr: 0 };

    fn constant(v: i128) -> Lin {
        Lin { c: v, ..Lin::ZERO }
    }

    fn sym(s: Sym) -> Lin {
        match s {
            Sym::Tid => Lin { tid: 1, ..Lin::ZERO },
            Sym::Bid => Lin { bid: 1, ..Lin::ZERO },
            Sym::BlockDim => Lin { bdim: 1, ..Lin::ZERO },
            Sym::GridDim => Lin { gdim: 1, ..Lin::ZERO },
            Sym::NKeys => Lin { nkeys: 1, ..Lin::ZERO },
        }
    }

    fn add(self, o: Lin) -> Lin {
        Lin {
            c: self.c + o.c,
            tid: self.tid + o.tid,
            bid: self.bid + o.bid,
            bdim: self.bdim + o.bdim,
            gdim: self.gdim + o.gdim,
            nkeys: self.nkeys + o.nkeys,
            bxb: self.bxb + o.bxb,
            thr: self.thr + o.thr,
        }
    }

    fn sub(self, o: Lin) -> Lin {
        self.add(o.scale(-1))
    }

    fn scale(self, k: i128) -> Lin {
        Lin {
            c: self.c * k,
            tid: self.tid * k,
            bid: self.bid * k,
            bdim: self.bdim * k,
            gdim: self.gdim * k,
            nkeys: self.nkeys * k,
            bxb: self.bxb * k,
            thr: self.thr * k,
        }
    }

    fn as_const(self) -> Option<i128> {
        if (Lin { c: 0, ..self }) == Lin::ZERO {
            Some(self.c)
        } else {
            None
        }
    }

    /// Multiplication stays in the domain when one side is constant or
    /// the product is one of the two tracked launch products.
    fn mul(self, o: Lin) -> Option<Lin> {
        if let Some(k) = self.as_const() {
            return Some(o.scale(k));
        }
        if let Some(k) = o.as_const() {
            return Some(self.scale(k));
        }
        let pure = |l: Lin, s: Sym| l == Lin::sym(s);
        let is = |a: Lin, b: Lin, x: Sym, y: Sym| {
            (pure(a, x) && pure(b, y)) || (pure(a, y) && pure(b, x))
        };
        if is(self, o, Sym::Bid, Sym::BlockDim) {
            return Some(Lin { bxb: 1, ..Lin::ZERO });
        }
        if is(self, o, Sym::BlockDim, Sym::GridDim) {
            return Some(Lin { thr: 1, ..Lin::ZERO });
        }
        None
    }

    /// Prove `self ≥ 0` for every grid shape, by eliminating each
    /// bounded variable at its adversarial end:
    /// `tid ↦ blockDim − 1`, `bid ↦ gridDim − 1`,
    /// `bxb ↦ thr − blockDim` when their coefficients are negative
    /// (their maxima), else `0` (their minima); then any negative
    /// coefficient on the unbounded-above survivors means unprovable,
    /// and otherwise the minimum is reached with every survivor at its
    /// floor (`blockDim, gridDim, thr ≥ 1`, `nKeys ≥ 0`).
    fn prove_nonneg(self) -> bool {
        let mut l = self;
        if l.tid < 0 {
            l.bdim += l.tid;
            l.c -= l.tid;
        }
        l.tid = 0;
        if l.bid < 0 {
            l.gdim += l.bid;
            l.c -= l.bid;
        }
        l.bid = 0;
        if l.bxb < 0 {
            l.thr += l.bxb;
            l.bdim -= l.bxb;
        }
        l.bxb = 0;
        if l.bdim < 0 || l.gdim < 0 || l.nkeys < 0 || l.thr < 0 {
            return false;
        }
        l.c + l.bdim + l.gdim + l.thr >= 0
    }

    fn render(self) -> String {
        let mut parts: Vec<String> = Vec::new();
        if self.c != 0 {
            parts.push(self.c.to_string());
        }
        for (coef, name) in [
            (self.tid, "tid"),
            (self.bid, "bid"),
            (self.bdim, "blockDim"),
            (self.gdim, "gridDim"),
            (self.nkeys, "nKeys"),
            (self.bxb, "bid*blockDim"),
            (self.thr, "blockDim*gridDim"),
        ] {
            match coef {
                0 => {}
                1 => parts.push(name.to_string()),
                _ => parts.push(format!("{coef}*{name}")),
            }
        }
        if parts.is_empty() {
            "0".to_string()
        } else {
            parts.join(" + ")
        }
    }
}

/// `extent − 1` as a [`Lin`], the inclusive upper bound of valid
/// indices.
fn extent_minus_one(e: Extent) -> Lin {
    match e {
        Extent::Const(k) => Lin::constant(k as i128 - 1),
        Extent::NKeys => Lin { c: -1, nkeys: 1, ..Lin::ZERO },
        Extent::BlockDim => Lin { c: -1, bdim: 1, ..Lin::ZERO },
        Extent::Threads => Lin { c: -1, thr: 1, ..Lin::ZERO },
    }
}

fn reg_value(env: &[Option<Lin>], r: GReg) -> Option<Lin> {
    env.get(r.0 as usize).copied().flatten()
}

struct BoundsPass<'k> {
    kernel: &'k GridKernel,
    report: Vec<Diagnostic>,
}

impl BoundsPass<'_> {
    /// Check `buf[index]` at statement `at`. `refines` carries the
    /// guards active on this path as `(value, exclusive upper bound)`
    /// pairs keyed by the guarded value's linear form.
    fn check_access(
        &mut self,
        at: usize,
        kind: &str,
        buf: eks_gpusim::gridir::BufId,
        index: GReg,
        env: &[Option<Lin>],
        refines: &[(Lin, Lin)],
    ) {
        let b = self.kernel.buffer(buf);
        let Some(idx) = reg_value(env, index) else {
            self.report.push(Diagnostic::deny(
                Lint::OutOfBounds,
                Span::at(at),
                format!(
                    "{kind} to `{}[{index}]`: index is not a linear function of the \
                     grid dims, so no bound can be proven",
                    b.name
                ),
            ));
            return;
        };
        if !idx.prove_nonneg() {
            self.report.push(Diagnostic::deny(
                Lint::OutOfBounds,
                Span::at(at),
                format!(
                    "{kind} to `{}[{}]`: cannot prove index ≥ 0 for all grid shapes",
                    b.name,
                    idx.render()
                ),
            ));
            return;
        }
        let upper = extent_minus_one(b.extent);
        let direct = upper.sub(idx).prove_nonneg();
        // A guard `idx < ub` on this path proves the access when the
        // whole guarded range fits: `ub ≤ extent`.
        let guarded = refines.iter().any(|(val, ub)| {
            *val == idx && upper.sub(*ub).add(Lin::constant(1)).prove_nonneg()
        });
        if !direct && !guarded {
            self.report.push(Diagnostic::deny(
                Lint::OutOfBounds,
                Span::at(at),
                format!(
                    "{kind} to `{}[{}]`: cannot prove index < extent ({}) for all \
                     grid shapes (no dominating guard bounds it)",
                    b.name,
                    idx.render(),
                    upper.add(Lin::constant(1)).render()
                ),
            ));
        }
    }

    fn walk(
        &mut self,
        stmts: &[GStmt],
        env: &mut [Option<Lin>],
        refines: &[(Lin, Lin)],
        at: &mut usize,
    ) {
        for s in stmts {
            let here = *at;
            *at += 1;
            match s {
                GStmt::Op { dst, op } => {
                    let v = match *op {
                        GOp::ReadSym(sym) => Some(Lin::sym(sym)),
                        GOp::Const(k) => Some(Lin::constant(k as i128)),
                        GOp::Add(a, b) => match (reg_value(env, a), reg_value(env, b)) {
                            (Some(x), Some(y)) => Some(x.add(y)),
                            _ => None,
                        },
                        GOp::Mul(a, b) => match (reg_value(env, a), reg_value(env, b)) {
                            (Some(x), Some(y)) => x.mul(y),
                            _ => None,
                        },
                        GOp::Load { buf, index } => {
                            self.check_access(here, "load", buf, index, env, refines);
                            None
                        }
                    };
                    if let Some(slot) = env.get_mut(dst.0 as usize) {
                        *slot = v;
                    }
                }
                GStmt::Store { buf, index, .. } => {
                    self.check_access(here, "store", *buf, *index, env, refines);
                }
                GStmt::If { pred, then_, else_ } => {
                    let Pred::Lt(a, b) = *pred;
                    let mut then_env = env.to_vec();
                    let mut then_ref = refines.to_vec();
                    if let (Some(va), Some(vb)) = (reg_value(env, a), reg_value(env, b)) {
                        then_ref.push((va, vb));
                    }
                    self.walk(then_, &mut then_env, &then_ref, at);
                    let mut else_env = env.to_vec();
                    self.walk(else_, &mut else_env, refines, at);
                    // Join: keep only register values the arms agree on.
                    for (slot, (t, e)) in
                        env.iter_mut().zip(then_env.iter().zip(else_env.iter()))
                    {
                        *slot = if t == e { *t } else { None };
                    }
                }
                GStmt::Barrier => {}
                GStmt::Body { writes, .. } => {
                    // The opaque body's outputs are unconstrained.
                    for w in writes {
                        if let Some(slot) = env.get_mut(w.0 as usize) {
                            *slot = None;
                        }
                    }
                }
            }
        }
    }
}

/// Value-range bounds pass: prove every load/store in bounds for all
/// grid shapes.
fn check_bounds(kernel: &GridKernel) -> Vec<Diagnostic> {
    let mut pass = BoundsPass { kernel, report: Vec::new() };
    let mut env = vec![None; kernel.regs as usize];
    pass.walk(&kernel.body, &mut env, &[], &mut 0);
    pass.report
}

fn must_defined_walk(
    stmts: &[GStmt],
    defined: &mut [bool],
    at: &mut usize,
    report: &mut Vec<Diagnostic>,
) {
    let read = |r: GReg, what: &str, here: usize, defined: &[bool], report: &mut Vec<Diagnostic>| {
        if !defined.get(r.0 as usize).copied().unwrap_or(false) {
            report.push(Diagnostic::deny(
                Lint::UninitRead,
                Span::at(here),
                format!("{what} reads {r}, which is not defined on every path to here"),
            ));
        }
    };
    for s in stmts {
        let here = *at;
        *at += 1;
        match s {
            GStmt::Op { dst, op } => {
                match *op {
                    GOp::ReadSym(_) | GOp::Const(_) => {}
                    GOp::Add(a, b) | GOp::Mul(a, b) => {
                        read(a, "operation", here, defined, report);
                        read(b, "operation", here, defined, report);
                    }
                    GOp::Load { index, .. } => {
                        read(index, "load index", here, defined, report)
                    }
                }
                if let Some(slot) = defined.get_mut(dst.0 as usize) {
                    *slot = true;
                }
            }
            GStmt::Store { index, value, .. } => {
                read(*index, "store index", here, defined, report);
                read(*value, "store value", here, defined, report);
            }
            GStmt::If { pred, then_, else_ } => {
                let Pred::Lt(a, b) = *pred;
                read(a, "branch guard", here, defined, report);
                read(b, "branch guard", here, defined, report);
                let mut t = defined.to_vec();
                must_defined_walk(then_, &mut t, at, report);
                let mut e = defined.to_vec();
                must_defined_walk(else_, &mut e, at, report);
                // The join is set intersection: defined after the
                // branch only if defined on both arms.
                for (slot, (td, ed)) in defined.iter_mut().zip(t.iter().zip(e.iter())) {
                    *slot = *td && *ed;
                }
            }
            GStmt::Barrier => {}
            GStmt::Body { reads, writes } => {
                for r in reads {
                    read(*r, "kernel body", here, defined, report);
                }
                for w in writes {
                    if let Some(slot) = defined.get_mut(w.0 as usize) {
                        *slot = true;
                    }
                }
            }
        }
    }
}

/// Must-defined dataflow pass: reject reads of registers that some path
/// reaches without a definition.
fn check_must_defined(kernel: &GridKernel) -> Vec<Diagnostic> {
    let mut report = Vec::new();
    let mut defined = vec![false; kernel.regs as usize];
    must_defined_walk(&kernel.body, &mut defined, &mut 0, &mut report);
    report
}

fn divergence_walk(
    stmts: &[GStmt],
    varying: &mut Vec<bool>,
    divergent: usize,
    at: &mut usize,
    report: &mut Vec<Diagnostic>,
) {
    let is_varying =
        |v: &[bool], r: GReg| v.get(r.0 as usize).copied().unwrap_or(true);
    for s in stmts {
        let here = *at;
        *at += 1;
        match s {
            GStmt::Op { dst, op } => {
                let v = match *op {
                    // `tid` is the taint source; `bid`, the dims and
                    // the key count are uniform across a block.
                    GOp::ReadSym(Sym::Tid) => true,
                    GOp::ReadSym(_) | GOp::Const(_) => false,
                    GOp::Add(a, b) | GOp::Mul(a, b) => {
                        is_varying(varying, a) || is_varying(varying, b)
                    }
                    // A uniform index loads the same element in every
                    // thread; a varying index does not.
                    GOp::Load { index, .. } => is_varying(varying, index),
                };
                if let Some(slot) = varying.get_mut(dst.0 as usize) {
                    *slot = v;
                }
            }
            GStmt::Store { .. } => {}
            GStmt::If { pred, then_, else_ } => {
                let Pred::Lt(a, b) = *pred;
                let div = is_varying(varying, a) || is_varying(varying, b);
                let depth = divergent + usize::from(div);
                divergence_walk(then_, varying, depth, at, report);
                divergence_walk(else_, varying, depth, at, report);
            }
            GStmt::Barrier => {
                if divergent > 0 {
                    report.push(Diagnostic::deny(
                        Lint::BarrierDivergence,
                        Span::at(here),
                        "block barrier inside a thread-divergent branch: threads \
                         failing the guard can never reach it"
                            .to_string(),
                    ));
                }
            }
            GStmt::Body { reads, writes } => {
                let v = reads.iter().any(|r| is_varying(varying, *r));
                for w in writes {
                    if let Some(slot) = varying.get_mut(w.0 as usize) {
                        *slot = v;
                    }
                }
            }
        }
    }
}

/// Barrier-divergence lint: reject block barriers under thread-varying
/// guards.
fn check_divergence(kernel: &GridKernel) -> Vec<Diagnostic> {
    let mut report = Vec::new();
    let mut varying = vec![false; kernel.regs as usize];
    divergence_walk(&kernel.body, &mut varying, 0, &mut 0, &mut report);
    report
}

/// Run all three grid-IR soundness passes over `kernel`.
pub fn analyze_grid(kernel: &GridKernel) -> Report {
    let mut report = Report::new(kernel.name.clone(), "grid");
    report.extend(check_bounds(kernel));
    report.extend(check_must_defined(kernel));
    report.extend(check_divergence(kernel));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use eks_gpusim::gridir::{
        mutant_divergent_barrier, mutant_unguarded_store, mutant_uninit_read,
        search_wrapper, GridBuilder,
    };

    #[test]
    fn lin_proves_the_global_thread_index_bounds() {
        // gid = bid·blockDim + tid < blockDim·gridDim
        let gid = Lin { tid: 1, bxb: 1, ..Lin::ZERO };
        assert!(gid.prove_nonneg());
        let slack = extent_minus_one(Extent::Threads).sub(gid);
        assert!(slack.prove_nonneg(), "thr-1-gid must be provable");
        // …but gid < nKeys is NOT provable without the tail guard.
        assert!(!extent_minus_one(Extent::NKeys).sub(gid).prove_nonneg());
    }

    #[test]
    fn canonical_wrapper_is_clean() {
        let r = analyze_grid(&search_wrapper("md5/optimized"));
        assert_eq!(r.denials(), 0, "{}", r.render_text());
        assert_eq!(r.warnings(), 0, "{}", r.render_text());
    }

    #[test]
    fn unguarded_store_is_out_of_bounds() {
        let r = analyze_grid(&mutant_unguarded_store("md5/mutant"));
        assert!(
            r.diagnostics.iter().any(|d| d.lint == Lint::OutOfBounds),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn uninit_read_is_flagged() {
        let r = analyze_grid(&mutant_uninit_read("md5/mutant"));
        assert!(
            r.diagnostics.iter().any(|d| d.lint == Lint::UninitRead),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn divergent_barrier_is_flagged() {
        let r = analyze_grid(&mutant_divergent_barrier("md5/mutant"));
        assert!(
            r.diagnostics.iter().any(|d| d.lint == Lint::BarrierDivergence),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn block_uniform_guard_keeps_barriers_legal() {
        // if bid < gridDim { barrier } — every thread of a block takes
        // the same arm, so the barrier is fine.
        let mut b = GridBuilder::new("uniform-guard");
        let bid = b.sym(Sym::Bid);
        let gdim = b.sym(Sym::GridDim);
        b.if_lt(bid, gdim, |b| b.barrier(), |_| {});
        let r = analyze_grid(&b.finish());
        assert_eq!(r.denials(), 0, "{}", r.render_text());
    }

    #[test]
    fn guard_must_actually_dominate_the_access() {
        // if gid < nKeys { } ... out[gid] — the guard closed before the
        // store, so the bounds pass must still reject it.
        let mut b = GridBuilder::new("guard-out-of-scope");
        let out = b.buffer("out", Extent::NKeys);
        let tid = b.sym(Sym::Tid);
        let bid = b.sym(Sym::Bid);
        let bdim = b.sym(Sym::BlockDim);
        let base = b.mul(bid, bdim);
        let gid = b.add(base, tid);
        let nkeys = b.sym(Sym::NKeys);
        b.if_lt(gid, nkeys, |_| {}, |_| {});
        b.store(out, gid, tid);
        let r = analyze_grid(&b.finish());
        assert!(
            r.diagnostics.iter().any(|d| d.lint == Lint::OutOfBounds),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn constant_extent_indices_fold() {
        let mut b = GridBuilder::new("const-extent");
        let tab = b.buffer("tab", Extent::Const(16));
        let i = b.constant(15);
        let v = b.load(tab, i);
        let j = b.constant(16);
        b.store(tab, j, v);
        let r = analyze_grid(&b.finish());
        // load tab[15] fine; store tab[16] out of bounds.
        let oob: Vec<_> =
            r.diagnostics.iter().filter(|d| d.lint == Lint::OutOfBounds).collect();
        assert_eq!(oob.len(), 1, "{}", r.render_text());
        let d = oob.first().unwrap();
        assert!(d.message.contains("store"), "{}", d.message);
    }

    #[test]
    fn spans_use_preorder_statement_numbering() {
        let r = analyze_grid(&mutant_unguarded_store("m"));
        let k = mutant_unguarded_store("m");
        let d =
            r.diagnostics.iter().find(|d| d.lint == Lint::OutOfBounds).unwrap();
        assert!(d.span.start < k.stmt_count());
        assert_eq!(d.span.len, 1);
    }
}
