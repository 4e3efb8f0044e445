//! The symbolic `Vec32` leaf: running a host compression core over
//! [`Sym`] records the §V kernel IR.
//!
//! A [`Sym`] is a compile-time constant or a register of the kernel
//! being built. Every op on two constants folds at build time — IV
//! words, padding words and `K[i] + w[g]` combine exactly as `nvcc`
//! folds them — and any other op emits one IR op on the tape the
//! register carries. The boolean step functions take the paper's CUDA
//! source forms (Table III counts their NOTs), and the step sums add
//! their register terms first and one folded constant last, so the
//! recorded stream holds the instructions a compiled kernel executes.

use std::cell::RefCell;

use eks_gpusim::isa::{KernelBuilder, Operand, Reg};
use eks_hashes::simd::Vec32;

use crate::{BuiltKernel, WordSource};

/// A kernel value while recording: a build-time constant, or a register
/// of the kernel on the tape it names.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Sym<'t> {
    /// Known at build time; folds away.
    C(u32),
    /// Computed at run time into this register of the tape's kernel.
    R(Reg, &'t RefCell<KernelBuilder>),
}

impl<'t> Sym<'t> {
    fn operand(self) -> Operand {
        match self {
            Sym::C(c) => Operand::Imm(c),
            Sym::R(r, _) => Operand::R(r),
        }
    }

    /// Fold two constants with `fold`, otherwise emit `emit` on the tape.
    ///
    /// Kept out of line, like `not`, `rotl` and `sum`: the cores unroll
    /// fully over `Sym`, and a tape push inlined into every op would make
    /// the three recorded builders ~130 KB of code instead of ~40 KB.
    #[inline(never)]
    fn binary(
        self,
        other: Self,
        fold: fn(u32, u32) -> u32,
        emit: fn(&mut KernelBuilder, Operand, Operand) -> Reg,
    ) -> Self {
        match (self, other) {
            (Sym::C(x), Sym::C(y)) => Sym::C(fold(x, y)),
            (Sym::R(_, tape), _) | (_, Sym::R(_, tape)) => {
                Sym::R(emit(&mut tape.borrow_mut(), self.operand(), other.operand()), tape)
            }
        }
    }

    #[inline(never)]
    fn not(self) -> Self {
        match self {
            Sym::C(x) => Sym::C(!x),
            Sym::R(r, tape) => Sym::R(tape.borrow_mut().not(r), tape),
        }
    }

    /// The sum of `terms` as a compiler folds an `a + F + K[i] + w[g]`
    /// chain: the register terms added in order, then one add of all the
    /// constants combined (none when they sum to zero).
    #[inline(never)]
    fn sum(terms: &[Self]) -> Self {
        let konst = terms.iter().fold(0u32, |k, t| match t {
            Sym::C(c) => k.wrapping_add(*c),
            Sym::R(..) => k,
        });
        let regs = terms.iter().filter(|t| matches!(t, Sym::R(..))).copied();
        match regs.reduce(Self::add) {
            None => Sym::C(konst),
            Some(acc) if konst == 0 => acc,
            Some(acc) => acc.add(Sym::C(konst)),
        }
    }
}

impl Vec32 for Sym<'_> {
    fn splat(x: u32) -> Self {
        Sym::C(x)
    }

    fn add(self, other: Self) -> Self {
        self.binary(other, u32::wrapping_add, |b, x, y| b.add(x, y))
    }

    fn xor(self, other: Self) -> Self {
        self.binary(other, |x, y| x ^ y, |b, x, y| b.xor(x, y))
    }

    fn and(self, other: Self) -> Self {
        self.binary(other, |x, y| x & y, |b, x, y| b.and(x, y))
    }

    fn or(self, other: Self) -> Self {
        self.binary(other, |x, y| x | y, |b, x, y| b.or(x, y))
    }

    #[inline(never)]
    fn rotl(self, s: u32) -> Self {
        match self {
            Sym::C(x) => Sym::C(x.rotate_left(s)),
            Sym::R(r, tape) => Sym::R(tape.borrow_mut().rotl(r, s), tape),
        }
    }

    /// `(self & t) | (!self & f)`: and, not, and, or.
    fn sel(self, t: Self, f: Self) -> Self {
        let st = self.and(t);
        st.or(self.not().and(f))
    }

    /// `(self & b) | (self & c) | (b & c)`: three ands, two ors.
    fn maj(self, b: Self, c: Self) -> Self {
        let sb = self.and(b);
        let sc = self.and(c);
        let bc = b.and(c);
        sb.or(sc).or(bc)
    }

    /// `c ^ (self | !d)`: not, or, xor.
    fn md5i(self, c: Self, d: Self) -> Self {
        c.xor(self.or(d.not()))
    }

    fn sum3(self, b: Self, c: Self) -> Self {
        Self::sum(&[self, b, c])
    }

    fn sum4(self, b: Self, c: Self, d: Self) -> Self {
        Self::sum(&[self, b, c, d])
    }

    fn sum5(self, b: Self, c: Self, d: Self, e: Self) -> Self {
        Self::sum(&[self, b, c, d, e])
    }
}

/// Record a kernel named `name` over the message layout `words`:
/// `kernel` runs a core on the sixteen message words and returns the
/// comparison outputs. The recorder then appends the `next` operator —
/// the candidate's low word advanced by one for the following iteration
/// (first-character-fastest enumeration touches only that word in the
/// common case; the paper measures it at < 1 % of the hash cost).
pub(crate) fn record(
    name: String,
    words: &[WordSource; 16],
    kernel: impl for<'t> FnOnce(&[Sym<'t>; 16]) -> Vec<Sym<'t>>,
) -> BuiltKernel {
    let tape = RefCell::new(KernelBuilder::new(name));
    let m = words.map(|w| match w {
        WordSource::Const(c) => Sym::C(c),
        WordSource::Param(i) => Sym::R(tape.borrow_mut().param(i), &tape),
    });
    let reg = |v: Sym| match v {
        Sym::C(c) => tape.borrow_mut().constant(c),
        Sym::R(r, _) => r,
    };
    let outputs = kernel(&m).into_iter().map(reg).collect();
    let carried = match m[0] {
        Sym::R(..) => vec![reg(m[0].add(Sym::C(1)))],
        Sym::C(_) => Vec::new(),
    };
    BuiltKernel { ir: tape.into_inner().build(), outputs, carried }
}

/// The chaining addition: `state + iv`, word by word.
pub(crate) fn chain<'t, const N: usize>(state: [Sym<'t>; N], iv: [u32; N]) -> Vec<Sym<'t>> {
    state.into_iter().zip(iv).map(|(s, k)| s.add(Sym::C(k))).collect()
}
