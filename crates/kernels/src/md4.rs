//! MD4 cracking kernels (the NTLM GPU path).
//!
//! MD4 inherits the reversal property the paper exploits in MD5: the
//! schedule uses `w[0]` at steps 0, 16 and 32 but never in the final 15
//! steps, so the target can be reverted through steps 47..=33 once and
//! each candidate pays only 33 forward steps — or 30 with the early exit
//! (the state component produced at step 29 is the first to stabilize in
//! the step-32 comparison state). The host's NTLM searches run the same
//! 30-step trace (`eks_hashes::md4_reverse`).

// Indexing/slicing below is over fixed-size state arrays or lengths
// established by construction; the workspace `clippy::indexing_slicing`
// escalation guards new code, not these proven accesses.
#![allow(clippy::indexing_slicing)]

use eks_gpusim::isa::{KernelBuilder, KernelIr, Operand, Reg};
use eks_hashes::md4::{step_k, IV, ROT, WORD_INDEX};

use crate::WordSource;

/// Which MD4 kernel to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Md4Variant {
    /// Full 48 steps + chaining per candidate.
    Naive,
    /// 15-step reversal: 33 forward steps, compare after step 32.
    Reversed,
    /// Reversed + early exit: 30-step average trace.
    Optimized,
}

impl Md4Variant {
    /// Forward steps in the average-case per-candidate trace.
    pub fn steps(self) -> usize {
        match self {
            Md4Variant::Naive => 48,
            Md4Variant::Reversed => 33,
            Md4Variant::Optimized => 30,
        }
    }
}

/// NTLM message-word layout for an ASCII password of `key_len`
/// characters: UTF-16LE doubles the byte length, so each 32-bit word
/// holds two characters (each followed by a zero byte).
pub fn ntlm_words_for_key_len(key_len: usize) -> [WordSource; 16] {
    assert!(key_len <= 20, "paper caps keys at 20 characters");
    let byte_len = key_len * 2;
    assert!(byte_len <= 55, "UTF-16LE password must fit one block");
    let mut words = [WordSource::Const(0); 16];
    let full_words = byte_len / 4; // = key_len / 2
    let mut param = 0u32;
    for w in words.iter_mut().take(full_words) {
        *w = WordSource::Param(param);
        param += 1;
    }
    if !byte_len.is_multiple_of(4) {
        // Odd password length: the last char's low byte shares a word with
        // the 0x80 terminator — still runtime.
        words[full_words] = WordSource::Param(param);
    } else {
        words[full_words] = WordSource::Const(0x80);
    }
    words[14] = WordSource::Const((byte_len as u32) * 8);
    words
}

/// A built kernel plus the registers holding its comparison outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct BuiltKernel {
    /// The executable IR.
    pub ir: KernelIr,
    /// Output state words, in comparison order.
    pub outputs: Vec<Reg>,
    /// Loop-carried registers (the advanced candidate word): roots for
    /// dead-store analysis alongside `outputs`.
    pub carried: Vec<Reg>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum V {
    C(u32),
    R(Reg),
}

impl V {
    fn op(self) -> Operand {
        match self {
            V::C(c) => Operand::Imm(c),
            V::R(r) => Operand::R(r),
        }
    }
}

struct Fold<'a>(&'a mut KernelBuilder);

impl Fold<'_> {
    fn add(&mut self, a: V, b: V) -> V {
        match (a, b) {
            (V::C(x), V::C(y)) => V::C(x.wrapping_add(y)),
            _ => V::R(self.0.add(a.op(), b.op())),
        }
    }

    fn and(&mut self, a: V, b: V) -> V {
        match (a, b) {
            (V::C(x), V::C(y)) => V::C(x & y),
            _ => V::R(self.0.and(a.op(), b.op())),
        }
    }

    fn or(&mut self, a: V, b: V) -> V {
        match (a, b) {
            (V::C(x), V::C(y)) => V::C(x | y),
            _ => V::R(self.0.or(a.op(), b.op())),
        }
    }

    fn xor(&mut self, a: V, b: V) -> V {
        match (a, b) {
            (V::C(x), V::C(y)) => V::C(x ^ y),
            _ => V::R(self.0.xor(a.op(), b.op())),
        }
    }

    fn not(&mut self, a: V) -> V {
        match a {
            V::C(x) => V::C(!x),
            V::R(_) => V::R(self.0.not(a.op())),
        }
    }

    fn rotl(&mut self, a: V, n: u32) -> V {
        match a {
            V::C(x) => V::C(x.rotate_left(n)),
            V::R(_) => V::R(self.0.rotl(a.op(), n)),
        }
    }

    fn sum(&mut self, terms: &[V]) -> V {
        let mut konst: u32 = 0;
        let mut acc: Option<V> = None;
        for &t in terms {
            match t {
                V::C(c) => konst = konst.wrapping_add(c),
                V::R(_) => {
                    acc = Some(match acc {
                        None => t,
                        Some(prev) => self.add(prev, t),
                    })
                }
            }
        }
        match acc {
            None => V::C(konst),
            Some(v) if konst == 0 => v,
            Some(v) => self.add(v, V::C(konst)),
        }
    }

    fn materialize(&mut self, v: V) -> Reg {
        match v {
            V::C(c) => self.0.constant(c),
            V::R(r) => r,
        }
    }
}

fn round_fn(f: &mut Fold, i: usize, b: V, c: V, d: V) -> V {
    match i / 16 {
        0 => {
            let bc = f.and(b, c);
            let nb = f.not(b);
            let nbd = f.and(nb, d);
            f.or(bc, nbd)
        }
        1 => {
            let bc = f.and(b, c);
            let bd = f.and(b, d);
            let cd = f.and(c, d);
            let o = f.or(bc, bd);
            f.or(o, cd)
        }
        _ => {
            let bc = f.xor(b, c);
            f.xor(bc, d)
        }
    }
}

/// Build an MD4 kernel for the given message-word layout.
pub fn build_md4(variant: Md4Variant, words: &[WordSource; 16]) -> BuiltKernel {
    let name = format!("md4/{variant:?}").to_ascii_lowercase();
    let mut b = KernelBuilder::new(name);
    let w: Vec<V> = words
        .iter()
        .map(|s| match *s {
            WordSource::Const(c) => V::C(c),
            WordSource::Param(i) => V::R(b.param(i)),
        })
        .collect();
    let mut f = Fold(&mut b);
    let mut state = [V::C(IV[0]), V::C(IV[1]), V::C(IV[2]), V::C(IV[3])];

    for i in 0..variant.steps() {
        let [a, bb, c, d] = state;
        let fv = round_fn(&mut f, i, bb, c, d);
        let sum = f.sum(&[a, fv, V::C(step_k(i)), w[WORD_INDEX[i]]]);
        let new = f.rotl(sum, ROT[i]);
        state = [d, new, bb, c];
    }

    let outputs: Vec<Reg> = match variant {
        Md4Variant::Naive => {
            let chained = [
                f.add(state[0], V::C(IV[0])),
                f.add(state[1], V::C(IV[1])),
                f.add(state[2], V::C(IV[2])),
                f.add(state[3], V::C(IV[3])),
            ];
            chained.into_iter().map(|v| f.materialize(v)).collect()
        }
        Md4Variant::Reversed => state.into_iter().map(|v| f.materialize(v)).collect(),
        // The `new` produced at step 29 is the first component of the
        // step-32 comparison state to stabilize.
        Md4Variant::Optimized => vec![f.materialize(state[1])],
    };

    let mut carried = Vec::new();
    if let Some(&V::R(w0)) = w.first() {
        let advanced = f.add(V::R(w0), V::C(1));
        carried.push(f.materialize(advanced));
    }

    BuiltKernel { ir: b.build(), outputs, carried }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eks_hashes::md4::{md4_compress, step};
    use eks_hashes::padding::pad_md5_block;

    /// UTF-16LE-expand an ASCII password and pad it like the kernel sees.
    fn ntlm_block(password: &[u8]) -> [u32; 16] {
        let mut utf16 = Vec::with_capacity(password.len() * 2);
        for &b in password {
            utf16.push(b);
            utf16.push(0);
        }
        pad_md5_block(&utf16)
    }

    fn eval(built: &BuiltKernel, password: &[u8]) -> Vec<u32> {
        let block = ntlm_block(password);
        let n_params = ntlm_words_for_key_len(password.len())
            .iter()
            .filter(|s| matches!(s, WordSource::Param(_)))
            .count();
        let params: Vec<u32> = block[..n_params].to_vec();
        let regs = built.ir.evaluate(&params);
        built.outputs.iter().map(|r| regs[r.0 as usize]).collect()
    }

    #[test]
    fn naive_kernel_computes_real_ntlm() {
        for pw in [&b"pass"[..], b"a", b"hunter2"] {
            let words = ntlm_words_for_key_len(pw.len());
            let built = build_md4(Md4Variant::Naive, &words);
            let got = eval(&built, pw);
            let want = md4_compress(IV, &ntlm_block(pw));
            assert_eq!(got, want.to_vec(), "password {pw:?}");
        }
    }

    #[test]
    fn reversed_kernel_computes_state_after_step_32() {
        let pw = b"pass";
        let built = build_md4(Md4Variant::Reversed, &ntlm_words_for_key_len(pw.len()));
        let got = eval(&built, pw);
        let block = ntlm_block(pw);
        let mut s = IV;
        for i in 0..33 {
            s = step(i, s, &block);
        }
        assert_eq!(got, s.to_vec());
    }

    #[test]
    fn optimized_kernel_early_exit_identity() {
        let pw = b"pass";
        let built = build_md4(Md4Variant::Optimized, &ntlm_words_for_key_len(pw.len()));
        let got = eval(&built, pw);
        let block = ntlm_block(pw);
        let mut s = IV;
        for i in 0..30 {
            s = step(i, s, &block);
        }
        assert_eq!(got, vec![s[1]], "output is new_29");
        // new_29 equals a-component of the step-32 comparison state.
        let mut s32 = s;
        for i in 30..33 {
            s32 = step(i, s32, &block);
        }
        assert_eq!(s[1], s32[0], "early-exit identity");
    }

    #[test]
    fn host_reversal_counts_and_compares_what_the_optimized_kernel_does() {
        // The host's 30-step search and this §V model run the same trace:
        // the same step count, and the kernel's one output — the register
        // step 29 writes — equals the host's reversed reference for the
        // password that hashes to the target.
        use eks_hashes::md4_reverse::{FORWARD_STEPS, REVERSED_STEPS};
        use eks_hashes::Md4PrefixSearch;
        assert_eq!(Md4Variant::Optimized.steps(), FORWARD_STEPS);
        assert_eq!(Md4Variant::Naive.steps() - Md4Variant::Reversed.steps(), REVERSED_STEPS);
        for pw in [&b"pass"[..], b"Cat4", b"hunter2"] {
            let built = build_md4(Md4Variant::Optimized, &ntlm_words_for_key_len(pw.len()));
            let search = Md4PrefixSearch::new(&eks_hashes::ntlm(pw), ntlm_block(pw));
            assert_eq!(eval(&built, pw), vec![search.reference()], "password {pw:?}");
        }
    }

    #[test]
    fn ntlm_word_layout() {
        let w = ntlm_words_for_key_len(4); // 8 bytes UTF-16
        assert_eq!(w[0], WordSource::Param(0));
        assert_eq!(w[1], WordSource::Param(1));
        assert_eq!(w[2], WordSource::Const(0x80));
        assert_eq!(w[14], WordSource::Const(64));
        // Odd length: terminator shares the last runtime word.
        let w5 = ntlm_words_for_key_len(5);
        assert_eq!(w5[2], WordSource::Param(2));
    }

    #[test]
    fn variant_step_counts() {
        assert_eq!(Md4Variant::Naive.steps(), 48);
        assert_eq!(Md4Variant::Reversed.steps(), 33);
        assert_eq!(Md4Variant::Optimized.steps(), 30);
    }

    #[test]
    fn md4_is_cheaper_than_md5() {
        use eks_gpusim::arch::ComputeCapability;
        use eks_gpusim::codegen::{lower, LoweringOptions};
        let md4 = build_md4(Md4Variant::Optimized, &ntlm_words_for_key_len(4));
        let md5 = crate::md5::build_md5(
            crate::md5::Md5Variant::Optimized,
            &crate::words_for_key_len(4),
        );
        let opts = LoweringOptions::plain(ComputeCapability::Sm30);
        let k4 = lower(&md4.ir, opts);
        let k5 = lower(&md5.ir, opts);
        assert!(
            k4.counts.total() < k5.counts.total(),
            "MD4 {} vs MD5 {}",
            k4.counts.total(),
            k5.counts.total()
        );
    }
}
