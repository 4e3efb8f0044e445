//! MD4 cracking kernels (the NTLM GPU path).
//!
//! MD4 inherits the reversal property the paper exploits in MD5: the
//! schedule uses `w[0]` at steps 0, 16 and 32 but never in the final 15
//! steps, so the target can be reverted through steps 47..=33 once and
//! each candidate pays only 33 forward steps — or 30 with the early exit
//! (the state component produced at step 29 is the first to stabilize in
//! the step-32 comparison state). The host's NTLM searches run the same
//! 30-step trace (`eks_hashes::md4_reverse`).

use eks_hashes::md4::IV;
use eks_hashes::simd::md4_steps;

use crate::record::{chain, record};
use crate::{BuiltKernel, WordSource};

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

/// Build an MD4 kernel for the given message-word layout by recording
/// the host's `md4_steps` core.
pub fn build_md4(variant: Md4Variant, words: &[WordSource; 16]) -> BuiltKernel {
    let name = format!("md4/{variant:?}").to_ascii_lowercase();
    record(name, words, |m| match variant {
        Md4Variant::Naive => chain(md4_steps::<_, 48>(m), IV),
        // Step 32 writes `a`: the rotating-form state is `[d, a, b, c]`.
        Md4Variant::Reversed => {
            let [a, b, c, d] = md4_steps::<_, 33>(m);
            vec![d, a, b, c]
        }
        // Step 29 writes `d`, the first component of the step-32
        // comparison state to stabilize.
        Md4Variant::Optimized => {
            let [_, _, _, new29] = md4_steps::<_, 30>(m);
            vec![new29]
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{block_for, words_for, HashAlgo};

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
            let built = build_md4(Md4Variant::Optimized, &words_for(HashAlgo::Ntlm, pw.len()));
            let block = block_for(HashAlgo::Ntlm, pw);
            let search = Md4PrefixSearch::new(&eks_hashes::ntlm(pw), block);
            assert_eq!(built.eval(&block), vec![search.reference()], "password {pw:?}");
        }
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
        let md4 = build_md4(Md4Variant::Optimized, &words_for(HashAlgo::Ntlm, 4));
        let md5 = crate::md5::build_md5(
            crate::md5::Md5Variant::Optimized,
            &words_for(HashAlgo::Md5, 4),
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
