//! MD5 cracking kernels as executable IR, recorded from the host's
//! `md5_steps` core (see the `record` module): the recorder folds IV
//! words, padding words and `K[i] + w[g]` constants at build time as
//! `nvcc` does, so the stream contains exactly the instructions a
//! compiled kernel executes (Tables IV–VI), and evaluating it with the
//! runtime message words reproduces real MD5.

use eks_hashes::md5::IV;
use eks_hashes::simd::md5_steps;

use crate::record::{chain, record};
use crate::{BuiltKernel, WordSource};

/// Which MD5 kernel to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Md5Variant {
    /// Full 64 steps + chaining addition per candidate (Cryptohaze-class).
    Naive,
    /// 15-step reversal applied: 49 forward steps, compare after step 48.
    Reversed,
    /// Reversed + early exit: the comparison anticipates the state
    /// component produced at step 45, so the average-case trace runs 46
    /// steps. Rotates by 16 inside this window become `PRMT` on cc 3.0
    /// (exactly 3 of them — steps 34, 38 and 42).
    Optimized,
}

impl Md5Variant {
    /// Forward steps in the average-case per-candidate trace.
    pub fn steps(self) -> usize {
        match self {
            Md5Variant::Naive => 64,
            Md5Variant::Reversed => 49,
            Md5Variant::Optimized => 46,
        }
    }
}

/// Build an MD5 kernel for keys of a fixed length (described by `words`)
/// by recording the host's `md5_steps` core.
pub fn build_md5(variant: Md5Variant, words: &[WordSource; 16]) -> BuiltKernel {
    let name = format!("md5/{variant:?}").to_ascii_lowercase();
    record(name, words, |m| match variant {
        Md5Variant::Naive => chain(md5_steps::<_, 64>(m), IV),
        // Step 48 writes `a`: the rotating-form state is `[d, a, b, c]`,
        // compared against the reverted target.
        Md5Variant::Reversed => {
            let [a, b, c, d] = md5_steps::<_, 49>(m);
            vec![d, a, b, c]
        }
        // Early exit: step 45 writes `d` — b45, the first digest
        // component to stabilize (it becomes a48) — compared alone in
        // the average case.
        Md5Variant::Optimized => {
            let [_, _, _, b45] = md5_steps::<_, 46>(m);
            vec![b45]
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eks_hashes::md5::S;

    #[test]
    fn variant_step_counts() {
        assert_eq!(Md5Variant::Naive.steps(), 64);
        assert_eq!(Md5Variant::Reversed.steps(), 49);
        assert_eq!(Md5Variant::Optimized.steps(), 46);
    }

    #[test]
    fn optimized_window_contains_exactly_three_rot16() {
        // Steps 34, 38, 42 rotate by 16 — the PRMT count of Table VI.
        let in_window = (0..46).filter(|&i| S[i] == 16).count();
        assert_eq!(in_window, 3);
        // Step 46 would be the fourth.
        assert_eq!(S[46], 16);
    }
}
