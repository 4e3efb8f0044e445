//! SHA-1 cracking kernels as executable IR.
//!
//! "The same kind of analysis and optimizations were applied to the
//! implementation of the SHA1 hash function" (Section V-B). SHA-1's
//! message schedule makes the full 15-step-style reversal impossible —
//! every late `W[i]` depends on `W[0]` — but the early-exit applies: the
//! digest's `e` component equals `rotl30(a75)`, so the comparison can fire
//! after round 75, and the last schedule expansions are never computed in
//! the average case.

use eks_hashes::sha1::IV;
use eks_hashes::simd::sha1_rounds;

use crate::record::{chain, record};
use crate::{BuiltKernel, WordSource};

/// Which SHA-1 kernel to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sha1Variant {
    /// Full 80 rounds + chaining per candidate.
    Naive,
    /// Early exit after round 75 against the chaining-subtracted,
    /// un-rotated target component; average-case trace is 76 rounds.
    Optimized,
}

impl Sha1Variant {
    /// Rounds in the average-case per-candidate trace.
    pub fn rounds(self) -> usize {
        match self {
            Sha1Variant::Naive => 80,
            Sha1Variant::Optimized => 76,
        }
    }
}

/// Build a SHA-1 kernel for keys of a fixed length by recording the
/// host's `sha1_rounds` core.
pub fn build_sha1(variant: Sha1Variant, words: &[WordSource; 16]) -> BuiltKernel {
    let name = format!("sha1/{variant:?}").to_ascii_lowercase();
    record(name, words, |m| match variant {
        Sha1Variant::Naive => chain(sha1_rounds::<_, 80>(m), IV),
        // Round 75 writes `e` — a75. The final digest's `e` component
        // equals rotl30(a75) + IV[4], so comparing a75 against the
        // precomputed rotr30(e_target - IV[4]) suffices in the average
        // case.
        Sha1Variant::Optimized => {
            let [_, _, _, _, a75] = sha1_rounds::<_, 76>(m);
            vec![a75]
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{words_for, HashAlgo};

    #[test]
    fn round_counts() {
        assert_eq!(Sha1Variant::Naive.rounds(), 80);
        assert_eq!(Sha1Variant::Optimized.rounds(), 76);
    }

    #[test]
    fn optimized_is_smaller_than_naive() {
        let words = words_for(HashAlgo::Sha1, 4);
        let n = build_sha1(Sha1Variant::Naive, &words);
        let o = build_sha1(Sha1Variant::Optimized, &words);
        assert!(o.ir.ops.len() < n.ir.ops.len());
    }
}
