//! The abstract problem definition of Section III-A.
//!
//! An exhaustive search requires a bijection `f` from natural numbers into
//! the (finite or countable) solution set `S`, and a test function
//! `C : S -> {0, 1}` (`eks-engine`'s `CandidateTest`, the bound of the one
//! dispatcher). The `next` operator maps `(i, f(i))` to `f(i + 1)`
//! in place; it is usually much cheaper than recomputing `f(i + 1)` from
//! scratch, which is the whole point of enumerating with it.

/// A countable space of candidate solutions with a cheap successor operator.
///
/// Identifiers are `u128` so that realistic password keyspaces fit: the set
/// of strings of length ≤ 20 over a 95-symbol charset has ≈ `2^132` members,
/// but every interval a node ever receives fits comfortably in `u128`
/// (the paper caps lengths at 20 and practical searches at ≤ 10 symbols).
pub trait SolutionSpace {
    /// The candidate solution type.
    type Solution;

    /// Number of candidates in the space, or `None` when it exceeds `u128`.
    fn size(&self) -> Option<u128>;

    /// The bijection `f(id)`: build the candidate for `id` from scratch.
    fn generate(&self, id: u128) -> Self::Solution;

    /// The `next` operator: transform `f(id)` into `f(id + 1)` in place.
    ///
    /// `id` is the identifier of the *current* value stored in `solution`.
    /// Implementations must satisfy `next(i, f(i)) == f(i + 1)` for every
    /// `i` with `i + 1` inside the space.
    fn advance(&self, id: u128, solution: &mut Self::Solution);

    /// Inverse of `generate`, when available: recover `id` from a solution.
    ///
    /// The default returns `None`; bijective spaces should override it so
    /// round-trip properties can be tested.
    fn identify(&self, _solution: &Self::Solution) -> Option<u128> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy space: the natural numbers themselves.
    struct Naturals;

    impl SolutionSpace for Naturals {
        type Solution = u128;

        fn size(&self) -> Option<u128> {
            None
        }

        fn generate(&self, id: u128) -> u128 {
            id
        }

        fn advance(&self, _id: u128, solution: &mut u128) {
            *solution += 1;
        }

        fn identify(&self, solution: &u128) -> Option<u128> {
            Some(*solution)
        }
    }

    #[test]
    fn next_matches_generate() {
        let space = Naturals;
        let mut s = space.generate(41);
        space.advance(41, &mut s);
        assert_eq!(s, space.generate(42));
    }
}
