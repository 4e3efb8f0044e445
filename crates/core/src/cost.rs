//! The cost model of Section III-A.
//!
//! The paper parameterizes an exhaustive search by three per-candidate
//! costs: `K_f(i)` (generate a candidate from its identifier),
//! `K_next(i, f(i))` (generate a candidate from its predecessor) and
//! `K_C(f(i))` (evaluate a candidate). A single process scanning `n`
//! candidates starting at `i0` pays
//!
//! ```text
//! K_search = K_f(i0) + Σ K_next + Σ K_C          (enumeration via next)
//! K_search = Σ (K_f(i) + K_C(f(i)))              (regenerating every key)
//! ```
//!
//! and a master dispatching to `j` nodes pays `K_D` bounded by
//!
//! ```text
//! K_D ≥ max_j(K_scatter_j + K_search_j + K_gather_j) + K_C_M
//! K_D ≤ Σ K_scatter_j + max_j K_search_j + Σ K_gather_j + K_C_M
//! ```
//!
//! All quantities here are unitless "costs"; callers decide whether they
//! are seconds, cycles or instruction counts.

/// Per-candidate costs of one search process (the paper's `K_f`, `K_next`,
/// `K_C`). For password cracking these are effectively constants, which is
/// what makes throughput-proportional balancing sound (Section IV).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// `K_f`: cost of generating a candidate from an identifier.
    pub k_f: f64,
    /// `K_next`: cost of advancing a candidate to its successor.
    pub k_next: f64,
    /// `K_C`: cost of evaluating the test function on a candidate.
    pub k_c: f64,
}

impl CostModel {
    /// Create a cost model; all costs must be finite and non-negative.
    ///
    /// # Panics
    /// Panics if any cost is negative, NaN or infinite.
    pub fn new(k_f: f64, k_next: f64, k_c: f64) -> Self {
        for (name, v) in [("k_f", k_f), ("k_next", k_next), ("k_c", k_c)] {
            assert!(v.is_finite() && v >= 0.0, "{name} must be finite and >= 0, got {v}");
        }
        Self { k_f, k_next, k_c }
    }

    /// `K_search` for `n` candidates enumerated with one `f` and `n - 1`
    /// applications of `next` (first closed form in Section III-A).
    pub fn k_search_incremental(&self, n: u64) -> f64 {
        if n == 0 {
            return 0.0;
        }
        self.k_f + (n - 1) as f64 * self.k_next + n as f64 * self.k_c
    }

    /// `K_search` when every candidate is regenerated from its identifier
    /// (`next ≡ f(i+1)`, second closed form in Section III-A).
    pub fn k_search_regenerating(&self, n: u64) -> f64 {
        n as f64 * (self.k_f + self.k_c)
    }

    /// The paper's process efficiency: time spent testing a solution over
    /// the time spent generating **and** testing it, for an `n`-candidate
    /// incremental scan. Approaches `K_C / (K_next + K_C)` as `n` grows
    /// whenever `K_next < K_f`.
    pub fn efficiency(&self, n: u64) -> Efficiency {
        let total = self.k_search_incremental(n);
        let testing = n as f64 * self.k_c;
        Efficiency::from_ratio(testing, total)
    }

    /// Asymptotic efficiency `K_C / (K_next + K_C)` of the incremental scan.
    pub fn asymptotic_efficiency(&self) -> Efficiency {
        Efficiency::from_ratio(self.k_c, self.k_next + self.k_c)
    }

}

/// Fraction in `[0, 1]` with a few convenience accessors.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Efficiency(f64);

impl Efficiency {
    /// Build from a ratio, clamping to `[0, 1]`; `0/0` maps to 1 (an empty
    /// search wastes nothing).
    fn from_ratio(useful: f64, total: f64) -> Self {
        if total <= 0.0 {
            return Self(1.0);
        }
        Self((useful / total).clamp(0.0, 1.0))
    }

    /// The efficiency as a fraction in `[0, 1]`.
    pub fn fraction(self) -> f64 {
        self.0
    }

    /// The efficiency in percent.
    pub fn percent(self) -> f64 {
        self.0 * 100.0
    }
}

/// Measure a [`CostModel`] from a concrete space and test function `C`
/// (`test(id, candidate)`, `Some` on acceptance) by timing the three
/// primitives directly (the paper's quantities made empirical): `K_f`
/// over `samples` generations, `K_next` over `samples` advances, `K_C`
/// over `samples` evaluations. Costs are in nanoseconds per operation.
pub fn measure_cost_model<S, T, E>(
    space: &S,
    test: &T,
    start_id: u128,
    samples: u32,
) -> CostModel
where
    S: crate::space::SolutionSpace,
    T: Fn(u128, &S::Solution) -> Option<E>,
{
    assert!(samples > 0);
    let t0 = std::time::Instant::now();
    for i in 0..samples {
        std::hint::black_box(space.generate(start_id + i as u128));
    }
    let k_f = t0.elapsed().as_nanos() as f64 / samples as f64;

    let mut candidate = space.generate(start_id);
    let t0 = std::time::Instant::now();
    for i in 0..samples {
        space.advance(start_id + i as u128, &mut candidate);
        std::hint::black_box(&candidate);
    }
    let k_next = t0.elapsed().as_nanos() as f64 / samples as f64;

    let candidate = space.generate(start_id);
    let t0 = std::time::Instant::now();
    for i in 0..samples {
        std::hint::black_box(test(start_id + i as u128, &candidate));
    }
    let k_c = t0.elapsed().as_nanos() as f64 / samples as f64;

    CostModel::new(k_f, k_next, k_c)
}

/// Costs of one dispatch round from a master to its children
/// (`K_scatter_j`, `K_search_j`, `K_gather_j` per node plus the optional
/// merge cost `K_C_M`).
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchCosts {
    /// Per-node `(K_scatter_j, K_search_j, K_gather_j)` triples.
    pub per_node: Vec<(f64, f64, f64)>,
    /// `K_C_M`: cost of the master's merge step.
    pub k_merge: f64,
}

impl DispatchCosts {
    /// Create dispatch costs for a set of nodes.
    ///
    /// # Panics
    /// Panics if any cost is negative or non-finite.
    pub fn new(per_node: Vec<(f64, f64, f64)>, k_merge: f64) -> Self {
        assert!(k_merge.is_finite() && k_merge >= 0.0);
        for &(s, w, g) in &per_node {
            assert!(s.is_finite() && s >= 0.0);
            assert!(w.is_finite() && w >= 0.0);
            assert!(g.is_finite() && g >= 0.0);
        }
        Self { per_node, k_merge }
    }

    /// Lower bound on `K_D`: the best case where scatters and gathers fully
    /// overlap with other nodes' searches.
    pub fn k_d_lower(&self) -> f64 {
        let max_chain = self
            .per_node
            .iter()
            .map(|&(s, w, g)| s + w + g)
            .fold(0.0f64, f64::max);
        max_chain + self.k_merge
    }

    /// Upper bound on `K_D`: fully serialized scatters and gathers.
    pub fn k_d_upper(&self) -> f64 {
        let scatter: f64 = self.per_node.iter().map(|&(s, _, _)| s).sum();
        let gather: f64 = self.per_node.iter().map(|&(_, _, g)| g).sum();
        let max_search = self
            .per_node
            .iter()
            .map(|&(_, w, _)| w)
            .fold(0.0f64, f64::max);
        scatter + max_search + gather + self.k_merge
    }

    /// For large intervals `K_D` is dominated by the slowest node's search
    /// (`max_j K_search_j`); this returns that dominant term.
    pub fn dominant_search(&self) -> f64 {
        self.per_node
            .iter()
            .map(|&(_, w, _)| w)
            .fold(0.0f64, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_search_cost_formula() {
        let m = CostModel::new(10.0, 1.0, 5.0);
        // K_f + (n-1)*K_next + n*K_C = 10 + 9 + 50
        assert_eq!(m.k_search_incremental(10), 69.0);
    }

    #[test]
    fn regenerating_search_cost_formula() {
        let m = CostModel::new(10.0, 1.0, 5.0);
        assert_eq!(m.k_search_regenerating(10), 150.0);
    }

    #[test]
    fn zero_candidates_cost_nothing() {
        let m = CostModel::new(10.0, 1.0, 5.0);
        assert_eq!(m.k_search_incremental(0), 0.0);
        assert_eq!(m.k_search_regenerating(0), 0.0);
    }

    #[test]
    fn efficiency_grows_with_n_when_next_is_cheap() {
        let m = CostModel::new(10.0, 1.0, 5.0);
        let e_small = m.efficiency(2).fraction();
        let e_large = m.efficiency(10_000).fraction();
        assert!(e_large > e_small);
        let asymptote = m.asymptotic_efficiency().fraction();
        assert!((e_large - asymptote).abs() < 1e-3);
        assert!((asymptote - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn dispatch_bounds_ordered() {
        let d = DispatchCosts::new(vec![(1.0, 100.0, 2.0), (3.0, 80.0, 1.0)], 4.0);
        assert!(d.k_d_lower() <= d.k_d_upper());
        assert_eq!(d.k_d_lower(), 103.0 + 4.0);
        assert_eq!(d.k_d_upper(), 4.0 + 100.0 + 3.0 + 4.0);
        assert_eq!(d.dominant_search(), 100.0);
    }

    #[test]
    fn efficiency_clamps() {
        assert_eq!(Efficiency::from_ratio(5.0, 2.0).fraction(), 1.0);
        assert_eq!(Efficiency::from_ratio(-1.0, 2.0).fraction(), 0.0);
        assert_eq!(Efficiency::from_ratio(0.0, 0.0).fraction(), 1.0);
        assert_eq!(Efficiency::from_ratio(1.0, 2.0).percent(), 50.0);
    }

    #[test]
    #[should_panic]
    fn negative_cost_rejected() {
        CostModel::new(-1.0, 0.0, 0.0);
    }
}
