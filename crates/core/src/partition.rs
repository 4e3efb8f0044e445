//! Work partitioning and throughput-proportional load balancing
//! (Section III, "Maximizing performance ...").
//!
//! The paper's balancing procedure, assuming `K_C` and `K_next` constant:
//!
//! 1. a tuning step estimates for each node `j` the minimum candidate count
//!    `n_j` that reaches a target efficiency, and its peak throughput `X_j`;
//! 2. find `X_max = max_j X_j`;
//! 3. set `N_max = max_j (n_j * X_max / X_j)` so that every node's
//!    assignment meets its own minimum;
//! 4. assign node `j` the interval size `N_j = N_max * X_j / X_max`.
//!
//! With these sizes every node finishes in (approximately) the same time
//! `N_max / X_max`, so none idles waiting for the others.

/// Result of the tuning step for one node: its peak throughput and the
/// minimum work quantum at which it reaches the target efficiency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeRate {
    /// `X_j`: peak throughput in candidates per unit time. Must be > 0.
    pub throughput: f64,
    /// `n_j`: minimum number of candidates for the target efficiency.
    pub min_batch: u128,
}

impl NodeRate {
    /// Create a node rate.
    ///
    /// # Panics
    /// Panics unless `throughput` is finite and strictly positive.
    pub fn new(throughput: f64, min_batch: u128) -> Self {
        assert!(
            throughput.is_finite() && throughput > 0.0,
            "throughput must be positive, got {throughput}"
        );
        Self { throughput, min_batch }
    }
}

/// A per-round assignment of interval sizes, one per node, in input order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkAssignment {
    /// `N_j` for each node.
    pub sizes: Vec<u128>,
    /// `N_max`, the size handed to the fastest node.
    pub n_max: u128,
}

impl WorkAssignment {
    /// Total candidates dispatched in one round (`N_node = Σ N_j`), which
    /// is also the minimum batch a *parent* dispatcher should receive for
    /// this subtree to stay efficient.
    pub fn round_total(&self) -> u128 {
        self.sizes.iter().sum()
    }
}

/// Compute the paper's balanced workload sizes for a set of nodes.
///
/// Returns sizes such that `N_j / X_j` is (up to integer rounding) equal
/// across nodes and every `N_j >= n_j`. Every size is at least 1 so no node
/// is starved. An empty slice yields an empty assignment.
pub fn balance_workloads(rates: &[NodeRate]) -> WorkAssignment {
    if rates.is_empty() {
        return WorkAssignment { sizes: Vec::new(), n_max: 0 };
    }
    let x_max = rates
        .iter()
        .map(|r| r.throughput)
        .fold(f64::MIN, f64::max);
    // N_max = max_j (n_j * X_max / X_j), and at least 1.
    let mut n_max_f = 1.0f64;
    for r in rates {
        let need = r.min_batch as f64 * (x_max / r.throughput);
        n_max_f = n_max_f.max(need);
    }
    let n_max = n_max_f.ceil() as u128;
    let sizes = rates
        .iter()
        .map(|r| {
            let nj = (n_max as f64 * (r.throughput / x_max)).round() as u128;
            nj.max(r.min_batch).max(1)
        })
        .collect();
    WorkAssignment { sizes, n_max }
}

/// A contiguous split of the identifier range `[start, start + total)` into
/// per-node intervals with the given sizes, truncated to the available
/// candidates. Used by dispatchers to turn an assignment into concrete
/// sub-intervals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// `(start, len)` for each node, in input order. May contain zero-length
    /// intervals when `total` runs out.
    pub intervals: Vec<(u128, u128)>,
}

impl Partition {
    /// Carve `[start, start + total)` into consecutive intervals of the
    /// requested sizes. If the sizes exceed `total`, later intervals shrink
    /// (possibly to zero); if they fall short, the remainder is distributed
    /// proportionally by repeating the size pattern.
    pub fn carve(start: u128, total: u128, sizes: &[u128]) -> Self {
        let mut intervals = Vec::with_capacity(sizes.len());
        let mut cursor = start;
        let mut remaining = total;
        for &sz in sizes {
            let take = sz.min(remaining);
            intervals.push((cursor, take));
            cursor += take;
            remaining -= take;
        }
        // Any remainder goes to the last non-empty slot holder proportions
        // would favor — in practice dispatch loops re-carve, so just extend
        // the final interval to avoid dropping candidates in one-shot use.
        if remaining > 0 {
            if let Some(last) = intervals.last_mut() {
                last.1 += remaining;
            } else {
                intervals.push((start, total));
            }
        }
        Self { intervals }
    }

    /// Sum of interval lengths; always equals the carved `total`.
    pub fn covered(&self) -> u128 {
        self.intervals.iter().map(|&(_, len)| len).sum()
    }

}

/// Predicted makespan (time for the slowest node to finish) of an
/// assignment under per-node throughputs; used to check balance quality.
pub fn makespan(sizes: &[u128], rates: &[NodeRate]) -> f64 {
    sizes
        .iter()
        .zip(rates)
        .map(|(&n, r)| n as f64 / r.throughput)
        .fold(0.0f64, f64::max)
}

/// Parallel efficiency of an assignment: ideal time (total work divided by
/// aggregate throughput) over the predicted makespan.
pub fn parallel_efficiency(sizes: &[u128], rates: &[NodeRate]) -> f64 {
    let total: u128 = sizes.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let agg: f64 = rates.iter().map(|r| r.throughput).sum();
    let ideal = total as f64 / agg;
    let actual = makespan(sizes, rates);
    (ideal / actual).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rates() -> Vec<NodeRate> {
        vec![
            NodeRate::new(1000.0, 100),
            NodeRate::new(250.0, 50),
            NodeRate::new(500.0, 400),
        ]
    }

    #[test]
    fn balanced_sizes_proportional_to_throughput() {
        let a = balance_workloads(&rates());
        // Node 2 forces N_max = 400 * (1000/500) = 800.
        assert_eq!(a.n_max, 800);
        assert_eq!(a.sizes, vec![800, 200, 400]);
    }

    #[test]
    fn every_node_meets_its_minimum_batch() {
        let a = balance_workloads(&rates());
        for (sz, r) in a.sizes.iter().zip(rates()) {
            assert!(*sz >= r.min_batch);
        }
    }

    #[test]
    fn balanced_assignment_has_unit_parallel_efficiency() {
        let a = balance_workloads(&rates());
        let eff = parallel_efficiency(&a.sizes, &rates());
        assert!(eff > 0.999, "efficiency {eff}");
    }

    #[test]
    fn empty_input_is_empty_assignment() {
        let a = balance_workloads(&[]);
        assert!(a.sizes.is_empty());
        assert_eq!(a.round_total(), 0);
    }

    #[test]
    fn single_node_gets_its_minimum() {
        let a = balance_workloads(&[NodeRate::new(10.0, 123)]);
        assert_eq!(a.sizes, vec![123]);
    }

    #[test]
    fn carve_is_contiguous_and_covers_total() {
        let p = Partition::carve(1000, 950, &[500, 300, 400]);
        assert_eq!(p.covered(), 950);
        assert_eq!(p.intervals, vec![(1000, 500), (1500, 300), (1800, 150)]);
    }

    #[test]
    fn carve_extends_last_interval_for_remainder() {
        let p = Partition::carve(0, 100, &[10, 10]);
        assert_eq!(p.intervals, vec![(0, 10), (10, 90)]);
        assert_eq!(p.covered(), 100);
    }

    #[test]
    fn carve_empty_sizes() {
        let p = Partition::carve(5, 7, &[]);
        assert_eq!(p.intervals, vec![(5, 7)]);
    }

    #[test]
    fn makespan_of_balanced_is_nmax_over_xmax() {
        let a = balance_workloads(&rates());
        let ms = makespan(&a.sizes, &rates());
        assert!((ms - 0.8).abs() < 1e-9, "makespan {ms}");
    }

    #[test]
    #[should_panic]
    fn zero_throughput_rejected() {
        NodeRate::new(0.0, 1);
    }
}
