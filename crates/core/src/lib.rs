//! # eks-core — the exhaustive-search parallelization pattern
//!
//! This crate implements the abstract pattern of Section III of
//! *"Exhaustive Key Search on Clusters of GPUs"* (Barbieri, Cardellini,
//! Filippone, IPPS 2014):
//!
//! * a [`SolutionSpace`]: a bijection `f : N -> S` from identifiers to
//!   candidate solutions together with a cheap incremental `next` operator
//!   such that `next(i, f(i)) = f(i + 1)`;
//! * a test function `C : S -> {0, 1}`, which `eks-engine`'s
//!   `CandidateTest` names for the one dispatcher;
//! * a **cost model** ([`cost`]) with the paper's `K_f`, `K_next`, `K_C`
//!   quantities, the single-process search cost `K_search`, the dispatch
//!   cost bounds on `K_D`, and the efficiency definition;
//! * **partitioning and load balancing** ([`partition`]): the tuning-step
//!   driven, throughput-proportional interval assignment
//!   `N_j = N_max * X_j / X_max` with `N_max = max_j (n_j * X_max / X_j)`;
//! * seeded property testing ([`prop`]) for the workspace's randomized
//!   tests.
//!
//! The concrete password-cracking instantiation lives in the sibling crates
//! `eks-keyspace` (the bijection over strings), `eks-hashes` (the test
//! function), `eks-engine` (the one dispatcher every search runs through,
//! over any space and any test `C`, mining's nonce range included) and
//! `eks-cluster` (the hierarchical dispatcher).

pub mod cost;
pub mod partition;
pub mod prop;
pub mod space;

pub use cost::{measure_cost_model, CostModel, DispatchCosts, Efficiency};
pub use partition::{balance_workloads, NodeRate, Partition, WorkAssignment};
pub use space::SolutionSpace;
