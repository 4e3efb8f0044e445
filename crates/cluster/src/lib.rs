//! # eks-cluster — hierarchical, heterogeneous dispatch
//!
//! The coarse-grain half of the paper (Sections III, IV, VI): a tree of
//! dispatcher and computing nodes over heterogeneous (simulated) GPUs.
//!
//! * [`spec`] — cluster description: nodes, devices, link latencies, and
//!   the paper's exact four-node network (A→{B,C}, C→D, five GPUs);
//! * [`tuning`] — the tuning step: per-device achieved throughput `X_j`
//!   (from the cycle-level simulator or the analytic no-ILP model) and
//!   minimum batch `n_j` for a target efficiency;
//! * [`des`] — deterministic discrete-event simulation of a whole search:
//!   round-based scatter/gather with link latencies, launch overheads and
//!   tuning error, producing the aggregate throughput and efficiency of
//!   Table IX;
//! * [`runtime`] — the real driver: [`plan_fleet`] flattens the tree into
//!   one [`eks_jobs::Fleet`] of backend leaves weighted by tuned rate, and
//!   [`run_cluster`] cracks keys over it in a loop of the engine's rounds
//!   (`eks_engine::Fleet::run_round`) — static scatter is one round,
//!   bounded rounds and join/leave events ([`FleetEvent`], re-exported
//!   from the engine) are the same loop run longer;
//! * [`fault`] — the minimum fault-tolerance model the paper sketches:
//!   detect a dead subtree, requeue its outstanding interval, repartition
//!   over the survivors.
//!
//! ```
//! use eks_cluster::{paper_network, simulate_search, SimParams};
//! use eks_hashes::HashAlgo;
//! use eks_kernels::Tool;
//!
//! // Table IX in one call: the paper's network sweeping 5e11 keys.
//! let net = paper_network(2e-3);
//! let r = simulate_search(&net, Tool::OurApproach, HashAlgo::Md5, 5e11, SimParams::default());
//! assert!(r.table9_efficiency() > 0.8, "the paper reports 0.852");
//! ```

pub mod des;
pub mod fault;
pub mod model;
pub mod runtime;
pub mod simgpu;
pub mod spec;
pub mod strength;
pub mod topology;
pub mod tuning;

pub use des::{simulate_search, NetworkReport, SimParams};
pub use fault::{simulate_search_with_failure, FailureEvent, FailureReport};
pub use model::{calibrate, FittedModel};
pub use eks_engine::{FleetEvent, ScheduledFleetEvent};
pub use runtime::{plan_fleet, run_cluster, run_cluster_search, ClusterOptions, ClusterSearchResult};
pub use simgpu::SimKernelBackend;
pub use spec::{paper_network, ClusterNode, CpuWorker, GpuSlot};
pub use strength::{estimate_against_cluster, estimate_against_device, StrengthEstimate};
pub use topology::parse_topology;
pub use tuning::{tune_device, AchievedModel, Tuning};
