//! # eks-cracker — the real CPU cracking engine
//!
//! Where the simulated GPUs model *performance*, this crate does the
//! actual *work*: multi-threaded brute-force search over a
//! [`eks_keyspace::KeySpace`] against real MD5/SHA-1 targets, with the
//! paper's structure — interval dispatch, cheap `next`-operator
//! enumeration, periodic stop-condition polling — mapped onto CPU threads
//! instead of CUDA warps.
//!
//! Also hosts the Bitcoin-style mining search the paper's introduction
//! motivates: a SHA-256d nonce scan against a leading-zero-bits target
//! ([`mining`]).

pub mod audit;
pub mod backend;
pub mod batch;
pub mod engine;
pub mod mining;
pub mod parallel;
pub mod progress;
pub mod stats;
pub mod target;

pub use audit::{AuditEntry, AuditFinding, AuditReport, AuditSession};
pub use backend::{cpu_backend, AutoBackend, CpuBackend, ScalarBackend, SimdBackend};
pub use batch::{crack_interval_batched, layout_for, Kernel, Lanes};
pub use engine::{crack_interval, crack_space_interval, CrackOutcome};
pub use mining::{mine, MiningJob, MiningResult};
pub use parallel::{
    crack_parallel, crack_parallel_backend, crack_parallel_backend_observed,
    crack_space_parallel, ParallelConfig, ParallelReport,
};
pub use progress::ThroughputMeter;
pub use stats::{render_worker_stats, ClassUsage, PasswordStats};
pub use target::{HashTarget, TargetSet};
