//! # eks-cracker — the real CPU cracking engine
//!
//! Where the simulated GPUs model *performance*, this crate does the
//! actual *work*: multi-threaded brute-force search over a
//! [`eks_keyspace::KeySpace`] against real MD5/SHA-1 targets, with the
//! paper's structure — interval dispatch, cheap `next`-operator
//! enumeration, periodic stop-condition polling — mapped onto CPU threads
//! instead of CUDA warps.
//!
//! * [`search`] — the one scalar scan ([`crack_interval`], the oracle every
//!   equivalence test compares against) and the one threaded search
//!   ([`crack_parallel_backend_observed`], the engine's `Dispatcher` over
//!   any space of keys);
//! * [`backend`] / [`batch`] — the CPU backends and the lane loop
//!   ([`CpuBackend`] runs the widest explicit-SIMD kernel the CPU has);
//! * [`audit`] — checkpointed multi-account audits;
//! * [`stats`] — the per-worker accounting table.
//!
//! Also hosts the Bitcoin-style mining search the paper's introduction
//! motivates: a SHA-256d nonce scan against a leading-zero-bits target
//! ([`mining`]).

pub mod audit;
pub mod backend;
pub mod batch;
pub mod mining;
pub mod search;
pub mod stats;
pub mod target;

pub use audit::{AuditEntry, AuditFinding, AuditReport, AuditSession};
pub use backend::{cpu_backend, AutoBackend, CpuBackend, ScalarBackend, SimdBackend};
pub use batch::{crack_interval_batched, Kernel, Lanes};
pub use mining::{mine, MiningJob, MiningResult};
pub use search::{
    crack_interval, crack_parallel, crack_parallel_backend, crack_parallel_backend_observed,
    crack_space_interval, crack_space_parallel, CrackOutcome, ParallelConfig, ParallelReport,
};
pub use stats::render_worker_stats;
pub use target::{HashTarget, TargetSet};
