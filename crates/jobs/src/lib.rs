//! # eks-jobs — the multi-tenant job service
//!
//! The paper's dispatcher assumes one search owning the whole fleet.
//! This crate breaks that assumption: many concurrent crack **jobs** are
//! multiplexed onto the same scatter/gather machinery with exactly-once
//! coverage preserved across process kills.
//!
//! * [`job`] — job identity, spec, lifecycle
//!   (`pending → running ⇄ paused → completed/cancelled`), and the
//!   schema-stamped JSON record;
//! * [`store`] — the spool directory: per job an atomically-written
//!   snapshot plus an append-only lease log, self-describing and
//!   relocatable;
//! * [`sched`] — inter-job fair share: the paper's §III scatter
//!   proportions applied one level up, with priorities as weights;
//! * [`service`] — the round loop: carve a key budget across runnable
//!   jobs, run each job's lease as one round of the engine's round
//!   driver over the shared [`Fleet`] (second-level scatter by tuned
//!   rate, stealing on), checkpoint after every lease, holding the job
//!   records in memory between rounds. `Fleet` and `FleetMember` are
//!   the engine's, over owned backends.
//!
//! The crash-safety contract, end to end: a snapshot on disk is always a
//! complete document (temp-file + rename); between snapshots each lease
//! is one appended log line carrying its interval and hits, replayed
//! idempotently on load, with a torn final line ignored; the frontier of
//! completed intervals only advances in the same write that carries the
//! credit derived from it; so a SIGKILL at any instant costs at most one
//! in-flight lease of *rescanning*, never a double-credit and never a
//! skipped key.

pub mod job;
pub mod sched;
pub mod service;
pub mod store;

pub use job::{
    algo_key, parse_algo_key, JobError, JobHit, JobId, JobRecord, JobSpec, JobState,
    JOB_SCHEMA_VERSION,
};
pub use sched::carve_budget;
pub use service::{Fleet, FleetMember, JobService, RoundReport, ServiceConfig};
pub use store::JobStore;
