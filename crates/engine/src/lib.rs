//! # eks-engine — pluggable backends, one dispatch core
//!
//! The paper's whole point (Section III) is *one* parallelization
//! pattern dispatched over a heterogeneous tree of devices: split the
//! identifier interval by tuned throughput (`N_j = N_max · X_j / X_max`),
//! scan, poll a stop condition, gather and merge. This crate is that
//! pattern as a library, independent of *how* a leaf tests candidates:
//!
//! * [`poll`] — the single chunk/poll/cancel loop ([`PollCursor`]): every
//!   scan in the workspace walks its interval through this cursor, so
//!   cancellation latency has exactly one source of truth
//!   ([`POLL_CHUNK`]);
//! * [`target`] — the test function `C`: hash targets and target sets;
//! * [`backend`] — the [`Backend`] trait: a leaf executor that scans an
//!   interval of a space `S` (a type parameter, `KeySpace` by default —
//!   a mask or a hybrid dictionary is the same pattern with another
//!   bijection) and reports a tuned throughput for the balancing step;
//! * [`steal`] — the adaptive scheduling vocabulary: per-worker interval
//!   deques with steal-half rebalancing ([`IntervalDeques`]), guided
//!   chunk sizing ([`ChunkPolicy`]), the `static|queue|steal` policy
//!   names ([`SchedPolicy`]) and per-worker [`WorkerStats`];
//! * [`dispatch`] — the [`Dispatcher`]: owns the stop flag, the hit
//!   merge (under first-hit the lowest matching identifier whenever
//!   several digests are searched, any occurrence of the one key
//!   otherwise), per-worker accounting and progress hooks, and runs
//!   deque-scheduled workers ([`Dispatcher::run_deques`]);
//! * [`fleet`] — the one round driver: a [`Fleet`] of labelled, weighted
//!   backends and [`Fleet::run_round`], which registers one worker per
//!   label, scatters a slice by tuned (or, under retune, live) weights
//!   and runs it on a dispatcher. `eks crack` is one round over
//!   [`Fleet::threads`], `eks cluster` a rounds loop with
//!   [`FleetEvent`]s between rounds, `eks job` one round per lease;
//! * [`checkpoint`] — serializable search state: the completed-work
//!   frontier ([`Checkpoint`]) and the schema-stamped JSON snapshot of a
//!   mid-search dispatcher ([`SearchCheckpoint`]), the substrate the
//!   multi-tenant job service persists and resumes from.
//!
//! Backend *implementations* live up-stack: `eks-cracker` provides the
//! scalar and lane-batched CPU backends, `eks-cluster` the simulated-GPU
//! kernel backend. This crate only depends on `eks-keyspace` (through
//! which it reaches `SolutionSpace`), `eks-hashes` and `eks-telemetry`,
//! so every layer above can plug in.

pub mod backend;
pub mod checkpoint;
pub mod dispatch;
pub mod fleet;
pub mod poll;
pub mod rate;
pub mod steal;
pub mod target;

pub use backend::{Backend, BackendKind, ScanMode, ScanReport};
pub use checkpoint::{
    Checkpoint, CheckpointError, SearchCheckpoint, CHECKPOINT_SCHEMA_VERSION,
};
pub use dispatch::{
    DequeLeaf, DispatchReport, Dispatcher, ProgressEvent, Retune, SchedOptions, WorkerId,
};
pub use fleet::{Fleet, FleetEvent, FleetMember, ScheduledFleetEvent};
pub use poll::{poll_quantum, PollCursor, POLL_CHUNK};
pub use rate::{eta_drift_pct, RateBook, RateEstimator, RetuneControl};
pub use steal::{
    rescatter_plan, steal_split, ChunkPolicy, IntervalDeques, ScatterError, SchedPolicy,
    StealOutcome, WorkerStats,
};
pub use target::{HashTarget, TargetSet};
