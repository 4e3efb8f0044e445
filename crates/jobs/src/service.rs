//! The job service: fair-share rounds of checkpointed leases over one
//! dispatcher fleet.
//!
//! Each scheduling **round** carves a key budget across the runnable
//! jobs by priority ([`crate::sched::carve_budget`] — the paper's
//! scatter proportions at the inter-job level), then runs each job's
//! **lease** as one [`Fleet::run_round`] on a fresh dispatcher, stealing
//! on (`retune` adds the round driver's live weights). After every lease
//! the job's progress is
//! made durable, *then* the next lease starts — so a SIGKILL at any
//! instant loses at most the in-flight lease's scan time and never its
//! coverage accounting: the frontier only ever advances together with
//! the credit derived from it (exactly-once crediting; at-most-one lease
//! of rescan).
//!
//! The durability barrier is usually one append of the lease's line to
//! the job's lease log (see [`crate::store`]). A lease that changes the
//! job's lifecycle state (its first, `pending → running`, or its last,
//! `→ completed`) writes the snapshot instead, and so does the lease
//! after [`FOLD_LINES`] appends, which bounds the log a restart replays.
//!
//! The service keeps its job records in memory between rounds. A round
//! re-reads only jobs it has not seen and jobs whose snapshot another
//! writer replaced (a new inode or mtime, as `eks job pause` leaves), so
//! it neither parses every record nor replays every log.
//!
//! Telemetry gains the `job` label dimension here: per-lease the service
//! flushes `eks_job_keys_tested_total{job=...}` from the same
//! `DispatchReport` whose per-worker totals the dispatcher flushed, so
//! the per-job carve-out always reconciles exactly against the shared
//! worker counters.

use std::collections::BTreeMap;
use std::sync::Mutex;

use eks_engine::{Dispatcher, Retune, SchedOptions, SchedPolicy};
use eks_keyspace::Interval;
use eks_telemetry::{names, Telemetry};

use crate::job::{JobError, JobHit, JobId, JobRecord, JobState};
use crate::sched::carve_budget;
use crate::store::{JobStore, Stamp};

/// Lease-log lines a job may hold; the next lease writes the snapshot,
/// which folds the log.
pub const FOLD_LINES: usize = 64;

/// Intra-lease scheduling: drained members steal.
const LEASE_SCHED: SchedPolicy = SchedPolicy::Steal;

/// Guided chunk floor inside a lease.
const LEASE_CHUNK: u128 = 4096;

/// The device fleet every job's leases are dispatched onto (the engine's
/// [`eks_engine::Fleet`] over owned backends).
pub type Fleet = eks_engine::Fleet<'static>;

/// One member of a [`Fleet`].
pub type FleetMember = eks_engine::FleetMember<'static>;

/// Scheduler knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Keys leased per round across all jobs (the checkpoint
    /// granularity: smaller rounds persist more often).
    pub round_keys: u128,
    /// Closed-loop adaptation: scatter every lease by the fleet's live
    /// (warm-up-gated) rate estimates instead of the frozen tuned
    /// weights, run the engine's chunk-level re-scatter inside each
    /// lease with these knobs, and scale the round budget by the fleet's
    /// live-to-tuned throughput ratio. `None` keeps scheduling
    /// byte-identical to the static accounting.
    pub retune: Option<Retune>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self { round_keys: 1 << 16, retune: None }
    }
}

/// What one scheduling round did.
#[derive(Debug, Default)]
pub struct RoundReport {
    /// Leases dispatched, in dispatch order.
    pub leases: Vec<(JobId, Interval)>,
    /// Keys scanned this round (sum of dispatch reports).
    pub scanned: u128,
    /// Jobs that reached `Completed` this round.
    pub completed: Vec<JobId>,
}

impl RoundReport {
    /// True when no runnable job had work: the service may sleep.
    pub fn is_idle(&self) -> bool {
        self.leases.is_empty()
    }
}

/// The multi-tenant scheduler over one spool and one fleet.
pub struct JobService {
    store: JobStore,
    config: ServiceConfig,
    telemetry: Telemetry,
    /// Every job in the spool as of the last round, by id.
    jobs: Mutex<BTreeMap<JobId, Tracked>>,
}

/// One job as the service holds it between rounds: the record (snapshot
/// plus every lease logged since), the snapshot it was read from or last
/// wrote, and the number of lines in its lease log.
struct Tracked {
    record: JobRecord,
    stamp: Option<Stamp>,
    log_lines: usize,
}

impl JobService {
    /// A service over an open store.
    pub fn new(store: JobStore, config: ServiceConfig) -> Self {
        Self {
            store,
            config,
            telemetry: Telemetry::disabled(),
            jobs: Mutex::new(BTreeMap::new()),
        }
    }

    /// Attach telemetry (per-job counters + lease events).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The underlying store.
    pub fn store(&self) -> &JobStore {
        &self.store
    }

    /// The telemetry handle leases flush through (disabled by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Run one fair-share round: carve the budget across runnable jobs,
    /// dispatch one lease per job, checkpoint after each.
    pub fn round(&self, fleet: &Fleet) -> Result<RoundReport, JobError> {
        let mut report = RoundReport::default();
        let mut jobs = self.jobs.lock().expect("job table");
        self.refresh(&mut jobs)?;
        let (runnable, owed): (Vec<JobId>, Vec<(u32, u128)>) = jobs
            .values()
            .map(|t| &t.record)
            .filter(|r| r.state.is_runnable() && !r.frontier.is_complete())
            .map(|r| (r.id, (r.spec.priority, r.remaining())))
            .unzip();
        if runnable.is_empty() {
            return Ok(report);
        }
        let shares = carve_budget(self.round_budget(fleet), &owed);
        for (id, share) in runnable.into_iter().zip(shares) {
            let Some(job) = jobs.get_mut(&id).filter(|_| share > 0) else { continue };
            if let Err(e) = self.run_leases(job, share, fleet, &mut report) {
                // The held record may be ahead of the spool: read it
                // again next round.
                jobs.remove(&id);
                return Err(e);
            }
            if job.record.state == JobState::Completed {
                report.completed.push(id);
            }
        }
        Ok(report)
    }

    /// Bring the held job table up to date with the spool: drop jobs
    /// whose snapshot is gone, read jobs that are new or whose snapshot
    /// another writer replaced. A job read with a torn lease-log tail is
    /// folded at once, so the next append starts on a clean line.
    fn refresh(&self, jobs: &mut BTreeMap<JobId, Tracked>) -> Result<(), JobError> {
        let ids = self.store.ids()?;
        jobs.retain(|id, _| ids.binary_search(id).is_ok());
        for id in ids {
            let stamp = self.store.stamp(id)?;
            if stamp.is_some() && jobs.get(&id).is_some_and(|t| t.stamp == stamp) {
                continue;
            }
            jobs.remove(&id);
            // Stamp first, then read: a snapshot replaced in between
            // only makes the next round read it again.
            let (record, tail) = match self.store.read(id) {
                Err(JobError::NotFound(_)) => continue,
                read => read?,
            };
            let mut tracked = Tracked { record, stamp, log_lines: tail.lines };
            if tail.torn {
                tracked.stamp = self.fold(&tracked.record)?;
                tracked.log_lines = 0;
            }
            jobs.insert(id, tracked);
        }
        Ok(())
    }

    /// Write a held job's snapshot, folding its lease log; returns the
    /// new snapshot's stamp.
    fn fold(&self, record: &JobRecord) -> Result<Option<Stamp>, JobError> {
        self.store.save(record)?;
        self.store.stamp(record.id)
    }

    /// Drive rounds until no runnable job has work left. Returns the
    /// number of non-idle rounds.
    pub fn run_until_idle(&self, fleet: &Fleet) -> Result<u64, JobError> {
        let mut rounds = 0;
        loop {
            let report = self.round(fleet)?;
            if report.is_idle() {
                return Ok(rounds);
            }
            rounds += 1;
        }
    }

    /// Dispatch up to `share` keys of one job as leases over the fleet,
    /// making each lease durable before the next (the checkpoint
    /// barrier).
    fn run_leases(
        &self,
        tracked: &mut Tracked,
        share: u128,
        fleet: &Fleet,
        report: &mut RoundReport,
    ) -> Result<(), JobError> {
        let Tracked { record: job, stamp, log_lines } = tracked;
        let space = job.spec.space()?;
        let targets = job.spec.targets();
        let mode = job.spec.mode();
        let job_label = job.id.to_string();
        let opts =
            SchedOptions { retune: self.config.retune, ..SchedOptions::for_policy(LEASE_SCHED, LEASE_CHUNK) };
        let mut left = share;
        while left > 0 {
            // One lease per contiguous pending run: a fragmented
            // frontier (paused mid-gap) simply yields several leases.
            let Some(lease) = job.frontier.take_work(left) else { break };
            left -= lease.len;

            let dispatcher = Dispatcher::new(&space, &targets, mode)
                .with_telemetry(self.telemetry.clone());
            fleet.run_round(&dispatcher, lease, opts);
            let out = dispatcher.finish();

            let new_hits = out.hits.len() as u64;
            let hits: Vec<JobHit> = out
                .hits
                .iter()
                .map(|(id, key, _target)| JobHit { id: *id, key: key.as_bytes().to_vec() })
                .collect();
            let before = job.state;
            if mode.first_hit_only() && !hits.is_empty() {
                // The job ends at its lowest-identifier hit: leases are
                // taken front-to-back, so this lease's merged hit is the
                // global first. Credit the exact scanned count; the
                // uncovered tail of the lease is moot.
                job.hits.extend_from_slice(&hits);
                job.tested = job.tested.saturating_add(out.tested);
                job.state = JobState::Completed;
            } else {
                // Exhaustive (or hitless) lease: the whole interval was
                // scanned. Coverage advances first; the credit is
                // *derived* from it, so a crash can never double-count.
                job.credit_lease(lease, &hits);
                job.state = if job.frontier.is_complete() {
                    JobState::Completed
                } else {
                    JobState::Running
                };
            }

            if self.telemetry.is_enabled() {
                let labels = [("job", job_label.as_str())];
                let tested64 = u64::try_from(out.tested).unwrap_or(u64::MAX);
                self.telemetry.counter(names::JOB_KEYS_TESTED, &labels).add(tested64);
                self.telemetry.counter(names::JOB_LEASES, &labels).inc();
                self.telemetry.counter(names::JOB_HITS, &labels).add(new_hits);
                self.telemetry
                    .gauge(names::JOB_REMAINING_KEYS, &labels)
                    .set(job.remaining() as f64);
                self.telemetry
                    .event(names::EVENT_LEASE)
                    .device(&job_label)
                    .field("start", lease.start)
                    .field("keys", lease.len)
                    .finish();
            }

            // The durability barrier: coverage + credit + hits land
            // before the next lease is taken — one log line, or a
            // snapshot when the state moved or the log is full.
            if job.state != before || *log_lines >= FOLD_LINES {
                *stamp = self.fold(job)?;
                *log_lines = 0;
            } else {
                self.store.append_lease(job.id, &lease, &hits)?;
                *log_lines += 1;
            }
            // Lease boundary: let an attached live plane close a window
            // and run its anomaly pass over this lease's deltas.
            self.telemetry.observe_plane();
            report.leases.push((job.id, lease));
            report.scanned += out.tested;
            if job.state.is_terminal() {
                break;
            }
        }
        Ok(())
    }

    /// The round's key budget. Under retune the configured budget is
    /// scaled by the fleet's live-to-tuned throughput ratio (clamped to
    /// `[1/4, 4]`): a fleet really running faster than its tuning
    /// figures leases proportionally more keys per round, so the
    /// checkpoint cadence stays roughly constant in wall time rather
    /// than in keys; a fleet bogged down by an expensive KDF checkpoints
    /// more often, bounding the rescan a crash can cost.
    fn round_budget(&self, fleet: &Fleet) -> u128 {
        if self.config.retune.is_none() {
            return self.config.round_keys;
        }
        let tuned: f64 = fleet.weights().iter().sum();
        let live: f64 = fleet.live_weights().iter().sum();
        if tuned <= 0.0 || !live.is_finite() || live <= 0.0 {
            return self.config.round_keys;
        }
        let ratio = (live / tuned).clamp(0.25, 4.0);
        ((self.config.round_keys as f64 * ratio) as u128).max(1)
    }
}
