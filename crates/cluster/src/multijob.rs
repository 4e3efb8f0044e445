//! A whole spool of jobs over one planned cluster fleet.
//!
//! [`crate::plan_fleet`] turns a cluster description into the persistent
//! [`eks_jobs::Fleet`] the job service leases keyspace onto, round after
//! round. [`run_dynamic_jobs`] interleaves membership events between
//! fair-share rounds with the same [`apply_events`] the single-search
//! driver uses, so a node joining or leaving the network interacts
//! correctly with lease reassignment: membership only changes *between*
//! leases, every lease re-scatters over the then-current members, and
//! coverage accounting lives in the job records — a leaver never takes
//! assigned-but-unscanned keys with it.

use eks_jobs::{Fleet, JobError, JobId, JobService};
use eks_telemetry::names;

use crate::runtime::{apply_events, ScheduledFleetEvent};

/// What a multi-job run did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiJobReport {
    /// Fair-share rounds that dispatched at least one lease.
    pub rounds: u64,
    /// Rounds preceded by at least one applied membership change.
    pub rebalances: u64,
    /// Keys scanned across all jobs and rounds.
    pub scanned: u128,
    /// Jobs that reached `Completed`, in completion order.
    pub completed: Vec<JobId>,
}

/// Drive fair-share rounds over a mutable fleet, applying scheduled
/// join/leave events between rounds, until no runnable job has work
/// left.
///
/// Lease reassignment across jobs is automatic: a lease taken after the
/// event re-scatters over the then-current members, and a leaver's
/// unfinished coverage never existed — the job frontier only retires
/// intervals whose dispatch actually completed. A leave that would
/// empty the fleet is refused (the remaining member keeps scanning);
/// re-joining a label simply adds a member back.
pub fn run_dynamic_jobs(
    mut fleet: Fleet,
    service: &JobService,
    mut events: Vec<ScheduledFleetEvent>,
) -> Result<MultiJobReport, JobError> {
    let telemetry = service.telemetry().clone();
    let rebalance_counter = telemetry.counter(names::REBALANCES, &[]);
    let mut report =
        MultiJobReport { rounds: 0, rebalances: 0, scanned: 0, completed: Vec::new() };
    loop {
        if apply_events(&mut fleet, &mut events, report.rounds, &telemetry) {
            report.rebalances += 1;
            rebalance_counter.inc();
        }

        let r = service.round(&fleet)?;
        let idle = r.is_idle();
        report.scanned += r.scanned;
        report.completed.extend(r.completed);
        if idle {
            return Ok(report);
        }
        report.rounds += 1;
    }
}

#[cfg(test)]
#[allow(clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::runtime::{plan_fleet, FleetEvent};
    use crate::simgpu::SimKernelBackend;
    use crate::spec::ClusterNode;
    use eks_engine::Backend;
    use eks_gpusim::device::Device;
    use eks_hashes::HashAlgo;
    use eks_jobs::{FleetMember, JobSpec, JobState, JobStore, ServiceConfig};
    use eks_keyspace::Order;
    use eks_telemetry::Telemetry;
    use std::path::PathBuf;

    fn small_net() -> ClusterNode {
        ClusterNode::device_node("A", vec![Device::geforce_gtx_660()], 1e-3).with_cpu("cpu0", 2)
    }

    fn spec(name: &str, word: &[u8], priority: u32) -> JobSpec {
        JobSpec {
            name: name.into(),
            algo: HashAlgo::Md5,
            digest: HashAlgo::Md5.hash(word),
            charset: (b'a'..=b'z').collect(),
            min_len: 1,
            max_len: 3,
            order: Order::FirstCharFastest,
            priority,
            first_hit_only: false,
        }
    }

    /// |lowercase|^1 + ^2 + ^3.
    const SPACE: u128 = 26 + 26 * 26 + 26 * 26 * 26;

    fn tmp_spool(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("eks-multijob-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn two_jobs_drain_over_the_cluster_fleet() {
        let dir = tmp_spool("static");
        let store = JobStore::open(&dir).unwrap();
        let a = store.submit(spec("a", b"cat", 1)).unwrap();
        let b = store.submit(spec("b", b"zzz", 1)).unwrap();
        let service = JobService::new(
            store,
            ServiceConfig { round_keys: 8192, ..ServiceConfig::default() },
        );
        let fleet = plan_fleet(&small_net(), HashAlgo::Md5, service.telemetry());
        let rounds = service.run_until_idle(&fleet).unwrap();
        assert!(rounds >= 2, "two jobs over {SPACE} keys need several rounds, got {rounds}");
        for (id, word) in [(a.id, &b"cat"[..]), (b.id, b"zzz")] {
            let rec = service.store().load(id).unwrap();
            assert_eq!(rec.state, JobState::Completed);
            assert_eq!(rec.tested, SPACE, "exactly-once coverage for {id}");
            assert!(rec.hits.iter().any(|h| h.key == word), "{id} found its key");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn membership_churn_between_rounds_loses_nothing() {
        let dir = tmp_spool("dynamic");
        let store = JobStore::open(&dir).unwrap();
        let a = store.submit(spec("a", b"dog", 1)).unwrap();
        let b = store.submit(spec("b", b"zzz", 2)).unwrap();
        let service = JobService::new(
            store,
            ServiceConfig { round_keys: 8192, ..ServiceConfig::default() },
        );
        let fleet = plan_fleet(&small_net(), HashAlgo::Md5, &Telemetry::disabled());
        let joiner = || {
            let backend = SimKernelBackend::new(Device::geforce_gtx_550_ti());
            let weight = backend.tuned_rate(HashAlgo::Md5);
            FleetMember { label: "B/gtx550ti [simgpu]".into(), weight, backend: Box::new(backend) }
        };
        let events = vec![
            ScheduledFleetEvent {
                before_round: 1,
                event: FleetEvent::Join { member: joiner() },
            },
            ScheduledFleetEvent {
                before_round: 3,
                event: FleetEvent::Leave { label: "B/gtx550ti [simgpu]".into() },
            },
        ];
        let report = run_dynamic_jobs(fleet, &service, events).unwrap();
        assert_eq!(report.rebalances, 2, "join and leave each rebalance");
        assert_eq!(report.scanned, 2 * SPACE, "both keyspaces scanned exactly once");
        assert_eq!(report.completed.len(), 2);
        for id in [a.id, b.id] {
            let rec = service.store().load(id).unwrap();
            assert_eq!(rec.state, JobState::Completed);
            assert_eq!(rec.tested, SPACE);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retuned_service_still_completes_with_exact_coverage() {
        let dir = tmp_spool("retune");
        let store = JobStore::open(&dir).unwrap();
        let a = store.submit(spec("a", b"cat", 1)).unwrap();
        let b = store.submit(spec("b", b"zzz", 2)).unwrap();
        let service = JobService::new(
            store,
            ServiceConfig { round_keys: 8192, retune: true, ..ServiceConfig::default() },
        );
        let fleet = plan_fleet(&small_net(), HashAlgo::Md5, service.telemetry());
        let rounds = service.run_until_idle(&fleet).unwrap();
        assert!(rounds >= 1);
        for (id, word) in [(a.id, &b"cat"[..]), (b.id, b"zzz")] {
            let rec = service.store().load(id).unwrap();
            assert_eq!(rec.state, JobState::Completed);
            assert_eq!(rec.tested, SPACE, "live-weight leases keep exactly-once for {id}");
            assert!(rec.hits.iter().any(|h| h.key == word), "{id} found its key");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn leave_that_would_empty_the_fleet_is_refused() {
        let telemetry = Telemetry::disabled();
        let net = ClusterNode::device_node("A", vec![Device::geforce_gtx_660()], 1e-3);
        let mut fleet = plan_fleet(&net, HashAlgo::Md5, &telemetry);
        assert_eq!(fleet.len(), 1);
        let label = fleet.labels()[0].to_string();
        assert!(!fleet.leave(&label), "last member must stay");
        assert_eq!(fleet.len(), 1);
        // Nor may the threads of the only worker all leave at once.
        let net = ClusterNode::device_node("A", vec![], 1e-3).with_cpu("cpu0", 2);
        let mut fleet = plan_fleet(&net, HashAlgo::Md5, &telemetry);
        let label = fleet.labels()[0].to_string();
        assert!(!fleet.leave(&label), "the only worker must stay");
        assert_eq!(fleet.len(), 2);
    }
}
