//! Seeded property tests of the multi-tenant job service: exactly-once
//! coverage across checkpoint/restore at arbitrary interleaving points,
//! fair-share division between equal-priority tenants, and exact
//! reconciliation of the per-job telemetry dimension against the shared
//! per-worker counters.
//!
//! Uses the offline property harness `eks::core::prop` (the workspace
//! builds without registry access, so `proptest` is unavailable).

// Indexing below is over coverage arrays sized by construction; the
// workspace `clippy::indexing_slicing` escalation guards new code, not
// these proven accesses.
#![allow(clippy::indexing_slicing)]

use std::path::PathBuf;

use eks::cluster::{plan_fleet, ClusterNode};
use eks::core::prop::forall;
use eks::cracker::{cpu_backend, Lanes};
use eks::engine::checkpoint::SearchCheckpoint;
use eks::gpusim::device::Device;
use eks::hashes::HashAlgo;
use eks::jobs::{Fleet, FleetMember, JobService, JobSpec, JobState, JobStore, ServiceConfig};
use eks::keyspace::{Interval, Order};
use eks::telemetry::{names, parse_prometheus, Telemetry};

/// Checkpoint/restore at arbitrary interleaving points never rescans
/// and never skips a key.
///
/// The model mirrors the service's protocol exactly: leases are taken
/// from the frontier, a completed lease advances coverage, a lost lease
/// (worker death) is requeued, and at random *lease boundaries* the
/// whole state round-trips through the schema-stamped JSON form — a
/// simulated process kill + restart. Every key must be credited exactly
/// once when the frontier drains, whatever the interleaving.
#[test]
fn restore_at_any_interleaving_point_is_exactly_once() {
    forall("checkpoint interleaving", 64, |rng| {
        let len = rng.range(1, 400) as u128;
        let start = rng.range(0, 1000) as u128;
        let full = Interval::new(start, len);
        let mut snap = SearchCheckpoint::fresh(full);
        // One scan-credit cell per key in the space.
        let mut credited = vec![0u32; len as usize];
        let mut credit = |iv: Interval| {
            for id in iv.start..iv.end() {
                credited[(id - start) as usize] += 1;
            }
        };
        let mut guard = 0;
        while !snap.frontier.is_complete() {
            guard += 1;
            assert!(guard < 10_000, "interleaving failed to converge");
            let lease_cap = rng.range(1, 64) as u128;
            let Some(lease) = snap.frontier.take_work(lease_cap) else { break };
            match rng.below(10) {
                // Most leases scan to completion and are credited in the
                // same step their coverage lands (the durability barrier).
                0..=6 => credit(lease),
                // A worker went silent: the lease is requeued untouched.
                7 | 8 => snap.frontier.requeue(lease),
                // SIGKILL mid-lease, *before* the checkpoint write: the
                // durable frontier never saw the take, so on restart the
                // lease is pending again. Model the restart by requeueing
                // (restoring the pre-take durable state), then crashing
                // through the JSON form.
                _ => {
                    snap.frontier.requeue(lease);
                    snap = SearchCheckpoint::from_json(&snap.to_json())
                        .expect("own serialization must re-load");
                }
            }
            // Occasionally kill + restart at a clean lease boundary.
            if rng.below(4) == 0 {
                snap = SearchCheckpoint::from_json(&snap.to_json())
                    .expect("own serialization must re-load");
            }
        }
        assert!(snap.frontier.is_complete());
        assert_eq!(snap.frontier.consumed(), len);
        for (i, count) in credited.iter().enumerate() {
            assert_eq!(*count, 1, "key {i} credited {count} times (must be exactly once)");
        }
    });
}

fn lowercase_spec(name: &str, word: &[u8], priority: u32) -> JobSpec {
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
    let dir = std::env::temp_dir().join(format!("eks-jobsched-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn two_worker_fleet() -> Fleet {
    Fleet::new(
        (0..2)
            .map(|i| FleetMember {
                label: format!("host/cpu{i} [lanes8]"),
                weight: 1.0,
                backend: cpu_backend(Lanes::L8),
            })
            .collect(),
    )
}

/// `eks job run --topology`: two jobs drain over a `plan_fleet`ed cluster
/// (a simulated GPU and a two-thread CPU worker) with exactly-once
/// coverage and both planted keys found, with and without retune (live
/// per-worker weights for every lease).
#[test]
fn jobs_drain_over_a_planned_cluster_fleet() {
    let net = ClusterNode::device_node("A", vec![Device::geforce_gtx_660()], 1e-3)
        .with_cpu("cpu0", 2);
    for retune in [false, true] {
        let dir = tmp_spool(&format!("cluster-{retune}"));
        let store = JobStore::open(&dir).unwrap();
        let a = store.submit(lowercase_spec("a", b"cat", 1)).unwrap();
        let b = store.submit(lowercase_spec("b", b"zzz", 2)).unwrap();
        let service = JobService::new(
            store,
            ServiceConfig { round_keys: 8192, retune, ..ServiceConfig::default() },
        );
        let fleet = plan_fleet(&net, HashAlgo::Md5, service.telemetry());
        let rounds = service.run_until_idle(&fleet).unwrap();
        assert!(rounds >= 2, "two jobs over {SPACE} keys need several rounds, got {rounds}");
        for (id, word) in [(a.id, &b"cat"[..]), (b.id, b"zzz")] {
            let rec = service.store().load(id).unwrap();
            assert_eq!(rec.state, JobState::Completed);
            assert_eq!(rec.tested, SPACE, "exactly-once coverage for {id} (retune {retune})");
            assert!(rec.hits.iter().any(|h| h.key == word), "{id} found its key");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Two equal-priority jobs each receive 50% ± 10% of the scanned keys
/// while both are runnable — the paper's scatter proportions applied at
/// the inter-job level with priorities as weights.
#[test]
fn equal_priority_jobs_split_the_scan_evenly() {
    let dir = tmp_spool("fairshare");
    let store = JobStore::open(&dir).unwrap();
    // Planted words are deliberately absent so neither job ends early.
    let a = store.submit(lowercase_spec("a", b"zzzz", 1)).unwrap();
    let b = store.submit(lowercase_spec("b", b"zzzz", 1)).unwrap();
    let service = JobService::new(
        store,
        ServiceConfig { round_keys: 4096, ..ServiceConfig::default() },
    );
    let fleet = two_worker_fleet();
    // Measure the shares over several rounds with both jobs mid-flight.
    let mut per_job = [0u128, 0u128];
    let mut total = 0u128;
    for _ in 0..3 {
        let report = service.round(&fleet).unwrap();
        assert!(!report.is_idle());
        for (id, lease) in &report.leases {
            let slot = if *id == a.id { 0 } else { 1 };
            per_job[slot] += lease.len;
            total += lease.len;
        }
    }
    assert!(total > 0);
    for (slot, id) in [(0, a.id), (1, b.id)] {
        let share = per_job[slot] as f64 / total as f64;
        assert!(
            (0.4..=0.6).contains(&share),
            "{id} received {share:.3} of the scan; equal priorities owe 50% ± 10%"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A priority-3 tenant outweighs a priority-1 tenant 3:1, the same
/// `N_j = N_max · X_j / X_max` proportion the paper's scatter uses for
/// device rates.
#[test]
fn priorities_weight_the_inter_job_scatter() {
    let dir = tmp_spool("priority");
    let store = JobStore::open(&dir).unwrap();
    let heavy = store.submit(lowercase_spec("heavy", b"zzzz", 3)).unwrap();
    let light = store.submit(lowercase_spec("light", b"zzzz", 1)).unwrap();
    let service = JobService::new(
        store,
        ServiceConfig { round_keys: 4096, ..ServiceConfig::default() },
    );
    let fleet = two_worker_fleet();
    let report = service.round(&fleet).unwrap();
    let sum = |id| {
        report
            .leases
            .iter()
            .filter(|(j, _)| *j == id)
            .map(|(_, iv)| iv.len)
            .sum::<u128>()
    };
    let (h, l) = (sum(heavy.id), sum(light.id));
    assert_eq!(h, 3 * l, "priority 3 vs 1 leases 3:1 ({h} vs {l})");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The per-job telemetry dimension reconciles *exactly* against the
/// shared per-worker counters: every key credited to a job label was
/// scanned by some worker label, and vice versa — two disjoint
/// partitions of one scan.
#[test]
fn per_job_totals_reconcile_exactly_with_worker_counters() {
    let dir = tmp_spool("reconcile");
    let store = JobStore::open(&dir).unwrap();
    let a = store.submit(lowercase_spec("a", b"cat", 1)).unwrap();
    let b = store.submit(lowercase_spec("b", b"dog", 2)).unwrap();
    let telemetry = Telemetry::enabled();
    let service = JobService::new(
        store,
        ServiceConfig { round_keys: 8192, ..ServiceConfig::default() },
    )
    .with_telemetry(telemetry.clone());
    let fleet = two_worker_fleet();
    service.run_until_idle(&fleet).unwrap();

    for id in [a.id, b.id] {
        let rec = service.store().load(id).unwrap();
        assert_eq!(rec.state, JobState::Completed);
        assert_eq!(rec.tested, SPACE, "exhaustive job covers its space exactly once");
    }

    let samples = parse_prometheus(&telemetry.render_prometheus()).unwrap();
    let total_for = |metric: &str| {
        samples
            .iter()
            .filter(|s| s.name == metric)
            .map(|s| s.value as u128)
            .sum::<u128>()
    };
    let per_job = total_for(names::JOB_KEYS_TESTED);
    let per_worker = total_for(names::KEYS_TESTED);
    assert_eq!(per_job, 2 * SPACE, "both keyspaces credited through the job dimension");
    assert_eq!(
        per_job, per_worker,
        "job-label and worker-label partitions of the same scan must reconcile exactly"
    );
    // Each job's own counter carries exactly its keyspace.
    for id in [a.id, b.id] {
        let label = id.to_string();
        let job_total = samples
            .iter()
            .filter(|s| {
                s.name == names::JOB_KEYS_TESTED
                    && s.labels.iter().any(|(k, v)| k == "job" && *v == label)
            })
            .map(|s| s.value as u128)
            .sum::<u128>();
        assert_eq!(job_total, SPACE, "{label}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill/restart through the spool: a service driven halfway and dropped
/// (the in-memory half of a SIGKILL), then re-opened over the same
/// directory, finishes both jobs with exactly-once coverage — no key
/// rescanned into the credit, none skipped.
#[test]
fn reopened_spool_resumes_without_rescans_or_skips() {
    let dir = tmp_spool("resume");
    let store = JobStore::open(&dir).unwrap();
    let a = store.submit(lowercase_spec("a", b"cat", 1)).unwrap();
    let b = store.submit(lowercase_spec("b", b"owl", 1)).unwrap();
    let fleet = two_worker_fleet();
    {
        let service = JobService::new(
            store,
            ServiceConfig { round_keys: 4096, ..ServiceConfig::default() },
        );
        // A few rounds, then the process "dies" (the service is dropped;
        // only the spool survives).
        for _ in 0..2 {
            service.round(&fleet).unwrap();
        }
        let mid = service.store().load(a.id).unwrap();
        assert!(mid.tested > 0 && mid.tested < SPACE, "killed mid-search");
    }
    let revived = JobService::new(
        JobStore::open(&dir).unwrap(),
        ServiceConfig { round_keys: 4096, ..ServiceConfig::default() },
    );
    revived.run_until_idle(&fleet).unwrap();
    for (id, word) in [(a.id, &b"cat"[..]), (b.id, b"owl")] {
        let rec = revived.store().load(id).unwrap();
        assert_eq!(rec.state, JobState::Completed);
        assert_eq!(rec.tested, SPACE, "{id}: exactly-once across the restart");
        assert!(rec.hits.iter().any(|h| h.key == word), "{id} found its key");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
