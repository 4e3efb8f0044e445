//! Seeded property tests of the multi-tenant job service: exactly-once
//! coverage across checkpoint/restore at arbitrary interleaving points
//! and across a lease log cut at any byte, lifecycle transitions over an
//! unfolded log, hostile nesting depth in a record,
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
use eks::engine::Retune;
use eks::gpusim::device::Device;
use eks::hashes::HashAlgo;
use eks::jobs::service::FOLD_LINES;
use eks::jobs::{
    Fleet, FleetMember, JobError, JobId, JobService, JobSpec, JobState, JobStore, ServiceConfig,
};
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
            ServiceConfig { round_keys: 8192, retune: retune.then(Retune::default) },
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

/// A job over `abcdefgh`, lengths 1..=3, planted at `word`.
fn octal_spec(word: &[u8]) -> JobSpec {
    JobSpec {
        charset: b"abcdefgh".to_vec(),
        ..lowercase_spec("octal", word, 1)
    }
}

/// 8 + 8² + 8³.
const OCTAL: u128 = 8 + 64 + 512;

/// Keys per lease while a log is being built.
const LEASE: u128 = 32;

fn lease_service(dir: &std::path::Path, round_keys: u128) -> JobService {
    JobService::new(
        JobStore::open(dir).unwrap(),
        ServiceConfig { round_keys, ..ServiceConfig::default() },
    )
}

/// Drive one octal job through `1 + lines` rounds of one lease each and
/// drop the service: the first lease writes the `running` snapshot, the
/// rest leave `lines` unfolded lines in the job's lease log. Returns the
/// snapshot and log bytes.
fn job_with_unfolded_log(dir: &std::path::Path, lines: usize, fleet: &Fleet) -> (Vec<u8>, Vec<u8>) {
    let store = JobStore::open(dir).unwrap();
    store.submit(octal_spec(b"aab")).unwrap();
    let service = lease_service(dir, LEASE);
    for _ in 0..=lines {
        assert_eq!(service.round(fleet).unwrap().scanned, LEASE);
    }
    let snapshot = std::fs::read(dir.join("job-1.json")).unwrap();
    let log = std::fs::read(dir.join("job-1.log")).unwrap();
    assert_eq!(log.iter().filter(|&&b| b == b'\n').count(), lines);
    (snapshot, log)
}

/// hex("aab"), the planted key as the spool spells it.
const AAB_HEX: &str = "616162";

/// A SIGKILL can cut the lease log at any byte. Cut it at every offset:
/// loading never panics and credits exactly the complete lines (a torn
/// final line is ignored, its lease rescanned), and a resumed drain
/// covers the space exactly once with the planted hit recorded once.
#[test]
fn a_torn_lease_log_credits_exactly_its_complete_lines() {
    let dir = tmp_spool("torn");
    let fleet = two_worker_fleet();
    let (snapshot, log) = job_with_unfolded_log(&dir, 8, &fleet);
    let text = String::from_utf8(log.clone()).unwrap();
    let hit_line = text.lines().position(|l| l.contains(AAB_HEX)).expect("a logged hit");
    assert!(hit_line > 0 && hit_line < 7, "the hit sits mid-log");
    let id = JobId(1);
    for cut in 0..=log.len() {
        std::fs::write(dir.join("job-1.json"), &snapshot).unwrap();
        std::fs::write(dir.join("job-1.log"), &log[..cut]).unwrap();
        let kept = &text[..cut];
        let complete = kept.matches('\n').count() as u128;
        let hit_kept = kept.lines().take(complete as usize).any(|l| l.contains(AAB_HEX));
        let rec = JobStore::open(&dir).unwrap().load(id).unwrap();
        assert_eq!(rec.state, JobState::Running, "cut {cut}");
        assert_eq!(rec.tested, LEASE * (1 + complete), "cut {cut}: credit = complete lines");
        assert_eq!(rec.hits.len(), usize::from(hit_kept), "cut {cut}");

        // The resumed service appends after the cut: what it leaves must
        // read back at any moment, as after a second crash.
        let service = lease_service(&dir, 2 * LEASE);
        service.round(&fleet).unwrap();
        let rec = service.store().load(id).unwrap();
        assert_eq!(rec.tested, LEASE * (3 + complete), "cut {cut}: one more lease credited");
        service.run_until_idle(&fleet).unwrap();
        let rec = service.store().load(id).unwrap();
        assert_eq!(rec.state, JobState::Completed, "cut {cut}");
        assert_eq!(rec.tested, OCTAL, "cut {cut}: exactly-once coverage");
        assert_eq!(rec.hits.len(), 1, "cut {cut}: the hit is recorded exactly once");
        assert_eq!(rec.hits[0].key, b"aab");
    }

    // A crash between a snapshot's rename and the log's removal leaves
    // lines the snapshot already holds: replaying them changes nothing.
    std::fs::write(dir.join("job-1.json"), &snapshot).unwrap();
    std::fs::write(dir.join("job-1.log"), &log).unwrap();
    let store = JobStore::open(&dir).unwrap();
    let folded = store.load(id).unwrap();
    std::fs::write(dir.join("job-1.json"), folded.to_json() + "\n").unwrap();
    assert_eq!(store.load(id).unwrap(), folded);
    assert_eq!((folded.tested, folded.hits.len()), (9 * LEASE, 1));

    // A bad line that is not the last is corruption, named by the log.
    let mut lines: Vec<&str> = text.lines().collect();
    lines[2] = "{\"lease\":{\"start\":\"x\"}}";
    std::fs::write(dir.join("job-1.json"), &snapshot).unwrap();
    std::fs::write(dir.join("job-1.log"), lines.join("\n") + "\n").unwrap();
    match JobStore::open(&dir).unwrap().load(id) {
        Err(JobError::Corrupt { path, reason }) => {
            assert!(path.ends_with("job-1.log"), "{path}");
            assert!(reason.starts_with("line 3:"), "{reason}");
        }
        other => panic!("expected a corrupt log, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A record nested far deeper than any the store writes (here 200 000
/// `[`, past any thread's stack under a recursive parser) is `Corrupt`
/// naming the file, never a crash.
#[test]
fn deeply_nested_record_is_corrupt_not_a_crash() {
    let dir = tmp_spool("deep");
    let store = JobStore::open(&dir).unwrap();
    std::fs::write(dir.join("job-1.json"), "[".repeat(200_000)).unwrap();
    match store.load(JobId(1)) {
        Err(JobError::Corrupt { path, reason }) => {
            assert!(path.ends_with("job-1.json"), "{path}");
            assert!(reason.contains("nesting deeper than"), "{reason}");
        }
        other => panic!("expected a corrupt record, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seeded fuzz of the lease-log line parser through `JobStore::load`:
/// flipped, inserted, deleted and random bytes never panic, and what a
/// garbled log credits stays inside the job's space with hits bounded by
/// the log's length and the state untouched.
#[test]
fn garbled_lease_logs_never_panic() {
    let dir = tmp_spool("fuzz");
    let (snapshot, log) = job_with_unfolded_log(&dir, 6, &two_worker_fleet());
    let store = JobStore::open(&dir).unwrap();
    forall("lease log fuzz", 512, |rng| {
        let mut bytes = log.clone();
        for _ in 0..rng.range(1, 4) {
            let at = rng.index(bytes.len() + 1);
            match rng.below(5) {
                0 if at < bytes.len() => bytes[at] = rng.u32() as u8,
                1 => {
                    let n = rng.index(64);
                    let junk = rng.vec(n, |r| *r.pick(&b"{}[]\",:0123456789abcdefhilnrstk\n\xff"[..]));
                    bytes.splice(at..at, junk);
                }
                2 => {
                    let end = (at + rng.index(80)).min(bytes.len());
                    bytes.drain(at..end);
                }
                3 => {
                    let n = rng.index(512);
                    bytes = rng.vec(n, |r| r.u32() as u8);
                }
                _ => bytes.truncate(at),
            }
        }
        std::fs::write(dir.join("job-1.json"), &snapshot).unwrap();
        std::fs::write(dir.join("job-1.log"), &bytes).unwrap();
        if let Ok(rec) = store.load(JobId(1)) {
            assert_eq!(rec.state, JobState::Running);
            assert!(rec.tested >= LEASE && rec.tested <= OCTAL);
            assert!(rec.hits.len() <= bytes.len() / 16);
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pausing folds an unfolded lease log into a `paused` snapshot, with
/// the service stopped and between two rounds of a live service; the
/// service's held job list notices the pause (and a job submitted by
/// another handle) at its next round; a log line that lands after the
/// pause credits progress but never resurrects the job.
#[test]
fn pause_folds_the_lease_log_and_the_held_list_notices() {
    let fleet = two_worker_fleet();
    let id = JobId(1);

    // Service stopped.
    let dir = tmp_spool("pause-stopped");
    let (_, log) = job_with_unfolded_log(&dir, 5, &fleet);
    let hit = String::from_utf8(log).unwrap().contains(AAB_HEX);
    let paused = JobStore::open(&dir).unwrap().pause(id).unwrap();
    assert!(!dir.join("job-1.log").exists(), "the pause folded the log");
    let rec = JobStore::open(&dir).unwrap().load(id).unwrap();
    assert_eq!(rec, paused);
    assert_eq!((rec.state, rec.tested, rec.hits.len()), (JobState::Paused, 6 * LEASE, usize::from(hit)));
    let _ = std::fs::remove_dir_all(&dir);

    // Between two rounds of a live service.
    let dir = tmp_spool("pause-live");
    let cli = JobStore::open(&dir).unwrap();
    cli.submit(octal_spec(b"hhh")).unwrap();
    let service = lease_service(&dir, LEASE);
    for _ in 0..3 {
        service.round(&fleet).unwrap();
    }
    assert!(dir.join("job-1.log").exists());
    cli.pause(id).unwrap();
    assert!(service.round(&fleet).unwrap().is_idle(), "the held list saw the pause");
    let rec = cli.load(id).unwrap();
    assert_eq!((rec.state, rec.tested), (JobState::Paused, 3 * LEASE));
    assert!(!dir.join("job-1.log").exists());

    // A lease line appended after the pause credits, never resumes.
    std::fs::write(
        dir.join("job-1.log"),
        "{\"lease\":{\"start\":\"96\",\"len\":\"32\"},\"hits\":[]}\n",
    )
    .unwrap();
    let rec = cli.load(id).unwrap();
    assert_eq!((rec.state, rec.tested), (JobState::Paused, 4 * LEASE));

    // A job submitted mid-run is picked up at the next round.
    let late = cli.submit(octal_spec(b"hhh")).unwrap();
    let report = service.round(&fleet).unwrap();
    assert_eq!(report.leases.iter().map(|(j, _)| *j).collect::<Vec<_>>(), vec![late.id]);

    // Resumed, the paused job drains from its folded progress.
    cli.resume(id).unwrap();
    service.run_until_idle(&fleet).unwrap();
    for job in [id, late.id] {
        let rec = cli.load(job).unwrap();
        assert_eq!((rec.state, rec.tested, rec.hits.len()), (JobState::Completed, OCTAL, 1));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A long-running job's log never holds more than `FOLD_LINES` lines:
/// the next lease writes the snapshot, which folds it.
#[test]
fn lease_logs_fold_every_fold_lines_leases() {
    let dir = tmp_spool("fold");
    JobStore::open(&dir).unwrap().submit(octal_spec(b"hhh")).unwrap();
    let service = lease_service(&dir, 4);
    let fleet = two_worker_fleet();
    let mut longest = 0;
    while !service.round(&fleet).unwrap().is_idle() {
        let lines = std::fs::read(dir.join("job-1.log"))
            .map(|log| log.iter().filter(|&&b| b == b'\n').count())
            .unwrap_or(0);
        assert!(lines <= FOLD_LINES, "{lines} unfolded lines");
        longest = longest.max(lines);
    }
    assert_eq!(longest, FOLD_LINES, "{OCTAL} keys in 4-key leases fill the log once");
    let rec = service.store().load(JobId(1)).unwrap();
    assert_eq!((rec.state, rec.tested), (JobState::Completed, OCTAL));
    assert!(!dir.join("job-1.log").exists(), "completion folds the log");
    let _ = std::fs::remove_dir_all(&dir);
}
