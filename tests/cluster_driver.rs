//! One seeded differential for the one round driver: every entry point
//! that runs a search through `Fleet::run_round`, against the scalar
//! oracle `crack_interval`.
//!
//! PAPER.md §III makes every search rounds of one scatter/gather step, so
//! every way of searching is a draw over {MD5, NTLM, SHA-1} ×
//! `SchedPolicy` × retune {off, a drift check after every chunk with a
//! 0 % threshold}:
//!
//! * `crack_parallel_backend_observed` over a charset range, a mask and a
//!   hybrid dictionary, on a drawn thread count and chunk size;
//! * `run_audit` over a table with a shared password and a survivor;
//! * `run_cluster` over a `plan_fleet`ed topology, one round or many (the
//!   last one ragged), with a member joining, leaving and re-joining at
//!   drawn rounds;
//! * `JobService` over the same planned fleet, an exhaustive job and a
//!   first-hit job, the service dropped and the spool re-opened at a
//!   drawn round;
//! * `mine`, whose test `C` is a difficulty over nonces rather than a
//!   digest set, over a drawn header, difficulty and nonce range, against
//!   a sequential scan of its own.
//!
//! Whatever is drawn, an exhaustive run finds exactly the oracle's hits
//! and tests every identifier exactly once, its per-worker rows summing to
//! `tested`, one row per label; a first-hit run over several digests
//! returns the lowest planted identifier, and over one digest a genuine
//! occurrence of the key; a job is credited exactly what its leases
//! scanned; mining returns the lowest passing nonce, having tested every
//! nonce below it.

// Indexing below is over vectors sized by the same expression that draws
// the index; the workspace `clippy::indexing_slicing` escalation guards
// product code.
#![allow(clippy::indexing_slicing)]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use eks::cluster::{
    paper_network, parse_topology, plan_fleet, run_cluster, run_cluster_search, ClusterNode,
    ClusterOptions, ClusterSearchResult, FleetEvent, ScheduledFleetEvent, SimKernelBackend,
};
use eks::core::prop::{forall, Rng};
use eks::cracker::{
    crack_interval, crack_parallel_backend_observed, mine, run_audit, AuditEntry, CpuBackend,
    MiningJob, ParallelConfig, TargetSet,
};
use eks::engine::{Backend, Retune, SchedPolicy};
use eks::gpusim::device::Device;
use eks::hashes::sha256::leading_zero_bits;
use eks::hashes::HashAlgo;
use eks::jobs::{FleetMember, JobService, JobSpec, JobState, JobStore, ServiceConfig};
use eks::keyspace::{
    BlockSpace, Charset, HybridSpace, Interval, Key, KeySpace, MaskSpace, Order, SolutionSpace,
};
use eks::telemetry::{names, parse_prometheus, Telemetry};

/// The member [`churn`] adds.
const JOINER: &str = "J/GeForce GTX 550 Ti [simgpu]";

/// The drawn knobs every entry point shares.
#[derive(Clone, Copy, Debug)]
struct Draw {
    algo: HashAlgo,
    sched: SchedPolicy,
    retune: Option<Retune>,
}

impl Draw {
    fn new(rng: &mut Rng) -> Self {
        Self {
            algo: [HashAlgo::Md5, HashAlgo::Ntlm, HashAlgo::Sha1][rng.index(3)],
            sched: SchedPolicy::ALL[rng.index(3)],
            retune: (rng.below(2) == 0).then_some(Retune { every_chunks: 1, drift_pct: 0 }),
        }
    }

    fn digest(&self, key: &Key) -> Vec<u8> {
        self.algo.hash(key.as_bytes())
    }

    /// A digest no key of the test spaces produces.
    fn miss(&self) -> Vec<u8> {
        vec![0xa5; self.algo.digest_len()]
    }
}

/// A drawn cluster: a single node (one GPU, or two CPU workers and no
/// GPU), a GPU beside a two-thread CPU worker, or the paper's five-GPU
/// network plus a two-thread CPU worker.
fn topology(rng: &mut Rng) -> ClusterNode {
    match rng.index(4) {
        0 => parse_topology("solo(660)", 0.0),
        1 => parse_topology("box(cpu:2, cpu:1)", 0.0),
        2 => parse_topology("A(660, cpu:2)", 0.0),
        _ => Ok(paper_network(0.0).with_cpu("host-cpu", 2)),
    }
    .expect("topology")
}

/// A simulated GPU member carrying `label`.
fn gpu_member(label: &str, algo: HashAlgo) -> FleetMember {
    let backend = SimKernelBackend::new(Device::geforce_gtx_550_ti());
    FleetMember { label: label.into(), weight: backend.tuned_rate(algo), backend: Box::new(backend) }
}

/// A new GPU joins, then one member (the newcomer or the first planned
/// device) leaves and later re-joins, each before a drawn round; rounds the
/// run never reaches simply never fire. Also returns the first round the
/// newcomer scans in: the one it joins before, or, when it leaves before
/// that same round, the one it re-joins before.
fn churn(rng: &mut Rng, first: &str, algo: HashAlgo) -> (Vec<ScheduledFleetEvent>, u64) {
    let leaver = if rng.below(2) == 0 { JOINER } else { first };
    let join = rng.range(0, 3);
    let leave = join + rng.range(0, 3);
    let rejoin = leave + rng.range(1, 3);
    let events = vec![
        ScheduledFleetEvent { before_round: join, event: FleetEvent::Join { member: gpu_member(JOINER, algo) } },
        ScheduledFleetEvent { before_round: leave, event: FleetEvent::Leave { label: leaver.into() } },
        ScheduledFleetEvent { before_round: rejoin, event: FleetEvent::Join { member: gpu_member(leaver, algo) } },
    ];
    (events, if leaver == JOINER && leave == join { rejoin } else { join })
}

/// A drawn interval of a space of `size` identifiers: from the start or
/// from inside the first half, to the end or short of it.
fn drawn_interval(rng: &mut Rng, size: u128) -> Interval {
    let start = if rng.below(2) == 0 { 0 } else { rng.range_u128(1, size / 2) };
    Interval::new(start, size - start - rng.range_u128(0, size / 4))
}

/// Two to four digests of keys at drawn identifiers of `interval`, plus
/// one no key produces.
fn plant<S>(rng: &mut Rng, draw: &Draw, space: &S, interval: Interval) -> (Vec<u128>, TargetSet)
where
    S: SolutionSpace<Solution = Key> + ?Sized,
{
    let planted: Vec<u128> =
        (0..rng.range(2, 4)).map(|_| rng.range_u128(interval.start, interval.end() - 1)).collect();
    let mut digests: Vec<Vec<u8>> = planted.iter().map(|&id| draw.digest(&space.generate(id))).collect();
    digests.push(draw.miss());
    (planted, TargetSet::new(draw.algo, &digests))
}

/// Labels sorted and deduplicated: as many as rows when every label has
/// exactly one row.
fn distinct(rows: &[(String, u128)]) -> usize {
    let mut labels: Vec<&str> = rows.iter().map(|(l, _)| l.as_str()).collect();
    labels.sort_unstable();
    labels.dedup();
    labels.len()
}

/// `crack_parallel_backend_observed` over `space`: exhaustive, then
/// first hit over several digests.
fn crack_matches<S>(rng: &mut Rng, draw: &Draw, space: &S, stop: &AtomicBool)
where
    S: BlockSpace + Sync,
    CpuBackend: Backend<S>,
{
    let interval = drawn_interval(rng, space.size().expect("finite space"));
    let (_, targets) = plant(rng, draw, space, interval);
    let oracle = crack_interval(space, &targets, interval, stop, false);
    let threads = rng.range(1, 4) as usize;
    let config = ParallelConfig {
        threads,
        chunk: [64, 1024][rng.index(2)],
        first_hit_only: false,
        sched: draw.sched,
        retune: draw.retune,
        ..ParallelConfig::for_threads(threads)
    };
    let case = format!("crack {draw:?} {threads} threads, chunk {}, {interval:?}", config.chunk);
    let backend = CpuBackend::default();
    let search = |config| {
        crack_parallel_backend_observed(space, &targets, interval, &backend, config, &Telemetry::disabled(), |_| {})
    };
    let all = search(config);
    assert_eq!(all.hits, oracle.hits, "exhaustive hits, {case}");
    assert_eq!(all.tested, interval.len, "exhaustive tested, {case}");
    assert_eq!(all.stats.iter().map(|w| w.tested).sum::<u128>(), all.tested, "{case}");
    let labels: Vec<String> = all.stats.iter().map(|w| w.label.clone()).collect();
    let want: Vec<String> = (0..threads).map(|i| format!("{}#{i}", Backend::<S>::name(&backend))).collect();
    assert_eq!(labels, want, "one row per thread, {case}");
    let first = search(ParallelConfig { first_hit_only: true, ..config });
    assert_eq!(first.hits, oracle.hits[..1], "lowest-id first hit, {case}");
    assert!(first.tested <= interval.len, "{case}");
}

/// `run_audit` over a table of two planted passwords (one shared by two
/// accounts) and a survivor: the audit never empties its target set, so
/// it sweeps the whole space.
fn audit_matches(rng: &mut Rng, draw: &Draw, space: &KeySpace, stop: &AtomicBool) {
    let size = space.size();
    let keys: Vec<Key> = (0..2).map(|_| space.key_at(rng.range_u128(0, size - 1))).collect();
    let entry = |account: &str, digest: Vec<u8>| AuditEntry { account: account.into(), digest };
    let table = vec![
        entry("alice", draw.digest(&keys[0])),
        entry("bob", draw.digest(&keys[1])),
        entry("carol", draw.digest(&keys[0])),
        entry("dave", draw.miss()),
    ];
    let report = run_audit(space, draw.algo, &table).expect("well-formed table");
    let case = format!("audit {draw:?}");
    assert_eq!(report.tested, size, "{case}");
    assert_eq!(report.survivors, ["dave"], "{case}");
    for f in &report.findings {
        let digest = &table.iter().find(|e| e.account == f.account).expect("audited account").digest;
        let targets = TargetSet::new(draw.algo, std::slice::from_ref(digest));
        let oracle = crack_interval(space, &targets, space.interval(), stop, true);
        assert_eq!((f.found_at_id, &f.password), (oracle.hits[0].0, &oracle.hits[0].1), "{case}");
    }
    assert_eq!(report.findings.len(), 3, "{case}");
}

/// What one drawn cluster run did, with the draws the checks depend on.
struct Run {
    result: ClusterSearchResult,
    round_keys: Option<u128>,
    /// The first round the newcomer scans in, if the run gets there.
    joiner_from: u64,
    case: String,
}

impl Run {
    /// Under bounded rounds a first-hit run stops after the round that
    /// holds `id`.
    fn stopped_by(&self, interval: Interval, id: u128) {
        if let Some(k) = self.round_keys {
            assert!(self.result.rounds as u128 <= (id - interval.start) / k + 1, "{}", self.case);
        }
    }
}

/// One drawn run of the cluster driver over a freshly planned fleet.
fn drawn_run(
    rng: &mut Rng,
    draw: &Draw,
    root: &ClusterNode,
    space: &KeySpace,
    targets: &TargetSet,
    interval: Interval,
    first_hit_only: bool,
) -> Run {
    let fleet = plan_fleet(root, draw.algo, &Telemetry::disabled());
    let (events, joiner_from) =
        if rng.below(2) == 0 { churn(rng, fleet.labels()[0], draw.algo) } else { (Vec::new(), u64::MAX) };
    let options = ClusterOptions {
        first_hit_only,
        sched: draw.sched,
        retune: draw.retune,
        round_keys: [None, Some(1_000), Some(4_097)][rng.index(3)],
        events,
        telemetry: Telemetry::disabled(),
    };
    let case = format!(
        "cluster {} {draw:?} rounds of {:?}, {} events, {interval:?}",
        root.name,
        options.round_keys,
        options.events.len()
    );
    let round_keys = options.round_keys;
    Run { result: run_cluster(fleet, space, targets, interval, options), round_keys, joiner_from, case }
}

/// `run_cluster`: exhaustive, first hit over several digests, first hit
/// over one.
fn cluster_matches(rng: &mut Rng, draw: &Draw, root: &ClusterNode, space: &KeySpace, stop: &AtomicBool) {
    let interval = drawn_interval(rng, space.size());
    let (planted, targets) = plant(rng, draw, space, interval);
    let oracle = crack_interval(space, &targets, interval, stop, false);
    let all = drawn_run(rng, draw, root, space, &targets, interval, false);
    let (r, case) = (&all.result, &all.case);
    assert_eq!(r.hits, oracle.hits, "exhaustive hits, {case}");
    assert_eq!(r.tested, interval.len, "exhaustive tested, {case}");
    assert_eq!(r.per_device.iter().map(|(_, n)| n).sum::<u128>(), r.tested, "{case}");
    let rounds = all.round_keys.map_or(1, |k| interval.len.div_ceil(k));
    assert_eq!(u128::from(r.rounds), rounds, "{case}");
    assert_eq!(r.stats.len(), r.per_device.len(), "{case}");
    assert_eq!(distinct(&r.per_device), r.per_device.len(), "one row per label, {case}");
    let labels: Vec<&str> = r.per_device.iter().map(|(l, _)| l.as_str()).collect();
    assert_eq!(labels.contains(&JOINER), r.rounds > all.joiner_from, "the newcomer's row, {case}");
    let steals: u64 = r.stats.iter().map(|w| w.steals).sum();
    assert_eq!(steals, r.stats.iter().map(|w| w.splits).sum::<u64>(), "{case}");
    assert!(draw.sched.steals() || steals == 0, "a static round never steals, {case}");

    let first = drawn_run(rng, draw, root, space, &targets, interval, true);
    let case = &first.case;
    assert_eq!(first.result.hits, oracle.hits[..1], "lowest-id first hit, {case}");
    assert!(first.result.tested <= interval.len, "{case}");
    first.stopped_by(interval, oracle.hits[0].0);

    let key = space.key_at(planted[0]);
    let one = TargetSet::new(draw.algo, &[draw.digest(&key)]);
    let single = drawn_run(rng, draw, root, space, &one, interval, true);
    let case = &single.case;
    assert_eq!(single.result.hits.len(), 1, "{case}");
    let (id, found, target) = &single.result.hits[0];
    assert_eq!((found, *target), (&key, 0), "{case}");
    assert_eq!(space.key_at(*id), key, "{case}");
    single.stopped_by(interval, planted[0]);
}

/// The `JobService` over a planned fleet: an exhaustive job and a
/// first-hit job, the service dropped after a drawn number of rounds and
/// the spool re-opened. Both finish with exactly the oracle's hits; the
/// exhaustive job is credited the whole space, the first-hit job exactly
/// what its leases scanned (its per-job counter).
fn jobs_match(rng: &mut Rng, draw: &Draw, root: &ClusterNode, stop: &AtomicBool) {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "eks-drivers-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let space = KeySpace::new(Charset::lowercase(), 1, 3, Order::FirstCharFastest).expect("space");
    let size = space.size();
    let spec = |name: &str, id: u128, first_hit_only: bool| JobSpec {
        name: name.into(),
        algo: draw.algo,
        digest: draw.digest(&space.key_at(id)),
        charset: Charset::lowercase().symbols().to_vec(),
        min_len: 1,
        max_len: 3,
        order: Order::FirstCharFastest,
        // Unequal priorities make the inter-job carve uneven.
        priority: 1 + u32::from(first_hit_only),
        first_hit_only,
    };
    let planted = [rng.range_u128(0, size - 1), rng.range_u128(0, size - 1)];
    let config = ServiceConfig { round_keys: [1_000, 4_097][rng.index(2)], retune: draw.retune };
    let reopen_at = rng.range(0, 6);
    let case = format!("jobs {} {draw:?} {config:?}, reopened after {reopen_at} rounds", root.name);

    let telemetry = Telemetry::enabled();
    let fleet = plan_fleet(root, draw.algo, &telemetry);
    let store = JobStore::open(&dir).expect("spool");
    let all = store.submit(spec("all", planted[0], false)).expect("spec").id;
    let first = store.submit(spec("first", planted[1], true)).expect("spec").id;
    {
        let service = JobService::new(store, config).with_telemetry(telemetry.clone());
        for _ in 0..reopen_at {
            service.round(&fleet).expect("round");
        }
    }
    let service = JobService::new(JobStore::open(&dir).expect("spool"), config)
        .with_telemetry(telemetry.clone());
    service.run_until_idle(&fleet).expect("drain");

    let samples = parse_prometheus(&telemetry.render_prometheus()).expect("exposition");
    let total = |name: &str, job: Option<String>| -> u128 {
        samples
            .iter()
            .filter(|s| s.name == name && job.as_deref().is_none_or(|j| s.label("job") == Some(j)))
            .map(|s| s.value as u128)
            .sum()
    };
    for (id, word_id) in [(all, planted[0]), (first, planted[1])] {
        let rec = service.store().load(id).expect("record");
        let targets = rec.spec.targets();
        let oracle = crack_interval(&space, &targets, space.interval(), stop, rec.spec.first_hit_only);
        let hits: Vec<(u128, &[u8])> = rec.hits.iter().map(|h| (h.id, h.key.as_slice())).collect();
        let want: Vec<(u128, &[u8])> = oracle.hits.iter().map(|(i, k, _)| (*i, k.as_bytes())).collect();
        assert_eq!(rec.state, JobState::Completed, "{id}, {case}");
        assert_eq!(hits, want, "{id} finds the key at {word_id}, {case}");
        assert_eq!(rec.tested, total(names::JOB_KEYS_TESTED, Some(id.to_string())), "{id}, {case}");
    }
    assert_eq!(service.store().load(all).expect("record").tested, size, "exactly once, {case}");
    assert_eq!(
        total(names::KEYS_TESTED, None),
        total(names::JOB_KEYS_TESTED, None),
        "worker rows sum to the jobs' credit, {case}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `mine` over a drawn header, difficulty (0–6), start and length (at most
/// 2¹² nonces, often a short range with no pass) on 1–4 threads: the
/// lowest passing nonce of a sequential scan, with its digest, every nonce
/// below it tested — or `None` when no nonce of the range passes.
fn mining_matches(rng: &mut Rng) {
    let header_len = rng.range(0, 80) as usize;
    let header = rng.vec(header_len, |r| r.below(256) as u8);
    let job = MiningJob { header, difficulty_bits: rng.range(0, 6) as u32 };
    let start = if rng.below(4) == 0 { u64::from(u32::MAX) - rng.below(64) } else { rng.below(1 << 32) };
    let longest = [64, 1 << 12][rng.index(2)];
    let len = rng.range(0, longest);
    let threads = rng.range(1, 4) as usize;
    let case = format!("mine {} bits, {threads} threads, {start}..+{len}", job.difficulty_bits);
    let passes = |n: &u32| leading_zero_bits(&job.digest(*n)) >= job.difficulty_bits;
    let want = (start..(start + len).min(1 << 32)).map(|n| n as u32).find(passes);
    let got = mine(&job, start..start + len, threads);
    assert_eq!(got.as_ref().map(|r| (r.nonce, r.digest)), want.map(|n| (n, job.digest(n))), "{case}");
    if let Some(r) = got {
        assert!(u64::from(r.nonce) - start < r.tested && r.tested <= len, "tested {}, {case}", r.tested);
    }
}

#[test]
fn every_driver_configuration_matches_the_oracle() {
    let stop = AtomicBool::new(false);
    let mask = MaskSpace::parse("?u?l?d").expect("mask");
    let words: [&[u8]; 4] = [b"cat", b"horse", b"a", b"winter"];
    let hybrid = HybridSpace::with_digit_suffixes(&words, 2).expect("hybrid");
    forall("every driver", 64, |rng| {
        let draw = Draw::new(rng);
        let order = [Order::FirstCharFastest, Order::LastCharFastest][rng.index(2)];
        let space = KeySpace::new(Charset::lowercase(), 1, 3, order).expect("space");
        let root = topology(rng);
        match rng.index(3) {
            0 => crack_matches(rng, &draw, &space, &stop),
            1 => crack_matches(rng, &draw, &mask, &stop),
            _ => crack_matches(rng, &draw, &hybrid, &stop),
        }
        cluster_matches(rng, &draw, &root, &space, &stop);
        jobs_match(rng, &draw, &root, &stop);
        if rng.below(4) == 0 {
            audit_matches(rng, &draw, &space, &stop);
        }
        mining_matches(rng);
    });
}

/// A static split by tuned rate hands the simulated GTX 660 nearly every
/// key, so the CPU leaf beside it drains early and waits: an efficiency
/// that counts the wait cannot read 100 %.
#[test]
fn static_scatter_efficiency_counts_the_idle_leaf() {
    let root = parse_topology("A(660, cpu:1)", 0.0).expect("topology");
    let space = KeySpace::new(Charset::lowercase(), 1, 4, Order::FirstCharFastest).expect("space");
    let miss = TargetSet::new(HashAlgo::Md5, &[vec![0xa5; 16]]);
    let r = run_cluster_search(&root, &space, &miss, space.interval(), false);
    assert_eq!(r.tested, space.size());
    let eff = r.parallel_efficiency();
    assert!(eff > 0.0 && eff < 75.0, "efficiency {eff:.1}% with an idle CPU leaf");
}
