//! Property: telemetry totals reconcile *exactly* with the dispatcher's
//! accounting. The per-worker `eks_keys_tested_total` counters flow
//! live — `Dispatcher::scan_as` credits each merged chunk into its
//! worker's labelled counter the moment it lands — so for any
//! interleaving, including work stealing, where which worker tests
//! which chunk is nondeterministic, the registry total, the sum of
//! per-worker stats, and the report's `tested` must all be the same
//! number at every instant the run is quiescent. The sliding-window
//! plane diffs that same registry, so its per-window deltas must
//! telescope back to the identical totals even when a flusher thread
//! races the workers. The manual clock keeps every trace timestamp
//! deterministic while real threads race.

// Indexing/slicing below is over fixed-size state arrays or lengths
// established by construction; the workspace `clippy::indexing_slicing`
// escalation guards new code, not these proven accesses.
#![allow(clippy::indexing_slicing)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use eks::cluster::{
    plan_fleet, run_cluster, ClusterNode, ClusterOptions, FleetEvent, ScheduledFleetEvent,
    SimKernelBackend,
};
use eks::core::prop::{forall, Rng};
use eks::cracker::{
    crack_parallel_backend_observed, CpuBackend, ParallelConfig, ParallelReport, TargetSet,
};
use eks::engine::{Backend, Retune, SchedPolicy};
use eks::gpusim::device::Device;
use eks::hashes::HashAlgo;
use eks::jobs::FleetMember;
use eks::keyspace::{BlockSpace, Charset, Interval, KeySpace, MaskSpace, Order};
use eks::telemetry::{
    names, parse_prometheus, parse_trace_jsonl, ManualClock, Telemetry, WindowBook,
};

/// Sum of every `eks_keys_tested_total` sample (one per worker label),
/// read back through the exposition parser so the whole pipeline —
/// counter, render, parse — is under test.
fn keys_tested_total(telemetry: &Telemetry) -> u128 {
    let samples = parse_prometheus(&telemetry.render_prometheus()).expect("valid exposition");
    samples.iter().filter(|s| s.name == names::KEYS_TESTED).map(|s| s.value as u128).sum()
}

/// A target set that sometimes hits (a real key's digest) and sometimes
/// sweeps the whole space (an impossible digest).
fn random_targets(rng: &mut Rng) -> TargetSet {
    let words: [&[u8]; 5] = [b"cat", b"zz", b"qqq", b"abc", b"not-in-this-space"];
    let word = words[rng.index(words.len())];
    TargetSet::new(HashAlgo::Md5, &[HashAlgo::Md5.hash_long(word)])
}

/// The whole of `space` on the default CPU backend, batch path and
/// dispatcher reporting into one `telemetry`.
fn observed<S: BlockSpace + Sync>(
    space: &S,
    targets: &TargetSet,
    config: ParallelConfig,
    telemetry: &Telemetry,
) -> ParallelReport {
    let backend = CpuBackend::default().with_telemetry(telemetry.clone());
    let whole = Interval::new(0, space.size().expect("finite"));
    crack_parallel_backend_observed(space, targets, whole, &backend, config, telemetry, |_| {})
}

#[test]
fn parallel_steal_metrics_reconcile_exactly() {
    let space = KeySpace::new(Charset::lowercase(), 1, 3, Order::FirstCharFastest).unwrap();
    // The same plane for a structured space: 17 576 keys, `cat`/`qqq`/`abc` inside.
    let mask = MaskSpace::parse("?l?l?l").unwrap();
    forall("telemetry-reconcile-steal", 12, |rng| {
        let targets = random_targets(rng);
        let telemetry = Telemetry::with_clock(Arc::new(ManualClock::new()));
        let threads = rng.range(1, 4) as usize;
        let config = ParallelConfig {
            chunk: rng.range(64, 2048),
            first_hit_only: rng.u64() % 2 == 0,
            sched: SchedPolicy::Steal,
            ..ParallelConfig::for_threads(threads)
        };
        let report = if rng.u64() % 2 == 0 {
            observed(&space, &targets, config, &telemetry)
        } else {
            observed(&mask, &targets, config, &telemetry)
        };
        let per_worker: u128 = report.stats.iter().map(|w| w.tested).sum();
        assert_eq!(per_worker, report.tested, "stats sum to the report total");
        assert_eq!(
            keys_tested_total(&telemetry),
            report.tested,
            "registry total equals the dispatcher total"
        );
    });
}

/// `eks_prefilter_{hits,misses}_total` of one run, summed.
fn prefiltered_lanes(telemetry: &Telemetry) -> u128 {
    let samples = parse_prometheus(&telemetry.render_prometheus()).expect("valid exposition");
    samples
        .iter()
        .filter(|s| s.name == names::PREFILTER_HITS || s.name == names::PREFILTER_MISSES)
        .map(|s| s.value as u128)
        .sum()
}

/// The prefilter counters see every lane a batch tests, whichever branch
/// tested it: a single target takes the reversed kernels (MD5's 49 steps,
/// NTLM's 30) and several the forward hash and `prefilter_row`, so two
/// one-thread exhaustive searches of the same space in the same chunks
/// must report the same `hits + misses` — the lanes tested in batches.
#[test]
fn prefilter_counts_the_same_lanes_on_the_reversed_and_forward_paths() {
    let space = KeySpace::new(Charset::lowercase(), 1, 3, Order::FirstCharFastest).unwrap();
    let mask = MaskSpace::parse("?u?l?d").unwrap();
    let config = ParallelConfig { chunk: 1_000, first_hit_only: false, ..ParallelConfig::for_threads(1) };
    for algo in [HashAlgo::Md5, HashAlgo::Ntlm] {
        let one = TargetSet::new(algo, &[algo.hash(b"cat")]);
        let several = TargetSet::new(algo, &[algo.hash(b"cat"), algo.hash(b"Ab7"), algo.hash(b"zz")]);
        let lanes = |run: &dyn Fn(&TargetSet, &Telemetry) -> ParallelReport, targets: &TargetSet| {
            let telemetry = Telemetry::with_clock(Arc::new(ManualClock::new()));
            let report = run(targets, &telemetry);
            let lanes = prefiltered_lanes(&telemetry);
            assert!(lanes > 0 && lanes <= report.tested, "{algo:?}: {lanes} of {}", report.tested);
            lanes
        };
        let on_space = |t: &TargetSet, tel: &Telemetry| observed(&space, t, config, tel);
        let on_mask = |t: &TargetSet, tel: &Telemetry| observed(&mask, t, config, tel);
        assert_eq!(lanes(&on_space, &one), lanes(&on_space, &several), "{algo:?} key space");
        assert_eq!(lanes(&on_mask, &one), lanes(&on_mask, &several), "{algo:?} mask");
    }
}

/// The observability satellite: window deltas telescope. A flusher
/// thread races the steal-mode workers, snapshotting the registry at
/// arbitrary instants — mid-chunk, mid-steal, whenever the scheduler
/// happens to be between merges — and every flushed [`WindowBook`]
/// window holds the diff since the previous snapshot. No matter where
/// the cuts land, the per-window `eks_keys_tested_total` deltas summed
/// over all windows (plus one final flush for the tail) must equal the
/// registry total, the report total, and each worker's own stat. A
/// tiny ring capacity on purpose: dropped-from-the-ring windows are
/// collected from `flush`'s return value, proving the bounding never
/// corrupts the diffs.
#[test]
fn window_deltas_telescope_to_registry_totals_under_steal() {
    let space = KeySpace::new(Charset::lowercase(), 1, 3, Order::FirstCharFastest).unwrap();
    forall("telemetry-window-telescope", 8, |rng| {
        let targets = random_targets(rng);
        let clock = Arc::new(ManualClock::new());
        let telemetry = Telemetry::with_clock(clock.clone());
        let book = WindowBook::new(1_000_000, 4);
        let threads = rng.range(2, 4) as usize;
        let config = ParallelConfig {
            chunk: rng.range(64, 1024),
            first_hit_only: rng.u64() % 2 == 0,
            sched: SchedPolicy::Steal,
            ..ParallelConfig::for_threads(threads)
        };
        let done = AtomicBool::new(false);
        let (report, mut windows) = std::thread::scope(|s| {
            let flusher = s.spawn(|| {
                let mut flushed = Vec::new();
                while !done.load(Ordering::Relaxed) {
                    clock.advance(1_000_000);
                    flushed.push(book.flush(&telemetry));
                    std::thread::yield_now();
                }
                flushed
            });
            let report = observed(&space, &targets, config, &telemetry);
            done.store(true, Ordering::Relaxed);
            (report, flusher.join().expect("flusher thread"))
        });
        // One final flush catches whatever landed after the last cut.
        windows.push(book.flush(&telemetry));

        let windowed: u128 =
            windows.iter().map(|w| u128::from(w.counter_total(names::KEYS_TESTED))).sum();
        assert_eq!(windowed, report.tested, "window deltas telescope to the report total");
        assert_eq!(
            windowed,
            keys_tested_total(&telemetry),
            "window deltas telescope to the registry total"
        );
        for stat in &report.stats {
            let per_worker: u128 = windows
                .iter()
                .map(|w| u128::from(w.counter_delta(names::KEYS_TESTED, "worker", &stat.label)))
                .sum();
            assert_eq!(per_worker, stat.tested, "worker {} telescopes", stat.label);
        }
    });
}

/// The cluster driver's counters against its report: bounded rounds, a
/// stealing schedule, half the seeds with the closed loop on and half
/// with a GPU joining before round 1 and the two-thread CPU worker
/// leaving before round 2.
#[test]
fn cluster_round_metrics_reconcile_exactly() {
    let space = KeySpace::new(Charset::lowercase(), 1, 3, Order::FirstCharFastest).unwrap();
    let net = ClusterNode::device_node("box", vec![Device::geforce_gtx_660()], 0.0)
        .with_cpu("host-cpu", 2);
    forall("telemetry-reconcile-rounds", 4, |rng| {
        let targets = random_targets(rng);
        let telemetry = Telemetry::with_clock(Arc::new(ManualClock::new()));
        let fleet = plan_fleet(&net, HashAlgo::Md5, &telemetry);
        let cpu = fleet.labels()[1].to_string();
        let events = if rng.u64() % 2 == 0 {
            let gpu = SimKernelBackend::new(Device::geforce_gtx_550_ti());
            let member = FleetMember {
                label: "box/GeForce GTX 550 Ti [simgpu]".into(),
                weight: gpu.tuned_rate(HashAlgo::Md5),
                backend: Box::new(gpu),
            };
            vec![
                ScheduledFleetEvent { before_round: 1, event: FleetEvent::Join { member } },
                ScheduledFleetEvent { before_round: 2, event: FleetEvent::Leave { label: cpu } },
            ]
        } else {
            Vec::new()
        };
        let first_hit_only = rng.u64() % 2 == 0;
        // The telemetry reconciliation must hold with re-scatters in play
        // too.
        let retune = (rng.u64() % 2 == 0).then(Retune::default);
        let options = ClusterOptions {
            first_hit_only,
            sched: SchedPolicy::Steal,
            retune,
            round_keys: Some(rng.range(3_000, 12_000) as u128),
            events,
            telemetry: telemetry.clone(),
        };
        let r = run_cluster(fleet, &space, &targets, space.interval(), options);
        let per_device: u128 = r.stats.iter().map(|w| w.tested).sum();
        assert_eq!(per_device, r.tested, "per-device stats sum to the round total");
        assert_eq!(
            keys_tested_total(&telemetry),
            r.tested,
            "registry total equals the keys charged across rounds"
        );
        // The round and rebalance counters reconcile too.
        let samples = parse_prometheus(&telemetry.render_prometheus()).expect("valid exposition");
        let total = |name: &str| -> f64 {
            samples.iter().filter(|s| s.name == name).map(|s| s.value).sum()
        };
        assert_eq!(total(names::ROUNDS) as u64, r.rounds);
        assert_eq!(total(names::REBALANCES) as u64, r.rebalances);
        for gauge in [names::DEVICE_RATE_MKEYS, names::CLUSTER_EFFICIENCY_PCT] {
            assert!(samples.iter().any(|s| s.name == gauge), "{gauge} published");
        }
        let live_rates = samples.iter().any(|s| s.name == names::WORKER_RATE_EST);
        assert_eq!(live_rates, retune.is_some(), "live rate gauges exactly under retune");
        // Every applied membership change is a trace event; every round
        // has its scatter span, and the run one merge.
        let trace = parse_trace_jsonl(&telemetry.trace_jsonl()).expect("valid trace");
        let count = |name: &str| trace.iter().filter(|t| t.name == name).count() as u64;
        assert_eq!(count(names::EVENT_JOIN) + count(names::EVENT_LEAVE), r.rebalances);
        assert_eq!(count(names::SPAN_SCATTER), r.rounds);
        assert_eq!(count(names::SPAN_MERGE), 1);
    });
}
