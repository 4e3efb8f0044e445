//! The per-layer pass: each layer's public functions timed from outside,
//! in rounds with the yardstick between rounds, so that every number is
//! normalised the same way the end-to-end ones are.
//!
//! A layer is a crate. All operations here run on one thread, and so does
//! the yardstick next to them, unless the operation is itself "spawn
//! `threads` workers"; those form a group of their own with an
//! all-threads yardstick around it.

use std::hint::black_box;
use std::sync::atomic::AtomicBool;
use std::time::Instant;

use eks_cluster::{
    parse_topology, run_cluster_search, tune_device, AchievedModel, SimKernelBackend,
};
use eks_cracker::{
    cpu_backend, crack_parallel_backend, crack_parallel_backend_observed, crack_space_interval,
    crack_space_parallel, AutoBackend, Lanes, ParallelConfig, SimdBackend,
};
use eks_engine::{
    Backend, Checkpoint, ChunkPolicy, Dispatcher, IntervalDeques, ScanMode, SchedOptions,
    SchedPolicy, SearchCheckpoint, TargetSet, WorkerStats,
};
use eks_gpusim::device::DeviceCatalog;
use eks_hashes::{AutoVec, HashAlgo, LaneHasher, SimdHasher, SimdIsa};
use eks_jobs::{carve_budget, Fleet, FleetMember, JobRecord, JobService, JobStore, ServiceConfig};
use eks_kernels::Tool;
use eks_keyspace::{BlockBatch, BlockLayout, Interval, KeySpace, MaskSpace};
use eks_telemetry::Telemetry;

use crate::estimator::{self, timed, Paired};
use crate::run::child_numbers;
use crate::workloads::{
    autovec_fwd49, hitless_job, lowercase8, miss, nproc, wide_fwd49, widest_backend, Rng,
    TempSpool, HETERO_TOPOLOGY, MASK_THREADS,
};
use crate::wrappers::NoopBackend;
use crate::yard::{Reading, Yard};

/// One reported number of the per-layer pass.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    /// At reference machine speed for times; as counted otherwise.
    pub value: f64,
    pub unit: &'static str,
    /// The same quantity as the wall clock saw it, for times.
    pub raw: Option<f64>,
    /// Yardstick-paired repetitions behind a time; 0 for a count.
    pub samples: usize,
}

impl Metric {
    /// A metric that is not a time: no raw twin.
    pub fn count(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self {
            name,
            value,
            unit,
            raw: None,
            samples: 0,
        }
    }
}

/// What an operation is normalised by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Against {
    /// One-thread `yard.base`: baseline code on one thread.
    Base,
    /// One-thread `yard.wide`: the explicit-SIMD hash cores.
    Wide,
    /// All-threads `yard.base`: operations that spawn `threads` workers.
    Spawning,
}

/// One operation timed once per round.
struct Op<'a> {
    name: &'static str,
    unit: &'static str,
    /// Seconds per unit of work → `unit`.
    scale: f64,
    against: Against,
    /// Runs the operation once and returns the units of work it did.
    run: Box<dyn FnMut() -> f64 + 'a>,
    samples: Vec<(f64, f64)>,
}

impl<'a> Op<'a> {
    fn new(
        name: &'static str,
        unit: &'static str,
        against: Against,
        run: impl FnMut() -> f64 + 'a,
    ) -> Self {
        let scale = match unit {
            "ns" | "ns/key" => 1e9,
            "us" => 1e6,
            "ms" => 1e3,
            _ => 1.0,
        };
        Self {
            name,
            unit,
            scale,
            against,
            run: Box::new(run),
            samples: Vec::new(),
        }
    }
}

const SCAN_KEYS: u128 = 1 << 16;
const SLOW_SCAN_KEYS: u128 = 1 << 13;

/// Everything the operations borrow.
struct Fixtures {
    space: KeySpace,
    mask: MaskSpace,
    one_key_mask: MaskSpace,
    start: u128,
    md5_miss: TargetSet,
    sha1_miss: TargetSet,
    ntlm_miss: TargetSet,
    wide: Box<dyn Backend>,
    l8: Box<dyn Backend>,
    l16: Box<dyn Backend>,
    simgpu: SimKernelBackend,
    checkpoint: SearchCheckpoint,
    checkpoint_json: String,
    store: JobStore,
    record: JobRecord,
    record_json: String,
    noop_service: JobService,
    noop_fleet: Fleet,
    telemetry: Telemetry,
    _spools: [TempSpool; 2],
}

impl Fixtures {
    fn new(seed: u64, threads: usize) -> Self {
        let mut rng = Rng::new(seed);
        let space = lowercase8();
        let start = rng.below(space.size() - (1 << 24));

        // A mid-search checkpoint of the size `threads` workers produce.
        let full = Interval::new(0, 1 << 40);
        let mut frontier = Checkpoint::new(full);
        let done = frontier.take_work(1 << 30).expect("work pending");
        frontier.complete(done);
        let lease = frontier.take_work(1 << 20).expect("work pending");
        let deques = IntervalDeques::scatter(lease, &vec![1.0; threads]);
        let workers = (0..threads)
            .map(|i| WorkerStats {
                tested: 123_456 + i as u128,
                steals: 3,
                splits: 2,
                idle_ns: 1_000_000,
                busy_ns: 90_000_000,
                ..WorkerStats::new(format!("lanes8#{i}"))
            })
            .collect();
        let checkpoint = SearchCheckpoint::snapshot(frontier, &deques, workers);
        let checkpoint_json = checkpoint.to_json();

        // One spool for the store operations, one drained by a no-op
        // fleet: what is left of a round there is list + carve + dispatch
        // + save.
        let spools = [TempSpool::new("layer-store"), TempSpool::new("layer-noop")];
        let store = JobStore::open(spools[0].path()).expect("spool inside the benchmark directory");
        store
            .submit(hitless_job("bench-low", 1, rng.next()))
            .expect("valid spec");
        let mut record = store
            .submit(hitless_job("bench-high", 2, rng.next()))
            .expect("valid spec");
        let lease = record.frontier.take_work(1 << 16).expect("work pending");
        record.frontier.complete(lease);
        record.tested = record.frontier.consumed();
        let record_json = record.to_json();
        let noop_store =
            JobStore::open(spools[1].path()).expect("spool inside the benchmark directory");
        for (name, priority) in [("bench-low", 1), ("bench-high", 2)] {
            noop_store
                .submit(hitless_job(name, priority, rng.next()))
                .expect("valid spec");
        }
        let noop_fleet = Fleet::new(
            (0..threads)
                .map(|i| FleetMember {
                    label: format!("host/cpu{i} [noop]"),
                    weight: 1.0,
                    backend: Box::new(NoopBackend),
                })
                .collect(),
        );

        // A registry of the size one observed search leaves behind.
        let telemetry = Telemetry::enabled();
        crack_parallel_backend_observed(
            &space,
            &miss(HashAlgo::Md5),
            Interval::new(start, 1 << 18),
            &*cpu_backend(Lanes::L8),
            ParallelConfig {
                first_hit_only: false,
                ..ParallelConfig::for_threads(threads)
            },
            &telemetry,
            |_| {},
        );

        Self {
            mask: MaskSpace::parse("?u?l?l?d").expect("static mask"),
            one_key_mask: MaskSpace::parse("a").expect("static mask"),
            start,
            md5_miss: miss(HashAlgo::Md5),
            sha1_miss: miss(HashAlgo::Sha1),
            ntlm_miss: miss(HashAlgo::Ntlm),
            wide: widest_backend(),
            l8: cpu_backend(Lanes::L8),
            l16: cpu_backend(Lanes::L16),
            simgpu: SimKernelBackend::new(DeviceCatalog::find("660").expect("catalog device")),
            checkpoint,
            checkpoint_json,
            store,
            record,
            record_json,
            noop_service: JobService::new(noop_store, ServiceConfig::default()),
            noop_fleet,
            telemetry,
            space,
            _spools: spools,
        }
    }
}

/// What the widest hash kernels on this CPU are normalised by.
fn wide_class() -> Against {
    if SimdIsa::detect().is_some() {
        Against::Wide
    } else {
        Against::Base
    }
}

fn blocks_loop<const L: usize>(batches: u32, mut hash: impl FnMut(&[[u32; 16]; L]) -> u32) -> f64 {
    let mut blocks = [[0x8000_0000u32; 16]; L];
    let mut acc = 0u32;
    for b in 0..batches {
        for (l, block) in blocks.iter_mut().enumerate() {
            block[0] = b.wrapping_mul(L as u32).wrapping_add(l as u32);
        }
        acc ^= hash(black_box(&blocks));
    }
    black_box(acc);
    f64::from(batches) * L as f64
}

/// `md5_batch` (all 64 steps) on the widest explicit handle (portable
/// lanes when the CPU has none).
fn wide_md5(batches: u32) -> f64 {
    match SimdHasher::best() {
        #[cfg(target_arch = "x86_64")]
        Some(SimdHasher::Avx512(h)) => blocks_loop::<32>(batches, |b| h.md5_batch(b)[0][0]),
        #[cfg(target_arch = "x86_64")]
        Some(SimdHasher::Avx2(h)) => blocks_loop::<16>(batches, |b| h.md5_batch(b)[0][0]),
        #[cfg(target_arch = "aarch64")]
        Some(SimdHasher::Neon(h)) => blocks_loop::<8>(batches, |b| h.md5_batch(b)[0][0]),
        None => blocks_loop::<8>(batches, |b| LaneHasher::<8>::md5_batch(&AutoVec, b)[0][0]),
    }
}

fn scan(backend: &dyn Backend, f: &Fixtures, targets: &TargetSet, keys: u128) -> f64 {
    let stop = AtomicBool::new(false);
    let out = backend.scan(
        &f.space,
        targets,
        Interval::new(f.start, keys),
        &stop,
        ScanMode::Exhaustive,
    );
    black_box(out.tested) as f64
}

fn ops<'a>(f: &'a Fixtures, threads: usize) -> Vec<Op<'a>> {
    let wide = wide_class();
    let mut ops = Vec::new();

    // ---- keyspace
    ops.push(Op::new(
        "keyspace.fill_w0_ns_per_key",
        "ns/key",
        Against::Base,
        || {
            let mut w = BlockBatch::new(
                &f.space,
                BlockLayout::Md5Le,
                Interval::new(f.start, 1 << 15),
            );
            let mut w0s = [0u32; 32];
            let mut acc = 0u32;
            while w.remaining() >= 32 {
                let (info, template) = w.fill_w0s(&mut w0s);
                acc ^= w0s[31] ^ template[1] ^ info.epoch as u32;
            }
            black_box(acc);
            f64::from(1u32 << 15)
        },
    ));
    ops.push(Op::new(
        "keyspace.fill16_ns_per_key",
        "ns/key",
        Against::Base,
        || {
            let mut w = BlockBatch::new(
                &f.space,
                BlockLayout::ShaBe,
                Interval::new(f.start, 1 << 14),
            );
            let mut blocks = [[0u32; 16]; 16];
            let mut acc = 0u32;
            while w.remaining() >= 16 {
                w.fill(&mut blocks);
                acc ^= blocks[15][0] ^ blocks[7][1];
            }
            black_box(acc);
            f64::from(1u32 << 14)
        },
    ));
    ops.push(Op::new("keyspace.key_at_ns", "ns", Against::Base, || {
        let mut acc = 0u8;
        for i in 0..2048u128 {
            acc ^= f.space.key_at(black_box(f.start + i * 7_919)).as_bytes()[0];
        }
        black_box(acc);
        2048.0
    }));
    ops.push(Op::new(
        "keyspace.mask_advance_ns_per_key",
        "ns/key",
        Against::Base,
        || {
            let mut key = f.mask.key_at(0);
            for _ in 0..(1 << 14) {
                f.mask.advance_key(&mut key);
            }
            black_box(key.as_bytes()[3]);
            f64::from(1u32 << 14)
        },
    ));

    // ---- hashes
    ops.push(Op::new(
        "hashes.md5_fwd49_wide_ns_per_key",
        "ns/key",
        wide,
        || wide_fwd49(1 << 15),
    ));
    ops.push(Op::new(
        "hashes.md5_wide_ns_per_key",
        "ns/key",
        wide,
        || wide_md5(512),
    ));
    ops.push(Op::new(
        "hashes.sha1_l8_ns_per_key",
        "ns/key",
        Against::Base,
        || blocks_loop::<8>(256, |b| LaneHasher::<8>::sha1_a75_batch(&AutoVec, b)[0]),
    ));
    ops.push(Op::new(
        "hashes.md5_l16_ns_per_key",
        "ns/key",
        Against::Base,
        || autovec_fwd49::<16>(1 << 12),
    ));
    ops.push(Op::new(
        "hashes.ntlm_scalar_ns_per_key",
        "ns/key",
        Against::Base,
        || {
            let mut key = f.mask.key_at(0);
            let mut acc = 0u8;
            for _ in 0..1024 {
                acc ^= HashAlgo::Ntlm.hash_long(black_box(key.as_bytes()))[0];
                f.mask.advance_key(&mut key);
            }
            black_box(acc);
            1024.0
        },
    ));

    // ---- cracker: whole scans, one thread
    ops.push(Op::new(
        "cracker.scan_simd_md5_ns_per_key",
        "ns/key",
        Against::Base,
        || scan(&*f.wide, f, &f.md5_miss, SCAN_KEYS),
    ));
    ops.push(Op::new(
        "cracker.scan_l8_sha1_ns_per_key",
        "ns/key",
        Against::Base,
        || scan(&*f.l8, f, &f.sha1_miss, SLOW_SCAN_KEYS),
    ));
    ops.push(Op::new(
        "cracker.scan_l16_md5_ns_per_key",
        "ns/key",
        Against::Base,
        || scan(&*f.l16, f, &f.md5_miss, SLOW_SCAN_KEYS * 2),
    ));
    ops.push(Op::new(
        "cracker.generic_ntlm_ns_per_key",
        "ns/key",
        Against::Base,
        || {
            let stop = AtomicBool::new(false);
            let out = crack_space_interval(&f.mask, &f.ntlm_miss, 0, 1 << 12, &stop, false);
            black_box(out.tested) as f64
        },
    ));
    ops.push(Op::new(
        "cracker.generic_fixed_us",
        "us",
        Against::Base,
        || {
            let config = ParallelConfig {
                // As `crack_mask_ntlm` runs it.
                threads: MASK_THREADS,
                chunk: 1 << 12,
                first_hit_only: false,
                ..ParallelConfig::default()
            };
            black_box(crack_space_parallel(&f.one_key_mask, &f.ntlm_miss, config).tested);
            1.0
        },
    ));

    // ---- engine
    // 4096 no-op chunks per run: what remains is pop + poll + merge per
    // chunk, plus one spawn/merge that `engine.search_fixed_us` subtracts.
    ops.push(Op::new(
        "engine.noop_queue_run_us",
        "us",
        Against::Spawning,
        move || {
            let d = Dispatcher::new(&f.space, &f.md5_miss, ScanMode::Exhaustive);
            d.run_queue(
                &NoopBackend,
                Interval::new(f.start, NOOP_CHUNKS * 4096),
                threads,
                4096,
            );
            black_box(d.finish().tested);
            1.0
        },
    ));
    ops.push(Op::new(
        "engine.search_fixed_us",
        "us",
        Against::Spawning,
        move || {
            let d = Dispatcher::new(&f.space, &f.md5_miss, ScanMode::Exhaustive);
            let opts = SchedOptions::for_policy(SchedPolicy::Steal, 1 << 16);
            d.run_workers_opts(&NoopBackend, Interval::new(f.start, 0), threads, opts);
            black_box(d.finish().tested);
            1.0
        },
    ));
    ops.push(Op::new(
        "engine.scatter_ns",
        "ns",
        Against::Base,
        move || {
            let weights = vec![1.0; threads];
            for i in 0..256u128 {
                black_box(IntervalDeques::scatter(
                    Interval::new(i, 1 << 40),
                    black_box(&weights),
                ));
            }
            256.0
        },
    ));
    ops.push(Op::new("engine.steal_ns", "ns", Against::Base, || {
        // Slot 1 steals half of slot 0, then drains itself with one pop.
        let deques =
            IntervalDeques::assign(vec![Interval::new(0, u128::MAX >> 1), Interval::new(0, 0)]);
        for _ in 0..64 {
            black_box(deques.try_steal(1));
            black_box(deques.pop(1, ChunkPolicy::Fixed(u128::MAX)));
        }
        64.0
    }));
    ops.push(Op::new(
        "engine.checkpoint_to_json_us",
        "us",
        Against::Base,
        || {
            for _ in 0..64 {
                black_box(black_box(&f.checkpoint).to_json());
            }
            64.0
        },
    ));
    ops.push(Op::new(
        "engine.checkpoint_from_json_us",
        "us",
        Against::Base,
        || {
            for _ in 0..64 {
                black_box(SearchCheckpoint::from_json(black_box(&f.checkpoint_json)).is_ok());
            }
            64.0
        },
    ));

    // ---- cluster
    let root = parse_topology(HETERO_TOPOLOGY, 0.0).expect("static topology");
    ops.push(Op::new(
        "cluster.search_fixed_us",
        "us",
        Against::Spawning,
        move || {
            let r = run_cluster_search(
                &root,
                &f.space,
                &f.md5_miss,
                Interval::new(f.start, 2),
                false,
            );
            black_box(r.tested);
            1.0
        },
    ));
    ops.push(Op::new(
        "cluster.simgpu_scan_ns_per_key",
        "ns/key",
        Against::Base,
        || scan(&f.simgpu, f, &f.md5_miss, SLOW_SCAN_KEYS * 2),
    ));

    // ---- jobs
    ops.push(Op::new(
        "jobs.round_fixed_us",
        "us",
        Against::Spawning,
        || {
            black_box(
                f.noop_service
                    .round(&f.noop_fleet)
                    .map(|r| r.scanned)
                    .unwrap_or(0),
            );
            1.0
        },
    ));
    ops.push(Op::new("jobs.store_save_us", "us", Against::Base, || {
        for _ in 0..8 {
            black_box(f.store.save(&f.record).is_ok());
        }
        8.0
    }));
    ops.push(Op::new("jobs.store_list_us", "us", Against::Base, || {
        for _ in 0..8 {
            black_box(f.store.list().map(|l| l.len()).unwrap_or(0));
        }
        8.0
    }));
    ops.push(Op::new(
        "jobs.record_to_json_us",
        "us",
        Against::Base,
        || {
            for _ in 0..64 {
                black_box(black_box(&f.record).to_json());
            }
            64.0
        },
    ));
    ops.push(Op::new(
        "jobs.record_from_json_us",
        "us",
        Against::Base,
        || {
            for _ in 0..64 {
                black_box(JobRecord::from_json(black_box(&f.record_json)).is_ok());
            }
            64.0
        },
    ));
    ops.push(Op::new("jobs.carve_budget_ns", "ns", Against::Base, || {
        let jobs = [(1u32, u128::MAX >> 1), (2, u128::MAX >> 1)];
        for i in 0..1024u128 {
            black_box(carve_budget(black_box((1 << 16) + i), &jobs));
        }
        1024.0
    }));

    // ---- telemetry
    let counter = f.telemetry.counter("bench_layer_counter_total", &[]);
    ops.push(Op::new(
        "telemetry.counter_add_ns",
        "ns",
        Against::Base,
        move || {
            for i in 0..(1u64 << 15) {
                counter.add(black_box(i & 1));
            }
            f64::from(1u32 << 15)
        },
    ));
    ops.push(Op::new("telemetry.span_ns", "ns", Against::Base, || {
        for _ in 0..2048 {
            f.telemetry.span("bench_layer_span").finish();
        }
        2048.0
    }));
    ops.push(Op::new(
        "telemetry.render_prometheus_us",
        "us",
        Against::Base,
        || {
            for _ in 0..4 {
                black_box(f.telemetry.render_prometheus().len());
            }
            4.0
        },
    ));
    ops
}

const NOOP_CHUNKS: u128 = 4096;

/// Run every operation once per round for `seconds`, then reduce each
/// operation's samples to a metric. A round is the one-thread operations
/// between two one-thread readings of both yardstick variants, then the
/// spawning operations between two all-threads runs of `yard.base`.
fn timed_rounds(ops: &mut [Op<'_>], seconds: f64, threads: usize) -> Vec<Metric> {
    // Per round: the reading before and after each of the two groups.
    let mut single = Vec::new();
    let mut spawning = Vec::new();
    let run_group = |ops: &mut [Op<'_>], want_spawning: bool| {
        for op in ops.iter_mut() {
            if (op.against == Against::Spawning) == want_spawning {
                let mut work = 0.0;
                let t = timed(|| work = (op.run)());
                op.samples.push((t, work));
            }
        }
    };
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let before = Reading::take(1);
        run_group(ops, false);
        single.push((before, Reading::take(1)));
        let before = Yard::Base.run(threads);
        run_group(ops, true);
        spawning.push((before, Yard::Base.run(threads)));
    }
    ops.iter()
        .map(|op| {
            let slowness = |round: usize| match op.against {
                Against::Base => (single[round].0.slowness(0.0), single[round].1.slowness(0.0)),
                Against::Wide => (single[round].0.slowness(1.0), single[round].1.slowness(1.0)),
                Against::Spawning => (
                    Yard::Base.slowness(spawning[round].0),
                    Yard::Base.slowness(spawning[round].1),
                ),
            };
            let paired: Vec<Paired> = op
                .samples
                .iter()
                .enumerate()
                .map(|(round, &(t, work))| {
                    let (y_before, y_after) = slowness(round);
                    Paired {
                        t,
                        work,
                        y_before,
                        y_after,
                    }
                })
                .collect();
            Metric {
                name: op.name,
                value: estimator::median_ratio(&paired) * op.scale,
                unit: op.unit,
                raw: Some(estimator::raw_s_per_unit(&paired) * op.scale),
                samples: paired.len(),
            }
        })
        .collect()
}

/// The value of the metric called `name`; not finite when it is missing.
pub fn value_of(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(f64::NAN, |m| m.value)
}

fn get_raw(metrics: &[Metric], name: &str) -> Option<f64> {
    metrics.iter().find(|m| m.name == name).and_then(|m| m.raw)
}

/// Metrics computed from timed ones: `f` gets a look-up by name and is
/// applied once to the normalised and once to the raw values.
fn derive(
    metrics: &mut Vec<Metric>,
    name: &'static str,
    unit: &'static str,
    f: impl Fn(&dyn Fn(&str) -> f64) -> f64,
) {
    let value = f(&|n| value_of(metrics, n));
    let raw = f(&|n| get_raw(metrics, n).unwrap_or(f64::NAN));
    // Every timed operation runs once per round.
    let samples = metrics.first().map_or(0, |m| m.samples);
    metrics.push(Metric {
        name,
        value,
        unit,
        raw: Some(raw),
        samples,
    });
}

fn derived(metrics: &mut Vec<Metric>) {
    // scan − fill − hash = prefilter + compare + loop.
    for (name, whole, fill, hash) in [
        (
            "cracker.scan_simd_md5.scan_self_ns_per_key",
            "cracker.scan_simd_md5_ns_per_key",
            "keyspace.fill_w0_ns_per_key",
            "hashes.md5_fwd49_wide_ns_per_key",
        ),
        (
            "cracker.scan_l8_sha1.scan_self_ns_per_key",
            "cracker.scan_l8_sha1_ns_per_key",
            "keyspace.fill16_ns_per_key",
            "hashes.sha1_l8_ns_per_key",
        ),
        (
            "cracker.scan_l16_md5.scan_self_ns_per_key",
            "cracker.scan_l16_md5_ns_per_key",
            "keyspace.fill_w0_ns_per_key",
            "hashes.md5_l16_ns_per_key",
        ),
        (
            "cracker.generic_ntlm.scan_self_ns_per_key",
            "cracker.generic_ntlm_ns_per_key",
            "keyspace.mask_advance_ns_per_key",
            "hashes.ntlm_scalar_ns_per_key",
        ),
    ] {
        derive(metrics, name, "ns/key", |m| m(whole) - m(fill) - m(hash));
    }
    derive(metrics, "engine.chunk_overhead_ns", "ns", |m| {
        (m("engine.noop_queue_run_us") - m("engine.search_fixed_us")) * 1e3 / NOOP_CHUNKS as f64
    });
    metrics.retain(|m| m.name != "engine.noop_queue_run_us");
}

/// Median over adjacent A/B pairs of `t_a / t_b`: the alternation is the
/// normalisation, no yardstick needed.
fn paired_time_ratio(pairs: usize, mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> f64 {
    let mut ratios = Vec::with_capacity(pairs);
    for i in 0..pairs {
        // Alternate which side goes first.
        let (ta, tb) = if i % 2 == 0 {
            let ta = a();
            (ta, b())
        } else {
            let tb = b();
            (a(), tb)
        };
        ratios.push(ta / tb);
    }
    estimator::median(&ratios)
}

/// Comparisons of two whole searches, alternated.
fn paired_searches(f: &Fixtures, threads: usize, pairs: usize, out: &mut Vec<Metric>) {
    const KEYS: u128 = 1 << 20;
    let interval = Interval::new(f.start, KEYS);
    let config = |threads| ParallelConfig {
        first_hit_only: false,
        ..ParallelConfig::for_threads(threads)
    };
    let on = Telemetry::enabled();
    let off = Telemetry::disabled();
    let observed = |telemetry: &Telemetry| {
        timed(|| {
            let r = crack_parallel_backend_observed(
                &f.space,
                &f.md5_miss,
                interval,
                &*f.wide,
                config(threads),
                telemetry,
                |_| {},
            );
            black_box(r.tested);
        })
    };
    let tax = paired_time_ratio(pairs, || observed(&on), || observed(&off));
    out.push(Metric {
        samples: pairs,
        ..Metric::count("telemetry.tax_pct", (tax - 1.0) * 100.0, "%")
    });

    // Speed-up of `threads` workers over one, per worker: through the
    // dispatcher, and through the generic loop's shared cursor (one whole
    // mask search, as `crack_mask_ntlm` runs it on one thread).
    let dispatched = |threads| {
        timed(|| {
            let r =
                crack_parallel_backend(&f.space, &f.md5_miss, interval, &*f.wide, config(threads));
            black_box(r.tested);
        })
    };
    let generic = |threads| {
        let config = ParallelConfig {
            threads,
            chunk: 1 << 12,
            first_hit_only: false,
            ..ParallelConfig::default()
        };
        timed(|| {
            black_box(crack_space_parallel(&f.mask, &f.ntlm_miss, config).tested);
        })
    };
    for (name, pairs, run) in [
        (
            "engine.scaling_eff",
            pairs,
            &dispatched as &dyn Fn(usize) -> f64,
        ),
        ("cracker.generic_scaling_eff", pairs / 2 + 1, &generic),
    ] {
        if threads == 1 {
            // One thread against one thread: 1 by definition, not measured.
            out.push(Metric::count(name, 1.0, "share"));
        } else {
            let speedup = paired_time_ratio(pairs, || run(1), || run(threads));
            out.push(Metric {
                samples: pairs,
                ..Metric::count(name, speedup / threads as f64, "share")
            });
        }
    }
}

/// Rate of the auto-tuned backend's pick over the best explicit backend,
/// worst of the three algorithms (ROADMAP finding (b): 1 means the tuning
/// race picks the fastest implementation).
fn auto_vs_best(f: &Fixtures, reps: usize) -> f64 {
    let mut worst = f64::INFINITY;
    for (algo, targets) in [
        (HashAlgo::Md5, &f.md5_miss),
        (HashAlgo::Sha1, &f.sha1_miss),
        (HashAlgo::Ntlm, &f.ntlm_miss),
    ] {
        let auto = AutoBackend::new(Telemetry::disabled());
        auto.tuned_rate(algo);
        let mut explicit: Vec<Box<dyn Backend>> =
            vec![cpu_backend(Lanes::L8), cpu_backend(Lanes::L16)];
        for isa in SimdIsa::ALL {
            if let Ok(b) = SimdBackend::new(isa) {
                explicit.push(Box::new(b));
            }
        }
        let mut t_auto = Vec::new();
        let mut t_explicit = vec![Vec::new(); explicit.len()];
        for _ in 0..reps {
            t_auto.push(timed(|| {
                scan(&auto, f, targets, SLOW_SCAN_KEYS * 2);
            }));
            for (b, ts) in explicit.iter().zip(&mut t_explicit) {
                ts.push(timed(|| {
                    scan(&**b, f, targets, SLOW_SCAN_KEYS * 2);
                }));
            }
        }
        let best = t_explicit
            .iter()
            .map(|ts| estimator::median(ts))
            .fold(f64::INFINITY, f64::min);
        worst = worst.min(best / estimator::median(&t_auto));
    }
    worst
}

/// The paper's 85–90 % figure for the `cluster_hetero` topology: busy
/// share of total worker time over one slice-sized static search.
fn cluster_busy_share(f: &Fixtures, reps: usize) -> f64 {
    let root = parse_topology(HETERO_TOPOLOGY, 0.0).expect("static topology");
    let shares: Vec<f64> = (0..reps)
        .map(|i| {
            let interval = Interval::new(f.start + i as u128 * (1 << 20), 3 << 17);
            run_cluster_search(&root, &f.space, &f.md5_miss, interval, false).parallel_efficiency()
                / 100.0
        })
        .collect();
    estimator::median(&shares)
}

/// Counts of what a `jobs_drain` round leaves behind.
fn jobs_counts(f: &Fixtures, out: &mut Vec<Metric>) {
    let round_keys = ServiceConfig::default().round_keys as f64;
    let report = f.noop_service.round(&f.noop_fleet).unwrap_or_default();
    let leases_per_mkey = report.leases.len() as f64 / (round_keys / 1e6);
    let record_bytes = f.record_json.len() as f64 + 1.0;
    out.push(Metric::count(
        "jobs.leases_per_mkey",
        leases_per_mkey,
        "1/Mkey",
    ));
    out.push(Metric::count("jobs.record_bytes", record_bytes, "B"));
    out.push(Metric::count(
        "jobs.spool_bytes_per_mkey",
        record_bytes * leases_per_mkey,
        "B/Mkey",
    ));
    out.push(Metric::count(
        "engine.checkpoint_bytes",
        f.checkpoint_json.len() as f64,
        "B",
    ));
}

/// What only a fresh process can measure: the first call of each lazily
/// cached tuning step. The child prints seconds per step between two
/// yardstick runs.
pub fn cold_child() -> bool {
    // Every step below runs on one thread, so the ruler does too.
    Yard::Base.run(1);
    let y_before = Yard::Base.run(1);
    let auto_tune = timed(|| {
        black_box(AutoBackend::new(Telemetry::disabled()).tuned_rate(HashAlgo::Md5));
    });
    let tune_cpu = timed(|| {
        black_box(eks_cluster::tuning::measure_cpu_mkeys(1, HashAlgo::Md5));
    });
    let device = DeviceCatalog::find("660").expect("catalog device");
    let tune_dev = timed(|| {
        black_box(tune_device(
            &device,
            Tool::OurApproach,
            HashAlgo::Md5,
            AchievedModel::Analytic,
        ));
    });
    // The first scan of a simulated GPU executes the kernel IR on sampled
    // candidates; three keys make the bulk sweep negligible.
    let space = lowercase8();
    let targets = miss(HashAlgo::Md5);
    let simgpu = SimKernelBackend::new(device.clone());
    let stop = AtomicBool::new(false);
    let ir_verify = timed(|| {
        black_box(simgpu.scan(
            &space,
            &targets,
            Interval::new(0, 3),
            &stop,
            ScanMode::Exhaustive,
        ));
    });
    let y_after = Yard::Base.run(1);
    println!("cold {auto_tune:e} {tune_cpu:e} {tune_dev:e} {ir_verify:e} {y_before:e} {y_after:e}");
    true
}

fn cold_metrics(children: usize, out: &mut Vec<Metric>) {
    const NAMES: [(&str, &str, f64); 4] = [
        ("cracker.auto_tune_ms", "ms", 1e3),
        ("cluster.tune_cpu_ms", "ms", 1e3),
        ("cluster.tune_device_us", "us", 1e6),
        ("gpusim.ir_verify_ms", "ms", 1e3),
    ];
    let mut norm = vec![Vec::new(); NAMES.len()];
    let mut raw = vec![Vec::new(); NAMES.len()];
    for _ in 0..children {
        if let Some(&[a, b, c, d, y0, y1]) = child_numbers(&["--cold-probe"], "cold ").as_deref() {
            let y = 0.5 * (y0 + y1);
            for (i, t) in [a, b, c, d].into_iter().enumerate() {
                norm[i].push(t / Yard::Base.slowness(y));
                raw[i].push(t);
            }
        }
    }
    for (i, (name, unit, scale)) in NAMES.into_iter().enumerate() {
        out.push(Metric {
            name,
            value: estimator::median(&norm[i]) * scale,
            unit,
            raw: Some(estimator::median(&raw[i]) * scale),
            samples: norm[i].len(),
        });
    }
}

/// The whole per-layer pass, sized to take about `seconds`.
pub fn layer_pass(seed: u64, seconds: f64) -> Vec<Metric> {
    let threads = nproc();
    let fixtures = Fixtures::new(seed, threads);
    let mut metrics = {
        let mut ops = ops(&fixtures, threads);
        timed_rounds(&mut ops, seconds * 0.70, threads)
    };
    derived(&mut metrics);
    // The rest is sized in repetitions: ≈ 30 % of a 9-second pass.
    let reps = ((seconds / 9.0 * 24.0) as usize).max(6);
    paired_searches(&fixtures, threads, reps, &mut metrics);
    metrics.push(Metric {
        samples: reps / 2 + 1,
        ..Metric::count(
            "cracker.auto_vs_best_ratio",
            auto_vs_best(&fixtures, reps / 2 + 1),
            "ratio",
        )
    });
    metrics.push(Metric {
        samples: reps / 3 + 1,
        ..Metric::count(
            "cluster.busy_share",
            cluster_busy_share(&fixtures, reps / 3 + 1),
            "share",
        )
    });
    jobs_counts(&fixtures, &mut metrics);
    cold_metrics(reps / 3 + 1, &mut metrics);
    metrics
}
