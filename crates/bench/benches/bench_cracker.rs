//! The bench-trajectory artifact: cracking throughput (MKey/s) per
//! algorithm per thread count per [`BackendKind`] — `scalar`, `cpu` (the
//! detected explicit-SIMD kernel, else the portable cores) and the
//! simulated-GPU kernel backend — plus an ungated `portable8` /
//! `portable16` pair (the fallback's rate on a host that never runs it),
//! all driven through the one `Dispatcher` core via
//! `crack_parallel_backend`. The JSON artifact (schema 7) records the
//! detected CPU features and selected ISA, and per row the ISA the
//! backend's kernel actually ran on, so committed numbers carry their
//! hardware context; `default_vs_best` is, per algorithm, the rate of
//! the default backend (`CpuBackend::default()`) over the fastest
//! forced-ISA backend (`--min-default-vs-best` gates it: the tripwire
//! for a host where the widest ISA is not the fastest, and for a default
//! that silently runs the slow portable cores on a CPU that has better).
//! The `structured` object
//! holds the mask / hybrid searches of `crack_space_parallel` on one
//! thread — the scalar oracle (`Lanes::Scalar`) against the kernel the
//! default `Lanes` dispatches to, with its ISA — and
//! `--min-structured-speedup` gates the mask NTLM row where the CPU has
//! an explicit ISA. It also carries the
//! adaptive-vs-static skewed-fleet
//! scenario (`--min-adaptive-ratio` gates its efficiency ratio): a
//! deliberately misweighted two-backend fleet under the iterated-MD5
//! KDF where the closed-loop retune (live rate estimates, drift-check
//! re-scatters, steals) must recover the idle time the stale static
//! split leaves on the table.
//!
//! Run directly for a human-readable table, or with `--json <path>` to
//! also write a machine-readable artifact (the committed
//! `BENCH_cracker.json`); `ci.sh` runs the JSON mode and this binary
//! exits non-zero if any batched backend is slower than scalar at one
//! thread, or if the MD5 speedup falls below `--min-md5-speedup` — the
//! perf gate for the batched pipeline and the engine refactor. A third
//! gate, `--max-telemetry-overhead-pct`, bounds how much an enabled
//! telemetry registry may slow the batched MD5 hot path versus the
//! null handle (the observability layer samples at chunk granularity,
//! so the cost must stay in the noise).
//!
//! The sweeps use an impossible target (no hit, no early exit), so every
//! number is a pure full-scan throughput, best of three short runs.
//!
//! ## Thread scaling on a core-starved host
//!
//! The wall-clock rows measure real threads, which on a single-core CI
//! host cannot scale no matter how good the scheduler is. The `scaling`
//! rows therefore drive the steal scheduler through a deterministic
//! *virtual-core* loop (same methodology as the simulated GPU devices):
//! each worker keeps a virtual clock, the driver always advances the
//! worker whose clock is smallest, every popped chunk is scanned for
//! real and its measured nanoseconds added to that worker's clock, and
//! a steal charges a fixed cost. The makespan is the largest clock —
//! the schedule's critical path as if every worker had a dedicated
//! core — so `scaling = vt(2 workers) / vt(1 worker)` measures the
//! scheduler (scatter balance, steal latency, tail effects), not the
//! host's core count. `parallel_efficiency = scaling / workers` is the
//! paper's §VI efficiency figure for the simulated 2-worker cluster.

use std::fmt::Write as _;
use std::sync::atomic::AtomicBool;
use std::time::Instant;

use eks_cluster::SimKernelBackend;
use eks_cracker::batch::Lanes;
use eks_bench::pop_or_steal;
use eks_cracker::{
    cpu_backend, crack_parallel_backend_observed, crack_space_parallel, CpuBackend, Kernel,
    ParallelConfig, TargetSet,
};
use eks_telemetry::Telemetry;
use eks_engine::{
    eta_drift_pct, Backend, BackendKind, ChunkPolicy, IntervalDeques, RateBook, ScanMode,
};
use eks_gpusim::device::Device;
use eks_hashes::{cpu_features, HashAlgo, SimdIsa};
use eks_keyspace::{BlockSpace, Charset, HybridSpace, Interval, KeySpace, MaskSpace, Order};

/// Keys per timed sweep — small enough for CI, large enough to swamp
/// thread startup at the thread counts measured here.
const KEYS: u64 = 300_000;
/// Timed sweeps per configuration; the best is reported.
const BEST_OF: usize = 3;
/// Rounds and keys per sweep of a [`paired`] comparison (the
/// `default_vs_best` and telemetry-overhead gates): [`KEYS`] is 2 ms of
/// AVX-512 MD5, too short to hold a quotient of two sweeps within a few
/// percent.
const PAIRED_ROUNDS: usize = 9;
const PAIRED_KEYS: u64 = 8 * KEYS;
const ALGOS: [HashAlgo; 3] = [HashAlgo::Md5, HashAlgo::Sha1, HashAlgo::Ntlm];
const THREADS: [usize; 2] = [1, 2];

fn algo_name(algo: HashAlgo) -> &'static str {
    match algo {
        HashAlgo::Md5 => "md5",
        HashAlgo::Sha1 => "sha1",
        HashAlgo::Ntlm => "ntlm",
        // The KDF rows carry their iteration count; the sweep tables
        // here only cover the base algorithms.
        HashAlgo::Md5Iter { .. } => "md5-iterated",
    }
}

/// One concrete engine per [`BackendKind`]; the simulated GPU models the
/// paper's GTX 660 compute node.
fn backend_for(kind: BackendKind) -> Box<dyn Backend> {
    match kind {
        BackendKind::Scalar => cpu_backend(Lanes::Scalar),
        BackendKind::Cpu => Box::new(CpuBackend::default()),
        BackendKind::SimGpu => Box::new(SimKernelBackend::new(Device::geforce_gtx_660())),
    }
}

/// Throughput of one full sweep of `keys` keys on one backend, through
/// the observed entry point (a disabled handle makes it the plain one).
fn sweep(
    algo: HashAlgo,
    threads: usize,
    backend: &dyn Backend,
    keys: u64,
    telemetry: &Telemetry,
) -> f64 {
    let space =
        KeySpace::new(Charset::lowercase(), 1, 8, Order::FirstCharFastest).expect("space");
    let impossible = TargetSet::new(algo, &[vec![0u8; algo.digest_len()]]);
    let config =
        ParallelConfig { threads, first_hit_only: false, ..ParallelConfig::for_threads(threads) };
    let report = crack_parallel_backend_observed(
        &space,
        &impossible,
        Interval::new(0, u128::from(keys)),
        backend,
        config,
        telemetry,
        |_| {},
    );
    assert!(report.hits.is_empty(), "impossible target must not hit");
    report.mkeys_per_s
}

/// Best-of-N full-sweep throughput for one configuration.
fn measure(algo: HashAlgo, threads: usize, backend: &dyn Backend) -> f64 {
    let off = Telemetry::disabled();
    // One extra untimed sweep warms caches and thread pools.
    sweep(algo, threads, backend, KEYS, &off);
    (0..BEST_OF).map(|_| sweep(algo, threads, backend, KEYS, &off)).fold(0.0f64, f64::max)
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Compare two nearly-equal rates on a host whose speed drifts in phases
/// that outlast a sweep: `a` and `b` run back to back [`PAIRED_ROUNDS`]
/// times (after one untimed round) and each round yields one quotient,
/// so a slow phase stretches both sides of it. Returns the medians of
/// `a`, of `b` and of `a / b`.
fn paired(mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> (f64, f64, f64) {
    let (mut rates_a, mut rates_b, mut quotients) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..=PAIRED_ROUNDS {
        let (rate_a, rate_b) = (a(), b());
        if round > 0 {
            rates_a.push(rate_a);
            rates_b.push(rate_b);
            quotients.push(rate_a / rate_b);
        }
    }
    (median(rates_a), median(rates_b), median(quotients))
}

/// Rate of the default CPU backend over the fastest forced-ISA backend
/// at one thread, or `None` on a host without an explicit ISA.
fn default_vs_best(algo: HashAlgo) -> Option<f64> {
    let explicit: Vec<CpuBackend> =
        SimdIsa::ALL.into_iter().filter_map(|isa| CpuBackend::new(isa).ok()).collect();
    if explicit.is_empty() {
        return None;
    }
    let default = CpuBackend::default();
    let off = Telemetry::disabled();
    let (_, _, quotient) = paired(
        || sweep(algo, 1, &default, PAIRED_KEYS, &off),
        || {
            explicit
                .iter()
                .map(|backend| sweep(algo, 1, backend, PAIRED_KEYS, &off))
                .fold(0.0f64, f64::max)
        },
    );
    Some(quotient)
}

/// The mask of the `structured` rows (and of the end-to-end benchmark's
/// `crack_mask_ntlm` workload): 175 760 candidates whose stepping word,
/// `?u?l` first-position-fastest, is `w[0]` under every layout — so the
/// rows' single impossible target takes the reversed kernels under MD5
/// (49 steps) and NTLM (30 of MD4's 48).
const STRUCTURED_MASK: &str = "?u?l?l?d";
/// Passes over the space per timed batched sweep (the scalar side times
/// one): a pass of the mask is under 2 ms at kernel speed.
const STRUCTURED_BATCHED_PASSES: usize = 8;

/// One `structured` row: a whole one-thread `crack_space_parallel`
/// search with an impossible target, scalar oracle vs dispatched kernel.
struct StructuredRow {
    space: String,
    algo: &'static str,
    kernel: String,
    isa: &'static str,
    scalar_mkeys: f64,
    batched_mkeys: f64,
    speedup: f64,
}

fn structured_row<S: BlockSpace + Sync>(name: &str, space: &S, algo: HashAlgo) -> StructuredRow {
    let impossible = TargetSet::new(algo, &[vec![0u8; algo.digest_len()]]);
    // As `eks crack --mask … --all --threads 1` configures the search.
    let config = |lanes| ParallelConfig {
        threads: 1,
        chunk: 1 << 12,
        first_hit_only: false,
        lanes,
        ..ParallelConfig::default()
    };
    let rate = |lanes, passes: usize| {
        let t0 = Instant::now();
        let tested: u128 =
            (0..passes).map(|_| crack_space_parallel(space, &impossible, config(lanes)).tested).sum();
        tested as f64 / t0.elapsed().as_secs_f64() / 1e6
    };
    let (batched_mkeys, scalar_mkeys, speedup) = paired(
        || rate(Lanes::default(), STRUCTURED_BATCHED_PASSES),
        || rate(Lanes::Scalar, 1),
    );
    let kernel = Kernel::detect_for(Lanes::default(), algo);
    StructuredRow {
        space: name.to_string(),
        algo: algo_name(algo),
        kernel: kernel.name(),
        isa: kernel.isa(),
        scalar_mkeys,
        batched_mkeys,
        speedup,
    }
}

struct Row {
    algo: &'static str,
    threads: usize,
    backend: String,
    /// The ISA the backend's kernel ran on (`None` for simulated GPUs).
    isa: Option<String>,
    mkeys: f64,
}

/// Timed sweeps per scaling configuration.
const SCALING_BEST_OF: usize = 2;
/// Workers simulated for the scaling rows.
const SCALING_WORKERS: usize = 2;

/// Virtual-core throughput of the steal scheduler at `workers` workers
/// (see the module doc): real-timed guided chunks advance per-worker
/// virtual clocks, and the makespan is the largest clock.
fn virtual_throughput(algo: HashAlgo, kind: BackendKind, workers: usize) -> f64 {
    let space =
        KeySpace::new(Charset::lowercase(), 1, 8, Order::FirstCharFastest).expect("space");
    let impossible = TargetSet::new(algo, &[vec![0u8; algo.digest_len()]]);
    let backend = backend_for(kind);
    let stop = AtomicBool::new(false);
    let policy = ChunkPolicy::Guided { min: 1 << 12 };
    let mut best = 0.0f64;
    // Sweep 0 is an untimed warm-up: it touches the same keys through
    // the same backend so caches, page tables and any lazily-initialized
    // kernel state are hot before the first timed makespan. (The
    // wall-clock rows warm a *different* backend instance, so without
    // this the first timed sweep could carry a cold-start penalty.)
    for i in 0..=SCALING_BEST_OF {
        let deques =
            IntervalDeques::scatter(Interval::new(0, KEYS as u128), &vec![1.0; workers]);
        let mut clock = vec![0u64; workers];
        let mut done = vec![false; workers];
        // Always advance the worker whose virtual clock is furthest
        // behind — the order a real multi-core run would interleave in.
        while let Some(w) =
            (0..workers).filter(|&w| !done[w]).min_by_key(|&w| clock[w])
        {
            match pop_or_steal(&deques, w, policy, &mut clock[w]) {
                Some(chunk) => {
                    let t0 = Instant::now();
                    let out =
                        backend.scan(&space, &impossible, chunk, &stop, ScanMode::Exhaustive);
                    clock[w] += t0.elapsed().as_nanos() as u64;
                    assert!(out.hits.is_empty(), "impossible target must not hit");
                }
                None => done[w] = true,
            }
        }
        let makespan_ns = clock.iter().copied().max().unwrap_or(0).max(1);
        if i > 0 {
            best = best.max(KEYS as f64 / (makespan_ns as f64 / 1e9) / 1e6);
        }
    }
    best
}

/// Keys for the adaptive-vs-static scenario: smaller than [`KEYS`]
/// because the iterated-MD5 KDF multiplies per-key cost, and the
/// scenario runs the sweep four times (warm-up + timed, two arms).
const ADAPTIVE_KEYS: u64 = 60_000;
/// KDF work factor: 2 + (key-byte-sum % 8) MD5 rounds per candidate, so
/// per-key cost varies with the key itself — the workload the paper's
/// frozen one-shot tuning cannot see.
const ADAPTIVE_ITERS: u16 = 8;
/// Fleet-wide chunk count between drift checks and the drift threshold
/// that triggers a re-scatter — the bench mirror of `Retune::default()`.
const ADAPTIVE_EVERY_CHUNKS: u64 = 8;
const ADAPTIVE_DRIFT_PCT: f64 = 25.0;
/// Guided floor for the scenario: fine enough that the slow worker's
/// share is many chunks (the estimator needs samples and the re-scatter
/// needs queued work left to move).
const ADAPTIVE_CHUNK_MIN: u128 = 1 << 9;

/// How many times the handicapped worker re-scans each chunk: the
/// bench's stand-in for a fleet member severalfold weaker than the
/// stale tuned book claims.
const ADAPTIVE_SLOW_FACTOR: u32 = 4;

/// A deliberately slowed backend: scans each chunk
/// [`ADAPTIVE_SLOW_FACTOR`] times and reports it once, so its true
/// rate is a known fraction of the inner backend's while the stale
/// book still lists them as equals.
struct SlowedBackend {
    inner: Box<dyn Backend>,
    factor: u32,
}

impl Backend for SlowedBackend {
    fn name(&self) -> String {
        format!("{}-slow{}", self.inner.name(), self.factor)
    }

    fn scan(
        &self,
        space: &KeySpace,
        targets: &TargetSet,
        interval: Interval,
        stop: &AtomicBool,
        mode: ScanMode,
    ) -> eks_engine::ScanReport {
        let out = self.inner.scan(space, targets, interval, stop, mode);
        for _ in 1..self.factor {
            let extra = self.inner.scan(space, targets, interval, stop, mode);
            assert!(extra.hits.is_empty(), "impossible target must not hit");
        }
        out
    }

    fn tuned_rate(&self, algo: HashAlgo) -> f64 {
        self.inner.tuned_rate(algo) / f64::from(self.factor.max(1))
    }
}

/// One arm of the skewed-fleet scenario.
struct FleetArm {
    /// Parallel efficiency: `Σ busy / (workers × makespan)`.
    efficiency: f64,
    /// Virtual makespan, milliseconds.
    makespan_ms: f64,
    /// Closed-loop re-scatters performed (always 0 in the static arm).
    rescatters: u64,
}

/// The closed-loop payoff scenario: a two-worker fleet where worker 0
/// runs the batched backend at full speed and worker 1 the same
/// backend handicapped [`ADAPTIVE_SLOW_FACTOR`]-fold, under the
/// iterated-MD5 KDF, but the scatter trusts a *stale* tuned book that
/// claims the workers are equal.
///
/// The static arm drains exactly its planned share — the fast worker
/// idles while the slow one grinds through the misassigned half. The
/// adaptive arm feeds every chunk timing into a live [`RateBook`],
/// checks the estimated-time-to-drain drift every
/// [`ADAPTIVE_EVERY_CHUNKS`] pops, re-scatters the queued remainders by
/// the live rates once the estimates warm up, and steals at drain —
/// the same feedback loop `--retune` enables in the real scheduler,
/// driven deterministically through the virtual-core clock so the
/// measured ratio is scheduler quality, not host core count.
fn skewed_fleet_arm(adaptive: bool) -> FleetArm {
    let algo = HashAlgo::Md5Iter { iters: ADAPTIVE_ITERS };
    let space =
        KeySpace::new(Charset::lowercase(), 1, 8, Order::FirstCharFastest).expect("space");
    let impossible = TargetSet::new(algo, &[vec![0u8; algo.digest_len()]]);
    let backends: Vec<Box<dyn Backend>> = vec![
        cpu_backend(Lanes::L8),
        Box::new(SlowedBackend { inner: cpu_backend(Lanes::L8), factor: ADAPTIVE_SLOW_FACTOR }),
    ];
    let workers = backends.len();
    let stop = AtomicBool::new(false);
    let policy = ChunkPolicy::Guided { min: ADAPTIVE_CHUNK_MIN };
    let mut result = FleetArm { efficiency: 0.0, makespan_ms: 0.0, rescatters: 0 };
    // Sweep 0 warms both backends untimed, as in `virtual_throughput`.
    for sweep in 0..2 {
        // The stale book: equal weights although the fleet is skewed.
        let stale = vec![1.0; workers];
        let deques =
            IntervalDeques::scatter(Interval::new(0, ADAPTIVE_KEYS as u128), &stale);
        let rates = RateBook::new(stale);
        let mut clock = vec![0u64; workers];
        let mut busy = vec![0u64; workers];
        let mut done = vec![false; workers];
        let mut chunks = 0u64;
        let mut rescatters = 0u64;
        while let Some(w) = (0..workers).filter(|&w| !done[w]).min_by_key(|&w| clock[w]) {
            let chunk = if adaptive {
                pop_or_steal(&deques, w, policy, &mut clock[w])
            } else {
                deques.pop(w, policy)
            };
            match chunk {
                Some(chunk) => {
                    let t0 = Instant::now();
                    let out = backends[w]
                        .scan(&space, &impossible, chunk, &stop, ScanMode::Exhaustive);
                    let ns = t0.elapsed().as_nanos() as u64;
                    clock[w] += ns;
                    busy[w] += ns;
                    assert!(out.hits.is_empty(), "impossible target must not hit");
                    rates.observe(w, out.tested, ns);
                    chunks += 1;
                    if adaptive && chunks % ADAPTIVE_EVERY_CHUNKS == 0 {
                        let remaining: Vec<u128> =
                            (0..workers).map(|s| deques.remaining(s)).collect();
                        let live = rates.weights();
                        if eta_drift_pct(&remaining, &live, false) > ADAPTIVE_DRIFT_PCT
                            && deques.rescatter(&live)
                        {
                            rescatters += 1;
                        }
                    }
                }
                None => done[w] = true,
            }
        }
        let makespan_ns = clock.iter().copied().max().unwrap_or(0).max(1);
        let total_busy: u64 = busy.iter().sum();
        let efficiency =
            total_busy as f64 / (workers as f64 * makespan_ns as f64);
        if sweep > 0 {
            result = FleetArm {
                efficiency,
                makespan_ms: makespan_ns as f64 / 1e6,
                rescatters,
            };
        }
    }
    result
}

struct ScalingRow {
    algo: &'static str,
    backend: &'static str,
    workers: usize,
    scaling: f64,
    parallel_efficiency: f64,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut json_path: Option<String> = None;
    let mut min_md5_speedup = 1.0f64;
    let mut min_scaling = 0.0f64;
    let mut min_adaptive_ratio = 0.0f64;
    let mut min_default_vs_best = 0.0f64;
    let mut min_structured_speedup = 0.0f64;
    let mut max_telemetry_overhead_pct = f64::INFINITY;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => {
                json_path =
                    Some(args.next().unwrap_or_else(|| "BENCH_cracker.json".to_string()));
            }
            "--min-md5-speedup" => {
                min_md5_speedup = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--min-md5-speedup takes a number");
            }
            "--min-scaling" => {
                min_scaling = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--min-scaling takes a number");
            }
            "--min-adaptive-ratio" => {
                min_adaptive_ratio = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--min-adaptive-ratio takes a number");
            }
            "--min-default-vs-best" => {
                min_default_vs_best = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--min-default-vs-best takes a number");
            }
            "--min-structured-speedup" => {
                min_structured_speedup = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--min-structured-speedup takes a number");
            }
            "--max-telemetry-overhead-pct" => {
                max_telemetry_overhead_pct = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--max-telemetry-overhead-pct takes a number");
            }
            // `cargo bench` passes `--bench`; ignore it and any filters.
            _ => {}
        }
    }

    let features = cpu_features();
    println!(
        "cpu features: {}   selected isa: {}",
        features
            .iter()
            .map(|(name, on)| format!("{name}={}", if *on { "yes" } else { "no" }))
            .collect::<Vec<_>>()
            .join("  "),
        SimdIsa::detect().map_or("none", |isa| isa.name())
    );
    let explicit_isa = SimdIsa::detect().is_some();

    // One row per backend kind, then the portable fallback at both widths
    // (ungated: on a host with an explicit ISA nothing dispatches to it).
    let mut rows: Vec<Row> = Vec::new();
    println!("{:<6} {:>7} {:>10} {:>8} {:>10}", "algo", "threads", "backend", "isa", "MKey/s");
    for algo in ALGOS {
        for threads in THREADS {
            let portable = [Lanes::L8, Lanes::L16].map(CpuBackend::portable);
            let backends = BackendKind::ALL
                .into_iter()
                .map(|kind| (kind.name().to_string(), backend_for(kind)))
                .chain(portable.into_iter().map(|b| (b.name(), Box::new(b) as Box<dyn Backend>)));
            for (name, backend) in backends {
                let mkeys = measure(algo, threads, backend.as_ref());
                let isa = backend.isa(algo);
                println!(
                    "{:<6} {:>7} {:>10} {:>8} {:>10.3}",
                    algo_name(algo),
                    threads,
                    name,
                    isa.as_deref().unwrap_or("-"),
                    mkeys
                );
                rows.push(Row { algo: algo_name(algo), threads, backend: name, isa, mkeys });
            }
        }
    }

    // Virtual-core thread scaling of the steal scheduler, per
    // (algo, backend) pair — see the module doc for the methodology.
    let mut scaling_rows: Vec<ScalingRow> = Vec::new();
    println!(
        "{:<6} {:>8} {:>8} {:>8} {:>11}",
        "algo", "backend", "workers", "scaling", "efficiency"
    );
    for algo in ALGOS {
        for kind in BackendKind::ALL {
            let vt1 = virtual_throughput(algo, kind, 1);
            let vtn = virtual_throughput(algo, kind, SCALING_WORKERS);
            let scaling = vtn / vt1;
            let parallel_efficiency = scaling / SCALING_WORKERS as f64;
            println!(
                "{:<6} {:>8} {:>8} {:>7.2}x {:>10.0}%",
                algo_name(algo),
                kind.name(),
                SCALING_WORKERS,
                scaling,
                parallel_efficiency * 100.0
            );
            scaling_rows.push(ScalingRow {
                algo: algo_name(algo),
                backend: kind.name(),
                workers: SCALING_WORKERS,
                scaling,
                parallel_efficiency,
            });
        }
    }

    // The gate: at one thread, the best batched backend must beat scalar
    // for every algorithm, and MD5 by at least `--min-md5-speedup`.
    let one_thread = |algo: &str, backend: &str| {
        rows.iter()
            .find(|r| r.algo == algo && r.threads == 1 && r.backend == backend)
            .map(|r| r.mkeys)
            .expect("measured above")
    };
    let mut gates = String::new();
    let mut failed = false;
    for algo in ALGOS.map(algo_name) {
        let scalar = one_thread(algo, "scalar");
        let batched = [BackendKind::Cpu, BackendKind::SimGpu]
            .iter()
            .map(|k| one_thread(algo, k.name()))
            .fold(0.0f64, f64::max);
        let speedup = batched / scalar;
        println!("{algo}: best batched {batched:.3} vs scalar {scalar:.3} → {speedup:.2}x");
        let _ = write!(gates, "{}\"{algo}_1t_speedup\": {speedup:.3}", if gates.is_empty() { "" } else { ", " });
        let floor = if algo == "md5" { min_md5_speedup } else { 1.0 };
        if speedup < floor {
            eprintln!("GATE FAILED: {algo} speedup {speedup:.2}x is below the {floor:.2}x floor");
            failed = true;
        }
    }

    // The default-path gate: what `eks crack` runs when nobody picks a
    // backend must keep up with the fastest explicit kernel the CPU has.
    let mut default_vs_best_body = String::new();
    for algo in ALGOS {
        let name = algo_name(algo);
        let ratio = default_vs_best(algo);
        match ratio {
            Some(ratio) => {
                println!(
                    "{name}: default (cpu) / best forced-ISA backend = {ratio:.3} (floor {min_default_vs_best:.2})"
                );
                if ratio < min_default_vs_best {
                    eprintln!(
                        "GATE FAILED: {name} default backend runs at {ratio:.2} of the best explicit backend (floor {min_default_vs_best:.2})"
                    );
                    failed = true;
                }
            }
            None => println!(
                "{name}: default_vs_best skipped — no explicit-SIMD ISA detected, the default is the portable path"
            ),
        }
        let _ = write!(
            default_vs_best_body,
            "{}\"{name}\": {}",
            if default_vs_best_body.is_empty() { "" } else { ", " },
            ratio.map_or("null".to_string(), |r| format!("{r:.3}"))
        );
    }

    // Structured keyspaces: the same kernels behind a mask's or a hybrid
    // dictionary's block writer, against the one-key-at-a-time oracle.
    let mask = MaskSpace::parse(STRUCTURED_MASK).expect("static mask");
    let words: Vec<Vec<u8>> = (0..200).map(|i| format!("word{i}").into_bytes()).collect();
    let word_refs: Vec<&[u8]> = words.iter().map(Vec::as_slice).collect();
    let hybrid = HybridSpace::with_digit_suffixes(&word_refs, 3).expect("words + 3 digits fit a key");
    let mask_name = format!("mask {STRUCTURED_MASK}");
    let mut structured_rows: Vec<StructuredRow> =
        ALGOS.iter().map(|&algo| structured_row(&mask_name, &mask, algo)).collect();
    structured_rows.push(structured_row("hybrid 200 words x 0..=3 digits", &hybrid, HashAlgo::Ntlm));
    println!(
        "{:<32} {:<6} {:>12} {:>8} {:>10} {:>10} {:>8}",
        "structured space", "algo", "kernel", "isa", "scalar", "batched", "speedup"
    );
    for r in &structured_rows {
        println!(
            "{:<32} {:<6} {:>12} {:>8} {:>10.3} {:>10.3} {:>7.2}x",
            r.space, r.algo, r.kernel, r.isa, r.scalar_mkeys, r.batched_mkeys, r.speedup
        );
    }
    let mask_ntlm = structured_rows
        .iter()
        .find(|r| r.space == mask_name && r.algo == "ntlm")
        .expect("measured above");
    let _ = write!(gates, ", \"mask_ntlm_structured_speedup\": {:.3}", mask_ntlm.speedup);
    if explicit_isa {
        println!(
            "{mask_name}/ntlm: batched {:.2}x scalar (floor {min_structured_speedup:.2}x)",
            mask_ntlm.speedup
        );
        if mask_ntlm.speedup < min_structured_speedup {
            eprintln!(
                "GATE FAILED: {mask_name}/ntlm batched search is {:.2}x the scalar oracle, below the {min_structured_speedup:.2}x floor",
                mask_ntlm.speedup
            );
            failed = true;
        }
    } else {
        println!(
            "{mask_name}/ntlm: structured-speedup gate skipped — no explicit-SIMD ISA detected, the batched path is the portable cores"
        );
    }

    // The scaling gate: the steal scheduler's virtual 2-worker scaling
    // on md5/cpu must clear `--min-scaling` (the gate keys keep the
    // `lanes8` of the name `CpuBackend::default()` reports).
    let md5_lanes8_scaling = scaling_rows
        .iter()
        .find(|r| r.algo == "md5" && r.backend == "cpu")
        .map(|r| r.scaling)
        .expect("measured above");
    let _ = write!(gates, ", \"md5_lanes8_2w_scaling\": {md5_lanes8_scaling:.3}");
    println!(
        "md5/cpu: virtual {SCALING_WORKERS}-worker scaling {md5_lanes8_scaling:.2}x (floor {min_scaling:.2}x)"
    );
    if md5_lanes8_scaling < min_scaling {
        eprintln!(
            "GATE FAILED: md5/cpu scaling {md5_lanes8_scaling:.2}x is below the {min_scaling:.2}x floor"
        );
        failed = true;
    }

    // The closed-loop gate: on the skewed fleet under stale equal tuned
    // weights, adaptive retuning must recover at least
    // `--min-adaptive-ratio` times the static arm's parallel efficiency.
    let static_arm = skewed_fleet_arm(false);
    let adaptive_arm = skewed_fleet_arm(true);
    let adaptive_ratio = if static_arm.efficiency > 0.0 {
        adaptive_arm.efficiency / static_arm.efficiency
    } else {
        0.0
    };
    println!(
        "skewed fleet (md5x{ADAPTIVE_ITERS}, lanes8 + {ADAPTIVE_SLOW_FACTOR}x-slowed lanes8, stale equal weights): \
         static eff {:.1}% ({:.1} ms), adaptive eff {:.1}% ({:.1} ms, {} re-scatter(s)) \
         → {adaptive_ratio:.2}x (floor {min_adaptive_ratio:.2}x)",
        static_arm.efficiency * 100.0,
        static_arm.makespan_ms,
        adaptive_arm.efficiency * 100.0,
        adaptive_arm.makespan_ms,
        adaptive_arm.rescatters,
    );
    let _ = write!(gates, ", \"adaptive_efficiency_ratio\": {adaptive_ratio:.3}");
    if adaptive_ratio < min_adaptive_ratio {
        eprintln!(
            "GATE FAILED: adaptive/static efficiency ratio {adaptive_ratio:.2}x is below the {min_adaptive_ratio:.2}x floor"
        );
        failed = true;
    }

    // The telemetry gate: chunk-granularity instrumentation plus the
    // sampled batch timing on the batched MD5 hot path must cost at most
    // `--max-telemetry-overhead-pct` of throughput vs the null handle.
    // off = the null handle; on = a live registry plus trace sink,
    // attached to dispatcher and backend as `eks crack --metrics-out`
    // does, fresh per sweep so the trace ring and counters never
    // accumulate.
    let (t_off, t_on, off_over_on) = paired(
        || sweep(HashAlgo::Md5, 1, &CpuBackend::default(), PAIRED_KEYS, &Telemetry::disabled()),
        || {
            let on = Telemetry::enabled();
            let backend = CpuBackend::default().with_telemetry(on.clone());
            sweep(HashAlgo::Md5, 1, &backend, PAIRED_KEYS, &on)
        },
    );
    let telemetry_overhead_pct = (off_over_on - 1.0) * 100.0;
    let _ = write!(gates, ", \"md5_lanes8_telemetry_overhead_pct\": {telemetry_overhead_pct:.3}");
    println!(
        "md5/cpu: telemetry on {t_on:.3} vs off {t_off:.3} MKey/s → {telemetry_overhead_pct:.1}% overhead (cap {max_telemetry_overhead_pct:.1}%)"
    );
    if telemetry_overhead_pct > max_telemetry_overhead_pct {
        eprintln!(
            "GATE FAILED: telemetry overhead {telemetry_overhead_pct:.1}% exceeds the {max_telemetry_overhead_pct:.1}% cap"
        );
        failed = true;
    }

    if let Some(path) = json_path {
        let mut body = String::new();
        for r in &rows {
            let _ = write!(
                body,
                "{}    {{\"algo\": \"{}\", \"threads\": {}, \"backend\": \"{}\", \"isa\": {}, \"mkeys_per_s\": {:.3}}}",
                if body.is_empty() { "" } else { ",\n" },
                r.algo,
                r.threads,
                r.backend,
                r.isa.as_ref().map_or("null".to_string(), |isa| format!("\"{isa}\"")),
                r.mkeys
            );
        }
        let mut scaling_body = String::new();
        for r in &scaling_rows {
            let _ = write!(
                scaling_body,
                "{}    {{\"algo\": \"{}\", \"backend\": \"{}\", \"workers\": {}, \"scaling\": {:.3}, \"parallel_efficiency\": {:.3}}}",
                if scaling_body.is_empty() { "" } else { ",\n" },
                r.algo,
                r.backend,
                r.workers,
                r.scaling,
                r.parallel_efficiency
            );
        }
        let features_body = features
            .iter()
            .map(|(name, on)| format!("\"{name}\": {on}"))
            .collect::<Vec<_>>()
            .join(", ");
        let isa_body =
            SimdIsa::detect().map_or("null".to_string(), |isa| format!("\"{isa}\""));
        let mut structured_body = String::new();
        for r in &structured_rows {
            let _ = write!(
                structured_body,
                "{}    {{\"space\": \"{}\", \"algo\": \"{}\", \"kernel\": \"{}\", \"isa\": \"{}\", \"scalar_mkeys_per_s\": {:.3}, \"batched_mkeys_per_s\": {:.3}, \"speedup\": {:.3}}}",
                if structured_body.is_empty() { "" } else { ",\n" },
                r.space,
                r.algo,
                r.kernel,
                r.isa,
                r.scalar_mkeys,
                r.batched_mkeys,
                r.speedup
            );
        }
        let adaptive_body = format!(
            "{{\"algo\": \"md5x{ADAPTIVE_ITERS}\", \"workers\": 2, \"backends\": [\"lanes8\", \"lanes8-slow{ADAPTIVE_SLOW_FACTOR}\"], \
             \"static_efficiency\": {:.3}, \"adaptive_efficiency\": {:.3}, \
             \"efficiency_ratio\": {adaptive_ratio:.3}, \"rescatters\": {}}}",
            static_arm.efficiency, adaptive_arm.efficiency, adaptive_arm.rescatters
        );
        let json = format!(
            "{{\n  \"bench\": \"cracker_backends_vs_scalar\",\n  \"schema\": 7,\n  \"keys_per_sweep\": {KEYS},\n  \"best_of\": {BEST_OF},\n  \"min_md5_speedup\": {min_md5_speedup},\n  \"min_scaling\": {min_scaling},\n  \"min_adaptive_ratio\": {min_adaptive_ratio},\n  \"min_default_vs_best\": {min_default_vs_best},\n  \"min_structured_speedup\": {min_structured_speedup},\n  \"cpu_features\": {{{features_body}}},\n  \"simd_isa\": {isa_body},\n  \"results\": [\n{body}\n  ],\n  \"scaling\": [\n{scaling_body}\n  ],\n  \"adaptive\": {adaptive_body},\n  \"structured\": {{\"threads\": 1, \"chunk\": 4096, \"paired_rounds\": {PAIRED_ROUNDS}, \"rows\": [\n{structured_body}\n  ]}},\n  \"default_vs_best\": {{{default_vs_best_body}}},\n  \"gates\": {{{gates}}}\n}}\n"
        );
        std::fs::write(&path, json).expect("write json artifact");
        println!("wrote {path}");
    }

    if failed {
        std::process::exit(1);
    }
}
