//! The five workloads. Each drives the product through the same public
//! entry point the `eks` CLI calls, one search ("slice") at a time, plants
//! one key per slice and checks that it comes back with the right
//! identifier. Slice sizes are fixed in source so that a slice is the same
//! work on every commit.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use eks_cluster::{parse_topology, run_cluster_search, ClusterNode};
use eks_cracker::{
    cpu_backend, crack_parallel, crack_parallel_backend, crack_space_parallel, AutoBackend, Lanes,
    ParallelConfig, ParallelReport, SimdBackend,
};
use eks_engine::{Backend, ScanMode, TargetSet, WorkerStats};
use eks_hashes::{AutoVec, HashAlgo, LaneHasher, SimdHasher};
use eks_jobs::{Fleet, FleetMember, JobId, JobService, JobSpec, JobStore, ServiceConfig};
use eks_keyspace::{Charset, Interval, KeySpace, MaskSpace, Order};
use eks_telemetry::Telemetry;

use crate::estimator::timed;
use crate::spans::Tracer;
use crate::wrappers::TracingBackend;

/// Workload names, in reporting order.
pub const NAMES: [&str; 5] = [
    "crack_md5",
    "crack_sha1_default",
    "crack_mask_ntlm",
    "cluster_hetero",
    "jobs_drain",
];

/// Keys per slice, sized for ≈ 25–40 ms at the commit that added the
/// benchmark. Frozen: changing one changes what a slice is.
const MD5_SLICE_KEYS: u128 = 1 << 22;
const SHA1_SLICE_KEYS: u128 = 3 << 17;
const CLUSTER_SLICE_KEYS: u128 = 3 << 17;
const MASK: &str = "?u?l?l?d";
const WARM_MASK: &str = "?l?l?d";
/// `JobService::round` calls per `jobs_drain` slice.
const ROUNDS_PER_SLICE: u32 = 6;
/// Keys of the first, untimed operation that fires every lazy cache.
const WARM_KEYS: u128 = 2048;
/// Keys of the two timings behind `Workload::wide_share`.
const SHARE_KEYS: u32 = 1 << 15;
/// Threads of the `crack_mask_ntlm` search. The one workload not run on
/// `nproc`: with two workers the cost of this search depends on where
/// the process's memory happens to lie (README, "Workloads"), so only its
/// one-thread cost can be gated. What `nproc` threads make of it is the
/// ungated `cracker.generic_scaling_eff`.
pub const MASK_THREADS: usize = 1;

/// Threads every workload and its yardstick start from: all the machine
/// has. Every process of the benchmark works it out for itself.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Deterministic input generator (splitmix64): the same seed gives the
/// same offsets and planted keys. The benchmark's own, not
/// `eks_core::prop::Rng`, so that no product change can move its inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u128) -> u128 {
        (((self.next() as u128) << 64) | self.next() as u128) % n.max(1)
    }
}

/// What one slice did.
#[derive(Debug, Clone, Copy, Default)]
pub struct SliceOut {
    /// Keys tested.
    pub keys: u64,
    /// The planted key came back with its identifier, and the tested
    /// count is what the search mode promises.
    pub ok: bool,
    /// Σ over workers of time inside scans, as the product reports it.
    pub busy_ns: u64,
    /// Σ over workers of time looking for work.
    pub idle_ns: u64,
    pub steals: u64,
    /// Workers the product reported stats for (0 when it reports none).
    pub workers: u64,
}

impl SliceOut {
    fn with_stats(mut self, stats: &[WorkerStats]) -> Self {
        self.busy_ns = stats.iter().map(|w| w.busy_ns).sum();
        self.idle_ns = stats.iter().map(|w| w.idle_ns).sum();
        self.steals = stats.iter().map(|w| w.steals).sum();
        self.workers = stats.len() as u64;
        self
    }
}

pub trait Workload {
    /// What actually runs, for labels (backend name, ISA).
    fn label(&self) -> String;
    /// Worker threads the product was asked to run a slice on: the most
    /// the yardstick next to it runs on.
    fn threads(&self) -> usize;
    /// One small untimed operation that fires every lazy cache.
    fn warm(&mut self) -> bool;
    /// One measured operation.
    fn slice(&mut self) -> SliceOut;
    /// The share of its scanning time the workload spends in explicit-SIMD
    /// kernels right now, measured on one thread: the kernel alone against
    /// a whole scan of the same keys. `None` when it runs no such kernel.
    /// It decides how much of `yard.wide` goes into the workload's
    /// normaliser, so it is measured in the run it is used in.
    fn wide_share(&mut self) -> Option<f64> {
        None
    }
    /// End-of-run checks over accumulated state.
    fn finish(&mut self) -> bool {
        true
    }
}

/// Set a workload up: build its inputs and backends and run the tuning
/// step of every backend it uses. `tracer` switches on the benchmark's
/// own spans around the calls into the product.
pub fn build(
    name: &str,
    seed: u64,
    threads: usize,
    tracer: Option<Arc<Tracer>>,
) -> Option<Box<dyn Workload>> {
    let rng = Rng::new(seed);
    Some(match name {
        "crack_md5" => Box::new(CrackMd5::new(rng, threads, tracer)),
        "crack_sha1_default" => Box::new(CrackSha1::new(rng, threads, tracer)),
        "crack_mask_ntlm" => Box::new(CrackMask::new(rng, tracer)),
        "cluster_hetero" => Box::new(ClusterHetero::new(rng, tracer)),
        "jobs_drain" => Box::new(JobsDrain::new(rng, threads, tracer)),
        _ => return None,
    })
}

/// A digest no key of the benchmark's spaces produces: scans over it
/// measure the pure test-function cost.
pub fn miss(algo: HashAlgo) -> TargetSet {
    TargetSet::new(algo, &[algo.hash_long(b"NOT-IN-THE-SPACE")])
}

/// Where run artefacts (traces, the temporary spool) go: inside the
/// benchmark's own directory, so a run never writes outside its checkout.
pub fn out_dir() -> PathBuf {
    // `cargo run` exports the manifest directory of the checkout it runs
    // in; a binary started by hand falls back to where it was built.
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
        .join("out")
}

/// The 8-character lowercase space every plain-charset search runs in.
pub fn lowercase8() -> KeySpace {
    KeySpace::new(Charset::lowercase(), 8, 8, Order::FirstCharFastest).expect("26^8 fits")
}

/// A slice of `space` at a seeded offset with one planted key.
struct Planted {
    interval: Interval,
    id: u128,
    targets: TargetSet,
}

fn plant(space: &KeySpace, algo: HashAlgo, keys: u128, rng: &mut Rng, at_end: bool) -> Planted {
    let start = rng.below(space.size() - keys);
    let id = if at_end {
        start + keys - 1
    } else {
        start + rng.below(keys)
    };
    let digest = algo.hash_long(space.key_at(id).as_bytes());
    Planted {
        interval: Interval::new(start, keys),
        id,
        targets: TargetSet::new(algo, &[digest]),
    }
}

fn found_exactly(report: &ParallelReport, space: &KeySpace, id: u128) -> bool {
    report.hits.len() == 1 && report.hits[0].0 == id && report.hits[0].1 == space.key_at(id)
}

fn traced<R>(tracer: &Option<Arc<Tracer>>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => {
            let open = t.enter(name);
            let out = f();
            t.exit(open);
            out
        }
        None => f(),
    }
}

fn maybe_tracing(backend: Box<dyn Backend>, tracer: &Option<Arc<Tracer>>) -> Box<dyn Backend> {
    match tracer {
        Some(t) => Box::new(TracingBackend::new(backend, t.clone())),
        None => backend,
    }
}

// ---------------------------------------------------------------- crack_md5

/// The explicit-SIMD backend of the widest ISA the CPU has. Without one
/// the auto-tuned backend stands in, and its name in the labels says so.
pub fn widest_backend() -> Box<dyn Backend> {
    match SimdBackend::best() {
        Some(b) => Box::new(b),
        None => Box::new(AutoBackend::new(Telemetry::disabled())),
    }
}

fn fwd49_loop<const L: usize, H: LaneHasher<L>>(h: H, keys: u32) -> f64 {
    let template = [0x6162_6364u32; 16];
    let mut w0s = [0u32; L];
    let mut acc = 0u32;
    let batches = keys / L as u32;
    for b in 0..batches {
        for (l, w) in w0s.iter_mut().enumerate() {
            *w = b.wrapping_mul(L as u32).wrapping_add(l as u32);
        }
        let out = h.md5_forward49_batch(black_box(&template), black_box(&w0s));
        acc ^= out[0][0] ^ out[L - 1][3];
    }
    black_box(acc);
    f64::from(batches) * L as f64
}

/// `md5_forward49_batch` over `keys` keys on the autovectorised lanes.
pub fn autovec_fwd49<const L: usize>(keys: u32) -> f64
where
    AutoVec: LaneHasher<L>,
{
    fwd49_loop::<L, _>(AutoVec, keys)
}

/// `md5_forward49_batch` over `keys` keys on the widest explicit handle
/// (portable lanes when the CPU has none): the hash core of the backend
/// `crack_md5` runs. Returns the keys hashed.
pub fn wide_fwd49(keys: u32) -> f64 {
    match SimdHasher::best() {
        #[cfg(target_arch = "x86_64")]
        Some(SimdHasher::Avx512(h)) => fwd49_loop::<32, _>(h, keys),
        #[cfg(target_arch = "x86_64")]
        Some(SimdHasher::Avx2(h)) => fwd49_loop::<16, _>(h, keys),
        #[cfg(target_arch = "aarch64")]
        Some(SimdHasher::Neon(h)) => fwd49_loop::<8, _>(h, keys),
        None => fwd49_loop::<8, _>(AutoVec, keys),
    }
}

struct CrackMd5 {
    space: KeySpace,
    backend: Box<dyn Backend>,
    /// The explicit-SIMD backend again, never wrapped for tracing: what
    /// `wide_share` scans with. `None` when the CPU has no such ISA.
    simd: Option<SimdBackend>,
    share_start: u128,
    config: ParallelConfig,
    rng: Rng,
    tracer: Option<Arc<Tracer>>,
}

impl CrackMd5 {
    fn new(mut rng: Rng, threads: usize, tracer: Option<Arc<Tracer>>) -> Self {
        let backend = widest_backend();
        backend.tuned_rate(HashAlgo::Md5);
        let space = lowercase8();
        Self {
            share_start: rng.below(space.size() - u128::from(SHARE_KEYS)),
            space,
            backend: maybe_tracing(backend, &tracer),
            simd: SimdBackend::best(),
            config: ParallelConfig {
                first_hit_only: false,
                ..ParallelConfig::for_threads(threads)
            },
            rng,
            tracer,
        }
    }

    fn run(&mut self, keys: u128) -> SliceOut {
        let p = plant(&self.space, HashAlgo::Md5, keys, &mut self.rng, false);
        let r = traced(&self.tracer, "slice", || {
            crack_parallel_backend(
                &self.space,
                &p.targets,
                p.interval,
                &*self.backend,
                self.config,
            )
        });
        SliceOut {
            keys: r.tested as u64,
            ok: r.tested == keys && found_exactly(&r, &self.space, p.id),
            ..SliceOut::default()
        }
        .with_stats(&r.stats)
    }
}

impl Workload for CrackMd5 {
    fn label(&self) -> String {
        let isa = self.backend.isa(HashAlgo::Md5).unwrap_or_default();
        format!("{} [{}]", self.backend.name(), isa)
    }

    fn threads(&self) -> usize {
        self.config.threads
    }

    fn warm(&mut self) -> bool {
        self.run(WARM_KEYS).ok
    }

    fn slice(&mut self) -> SliceOut {
        self.run(MD5_SLICE_KEYS)
    }

    fn wide_share(&mut self) -> Option<f64> {
        let simd = self.simd.as_ref()?;
        let interval = Interval::new(self.share_start, u128::from(SHARE_KEYS));
        let targets = miss(HashAlgo::Md5);
        let stop = AtomicBool::new(false);
        let scan_s = timed(|| {
            let out = simd.scan(&self.space, &targets, interval, &stop, ScanMode::Exhaustive);
            black_box(out.tested);
        });
        let core_s = timed(|| {
            wide_fwd49(SHARE_KEYS);
        });
        Some(core_s / scan_s)
    }
}

// ------------------------------------------------------- crack_sha1_default

struct CrackSha1 {
    space: KeySpace,
    config: ParallelConfig,
    /// Only in the traced pass: the same backend `crack_parallel` builds
    /// from `config.lanes`, wrapped to record scan spans.
    traced_backend: Option<Box<dyn Backend>>,
    rng: Rng,
    tracer: Option<Arc<Tracer>>,
}

impl CrackSha1 {
    fn new(rng: Rng, threads: usize, tracer: Option<Arc<Tracer>>) -> Self {
        let config = ParallelConfig::for_threads(threads);
        cpu_backend(config.lanes).tuned_rate(HashAlgo::Sha1);
        let traced_backend = tracer
            .as_ref()
            .map(|_| maybe_tracing(cpu_backend(config.lanes), &tracer));
        Self {
            space: lowercase8(),
            config,
            traced_backend,
            rng,
            tracer,
        }
    }

    fn run(&mut self, keys: u128) -> SliceOut {
        let p = plant(&self.space, HashAlgo::Sha1, keys, &mut self.rng, true);
        let r = traced(&self.tracer, "slice", || match &self.traced_backend {
            Some(b) => {
                crack_parallel_backend(&self.space, &p.targets, p.interval, &**b, self.config)
            }
            None => crack_parallel(&self.space, &p.targets, p.interval, self.config),
        });
        // First-hit: the key sits at the last identifier, so the search
        // ends when the worker holding the final chunk reaches it; the
        // others are cancelled at their next poll, short of their chunk.
        SliceOut {
            keys: r.tested as u64,
            ok: r.tested > 0 && r.tested <= keys && found_exactly(&r, &self.space, p.id),
            ..SliceOut::default()
        }
        .with_stats(&r.stats)
    }
}

impl Workload for CrackSha1 {
    fn label(&self) -> String {
        format!("{} [autovec]", cpu_backend(self.config.lanes).name())
    }

    fn threads(&self) -> usize {
        self.config.threads
    }

    fn warm(&mut self) -> bool {
        self.run(WARM_KEYS).ok
    }

    fn slice(&mut self) -> SliceOut {
        self.run(SHA1_SLICE_KEYS)
    }
}

// ---------------------------------------------------------- crack_mask_ntlm

struct CrackMask {
    mask: MaskSpace,
    warm_mask: MaskSpace,
    config: ParallelConfig,
    rng: Rng,
    tracer: Option<Arc<Tracer>>,
}

impl CrackMask {
    fn new(rng: Rng, tracer: Option<Arc<Tracer>>) -> Self {
        Self {
            mask: MaskSpace::parse(MASK).expect("static mask"),
            warm_mask: MaskSpace::parse(WARM_MASK).expect("static mask"),
            // As `eks crack --mask … --all --threads 1` configures it.
            config: ParallelConfig {
                threads: MASK_THREADS,
                chunk: 1 << 12,
                first_hit_only: false,
                ..ParallelConfig::default()
            },
            rng,
            tracer,
        }
    }

    fn run(&mut self, warm: bool) -> SliceOut {
        let mask = if warm { &self.warm_mask } else { &self.mask };
        let id = self.rng.below(mask.size());
        let key = mask.key_at(id);
        let targets = TargetSet::new(HashAlgo::Ntlm, &[HashAlgo::Ntlm.hash_long(key.as_bytes())]);
        let r = traced(&self.tracer, "slice", || {
            crack_space_parallel(mask, &targets, self.config)
        });
        SliceOut {
            keys: r.tested as u64,
            ok: r.tested == mask.size()
                && r.hits.len() == 1
                && r.hits[0].0 == id
                && r.hits[0].1 == key,
            ..SliceOut::default()
        }
    }
}

impl Workload for CrackMask {
    fn label(&self) -> String {
        format!("generic scalar loop, mask {MASK}, {MASK_THREADS} thread(s)")
    }

    fn threads(&self) -> usize {
        self.config.threads
    }

    fn warm(&mut self) -> bool {
        self.run(true).ok
    }

    fn slice(&mut self) -> SliceOut {
        self.run(false)
    }
}

// ----------------------------------------------------------- cluster_hetero

/// The topology of the `cluster_hetero` workload: one simulated GTX 660
/// and one single-thread CPU worker on one node.
pub const HETERO_TOPOLOGY: &str = "A(660, cpu:1)";

struct ClusterHetero {
    root: ClusterNode,
    space: KeySpace,
    rng: Rng,
    tracer: Option<Arc<Tracer>>,
    last_label: String,
}

impl ClusterHetero {
    fn new(rng: Rng, tracer: Option<Arc<Tracer>>) -> Self {
        Self {
            root: parse_topology(HETERO_TOPOLOGY, 0.0).expect("static topology"),
            space: lowercase8(),
            rng,
            tracer,
            last_label: String::new(),
        }
    }

    fn run(&mut self, keys: u128) -> SliceOut {
        let p = plant(&self.space, HashAlgo::Md5, keys, &mut self.rng, false);
        // Static, rate-proportional scatter: the CLI default. Planning
        // looks the tuned rates up (measured once per process) per search.
        let r = traced(&self.tracer, "slice", || {
            run_cluster_search(&self.root, &self.space, &p.targets, p.interval, false)
        });
        self.last_label = r
            .per_device
            .iter()
            .map(|(l, _)| l.as_str())
            .collect::<Vec<_>>()
            .join(" + ");
        SliceOut {
            keys: r.tested as u64,
            ok: r.tested == keys
                && r.hits.len() == 1
                && r.hits[0].0 == p.id
                && r.hits[0].1 == self.space.key_at(p.id)
                && r.per_device.iter().map(|(_, n)| n).sum::<u128>() == keys,
            ..SliceOut::default()
        }
        .with_stats(&r.stats)
    }
}

impl Workload for ClusterHetero {
    fn label(&self) -> String {
        self.last_label.clone()
    }

    /// One worker per device and per CPU leaf of the topology.
    fn threads(&self) -> usize {
        self.root.all_devices().len() + self.root.all_cpus().len()
    }

    fn warm(&mut self) -> bool {
        self.run(WARM_KEYS).ok
    }

    fn slice(&mut self) -> SliceOut {
        self.run(CLUSTER_SLICE_KEYS)
    }
}

// --------------------------------------------------------------- jobs_drain

/// A spool directory that is removed again on every exit path.
pub struct TempSpool(PathBuf);

impl TempSpool {
    pub fn new(tag: &str) -> Self {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Self(out_dir().join(format!("spool-{tag}-{}-{n}", std::process::id())))
    }

    pub fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempSpool {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The fleet `eks job run --threads N` builds: one lanes8 member per
/// thread, equal weights.
pub fn host_fleet(threads: usize, tracer: &Option<Arc<Tracer>>) -> Fleet {
    Fleet::new(
        (0..threads)
            .map(|i| FleetMember {
                label: format!("host/cpu{i} [lanes8]"),
                weight: 1.0,
                backend: maybe_tracing(cpu_backend(Lanes::L8), tracer),
            })
            .collect(),
    )
}

/// A SHA-1 job over the 8-character lowercase space whose digest no key
/// of the space produces: it never finishes and never hits.
pub fn hitless_job(name: &str, priority: u32, salt: u64) -> JobSpec {
    JobSpec {
        name: name.into(),
        algo: HashAlgo::Sha1,
        digest: HashAlgo::Sha1.hash_long(format!("NOT-IN-THE-SPACE-{salt}").as_bytes()),
        charset: Charset::lowercase().symbols().to_vec(),
        min_len: 8,
        max_len: 8,
        order: Order::FirstCharFastest,
        priority,
        first_hit_only: false,
    }
}

struct JobsDrain {
    service: JobService,
    fleet: Fleet,
    leased: BTreeMap<JobId, u128>,
    tracer: Option<Arc<Tracer>>,
    // Dropped last: the service still points into it.
    _spool: TempSpool,
}

impl JobsDrain {
    fn new(mut rng: Rng, threads: usize, tracer: Option<Arc<Tracer>>) -> Self {
        let spool = TempSpool::new("drain");
        let store = JobStore::open(spool.path()).expect("spool inside the benchmark directory");
        for (name, priority) in [("bench-low", 1), ("bench-high", 2)] {
            store
                .submit(hitless_job(name, priority, rng.next()))
                .expect("valid spec");
        }
        let fleet = host_fleet(threads, &tracer);
        cpu_backend(Lanes::L8).tuned_rate(HashAlgo::Sha1);
        Self {
            service: JobService::new(store, ServiceConfig::default()),
            fleet,
            leased: BTreeMap::new(),
            tracer,
            _spool: spool,
        }
    }

    fn rounds(&mut self, n: u32) -> SliceOut {
        let mut scanned: u128 = 0;
        let mut ok = true;
        traced(&self.tracer, "slice", || {
            for _ in 0..n {
                match traced(&self.tracer, "round", || self.service.round(&self.fleet)) {
                    Ok(report) => {
                        scanned += report.scanned;
                        for (id, lease) in report.leases {
                            *self.leased.entry(id).or_default() += lease.len;
                        }
                    }
                    Err(_) => ok = false,
                }
            }
        });
        let want = u128::from(n) * ServiceConfig::default().round_keys;
        SliceOut {
            keys: scanned as u64,
            ok: ok && scanned == want,
            ..SliceOut::default()
        }
    }
}

impl Workload for JobsDrain {
    fn label(&self) -> String {
        format!(
            "{} x lanes8 fleet, {ROUNDS_PER_SLICE} rounds/slice",
            self.fleet.len()
        )
    }

    fn threads(&self) -> usize {
        self.fleet.len()
    }

    fn warm(&mut self) -> bool {
        self.rounds(1).ok
    }

    fn slice(&mut self) -> SliceOut {
        self.rounds(ROUNDS_PER_SLICE)
    }

    /// Every record's credited keys equal what its leases covered.
    fn finish(&mut self) -> bool {
        match self.service.store().list() {
            Ok(records) => {
                records.len() == 2
                    && records
                        .iter()
                        .all(|r| r.hits.is_empty() && Some(&r.tested) == self.leased.get(&r.id))
            }
            Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_repeat_and_differ() {
        let mut a = Rng::new(5);
        let mut b = Rng::new(5);
        let mut c = Rng::new(6);
        let xs: Vec<u64> = (0..4).map(|_| a.next()).collect();
        assert_eq!(xs, (0..4).map(|_| b.next()).collect::<Vec<_>>());
        assert_ne!(xs, (0..4).map(|_| c.next()).collect::<Vec<_>>());
        assert!(a.below(10) < 10);
    }

    #[test]
    fn every_workload_warms_up_and_cleans_its_spool() {
        for name in NAMES {
            let mut w = build(name, 1, 2, None).expect("known name");
            assert!(w.warm(), "{name}");
            assert!(w.finish(), "{name}");
            // Only a workload with an explicit-SIMD kernel has a wide
            // share, and a kernel is a part of a scan.
            let share = w.wide_share();
            assert_eq!(
                share.is_some(),
                name == "crack_md5" && SimdBackend::best().is_some(),
                "{name}"
            );
            assert!(
                share.is_none_or(|s| s > 0.0 && s < 1.0),
                "{name}: {share:?}"
            );
        }
        let leftover = std::fs::read_dir(out_dir())
            .map(|d| {
                d.flatten()
                    .any(|e| e.file_name().to_string_lossy().starts_with("spool-"))
            })
            .unwrap_or(false);
        assert!(!leftover, "temp spools are removed on drop");
        assert!(build("nope", 1, 2, None).is_none());
    }
}
