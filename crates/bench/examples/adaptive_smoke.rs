//! CI smoke gate for the closed-loop adaptive load balancer.
//!
//! A two-worker fleet is deliberately skewed — worker 0 runs the
//! 8-lane batched backend at full speed, worker 1 the same backend
//! handicapped [`SLOW_FACTOR`]-fold — while the scatter trusts a stale
//! tuned book claiming they are equal. The static arm drains exactly
//! its planned share, so the fast worker idles through the back half of
//! the run (>30% fleet idle by construction). The adaptive arm runs the
//! same feedback loop `--retune` enables in the real scheduler: every
//! chunk timing feeds a live [`RateBook`], the estimated-time-to-drain
//! drift is checked periodically, the queued remainders are
//! re-scattered by the live rates, and drained workers steal. It must
//! close the idle gap to under [`MAX_ADAPTIVE_IDLE_PCT`].
//!
//! Both arms drive the scheduler through a deterministic virtual-core
//! clock (each scanned chunk's measured nanoseconds advance that
//! worker's clock; the driver always advances the furthest-behind
//! worker), so the verdict measures scheduler quality, not how many
//! cores the CI host happens to have. Exits non-zero when either bound
//! is missed.

use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::time::Instant;

use eks_bench::pop_or_steal;
use eks_cracker::{cpu_backend, Lanes, TargetSet};
use eks_engine::{eta_drift_pct, Backend, ChunkPolicy, IntervalDeques, RateBook, ScanMode};
use eks_hashes::HashAlgo;
use eks_keyspace::{Charset, Interval, KeySpace, Order};

/// Keys per arm — small enough for CI, large enough that the slow
/// worker's share is dozens of chunks.
const KEYS: u64 = 40_000;
/// The handicap: worker 1 re-scans each chunk this many times.
const SLOW_FACTOR: u32 = 4;
/// KDF work factor (iterated MD5), so per-key cost varies with the key.
const KDF_ITERS: u16 = 8;
/// Drift-check cadence and threshold — the `Retune::default()` values.
const EVERY_CHUNKS: u64 = 8;
const DRIFT_PCT: f64 = 25.0;
/// Guided chunk floor for both arms.
const CHUNK_MIN: u128 = 1 << 9;
/// The static arm must waste at least this much of the fleet (the
/// misassignment is 4x, so the true figure is 37.5%).
const MIN_STATIC_IDLE_PCT: f64 = 30.0;
/// The adaptive arm must recover to at most this much idle.
const MAX_ADAPTIVE_IDLE_PCT: f64 = 15.0;

/// Worker 1's handicapped backend: scans each chunk [`SLOW_FACTOR`]
/// times, reports it once.
struct SlowedBackend {
    inner: Box<dyn Backend>,
}

impl Backend for SlowedBackend {
    fn name(&self) -> String {
        format!("{}-slow{SLOW_FACTOR}", self.inner.name())
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
        for _ in 1..SLOW_FACTOR {
            let extra = self.inner.scan(space, targets, interval, stop, mode);
            assert!(extra.hits.is_empty(), "impossible target must not hit");
        }
        out
    }

    fn tuned_rate(&self, algo: HashAlgo) -> f64 {
        self.inner.tuned_rate(algo) / f64::from(SLOW_FACTOR)
    }
}

/// One arm under the virtual-core clock. Returns `(idle_pct, tested)`.
fn run_arm(adaptive: bool) -> (f64, u128) {
    let algo = HashAlgo::Md5Iter { iters: KDF_ITERS };
    let space =
        KeySpace::new(Charset::lowercase(), 1, 8, Order::FirstCharFastest).expect("space");
    let impossible = TargetSet::new(algo, &[vec![0u8; algo.digest_len()]]);
    let backends: Vec<Box<dyn Backend>> = vec![
        cpu_backend(Lanes::L8),
        Box::new(SlowedBackend { inner: cpu_backend(Lanes::L8) }),
    ];
    let workers = backends.len();
    let stop = AtomicBool::new(false);
    let policy = ChunkPolicy::Guided { min: CHUNK_MIN };
    // The stale book: equal weights although the fleet is 4x skewed.
    let stale = vec![1.0; workers];
    let deques = IntervalDeques::scatter(Interval::new(0, KEYS as u128), &stale);
    let rates = RateBook::new(stale);
    let mut clock = vec![0u64; workers];
    let mut busy = vec![0u64; workers];
    let mut done = vec![false; workers];
    let mut tested: u128 = 0;
    let mut chunks = 0u64;
    while let Some(w) = (0..workers).filter(|&w| !done[w]).min_by_key(|&w| clock[w]) {
        let chunk = if adaptive {
            pop_or_steal(&deques, w, policy, &mut clock[w])
        } else {
            deques.pop(w, policy)
        };
        match chunk {
            Some(chunk) => {
                let t0 = Instant::now();
                let out =
                    backends[w].scan(&space, &impossible, chunk, &stop, ScanMode::Exhaustive);
                let ns = t0.elapsed().as_nanos() as u64;
                clock[w] += ns;
                busy[w] += ns;
                tested += out.tested;
                assert!(out.hits.is_empty(), "impossible target must not hit");
                rates.observe(w, out.tested, ns);
                chunks += 1;
                if adaptive && chunks % EVERY_CHUNKS == 0 {
                    let remaining: Vec<u128> =
                        (0..workers).map(|s| deques.remaining(s)).collect();
                    let live = rates.weights();
                    if eta_drift_pct(&remaining, &live, false) > DRIFT_PCT {
                        deques.rescatter(&live);
                    }
                }
            }
            None => done[w] = true,
        }
    }
    let makespan = clock.iter().copied().max().unwrap_or(0).max(1);
    let total_busy: u64 = busy.iter().sum();
    let idle_pct =
        100.0 * (1.0 - total_busy as f64 / (workers as f64 * makespan as f64));
    (idle_pct, tested)
}

fn main() -> ExitCode {
    // Warm-up: one untimed static arm heats caches for both backends.
    let _ = run_arm(false);
    let (static_idle, static_tested) = run_arm(false);
    let (adaptive_idle, adaptive_tested) = run_arm(true);
    println!(
        "skewed fleet (md5x{KDF_ITERS}, {SLOW_FACTOR}x handicap, stale equal weights): \
         static idle {static_idle:.1}% (floor {MIN_STATIC_IDLE_PCT:.0}%), \
         adaptive idle {adaptive_idle:.1}% (cap {MAX_ADAPTIVE_IDLE_PCT:.0}%)"
    );
    let mut ok = true;
    for (arm, tested) in [("static", static_tested), ("adaptive", adaptive_tested)] {
        if tested != u128::from(KEYS) {
            eprintln!("FAIL: {arm} arm tested {tested} of {KEYS} keys (coverage broken)");
            ok = false;
        }
    }
    if static_idle < MIN_STATIC_IDLE_PCT {
        eprintln!(
            "FAIL: static arm idles only {static_idle:.1}% — the fleet is not skewed \
             enough for the adaptive verdict to mean anything"
        );
        ok = false;
    }
    if adaptive_idle > MAX_ADAPTIVE_IDLE_PCT {
        eprintln!(
            "FAIL: adaptive arm still idles {adaptive_idle:.1}% — the closed loop did \
             not recover the misassigned half"
        );
        ok = false;
    }
    if ok {
        println!("adaptive smoke: OK");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
