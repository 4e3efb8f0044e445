//! CPU implementations of the engine-layer [`Backend`] trait, each for
//! every space it can enumerate — so a mask or a hybrid dictionary is
//! searched by the same backend value as a brute-force range.
//!
//! * [`ScalarBackend`] — the one-candidate-at-a-time reference path
//!   ([`crate::search::crack_interval`]), over any space of keys;
//! * [`CpuBackend`] — the lane-batched path
//!   ([`crate::batch::crack_interval_batched`]), the CPU stand-in for a
//!   warp of GPU threads and what every CPU worker runs, over any
//!   [`BlockSpace`]. Its [`Kernel`]
//!   is resolved once, at construction: the widest explicit ISA the CPU
//!   has, else the portable cores ([`CpuBackend::detect`]); one named ISA
//!   ([`CpuBackend::new`], the CLI's `--isa`); or the portable cores
//!   whatever the CPU offers ([`CpuBackend::portable`], for tests and the
//!   bench's fallback rows). Detection is the whole tuning step — the
//!   paper's "tune once" rule with nothing left to race: on every host
//!   measured the widest ISA is also the fastest for every algorithm, and
//!   ci.sh's `--min-default-vs-best` gate trips where that stops holding.
//!
//! `tuned_rate` is a *measured* throughput (the paper's tuning step run
//! on the host): a short timed sweep per `(kernel, algo)`, cached for the
//! process lifetime so the balancing step stays cheap.

use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use eks_engine::{Backend, ScanMode, ScanReport};
use eks_hashes::{HashAlgo, SimdHasher, SimdIsa};
use eks_keyspace::{BlockSpace, Charset, Interval, Key, KeySpace, Order, SolutionSpace};
use eks_telemetry::Telemetry;

use crate::batch::{crack_interval_batched, needs_scalar_fallback, Kernel, Lanes};
use crate::search::crack_interval;
use crate::target::TargetSet;

/// The scalar reference backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScalarBackend;

impl<S: SolutionSpace<Solution = Key> + ?Sized> Backend<S> for ScalarBackend {
    fn name(&self) -> String {
        "scalar".into()
    }

    fn scan(
        &self,
        space: &S,
        targets: &TargetSet,
        interval: Interval,
        stop: &AtomicBool,
        mode: ScanMode,
    ) -> ScanReport {
        crack_interval(space, targets, interval, stop, mode.first_hit_only())
    }

    fn tuned_rate(&self, algo: HashAlgo) -> f64 {
        measured_rate(Kernel::Portable(Lanes::Scalar), algo)
    }

    fn isa(&self, _algo: HashAlgo) -> Option<String> {
        Some("scalar".into())
    }
}

/// The lane-batched CPU backend: one [`Kernel`], fixed at construction,
/// under the name its constructor reports (`lanes8`, `simd-avx512`, …)
/// and with an optional telemetry handle for the batch path (sampled
/// fill/hash timing, prefilter counters).
#[derive(Debug, Clone)]
pub struct CpuBackend {
    kernel: Kernel,
    name: String,
    telemetry: Telemetry,
}

impl CpuBackend {
    fn named(kernel: Kernel, name: String) -> Self {
        Self { kernel, name, telemetry: Telemetry::disabled() }
    }

    fn simd(hasher: SimdHasher) -> Self {
        let kernel = Kernel::Simd(hasher);
        Self::named(kernel, kernel.name())
    }

    /// The backend a CPU worker runs (`lanes8` / `lanes16`): the widest
    /// explicit-SIMD kernel the CPU has, else the portable cores at
    /// `lanes` (in a baseline build those compile to scalar code, 4–10×
    /// slower per key). Decided here, once, by runtime detection.
    pub fn detect(lanes: Lanes) -> Self {
        Self::named(Kernel::detect(lanes), Kernel::Portable(lanes).name())
    }

    /// The portable cores at `lanes` whatever the CPU offers
    /// (`portable8` / `portable16`): the fallback made reachable on a
    /// host with an explicit ISA, for the equivalence tests and the
    /// bench's fallback rows.
    pub fn portable(lanes: Lanes) -> Self {
        Self::named(Kernel::Portable(lanes), format!("portable{}", lanes.width()))
    }

    /// The explicit kernels of `isa` (`simd-<isa>`), or a user-facing
    /// error naming what the CPU actually supports when the ISA is
    /// unavailable (the CLI surfaces this verbatim instead of panicking).
    pub fn new(isa: SimdIsa) -> Result<Self, String> {
        match SimdHasher::new(isa) {
            Some(hasher) => Ok(Self::simd(hasher)),
            None => {
                let available: Vec<&str> = SimdIsa::ALL
                    .into_iter()
                    .filter(|i| i.is_available())
                    .map(|i| i.name())
                    .collect();
                let detected = if available.is_empty() {
                    "none".to_string()
                } else {
                    available.join(", ")
                };
                Err(format!(
                    "SIMD ISA '{isa}' is not available on this CPU (detected: {detected}); \
                     drop --isa to auto-detect or pick a listed one"
                ))
            }
        }
    }

    /// The widest available ISA's backend (`simd-<isa>`), if any explicit
    /// kernel runs on this CPU.
    pub fn best() -> Option<Self> {
        SimdHasher::best().map(Self::simd)
    }

    /// Attach a telemetry handle to the batch path.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The kernel every scan of this backend runs.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    // Inherent, with the `Backend<S>` impl forwarding: `backend.name()` on
    // the concrete type would otherwise be ambiguous over `S`.

    /// [`Backend::name`].
    pub fn name(&self) -> String {
        self.name.clone()
    }

    /// [`Backend::tuned_rate`]: measured, cached per `(kernel, algo)`.
    pub fn tuned_rate(&self, algo: HashAlgo) -> f64 {
        measured_rate(self.kernel, algo)
    }

    /// [`Backend::isa`]: the kernel's ISA, or `scalar` for an algorithm
    /// the lane kernels cannot run (the scan falls back to the oracle).
    pub fn isa(&self, algo: HashAlgo) -> Option<String> {
        let isa = if needs_scalar_fallback(algo) { "scalar" } else { self.kernel.isa() };
        Some(isa.into())
    }
}

impl Default for CpuBackend {
    fn default() -> Self {
        Self::detect(Lanes::default())
    }
}

impl<S: BlockSpace> Backend<S> for CpuBackend {
    fn name(&self) -> String {
        self.name()
    }

    fn scan(
        &self,
        space: &S,
        targets: &TargetSet,
        interval: Interval,
        stop: &AtomicBool,
        mode: ScanMode,
    ) -> ScanReport {
        crack_interval_batched(
            space,
            targets,
            interval,
            stop,
            mode.first_hit_only(),
            self.kernel,
            &self.telemetry,
        )
    }

    fn tuned_rate(&self, algo: HashAlgo) -> f64 {
        self.tuned_rate(algo)
    }

    fn isa(&self, algo: HashAlgo) -> Option<String> {
        self.isa(algo)
    }
}

/// The forced-ISA spelling of [`CpuBackend`] ([`CpuBackend::new`],
/// [`CpuBackend::best`]).
pub type SimdBackend = CpuBackend;

/// The `auto` spelling of [`CpuBackend`]: the detected default under the
/// name cluster CPU leaves and `--backend auto` report.
pub enum AutoBackend {}

impl AutoBackend {
    /// [`CpuBackend::default`], named `auto`, with `telemetry` attached.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(telemetry: Telemetry) -> CpuBackend {
        CpuBackend { name: "auto".into(), ..CpuBackend::default() }.with_telemetry(telemetry)
    }
}

/// The CPU backend for a lane width, boxed for heterogeneous dispatch.
pub fn cpu_backend(lanes: Lanes) -> Box<dyn Backend> {
    // `Lanes::Scalar` detects to the scalar kernel, under the name `scalar`.
    Box::new(CpuBackend::detect(lanes))
}

/// Keys swept per tuning measurement — enough to amortize startup,
/// small enough to stay well under a second even on the scalar path.
const TUNE_KEYS: u128 = 96_000;

/// Measured single-thread throughput (MKey/s) of one kernel on one
/// algorithm, cached per process — so backends that run the same kernel
/// are never timed twice.
fn measured_rate(kernel: Kernel, algo: HashAlgo) -> f64 {
    static CACHE: OnceLock<Mutex<HashMap<(Kernel, HashAlgo), f64>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let key = (kernel, algo);
    if let Some(rate) = cache.lock().expect("tune cache").get(&key) {
        return *rate;
    }
    // Compute OUTSIDE the lock so concurrent tuners of different keys
    // don't serialize on each other's sweeps.
    let space =
        KeySpace::new(Charset::lowercase(), 1, 5, Order::FirstCharFastest).expect("valid space");
    // A digest no 1..=5-char lowercase key can produce: nothing matches,
    // so the sweep measures the pure test-function cost.
    let impossible = TargetSet::new(algo, &[algo.hash_long(b"not-in-this-space")]);
    let stop = AtomicBool::new(false);
    let interval = Interval::new(0, TUNE_KEYS);
    let t0 = Instant::now();
    let out = crack_interval_batched(
        &space,
        &impossible,
        interval,
        &stop,
        false,
        kernel,
        &Telemetry::disabled(),
    );
    let rate = out.tested as f64 / t0.elapsed().as_secs_f64().max(1e-9) / 1e6;
    *cache.lock().expect("tune cache").entry(key).or_insert(rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eks_keyspace::Key;

    fn space() -> KeySpace {
        KeySpace::new(Charset::lowercase(), 1, 4, Order::FirstCharFastest).unwrap()
    }

    fn targets(words: &[&[u8]]) -> TargetSet {
        let ds: Vec<Vec<u8>> = words.iter().map(|w| HashAlgo::Md5.hash_long(w)).collect();
        TargetSet::new(HashAlgo::Md5, &ds)
    }

    /// Every way to build a [`CpuBackend`] on this host.
    fn cpu_backends() -> Vec<CpuBackend> {
        let mut all = vec![AutoBackend::new(Telemetry::disabled())];
        for lanes in [Lanes::L8, Lanes::L16] {
            all.push(CpuBackend::detect(lanes));
            all.push(CpuBackend::portable(lanes));
        }
        all.extend(SimdIsa::ALL.into_iter().filter_map(|isa| CpuBackend::new(isa).ok()));
        all
    }

    #[test]
    fn scalar_and_cpu_backends_agree() {
        let s = space();
        let t = targets(&[b"cat", b"mnop"]);
        let stop = AtomicBool::new(false);
        let reference = ScalarBackend.scan(&s, &t, s.interval(), &stop, ScanMode::Exhaustive);
        for b in cpu_backends() {
            let got = b.scan(&s, &t, s.interval(), &stop, ScanMode::Exhaustive);
            assert_eq!(got.hits, reference.hits, "{}", b.name());
            assert_eq!(got.tested, reference.tested, "{}", b.name());
        }
    }

    #[test]
    fn backend_names_match_the_cli_vocabulary() {
        assert_eq!(Backend::<KeySpace>::name(&ScalarBackend), "scalar");
        assert_eq!(CpuBackend::detect(Lanes::L8).name(), "lanes8");
        assert_eq!(CpuBackend::detect(Lanes::L16).name(), "lanes16");
        assert_eq!(CpuBackend::detect(Lanes::Scalar).name(), "scalar");
        assert_eq!(CpuBackend::default().name(), "lanes8");
        assert_eq!(CpuBackend::portable(Lanes::L16).name(), "portable16");
        assert_eq!(AutoBackend::new(Telemetry::disabled()).name(), "auto");
        assert_eq!(cpu_backend(Lanes::L8).name(), "lanes8");
        assert_eq!(cpu_backend(Lanes::Scalar).name(), "scalar");
    }

    #[test]
    fn detection_picks_the_widest_kernel_and_labels_name_what_runs() {
        let md5 = HashAlgo::Md5;
        let dispatched = SimdIsa::detect().map_or("autovec", SimdIsa::name);
        assert_eq!(Backend::<KeySpace>::isa(&ScalarBackend, md5).as_deref(), Some("scalar"));
        let iterated = HashAlgo::Md5Iter { iters: 3 };
        assert_eq!(CpuBackend::default().isa(iterated).as_deref(), Some("scalar"));
        assert_eq!(CpuBackend::detect(Lanes::Scalar).kernel(), Kernel::Portable(Lanes::Scalar));
        for lanes in [Lanes::L8, Lanes::L16] {
            let want = SimdHasher::best().map_or(Kernel::Portable(lanes), Kernel::Simd);
            assert_eq!(CpuBackend::detect(lanes).kernel(), want, "{lanes}");
            assert_eq!(CpuBackend::detect(lanes).isa(md5).as_deref(), Some(dispatched));
            assert_eq!(cpu_backend(lanes).isa(md5).as_deref(), Some(dispatched));
            assert_eq!(CpuBackend::portable(lanes).kernel(), Kernel::Portable(lanes));
            assert_eq!(CpuBackend::portable(lanes).isa(md5).as_deref(), Some("autovec"));
        }
        let auto = AutoBackend::new(Telemetry::disabled());
        assert_eq!(auto.kernel(), CpuBackend::default().kernel());
        assert_eq!(auto.isa(md5).as_deref(), Some(dispatched));
        assert_eq!(CpuBackend::best().map(|b| b.kernel()), SimdHasher::best().map(Kernel::Simd));
    }

    #[test]
    fn backends_running_the_same_kernel_share_one_tuning_sweep() {
        // lanes8, lanes16, auto and simd-<best> are one kernel on a host
        // with an explicit ISA: the cache hands all of them one measurement.
        let rate = CpuBackend::default().tuned_rate(HashAlgo::Sha1);
        assert!(rate > 0.0);
        for b in cpu_backends().iter().filter(|b| b.kernel() == CpuBackend::default().kernel()) {
            assert_eq!(b.tuned_rate(HashAlgo::Sha1), rate, "{}", b.name());
        }
    }

    #[test]
    fn cpu_backend_picks_the_right_implementation() {
        let s = space();
        let t = targets(&[b"dog"]);
        let stop = AtomicBool::new(false);
        for lanes in [Lanes::Scalar, Lanes::L8, Lanes::L16] {
            let b = cpu_backend(lanes);
            let out = b.scan(&s, &t, s.interval(), &stop, ScanMode::FirstHit);
            assert_eq!(out.hits.first().map(|h| h.1.as_bytes()), Some(&b"dog"[..]), "{lanes}");
        }
    }

    #[test]
    fn forced_isa_construction_mirrors_detection_and_errors_kindly() {
        for isa in SimdIsa::ALL {
            match CpuBackend::new(isa) {
                Ok(b) => {
                    assert!(isa.is_available());
                    assert_eq!(b.isa(HashAlgo::Md5).as_deref(), Some(isa.name()));
                    assert_eq!(b.name(), format!("simd-{isa}"));
                }
                Err(msg) => {
                    assert!(!isa.is_available());
                    assert!(msg.contains(isa.name()), "error names the ISA: {msg}");
                    assert!(msg.contains("detected"), "error lists detection: {msg}");
                }
            }
        }
    }

    #[test]
    fn first_hit_mode_maps_through() {
        let s = space();
        let key = Key::from_bytes(b"b"); // identifier 1
        let t = TargetSet::new(HashAlgo::Md5, &[HashAlgo::Md5.hash_long(key.as_bytes())]);
        let stop = AtomicBool::new(false);
        let out = ScalarBackend.scan(&s, &t, s.interval(), &stop, ScanMode::FirstHit);
        assert_eq!(out.tested, 2, "scalar first-hit stops at the match");
    }
}
