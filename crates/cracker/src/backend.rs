//! CPU implementations of the engine-layer [`Backend`] trait.
//!
//! * [`ScalarBackend`] — the one-candidate-at-a-time reference path
//!   ([`crate::engine::crack_interval`]);
//! * [`LaneBackend`] — the lane-batched path, the CPU stand-in for a
//!   warp of GPU threads and the default of every CPU worker. It
//!   resolves its kernel once, at construction: the widest explicit ISA
//!   the CPU has ([`crate::batch::crack_interval_simd`]), else the
//!   portable cores at the requested width
//!   ([`crate::batch::crack_interval_batched`]);
//! * [`SimdBackend`] — the explicit AVX2/AVX-512/NEON kernels of one
//!   named ISA, built only when runtime detection proves it;
//! * [`AutoBackend`] — the paper's tuning step as a backend: times every
//!   distinct kernel the CPU can run, per algorithm, once, and dispatches
//!   each scan to the winner (the widest ISA is not always the fastest —
//!   AVX-512 down-clocks some hosts — and the portable widths are not
//!   monotonic either, so the choice is per-algorithm, not global).
//!
//! `tuned_rate` is a *measured* throughput (the paper's tuning step run
//! on the host): a short timed sweep per `(implementation, algo)`,
//! cached for the process lifetime so the balancing step stays cheap.

use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use eks_engine::{Backend, ScanMode, ScanReport};
use eks_hashes::{HashAlgo, SimdHasher, SimdIsa};
use eks_keyspace::{BlockSpace, Charset, Interval, KeySpace, Order};
use eks_telemetry::Telemetry;

use crate::batch::{
    crack_interval_batched_observed, crack_interval_simd_observed, needs_scalar_fallback, Lanes,
};
use crate::engine::crack_interval;
use crate::target::TargetSet;

/// The scalar reference backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScalarBackend;

impl Backend for ScalarBackend {
    fn name(&self) -> String {
        "scalar".into()
    }

    fn scan(
        &self,
        space: &KeySpace,
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

/// One batched kernel a CPU backend can run: the unit the tuning cache
/// and [`AutoBackend`]'s race are keyed by, so two backends that run the
/// same code are never timed twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// The portable cores at a lane width (or the scalar engine).
    Portable(Lanes),
    /// The explicit kernels of a detected ISA.
    Simd(SimdHasher),
}

impl Kernel {
    /// What a CPU worker asked for `lanes` runs: the widest explicit ISA
    /// the CPU has, else the portable cores at that width. Scalar stays
    /// scalar — it is the reference.
    pub(crate) fn detect(lanes: Lanes) -> Self {
        match (lanes, SimdHasher::best()) {
            (Lanes::L8 | Lanes::L16, Some(hasher)) => Kernel::Simd(hasher),
            _ => Kernel::Portable(lanes),
        }
    }

    /// [`Kernel::detect`] for a search whose algorithm is known up
    /// front: one the lane kernels cannot run is the scalar engine's.
    pub(crate) fn detect_for(lanes: Lanes, algo: HashAlgo) -> Self {
        if needs_scalar_fallback(algo) {
            Kernel::Portable(Lanes::Scalar)
        } else {
            Kernel::detect(lanes)
        }
    }

    fn tune_key(self) -> TuneKey {
        match self {
            Kernel::Portable(lanes) => TuneKey::Lanes(lanes),
            Kernel::Simd(hasher) => TuneKey::Simd(hasher.isa()),
        }
    }

    /// `lanes8`, `simd-avx512`, …: the CLI's name of the backend that
    /// runs exactly this kernel.
    pub(crate) fn name(self) -> String {
        match self {
            Kernel::Portable(Lanes::Scalar) => "scalar".into(),
            Kernel::Portable(lanes) => format!("lanes{}", lanes.width()),
            Kernel::Simd(hasher) => format!("simd-{}", hasher.isa()),
        }
    }

    /// The instruction set the kernel's hash cores are compiled for.
    pub(crate) fn isa(self) -> &'static str {
        match self {
            Kernel::Portable(Lanes::Scalar) => "scalar",
            Kernel::Portable(_) => "autovec",
            Kernel::Simd(hasher) => hasher.isa().name(),
        }
    }

    pub(crate) fn scan<S: BlockSpace>(
        self,
        space: &S,
        targets: &TargetSet,
        interval: Interval,
        stop: &AtomicBool,
        mode: ScanMode,
        telemetry: &Telemetry,
    ) -> ScanReport {
        let first_hit_only = mode.first_hit_only();
        match self {
            Kernel::Portable(lanes) => crack_interval_batched_observed(
                space,
                targets,
                interval,
                stop,
                first_hit_only,
                lanes,
                telemetry,
            ),
            Kernel::Simd(hasher) => crack_interval_simd_observed(
                space,
                targets,
                interval,
                stop,
                first_hit_only,
                hasher,
                telemetry,
            ),
        }
    }
}

/// The lane-batched backend. [`Lanes::L8`]/[`Lanes::L16`] name the
/// width of the *portable* cores; on a CPU with an explicit ISA the
/// backend runs that ISA's kernels instead, whatever width was asked for
/// (in a baseline build the portable cores compile to scalar code, 4–10×
/// slower per key). Which it is is decided once, at construction, by
/// runtime detection — there is nothing to configure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneBackend {
    /// Lane width of the portable test path.
    pub lanes: Lanes,
    kernel: Kernel,
}

impl LaneBackend {
    /// A backend with the given lane width.
    pub fn new(lanes: Lanes) -> Self {
        Self { lanes, kernel: Kernel::detect(lanes) }
    }
}

impl Default for LaneBackend {
    fn default() -> Self {
        Self::new(Lanes::default())
    }
}

impl Backend for LaneBackend {
    fn name(&self) -> String {
        Kernel::Portable(self.lanes).name()
    }

    fn scan(
        &self,
        space: &KeySpace,
        targets: &TargetSet,
        interval: Interval,
        stop: &AtomicBool,
        mode: ScanMode,
    ) -> ScanReport {
        self.kernel.scan(space, targets, interval, stop, mode, &Telemetry::disabled())
    }

    fn tuned_rate(&self, algo: HashAlgo) -> f64 {
        measured_rate(self.kernel, algo)
    }

    fn isa(&self, _algo: HashAlgo) -> Option<String> {
        Some(self.kernel.isa().into())
    }
}

/// The CPU backend for a lane width, boxed for heterogeneous dispatch.
pub fn cpu_backend(lanes: Lanes) -> Box<dyn Backend> {
    match lanes {
        Lanes::Scalar => Box::new(ScalarBackend),
        lanes => Box::new(LaneBackend::new(lanes)),
    }
}

/// A [`LaneBackend`] with batch-path telemetry attached: identical
/// kernel, scans and tuned rate, plus sampled batch-fill/hash timing and
/// prefilter hit/miss counters flowing into the shared registry.
#[derive(Debug, Clone)]
pub struct ObservedLaneBackend {
    inner: LaneBackend,
    telemetry: Telemetry,
}

impl ObservedLaneBackend {
    /// An observed backend for a lane width.
    pub fn new(lanes: Lanes, telemetry: Telemetry) -> Self {
        Self { inner: LaneBackend::new(lanes), telemetry }
    }
}

impl Backend for ObservedLaneBackend {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn scan(
        &self,
        space: &KeySpace,
        targets: &TargetSet,
        interval: Interval,
        stop: &AtomicBool,
        mode: ScanMode,
    ) -> ScanReport {
        self.inner.kernel.scan(space, targets, interval, stop, mode, &self.telemetry)
    }

    fn tuned_rate(&self, algo: HashAlgo) -> f64 {
        self.inner.tuned_rate(algo)
    }

    fn isa(&self, algo: HashAlgo) -> Option<String> {
        self.inner.isa(algo)
    }
}

/// Like [`cpu_backend`] but with telemetry attached to the batch path.
pub fn cpu_backend_observed(lanes: Lanes, telemetry: Telemetry) -> Box<dyn Backend> {
    Box::new(ObservedLaneBackend::new(lanes, telemetry))
}

/// The explicit-SIMD backend: a [`SimdHasher`] (whose construction
/// proved the ISA at runtime) driving
/// [`crate::batch::crack_interval_simd_observed`].
#[derive(Debug, Clone)]
pub struct SimdBackend {
    hasher: SimdHasher,
    telemetry: Telemetry,
}

impl SimdBackend {
    /// A backend for `isa`, or a user-facing error naming what the CPU
    /// actually supports when the ISA is unavailable (the CLI surfaces
    /// this verbatim instead of panicking).
    pub fn new(isa: SimdIsa) -> Result<Self, String> {
        match SimdHasher::new(isa) {
            Some(hasher) => Ok(Self {
                hasher,
                telemetry: Telemetry::disabled(),
            }),
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

    /// The widest available ISA's backend, if any explicit kernel runs
    /// on this CPU.
    pub fn best() -> Option<Self> {
        SimdHasher::best().map(|hasher| Self {
            hasher,
            telemetry: Telemetry::disabled(),
        })
    }

    /// Attach a telemetry handle (batch fill/hash timing, prefilter
    /// counters), like [`ObservedLaneBackend`] for the lane path.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The ISA this backend's kernels run on.
    pub fn isa(&self) -> SimdIsa {
        self.hasher.isa()
    }
}

impl Backend for SimdBackend {
    fn name(&self) -> String {
        Kernel::Simd(self.hasher).name()
    }

    fn scan(
        &self,
        space: &KeySpace,
        targets: &TargetSet,
        interval: Interval,
        stop: &AtomicBool,
        mode: ScanMode,
    ) -> ScanReport {
        Kernel::Simd(self.hasher).scan(space, targets, interval, stop, mode, &self.telemetry)
    }

    fn tuned_rate(&self, algo: HashAlgo) -> f64 {
        measured_rate(Kernel::Simd(self.hasher), algo)
    }

    fn isa(&self, _algo: HashAlgo) -> Option<String> {
        Some(self.hasher.isa().name().into())
    }
}

/// The auto-tuned backend: the paper's "tune, then run" rule applied to
/// backend selection. For each algorithm the first scan (or tuned-rate
/// query) times every distinct kernel the CPU can run — each explicit ISA
/// it supports, or the two portable widths when it supports none — and
/// the winner handles all subsequent scans of that algorithm.
///
/// Selection is deliberately per-algorithm: measured rates are not
/// monotonic in width. AVX2 against AVX-512 is a real choice on hosts
/// that down-clock under 512-bit code, and between the portable widths
/// (scalar code in a baseline build, where 16 lanes of MD5 state no
/// longer fit the registers) lanes8 beats lanes16 on MD5 but not on
/// SHA-1.
pub struct AutoBackend {
    telemetry: Telemetry,
    choices: Mutex<HashMap<HashAlgo, Kernel>>,
}

impl AutoBackend {
    /// An auto-tuned backend; `telemetry` flows into whichever
    /// implementation wins each algorithm's tuning race.
    pub fn new(telemetry: Telemetry) -> Self {
        Self {
            telemetry,
            choices: Mutex::new(HashMap::new()),
        }
    }

    /// Every distinct kernel the running CPU can try. The portable
    /// widths race only where no explicit ISA exists: everywhere else
    /// `lanes8`/`lanes16` already run the widest explicit kernel.
    fn candidates() -> Vec<Kernel> {
        let explicit: Vec<Kernel> = SimdIsa::ALL
            .into_iter()
            .filter_map(SimdHasher::new)
            .map(Kernel::Simd)
            .collect();
        if explicit.is_empty() {
            vec![Kernel::Portable(Lanes::L8), Kernel::Portable(Lanes::L16)]
        } else {
            explicit
        }
    }

    /// The tuned winner for `algo`, racing the candidates on first use.
    fn choice(&self, algo: HashAlgo) -> Kernel {
        if let Some(choice) = self.choices.lock().expect("auto choices").get(&algo) {
            return *choice;
        }
        // Tune outside the lock: measured_rate has its own cache and
        // concurrent tuners of different algorithms shouldn't serialize.
        let winner = Self::candidates()
            .into_iter()
            .map(|c| (c, measured_rate(c, algo)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(c, _)| c)
            .expect("candidate list is never empty");
        *self
            .choices
            .lock()
            .expect("auto choices")
            .entry(algo)
            .or_insert(winner)
    }

    /// The name of the implementation tuned in for `algo` (e.g.
    /// `lanes8`, `simd-avx512`) — for reports and telemetry labels.
    pub fn choice_name(&self, algo: HashAlgo) -> String {
        self.choice(algo).name()
    }
}

impl Backend for AutoBackend {
    fn name(&self) -> String {
        "auto".into()
    }

    fn scan(
        &self,
        space: &KeySpace,
        targets: &TargetSet,
        interval: Interval,
        stop: &AtomicBool,
        mode: ScanMode,
    ) -> ScanReport {
        self.choice(targets.algo())
            .scan(space, targets, interval, stop, mode, &self.telemetry)
    }

    fn tuned_rate(&self, algo: HashAlgo) -> f64 {
        measured_rate(self.choice(algo), algo)
    }

    fn isa(&self, algo: HashAlgo) -> Option<String> {
        Some(self.choice(algo).isa().into())
    }
}

/// Keys swept per tuning measurement — enough to amortize startup,
/// small enough to stay well under a second even on the scalar path.
const TUNE_KEYS: u128 = 96_000;

/// The hashable identity of a [`Kernel`] in the tuning cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TuneKey {
    /// The scalar or portable path at a lane width.
    Lanes(Lanes),
    /// An explicit-SIMD ISA.
    Simd(SimdIsa),
}

/// Measured single-thread throughput (MKey/s) of one kernel on one
/// algorithm, cached per process.
fn measured_rate(kernel: Kernel, algo: HashAlgo) -> f64 {
    static CACHE: OnceLock<Mutex<HashMap<(TuneKey, HashAlgo), f64>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let key = (kernel.tune_key(), algo);
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
    let out = kernel.scan(
        &space,
        &impossible,
        interval,
        &stop,
        ScanMode::Exhaustive,
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

    #[test]
    fn scalar_and_lane_backends_agree() {
        let s = space();
        let t = targets(&[b"cat", b"mnop"]);
        let stop = AtomicBool::new(false);
        let reference = ScalarBackend.scan(&s, &t, s.interval(), &stop, ScanMode::Exhaustive);
        for lanes in [Lanes::L8, Lanes::L16] {
            let got =
                LaneBackend::new(lanes).scan(&s, &t, s.interval(), &stop, ScanMode::Exhaustive);
            assert_eq!(got.hits, reference.hits, "{lanes}");
            assert_eq!(got.tested, reference.tested, "{lanes}");
        }
    }

    #[test]
    fn backend_names_match_the_cli_vocabulary() {
        assert_eq!(ScalarBackend.name(), "scalar");
        assert_eq!(LaneBackend::new(Lanes::L8).name(), "lanes8");
        assert_eq!(LaneBackend::new(Lanes::L16).name(), "lanes16");
        assert_eq!(LaneBackend::new(Lanes::Scalar).name(), "scalar");
    }

    #[test]
    fn isa_labels_name_the_kernel_that_runs() {
        let md5 = HashAlgo::Md5;
        // What detection says the lane backends run on this host.
        let dispatched = SimdIsa::detect().map_or("autovec", SimdIsa::name);
        assert_eq!(ScalarBackend.isa(md5).as_deref(), Some("scalar"));
        assert_eq!(LaneBackend::new(Lanes::Scalar).isa(md5).as_deref(), Some("scalar"));
        for lanes in [Lanes::L8, Lanes::L16] {
            assert_eq!(LaneBackend::new(lanes).isa(md5).as_deref(), Some(dispatched));
            let observed = ObservedLaneBackend::new(lanes, Telemetry::disabled());
            assert_eq!(observed.isa(md5).as_deref(), Some(dispatched));
            assert_eq!(cpu_backend(lanes).isa(md5).as_deref(), Some(dispatched));
        }
        if let Some(b) = SimdBackend::best() {
            // `Backend::isa` is shadowed by the inherent `SimdBackend::isa`.
            assert_eq!(Backend::isa(&b, md5).as_deref(), Some(dispatched));
        }
        let auto = AutoBackend::new(Telemetry::disabled());
        let label = Backend::isa(&auto, md5).expect("auto always has a winner");
        assert!(
            ["autovec", "avx2", "avx512", "neon"].contains(&label.as_str()),
            "{label}"
        );
    }

    #[test]
    fn lane_backends_dispatch_to_the_widest_detected_kernel() {
        for lanes in [Lanes::L8, Lanes::L16] {
            let want = match SimdHasher::best() {
                Some(hasher) => Kernel::Simd(hasher),
                None => Kernel::Portable(lanes),
            };
            assert_eq!(LaneBackend::new(lanes).kernel, want, "{lanes}");
        }
        assert_eq!(LaneBackend::new(Lanes::Scalar).kernel, Kernel::Portable(Lanes::Scalar));
        assert_eq!(LaneBackend::default(), LaneBackend::new(Lanes::L8));
    }

    #[test]
    fn backends_running_the_same_kernel_share_one_tuning_sweep() {
        // lanes8, lanes16 and simd-<best> are one kernel on a host with an
        // explicit ISA: the cache must hand all three the same measurement.
        let Some(simd) = SimdBackend::best() else {
            eprintln!("skipped: no explicit-SIMD ISA on this host");
            return;
        };
        let rate = simd.tuned_rate(HashAlgo::Sha1);
        for lanes in [Lanes::L8, Lanes::L16] {
            assert_eq!(LaneBackend::new(lanes).tuned_rate(HashAlgo::Sha1), rate, "{lanes}");
        }
    }

    #[test]
    fn auto_races_explicit_kernels_only_where_one_exists() {
        let candidates = AutoBackend::candidates();
        let explicit = SimdIsa::ALL.into_iter().filter(|i| i.is_available()).count();
        if explicit == 0 {
            assert_eq!(
                candidates,
                [Kernel::Portable(Lanes::L8), Kernel::Portable(Lanes::L16)]
            );
        } else {
            assert_eq!(candidates.len(), explicit);
            assert!(candidates.iter().all(|k| matches!(k, Kernel::Simd(_))));
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
            assert_eq!(out.hits[0].1.as_bytes(), b"dog", "{lanes}");
        }
    }

    #[test]
    fn tuned_rate_is_positive_and_cached() {
        let first = LaneBackend::default().tuned_rate(HashAlgo::Md5);
        assert!(first > 0.0);
        // Second call must hit the cache and return the identical value.
        let second = LaneBackend::default().tuned_rate(HashAlgo::Md5);
        assert_eq!(first, second);
    }

    #[test]
    fn simd_backend_construction_mirrors_detection_and_errors_kindly() {
        for isa in SimdIsa::ALL {
            match SimdBackend::new(isa) {
                Ok(b) => {
                    assert!(isa.is_available());
                    assert_eq!(b.isa(), isa);
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
    fn simd_backend_agrees_with_scalar() {
        let Some(b) = SimdBackend::best() else {
            eprintln!("skipped: no explicit-SIMD ISA on this host");
            return;
        };
        let s = space();
        let t = targets(&[b"cat", b"mnop"]);
        let stop = AtomicBool::new(false);
        let reference = ScalarBackend.scan(&s, &t, s.interval(), &stop, ScanMode::Exhaustive);
        let got = b.scan(&s, &t, s.interval(), &stop, ScanMode::Exhaustive);
        assert_eq!(got.hits, reference.hits);
        assert_eq!(got.tested, reference.tested);
    }

    #[test]
    fn auto_backend_picks_a_winner_and_agrees_with_scalar() {
        let auto = AutoBackend::new(Telemetry::disabled());
        let s = space();
        let t = targets(&[b"cat", b"mnop"]);
        let stop = AtomicBool::new(false);
        let reference = ScalarBackend.scan(&s, &t, s.interval(), &stop, ScanMode::Exhaustive);
        let got = auto.scan(&s, &t, s.interval(), &stop, ScanMode::Exhaustive);
        assert_eq!(got.hits, reference.hits);
        assert_eq!(got.tested, reference.tested);
        assert_eq!(auto.name(), "auto");
        // The winner is a real implementation with a cached positive rate.
        let name = auto.choice_name(HashAlgo::Md5);
        assert!(
            name.starts_with("lanes") || name.starts_with("simd-"),
            "{name}"
        );
        assert!(auto.tuned_rate(HashAlgo::Md5) > 0.0);
        // Choices are per algorithm and stable across calls.
        assert_eq!(name, auto.choice_name(HashAlgo::Md5));
    }

    #[test]
    fn auto_backend_tunes_at_least_as_fast_as_every_lane_width() {
        let auto = AutoBackend::new(Telemetry::disabled());
        for algo in [HashAlgo::Md5, HashAlgo::Sha1, HashAlgo::Ntlm] {
            let best = auto.tuned_rate(algo);
            for lanes in [Lanes::L8, Lanes::L16] {
                assert!(
                    best >= LaneBackend::new(lanes).tuned_rate(algo),
                    "{algo:?}: auto ({best}) slower than {lanes}"
                );
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
