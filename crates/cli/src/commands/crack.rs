//! `eks crack` — the flagship search command — and its flag grammar.
//!
//! Every search — charset range, `--mask`, `--words` — builds its space
//! and falls into one tail ([`Run::search`]): one backend, one
//! `crack_parallel_backend_observed` call, so `--backend`, `--isa`,
//! `--sched`, `--retune`, `--progress`, `--stats` and the telemetry flags
//! mean the same thing whatever is being enumerated. (Salted targets
//! still take a single-threaded streaming loop of their own.)

use crate::args::Args;
use eks_cluster::SimKernelBackend;
use eks_cracker::{
    crack_parallel_backend_observed, render_worker_stats, CpuBackend, HashTarget, Lanes,
    ParallelConfig, ScalarBackend, TargetSet,
};
use eks_engine::{Backend, BackendKind, ProgressEvent, SchedPolicy};
use eks_gpusim::device::DeviceCatalog;
use eks_hashes::{from_hex, HashAlgo, SimdIsa};
use eks_keyspace::{BlockSpace, HybridSpace, Interval, KeySpace, MaskSpace, Order};
use eks_telemetry::{names, Telemetry};

use super::{
    arm_flight_recorder, parse_algo, parse_charset, parse_chunk, parse_retune, parse_sched,
    parse_telemetry, parse_threads, spawn_metrics_server, write_artifacts, Logger,
};

/// `--batch` opts into the lane-batched path explicitly (it is already the
/// default); `--lanes scalar|8|16` picks the width. The combination
/// `--batch --lanes scalar` is contradictory and rejected.
fn parse_lanes(args: &Args) -> Result<Lanes, String> {
    let lanes = match args.get("lanes") {
        Some(s) => {
            Lanes::parse(s).ok_or(format!("unsupported --lanes {s:?} (scalar, 8 or 16)"))?
        }
        None => Lanes::default(),
    };
    if args.has("batch") && lanes == Lanes::Scalar {
        return Err("--batch contradicts --lanes scalar".into());
    }
    Ok(lanes)
}

/// The engine backend of a search over `S`: `--backend scalar|cpu|simgpu`,
/// or the `cpu` backend for `--lanes` when none is named. `cpu` runs the
/// widest explicit-SIMD kernel the CPU has, else the portable lanes;
/// `--isa avx2|avx512|neon` forces one ISA instead (an unavailable one is
/// a CLI error naming what the CPU supports); `simgpu` is whatever the
/// caller's `simgpu` builds — the simulated kernel of `--device` for a
/// charset space, a usage error for any other. Older spellings still
/// parse: `lanes8`, `lanes16`, `auto` = `cpu`; `simd` = `cpu` but an
/// error without an explicit ISA.
/// `--backend` subsumes `--lanes`/`--batch`, so combining them is
/// rejected.
fn parse_backend<S: BlockSpace + 'static>(
    args: &Args,
    lanes: Lanes,
    telemetry: &Telemetry,
    simgpu: impl FnOnce() -> Result<Box<dyn Backend<S>>, String>,
) -> Result<Box<dyn Backend<S>>, String> {
    let spelling = args.get("backend");
    if spelling.is_some() && (args.has("lanes") || args.has("batch")) {
        return Err("--backend conflicts with --lanes/--batch".into());
    }
    let kind = match spelling {
        Some(s) => BackendKind::parse(s)
            .ok_or(format!("unsupported --backend {s:?} (scalar, cpu or simgpu)"))?,
        None if lanes == Lanes::Scalar => BackendKind::Scalar,
        None => BackendKind::Cpu,
    };
    if args.has("isa") && kind != BackendKind::Cpu {
        return Err("--isa applies only to the cpu backend".into());
    }
    Ok(match kind {
        BackendKind::Scalar => Box::new(ScalarBackend),
        BackendKind::Cpu => {
            let backend = match (args.get("isa"), spelling) {
                (Some(name), _) => {
                    let isa = SimdIsa::parse(name)
                        .ok_or(format!("unsupported --isa {name:?} (avx2, avx512 or neon)"))?;
                    CpuBackend::new(isa)?
                }
                (None, Some("simd")) => CpuBackend::best().ok_or(
                    "no explicit-SIMD ISA detected on this CPU; \
                     use --backend cpu for the portable-lane fallback",
                )?,
                (None, _) => CpuBackend::detect(lanes),
            };
            Box::new(backend.with_telemetry(telemetry.clone()))
        }
        BackendKind::SimGpu => simgpu()?,
    })
}

/// `--backend simgpu` over a mask or a hybrid dictionary.
fn charset_keys_only<S>() -> Result<Box<dyn Backend<S>>, String> {
    Err("--backend simgpu searches charset keyspaces only: the simulated kernel \
         generates charset keys, not --mask/--words candidates"
        .into())
}

/// How often the periodic progress line refreshes (telemetry-clock ns).
const PROGRESS_EVERY_NS: u64 = 500_000_000;

/// Format one progress line from a merged-scan observation: percent of
/// the keyspace, aggregate rate, and the ETA at that rate. All three
/// derive from the guarded [`ProgressEvent`] helpers, so a
/// zero-duration run prints zeros instead of NaN.
fn progress_line(e: &ProgressEvent, total: u128, elapsed_secs: f64) -> String {
    let eta = match e.eta_secs(total, elapsed_secs) {
        Some(s) => format!("{s:.0} s"),
        None => "unknown".into(),
    };
    format!(
        "progress: {:.1}% of keyspace, {:.2} MKey/s, eta {eta}",
        e.percent_of(total),
        e.keys_per_sec(elapsed_secs) / 1e6,
    )
}

/// What every `eks crack` search shares once the flags that do not
/// depend on the space are parsed.
struct Run<'a> {
    args: &'a Args,
    algo: HashAlgo,
    digest: Vec<u8>,
    threads: usize,
    lanes: Lanes,
    telemetry: Telemetry,
    log: Logger,
}

pub(super) fn cmd_crack(args: &Args) -> Result<(), String> {
    let algo = parse_algo(args)?;
    let digest_hex = args
        .get("digest")
        .ok_or("crack requires --digest <hex>")?;
    let digest = from_hex(digest_hex).ok_or("digest is not valid hex")?;
    if digest.len() != algo.digest_len() {
        return Err(format!(
            "digest length {} does not match {} ({} bytes)",
            digest.len(),
            algo.name(),
            algo.digest_len()
        ));
    }
    let threads = parse_threads(args, 8)?;
    let lanes = parse_lanes(args)?;
    let (telemetry, log) = parse_telemetry(args)?;
    let _metrics_server = spawn_metrics_server(args, &telemetry, None)?;
    arm_flight_recorder(args, &telemetry);
    let run = Run { args, algo, digest, threads, lanes, telemetry, log };

    // Mask attack: --mask "?u?l?l?d?d".
    if let Some(mask) = args.get("mask") {
        let space = MaskSpace::parse(mask).map_err(|e| e.to_string())?;
        return run.search(&space, format!("mask {mask}"), charset_keys_only);
    }

    // Hybrid attack: --words w1,w2,... [--suffix-digits N].
    if let Some(words) = args.get("words") {
        let list: Vec<&[u8]> = words.split(',').map(|w| w.as_bytes()).collect();
        let digits: u32 = args.get_parse_or("suffix-digits", 2)?;
        let space =
            HybridSpace::with_digit_suffixes(&list, digits).map_err(|e| format!("--words: {e}"))?;
        let what = format!("hybrid: {} words x digit suffixes 0..={digits}", space.word_count());
        return run.search(&space, what, charset_keys_only);
    }

    let charset = parse_charset(args)?;
    let min: u32 = args.get_parse_or("min", 1)?;
    let max: u32 = args.get_parse_or("max", 5)?;
    let space = KeySpace::new(charset, min, max, Order::FirstCharFastest)
        .map_err(|e| e.to_string())?;
    if args.get("salt-prefix").is_some() || args.get("salt-suffix").is_some() {
        return run.stream_salted(&space);
    }
    run.search(&space, format!("{} lengths {min}..={max}", algo.name()), || {
        let device =
            DeviceCatalog::find(args.get_or("device", "660")).ok_or("unknown --device")?;
        Ok(Box::new(SimKernelBackend::new(device)))
    })
}

impl Run<'_> {
    /// Salted targets: the streaming path, one candidate at a time on one
    /// thread — no backend, no dispatcher, so their flags do not apply.
    fn stream_salted(&self, space: &KeySpace) -> Result<(), String> {
        let args = self.args;
        for flag in ["backend", "isa", "sched", "retune", "retune-interval"] {
            if args.has(flag) {
                return Err(format!("--{flag} does not apply to salted targets (streaming path)"));
            }
        }
        self.log.info(format!("searching {} salted candidates", space.size()));
        let prefix = args.get_or("salt-prefix", "").as_bytes().to_vec();
        let suffix = args.get_or("salt-suffix", "").as_bytes().to_vec();
        let target = HashTarget::salted(self.algo, &self.digest, &prefix, &suffix);
        let mut found = None;
        space.iter(space.interval()).for_each_key(|id, key| {
            if target.matches(key) {
                found = Some((id, key.clone()));
                false
            } else {
                true
            }
        });
        match found {
            Some((id, key)) => {
                println!("FOUND: \"{key}\" (identifier {id})");
                Ok(())
            }
            None => Err("not found in this keyspace".into()),
        }
    }

    /// The one search tail: backend, scheduler, progress, gauges, the
    /// dispatcher-driven search over the whole of `space`, `--stats`,
    /// artifacts, the report. `what` names the space in the header line.
    fn search<S: BlockSpace + Sync + 'static>(
        &self,
        space: &S,
        what: String,
        simgpu: impl FnOnce() -> Result<Box<dyn Backend<S>>, String>,
    ) -> Result<(), String> {
        let (args, algo, threads) = (self.args, self.algo, self.threads);
        let (telemetry, log) = (&self.telemetry, &self.log);
        let backend = parse_backend(args, self.lanes, telemetry, simgpu)?;
        let mut config = ParallelConfig {
            first_hit_only: !args.has("all"),
            lanes: self.lanes,
            sched: parse_sched(args, SchedPolicy::Steal)?,
            retune: parse_retune(args)?,
            ..ParallelConfig::for_threads(threads)
        };
        if let Some(c) = parse_chunk(args)? {
            config.chunk = c;
        }
        let total = space.size().ok_or("the search space does not fit 128 bits")?;
        // `simd-avx512`, `lanes8 [avx512]`, `scalar`: what will run.
        let name = backend.name();
        let isa = backend.isa(algo);
        let kernel = match &isa {
            Some(isa) if !name.ends_with(isa.as_str()) => format!("{name} [{isa}]"),
            _ => name.clone(),
        };
        log.info(format!(
            "searching {total} candidates ({what}) with {threads} threads, kernel {kernel}"
        ));
        let targets = TargetSet::new(algo, std::slice::from_ref(&self.digest));
        // Periodic progress line: throttled to one refresh per
        // PROGRESS_EVERY_NS on the telemetry clock (an injected ManualClock
        // therefore controls exactly which refreshes print), derived from
        // the merged-scan observations the dispatcher already emits (no
        // extra hot-path work).
        let start_ns = telemetry.now_ns();
        let throttle = eks_telemetry::Throttle::new(start_ns, PROGRESS_EVERY_NS);
        let want_progress = args.has("progress");
        // Hidden test hook for the CI flight-recorder gate: panic after the
        // N-th merged chunk, mid-search, so the armed --flight hook dumps a
        // black box that `eks postmortem` must replay.
        let panic_after: Option<u64> = match args.get("panic-after-chunks") {
            Some(s) => {
                Some(s.parse().map_err(|_| format!("invalid --panic-after-chunks {s:?}"))?)
            }
            None => None,
        };
        let chunks_seen = std::sync::atomic::AtomicU64::new(0);
        let progress = |e: &ProgressEvent| {
            if let Some(n) = panic_after {
                let seen = chunks_seen.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
                assert!(seen < n, "forced panic after {n} chunks (--panic-after-chunks)");
            }
            if !want_progress {
                return;
            }
            let now_ns = telemetry.now_ns();
            if !throttle.ready(now_ns) {
                return;
            }
            log.progress(progress_line(e, total, now_ns.saturating_sub(start_ns) as f64 / 1e9));
        };
        // Record which kernel specialization the backend selected (the §V
        // per-architecture choice) and its tuned rate, so `eks report` can
        // show them next to the cost-model terms. Guarded on the enabled
        // handle because the tuned rate runs a short timed sweep.
        if telemetry.is_enabled() {
            if let Some(isa) = &isa {
                telemetry.gauge(names::BACKEND_ISA, &[("backend", &name), ("isa", isa)]).set(1.0);
            }
            telemetry
                .gauge(names::BACKEND_RATE_MKEYS, &[("backend", &name)])
                .set(backend.tuned_rate(algo));
        }
        let report = crack_parallel_backend_observed(
            space,
            &targets,
            Interval::new(0, total),
            backend.as_ref(),
            config,
            telemetry,
            progress,
        );
        if args.has("stats") {
            print!("{}", render_worker_stats(&report.stats));
        }
        write_artifacts(args, telemetry, log)?;
        if report.hits.is_empty() {
            return Err(format!(
                "not found; tested {} keys at {:.2} MKey/s",
                report.tested, report.mkeys_per_s
            ));
        }
        for (id, key, _) in &report.hits {
            println!("FOUND: \"{key}\" (identifier {id})");
        }
        println!(
            "tested {} keys in {:.3} s ({:.2} MKey/s)",
            report.tested, report.elapsed_s, report.mkeys_per_s
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::args::Args;
    use crate::commands::run;
    use eks_hashes::{to_hex, HashAlgo, SimdIsa};
    use eks_telemetry::{names, parse_prometheus};

    fn args(s: &[&str]) -> Args {
        Args::parse(s.iter().map(|x| x.to_string())).unwrap()
    }

    #[test]
    fn crack_round_trip() {
        let digest = to_hex(&HashAlgo::Md5.hash(b"cab"));
        let a = args(&["crack", "--algo", "md5", "--digest", &digest, "--max", "3", "--threads", "2"]);
        assert!(run("crack", &a).is_ok());
    }

    #[test]
    fn crack_lanes_flags() {
        let digest = to_hex(&HashAlgo::Md5.hash(b"cab"));
        for lanes in ["scalar", "8", "16"] {
            let a = args(&[
                "crack", "--digest", &digest, "--max", "3", "--threads", "2", "--lanes", lanes,
            ]);
            assert!(run("crack", &a).is_ok(), "--lanes {lanes}");
        }
        let a = args(&["crack", "--digest", &digest, "--max", "3", "--batch"]);
        assert!(run("crack", &a).is_ok(), "--batch is the default made explicit");
        let bad = args(&["crack", "--digest", &digest, "--lanes", "32"]);
        assert!(run("crack", &bad).is_err(), "unsupported width");
        let contradiction =
            args(&["crack", "--digest", &digest, "--batch", "--lanes", "scalar"]);
        assert!(run("crack", &contradiction).is_err());
    }

    #[test]
    fn crack_backend_flag() {
        let digest = to_hex(&HashAlgo::Md5.hash(b"cab"));
        // The three kinds, then the older spellings of `cpu`.
        let mut backends = vec!["scalar", "cpu", "simgpu", "lanes8", "lanes16", "auto"];
        if SimdIsa::detect().is_some() {
            backends.push("simd");
        }
        for backend in backends {
            let a = args(&[
                "crack", "--digest", &digest, "--max", "3", "--threads", "2", "--backend", backend,
            ]);
            assert!(run("crack", &a).is_ok(), "--backend {backend}");
        }
        // `--isa <detected>` forces the cpu backend's kernel, named or not.
        if let Some(isa) = SimdIsa::detect() {
            for backend in [&["--backend", "cpu"][..], &["--backend", "simd"], &["--lanes", "16"], &[]] {
                let mut argv =
                    vec!["crack", "--digest", &digest, "--max", "3", "--isa", isa.name()];
                argv.extend_from_slice(backend);
                assert!(run("crack", &args(&argv)).is_ok(), "--isa {isa} with {backend:?}");
            }
        }
        let bad = args(&["crack", "--digest", &digest, "--backend", "cuda"]);
        assert!(run("crack", &bad).is_err(), "unknown backend");
        let bad_isa = args(&[
            "crack", "--digest", &digest, "--backend", "simd", "--isa", "mmx",
        ]);
        assert!(run("crack", &bad_isa).is_err(), "unknown --isa");
        for other in [&["--backend", "scalar"][..], &["--backend", "simgpu"], &["--lanes", "scalar"]] {
            let mut argv = vec!["crack", "--digest", &digest, "--max", "3", "--isa", "avx2"];
            argv.extend_from_slice(other);
            let err = run("crack", &args(&argv)).expect_err("--isa needs the cpu backend");
            assert!(err.contains("--isa"), "{other:?}: {err}");
        }
        // Forcing an ISA the CPU lacks must be a friendly error, not a
        // panic; at most one of the ISAs can be the detected one.
        for isa in ["avx2", "avx512", "neon"] {
            if SimdIsa::parse(isa).is_some_and(|i| i.is_available()) {
                continue;
            }
            let forced = args(&["crack", "--digest", &digest, "--max", "3", "--isa", isa]);
            let err = run("crack", &forced).expect_err("unavailable --isa");
            assert!(err.contains("detected"), "--isa {isa} names the detected set: {err}");
        }
        let conflict =
            args(&["crack", "--digest", &digest, "--backend", "scalar", "--lanes", "8"]);
        assert!(run("crack", &conflict).is_err(), "--backend conflicts with --lanes");
        // The same flags drive a mask or a hybrid search: one tail.
        let detected = SimdIsa::detect().map(SimdIsa::name);
        let mut flags = vec![vec!["--backend", "scalar"], vec!["--backend", "cpu"], vec!["--stats"]];
        flags.extend(detected.map(|isa| vec!["--backend", "cpu", "--isa", isa]));
        for flag in flags {
            for space in [&["--mask", "?l?l?l"][..], &["--words", "cab,dog", "--suffix-digits", "1"]] {
                let mut argv = vec!["crack", "--digest", &digest, "--threads", "2"];
                argv.extend_from_slice(space);
                argv.extend_from_slice(&flag);
                assert!(run("crack", &args(&argv)).is_ok(), "{flag:?} with {space:?}");
            }
        }
        // ... except the simulated GPU, whose kernel generates charset keys.
        let masked =
            args(&["crack", "--digest", &digest, "--backend", "simgpu", "--mask", "?l?l?l"]);
        let err = run("crack", &masked).expect_err("simgpu cannot enumerate a mask");
        assert!(err.contains("charset keys"), "{err}");
        let nodev =
            args(&["crack", "--digest", &digest, "--backend", "simgpu", "--device", "voodoo2"]);
        assert!(run("crack", &nodev).is_err(), "unknown simgpu device");
    }

    #[test]
    fn crack_sched_and_chunk_flags() {
        let digest = to_hex(&HashAlgo::Md5.hash(b"cab"));
        for sched in ["static", "queue", "steal"] {
            let a = args(&[
                "crack", "--digest", &digest, "--max", "3", "--threads", "2", "--sched", sched,
            ]);
            assert!(run("crack", &a).is_ok(), "--sched {sched}");
        }
        let a = args(&["crack", "--digest", &digest, "--max", "3", "--chunk", "1024", "--stats"]);
        assert!(run("crack", &a).is_ok(), "--chunk override with stats table");
        let bad = args(&["crack", "--digest", &digest, "--sched", "fifo"]);
        assert!(run("crack", &bad).is_err(), "unknown policy");
        for sched in ["static", "queue", "steal"] {
            let masked = args(&[
                "crack", "--digest", &digest, "--threads", "2", "--sched", sched, "--mask", "?l?l?l",
            ]);
            assert!(run("crack", &masked).is_ok(), "--sched {sched} with --mask");
        }
    }

    #[test]
    fn crack_retune_flags() {
        let digest = to_hex(&HashAlgo::Md5.hash(b"cab"));
        let a = args(&[
            "crack", "--digest", &digest, "--max", "3", "--threads", "2", "--all", "--retune",
        ]);
        assert!(run("crack", &a).is_ok(), "--retune");
        // --retune-interval implies --retune.
        let a = args(&[
            "crack", "--digest", &digest, "--max", "3", "--threads", "2",
            "--retune-interval", "4",
        ]);
        assert!(run("crack", &a).is_ok(), "--retune-interval alone");
        let bad = args(&["crack", "--digest", &digest, "--retune-interval", "0"]);
        let err = run("crack", &bad).expect_err("interval 0 must be rejected");
        assert!(err.contains("--retune-interval"), "{err}");
        let bad = args(&["crack", "--digest", &digest, "--retune-interval", "soon"]);
        assert!(run("crack", &bad).is_err(), "non-numeric interval");
        let masked = args(&[
            "crack", "--digest", &digest, "--threads", "2", "--all", "--retune", "--mask", "?l?l?l",
        ]);
        assert!(run("crack", &masked).is_ok(), "--retune with --mask");
    }

    #[test]
    fn crack_chunk_zero_is_a_usage_error_not_a_panic() {
        let digest = to_hex(&HashAlgo::Md5.hash(b"cab"));
        let a = args(&["crack", "--digest", &digest, "--max", "3", "--chunk", "0"]);
        let err = run("crack", &a).expect_err("chunk 0 must be rejected");
        assert!(err.contains("--chunk"), "{err}");
        let a = args(&["crack", "--digest", &digest, "--chunk", "lots"]);
        assert!(run("crack", &a).is_err(), "non-numeric chunk");
        let a = args(&["crack", "--digest", &digest, "--threads", "0"]);
        let err = run("crack", &a).expect_err("threads 0 must be rejected");
        assert!(err.contains("--threads"), "{err}");
    }

    #[test]
    fn crack_records_isa_and_tuned_rate_gauges_with_and_without_a_backend_flag() {
        let dir = std::env::temp_dir();
        let digest = to_hex(&HashAlgo::Md5.hash(b"zzz"));
        let detected = SimdIsa::detect().map_or("autovec", SimdIsa::name);
        for (tag, backend, isa, keys) in [
            ("default", &[][..], detected, 18_278.0),
            ("auto", &["--backend", "auto"], detected, 18_278.0),
            ("scalar", &["--lanes", "scalar"], "scalar", 18_278.0),
            // A structured space reports through the same registry.
            ("mask", &["--mask", "?l?l?l"], detected, 17_576.0),
        ] {
            let metrics = dir.join(format!("eks-cli-isa-{tag}-{}.prom", std::process::id()));
            let mut argv = vec![
                "crack", "--digest", &digest, "--max", "3", "--threads", "2", "--all",
                "--metrics-out", metrics.to_str().unwrap(),
            ];
            argv.extend_from_slice(backend);
            assert!(run("crack", &args(&argv)).is_ok(), "{tag}");
            let samples = parse_prometheus(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
            let tested: f64 =
                samples.iter().filter(|s| s.name == names::KEYS_TESTED).map(|s| s.value).sum();
            assert_eq!(tested, keys, "{tag}: eks_keys_tested_total covers the space");
            assert!(
                samples.iter().any(|s| s.name == names::BACKEND_ISA
                    && s.label("isa") == Some(isa)
                    && s.value == 1.0),
                "{tag}: {samples:?}"
            );
            assert!(
                samples.iter().any(|s| s.name == names::BACKEND_RATE_MKEYS && s.value > 0.0),
                "{tag}: {samples:?}"
            );
            std::fs::remove_file(&metrics).ok();
        }
    }

    #[test]
    fn quiet_and_verbose_conflict_is_a_usage_error() {
        let digest = to_hex(&HashAlgo::Md5.hash(b"cab"));
        let a = args(&["crack", "--digest", &digest, "--max", "3", "--quiet", "--verbose"]);
        let err = run("crack", &a).expect_err("contradictory levels");
        assert!(err.contains("--quiet"), "{err}");
        // Each alone is fine, as is the progress flag.
        let q = args(&["crack", "--digest", &digest, "--max", "3", "--quiet"]);
        assert!(run("crack", &q).is_ok());
        let p = args(&["crack", "--digest", &digest, "--max", "3", "--progress", "--verbose"]);
        assert!(run("crack", &p).is_ok());
    }

    #[test]
    fn crack_salted_round_trip() {
        let digest = to_hex(&HashAlgo::Sha1.hash_long(b"s-ab"));
        let a = args(&[
            "crack", "--algo", "sha1", "--digest", &digest, "--max", "2", "--salt-prefix", "s-",
        ]);
        assert!(run("crack", &a).is_ok());
        // The streaming path has no backend or scheduler to configure.
        let a = args(&[
            "crack", "--algo", "sha1", "--digest", &digest, "--max", "2", "--salt-prefix", "s-",
            "--sched", "steal",
        ]);
        let err = run("crack", &a).expect_err("--sched with a salt");
        assert!(err.contains("--sched"), "{err}");
    }

    #[test]
    fn crack_rejects_bad_digest() {
        let a = args(&["crack", "--digest", "zz"]);
        assert!(run("crack", &a).is_err());
        let a = args(&["crack", "--digest", "aabb"]);
        assert!(run("crack", &a).is_err(), "wrong length");
    }

    #[test]
    fn crack_reports_not_found() {
        // An impossible digest over a tiny space.
        let a = args(&["crack", "--digest", &"00".repeat(16), "--max", "2", "--threads", "1"]);
        assert!(run("crack", &a).is_err());
    }

    #[test]
    fn mask_attack_via_cli() {
        let digest = to_hex(&HashAlgo::Md5.hash(b"Ab1"));
        let a = args(&["crack", "--digest", &digest, "--mask", "?u?l?d", "--threads", "2"]);
        assert!(run("crack", &a).is_ok());
        let bad = args(&["crack", "--digest", &digest, "--mask", "?z"]);
        assert!(run("crack", &bad).is_err());
    }

    #[test]
    fn hybrid_attack_via_cli() {
        let digest = to_hex(&HashAlgo::Md5.hash(b"cat7"));
        let a = args(&["crack", "--digest", &digest, "--words", "dog,cat", "--suffix-digits", "1"]);
        assert!(run("crack", &a).is_ok());
    }

    #[test]
    fn hybrid_errors_name_the_flag_and_the_word_as_text() {
        let digest = to_hex(&HashAlgo::Md5.hash(b"cat7"));
        let long = "a".repeat(30);
        let words = format!("dog,{long}");
        let a = args(&["crack", "--digest", &digest, "--words", &words]);
        let err = run("crack", &a).expect_err("a 30-byte word does not fit a key");
        assert!(err.starts_with("--words: "), "{err}");
        assert!(err.contains(&format!("\"{long}\"")), "{err}");
        let a = args(&["crack", "--digest", &digest, "--words", "dog,,cat"]);
        let err = run("crack", &a).expect_err("an empty word");
        assert!(err.starts_with("--words: ") && err.contains("empty word"), "{err}");
    }

    #[test]
    fn ntlm_crack_via_cli() {
        let digest = to_hex(&HashAlgo::Ntlm.hash(b"cab"));
        let a = args(&["crack", "--algo", "ntlm", "--digest", &digest, "--max", "3", "--threads", "2"]);
        assert!(run("crack", &a).is_ok());
    }

    #[test]
    fn custom_charset() {
        let digest = to_hex(&HashAlgo::Md5.hash(b"cb"));
        let a = args(&["crack", "--digest", &digest, "--charset", "abc", "--max", "2"]);
        assert!(run("crack", &a).is_ok());
    }
}
