//! `eks crack` — the flagship search command — and its flag grammar.

use crate::args::Args;
use eks_cluster::SimKernelBackend;
use eks_cracker::{
    cpu_backend, crack_parallel_backend_observed, crack_space_parallel, render_worker_stats,
    CpuBackend, HashTarget, Kernel, Lanes, ParallelConfig, TargetSet,
};
use eks_engine::{Backend, BackendKind, ProgressEvent, SchedPolicy};
use eks_gpusim::device::DeviceCatalog;
use eks_hashes::{from_hex, SimdIsa};
use eks_telemetry::{names, Telemetry};
use eks_keyspace::{KeySpace, Order};

use super::{
    arm_flight_recorder, parse_algo, parse_charset, parse_chunk, parse_retune, parse_sched,
    parse_telemetry, parse_threads, spawn_metrics_server, write_artifacts,
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

/// The engine backend of a plain charset search: `--backend
/// scalar|cpu|simgpu`, or the `cpu` backend for `--lanes` when none is
/// named. `cpu` runs the widest explicit-SIMD kernel the CPU has, else
/// the portable lanes; `--isa avx2|avx512|neon` forces one ISA instead
/// (an unavailable one is a CLI error naming what the CPU supports);
/// `simgpu` drives the kernel of the device picked by `--device`
/// (default: the GTX 660). Older spellings still parse: `lanes8`,
/// `lanes16`, `auto` = `cpu`; `simd` = `cpu` but an error without an
/// explicit ISA.
/// `--backend` subsumes `--lanes`/`--batch`, so combining them is
/// rejected.
fn parse_backend(
    args: &Args,
    lanes: Lanes,
    telemetry: &Telemetry,
) -> Result<Box<dyn Backend>, String> {
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
        BackendKind::Scalar => cpu_backend(Lanes::Scalar),
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
        BackendKind::SimGpu => {
            let device =
                DeviceCatalog::find(args.get_or("device", "660")).ok_or("unknown --device")?;
            Box::new(SimKernelBackend::new(device))
        }
    })
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
    let backend = parse_backend(args, lanes, &telemetry)?;
    let chunk = parse_chunk(args)?;
    let sched = parse_sched(args, SchedPolicy::Steal)?;
    let retune = parse_retune(args)?;
    let structured = args.get("mask").is_some()
        || args.get("words").is_some()
        || args.get("salt-prefix").is_some()
        || args.get("salt-suffix").is_some();
    if (args.has("backend") || args.has("isa")) && structured {
        return Err("--backend/--isa apply only to plain charset searches".into());
    }
    if args.get("sched").is_some() && structured {
        return Err("--sched applies only to plain charset searches".into());
    }
    if retune.is_some() && structured {
        return Err("--retune applies only to plain charset searches".into());
    }

    // Mask and hybrid attacks run the shared-cursor search over the
    // space's own block writer, on the kernel `--lanes` selects.
    let structured_config = |default_chunk| ParallelConfig {
        threads,
        chunk: chunk.unwrap_or(default_chunk),
        first_hit_only: !args.has("all"),
        lanes,
        ..ParallelConfig::default()
    };
    // `simd-avx512`, `lanes8 [autovec]`, `scalar`: what will run.
    let kernel = || {
        let kernel = Kernel::detect_for(lanes, algo);
        let (name, isa) = (kernel.name(), kernel.isa());
        if name.ends_with(isa) { name } else { format!("{name} [{isa}]") }
    };

    // Mask attack: --mask "?u?l?l?d?d".
    if let Some(mask) = args.get("mask") {
        let space = eks_keyspace::MaskSpace::parse(mask).map_err(|e| e.to_string())?;
        log.info(format!(
            "mask {mask}: {} candidates, {threads} threads, kernel {}",
            space.size(),
            kernel()
        ));
        let targets = TargetSet::new(algo, &[digest]);
        let report = crack_space_parallel(&space, &targets, structured_config(1 << 12));
        return finish_structured(args, &telemetry, &log, report);
    }

    // Hybrid attack: --words w1,w2,... [--suffix-digits N].
    if let Some(words) = args.get("words") {
        let list: Vec<&[u8]> = words.split(',').map(|w| w.as_bytes()).collect();
        let digits: u32 = args.get_parse_or("suffix-digits", 2)?;
        let space = eks_keyspace::HybridSpace::with_digit_suffixes(&list, digits)
            .map_err(|e| format!("{e:?}"))?;
        log.info(format!(
            "hybrid: {} words x digit suffixes 0..={digits} = {} candidates, kernel {}",
            space.word_count(),
            space.size(),
            kernel()
        ));
        let targets = TargetSet::new(algo, &[digest]);
        let report = crack_space_parallel(&space, &targets, structured_config(256));
        return finish_structured(args, &telemetry, &log, report);
    }

    let charset = parse_charset(args)?;
    let min: u32 = args.get_parse_or("min", 1)?;
    let max: u32 = args.get_parse_or("max", 5)?;
    let space = KeySpace::new(charset, min, max, Order::FirstCharFastest)
        .map_err(|e| e.to_string())?;
    log.info(format!(
        "searching {} candidates ({} lengths {min}..={max}) with {threads} threads",
        space.size(),
        algo.name()
    ));

    let salted = args.get("salt-prefix").is_some() || args.get("salt-suffix").is_some();
    if salted {
        // Salted targets go through the streaming path, one at a time.
        let prefix = args.get_or("salt-prefix", "").as_bytes().to_vec();
        let suffix = args.get_or("salt-suffix", "").as_bytes().to_vec();
        let target = HashTarget::salted(algo, &digest, &prefix, &suffix);
        let mut found = None;
        space.iter(space.interval()).for_each_key(|id, key| {
            if target.matches(key) {
                found = Some((id, key.clone()));
                false
            } else {
                true
            }
        });
        return match found {
            Some((id, key)) => {
                println!("FOUND: \"{key}\" (identifier {id})");
                Ok(())
            }
            None => Err("not found in this keyspace".into()),
        };
    }

    let targets = TargetSet::new(algo, &[digest]);
    let mut config = ParallelConfig {
        first_hit_only: !args.has("all"),
        lanes,
        sched,
        retune,
        ..ParallelConfig::for_threads(threads)
    };
    if let Some(c) = chunk {
        config.chunk = c;
    }
    // Periodic progress line: throttled to one refresh per
    // PROGRESS_EVERY_NS on the telemetry clock (an injected ManualClock
    // therefore controls exactly which refreshes print), derived from
    // the merged-scan observations the dispatcher already emits (no
    // extra hot-path work).
    let total = space.size();
    let start_ns = telemetry.now_ns();
    let throttle = eks_telemetry::Throttle::new(start_ns, PROGRESS_EVERY_NS);
    let want_progress = args.has("progress");
    // Hidden test hook for the CI flight-recorder gate: panic after the
    // N-th merged chunk, mid-search, so the armed --flight hook dumps a
    // black box that `eks postmortem` must replay.
    let panic_after: Option<u64> = match args.get("panic-after-chunks") {
        Some(s) => Some(s.parse().map_err(|_| format!("invalid --panic-after-chunks {s:?}"))?),
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
        let name = backend.name();
        if let Some(isa) = backend.isa(algo) {
            telemetry.gauge(names::BACKEND_ISA, &[("backend", &name), ("isa", &isa)]).set(1.0);
        }
        telemetry
            .gauge(names::BACKEND_RATE_MKEYS, &[("backend", &name)])
            .set(backend.tuned_rate(algo));
    }
    let report = crack_parallel_backend_observed(
        &space,
        &targets,
        space.interval(),
        backend.as_ref(),
        config,
        &telemetry,
        progress,
    );
    if args.has("stats") {
        print!("{}", render_worker_stats(&report.stats));
    }
    write_artifacts(args, &telemetry, &log)?;
    finish_report(report)
}

/// The tail of a mask / hybrid search: `--stats`, artifacts, the report.
fn finish_structured(
    args: &Args,
    telemetry: &Telemetry,
    log: &super::Logger,
    report: eks_cracker::ParallelReport,
) -> Result<(), String> {
    if args.has("stats") {
        print!("{}", render_worker_stats(&report.stats));
    }
    write_artifacts(args, telemetry, log)?;
    finish_report(report)
}

fn finish_report(report: eks_cracker::ParallelReport) -> Result<(), String> {
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
        for flag in [["--backend", "scalar"], ["--isa", "avx2"]] {
            let masked =
                args(&["crack", "--digest", &digest, flag[0], flag[1], "--mask", "?l?l?l"]);
            assert!(run("crack", &masked).is_err(), "{} is plain-search only", flag[0]);
        }
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
        let masked =
            args(&["crack", "--digest", &digest, "--sched", "steal", "--mask", "?l?l?l"]);
        assert!(run("crack", &masked).is_err(), "--sched is plain-search only");
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
        let masked =
            args(&["crack", "--digest", &digest, "--retune", "--mask", "?l?l?l"]);
        assert!(run("crack", &masked).is_err(), "--retune is plain-search only");
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
        for (tag, backend, isa) in [
            ("default", &[][..], detected),
            ("auto", &["--backend", "auto"], detected),
            ("scalar", &["--lanes", "scalar"], "scalar"),
        ] {
            let metrics = dir.join(format!("eks-cli-isa-{tag}-{}.prom", std::process::id()));
            let mut argv = vec![
                "crack", "--digest", &digest, "--max", "3", "--threads", "2", "--all",
                "--metrics-out", metrics.to_str().unwrap(),
            ];
            argv.extend_from_slice(backend);
            assert!(run("crack", &args(&argv)).is_ok(), "{tag}");
            let samples = parse_prometheus(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
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
