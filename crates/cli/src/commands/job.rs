//! `eks job` — the multi-tenant job service spool — and `eks serve`,
//! the same service as a JSON-lines TCP protocol.
//!
//! Every subcommand operates on one `--spool` directory. `submit`
//! enqueues a schema-stamped record, `run` drives the fair-share
//! scheduler until the spool drains (safe to SIGKILL: completed leases
//! are checkpointed atomically, a restart resumes with no rescanned and
//! no skipped keys), and `serve` exposes submit/status/list/cancel over
//! a `std::net::TcpListener` — one request object per line, one
//! response per line — with a scheduler thread draining the spool in
//! the background.

use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::args::Args;
use eks_cracker::CpuBackend;
use eks_hashes::{from_hex, HashAlgo};
use eks_jobs::{
    Fleet, FleetMember, JobId, JobRecord, JobService, JobSpec, JobState, JobStore, ServiceConfig,
};
use eks_keyspace::Order;
use eks_telemetry::parse::{parse_json, Json};
use eks_telemetry::{json_string, names, DeadlineStream, Telemetry};

use super::{
    parse_algo, parse_charset, parse_telemetry, parse_threads, spawn_metrics_server,
    write_artifacts,
};

/// Dispatch `eks job <subcommand>`.
pub(super) fn cmd_job(args: &Args) -> Result<(), String> {
    let sub = args.positional(1).ok_or(
        "job requires a subcommand: submit, list, status, cancel, pause, resume or run",
    )?;
    let spool = args.get("spool").ok_or("job requires --spool <dir>")?;
    let store = JobStore::open(spool).map_err(|e| e.to_string())?;
    match sub {
        "submit" => job_submit(&store, args),
        "list" => job_list(&store),
        "status" => job_status(&store, args),
        "cancel" => job_transition(&store, args, JobState::Cancelled),
        "pause" => job_transition(&store, args, JobState::Paused),
        "resume" => job_transition(&store, args, JobState::Running),
        "run" => job_run(store, args),
        other => Err(format!(
            "unknown job subcommand {other:?} (submit, list, status, cancel, pause, resume, run)"
        )),
    }
}

/// The job id positional of `status`/`cancel`/`pause`/`resume`.
fn job_id_arg(args: &Args) -> Result<JobId, String> {
    let raw = args.positional(2).ok_or("expected a job id (e.g. job-1 or 1)")?;
    JobId::parse(raw).ok_or(format!("invalid job id {raw:?} (expected job-<n> or <n>)"))
}

fn job_submit(store: &JobStore, args: &Args) -> Result<(), String> {
    let algo = parse_algo(args)?;
    let digest_hex = args.get("digest").ok_or("job submit requires --digest <hex>")?;
    let digest = from_hex(digest_hex).ok_or("digest is not valid hex")?;
    let charset = parse_charset(args)?;
    let spec = JobSpec {
        name: args.get_or("name", "job").to_string(),
        algo,
        digest,
        charset: charset.symbols().to_vec(),
        min_len: args.get_parse_or("min", 1)?,
        max_len: args.get_parse_or("max", 4)?,
        order: Order::FirstCharFastest,
        priority: args.get_parse_or("priority", 1u32)?,
        first_hit_only: args.has("first-hit"),
    };
    let rec = store.submit(spec).map_err(|e| e.to_string())?;
    println!(
        "submitted {} ({:?}: {} {} keys, priority {})",
        rec.id,
        rec.spec.name,
        rec.frontier.full.len,
        rec.spec.algo.name(),
        rec.spec.priority
    );
    Ok(())
}

/// Percent of the job's keyspace whose coverage is already durable.
fn progress_pct(rec: &JobRecord) -> f64 {
    if rec.frontier.full.len == 0 {
        100.0
    } else {
        100.0 * rec.frontier.consumed() as f64 / rec.frontier.full.len as f64
    }
}

fn job_list(store: &JobStore) -> Result<(), String> {
    let records = store.list().map_err(|e| e.to_string())?;
    println!(
        "{:<8}{:<16}{:<11}{:>9}{:>16}{:>6}{:>10}",
        "id", "name", "state", "priority", "tested", "hits", "progress"
    );
    for rec in records {
        println!(
            "{:<8}{:<16}{:<11}{:>9}{:>16}{:>6}{:>9.1}%",
            rec.id.to_string(),
            rec.spec.name,
            rec.state.name(),
            rec.spec.priority,
            rec.tested,
            rec.hits.len(),
            progress_pct(&rec)
        );
    }
    Ok(())
}

fn job_status(store: &JobStore, args: &Args) -> Result<(), String> {
    let id = job_id_arg(args)?;
    // A missing or corrupt record surfaces the friendly `JobError`
    // message (with the offending file path) as a non-zero exit.
    let rec = store.load(id).map_err(|e| e.to_string())?;
    println!("{}  {:?}", rec.id, rec.spec.name);
    println!("  state     : {}", rec.state.name());
    println!(
        "  spec      : {} over {:?} lengths {}..={}, priority {}{}",
        rec.spec.algo.name(),
        String::from_utf8_lossy(&rec.spec.charset),
        rec.spec.min_len,
        rec.spec.max_len,
        rec.spec.priority,
        if rec.spec.first_hit_only { ", first hit only" } else { "" }
    );
    println!(
        "  progress  : {:.1}% ({} of {} keys durable, {} pending interval(s))",
        progress_pct(&rec),
        rec.frontier.consumed(),
        rec.frontier.full.len,
        rec.frontier.pending.len()
    );
    println!("  tested    : {}", rec.tested);
    for h in &rec.hits {
        println!("  hit       : \"{}\" (identifier {})", String::from_utf8_lossy(&h.key), h.id);
    }
    Ok(())
}

fn job_transition(store: &JobStore, args: &Args, to: JobState) -> Result<(), String> {
    let id = job_id_arg(args)?;
    let rec = store.set_state(id, to).map_err(|e| e.to_string())?;
    println!("{} is now {}", rec.id, rec.state.name());
    Ok(())
}

/// The spool snapshot both `/jobs` (HTTP exposition) and the line
/// protocol's `list` answer with, so `eks top` and protocol clients
/// read one schema.
fn jobs_list_json(store: &JobStore) -> Result<String, String> {
    let records = store.list().map_err(|e| e.to_string())?;
    let body: Vec<String> = records.iter().map(JobRecord::to_json).collect();
    Ok(format!("{{\"ok\":true,\"jobs\":[{}]}}", body.join(",")))
}

/// A `/jobs` supplier closing over its own clone of the spool handle;
/// a corrupt spool answers with an error document, not a hung scrape.
fn jobs_fn(store: &JobStore) -> eks_telemetry::JobsFn {
    let store = store.clone();
    Arc::new(move || {
        jobs_list_json(&store)
            .unwrap_or_else(|e| format!("{{\"ok\":false,\"error\":{}}}", json_string(&e)))
    })
}

/// The default fleet for `job run`/`serve`: `threads` lane-batched CPU
/// workers with equal scatter weights.
fn host_fleet(threads: usize) -> Fleet {
    let members = (0..threads)
        .map(|i| FleetMember {
            label: format!("host/cpu{i} [lanes8]"),
            weight: 1.0,
            backend: Box::new(CpuBackend::default()),
        })
        .collect();
    Fleet::new(members)
}

/// `--round-keys N`: the fair-share round budget, also the checkpoint
/// granularity. Zero is a usage error, not an engine panic.
fn parse_round_keys(args: &Args) -> Result<u128, String> {
    let round_keys: u128 = args.get_parse_or("round-keys", 1u128 << 16)?;
    if round_keys == 0 {
        return Err("--round-keys must be at least 1".into());
    }
    Ok(round_keys)
}

/// `job run`'s scheduler knobs: `--round-keys` and `--retune`
/// (`--retune-interval N` sets the chunks between drift checks).
fn service_config(args: &Args) -> Result<ServiceConfig, String> {
    Ok(ServiceConfig { round_keys: parse_round_keys(args)?, retune: super::parse_retune(args)? })
}

fn job_run(store: JobStore, args: &Args) -> Result<(), String> {
    let threads = parse_threads(args, 4)?;
    let config = service_config(args)?;
    let (telemetry, log) = parse_telemetry(args)?;
    let _metrics_server = spawn_metrics_server(args, &telemetry, Some(jobs_fn(&store)))?;
    let fleet = match args.get("topology") {
        Some(t) => eks_cluster::plan_fleet(
            &eks_cluster::parse_topology(t, 0.0)?,
            HashAlgo::Md5,
            &telemetry,
        ),
        None => host_fleet(threads),
    };
    let service = JobService::new(store, config).with_telemetry(telemetry.clone());
    let run_span = telemetry.span(names::SPAN_RUN);
    let rounds = service.run_until_idle(&fleet).map_err(|e| e.to_string())?;
    run_span.finish();
    log.info(format!("{rounds} scheduling round(s) over {} fleet member(s)", fleet.len()));
    for rec in service.store().list().map_err(|e| e.to_string())? {
        println!(
            "{}  {:<16} {:<10} tested {} ({:.1}%), {} hit(s)",
            rec.id,
            rec.spec.name,
            rec.state.name(),
            rec.tested,
            progress_pct(&rec),
            rec.hits.len()
        );
        for h in &rec.hits {
            println!(
                "  FOUND: \"{}\" (identifier {})",
                String::from_utf8_lossy(&h.key),
                h.id
            );
        }
    }
    write_artifacts(args, &telemetry, &log)?;
    Ok(())
}

/// State shared between the accept loop and the scheduler thread. The
/// gate serializes spool mutations (requests) against scheduler rounds,
/// so a cancel never races a round's post-lease checkpoint.
struct Shared {
    store: JobStore,
    gate: Mutex<()>,
    stop: AtomicBool,
}

pub(super) fn cmd_serve(args: &Args) -> Result<(), String> {
    let spool = args.get("spool").ok_or("serve requires --spool <dir>")?;
    let addr = args.get_or("addr", "127.0.0.1:4650");
    let threads = parse_threads(args, 2)?;
    let round_keys = parse_round_keys(args)?;
    let store = JobStore::open(spool).map_err(|e| e.to_string())?;
    let (telemetry, _log) = parse_telemetry(args)?;
    let _metrics_server = spawn_metrics_server(args, &telemetry, Some(jobs_fn(&store)))?;
    let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    println!("serving jobs on {local} (spool {})", store.spool().display());
    serve(listener, store, threads, round_keys, !args.has("no-run"), telemetry)
}

/// The accept loop: connections are handled one at a time (the protocol
/// is line-oriented and short-lived), a scheduler thread drains the
/// spool concurrently, and a `shutdown` request stops both.
fn serve(
    listener: TcpListener,
    store: JobStore,
    threads: usize,
    round_keys: u128,
    run_jobs: bool,
    telemetry: Telemetry,
) -> Result<(), String> {
    let shared = Arc::new(Shared { store, gate: Mutex::new(()), stop: AtomicBool::new(false) });
    let runner = run_jobs.then(|| {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            let fleet = host_fleet(threads);
            let service = JobService::new(
                shared.store.clone(),
                ServiceConfig { round_keys, ..ServiceConfig::default() },
            )
            .with_telemetry(telemetry);
            while !shared.stop.load(Ordering::Relaxed) {
                let idle = {
                    let _g = shared.gate.lock().expect("serve gate");
                    // A corrupt record idles the scheduler; requests
                    // (status naming the bad file) keep being served.
                    service.round(&fleet).map(|r| r.is_idle()).unwrap_or(true)
                };
                if idle {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
            }
        })
    });
    for conn in listener.incoming() {
        let Ok(conn) = conn else { continue };
        handle_conn(conn, &shared);
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
    }
    if let Some(handle) = runner {
        let _ = handle.join();
    }
    Ok(())
}

/// Longest request line `eks serve` reads, newline included. A submit
/// request is a few hundred bytes; a longer line is answered with an
/// error and the connection closed, so a peer that never sends `\n`
/// cannot grow a buffer without bound.
const MAX_LINE_BYTES: u64 = 64 * 1024;

/// How long `eks serve` spends on one connection before it drops it: the
/// accept loop serves one connection at a time, so this bounds how long
/// any peer, however it paces its bytes, keeps the next client waiting.
/// A client opens a connection per request or per short batch.
const CONN_DEADLINE: Duration = Duration::from_secs(5);

fn handle_conn(conn: TcpStream, shared: &Shared) {
    let mut conn = DeadlineStream::new(conn, CONN_DEADLINE);
    let Ok(peer) = conn.try_clone() else { return };
    let mut reader = BufReader::new(peer);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        match (&mut reader).take(MAX_LINE_BYTES).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) if n as u64 == MAX_LINE_BYTES && buf.last() != Some(&b'\n') => {
                let _ = writeln!(
                    conn,
                    "{{\"error\":\"request line exceeds {MAX_LINE_BYTES} bytes\"}}"
                );
                break;
            }
            Ok(_) => {}
        }
        let Ok(line) = std::str::from_utf8(&buf) else { break };
        if line.trim().is_empty() {
            continue;
        }
        let response = match respond(shared, line) {
            Ok(body) => body,
            Err(e) => format!("{{\"error\":{}}}", json_string(&e)),
        };
        if writeln!(conn, "{response}").is_err() {
            break;
        }
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
    }
}

/// A request's `"id"` member: a number or a `"job-<n>"` string.
fn req_id(req: &Json) -> Result<JobId, String> {
    match req.get("id") {
        Some(Json::Num(n)) if *n >= 1.0 && n.fract() == 0.0 => Ok(JobId(*n as u64)),
        Some(Json::Str(s)) => JobId::parse(s).ok_or(format!("invalid job id {s:?}")),
        _ => Err("request needs an \"id\" (number or \"job-<n>\")".into()),
    }
}

fn str_member<'a>(req: &'a Json, key: &str) -> Option<&'a str> {
    match req.get(key) {
        Some(Json::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn num_member(req: &Json, key: &str, default: u64) -> Result<u64, String> {
    match req.get(key) {
        None => Ok(default),
        Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
        Some(_) => Err(format!("\"{key}\" must be a non-negative integer")),
    }
}

/// Build a [`JobSpec`] from a `submit` request object. Validation
/// proper (digest length, charset, lengths) happens in
/// [`JobRecord::new`], so the errors match the CLI path exactly.
fn spec_from_json(req: &Json) -> Result<JobSpec, String> {
    let algo = match str_member(req, "algo").unwrap_or("md5") {
        "md5" => HashAlgo::Md5,
        "sha1" => HashAlgo::Sha1,
        "ntlm" => HashAlgo::Ntlm,
        other => return Err(format!("unsupported algo {other:?} (md5, sha1 or ntlm)")),
    };
    let digest_hex = str_member(req, "digest").ok_or("submit needs a \"digest\" hex string")?;
    let digest = from_hex(digest_hex).ok_or("digest is not valid hex")?;
    let order = match str_member(req, "order").unwrap_or("first") {
        "first" => Order::FirstCharFastest,
        "last" => Order::LastCharFastest,
        other => return Err(format!("unsupported order {other:?} (first or last)")),
    };
    Ok(JobSpec {
        name: str_member(req, "name").unwrap_or("job").to_string(),
        algo,
        digest,
        charset: str_member(req, "charset")
            .unwrap_or("abcdefghijklmnopqrstuvwxyz")
            .as_bytes()
            .to_vec(),
        min_len: u32::try_from(num_member(req, "min_len", 1)?).map_err(|_| "min_len too large")?,
        max_len: u32::try_from(num_member(req, "max_len", 4)?).map_err(|_| "max_len too large")?,
        order,
        priority: u32::try_from(num_member(req, "priority", 1)?)
            .map_err(|_| "priority too large")?,
        first_hit_only: matches!(req.get("first_hit"), Some(Json::Bool(true))),
    })
}

/// Handle one request line; the response is one JSON object. Successful
/// job operations answer with the job record document itself (the same
/// schema the spool stores), `list` wraps every record in an array.
fn respond(shared: &Shared, line: &str) -> Result<String, String> {
    let req = parse_json(line).map_err(|e| format!("bad request: {e}"))?;
    let cmd = str_member(&req, "cmd").ok_or("request needs a \"cmd\" string")?;
    let _gate = shared.gate.lock().expect("serve gate");
    match cmd {
        "submit" => {
            let rec = shared.store.submit(spec_from_json(&req)?).map_err(|e| e.to_string())?;
            Ok(rec.to_json())
        }
        "list" => jobs_list_json(&shared.store),
        "status" => {
            Ok(shared.store.load(req_id(&req)?).map_err(|e| e.to_string())?.to_json())
        }
        "cancel" | "pause" | "resume" => {
            let to = match cmd {
                "cancel" => JobState::Cancelled,
                "pause" => JobState::Paused,
                _ => JobState::Running,
            };
            let rec =
                shared.store.set_state(req_id(&req)?, to).map_err(|e| e.to_string())?;
            Ok(rec.to_json())
        }
        "shutdown" => {
            shared.stop.store(true, Ordering::Relaxed);
            Ok("{\"ok\":true,\"shutdown\":true}".to_string())
        }
        other => Err(format!(
            "unknown cmd {other:?} (submit, list, status, cancel, pause, resume, shutdown)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::run;
    use eks_engine::Retune;
    use eks_hashes::to_hex;
    use eks_telemetry::parse_prometheus;
    use std::path::PathBuf;

    fn args(s: &[&str]) -> Args {
        Args::parse(s.iter().map(|x| x.to_string())).unwrap()
    }

    fn tmp_spool(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("eks-cli-job-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn submit_list_status_cancel_round_trip() {
        let dir = tmp_spool("lifecycle");
        let spool = dir.to_str().unwrap();
        let digest = to_hex(&HashAlgo::Md5.hash(b"cab"));
        let a = args(&[
            "job", "submit", "--spool", spool, "--digest", &digest, "--max", "3", "--name",
            "first",
        ]);
        assert!(run("job", &a).is_ok());
        assert!(run("job", &args(&["job", "list", "--spool", spool])).is_ok());
        assert!(run("job", &args(&["job", "status", "job-1", "--spool", spool])).is_ok());
        assert!(run("job", &args(&["job", "pause", "1", "--spool", spool])).is_ok());
        assert!(run("job", &args(&["job", "resume", "1", "--spool", spool])).is_ok());
        assert!(run("job", &args(&["job", "cancel", "job-1", "--spool", spool])).is_ok());
        // Terminal: pausing a cancelled job is a friendly error.
        assert!(run("job", &args(&["job", "pause", "1", "--spool", spool])).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn status_of_missing_or_corrupt_jobs_is_a_friendly_error() {
        let dir = tmp_spool("corrupt");
        let spool = dir.to_str().unwrap();
        std::fs::create_dir_all(&dir).unwrap();
        let missing = run("job", &args(&["job", "status", "9", "--spool", spool]))
            .expect_err("missing job");
        assert!(missing.contains("job-9"), "{missing}");
        std::fs::write(dir.join("job-3.json"), "{truncated").unwrap();
        let corrupt = run("job", &args(&["job", "status", "3", "--spool", spool]))
            .expect_err("corrupt record");
        assert!(corrupt.contains("job-3.json"), "error names the file: {corrupt}");
        let bad_id = run("job", &args(&["job", "status", "banana", "--spool", spool]))
            .expect_err("bad id");
        assert!(bad_id.contains("banana"), "{bad_id}");
        assert!(run("job", &args(&["job", "frobnicate", "--spool", spool])).is_err());
        assert!(run("job", &args(&["job", "submit", "--spool", spool])).is_err(), "no digest");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn job_run_drains_the_spool_and_reconciles_per_job_telemetry() {
        let dir = tmp_spool("run");
        let spool = dir.to_str().unwrap();
        let metrics = dir.join("m.prom");
        let d1 = to_hex(&HashAlgo::Md5.hash(b"cab"));
        let d2 = to_hex(&HashAlgo::Md5.hash(b"zzz"));
        for (digest, name) in [(&d1, "alpha"), (&d2, "beta")] {
            let a = args(&[
                "job", "submit", "--spool", spool, "--digest", digest, "--max", "3", "--name",
                name,
            ]);
            assert!(run("job", &a).is_ok());
        }
        let a = args(&[
            "job", "run", "--spool", spool, "--threads", "2", "--round-keys", "8192",
            "--metrics-out", metrics.to_str().unwrap(),
        ]);
        assert!(run("job", &a).is_ok());

        let store = JobStore::open(spool).unwrap();
        let size: u128 = 26 + 26 * 26 + 26 * 26 * 26;
        for rec in store.list().unwrap() {
            assert_eq!(rec.state, JobState::Completed);
            assert_eq!(rec.tested, size, "exactly-once coverage for {}", rec.id);
            assert_eq!(rec.hits.len(), 1);
        }

        // The per-job carve-out must reconcile exactly against the
        // shared per-worker counters: both are flushed from the same
        // dispatch reports.
        let samples = parse_prometheus(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        let sum_of = |name: &str| -> f64 {
            samples.iter().filter(|s| s.name == name).map(|s| s.value).sum()
        };
        let per_job = sum_of("eks_job_keys_tested_total");
        let per_worker = sum_of("eks_keys_tested_total");
        assert_eq!(per_job, per_worker, "job totals reconcile with worker totals");
        assert_eq!(per_job, (2 * size) as f64);
        let jobs_seen: Vec<_> = samples
            .iter()
            .filter(|s| s.name == "eks_job_keys_tested_total")
            .filter_map(|s| s.label("job").map(str::to_string))
            .collect();
        assert!(jobs_seen.contains(&"job-1".to_string()), "{jobs_seen:?}");
        assert!(jobs_seen.contains(&"job-2".to_string()), "{jobs_seen:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn job_run_rejects_zero_round_keys() {
        let dir = tmp_spool("zero");
        let spool = dir.to_str().unwrap();
        let a = args(&["job", "run", "--spool", spool, "--round-keys", "0"]);
        let err = run("job", &a).expect_err("zero budget");
        assert!(err.contains("--round-keys"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn job_run_passes_the_retune_interval_through() {
        let a = args(&["job", "run", "--spool", "unused", "--retune-interval", "3"]);
        let retune = service_config(&a).unwrap().retune;
        assert_eq!(retune, Some(Retune { every_chunks: 3, ..Retune::default() }));
        let a = args(&["job", "run", "--spool", "unused"]);
        assert_eq!(service_config(&a).unwrap().retune, None);
    }

    #[test]
    fn serve_refuses_an_over_long_line_and_serves_the_next_client() {
        use std::io::Read;
        let dir = tmp_spool("long-line");
        let store = JobStore::open(&dir).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server =
            std::thread::spawn(move || serve(listener, store, 1, 4096, false, Telemetry::disabled()));

        let mut hog = TcpStream::connect(addr).unwrap();
        hog.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // Exactly the cap and no newline: the server reads all of it, so
        // its close after the error line is clean.
        hog.write_all(&vec![b'x'; MAX_LINE_BYTES as usize]).unwrap();
        let mut reply = String::new();
        hog.read_to_string(&mut reply).expect("an error line, then the close");
        assert!(reply.contains("exceeds"), "{reply}");

        let mut next = TcpStream::connect(addr).unwrap();
        next.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        writeln!(next, "{{\"cmd\":\"shutdown\"}}").unwrap();
        let mut line = String::new();
        BufReader::new(next).read_line(&mut line).expect("the next client is served");
        assert!(line.contains("\"shutdown\":true"), "{line}");
        server.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_drops_a_slow_drip_at_the_deadline_and_serves_the_next_client() {
        use std::time::Instant;
        let dir = tmp_spool("drip");
        let store = JobStore::open(&dir).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server =
            std::thread::spawn(move || serve(listener, store, 1, 4096, false, Telemetry::disabled()));

        let hog = TcpStream::connect(addr).unwrap();
        let started = Instant::now();
        let mut drip = hog.try_clone().unwrap();
        // One byte per 250 ms and no newline: every read is quick and the
        // line stays far under its cap.
        let dripper = std::thread::spawn(move || {
            while started.elapsed() < Duration::from_secs(20) && drip.write_all(b"x").is_ok() {
                std::thread::sleep(Duration::from_millis(250));
            }
        });

        let mut next = TcpStream::connect(addr).unwrap();
        next.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        writeln!(next, "{{\"cmd\":\"shutdown\"}}").unwrap();
        let mut line = String::new();
        BufReader::new(next).read_line(&mut line).expect("the next client is served");
        let waited = started.elapsed();
        let _ = hog.shutdown(std::net::Shutdown::Both);
        dripper.join().unwrap();
        assert!(line.contains("\"shutdown\":true"), "{line}");
        assert!(waited < CONN_DEADLINE + Duration::from_secs(5), "waited {waited:?}");
        server.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_speaks_the_json_lines_protocol_end_to_end() {
        use std::io::{BufRead, BufReader, Write};
        let dir = tmp_spool("serve");
        let store = JobStore::open(&dir).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server =
            std::thread::spawn(move || serve(listener, store, 2, 4096, true, Telemetry::disabled()));

        let mut conn = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut ask = |req: &str| -> String {
            writeln!(conn, "{req}").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line
        };

        let digest = to_hex(&HashAlgo::Md5.hash(b"bc"));
        let resp = ask(&format!(
            "{{\"cmd\":\"submit\",\"digest\":\"{digest}\",\"charset\":\"abcd\",\
             \"max_len\":2,\"name\":\"tiny\"}}"
        ));
        assert!(resp.contains("\"id\":1"), "{resp}");
        assert!(resp.contains("\"name\":\"tiny\""), "{resp}");

        // The scheduler thread drains the 20-key job; poll until done.
        let mut completed = false;
        for _ in 0..500 {
            let s = ask("{\"cmd\":\"status\",\"id\":1}");
            if s.contains("\"state\":\"completed\"") {
                completed = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(completed, "job should complete under the serve runner");

        let listing = ask("{\"cmd\":\"list\"}");
        assert!(listing.starts_with("{\"ok\":true,\"jobs\":["), "{listing}");
        let err = ask("{\"cmd\":\"status\",\"id\":7}");
        assert!(err.contains("\"error\""), "{err}");
        let garbage = ask("not json");
        assert!(garbage.contains("bad request"), "{garbage}");

        let bye = ask("{\"cmd\":\"shutdown\"}");
        assert!(bye.contains("\"shutdown\":true"), "{bye}");
        drop(conn);
        server.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
