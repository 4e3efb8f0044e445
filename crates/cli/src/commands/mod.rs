//! Subcommand implementations, one module per command family, plus the
//! flag-grammar helpers they share. The dispatch table below is the
//! whole public surface: `main` hands every invocation to [`run`].

mod analyze;
mod bench;
mod cluster;
mod crack;
mod job;
mod misc;
mod observe;
mod report;
mod verify;

use std::sync::Arc;

use crate::args::Args;
use crate::log::{Level, Logger};
use eks_engine::{Retune, SchedPolicy};
use eks_hashes::HashAlgo;
use eks_keyspace::Charset;
use eks_telemetry::{JobsFn, LivePlane, MetricsServer, Telemetry};

/// Dispatch a subcommand.
pub fn run(command: &str, args: &Args) -> Result<(), String> {
    match command {
        "crack" => crack::cmd_crack(args),
        "hash" => misc::cmd_hash(args),
        "mine" => misc::cmd_mine(args),
        "analyze" => analyze::cmd_analyze(args),
        "verify" => verify::cmd_verify(args),
        "devices" => misc::cmd_devices(),
        "disasm" => misc::cmd_disasm(args),
        "profile" => misc::cmd_profile(args),
        "audit" => misc::cmd_audit(args),
        "strength" => cluster::cmd_strength(args),
        "simulate" => cluster::cmd_simulate(args),
        "cluster" => cluster::cmd_cluster(args),
        "report" => report::cmd_report(args),
        "tune" => cluster::cmd_tune(args),
        "bench" => bench::cmd_bench(args),
        "job" => job::cmd_job(args),
        "serve" => job::cmd_serve(args),
        "top" => observe::cmd_top(args),
        "postmortem" => observe::cmd_postmortem(args),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn print_help() {
    println!("eks — exhaustive key search on (simulated) clusters of GPUs");
    println!();
    println!("commands:");
    println!("  crack    --algo md5|sha1|ntlm --digest HEX [--charset lower|upper|digits|alpha|alnum|print]");
    println!("           [--min N] [--max N] [--threads N] [--all] [--salt-prefix S] [--salt-suffix S]");
    println!("           [--mask \"?u?l?l?d?d\"] [--words w1,w2,... [--suffix-digits N]]");
    println!("           [--backend scalar|cpu|simgpu [--device 660]] [--isa avx2|avx512|neon]");
    println!("           the engine backend (default: cpu): cpu hashes a batch of keys in");
    println!("           lockstep on the widest explicit-SIMD kernel the CPU has, else on 8");
    println!("           portable lanes; --isa forces one ISA instead (unavailable ISAs are a");
    println!("           friendly error); simgpu drives a simulated device's kernel.");
    println!("           --mask/--words take every flag here too (one search path; simgpu");
    println!("           alone is charset-only); salted searches hash one key at a time");
    println!("           older spellings: --backend lanes8|lanes16|simd|auto = cpu,");
    println!("           --lanes 8|16 / --batch = cpu, --lanes scalar = scalar");
    println!("           [--sched static|queue|steal]   worker scheduling (default: steal —");
    println!("           per-worker interval deques with steal-half rebalancing)");
    println!("           [--chunk N]   chunk size: the fixed pop in queue mode, the guided");
    println!("           floor otherwise (default: derived from --threads; must be >= 1)");
    println!("           [--retune [--retune-interval N]]   closed-loop adaptive rebalancing:");
    println!("           live EWMA rate estimates per worker, a drift check every N fleet");
    println!("           chunks (default 8), and a deque re-scatter when the estimated");
    println!("           time-to-drain divergence exceeds 25%; off by default — without it");
    println!("           the static tuned-rate accounting is reproduced byte-for-byte");
    println!("           [--stats]   print the per-worker scheduler table (tested, steals,");
    println!("           splits, busy/idle ms, util%, keys/s) after the search");
    println!("           [--metrics-out F.prom] [--trace-out F.jsonl]   write telemetry");
    println!("           artifacts; [--progress] periodic keys/s + ETA + %-keyspace line;");
    println!("           [--listen-metrics HOST:PORT]   live HTTP exposition for the run:");
    println!("           /metrics (Prometheus text), /healthz, /jobs — scrape mid-run or");
    println!("           point `eks top` at it (port 0 picks an ephemeral port, printed)");
    println!("           [--flight F.json]   arm the flight recorder: a panic dumps the");
    println!("           recent telemetry for `eks postmortem` to replay");
    println!("           [--quiet|--verbose]   logging level");
    println!("  hash     --algo md5|sha1 PLAINTEXT       compute a digest");
    println!("  mine     [--difficulty BITS] [--header STR] [--threads N]");
    println!("  analyze  [--algo md5|sha1|ntlm] [--variant optimized|naive|reversed]");
    println!("           [--json] [--deny warnings] [--tolerance 0.12]");
    println!("           static analysis: dataflow + peephole lints, register pressure,");
    println!("           Table III-VI budget gate; non-zero exit on deny-level findings");
    println!("  verify   [--workers N] [--intervals N] [--depth N] [--json]");
    println!("           [--deny violations|warnings] [--mutate NAME]");
    println!("           bounded exhaustive model checking of the work-stealing scheduler");
    println!("           protocol (exactly-once, no-lost-lease, lowest-planted-id merge, the");
    println!("           cancellation bound) plus grid-IR soundness passes (bounds,");
    println!("           must-defined, barrier divergence) over every shipped kernel");
    println!("           wrapper; prints per-check state/transition counts and a");
    println!("           counterexample trace on violation (non-zero exit). --mutate runs");
    println!("           a seeded-bug model instead: drop-lease, double-count,");
    println!("           merge-highest, ignore-cancel, stop-at-any-hit, unguarded-store,");
    println!("           uninit-read, divergent-barrier");
    println!("  devices                                  the paper's GPU catalog (Table VII)");
    println!("  disasm   [--algo md5|sha1] [--cc 3.0] [--tool ours|barswf|cryptohaze]");
    println!("  profile  [--algo md5|sha1|ntlm] [--device 660]   simulated profiler report");
    println!("  audit    --digests h1,h2,... [--accounts a,b,...] [--charset ...] [--max N]");
    println!("  strength PASSWORD [--algo md5] [--charset alnum] [--max N]   time-to-crack");
    println!("  simulate [--keys N] [--algo md5|sha1]    whole-network DES (Table IX)");
    println!("           [--topology \"A(660) -> B(550Ti, cpu:4)\"]   custom cluster");
    println!("  cluster  --digest HEX [--algo md5|sha1|ntlm] [--charset ...] [--min N] [--max N]");
    println!("           [--topology \"A(660, cpu:2)\"] [--all]   really crack across a");
    println!("           heterogeneous cluster of CPU + simulated-GPU backends");
    println!("           [--sched static|queue|steal]   leaf scheduling (default: static —");
    println!("           rate-proportional shares; steal lets drained leaves rebalance)");
    println!("           [--retune [--retune-interval N]]   feed live per-leaf rates back");
    println!("           into the schedule and re-scatter on drift (see crack --retune)");
    println!("           [--metrics-out F.prom] [--trace-out F.jsonl] [--listen-metrics");
    println!("           HOST:PORT] [--quiet|--verbose]");
    println!("  report   --metrics F.prom [--trace F.jsonl]   render a run report from");
    println!("           telemetry artifacts: per-worker utilization, tuned rates, scan");
    println!("           p50/p95/p99, the paper's SIII cost-model phases, and network");
    println!("           efficiency vs 85-90%");
    println!("  tune     [--threads N]                   tune devices and this host's CPU");
    println!("  bench    [--json FILE]                   tune every CPU backend on this host");
    println!("           and print the per-(backend, algo) rates, the detected CPU");
    println!("           features, and the selected ISA; --json writes the schema-3");
    println!("           host-tuning report (cpu_features, rates, per-algo cpu kernel)");
    println!("  job      --spool DIR submit|list|status|cancel|pause|resume|run");
    println!("           submit --algo md5|sha1|ntlm --digest HEX [--name S] [--charset ...]");
    println!("           [--min N] [--max N] [--priority N] [--first-hit]   enqueue a job");
    println!("           list                                    one line per spooled job");
    println!("           status <id>                             full record of one job");
    println!("           cancel|pause|resume <id>                lifecycle transitions");
    println!("           run [--threads N] [--topology ...] [--round-keys N]");
    println!("           [--retune [--retune-interval N]]");
    println!("           drive the fair-share scheduler until every runnable job completes;");
    println!("           --retune tracks live fleet throughput, re-splitting leases (a drift");
    println!("           check every N chunks, default 8) and scaling the round budget to");
    println!("           real rates; safe to");
    println!("           kill at any instant — completed leases are checkpointed and a");
    println!("           restart resumes with no rescanned and no skipped keys");
    println!("           [--metrics-out F.prom] [--trace-out F.jsonl]   per-job telemetry");
    println!("  serve    --spool DIR [--addr HOST:PORT] [--threads N] [--round-keys N]");
    println!("           [--no-run]   the job service as a JSON-lines TCP protocol:");
    println!("           one request object per line ({{\"cmd\":\"submit\"|\"list\"|\"status\"|");
    println!("           \"cancel\"|\"pause\"|\"resume\"|\"shutdown\"}}), one response per");
    println!("           line; a scheduler thread drives the spool unless --no-run;");
    println!("           [--listen-metrics HOST:PORT]   HTTP exposition alongside the");
    println!("           line protocol: /metrics, /healthz and a /jobs spool snapshot");
    println!("  top      --addr HOST:PORT [--interval MS] [--once]   live terminal");
    println!("           dashboard over a run's --listen-metrics endpoint: per-worker");
    println!("           rates vs tuned, per-job progress, efficiency vs the 85-90%");
    println!("           band, and active anomaly verdicts; --once prints one frame");
    println!("  postmortem <flight.json>   replay a flight-recorder dump: panic reason");
    println!("           and location, final per-worker accounting, anomaly verdicts,");
    println!("           and the last seconds of the trace as a timeline");
}

fn parse_algo(args: &Args) -> Result<HashAlgo, String> {
    let spec = args.get_or("algo", "md5");
    eks_jobs::parse_algo_key(spec).ok_or_else(|| {
        format!("unsupported --algo {spec:?} (md5, sha1, ntlm or md5xN for iterated MD5)")
    })
}

fn parse_charset(args: &Args) -> Result<Charset, String> {
    Ok(match args.get_or("charset", "lower") {
        "lower" => Charset::lowercase(),
        "upper" => Charset::uppercase(),
        "digits" => Charset::digits(),
        "alpha" => Charset::alpha(),
        "alnum" => Charset::alphanumeric(),
        "print" => Charset::printable_ascii(),
        custom => Charset::from_bytes(custom.as_bytes())
            .map_err(|e| format!("invalid custom charset: {e}"))?,
    })
}

/// `--sched static|queue|steal` picks the worker scheduling policy;
/// `default` is the subcommand's policy when the flag is absent.
fn parse_sched(args: &Args, default: SchedPolicy) -> Result<SchedPolicy, String> {
    match args.get("sched") {
        None => Ok(default),
        Some(s) => SchedPolicy::parse(s)
            .ok_or(format!("unsupported --sched {s:?} (static, queue or steal)")),
    }
}

/// `--chunk N` overrides the scheduler's chunk size (the fixed pop in
/// queue mode, the guided floor otherwise). Zero is rejected here so it
/// surfaces as a usage error instead of an engine panic.
fn parse_chunk(args: &Args) -> Result<Option<u64>, String> {
    let Some(s) = args.get("chunk") else { return Ok(None) };
    let chunk: u64 = s.parse().map_err(|_| format!("invalid --chunk {s:?}"))?;
    if chunk == 0 {
        return Err("--chunk must be at least 1".into());
    }
    Ok(Some(chunk))
}

/// `--retune` switches on closed-loop adaptive rebalancing (live EWMA
/// rate estimates feeding drift checks and re-scatters);
/// `--retune-interval N` sets the fleet-wide chunk count between drift
/// checks and implies `--retune`. Absent both, `None` keeps the
/// deterministic static (tuned-rate) accounting byte-for-byte.
fn parse_retune(args: &Args) -> Result<Option<Retune>, String> {
    let interval = match args.get("retune-interval") {
        None => None,
        Some(s) => {
            let n: u64 = s.parse().map_err(|_| format!("invalid --retune-interval {s:?}"))?;
            if n == 0 {
                return Err("--retune-interval must be at least 1".into());
            }
            Some(n)
        }
    };
    if !args.has("retune") && interval.is_none() {
        return Ok(None);
    }
    let mut retune = Retune::default();
    if let Some(every) = interval {
        retune.every_chunks = every;
    }
    Ok(Some(retune))
}

/// Resolve the observability options shared by `crack`, `cluster` and
/// the job commands: the registry is enabled whenever any telemetry
/// flag asks for output (`--metrics-out`, `--trace-out`, `--progress`,
/// `--listen-metrics`, `--flight`), otherwise the disabled handle keeps
/// the hot path untouched. An enabled handle also gets a [`LivePlane`]
/// attached — sliding-window aggregation plus the anomaly detector —
/// driven from the dispatch/round/lease hot paths via
/// `Telemetry::observe_plane`. The logger level comes from
/// `--quiet`/`--verbose`.
fn parse_telemetry(args: &Args) -> Result<(Telemetry, Logger), String> {
    let wants = args.has("metrics-out")
        || args.has("trace-out")
        || args.has("progress")
        || args.has("listen-metrics")
        || args.has("flight");
    let telemetry = if wants { Telemetry::enabled() } else { Telemetry::disabled() };
    telemetry.attach_plane(Arc::new(LivePlane::with_defaults()));
    let level = Level::from_flags(args.has("quiet"), args.has("verbose"))?;
    Ok((telemetry.clone(), Logger::new(level, telemetry)))
}

/// `--listen-metrics HOST:PORT` (port 0 for ephemeral) serves the live
/// exposition endpoint — `/metrics`, `/healthz`, `/jobs` — for the rest
/// of the run. The bound address is printed so scripts scraping an
/// ephemeral port can discover it. Returns the server handle; keep it
/// alive for the duration of the run.
fn spawn_metrics_server(
    args: &Args,
    telemetry: &Telemetry,
    jobs: Option<JobsFn>,
) -> Result<Option<MetricsServer>, String> {
    let Some(addr) = args.get("listen-metrics") else { return Ok(None) };
    let server = MetricsServer::spawn(addr, telemetry.clone(), jobs)
        .map_err(|e| format!("--listen-metrics: {e}"))?;
    println!("metrics listening on http://{}", server.local_addr());
    Ok(Some(server))
}

/// `--flight PATH` arms the flight recorder: a panic anywhere in the
/// run dumps the recent telemetry (schema-stamped `flight.json`) to
/// PATH for `eks postmortem` to replay.
fn arm_flight_recorder(args: &Args, telemetry: &Telemetry) {
    if let Some(path) = args.get("flight") {
        eks_telemetry::install_panic_hook(
            telemetry.clone(),
            telemetry.plane(),
            eks_telemetry::FlightConfig::new(path),
        );
    }
}

/// Write the `--metrics-out` (Prometheus text exposition) and
/// `--trace-out` (JSONL trace) artifacts after a run.
fn write_artifacts(args: &Args, telemetry: &Telemetry, log: &Logger) -> Result<(), String> {
    if let Some(path) = args.get("metrics-out") {
        std::fs::write(path, telemetry.render_prometheus())
            .map_err(|e| format!("cannot write --metrics-out {path:?}: {e}"))?;
        log.verbose(format!("wrote metrics exposition to {path}"));
    }
    if let Some(path) = args.get("trace-out") {
        std::fs::write(path, telemetry.trace_jsonl())
            .map_err(|e| format!("cannot write --trace-out {path:?}: {e}"))?;
        log.verbose(format!("wrote trace JSONL to {path}"));
    }
    Ok(())
}

/// `--threads N` with `N >= 1`.
fn parse_threads(args: &Args, default: usize) -> Result<usize, String> {
    let threads: usize = args.get_parse_or("threads", default)?;
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    Ok(threads)
}

#[cfg(test)]
mod tests {
    use super::run;
    use crate::args::Args;

    fn args(s: &[&str]) -> Args {
        Args::parse(s.iter().map(|x| x.to_string())).unwrap()
    }

    #[test]
    fn informational_commands() {
        assert!(run("devices", &args(&["devices"])).is_ok());
        assert!(run("help", &args(&["help"])).is_ok());
        let a = args(&["simulate", "--keys", "1e9"]);
        assert!(run("simulate", &a).is_ok());
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run("frobnicate", &args(&["frobnicate"])).is_err());
    }
}
