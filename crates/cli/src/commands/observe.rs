//! `eks top` — a live terminal dashboard over a run's
//! `--listen-metrics` endpoint — and `eks postmortem`, the flight
//! recorder replay.
//!
//! `top` is a pure HTTP client: it polls `/metrics` and `/jobs`,
//! re-parses the exposition with the same self-contained checker the
//! artifact path uses, and renders one compact frame per interval —
//! per-worker live vs tuned rates, anomaly verdicts, per-job progress,
//! and the measured efficiency next to the paper's 85-90% band. With
//! `--once` it prints a single frame and exits, which is how the CI
//! smoke gate scrapes a run mid-flight without any external tooling.

use std::collections::BTreeMap;

use crate::args::Args;
use eks_telemetry::parse::Json;
use eks_telemetry::{
    http_get, names, parse_json, parse_prometheus, read_flight, render_postmortem,
};

/// One worker's row in the dashboard, accumulated across sample names.
#[derive(Default)]
struct WorkerRow {
    tested: f64,
    rate_est: Option<f64>,
    rate_tuned: Option<f64>,
    flagged: bool,
}

/// Render one dashboard frame from a `/metrics` body and a `/jobs`
/// body. Pure, so the frame shape is unit-testable without sockets.
fn render_frame(addr: &str, metrics: &str, jobs: &str) -> Result<String, String> {
    use std::fmt::Write as _;
    let samples =
        parse_prometheus(metrics).map_err(|e| format!("invalid /metrics exposition: {e}"))?;
    let total = |name: &str| -> f64 {
        samples.iter().filter(|s| s.name == name).map(|s| s.value).sum()
    };
    let mut out = String::new();
    let _ = writeln!(out, "eks top — {addr}");
    let _ = writeln!(
        out,
        "  keys tested: {:.0}   hits: {:.0}   chunks: {:.0}",
        total(names::KEYS_TESTED),
        total(names::HITS),
        total(names::CHUNKS),
    );
    if let Some(eff) = samples.iter().find(|s| s.name == names::CLUSTER_EFFICIENCY_PCT) {
        let _ = writeln!(
            out,
            "  efficiency : {:.1}% (the paper reports 85-90%)",
            eff.value
        );
    }

    let mut rows: BTreeMap<String, WorkerRow> = BTreeMap::new();
    for s in &samples {
        let Some(worker) = s.label("worker").map(str::to_string) else { continue };
        let row = rows.entry(worker).or_default();
        match s.name.as_str() {
            n if n == names::KEYS_TESTED => row.tested += s.value,
            n if n == names::WORKER_RATE_EST => row.rate_est = Some(s.value),
            n if n == names::WORKER_RATE_TUNED => row.rate_tuned = Some(s.value),
            n if n == names::WORKER_FLAGGED => row.flagged = s.value > 0.0,
            _ => {}
        }
    }
    if !rows.is_empty() {
        let _ = writeln!(
            out,
            "  {:<28}{:>12}{:>12}{:>14}  status",
            "worker", "est MK/s", "tuned MK/s", "tested"
        );
        for (worker, row) in &rows {
            let fmt_rate = |r: Option<f64>| match r {
                Some(v) => format!("{v:.2}"),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "  {:<28}{:>12}{:>12}{:>14.0}  {}",
                worker,
                fmt_rate(row.rate_est),
                fmt_rate(row.rate_tuned),
                row.tested,
                if row.flagged { "FLAGGED" } else { "ok" }
            );
        }
    }

    let anomalies: Vec<String> = samples
        .iter()
        .filter(|s| s.name == names::ANOMALIES)
        .filter_map(|s| s.label("kind").map(|k| format!("{k}={:.0}", s.value)))
        .collect();
    let _ = writeln!(
        out,
        "  anomalies  : {}",
        if anomalies.is_empty() { "none".to_string() } else { anomalies.join("  ") }
    );

    if let Ok(doc) = parse_json(jobs) {
        if let Some(list) = doc.get("jobs").and_then(Json::as_arr) {
            let _ = writeln!(out, "  jobs ({})", list.len());
            for job in list {
                let id = job.get("id").and_then(Json::as_u64).unwrap_or(0);
                let name = job.get("name").and_then(Json::as_str).unwrap_or("?");
                let state = job.get("state").and_then(Json::as_str).unwrap_or("?");
                let tested = job.get("tested").and_then(Json::as_u64).unwrap_or(0);
                let _ = writeln!(
                    out,
                    "    job-{id}  {name:<16} {state:<11} tested {tested}"
                );
            }
        }
    }
    Ok(out)
}

/// `eks top --addr HOST:PORT [--interval MS] [--once]`.
pub(super) fn cmd_top(args: &Args) -> Result<(), String> {
    let addr = args.get("addr").ok_or(
        "top requires --addr <host:port> (the --listen-metrics address a run printed)",
    )?;
    let interval_ms: u64 = args.get_parse_or("interval", 1000u64)?;
    let once = args.has("once");
    loop {
        // /healthz first: a friendly liveness error beats a parse error
        // when the run has already exited.
        http_get(addr, "/healthz").map_err(|e| format!("endpoint {addr} is not healthy: {e}"))?;
        let metrics = http_get(addr, "/metrics")?;
        let jobs = http_get(addr, "/jobs").unwrap_or_else(|_| "{\"jobs\":[]}".to_string());
        let frame = render_frame(addr, &metrics, &jobs)?;
        if once {
            print!("{frame}");
            return Ok(());
        }
        // ANSI clear + home keeps the frame in place like top(1).
        print!("\x1b[2J\x1b[H{frame}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(100)));
    }
}

/// `eks postmortem <flight.json>`: validate the schema stamp and
/// reconstruct the final seconds into a human-readable timeline.
pub(super) fn cmd_postmortem(args: &Args) -> Result<(), String> {
    let path = args
        .positional(1)
        .ok_or("postmortem requires a flight dump path (the --flight file a run wrote)")?;
    let dump = read_flight(std::path::Path::new(path))?;
    print!("{}", render_postmortem(&dump));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::run;
    use eks_telemetry::{render_flight, MetricsServer, Telemetry};

    fn args(s: &[&str]) -> Args {
        Args::parse(s.iter().map(|x| x.to_string())).unwrap()
    }

    fn observed_telemetry() -> Telemetry {
        let t = Telemetry::enabled();
        t.counter(names::KEYS_TESTED, &[("worker", "cpu#0")]).add(1200);
        t.counter(names::KEYS_TESTED, &[("worker", "cpu#1")]).add(400);
        t.gauge(names::WORKER_RATE_EST, &[("worker", "cpu#0")]).set(1.5);
        t.gauge(names::WORKER_RATE_TUNED, &[("worker", "cpu#0")]).set(1.4);
        t.gauge(names::WORKER_FLAGGED, &[("worker", "cpu#1")]).set(1.0);
        t.counter(names::ANOMALIES, &[("kind", "straggler")]).add(2);
        t
    }

    #[test]
    fn frame_shows_workers_flags_and_anomalies() {
        let t = observed_telemetry();
        let jobs = "{\"ok\":true,\"jobs\":[{\"id\":1,\"name\":\"tiny\",\
                    \"state\":\"running\",\"tested\":77}]}";
        let frame = render_frame("127.0.0.1:9", &t.render_prometheus(), jobs).unwrap();
        assert!(frame.contains("keys tested: 1600"), "{frame}");
        assert!(frame.contains("cpu#0"), "{frame}");
        assert!(frame.contains("FLAGGED"), "{frame}");
        assert!(frame.contains("straggler=2"), "{frame}");
        assert!(frame.contains("job-1"), "{frame}");
        assert!(frame.contains("tested 77"), "{frame}");
    }

    #[test]
    fn frame_rejects_garbage_metrics() {
        assert!(render_frame("x", "eks_x{ 1\n", "{}").is_err());
    }

    #[test]
    fn top_once_scrapes_a_live_endpoint() {
        let t = observed_telemetry();
        let server = MetricsServer::spawn("127.0.0.1:0", t, None).expect("bind");
        let addr = server.local_addr().to_string();
        let a = args(&["top", "--addr", &addr, "--once"]);
        assert!(run("top", &a).is_ok());
        server.shutdown();
        let dead = args(&["top", "--addr", "127.0.0.1:1", "--once"]);
        assert!(run("top", &dead).is_err(), "unreachable endpoint is an error");
        assert!(run("top", &args(&["top", "--once"])).is_err(), "needs --addr");
    }

    #[test]
    fn postmortem_replays_a_flight_dump() {
        let t = observed_telemetry();
        let dump = render_flight(&t, None, u64::MAX, "forced panic", "somewhere.rs:1");
        let dir = std::env::temp_dir();
        let path = dir.join(format!("eks-cli-flight-{}.json", std::process::id()));
        std::fs::write(&path, dump).unwrap();
        let a = args(&["postmortem", path.to_str().unwrap()]);
        assert!(run("postmortem", &a).is_ok());
        std::fs::remove_file(&path).ok();

        assert!(run("postmortem", &args(&["postmortem"])).is_err(), "needs a path");
        let missing = args(&["postmortem", "/nonexistent/flight.json"]);
        let err = run("postmortem", &missing).expect_err("missing dump");
        assert!(err.contains("flight.json"), "error names the path: {err}");
    }
}
