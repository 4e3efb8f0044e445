//! `eks-benchmark` — the ruler later performance and simplicity changes
//! are judged by. See `benchmark/README.md`.
//!
//! ```text
//! eks-benchmark                                   every workload, end-to-end metrics
//! eks-benchmark --trace                           … plus the traced pass and every per-layer metric
//! eks-benchmark --only NAME --seed N              one workload, reproducibly
//! eks-benchmark --selfcheck                       two interleaved sets of runs must agree (A/A)
//! eks-benchmark --workload NAME --seed N --seconds S --trace 0|1     the driver's form: one JSON line last
//! ```

mod estimator;
mod layers;
mod report;
mod run;
mod spans;
mod trace;
mod workloads;
mod wrappers;
mod yard;

use std::process::ExitCode;

use layers::Metric;
use yard::Yard;

/// Seconds one pass of one workload measures for when `--seconds` is not
/// given (the `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;
/// Share of a traced run spent on the traced workload; the rest goes to
/// the per-layer pass.
const TRACED_SHARE: f64 = 0.4;
/// Runs per set in `--selfcheck`.
const SELFCHECK_RUNS: usize = 5;

struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == flag)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value {v:?} for {flag}")),
            None => Ok(default),
        }
    }

    /// `--trace`, `--trace 1` and `--trace 0`.
    fn trace(&self) -> Result<bool, String> {
        match self.value("--trace") {
            Some("0") => Ok(false),
            Some("1") => Ok(true),
            Some(v) if !v.starts_with("--") => Err(format!("invalid value {v:?} for --trace")),
            _ => Ok(self.has("--trace")),
        }
    }
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("eks-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

fn known(name: &str) -> Result<&str, String> {
    if workloads::NAMES.contains(&name) {
        Ok(name)
    } else {
        Err(format!(
            "unknown workload {name:?} (one of {:?})",
            workloads::NAMES
        ))
    }
}

fn dispatch(args: &Args) -> Result<bool, String> {
    let seed: u64 = args.parsed("--seed", 1)?;
    let seconds: f64 = args.parsed("--seconds", DEFAULT_SECONDS)?;
    let trace = args.trace()?;
    if let Some(name) = args.value("--probe") {
        return Ok(run::probe_child(known(name)?, seed));
    }
    if args.has("--cold-probe") {
        return Ok(layers::cold_child());
    }
    if args.has("--selfcheck") {
        return Ok(selfcheck(seed, seconds));
    }
    if let Some(name) = args.value("--workload") {
        return Ok(driver_run(known(name)?, seed, seconds, trace));
    }
    let names: Vec<&str> = match args.value("--only") {
        Some(name) => vec![known(name)?],
        None => workloads::NAMES.to_vec(),
    };
    Ok(full_report(&names, seed, seconds, trace))
}

/// One workload, one pass, the result as the last line: what the driver
/// of `BENCHMARK.json` runs.
fn driver_run(name: &str, seed: u64, seconds: f64, trace: bool) -> bool {
    if !trace {
        let e = run::end_to_end(name, seed, seconds).expect("name is known");
        report::print_end_to_end(&e);
        println!(
            "{}",
            report::result_json(e.attempted(), e.failed, &report::end_to_end_metrics(&e))
        );
        return e.failed == 0;
    }
    let t = trace::traced_pass(name, seed, seconds * TRACED_SHARE).expect("name is known");
    let mut metrics = layers::layer_pass(seed, seconds * (1.0 - TRACED_SHARE));
    let (own, reconciliation) = report::workload_metrics(&t, &metrics);
    metrics.extend(own);
    report::print_metrics("per-layer metrics", &metrics);
    report::print_traced(&t, &reconciliation);
    write_trace(&t);
    println!(
        "{}",
        report::result_json(
            t.attempted(),
            t.failed,
            &report::per_layer_metrics(&metrics)
        )
    );
    t.failed == 0
}

fn write_trace(t: &trace::Traced) {
    match t.write() {
        Ok(path) => println!("  spans written to {}", path.display()),
        Err(e) => eprintln!(
            "eks-benchmark: cannot write the trace of {}: {e}",
            t.workload
        ),
    }
}

/// Every workload (or `--only` one): the untraced pass, then with
/// `--trace` the traced pass per workload and one per-layer pass.
fn full_report(names: &[&str], seed: u64, seconds: f64, trace: bool) -> bool {
    println!(
        "eks-benchmark: {} thread(s), seed {seed}, {seconds} s per pass, yard.wide = {}, \
         Y_REF wide/base = {} / {} s",
        workloads::nproc(),
        yard::wide_isa(),
        Yard::Wide.ref_s(),
        Yard::Base.ref_s()
    );
    let mut ok = true;
    for name in names {
        match untraced_child(name, seed, seconds) {
            Some((text, _, failed)) => {
                print!("{text}");
                ok &= failed == 0;
            }
            None => {
                println!("{name}: the pass did not produce a result");
                ok = false;
            }
        }
    }
    if !trace {
        return ok;
    }
    let layer_metrics: Vec<Metric> = layers::layer_pass(seed, seconds);
    report::print_metrics("per-layer metrics (workload-independent)", &layer_metrics);
    for name in names {
        let t = trace::traced_pass(name, seed, seconds).expect("name is known");
        let (own, reconciliation) = report::workload_metrics(&t, &layer_metrics);
        report::print_metrics(&format!("per-layer metrics of {name}"), &own);
        report::print_traced(&t, &reconciliation);
        write_trace(&t);
        ok &= t.failed == 0;
    }
    ok
}

/// The number stored under `key` in one of our own result lines, either
/// directly (`"failed": 0`) or as a metric (`"x": {"value": 1.5, …}`).
fn result_number(line: &str, key: &str) -> Option<f64> {
    let rest = line.split_once(&format!("\"{key}\": "))?.1;
    let rest = rest.strip_prefix("{\"value\": ").unwrap_or(rest);
    rest.split([',', '}']).next()?.trim().parse().ok()
}

/// One untraced pass in a process of its own, exactly as the driver runs
/// it: the report it printed, the end-to-end metric values and the failed
/// count of its result line.
fn untraced_child(name: &str, seed: u64, seconds: f64) -> Option<(String, Vec<f64>, u64)> {
    let (seed, seconds) = (seed.to_string(), seconds.to_string());
    let args = [
        "--workload",
        name,
        "--seed",
        &seed,
        "--seconds",
        &seconds,
        "--trace",
        "0",
    ];
    let (text, _) = run::child_stdout(&args)?;
    let (report, result) = text.trim_end().rsplit_once('\n')?;
    let values: Option<Vec<f64>> = report::END_TO_END
        .iter()
        .map(|(metric, ..)| result_number(result, metric))
        .collect();
    Some((
        format!("{report}\n"),
        values?,
        result_number(result, "failed")? as u64,
    ))
}

/// A/A, as the driver of `BENCHMARK.json` judges it: the medians of two
/// interleaved sets of runs of the same code (A B A B …) must agree
/// within each metric's own bound, and so must the spread of all the runs
/// (`setup_s` excepted, as the driver excepts it). Prints a Markdown table.
fn selfcheck(seed: u64, seconds: f64) -> bool {
    let n_metrics = report::END_TO_END.len();
    // values[workload][metric][set] = one value per run
    let mut values = vec![vec![[Vec::new(), Vec::new()]; n_metrics]; workloads::NAMES.len()];
    let mut failed = 0u64;
    for run in 0..SELFCHECK_RUNS {
        for set in 0..2 {
            for (w, name) in workloads::NAMES.iter().enumerate() {
                let run_seed = seed + (run * 2 + set) as u64;
                match untraced_child(name, run_seed, seconds) {
                    Some((_, metrics, run_failed)) => {
                        failed += run_failed;
                        for (m, v) in metrics.into_iter().enumerate() {
                            values[w][m][set].push(v);
                        }
                    }
                    None => failed += 1,
                }
                eprintln!("selfcheck: run {run} set {} {name} done", ["A", "B"][set]);
            }
        }
    }
    println!("# A/A self-check");
    println!();
    println!(
        "`eks-benchmark --selfcheck --seed {seed} --seconds {seconds}`: {SELFCHECK_RUNS} runs per set, \
         sets interleaved A B A B, {} thread(s), yard.wide = {}. gap = |median B ÷ median A − 1|; \
         spread = (Q3 − Q1) ÷ median over the runs of both sets.",
        workloads::nproc(),
        yard::wide_isa()
    );
    println!();
    println!("| workload | metric | median A | median B | gap | spread | bound | |");
    println!("|---|---|---:|---:|---:|---:|---:|---|");
    let mut ok = failed == 0;
    for (w, name) in workloads::NAMES.iter().enumerate() {
        for (m, (metric, unit, _, bound)) in report::END_TO_END.iter().enumerate() {
            let a = estimator::median(&values[w][m][0]);
            let b = estimator::median(&values[w][m][1]);
            let gap = (b / a - 1.0).abs();
            let spread = estimator::spread(&values[w][m].concat());
            let within = gap <= *bound && (spread <= *bound || *metric == "setup_s");
            ok &= within;
            println!(
                "| {name} | {metric} ({unit}) | {a:.5} | {b:.5} | {:.2} % | {:.2} % | {:.0} % | {} |",
                gap * 100.0,
                spread * 100.0,
                bound * 100.0,
                if within { "ok" } else { "**OVER**" }
            );
        }
    }
    println!();
    println!(
        "failed operations: {failed}; verdict: {}",
        if ok { "PASS" } else { "FAIL" }
    );
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_numbers_read_back() {
        let metrics = [("mkeys_norm".to_string(), 12.5, "MKey/s".to_string())];
        let line = report::result_json(40, 3, &metrics);
        assert_eq!(result_number(&line, "mkeys_norm"), Some(12.5));
        assert_eq!(result_number(&line, "failed"), Some(3.0));
        assert_eq!(result_number(&line, "attempted"), Some(40.0));
        assert_eq!(result_number(&line, "setup_s"), None);
    }
}
