//! Cluster-facing commands: `cluster`, `simulate`, `tune`, `strength`.

use crate::args::Args;
use eks_cluster::{
    paper_network, plan_fleet, run_cluster, simulate_search, tune_device, AchievedModel,
    ClusterOptions, SimParams,
};
use eks_cracker::{render_worker_stats, TargetSet};
use eks_engine::SchedPolicy;
use eks_gpusim::device::DeviceCatalog;
use eks_hashes::{from_hex, HashAlgo};
use eks_kernels::Tool;
use eks_keyspace::{Charset, KeySpace, Order};

use super::{
    arm_flight_recorder, parse_algo, parse_charset, parse_retune, parse_sched, parse_telemetry,
    spawn_metrics_server, write_artifacts,
};

/// Really crack a digest across a heterogeneous cluster: every simulated
/// GPU becomes a [`SimKernelBackend`], every `cpu:N` worker a lane
/// backend, and the whole tree runs through the one dispatch core.
pub(super) fn cmd_cluster(args: &Args) -> Result<(), String> {
    let algo = parse_algo(args)?;
    let digest_hex = args.get("digest").ok_or("cluster requires --digest <hex>")?;
    let digest = from_hex(digest_hex).ok_or("digest is not valid hex")?;
    if digest.len() != algo.digest_len() {
        return Err(format!(
            "digest length {} does not match {} ({} bytes)",
            digest.len(),
            algo.name(),
            algo.digest_len()
        ));
    }
    let charset = parse_charset(args)?;
    let min: u32 = args.get_parse_or("min", 1)?;
    let max: u32 = args.get_parse_or("max", 4)?;
    let space =
        KeySpace::new(charset, min, max, Order::FirstCharFastest).map_err(|e| e.to_string())?;
    let (net, label) = match args.get("topology") {
        Some(t) => (eks_cluster::parse_topology(t, 0.0)?, t.to_string()),
        None => (
            paper_network(0.0).with_cpu("host-cpu", 2),
            "paper network + host cpu:2".to_string(),
        ),
    };
    if net.all_devices().is_empty() && net.all_cpus().is_empty() {
        return Err(format!("topology {label:?} has no device and no cpu worker"));
    }
    let sched = parse_sched(args, SchedPolicy::Static)?;
    let retune = parse_retune(args)?;
    let (telemetry, log) = parse_telemetry(args)?;
    let _metrics_server = spawn_metrics_server(args, &telemetry, None)?;
    arm_flight_recorder(args, &telemetry);
    let targets = TargetSet::new(algo, &[digest]);
    log.info(format!(
        "cluster [{label}]: searching {} {} candidates ({sched} schedule{})",
        space.size(),
        algo.name(),
        if retune.is_some() { ", closed-loop retune" } else { "" }
    ));
    let fleet = plan_fleet(&net, algo, &telemetry);
    let options = ClusterOptions {
        first_hit_only: !args.has("all"),
        sched,
        retune,
        telemetry: telemetry.clone(),
        ..ClusterOptions::default()
    };
    let r = run_cluster(fleet, &space, &targets, space.interval(), options);
    print!("{}", render_worker_stats(&r.stats));
    log.info(format!(
        "parallel efficiency: {:.1}% (the paper reports 85-90%)",
        r.parallel_efficiency()
    ));
    write_artifacts(args, &telemetry, &log)?;
    if r.hits.is_empty() {
        return Err(format!("not found; tested {} keys", r.tested));
    }
    for (id, key, _) in &r.hits {
        println!("FOUND: \"{key}\" (identifier {id})");
    }
    println!("tested {} keys across {} workers", r.tested, r.per_device.len());
    Ok(())
}

pub(super) fn cmd_simulate(args: &Args) -> Result<(), String> {
    let algo = parse_algo(args)?;
    let keys: f64 = args.get_parse_or("keys", 5e11)?;
    if keys <= 0.0 || !keys.is_finite() {
        return Err("--keys must be positive".into());
    }
    let (net, label) = match args.get("topology") {
        Some(t) => (eks_cluster::parse_topology(t, 2e-3)?, t.to_string()),
        None => (
            paper_network(2e-3),
            "A(540M) -> B(660, 550Ti), A -> C(8600M) -> D(8800)".to_string(),
        ),
    };
    let r = simulate_search(&net, Tool::OurApproach, algo, keys, SimParams::default());
    println!("network: {label}");
    println!("keys            : {keys:.3e}");
    println!("makespan        : {:.1} s (simulated)", r.makespan_s);
    println!("throughput      : {:.1} MKey/s", r.achieved_mkeys);
    println!("sum theoretical : {:.1} MKey/s", r.sum_theoretical_mkeys);
    println!("efficiency      : {:.3}", r.table9_efficiency());
    Ok(())
}

pub(super) fn cmd_tune(args: &Args) -> Result<(), String> {
    let threads: usize = args.get_parse_or("threads", 4)?;
    println!("{:<24}{:>14}{:>14}{:>14}", "worker", "theoretical", "achieved", "n_j (99%)");
    for d in DeviceCatalog::paper_devices() {
        let t = tune_device(&d, Tool::OurApproach, HashAlgo::Md5, AchievedModel::Analytic);
        println!(
            "{:<24}{:>9.1} MK/s{:>9.1} MK/s{:>14}",
            d.name, t.theoretical_mkeys, t.achieved_mkeys, t.min_batch
        );
    }
    let cpu = eks_cluster::tuning::measure_cpu_mkeys(threads, HashAlgo::Md5);
    println!("{:<24}{:>14}{:>9.1} MK/s  (measured on this host)", format!("local CPU x{threads}"), "", cpu);
    Ok(())
}

pub(super) fn cmd_strength(args: &Args) -> Result<(), String> {
    let algo = parse_algo(args)?;
    let password = args.positional(1).ok_or("strength requires a password argument")?;
    let charset = match args.get("charset") {
        Some(_) => parse_charset(args)?,
        None => Charset::alphanumeric(),
    };
    let min: u32 = args.get_parse_or("min", 1)?;
    let max: u32 = args.get_parse_or("max", 8)?;
    let space = KeySpace::new(charset, min, max, Order::FirstCharFastest)
        .map_err(|e| e.to_string())?;
    let key = eks_keyspace::Key::from_bytes(password.as_bytes());
    println!(
        "password {password:?} vs the {} keyspace ({} candidates):",
        algo.name(),
        space.size()
    );
    let net = paper_network(2e-3);
    println!("{:<24}{:>14}{:>16}{:>16}", "attacker", "MKey/s", "time to reach", "full sweep");
    for dev in eks_gpusim::device::DeviceCatalog::paper_devices() {
        match eks_cluster::estimate_against_device(&key, &space, algo, &dev) {
            Some(e) => println!(
                "{:<24}{:>14.0}{:>16}{:>16}",
                dev.name,
                e.attacker_mkeys,
                eks_cluster::StrengthEstimate::render_duration(e.time_to_reach_s),
                eks_cluster::StrengthEstimate::render_duration(e.full_sweep_s)
            ),
            None => {
                println!("password is outside this keyspace — it survives this sweep outright");
                return Ok(());
            }
        }
    }
    if let Some(e) = eks_cluster::estimate_against_cluster(&key, &space, algo, &net) {
        println!(
            "{:<24}{:>14.0}{:>16}{:>16}",
            "whole paper network",
            e.attacker_mkeys,
            eks_cluster::StrengthEstimate::render_duration(e.time_to_reach_s),
            eks_cluster::StrengthEstimate::render_duration(e.full_sweep_s)
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::args::Args;
    use crate::commands::run;
    use eks_hashes::{to_hex, HashAlgo};
    use eks_telemetry::parse_prometheus;

    fn args(s: &[&str]) -> Args {
        Args::parse(s.iter().map(|x| x.to_string())).unwrap()
    }

    #[test]
    fn cluster_command_cracks_heterogeneously() {
        let digest = to_hex(&HashAlgo::Md5.hash(b"cab"));
        let a = args(&[
            "cluster", "--digest", &digest, "--max", "3",
            "--topology", "box(660, cpu:2)",
        ]);
        assert!(run("cluster", &a).is_ok());
        let not_found = args(&[
            "cluster", "--digest", &"00".repeat(16), "--max", "2",
            "--topology", "box(660, cpu:2)",
        ]);
        assert!(run("cluster", &not_found).is_err());
        let no_digest = args(&["cluster"]);
        assert!(run("cluster", &no_digest).is_err());
    }

    #[test]
    fn cluster_sched_flag() {
        let digest = to_hex(&HashAlgo::Md5.hash(b"cab"));
        let a = args(&[
            "cluster", "--digest", &digest, "--max", "3",
            "--topology", "box(660, cpu:2)", "--sched", "steal",
        ]);
        assert!(run("cluster", &a).is_ok());
        let bad = args(&[
            "cluster", "--digest", &digest, "--max", "3",
            "--topology", "box(660)", "--sched", "lifo",
        ]);
        assert!(run("cluster", &bad).is_err());
    }

    #[test]
    fn cluster_retune_flag_publishes_live_rate_gauges() {
        let dir = std::env::temp_dir();
        let metrics = dir.join(format!("eks-cli-cluster-retune-{}.prom", std::process::id()));
        let digest = to_hex(&HashAlgo::Md5.hash(b"cab"));
        let a = args(&[
            "cluster", "--digest", &digest, "--max", "3", "--all",
            "--topology", "box(660, cpu:2)", "--sched", "steal", "--retune",
            "--retune-interval", "2", "--metrics-out", metrics.to_str().unwrap(),
        ]);
        assert!(run("cluster", &a).is_ok());
        let samples = parse_prometheus(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        assert!(samples.iter().any(|s| s.name == "eks_worker_rate_est_mkeys"), "{samples:?}");
        assert!(samples.iter().any(|s| s.name == "eks_worker_rate_tuned_mkeys"), "{samples:?}");
        assert!(samples.iter().any(|s| s.name == "eks_rescatter_total"), "{samples:?}");
        std::fs::remove_file(&metrics).ok();
    }

    #[test]
    fn cluster_writes_artifacts_too() {
        let dir = std::env::temp_dir();
        let metrics = dir.join(format!("eks-cli-cluster-{}.prom", std::process::id()));
        let digest = to_hex(&HashAlgo::Md5.hash(b"cab"));
        let a = args(&[
            "cluster",
            "--digest",
            &digest,
            "--max",
            "3",
            "--topology",
            "box(660, cpu:2)",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ]);
        assert!(run("cluster", &a).is_ok());
        let samples = parse_prometheus(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        assert!(samples.iter().any(|s| s.name == "eks_device_tuned_rate_mkeys"), "{samples:?}");
        assert!(samples.iter().any(|s| s.name == "eks_cluster_efficiency_percent"), "{samples:?}");
        std::fs::remove_file(&metrics).ok();
    }

    #[test]
    fn simulate_custom_topology() {
        let a = args(&["simulate", "--keys", "1e9", "--topology", "A(660) -> B(550Ti)"]);
        assert!(run("simulate", &a).is_ok());
        let bad = args(&["simulate", "--topology", "A(madeup)"]);
        assert!(run("simulate", &bad).is_err());
    }

    #[test]
    fn strength_command() {
        assert!(run("strength", &args(&["strength", "Cat42"])).is_ok());
        assert!(run("strength", &args(&["strength", "p@ss!"])).is_ok(), "out of space is informative");
        assert!(run("strength", &args(&["strength"])).is_err(), "needs a password");
    }
}
