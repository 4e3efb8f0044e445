//! `eks bench` — the host-tuning report over every CPU backend.

use crate::args::Args;
use eks_cracker::{cpu_backend, CpuBackend, Kernel, Lanes};
use eks_engine::Backend;
use eks_hashes::{HashAlgo, SimdIsa};

/// `eks bench [--json FILE]`: the host-tuning report. Runs the tuning
/// sweep for every CPU backend and algorithm on this machine — `scalar`,
/// `cpu` (what detection picks) and each ISA `--isa` could force — prints
/// the single-thread rate table plus the detected CPU features and the
/// selected ISA, and with `--json` writes the schema-3 machine-readable
/// report (cpu_features, simd_isa, per-(backend, algo) rates, and under
/// `auto_choices` the kernel the `cpu` backend runs per algorithm).
pub(super) fn cmd_bench(args: &Args) -> Result<(), String> {
    use std::fmt::Write as _;
    const ALGOS: [HashAlgo; 3] = [HashAlgo::Md5, HashAlgo::Sha1, HashAlgo::Ntlm];
    // Lowercase algorithm keys, matching the CLI's `--algo` vocabulary
    // and the committed bench artifact.
    fn algo_key(algo: HashAlgo) -> &'static str {
        match algo {
            HashAlgo::Md5 => "md5",
            HashAlgo::Sha1 => "sha1",
            HashAlgo::Ntlm => "ntlm",
            // The tuning table covers the base primitives; the iterated
            // KDF's rate is derived (base / cost_factor), not swept.
            HashAlgo::Md5Iter { .. } => unreachable!("bench sweeps base algorithms only"),
        }
    }

    let features = eks_hashes::cpu_features();
    let isa = SimdIsa::detect();
    println!(
        "cpu features: {}",
        features
            .iter()
            .map(|(name, on)| format!("{name}={}", if *on { "yes" } else { "no" }))
            .collect::<Vec<_>>()
            .join("  ")
    );
    match isa {
        Some(isa) => println!("selected isa: {isa}"),
        None => println!("selected isa: none (portable-lane fallback)"),
    }

    // Every CPU backend the host can run; the simulated GPUs have their
    // own `tune` table and stay out of the host-tuning report.
    let mut backends: Vec<(String, Box<dyn Backend>)> = vec![
        ("scalar".into(), cpu_backend(Lanes::Scalar)),
        ("cpu".into(), Box::new(CpuBackend::default())),
    ];
    for forced in SimdIsa::ALL.into_iter().filter_map(|isa| CpuBackend::new(isa).ok()) {
        backends.push((forced.name(), Box::new(forced)));
    }

    println!(
        "{:<10} {:>10} {:>10} {:>10}   (tuned MKey/s, single thread)",
        "backend", "md5", "sha1", "ntlm"
    );
    let mut rates: Vec<(&str, HashAlgo, f64)> = Vec::new();
    for (name, backend) in &backends {
        let mut line = format!("{name:<10}");
        for algo in ALGOS {
            let rate = backend.tuned_rate(algo);
            let _ = write!(line, " {rate:>10.3}");
            rates.push((name, algo, rate));
        }
        println!("{line}");
    }
    let choices: Vec<(HashAlgo, String)> = ALGOS
        .into_iter()
        .map(|algo| (algo, Kernel::detect_for(Lanes::default(), algo).name()))
        .collect();
    println!(
        "cpu backend runs: {}",
        choices
            .iter()
            .map(|(algo, choice)| format!("{}={choice}", algo_key(*algo)))
            .collect::<Vec<_>>()
            .join("  ")
    );

    if let Some(path) = args.get("json") {
        let features_body = features
            .iter()
            .map(|(name, on)| format!("\"{name}\": {on}"))
            .collect::<Vec<_>>()
            .join(", ");
        let isa_body = match isa {
            Some(isa) => format!("\"{isa}\""),
            None => "null".to_string(),
        };
        let mut rates_body = String::new();
        for (name, algo, rate) in &rates {
            let _ = write!(
                rates_body,
                "{}    {{\"backend\": \"{name}\", \"algo\": \"{}\", \"mkeys_per_s\": {rate:.3}}}",
                if rates_body.is_empty() { "" } else { ",\n" },
                algo_key(*algo)
            );
        }
        let choices_body = choices
            .iter()
            .map(|(algo, choice)| format!("\"{}\": \"{choice}\"", algo_key(*algo)))
            .collect::<Vec<_>>()
            .join(", ");
        let json = format!(
            "{{\n  \"schema\": 3,\n  \"kind\": \"host-tuning\",\n  \
             \"cpu_features\": {{{features_body}}},\n  \"simd_isa\": {isa_body},\n  \
             \"rates\": [\n{rates_body}\n  ],\n  \"auto_choices\": {{{choices_body}}}\n}}\n"
        );
        std::fs::write(path, json).map_err(|e| format!("cannot write --json {path:?}: {e}"))?;
        println!("wrote host-tuning report to {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::args::Args;
    use crate::commands::run;

    fn args(s: &[&str]) -> Args {
        Args::parse(s.iter().map(|x| x.to_string())).unwrap()
    }

    #[test]
    fn bench_writes_the_schema3_host_tuning_report() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("eks-cli-bench-{}.json", std::process::id()));
        let a = args(&["bench", "--json", path.to_str().unwrap()]);
        assert!(run("bench", &a).is_ok());
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"schema\": 3"), "{body}");
        assert!(body.contains("\"cpu_features\""), "{body}");
        assert!(body.contains("\"avx2\""), "{body}");
        assert!(body.contains("\"simd_isa\""), "{body}");
        assert!(body.contains("\"auto_choices\""), "{body}");
        assert!(body.contains("\"backend\": \"cpu\""), "{body}");
        std::fs::remove_file(&path).ok();
    }
}
