//! `eks analyze` — static analysis over the kernel IR.

use crate::args::Args;
use eks_gpusim::codegen::lower;
use eks_gpusim::device::DeviceCatalog;
use eks_gpusim::sched::{simulate, SimConfig};
use eks_gpusim::throughput::theoretical_mkeys;
use eks_hashes::HashAlgo;
use eks_kernels::{Tool, ToolKernel};

use super::parse_algo;

pub(super) fn cmd_analyze(args: &Args) -> Result<(), String> {
    use eks_analyzer::{analyze_compiled, analyze_ir, md5_budget_report, DEFAULT_TOLERANCE};
    use eks_gpusim::arch::ComputeCapability;
    use eks_gpusim::codegen::LoweringOptions;
    use eks_kernels::md4::{build_md4, Md4Variant};
    use eks_kernels::md5::{build_md5, Md5Variant};
    use eks_kernels::sha1::{build_sha1, Sha1Variant};
    use eks_kernels::words_for;

    let algo = parse_algo(args)?;
    let variant = args.get_or("variant", "optimized");
    let json = args.has("json");
    let tolerance: f64 = args.get_parse_or("tolerance", DEFAULT_TOLERANCE)?;
    if !(0.0..=1.0).contains(&tolerance) {
        return Err(format!("--tolerance {tolerance} must be a fraction in 0..=1"));
    }
    let deny_warnings = match args.get("deny") {
        None => false,
        Some("warnings") => true,
        Some(other) => return Err(format!("unsupported --deny {other:?} (only: warnings)")),
    };

    // Build the requested kernel: its IR, the dead-store roots (comparison
    // outputs plus loop-carried registers) and whether it should lower
    // with the per-architecture optimizations. An iterated KDF analyzes
    // its base kernel — the round loop is driver code, not device IR.
    let words = words_for(algo, 4);
    let (ir, roots, optimized) = match algo.base() {
        HashAlgo::Md5 => {
            let v = match variant {
                "naive" => Md5Variant::Naive,
                "reversed" => Md5Variant::Reversed,
                "optimized" => Md5Variant::Optimized,
                other => return Err(format!("unknown --variant {other:?}")),
            };
            let b = build_md5(v, &words);
            (b.ir, [b.outputs, b.carried].concat(), v == Md5Variant::Optimized)
        }
        HashAlgo::Sha1 => {
            let v = match variant {
                "naive" => Sha1Variant::Naive,
                "optimized" => Sha1Variant::Optimized,
                other => return Err(format!("unknown sha1 --variant {other:?} (naive, optimized)")),
            };
            let b = build_sha1(v, &words);
            (b.ir, [b.outputs, b.carried].concat(), v == Sha1Variant::Optimized)
        }
        HashAlgo::Ntlm => {
            let v = match variant {
                "naive" => Md4Variant::Naive,
                "reversed" => Md4Variant::Reversed,
                "optimized" => Md4Variant::Optimized,
                other => return Err(format!("unknown --variant {other:?}")),
            };
            let b = build_md4(v, &words);
            (b.ir, [b.outputs, b.carried].concat(), v == Md4Variant::Optimized)
        }
        HashAlgo::Md5Iter { .. } => unreachable!("base() strips iteration"),
    };

    // Run the whole pipeline: IR dataflow, per-architecture peephole and
    // pressure lints, and (for MD5) the Table III-VI budget gate.
    let mut reports = vec![analyze_ir(&ir, Some(&roots))];
    for cc in ComputeCapability::ALL {
        let opts =
            if optimized { LoweringOptions::for_cc(cc) } else { LoweringOptions::plain(cc) };
        reports.push(analyze_compiled(&lower(&ir, opts)));
    }
    if algo == HashAlgo::Md5 {
        reports.push(md5_budget_report(tolerance));
    }
    if deny_warnings {
        for r in &mut reports {
            r.deny_warnings();
        }
    }
    let warnings: usize = reports.iter().map(|r| r.warnings()).sum();
    let denials: usize = reports.iter().map(|r| r.denials()).sum();

    if json {
        let body: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
        println!("[{}]", body.join(","));
    } else {
        print_analyze_tables(algo);
        println!();
        println!("lints ({} {variant}, tolerance {:.0}%):", algo.name(), tolerance * 100.0);
        let mut any = false;
        for r in &reports {
            let text = r.render_text();
            if !text.is_empty() {
                print!("{text}");
                any = true;
            }
        }
        if !any {
            println!("  clean: no findings");
        }
        println!("analyze: {warnings} warning(s), {denials} error(s)");
    }

    if denials > 0 {
        Err(format!("{denials} deny-level diagnostic(s)"))
    } else {
        Ok(())
    }
}

/// The original instruction-count and throughput tables (text mode only).
fn print_analyze_tables(algo: HashAlgo) {
    use eks_gpusim::arch::ComputeCapability;
    println!("{} kernel, per architecture:", algo.name());
    println!(
        "{:<6}{:>8}{:>8}{:>10}{:>8}{:>8}{:>10}",
        "cc", "IADD", "LOP", "SHR/SHL", "IMAD", "PRMT", "R"
    );
    for cc in [ComputeCapability::Sm1x, ComputeCapability::Sm21, ComputeCapability::Sm30] {
        let tk = ToolKernel::build(Tool::OurApproach, algo, cc);
        let k = lower(&tk.ir, tk.options);
        println!(
            "{:<6}{:>8}{:>8}{:>10}{:>8}{:>8}{:>10.2}",
            cc.label(),
            k.counts.iadd(),
            k.counts.lop(),
            k.counts.shift(),
            k.counts.imad(),
            k.counts.prmt(),
            k.counts.ratio()
        );
    }
    println!();
    println!("{:<24}{:>14}{:>14}{:>8}", "device", "theoretical", "simulated", "eff");
    for dev in DeviceCatalog::paper_devices() {
        let tk = ToolKernel::build(Tool::OurApproach, algo, dev.cc);
        let k = lower(&tk.ir, tk.options);
        let theo = theoretical_mkeys(&dev, &k.counts) * k.keys_per_iteration as f64;
        let sim = simulate(&k, SimConfig::for_cc(dev.cc)).device_mkeys(&dev);
        println!(
            "{:<24}{:>9.1} MK/s{:>9.1} MK/s{:>7.1}%",
            dev.name,
            theo,
            sim,
            sim / theo * 100.0
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::args::Args;
    use crate::commands::run;

    fn args(s: &[&str]) -> Args {
        Args::parse(s.iter().map(|x| x.to_string())).unwrap()
    }

    #[test]
    fn analyze_default_is_clean_even_denying_warnings() {
        // The optimized MD5 kernel must produce zero findings, so the CI
        // gate (`eks analyze --deny warnings`) passes.
        assert!(run("analyze", &args(&["analyze"])).is_ok());
        assert!(run("analyze", &args(&["analyze", "--deny", "warnings"])).is_ok());
        assert!(run("analyze", &args(&["analyze", "--json"])).is_ok());
    }

    #[test]
    fn analyze_naive_variant_fails_the_warning_gate() {
        // Warnings (missed PRMT / funnel lowerings) are tolerated by
        // default but fatal under --deny warnings.
        let a = args(&["analyze", "--variant", "naive"]);
        assert!(run("analyze", &a).is_ok());
        let a = args(&["analyze", "--variant", "naive", "--deny", "warnings"]);
        assert!(run("analyze", &a).is_err());
    }

    #[test]
    fn analyze_zero_tolerance_trips_the_budget_gate() {
        // Our compiled mixes track the paper's tables within a few
        // percent, not exactly: tightening the tolerance to zero must
        // produce deny-level budget drift and a non-zero exit.
        let a = args(&["analyze", "--tolerance", "0.0"]);
        assert!(run("analyze", &a).is_err());
    }

    #[test]
    fn analyze_rejects_bad_flags() {
        assert!(run("analyze", &args(&["analyze", "--variant", "turbo"])).is_err());
        assert!(run("analyze", &args(&["analyze", "--deny", "everything"])).is_err());
        assert!(run("analyze", &args(&["analyze", "--tolerance", "7"])).is_err());
        // SHA-1 has no reversed-only variant.
        let a = args(&["analyze", "--algo", "sha1", "--variant", "reversed"]);
        assert!(run("analyze", &a).is_err());
    }

    #[test]
    fn analyze_other_algos() {
        assert!(run("analyze", &args(&["analyze", "--algo", "sha1"])).is_ok());
        assert!(run("analyze", &args(&["analyze", "--algo", "ntlm"])).is_ok());
        // NTLM naive on cc 3.5 leaves funnel shifts on the table.
        let a = args(&["analyze", "--algo", "ntlm", "--variant", "naive", "--deny", "warnings"]);
        assert!(run("analyze", &a).is_err());
    }
}
