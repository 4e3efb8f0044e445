//! `eks verify` — the scheduler model checker and grid-IR soundness
//! passes, plus the seeded-bug mutants that prove the checks non-vacuous.

use crate::args::Args;

/// The `algo/variant` names of every shipped kernel whose launch
/// wrapper `eks verify` proves sound.
const SHIPPED_VARIANTS: [&str; 8] = [
    "md5/naive",
    "md5/reversed",
    "md5/optimized",
    "sha1/naive",
    "sha1/optimized",
    "ntlm/naive",
    "ntlm/reversed",
    "ntlm/optimized",
];

/// Render a scheduler-protocol check result as a JSON object sharing
/// the analyzer's schema-version stamp.
fn sched_check_json(
    name: &str,
    workers: usize,
    intervals: u128,
    out: &eks_verify::CheckOutcome,
) -> String {
    use eks_telemetry::json_string;
    use std::fmt::Write as _;
    let mut s = String::new();
    write!(
        s,
        "{{\"schema\":{},\"check\":{},\"workers\":{workers},\"intervals\":{intervals},\
         \"states\":{},\"transitions\":{},\"deepest\":{},\"truncated\":{},\"violations\":{}",
        eks_analyzer::SCHEMA_VERSION,
        json_string(name),
        out.states,
        out.transitions,
        out.deepest,
        out.truncated,
        usize::from(!out.clean()),
    )
    .expect("write to string");
    match &out.violation {
        None => s.push_str(",\"violation\":null}"),
        Some(v) => {
            write!(
                s,
                ",\"violation\":{{\"property\":{},\"message\":{},\"trace\":[",
                json_string(v.property.name()),
                json_string(&v.message)
            )
            .expect("write to string");
            for (i, step) in v.trace.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&json_string(&format!("{} {}", step.action, step.state)));
            }
            s.push_str("]}}");
        }
    }
    s
}

/// Run one seeded-bug model (`--mutate NAME`): the checker or IR passes
/// must flag it, the command exits non-zero, and the counterexample is
/// printed — a live demonstration that the verifier is not vacuous.
pub(super) fn cmd_verify_mutant(
    name: &str,
    workers: usize,
    intervals: u128,
    opts: eks_verify::CheckOptions,
    json: bool,
) -> Result<(), String> {
    use eks_analyzer::analyze_grid;
    use eks_gpusim::gridir::{
        mutant_divergent_barrier, mutant_unguarded_store, mutant_uninit_read,
    };
    use eks_verify::{check, ModelConfig, Mutation};

    let keys = intervals * 2;
    let sched = |cfg: ModelConfig, m: Mutation| -> Result<(), String> {
        let out = check(cfg.with_mutation(m), opts);
        if json {
            println!(
                "[{}]",
                sched_check_json(&format!("mutant/{name}"), workers, intervals, &out)
            );
        }
        match out.violation {
            Some(v) => {
                if !json {
                    print!("{}", v.render());
                }
                Err(format!("mutant {name:?} flagged: {} violated", v.property))
            }
            None => {
                if !json {
                    println!(
                        "mutant {name:?}: no violation found in {} states — the checker \
                         failed to flag a seeded bug",
                        out.states
                    );
                }
                Ok(())
            }
        }
    };
    let grid = |kernel: eks_gpusim::gridir::GridKernel| -> Result<(), String> {
        let report = analyze_grid(&kernel);
        if json {
            println!("[{}]", report.to_json());
        } else {
            print!("{}", report.render_text());
        }
        if report.denials() > 0 {
            Err(format!("mutant {name:?} flagged: {} error(s)", report.denials()))
        } else {
            Ok(())
        }
    };
    match name {
        "drop-lease" => sched(
            ModelConfig::steal_intervals(workers, intervals),
            Mutation::DropStolenLease,
        ),
        "double-count" => sched(
            ModelConfig::steal_intervals(workers, intervals),
            Mutation::DoubleCountSteal,
        ),
        "merge-highest" => {
            sched(ModelConfig::first_hit(workers, keys), Mutation::MergeHighestFirst)
        }
        "ignore-cancel" => {
            sched(ModelConfig::cancel_bound(workers, keys), Mutation::IgnoreCancelPoll)
        }
        "stop-at-any-hit" => sched(ModelConfig::first_hit(workers, keys), Mutation::StopAtAnyHit),
        "unguarded-store" => grid(mutant_unguarded_store("mutant/unguarded-store")),
        "uninit-read" => grid(mutant_uninit_read("mutant/uninit-read")),
        "divergent-barrier" => grid(mutant_divergent_barrier("mutant/divergent-barrier")),
        other => Err(format!(
            "unknown --mutate {other:?} (drop-lease, double-count, merge-highest, \
             ignore-cancel, stop-at-any-hit, unguarded-store, uninit-read, divergent-barrier)"
        )),
    }
}

pub(super) fn cmd_verify(args: &Args) -> Result<(), String> {
    use eks_analyzer::analyze_grid;
    use eks_gpusim::gridir::search_wrapper;
    use eks_verify::{check, standard_checks, CheckOptions};

    let workers: usize = args.get_parse_or("workers", 2usize)?;
    let intervals: u128 = args.get_parse_or("intervals", 8u128)?;
    let depth: usize = args.get_parse_or("depth", CheckOptions::default().max_depth)?;
    let json = args.has("json");
    // Violations and deny-level IR findings always fail the command;
    // `--deny violations` names that default for CI scripts, and
    // `--deny warnings` additionally escalates IR warnings.
    let deny_warnings = match args.get("deny") {
        None | Some("violations") => false,
        Some("warnings") => true,
        Some(other) => {
            return Err(format!("unsupported --deny {other:?} (violations or warnings)"))
        }
    };
    if !(1..=4).contains(&workers) {
        return Err(format!(
            "--workers {workers} out of range 1..=4: exhaustive interleaving \
             exploration grows factorially with workers"
        ));
    }
    if !(1..=12).contains(&intervals) {
        return Err(format!("--intervals {intervals} out of range 1..=12"));
    }
    let opts = CheckOptions { max_depth: depth, ..CheckOptions::default() };

    if let Some(m) = args.get("mutate") {
        return cmd_verify_mutant(m, workers, intervals, opts, json);
    }

    let mut json_parts: Vec<String> = Vec::new();
    let mut violations = 0usize;

    if !json {
        println!(
            "scheduler protocol (workers={workers}, intervals={intervals}, depth={depth}):"
        );
    }
    for c in standard_checks(workers, intervals) {
        let out = check(c.config.clone(), opts);
        if json {
            json_parts.push(sched_check_json(c.name, workers, intervals, &out));
        } else {
            let verdict = if let Some(v) = &out.violation {
                format!("VIOLATION: {}", v.property)
            } else if out.truncated {
                "ok (truncated: raise --depth for the full bound)".to_string()
            } else {
                "ok".to_string()
            };
            println!(
                "  {:<30} states={:<8} transitions={:<8} {verdict}",
                c.name, out.states, out.transitions
            );
            if let Some(v) = &out.violation {
                print!("{}", v.render());
            }
        }
        if !out.clean() {
            violations += 1;
        }
    }

    let mut errors = 0usize;
    if !json {
        println!("kernel launch skeletons (grid IR):");
    }
    for name in SHIPPED_VARIANTS {
        let mut report = analyze_grid(&search_wrapper(name));
        if deny_warnings {
            report.deny_warnings();
        }
        errors += report.denials();
        if json {
            json_parts.push(report.to_json());
        } else {
            let text = report.render_text();
            if text.is_empty() {
                println!("  {name:<30} clean (bounds, must-defined, divergence)");
            } else {
                print!("{text}");
            }
        }
    }

    if json {
        println!("[{}]", json_parts.join(","));
    } else {
        println!("verify: {violations} violation(s), {errors} error(s)");
    }
    if violations + errors > 0 {
        Err(format!("{violations} violation(s), {errors} deny-level diagnostic(s)"))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::sched_check_json;
    use crate::args::Args;
    use crate::commands::run;

    fn args(s: &[&str]) -> Args {
        Args::parse(s.iter().map(|x| x.to_string())).unwrap()
    }

    #[test]
    fn verify_default_suite_is_clean() {
        // Small worker/interval counts keep the exhaustive exploration
        // fast enough for a unit test; every shipped configuration and
        // kernel wrapper must come back clean.
        let a = args(&["verify", "--workers", "2", "--intervals", "4"]);
        assert!(run("verify", &a).is_ok());
        let a = args(&["verify", "--workers", "2", "--intervals", "4", "--json"]);
        assert!(run("verify", &a).is_ok());
        let a = args(&["verify", "--workers", "2", "--intervals", "4", "--deny", "violations"]);
        assert!(run("verify", &a).is_ok());
        let a = args(&["verify", "--workers", "2", "--intervals", "4", "--deny", "warnings"]);
        assert!(run("verify", &a).is_ok());
    }

    #[test]
    fn verify_flags_every_seeded_mutant() {
        // A verifier that cannot flag a seeded bug is vacuous: every
        // mutant must produce a non-zero exit.
        for m in [
            "drop-lease",
            "double-count",
            "merge-highest",
            "ignore-cancel",
            "stop-at-any-hit",
            "unguarded-store",
            "uninit-read",
            "divergent-barrier",
        ] {
            let a = args(&["verify", "--workers", "2", "--intervals", "4", "--mutate", m]);
            assert!(run("verify", &a).is_err(), "--mutate {m} must fail");
        }
    }

    #[test]
    fn verify_scheduler_json_shape_is_pinned() {
        // `eks verify --json` shares the analyzer's schema stamp; the
        // field order of the scheduler-check objects is contract (see
        // tests/diagnostics_schema.rs for the kernel-report half).
        let out =
            eks_verify::check(eks_verify::ModelConfig::exhaustive(1, 2), Default::default());
        let j = sched_check_json("scheduler/demo", 1, 1, &out);
        assert!(
            j.starts_with(
                "{\"schema\":1,\"check\":\"scheduler/demo\",\"workers\":1,\"intervals\":1,"
            ),
            "{j}"
        );
        for key in ["\"states\":", "\"transitions\":", "\"deepest\":", "\"truncated\":false"] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        assert!(j.ends_with("\"violations\":0,\"violation\":null}"), "{j}");
    }

    #[test]
    fn verify_rejects_bad_flags() {
        assert!(run("verify", &args(&["verify", "--workers", "9"])).is_err());
        assert!(run("verify", &args(&["verify", "--intervals", "40"])).is_err());
        assert!(run("verify", &args(&["verify", "--deny", "everything"])).is_err());
        assert!(run("verify", &args(&["verify", "--mutate", "nonexistent"])).is_err());
        assert!(run("verify", &args(&["verify", "--depth", "banana"])).is_err());
    }
}
