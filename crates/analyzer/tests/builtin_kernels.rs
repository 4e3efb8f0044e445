//! The full lint pipeline over every built-in kernel variant — the
//! tentpole's end-to-end contract. Optimized variants must come out of
//! the per-architecture peephole pass clean; naive variants must show
//! exactly the missed lowerings the paper fixes by hand (`__byte_perm`
//! on cc 3.0, the funnel shift on cc 3.5); nothing may produce a
//! deny-level diagnostic at the documented budget tolerance.

use eks_analyzer::{analyze_compiled, analyze_ir, md5_budget_report, Lint, DEFAULT_TOLERANCE};
use eks_gpusim::arch::ComputeCapability;
use eks_gpusim::codegen::{lower, LoweringOptions};
use eks_gpusim::isa::{KernelIr, Reg};
use eks_kernels::baseline::{Tool, ToolKernel};
use eks_kernels::HashAlgo;
use eks_kernels::md4::{build_md4, ntlm_words_for_key_len, Md4Variant};
use eks_kernels::md5::{build_md5, Md5Variant};
use eks_kernels::sha1::{build_sha1, sha1_words_for_key_len, Sha1Variant};
use eks_kernels::words_for_key_len;

/// Dead-store roots: comparison outputs plus loop-carried registers.
fn roots(outputs: &[Reg], carried: &[Reg]) -> Vec<Reg> {
    let mut r = outputs.to_vec();
    r.extend_from_slice(carried);
    r
}

fn lint_counts(ir: &KernelIr, opts: LoweringOptions) -> std::collections::BTreeMap<Lint, usize> {
    let report = analyze_compiled(&lower(ir, opts));
    let mut by = std::collections::BTreeMap::new();
    for d in &report.diagnostics {
        *by.entry(d.lint).or_insert(0usize) += 1;
    }
    by
}

#[test]
fn every_builtin_ir_is_dataflow_clean() {
    let mut built = Vec::new();
    for v in [Md5Variant::Naive, Md5Variant::Reversed, Md5Variant::Optimized] {
        built.push(build_md5(v, &words_for_key_len(4)));
    }
    for v in [Sha1Variant::Naive, Sha1Variant::Optimized] {
        let b = build_sha1(v, &sha1_words_for_key_len(4));
        built.push(eks_kernels::md5::BuiltKernel {
            ir: b.ir,
            outputs: b.outputs,
            carried: b.carried,
        });
    }
    for v in [Md4Variant::Naive, Md4Variant::Reversed, Md4Variant::Optimized] {
        let b = build_md4(v, &ntlm_words_for_key_len(4));
        built.push(eks_kernels::md5::BuiltKernel {
            ir: b.ir,
            outputs: b.outputs,
            carried: b.carried,
        });
    }
    for b in &built {
        let report = analyze_ir(&b.ir, Some(&roots(&b.outputs, &b.carried)));
        assert!(
            report.diagnostics.is_empty(),
            "{} should be dataflow-clean:\n{}",
            b.ir.name,
            report.render_text()
        );
    }
}

#[test]
fn optimized_md5_is_lint_clean_on_every_architecture() {
    let b = build_md5(Md5Variant::Optimized, &words_for_key_len(4));
    for cc in ComputeCapability::ALL {
        let report = analyze_compiled(&lower(&b.ir, LoweringOptions::for_cc(cc)));
        assert!(
            report.diagnostics.is_empty(),
            "optimized md5 on cc {} must be clean:\n{}",
            cc.label(),
            report.render_text()
        );
    }
}

#[test]
fn naive_md5_shows_the_papers_missed_lowerings() {
    let b = build_md5(Md5Variant::Naive, &words_for_key_len(4));

    // cc 3.0: round 3's four rotate-by-16s should have been `PRMT`
    // (`__byte_perm`) — the Table VI optimization.
    let by = lint_counts(&b.ir, LoweringOptions::plain(ComputeCapability::Sm30));
    assert_eq!(by.get(&Lint::PrmtMissed), Some(&4), "{by:?}");
    assert_eq!(by.get(&Lint::FunnelMissed), None);

    // cc 3.5: every rotate should have been a funnel shift.
    let by = lint_counts(&b.ir, LoweringOptions::plain(ComputeCapability::Sm35));
    assert_eq!(by.get(&Lint::FunnelMissed), Some(&64), "{by:?}");

    // cc 2.0 has neither instruction; nothing to flag.
    let by = lint_counts(&b.ir, LoweringOptions::plain(ComputeCapability::Sm20));
    assert!(by.is_empty(), "{by:?}");
}

#[test]
fn reversed_md5_flags_fewer_rotates_than_naive() {
    // The 15-step reversal removes rotates along with everything else, so
    // the funnel lint count drops with it (64 -> 49 rotates).
    let naive = build_md5(Md5Variant::Naive, &words_for_key_len(4));
    let reversed = build_md5(Md5Variant::Reversed, &words_for_key_len(4));
    let opts = LoweringOptions::plain(ComputeCapability::Sm35);
    let n = lint_counts(&naive.ir, opts)[&Lint::FunnelMissed];
    let r = lint_counts(&reversed.ir, opts)[&Lint::FunnelMissed];
    assert!(r < n, "reversal must shrink the rotate count ({r} vs {n})");
}

#[test]
fn sha1_and_ntlm_variants_behave_like_md5() {
    // SHA-1 rotates by 1, 5 and 30 — never 16 — so the PRMT lint stays
    // silent even on the naive variant; the funnel lint does not.
    let naive = build_sha1(Sha1Variant::Naive, &sha1_words_for_key_len(4));
    let by = lint_counts(&naive.ir, LoweringOptions::plain(ComputeCapability::Sm30));
    assert_eq!(by.get(&Lint::PrmtMissed), None, "{by:?}");
    let by = lint_counts(&naive.ir, LoweringOptions::plain(ComputeCapability::Sm35));
    assert!(by[&Lint::FunnelMissed] > 0);

    let opt = build_sha1(Sha1Variant::Optimized, &sha1_words_for_key_len(4));
    for cc in ComputeCapability::ALL {
        let report = analyze_compiled(&lower(&opt.ir, LoweringOptions::for_cc(cc)));
        for d in &report.diagnostics {
            // Register pressure warnings are expected on the older parts
            // (SHA-1 holds the whole schedule live); missed-lowering lints
            // are not.
            assert_eq!(d.lint, Lint::RegisterPressure, "{}", report.render_text());
        }
    }

    // NTLM (MD4): optimized lowering is clean everywhere.
    let opt = build_md4(Md4Variant::Optimized, &ntlm_words_for_key_len(4));
    for cc in ComputeCapability::ALL {
        let report = analyze_compiled(&lower(&opt.ir, LoweringOptions::for_cc(cc)));
        assert!(report.diagnostics.is_empty(), "{}", report.render_text());
    }
    let naive = build_md4(Md4Variant::Naive, &ntlm_words_for_key_len(4));
    let by = lint_counts(&naive.ir, LoweringOptions::plain(ComputeCapability::Sm35));
    assert!(by[&Lint::FunnelMissed] > 0);
}

#[test]
fn baseline_tool_kernels_never_deny() {
    // The Table VIII baselines (BarsWF, Cryptohaze) lower with their own
    // option sets; the analyzer may warn about what they leave on the
    // table but must not produce deny-level diagnostics.
    for tool in [Tool::OurApproach, Tool::BarsWf, Tool::Cryptohaze] {
        for algo in [HashAlgo::Md5, HashAlgo::Sha1, HashAlgo::Ntlm] {
            for cc in ComputeCapability::ALL {
                let tk = ToolKernel::build(tool, algo, cc);
                let report = analyze_compiled(&lower(&tk.ir, tk.options));
                assert_eq!(
                    report.denials(),
                    0,
                    "{:?}/{:?} on cc {}:\n{}",
                    tool,
                    algo,
                    cc.label(),
                    report.render_text()
                );
            }
        }
    }
}

#[test]
fn budgets_hold_at_documented_tolerance_and_trip_at_zero() {
    let ok = md5_budget_report(DEFAULT_TOLERANCE);
    assert_eq!(ok.denials(), 0, "{}", ok.render_text());
    // Our builder tracks the published mixes within a few percent, not
    // exactly; a zero tolerance therefore must fail the gate.
    let strict = md5_budget_report(0.0);
    assert!(strict.denials() > 0);
    assert!(strict.diagnostics.iter().all(|d| d.lint == Lint::BudgetDrift));
}
