//! Golden test pinning the JSON schema shared by `eks analyze --json`
//! and `eks verify --json`.
//!
//! Downstream tooling dispatches on the `schema` field stamped into
//! every emitted object, so its presence, position and value — and the
//! exact field layout around it — are contract, not implementation
//! detail. Any layout change must bump
//! [`eks::analyzer::SCHEMA_VERSION`] and update the goldens here in the
//! same commit. Adding new lint *names* is explicitly not a schema
//! change and must not disturb these tests.

use eks::analyzer::diagnostic::{Diagnostic, Lint, Report, Span, SCHEMA_VERSION};
use eks::telemetry::json_string;
use eks::analyzer::analyze_grid;
use eks::gpusim::gridir::{mutant_unguarded_store, search_wrapper};

/// The schema version every emitter stamps today. Bump deliberately.
#[test]
fn schema_version_is_pinned() {
    assert_eq!(SCHEMA_VERSION, 1, "schema bump: update the goldens in this file");
}

/// Byte-exact golden for an analyzer report: field order, nesting and
/// escaping are all pinned.
#[test]
fn analyzer_report_json_golden() {
    let mut r = Report::new("md5/optimized", "3.0");
    r.push(Diagnostic::warn(Lint::PrmtMissed, Span { start: 2, len: 1 }, "use PRMT"));
    r.push(Diagnostic::deny(Lint::BudgetDrift, Span::kernel(), "off \"budget\""));
    let expected = concat!(
        "{\"schema\":1,\"kernel\":\"md5/optimized\",\"cc\":\"3.0\",",
        "\"warnings\":1,\"errors\":1,\"diagnostics\":[",
        "{\"lint\":\"prmt-missed\",\"severity\":\"warning\",",
        "\"span\":{\"start\":2,\"len\":1},\"message\":\"use PRMT\"},",
        "{\"lint\":\"budget-drift\",\"severity\":\"error\",",
        "\"span\":{\"start\":0,\"len\":0},\"message\":\"off \\\"budget\\\"\"}",
        "]}"
    );
    assert_eq!(r.to_json(), expected);
}

/// An empty report still carries the schema stamp and the counters.
#[test]
fn empty_report_json_golden() {
    let r = Report::new("k", "-");
    assert_eq!(
        r.to_json(),
        "{\"schema\":1,\"kernel\":\"k\",\"cc\":\"-\",\"warnings\":0,\"errors\":0,\"diagnostics\":[]}"
    );
}

/// The grid-IR soundness reports (the `eks verify` kernel half) emit
/// the same layout: schema first, `cc` fixed to `"grid"`, and the
/// diagnostics array carrying the three grid lints by their pinned
/// kebab-case names.
#[test]
fn grid_reports_share_the_schema() {
    let clean = analyze_grid(&search_wrapper("md5/optimized")).to_json();
    assert!(clean.starts_with("{\"schema\":1,\"kernel\":\"md5/optimized\",\"cc\":\"grid\","), "{clean}");
    assert!(clean.ends_with("\"diagnostics\":[]}"), "{clean}");

    let dirty = analyze_grid(&mutant_unguarded_store("m")).to_json();
    assert!(dirty.contains("\"lint\":\"out-of-bounds\""), "{dirty}");
    assert!(dirty.contains("\"severity\":\"error\""), "{dirty}");
}

/// The grid lint identifiers are part of the published JSON vocabulary.
#[test]
fn grid_lint_names_are_pinned() {
    assert_eq!(Lint::OutOfBounds.name(), "out-of-bounds");
    assert_eq!(Lint::UninitRead.name(), "uninit-read");
    assert_eq!(Lint::BarrierDivergence.name(), "barrier-divergence");
}

/// `json_string` is the single escaping routine every hand-rolled emitter
/// in the workspace shares; its behavior is contract too.
#[test]
fn json_string_escaping_golden() {
    assert_eq!(json_string("plain"), "\"plain\"");
    assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
    assert_eq!(json_string("line\nfeed\ttab\rret"), "\"line\\nfeed\\ttab\\rret\"");
    assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    assert_eq!(json_string("Δ unicode passes through"), "\"Δ unicode passes through\"");
}
