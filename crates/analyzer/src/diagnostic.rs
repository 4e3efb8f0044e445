//! Diagnostic types: what a lint found, how bad it is, and where.
//!
//! The shape mirrors a compiler diagnostic — a lint identifier, a
//! severity, a span into the analyzed stream and a human message — so
//! that the CLI can render the same data as aligned text or as JSON for
//! CI consumption.

use std::fmt;

use eks_telemetry::json_string;

/// Version of the JSON report schema emitted by [`Report::to_json`].
///
/// Bump this whenever the field layout changes shape (adding,
/// removing or renaming keys); adding new [`Lint`] names is *not* a
/// schema change. Both `eks analyze --json` and `eks verify --json`
/// stamp this into every object so downstream tooling can dispatch on
/// it, and `tests/diagnostics_schema.rs` pins the full layout.
pub const SCHEMA_VERSION: u32 = 1;

/// The individual checks the analyzer can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Lint {
    /// A register is read before any operation defines it.
    UseBeforeDef,
    /// An operation's result is never used (transitively) by any output.
    DeadStore,
    /// An operation with all-constant inputs survived to the IR: the
    /// compiler would fold it, so the builder left work on the table.
    ConstFoldable,
    /// A rotate-by-16 was lowered as shifts although the target prefers a
    /// single `PRMT` (`__byte_perm`).
    PrmtMissed,
    /// A rotate was lowered as a shift sequence although the target has a
    /// single-instruction funnel shift (`SHF`, cc 3.5).
    FunnelMissed,
    /// A materialized NOT (`LOP.XOR r, -1`) feeds only logic instructions
    /// and could merge into their operand modifiers.
    NotFoldable,
    /// Register pressure limits occupancy below the architecture maximum.
    RegisterPressure,
    /// Live-range analysis disagrees with the occupancy model — an
    /// internal inconsistency, always a hard error.
    PressureModelMismatch,
    /// A compiled instruction mix drifted from its published Table IV–VI
    /// budget beyond the accepted tolerance.
    BudgetDrift,
    /// A grid-IR load or store whose index cannot be proven in bounds
    /// for every grid shape.
    OutOfBounds,
    /// A grid-IR register read on a path where no definition dominates
    /// it (the must-defined dataflow lattice says "maybe uninitialized").
    UninitRead,
    /// A block barrier inside a branch whose guard varies across the
    /// threads of a block: part of the block can never reach it.
    BarrierDivergence,
}

impl Lint {
    /// Stable kebab-case identifier (used in text and JSON output).
    pub fn name(self) -> &'static str {
        match self {
            Lint::UseBeforeDef => "use-before-def",
            Lint::DeadStore => "dead-store",
            Lint::ConstFoldable => "const-foldable",
            Lint::PrmtMissed => "prmt-missed",
            Lint::FunnelMissed => "funnel-missed",
            Lint::NotFoldable => "not-foldable",
            Lint::RegisterPressure => "register-pressure",
            Lint::PressureModelMismatch => "pressure-model-mismatch",
            Lint::BudgetDrift => "budget-drift",
            Lint::OutOfBounds => "out-of-bounds",
            Lint::UninitRead => "uninit-read",
            Lint::BarrierDivergence => "barrier-divergence",
        }
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How seriously a finding should be taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational; never fails a gate.
    Allow,
    /// Suspicious but not fatal; fails only under `--deny warnings`.
    Warn,
    /// A hard failure: correctness or budget violations.
    Deny,
}

impl Severity {
    /// Display label.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Allow => "allow",
            Severity::Warn => "warning",
            Severity::Deny => "error",
        }
    }
}

/// A half-open range of instruction (or operation) indices in the
/// analyzed stream. `len == 0` marks a kernel-level finding with no
/// specific location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index of the first instruction involved.
    pub start: usize,
    /// Number of instructions involved (0 = whole kernel).
    pub len: usize,
}

impl Span {
    /// A span covering a single instruction.
    pub fn at(index: usize) -> Self {
        Span { start: index, len: 1 }
    }

    /// A kernel-level span (no specific instruction).
    pub fn kernel() -> Self {
        Span { start: 0, len: 0 }
    }
}

/// One finding: a lint, its severity, where it points and a message.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Which check fired.
    pub lint: Lint,
    /// How bad it is.
    pub severity: Severity,
    /// Where in the analyzed stream it points.
    pub span: Span,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Construct a warning-level diagnostic.
    pub fn warn(lint: Lint, span: Span, message: impl Into<String>) -> Self {
        Diagnostic { lint, severity: Severity::Warn, span, message: message.into() }
    }

    /// Construct a deny-level diagnostic.
    pub fn deny(lint: Lint, span: Span, message: impl Into<String>) -> Self {
        Diagnostic { lint, severity: Severity::Deny, span, message: message.into() }
    }
}

/// All findings for one analyzed kernel on one architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Kernel name (e.g. `md5/optimized`).
    pub kernel: String,
    /// Architecture label (e.g. `3.0`), or `-` for IR-level analyses.
    pub cc: String,
    /// The findings, in stream order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report for a kernel/architecture pair.
    pub fn new(kernel: impl Into<String>, cc: impl Into<String>) -> Self {
        Report { kernel: kernel.into(), cc: cc.into(), diagnostics: Vec::new() }
    }

    /// Append a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Append many findings.
    pub fn extend(&mut self, ds: impl IntoIterator<Item = Diagnostic>) {
        self.diagnostics.extend(ds);
    }

    /// Number of warning-level findings.
    pub fn warnings(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warn).count()
    }

    /// Number of deny-level findings.
    pub fn denials(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Deny).count()
    }

    /// Escalate every warning to deny (the `--deny warnings` gate).
    pub fn deny_warnings(&mut self) {
        for d in &mut self.diagnostics {
            if d.severity == Severity::Warn {
                d.severity = Severity::Deny;
            }
        }
    }

    /// Render as aligned text, one line per finding.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in &self.diagnostics {
            let loc = if d.span.len == 0 {
                "*".to_string()
            } else if d.span.len == 1 {
                format!("{}", d.span.start)
            } else {
                format!("{}..{}", d.span.start, d.span.start + d.span.len)
            };
            writeln!(
                out,
                "{}: [{}] {} (cc {}, at {}): {}",
                d.severity.name(),
                d.lint,
                self.kernel,
                self.cc,
                loc,
                d.message
            )
            .expect("write to string");
        }
        out
    }

    /// Render as a JSON object (hand-rolled; the workspace has no serde).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        write!(
            out,
            "{{\"schema\":{},\"kernel\":{},\"cc\":{},\"warnings\":{},\"errors\":{},\"diagnostics\":[",
            SCHEMA_VERSION,
            json_string(&self.kernel),
            json_string(&self.cc),
            self.warnings(),
            self.denials()
        )
        .expect("write to string");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "{{\"lint\":{},\"severity\":{},\"span\":{{\"start\":{},\"len\":{}}},\"message\":{}}}",
                json_string(d.lint.name()),
                json_string(d.severity.name()),
                d.span.start,
                d.span.len,
                json_string(&d.message)
            )
            .expect("write to string");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_ordering_matches_gates() {
        assert!(Severity::Deny > Severity::Warn);
        assert!(Severity::Warn > Severity::Allow);
    }

    #[test]
    fn deny_warnings_escalates() {
        let mut r = Report::new("k", "3.0");
        r.push(Diagnostic::warn(Lint::DeadStore, Span::at(3), "unused"));
        r.push(Diagnostic::deny(Lint::UseBeforeDef, Span::at(0), "bad"));
        assert_eq!((r.warnings(), r.denials()), (1, 1));
        r.deny_warnings();
        assert_eq!((r.warnings(), r.denials()), (0, 2));
    }

    #[test]
    fn json_escapes_and_structure() {
        let mut r = Report::new("md5/\"quoted\"", "1.*");
        r.push(Diagnostic::warn(Lint::PrmtMissed, Span { start: 2, len: 2 }, "line1\nline2"));
        let j = r.to_json();
        assert!(j.contains("\\\"quoted\\\""), "{j}");
        assert!(j.contains("line1\\nline2"), "{j}");
        assert!(j.contains("\"span\":{\"start\":2,\"len\":2}"), "{j}");
        assert!(j.starts_with('{') && j.ends_with('}'));
    }

    #[test]
    fn text_rendering_includes_location() {
        let mut r = Report::new("k", "3.0");
        r.push(Diagnostic::warn(Lint::FunnelMissed, Span { start: 4, len: 2 }, "m"));
        r.push(Diagnostic::deny(Lint::BudgetDrift, Span::kernel(), "drift"));
        let t = r.render_text();
        assert!(t.contains("at 4..6"), "{t}");
        assert!(t.contains("at *"), "{t}");
        assert!(t.contains("warning: [funnel-missed]"), "{t}");
        assert!(t.contains("error: [budget-drift]"), "{t}");
    }
}
