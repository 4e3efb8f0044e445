//! # eks-analyzer — static analysis over kernel IR
//!
//! The paper's methodology (Section V) is static analysis of kernel
//! code: count the source operations (Table III), inspect the compiled
//! instruction mix per architecture (Tables IV–VI via `cuobjdump
//! -sass`), and hand-apply the lowerings the compiler missed
//! (`__byte_perm` → `PRMT`, the cc 3.5 funnel shift, NOT-merging). This
//! crate mechanizes those inspections as a lint pipeline:
//!
//! * [`dataflow`] — def-use chains, use-before-def, dead-store and
//!   constant-propagation lints on abstract [`KernelIr`] programs;
//! * [`peephole`] — per-architecture lowering lints on
//!   [`MachineInstr`](eks_gpusim::isa::MachineInstr) streams (missed
//!   `PRMT`, missed funnel shift, foldable NOT);
//! * [`pressure`] — live-range register-pressure estimation,
//!   cross-checked against `eks_gpusim::occupancy`;
//! * [`budget`] — the published Table III–VI counts as hard pass/fail
//!   assertions with per-class deltas;
//! * [`grid`] — soundness passes over the grid-level kernel IR
//!   ([`eks_gpusim::gridir`]): symbolic bounds proofs for every
//!   load/store, must-defined register dataflow, and a
//!   barrier-divergence lint (surfaced by `eks verify`).
//!
//! Findings surface as [`Diagnostic`] values inside [`Report`]s that
//! render as text or JSON; the `eks analyze` subcommand exposes the
//! whole pipeline with a `--deny warnings` exit-code gate for CI.

#![warn(missing_docs)]

pub mod budget;
pub mod dataflow;
pub mod diagnostic;
pub mod grid;
pub mod peephole;
pub mod pressure;

pub use budget::{md5_budget_report, DEFAULT_TOLERANCE};
pub use dataflow::{check_ir, eliminate_dead_stores, DefUse};
pub use diagnostic::{Diagnostic, Lint, Report, Severity, Span, SCHEMA_VERSION};
pub use grid::analyze_grid;
pub use peephole::check_compiled;
pub use pressure::check_pressure;

use eks_gpusim::codegen::CompiledKernel;
use eks_gpusim::isa::{KernelIr, Reg};

/// Run the IR-level (dataflow) analyses on an abstract kernel.
///
/// `roots` are the registers whose values the kernel's comparison
/// consumes (`BuiltKernel::outputs`); without them the dead-store lint
/// is skipped.
pub fn analyze_ir(ir: &KernelIr, roots: Option<&[Reg]>) -> Report {
    let mut report = Report::new(ir.name.clone(), "-");
    report.extend(dataflow::check_ir(ir, roots));
    report
}

/// Run the machine-level analyses (peephole lints and register
/// pressure) on a lowered kernel.
pub fn analyze_compiled(kernel: &CompiledKernel) -> Report {
    let mut report = Report::new(kernel.name.clone(), kernel.cc.label());
    report.extend(peephole::check_compiled(kernel));
    report.extend(pressure::check_pressure(kernel));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use eks_gpusim::arch::ComputeCapability;
    use eks_gpusim::codegen::{lower, LoweringOptions};
    use eks_gpusim::isa::KernelBuilder;

    #[test]
    fn pipeline_on_a_tiny_kernel() {
        let mut b = KernelBuilder::new("tiny");
        let x = b.param(0);
        let y = b.rotl(x, 16);
        let out = b.add(x, y);
        let ir = b.build();
        assert_eq!(analyze_ir(&ir, Some(&[out])).diagnostics.len(), 0);

        let plain = lower(&ir, LoweringOptions::plain(ComputeCapability::Sm30));
        let r = analyze_compiled(&plain);
        assert_eq!(r.warnings(), 1, "{}", r.render_text());
        assert_eq!(r.diagnostics[0].lint, Lint::PrmtMissed);

        let tuned = lower(&ir, LoweringOptions::for_cc(ComputeCapability::Sm30));
        assert_eq!(analyze_compiled(&tuned).diagnostics.len(), 0);
    }
}
