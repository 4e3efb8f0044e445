//! A SASS-like disassembly listing for lowered kernels — the view the
//! authors worked from ("we verified how these instructions were actually
//! compiled into machine code ... by using the cuobjdump -sass tool").
//!
//! Purely textual: useful for debugging kernel builders, for diffing
//! lowering decisions across architectures, and for tests that assert on
//! the instruction mix in a human-auditable form.

use std::fmt::Write as _;

use crate::codegen::CompiledKernel;
use crate::isa::{MachineClass, MachineInstr};

/// Render one instruction in SASS-ish syntax.
fn disasm_instr(i: &MachineInstr) -> String {
    let mnemonic = match i.class {
        MachineClass::IAdd => "IADD",
        MachineClass::Lop => "LOP",
        MachineClass::Shift => "SHL",
        MachineClass::Imad => "IMAD.HI",
        MachineClass::Prmt => "PRMT",
        MachineClass::Funnel => "SHF.L",
    };
    let mut out = format!("{mnemonic} R{}", i.dst.0);
    for s in &i.srcs {
        write!(out, ", R{}", s.0).expect("write to string");
    }
    match i.imm {
        Some(v) => write!(out, ", {v:#x}").expect("write to string"),
        None if i.srcs.len() < 2 => out.push_str(", imm"),
        None => {}
    }
    out
}

/// Render a whole kernel with a header and per-class summary footer.
pub fn disasm(kernel: &CompiledKernel) -> String {
    let mut out = String::new();
    writeln!(out, "// kernel {} for cc {}", kernel.name, kernel.cc.label())
        .expect("write to string");
    writeln!(
        out,
        "// {} instructions, {} keys/iteration, {} virtual registers",
        kernel.instrs.len(),
        kernel.keys_per_iteration,
        kernel.reg_count
    )
    .expect("write to string");
    for (pc, i) in kernel.instrs.iter().enumerate() {
        writeln!(out, "/*{pc:04}*/  {}", disasm_instr(i)).expect("write to string");
    }
    writeln!(out, "// ---- summary ----").expect("write to string");
    for class in MachineClass::ALL {
        let n = kernel.counts.get(class);
        if n > 0 {
            writeln!(out, "// {:<12} {n}", class.mnemonic()).expect("write to string");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ComputeCapability;
    use crate::codegen::{lower, LoweringOptions};
    use crate::isa::KernelBuilder;

    fn sample() -> CompiledKernel {
        let mut b = KernelBuilder::new("sample");
        let x = b.param(0);
        let y = b.rotl(x, 7);
        let _ = b.add(x, y);
        lower(&b.build(), LoweringOptions::plain(ComputeCapability::Sm30))
    }

    #[test]
    fn listing_contains_all_instructions() {
        let k = sample();
        let text = disasm(&k);
        assert_eq!(
            text.matches("/*").count(),
            k.instrs.len(),
            "one line per instruction"
        );
        assert!(text.contains("SHL"), "{text}");
        assert!(text.contains("IMAD.HI"), "{text}");
        assert!(text.contains("IADD"));
        assert!(text.contains("summary"));
    }

    #[test]
    fn instr_rendering() {
        let k = sample();
        let line = disasm_instr(k.instrs.first().expect("the sample kernel has instructions"));
        assert!(line.starts_with("SHL R"), "{line}");
    }

    #[test]
    fn per_arch_listings_differ() {
        let mut b = KernelBuilder::new("rot");
        let x = b.param(0);
        let _ = b.rotl(x, 16);
        let ir = b.build();
        let sm1x = disasm(&lower(&ir, LoweringOptions::plain(ComputeCapability::Sm1x)));
        let sm30 = disasm(&lower(&ir, LoweringOptions::for_cc(ComputeCapability::Sm30)));
        let sm35 = disasm(&lower(&ir, LoweringOptions::for_cc(ComputeCapability::Sm35)));
        assert!(sm1x.contains("IADD"), "1.x rotates end in an add");
        assert!(sm30.contains("PRMT"), "3.0 uses byte_perm for rot16");
        assert!(sm35.contains("SHF.L"), "3.5 uses the funnel shift");
    }
}
