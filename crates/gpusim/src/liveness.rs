//! Live-range analysis over lowered instruction streams.
//!
//! The lowered kernels are straight-line code (the paper's kernels have
//! no data-dependent branches inside the hash rounds), so liveness is a
//! single linear scan: a register is live from its definition to its
//! last use, and a register read before any definition is a kernel
//! parameter, live from entry. [`occupancy`](fn@crate::occupancy) uses the
//! resulting maximum to size the register file claim, and the analyzer
//! crate cross-checks its own estimates against these ranges.

// Indexing/slicing below is over fixed-size state arrays or lengths
// established by construction; the workspace `clippy::indexing_slicing`
// escalation guards new code, not these proven accesses.
#![allow(clippy::indexing_slicing)]

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::isa::{MachineInstr, Reg};

/// The live interval of one virtual register over a lowered stream.
///
/// Instruction indices are positions in the stream; `def <= last_use`
/// always holds. A parameter register (read before written) has
/// `def == 0` and `from_entry == true`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveRange {
    /// The register this range describes.
    pub reg: Reg,
    /// Index of the defining instruction (0 for parameters).
    pub def: usize,
    /// Index of the last instruction reading (or writing) the register.
    pub last_use: usize,
    /// True when the register is live from kernel entry (a parameter).
    pub from_entry: bool,
}

impl LiveRange {
    /// Whether the register is live at instruction index `i` (inclusive
    /// on both ends, matching the linear-scan convention).
    pub fn contains(&self, i: usize) -> bool {
        self.def <= i && i <= self.last_use
    }
}

/// Compute the live range of every register in a straight-line stream,
/// sorted by definition point (ties broken by register number).
pub fn live_ranges(instrs: &[MachineInstr]) -> Vec<LiveRange> {
    let mut last_use: HashMap<Reg, usize> = HashMap::new();
    let mut def_point: HashMap<Reg, usize> = HashMap::new();
    let mut from_entry: HashMap<Reg, bool> = HashMap::new();
    for (i, ins) in instrs.iter().enumerate() {
        if let Entry::Vacant(e) = def_point.entry(ins.dst) {
            e.insert(i);
            from_entry.insert(ins.dst, false);
        }
        last_use.insert(ins.dst, i);
        for s in &ins.srcs {
            last_use.insert(*s, i);
            // A register read before any definition is a parameter: live
            // from entry.
            if let Entry::Vacant(e) = def_point.entry(*s) {
                e.insert(0);
                from_entry.insert(*s, true);
            }
        }
    }
    let mut ranges: Vec<LiveRange> = def_point
        .iter()
        .map(|(&reg, &def)| LiveRange {
            reg,
            def,
            last_use: last_use.get(&reg).copied().unwrap_or(def),
            from_entry: from_entry.get(&reg).copied().unwrap_or(false),
        })
        .collect();
    ranges.sort_by_key(|r| (r.def, r.reg.0));
    ranges
}

/// Maximum number of simultaneously-live registers over the stream —
/// the per-thread physical register estimate occupancy rests on.
pub fn max_live(instrs: &[MachineInstr]) -> u32 {
    let n = instrs.len();
    if n == 0 {
        return 0;
    }
    // Sweep: +1 at definition, -1 after last use.
    let mut delta = vec![0i32; n + 1];
    for r in live_ranges(instrs) {
        delta[r.def] += 1;
        delta[r.last_use + 1] -= 1;
    }
    let mut live = 0i32;
    let mut max = 0i32;
    for d in delta {
        live += d;
        max = max.max(live);
    }
    max as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::MachineClass;

    fn add(dst: u32, srcs: &[u32]) -> MachineInstr {
        MachineInstr::new(MachineClass::IAdd, Reg(dst), srcs.iter().map(|&r| Reg(r)).collect())
    }

    #[test]
    fn parameter_is_live_from_entry() {
        // r0 is read before written: a parameter.
        let instrs = vec![add(1, &[0]), add(2, &[1])];
        let ranges = live_ranges(&instrs);
        let p = ranges.iter().find(|r| r.reg == Reg(0)).unwrap();
        assert!(p.from_entry);
        assert_eq!(p.def, 0);
        assert_eq!(p.last_use, 0);
    }

    #[test]
    fn chain_has_overlapping_pairs_only() {
        let instrs = vec![add(1, &[0]), add(2, &[1]), add(3, &[2]), add(4, &[3])];
        assert_eq!(max_live(&instrs), 2);
    }

    #[test]
    fn fanin_keeps_everything_live() {
        // At the first add all four inputs plus its result are live.
        let instrs = vec![add(4, &[0, 1]), add(5, &[4, 2]), add(6, &[5, 3])];
        assert_eq!(max_live(&instrs), 5);
        let ranges = live_ranges(&instrs);
        let r3 = ranges.iter().find(|r| r.reg == Reg(3)).unwrap();
        assert_eq!(r3.last_use, 2);
        assert!(r3.contains(1));
        assert!(!r3.contains(3));
    }

    #[test]
    fn empty_stream() {
        assert_eq!(max_live(&[]), 0);
        assert!(live_ranges(&[]).is_empty());
    }
}
