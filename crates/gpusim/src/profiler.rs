//! Profiler reports — the information the authors extracted with the
//! NVIDIA CUDA Profiler (Section V-B: "we found that the kernel does not
//! achieve any instruction level parallelism, since the number of
//! instructions dispatched in a dual-issue fashion is very low (less than
//! 10%)"), reconstructed from a simulation run.

use crate::arch::ComputeCapability;
use crate::codegen::CompiledKernel;
use crate::sched::SimResult;
use crate::throughput::mp_hashes_per_cycle;

/// What limits the kernel on this architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// The single shift/MAD-capable core group is saturated (Kepler).
    ShiftPort,
    /// Issue bandwidth: schedulers cannot feed the idle core groups
    /// without dual-issue (Fermi without ILP).
    IssueBandwidth,
    /// The single execution group serializes everything (cc 1.x).
    SerialCores,
    /// Dependency latency dominates (too few resident warps).
    Latency,
}

/// A structured profile of one simulated kernel execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfilerReport {
    /// Instructions per cycle across the multiprocessor.
    pub ipc: f64,
    /// Fraction of instructions issued as the second of a dual-issue pair.
    pub dual_issue_rate: f64,
    /// Fraction of scheduler slots with no ready warp.
    pub idle_no_ready: f64,
    /// Fraction of scheduler slots blocked on busy execution units.
    pub idle_unit_busy: f64,
    /// Per-unit utilization, `(label, busy fraction)`.
    pub unit_utilization: Vec<(String, f64)>,
    /// Achieved fraction of the theoretical throughput bound.
    pub efficiency: f64,
    /// Diagnosed limiter.
    pub bottleneck: Bottleneck,
}

impl ProfilerReport {
    /// Build a report from a kernel and its simulation result.
    pub fn new(kernel: &CompiledKernel, sim: &SimResult, warps: u32) -> Self {
        let cc = kernel.cc;
        let spec = cc.mp_spec();
        let ipc = sim.instructions_issued as f64 / sim.cycles as f64;
        let slots = (spec.warp_schedulers as u64 * sim.cycles) as f64;
        let theo = mp_hashes_per_cycle(cc, &kernel.counts) * kernel.keys_per_iteration as f64;
        let efficiency = (sim.keys_per_cycle() / theo).clamp(0.0, 1.0);

        let unit_utilization = sim
            .unit_busy
            .iter()
            .enumerate()
            .map(|(i, &busy)| (unit_label(cc, i), busy as f64 / sim.cycles as f64))
            .collect::<Vec<_>>();

        let shift_util = unit_utilization
            .iter()
            .find(|(l, _)| l.contains("shift"))
            .map(|(_, u)| *u)
            .unwrap_or(0.0);
        let idle_no_ready = sim.sched_idle_no_ready as f64 / slots;
        let idle_unit_busy = sim.sched_idle_unit_busy as f64 / slots;

        let bottleneck = match cc {
            ComputeCapability::Sm1x => {
                if idle_no_ready > 0.4 && warps < spec.max_warps {
                    Bottleneck::Latency
                } else {
                    Bottleneck::SerialCores
                }
            }
            _ if shift_util > 0.9 => Bottleneck::ShiftPort,
            _ if idle_no_ready > 0.4 && warps < spec.max_warps / 2 => Bottleneck::Latency,
            _ => Bottleneck::IssueBandwidth,
        };

        Self {
            ipc,
            dual_issue_rate: sim.dual_issue_rate(),
            idle_no_ready,
            idle_unit_busy,
            unit_utilization,
            efficiency,
            bottleneck,
        }
    }

    /// Render as a human-readable profile (one line per metric).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("ipc               : {:.2}\n", self.ipc));
        out.push_str(&format!(
            "dual-issue        : {:.1}%\n",
            self.dual_issue_rate * 100.0
        ));
        out.push_str(&format!(
            "sched idle        : {:.1}% no-ready, {:.1}% unit-busy\n",
            self.idle_no_ready * 100.0,
            self.idle_unit_busy * 100.0
        ));
        for (label, util) in &self.unit_utilization {
            out.push_str(&format!("{label:<18}: {:.1}%\n", util * 100.0));
        }
        out.push_str(&format!(
            "efficiency        : {:.1}% of theoretical\n",
            self.efficiency * 100.0
        ));
        out.push_str(&format!("bottleneck        : {:?}\n", self.bottleneck));
        out
    }
}

fn unit_label(cc: ComputeCapability, index: usize) -> String {
    match cc {
        ComputeCapability::Sm1x => {
            if index == 0 {
                "cores (all)".to_string()
            } else {
                "sfu (add)".to_string()
            }
        }
        ComputeCapability::Sm20 | ComputeCapability::Sm21 => {
            if index == 0 {
                "group0 (al+shift)".to_string()
            } else {
                format!("group{index} (al)")
            }
        }
        ComputeCapability::Sm30 | ComputeCapability::Sm35 => {
            if index == 0 {
                "group0 (shift)".to_string()
            } else {
                format!("group{index} (al)")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::{lower, LoweringOptions};
    use crate::isa::KernelBuilder;
    use crate::sched::{simulate, SimConfig};

    fn profile(cc: ComputeCapability, shift_heavy: bool, warps: u32) -> ProfilerReport {
        let mut b = KernelBuilder::new("p");
        let mut x = b.param(0);
        for i in 0..64 {
            x = if shift_heavy && i % 2 == 0 { b.shl(x, 1) } else { b.add(x, 1u32) };
        }
        let k = lower(&b.build(), LoweringOptions::plain(cc));
        let sim = simulate(&k, SimConfig { warps, iterations: 10, max_cycles: 50_000_000 });
        ProfilerReport::new(&k, &sim, warps)
    }

    #[test]
    fn kepler_shift_heavy_diagnoses_shift_port() {
        let r = profile(ComputeCapability::Sm30, true, 64);
        assert_eq!(r.bottleneck, Bottleneck::ShiftPort, "{}", r.render());
        let &(_, shift_util) =
            r.unit_utilization.iter().find(|(l, _)| l == "group0 (shift)").expect("Kepler's shift-port row");
        assert!(shift_util > 0.9, "shift port busy {shift_util}");
    }

    #[test]
    fn fermi_serial_chain_diagnoses_issue_bandwidth() {
        let r = profile(ComputeCapability::Sm21, false, 48);
        assert_eq!(r.bottleneck, Bottleneck::IssueBandwidth, "{}", r.render());
        assert!(r.dual_issue_rate < 0.10);
    }

    #[test]
    fn cc1x_diagnoses_serial_cores() {
        let r = profile(ComputeCapability::Sm1x, false, 24);
        assert_eq!(r.bottleneck, Bottleneck::SerialCores);
    }

    #[test]
    fn starved_mp_diagnoses_latency() {
        let r = profile(ComputeCapability::Sm21, false, 2);
        assert_eq!(r.bottleneck, Bottleneck::Latency, "{}", r.render());
        assert!(r.idle_no_ready > 0.4);
    }

    #[test]
    fn render_contains_key_metrics() {
        let r = profile(ComputeCapability::Sm30, true, 64);
        let text = r.render();
        assert!(text.contains("dual-issue"));
        assert!(text.contains("bottleneck"));
        assert!(text.contains("group0 (shift)"));
    }
}
