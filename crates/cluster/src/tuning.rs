//! The tuning step (Section III): estimate each device's peak throughput
//! `X_j` and the minimum candidate count `n_j` for a target efficiency.
//!
//! Two models are provided:
//!
//! * [`AchievedModel::CycleSim`] runs the scoreboard simulator on the
//!   device's architecture — the "measurement" of our reproduction;
//! * [`AchievedModel::Analytic`] applies the paper's own reasoning in
//!   closed form (no-SFU serialization on cc 1.x, the single-issue
//!   32-lane bound on cc 2.1, ≈ 99.5 % of the shift-port bound on
//!   Kepler) — cheap enough for property tests and the DES.

use std::collections::HashMap;
use std::sync::Mutex;
use std::sync::OnceLock;

use eks_gpusim::arch::ComputeCapability;
use eks_gpusim::codegen::lower;
use eks_gpusim::device::Device;
use eks_gpusim::grid::min_keys_for_efficiency;
use eks_gpusim::sched::{simulate, SimConfig};
use eks_gpusim::throughput::{mp_hashes_per_cycle, mp_hashes_per_cycle_sm1x_no_sfu};
use eks_hashes::HashAlgo;
use eks_kernels::{Tool, ToolKernel};

/// How achieved throughput is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AchievedModel {
    /// Run the cycle-level scoreboard simulator (slower, more faithful).
    CycleSim,
    /// Closed-form model of the paper's Section VI observations.
    Analytic,
}

/// Result of tuning one device for one tool/algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tuning {
    /// Theoretical peak, MKey/s (Table VIII "theoretical" row).
    pub theoretical_mkeys: f64,
    /// Achieved throughput, MKey/s (Table VIII "our approach" row).
    pub achieved_mkeys: f64,
    /// Minimum batch for the target efficiency (the paper's `n_j`).
    pub min_batch: u128,
}

impl Tuning {
    /// Achieved over theoretical.
    pub fn efficiency(&self) -> f64 {
        self.achieved_mkeys / self.theoretical_mkeys
    }
}

/// Per-launch fixed overhead used to derive `n_j` (driver + grid ramp-up,
/// a fraction of a millisecond on the paper's LAN-attached boxes).
const LAUNCH_OVERHEAD_MS: f64 = 0.2;

/// Target efficiency the tuning step aims for when sizing `n_j`.
const TARGET_EFFICIENCY: f64 = 0.99;

/// Tune a device for a tool and hash algorithm.
pub fn tune_device(device: &Device, tool: Tool, algo: HashAlgo, model: AchievedModel) -> Tuning {
    let key = (device.cc, tool, algo, model);
    // Per-(cc, tool, algo, model) cache of per-MP-per-cycle rates: devices
    // sharing an architecture only differ by MP count and clock.
    type RateKey = (ComputeCapability, Tool, HashAlgo, AchievedModel);
    static CACHE: OnceLock<Mutex<HashMap<RateKey, (f64, f64)>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let (theo_per_mp_cycle, achieved_per_mp_cycle) = {
        let hit = cache.lock().expect("cache lock").get(&key).copied();
        match hit {
            Some(v) => v,
            None => {
                let v = rates_per_mp_cycle(device.cc, tool, algo, model);
                cache.lock().expect("cache lock").insert(key, v);
                v
            }
        }
    };
    // An iterated KDF runs the base kernel `cost_factor` times per key
    // on average, so the keys/s rates scale down by that factor (the
    // kernel itself is the base hash's — see `ToolKernel::build`).
    let scale = device.mp_count as f64 * device.clock_hz() / 1e6 / algo.cost_factor();
    let theoretical = theo_per_mp_cycle * scale;
    let achieved = achieved_per_mp_cycle * scale;
    let min_batch = min_keys_for_efficiency(TARGET_EFFICIENCY, achieved, LAUNCH_OVERHEAD_MS);
    Tuning { theoretical_mkeys: theoretical, achieved_mkeys: achieved, min_batch }
}

/// (theoretical, achieved) hashes per cycle per multiprocessor.
fn rates_per_mp_cycle(
    cc: ComputeCapability,
    tool: Tool,
    algo: HashAlgo,
    model: AchievedModel,
) -> (f64, f64) {
    let tk = ToolKernel::build(tool, algo, cc);
    let compiled = lower(&tk.ir, tk.options);
    let kpi = compiled.keys_per_iteration as f64;
    let theo = mp_hashes_per_cycle(cc, &compiled.counts) * kpi;
    let achieved = match model {
        AchievedModel::CycleSim => {
            let cfg = SimConfig::for_cc(cc);
            let r = simulate(&compiled, cfg);
            r.keys_per_cycle()
        }
        AchievedModel::Analytic => analytic_achieved(cc, &compiled.counts) * kpi,
    };
    (theo, achieved)
}

/// Closed-form achieved model per Section VI:
/// * cc 1.x — no ILP, so no SFU co-issue: everything serializes at
///   8 lanes/cycle;
/// * cc 2.0/2.1 — single-issue bound: `schedulers × 16` lanes/cycle over
///   the total instruction count;
/// * cc 3.0/3.5 — the port bound is reachable without ILP (single issue
///   from 4 schedulers covers it): ≈ 99.5 % of theoretical.
fn analytic_achieved(cc: ComputeCapability, counts: &eks_gpusim::codegen::InstrCounts) -> f64 {
    match cc {
        ComputeCapability::Sm1x => mp_hashes_per_cycle_sm1x_no_sfu(counts),
        ComputeCapability::Sm20 | ComputeCapability::Sm21 => {
            let spec = cc.mp_spec();
            let lanes = (spec.warp_schedulers * spec.group_size) as f64;
            (lanes / counts.total() as f64).min(mp_hashes_per_cycle(cc, counts))
        }
        ComputeCapability::Sm30 | ComputeCapability::Sm35 => {
            0.9946 * mp_hashes_per_cycle(cc, counts)
        }
    }
}

/// Measure a CPU worker's real throughput for `algo` with `threads`
/// workers: a short timed sweep over an interval with no possible hit.
/// Cached per (threads, algo) for the lifetime of the process.
pub fn measure_cpu_mkeys(threads: usize, algo: HashAlgo) -> f64 {
    use eks_cracker::{crack_parallel, ParallelConfig, TargetSet};
    use eks_keyspace::{Charset, Interval, KeySpace, Order};

    static CPU_CACHE: OnceLock<Mutex<HashMap<(usize, HashAlgo), f64>>> = OnceLock::new();
    let cache = CPU_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(v) = cache.lock().expect("cpu cache").get(&(threads, algo)) {
        return *v;
    }
    let space = KeySpace::new(Charset::lowercase(), 1, 8, Order::FirstCharFastest)
        .expect("static space");
    let impossible = TargetSet::new(algo, &[vec![0u8; algo.digest_len()]]);
    let report = crack_parallel(
        &space,
        &impossible,
        Interval::new(0, 300_000),
        ParallelConfig { threads, chunk: 1 << 12, first_hit_only: false, ..Default::default() },
    );
    let mkeys = report.mkeys_per_s.max(0.01);
    cache.lock().expect("cpu cache").insert((threads, algo), mkeys);
    mkeys
}

/// Tune a CPU worker: measured rate plus the minimum batch for the
/// target efficiency (no kernel-launch overhead, only thread wakeups —
/// modeled at a tenth of the GPU launch cost).
pub fn tune_cpu(worker: &crate::spec::CpuWorker, algo: HashAlgo) -> Tuning {
    let mkeys = measure_cpu_mkeys(worker.threads, algo);
    let min_batch = min_keys_for_efficiency(TARGET_EFFICIENCY, mkeys, LAUNCH_OVERHEAD_MS / 10.0);
    Tuning { theoretical_mkeys: mkeys, achieved_mkeys: mkeys, min_batch }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eks_gpusim::device::DeviceCatalog;

    /// Paper Table VIII, MD5: (device pattern, theoretical, achieved).
    const TABLE8_MD5: [(&str, f64, f64); 5] = [
        ("8600M", 83.0, 71.0),
        ("8800", 568.0, 480.0),
        ("540M", 359.4, 214.0),
        ("550", 962.7, 654.0),
        ("660", 1851.0, 1841.0),
    ];

    #[test]
    fn md5_theoretical_matches_table8_within_three_percent() {
        for (pat, theo, _) in TABLE8_MD5 {
            let d = DeviceCatalog::find(pat).unwrap();
            let t = tune_device(&d, Tool::OurApproach, HashAlgo::Md5, AchievedModel::Analytic);
            let rel = (t.theoretical_mkeys - theo).abs() / theo;
            assert!(rel < 0.03, "{pat}: ours {} vs paper {theo}", t.theoretical_mkeys);
        }
    }

    #[test]
    fn md5_achieved_matches_table8_within_fifteen_percent() {
        for (pat, _, ach) in TABLE8_MD5 {
            let d = DeviceCatalog::find(pat).unwrap();
            let t = tune_device(&d, Tool::OurApproach, HashAlgo::Md5, AchievedModel::Analytic);
            let rel = (t.achieved_mkeys - ach).abs() / ach;
            assert!(rel < 0.15, "{pat}: ours {} vs paper {ach}", t.achieved_mkeys);
        }
    }

    #[test]
    fn kepler_achieves_nearly_theoretical() {
        let d = DeviceCatalog::find("660").unwrap();
        let t = tune_device(&d, Tool::OurApproach, HashAlgo::Md5, AchievedModel::Analytic);
        assert!(t.efficiency() > 0.99, "paper reports 99.46 %");
    }

    #[test]
    fn fermi_leaves_a_third_of_lanes_idle() {
        let d = DeviceCatalog::find("550").unwrap();
        let t = tune_device(&d, Tool::OurApproach, HashAlgo::Md5, AchievedModel::Analytic);
        assert!(t.efficiency() > 0.55 && t.efficiency() < 0.75, "eff {}", t.efficiency());
    }

    #[test]
    fn cycle_sim_agrees_with_analytic_model() {
        // The scoreboard simulator should land near the closed form on
        // every architecture class (within 15 %).
        for pat in ["8800", "550", "660"] {
            let d = DeviceCatalog::find(pat).unwrap();
            let a = tune_device(&d, Tool::OurApproach, HashAlgo::Md5, AchievedModel::Analytic);
            let s = tune_device(&d, Tool::OurApproach, HashAlgo::Md5, AchievedModel::CycleSim);
            let rel = (s.achieved_mkeys - a.achieved_mkeys).abs() / a.achieved_mkeys;
            assert!(
                rel < 0.15,
                "{pat}: sim {} vs analytic {}",
                s.achieved_mkeys,
                a.achieved_mkeys
            );
        }
    }

    #[test]
    fn sha1_is_slower_than_md5_everywhere() {
        for pat in ["8600M", "8800", "540M", "550", "660"] {
            let d = DeviceCatalog::find(pat).unwrap();
            let md5 = tune_device(&d, Tool::OurApproach, HashAlgo::Md5, AchievedModel::Analytic);
            let sha = tune_device(&d, Tool::OurApproach, HashAlgo::Sha1, AchievedModel::Analytic);
            assert!(sha.achieved_mkeys < md5.achieved_mkeys, "{pat}");
        }
    }

    #[test]
    fn iterated_md5_tunes_slower_by_its_cost_factor() {
        let d = DeviceCatalog::find("660").unwrap();
        let base = tune_device(&d, Tool::OurApproach, HashAlgo::Md5, AchievedModel::Analytic);
        let algo = HashAlgo::Md5Iter { iters: 9 };
        let t = tune_device(&d, Tool::OurApproach, algo, AchievedModel::Analytic);
        let rel =
            (t.achieved_mkeys * algo.cost_factor() - base.achieved_mkeys).abs() / base.achieved_mkeys;
        assert!(rel < 1e-9, "iterated rate should be base / cost_factor, got {t:?} vs {base:?}");
    }

    #[test]
    fn min_batch_scales_with_throughput() {
        let slow = DeviceCatalog::find("8600M").unwrap();
        let fast = DeviceCatalog::find("660").unwrap();
        let ts = tune_device(&slow, Tool::OurApproach, HashAlgo::Md5, AchievedModel::Analytic);
        let tf = tune_device(&fast, Tool::OurApproach, HashAlgo::Md5, AchievedModel::Analytic);
        assert!(tf.min_batch > ts.min_batch);
        assert!(ts.min_batch > 0);
    }
}
