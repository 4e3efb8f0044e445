//! Launch timelines: executing a multi-grid plan against the watchdog.
//!
//! [`crate::grid::plan_launches`] sizes the launches; this module plays a
//! plan out in (simulated) time, verifying the §IV-A claim end-to-end:
//! every launch stays under the OS watchdog limit while the sequence
//! covers the full interval, and the per-launch overhead decides how much
//! throughput the splitting costs.

use crate::device::Device;
use crate::grid::{plan_launches, LaunchConfig};

/// One executed launch in the timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchRecord {
    /// The launch configuration.
    pub config: LaunchConfig,
    /// Start time, seconds from the beginning of the plan.
    pub start_s: f64,
    /// Kernel execution time, seconds.
    pub duration_s: f64,
}

/// The executed plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Per-launch records, in order.
    pub launches: Vec<LaunchRecord>,
    /// Keys covered (≥ the requested total — the last grid may overshoot).
    pub keys_covered: u128,
    /// Total wall-clock including per-launch overheads, seconds.
    pub total_s: f64,
    /// Longest single kernel execution, seconds (the watchdog-relevant
    /// number).
    pub max_launch_s: f64,
}

impl Timeline {
    /// Effective throughput in MKey/s over the whole plan.
    pub fn effective_mkeys(&self, requested_keys: u128) -> f64 {
        requested_keys as f64 / self.total_s / 1e6
    }

    /// Fraction of time spent computing (vs launch overhead).
    pub fn utilization(&self) -> f64 {
        let busy: f64 = self.launches.iter().map(|l| l.duration_s).sum();
        busy / self.total_s
    }
}

/// Execute a launch plan for `total_keys` at `device_mkeys`, charging
/// `overhead_s` per launch.
///
/// # Panics
/// Panics when rates or overheads are non-positive where they must not be.
pub fn execute_plan(
    total_keys: u128,
    device: &Device,
    device_mkeys: f64,
    watchdog_ms: f64,
    overhead_s: f64,
) -> Timeline {
    assert!(overhead_s >= 0.0);
    let plan = plan_launches(total_keys, device, device_mkeys, watchdog_ms);
    let mut launches = Vec::with_capacity(plan.len());
    let mut clock = 0.0f64;
    let mut covered: u128 = 0;
    let mut max_launch = 0.0f64;
    for config in plan {
        clock += overhead_s;
        let keys = config.keys_per_launch();
        let duration = keys as f64 / (device_mkeys * 1e6);
        launches.push(LaunchRecord { config, start_s: clock, duration_s: duration });
        clock += duration;
        covered += keys;
        max_launch = max_launch.max(duration);
    }
    Timeline { launches, keys_covered: covered, total_s: clock.max(1e-12), max_launch_s: max_launch }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> Device {
        Device::geforce_gtx_660()
    }

    #[test]
    fn every_launch_respects_the_watchdog() {
        let t = execute_plan(20_000_000_000, &dev(), 1841.0, 500.0, 0.001);
        assert!(t.launches.len() > 1, "watchdog must split");
        for l in &t.launches {
            assert!(
                l.duration_s <= 0.5 * 1.05,
                "launch of {:.3} s exceeds the 500 ms watchdog",
                l.duration_s
            );
        }
        assert!(t.max_launch_s <= 0.5 * 1.05);
    }

    #[test]
    fn plan_covers_the_interval() {
        let total = 12_345_678_901u128;
        let t = execute_plan(total, &dev(), 1841.0, 500.0, 0.001);
        assert!(t.keys_covered >= total);
    }

    #[test]
    fn launches_are_sequential() {
        let t = execute_plan(5_000_000_000, &dev(), 1841.0, 500.0, 0.001);
        for (prev, next) in t.launches.iter().zip(t.launches.iter().skip(1)) {
            assert!(next.start_s >= prev.start_s + prev.duration_s);
        }
    }

    #[test]
    fn overhead_lowers_utilization() {
        let cheap = execute_plan(10_000_000_000, &dev(), 1841.0, 500.0, 0.0001);
        let costly = execute_plan(10_000_000_000, &dev(), 1841.0, 500.0, 0.05);
        assert!(cheap.utilization() > costly.utilization());
        assert!(cheap.utilization() > 0.99);
        assert!(costly.effective_mkeys(10_000_000_000) < 1841.0);
    }

    #[test]
    fn tighter_watchdog_means_more_launches() {
        let strict = execute_plan(10_000_000_000, &dev(), 1841.0, 100.0, 0.001);
        let loose = execute_plan(10_000_000_000, &dev(), 1841.0, 2000.0, 0.001);
        assert!(strict.launches.len() > loose.launches.len());
        for l in &strict.launches {
            assert!(l.duration_s <= 0.1 * 1.05);
        }
    }

    #[test]
    fn zero_keys_zero_timeline() {
        let t = execute_plan(0, &dev(), 1841.0, 500.0, 0.001);
        assert!(t.launches.is_empty());
        assert_eq!(t.keys_covered, 0);
    }
}
