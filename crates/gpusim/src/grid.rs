//! Kernel launch configuration: occupancy, keys per thread, and splitting
//! a long search across multiple grids to respect the OS watchdog
//! (Section IV-A: "The operating system may put a limit on the maximum
//! time that a driver of a graphic card should wait for the completion of
//! a running kernel; we can easily bypass this problem by adjusting the
//! amount of tests per call and spreading the computation over multiple
//! grids").

use crate::device::Device;

/// A planned grid launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Threads per block.
    pub threads_per_block: u32,
    /// Blocks in the grid.
    pub blocks: u32,
    /// Keys each thread tests via the `next` operator.
    pub keys_per_thread: u32,
}

impl LaunchConfig {
    /// Total keys one launch covers.
    pub fn keys_per_launch(&self) -> u128 {
        self.threads_per_block as u128 * self.blocks as u128 * self.keys_per_thread as u128
    }
}

/// Plan the launches needed to cover `total_keys` on a device running at
/// `device_mkeys` (MKey/s), keeping each launch under `watchdog_ms`.
///
/// The plan fixes 256 threads/block and sizes the grid to fill the device
/// (at least 8 blocks per MP), then picks `keys_per_thread` so every warp
/// amortizes the conversion `f(id)` over many `next` steps, and finally
/// splits the interval into as many launches as the watchdog requires.
pub fn plan_launches(
    total_keys: u128,
    device: &Device,
    device_mkeys: f64,
    watchdog_ms: f64,
) -> Vec<LaunchConfig> {
    assert!(device_mkeys > 0.0 && watchdog_ms > 0.0);
    if total_keys == 0 {
        return Vec::new();
    }
    let threads_per_block = 256u32;
    let blocks = (device.mp_count * 8).max(1);
    let grid_threads = (threads_per_block as u128) * (blocks as u128);
    // Keys the device can test inside one watchdog window.
    let max_keys_per_launch = (device_mkeys * 1e3 * watchdog_ms) as u128;
    let max_keys_per_launch = max_keys_per_launch.max(grid_threads);
    let mut launches = Vec::new();
    let mut remaining = total_keys;
    while remaining > 0 {
        let this = remaining.min(max_keys_per_launch);
        let kpt = (this.div_ceil(grid_threads)).clamp(1, u32::MAX as u128) as u32;
        launches.push(LaunchConfig { threads_per_block, blocks, keys_per_thread: kpt });
        remaining = remaining.saturating_sub(this);
    }
    launches
}

/// Model of search efficiency versus interval size: a kernel launch has a
/// fixed overhead (driver + grid ramp-up), so small intervals waste a
/// fraction of the device. This is the curve the tuning step samples to
/// find the paper's `n_j` (minimum candidates for a target efficiency).
pub fn launch_efficiency(keys: u128, device_mkeys: f64, launch_overhead_ms: f64) -> f64 {
    if keys == 0 {
        return 0.0;
    }
    let work_ms = keys as f64 / (device_mkeys * 1e3);
    work_ms / (work_ms + launch_overhead_ms)
}

/// Invert [`launch_efficiency`]: the minimum interval size reaching
/// `target` efficiency (the tuning step's `n_j`).
pub fn min_keys_for_efficiency(
    target: f64,
    device_mkeys: f64,
    launch_overhead_ms: f64,
) -> u128 {
    assert!((0.0..1.0).contains(&target), "target must be in [0, 1)");
    // eff = w/(w+o) => w = o * eff / (1 - eff); keys = w * rate
    let work_ms = launch_overhead_ms * target / (1.0 - target);
    (work_ms * device_mkeys * 1e3).ceil() as u128
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> Device {
        Device::geforce_gtx_660()
    }

    #[test]
    fn launches_cover_all_keys() {
        let total = 10_000_000_000u128; // 10 G keys at ~1841 MKey/s ≈ 5.4 s
        let plan = plan_launches(total, &dev(), 1841.0, 500.0);
        assert!(plan.len() >= 10, "watchdog must split: {} launches", plan.len());
        let covered: u128 = plan.iter().map(|l| l.keys_per_launch()).sum();
        assert!(covered >= total, "covered {covered} < {total}");
    }

    #[test]
    fn single_small_launch() {
        let plan = plan_launches(1_000_000, &dev(), 1841.0, 500.0);
        let [launch] = plan.as_slice() else { panic!("{} launches, want one", plan.len()) };
        assert!(launch.keys_per_launch() >= 1_000_000);
    }

    #[test]
    fn zero_keys_zero_launches() {
        assert!(plan_launches(0, &dev(), 1841.0, 500.0).is_empty());
    }

    #[test]
    fn occupancy_reaches_architecture_max() {
        let plan = plan_launches(1 << 30, &dev(), 1841.0, 500.0);
        let l = *plan.first().expect("2^30 keys need a launch");
        // Resident warps per multiprocessor with the grid spread evenly.
        let warps = (l.threads_per_block as u64 * l.blocks as u64 / 32) as u32 / dev().mp_count;
        assert!(warps >= dev().cc.mp_spec().max_warps, "{warps} warps per MP");
    }

    #[test]
    fn efficiency_curve_monotone() {
        let rate = 1000.0;
        let e_small = launch_efficiency(1_000, rate, 0.1);
        let e_big = launch_efficiency(100_000_000, rate, 0.1);
        assert!(e_small < e_big);
        assert!(e_big > 0.99);
        assert_eq!(launch_efficiency(0, rate, 0.1), 0.0);
    }

    #[test]
    fn min_keys_inverts_efficiency() {
        let rate = 500.0;
        let overhead = 0.2;
        for target in [0.5, 0.9, 0.99] {
            let n = min_keys_for_efficiency(target, rate, overhead);
            let e = launch_efficiency(n, rate, overhead);
            assert!(e >= target - 1e-6, "target {target}: n={n} e={e}");
        }
    }

    #[test]
    fn higher_target_needs_more_keys() {
        let a = min_keys_for_efficiency(0.9, 1000.0, 0.1);
        let b = min_keys_for_efficiency(0.99, 1000.0, 0.1);
        assert!(b > a * 5, "a={a} b={b}");
    }
}
