//! # eks-bench — regenerating every table of the paper
//!
//! Each `table*` bench target (plain `harness = false` binaries run by
//! `cargo bench`) prints one table of the paper with the published values
//! next to the values this reproduction measures. The `crit_*` targets
//! are Criterion micro-benchmarks for the real CPU components.
//!
//! Published numbers live here so the comparisons sit in one place.

/// Paper Table VIII — single-GPU throughput in MKey/s.
/// Columns: device pattern, then per row value (None = not published).
#[derive(Debug, Clone, Copy)]
pub struct Table8Row {
    /// Substring identifying the device in the catalog.
    pub device: &'static str,
    /// "theoretical" row.
    pub theoretical: f64,
    /// "our approach" row.
    pub ours: f64,
    /// BarsWF row (MD5 only; the paper has no BarsWF SHA-1 row).
    pub barswf: Option<f64>,
    /// Cryptohaze Multiforcer row.
    pub cryptohaze: f64,
}

/// Table VIII, MD5 block.
pub const TABLE8_MD5: [Table8Row; 5] = [
    Table8Row { device: "8600M", theoretical: 83.0, ours: 71.0, barswf: Some(71.0), cryptohaze: 49.4 },
    Table8Row { device: "8800", theoretical: 568.0, ours: 480.0, barswf: Some(490.0), cryptohaze: 316.0 },
    Table8Row { device: "540M", theoretical: 359.4, ours: 214.0, barswf: Some(205.0), cryptohaze: 146.0 },
    Table8Row { device: "550", theoretical: 962.7, ours: 654.0, barswf: Some(560.0), cryptohaze: 410.0 },
    Table8Row { device: "660", theoretical: 1851.0, ours: 1841.0, barswf: Some(1340.0), cryptohaze: 1280.0 },
];

/// Table VIII, SHA-1 block.
pub const TABLE8_SHA1: [Table8Row; 5] = [
    Table8Row { device: "8600M", theoretical: 25.0, ours: 22.0, barswf: None, cryptohaze: 20.8 },
    Table8Row { device: "8800", theoretical: 170.0, ours: 137.0, barswf: None, cryptohaze: 132.0 },
    Table8Row { device: "540M", theoretical: 128.0, ours: 92.0, barswf: None, cryptohaze: 68.0 },
    Table8Row { device: "550", theoretical: 345.0, ours: 310.0, barswf: None, cryptohaze: 185.0 },
    Table8Row { device: "660", theoretical: 390.0, ours: 390.0, barswf: None, cryptohaze: 377.0 },
];

/// Paper Table IX — whole-network throughput.
#[derive(Debug, Clone, Copy)]
pub struct Table9Row {
    /// Hash name.
    pub algo: &'static str,
    /// Theoretical sum, MKey/s.
    pub theoretical: f64,
    /// Achieved, MKey/s.
    pub achieved: f64,
    /// Published efficiency.
    pub efficiency: f64,
}

/// Table IX as published.
pub const TABLE9: [Table9Row; 2] = [
    Table9Row { algo: "MD5", theoretical: 3824.1, achieved: 3258.4, efficiency: 0.852 },
    Table9Row { algo: "SHA1", theoretical: 1058.0, achieved: 950.1, efficiency: 0.898 },
];

pub mod harness;
pub mod workload;

/// Virtual cost of one steal (lock the largest victim, halve it,
/// install the half) — a generous bound for an uncontended mutex pair.
pub const STEAL_NS: u64 = 2_000;

/// One turn of a worker in a virtual-core schedule (the drivers that
/// advance per-worker virtual clocks over real-timed chunk scans): pop
/// the next chunk of `worker`'s deque, or — drained — charge
/// [`STEAL_NS`] to its clock, steal, and pop what was stolen in the same
/// turn, as the real worker loop does. Were the victim to move between
/// the steal and the pop, two workers with near-equal clocks could hand
/// the last key back and forth forever. `None` means the queue is
/// drained and the worker is done.
pub fn pop_or_steal(
    deques: &eks_engine::IntervalDeques,
    worker: usize,
    policy: eks_engine::ChunkPolicy,
    clock: &mut u64,
) -> Option<eks_keyspace::Interval> {
    deques.pop(worker, policy).or_else(|| {
        *clock += STEAL_NS;
        deques.steal_into(worker).and_then(|_| deques.pop(worker, policy))
    })
}

/// Print a table header line.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Format a paper-vs-ours pair with the relative delta.
pub fn compare(paper: f64, ours: f64) -> String {
    let delta = if paper != 0.0 { (ours - paper) / paper * 100.0 } else { 0.0 };
    format!("{paper:>9.1} | {ours:>9.1}  ({delta:>+6.1}%)")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_tables_have_five_devices() {
        assert_eq!(TABLE8_MD5.len(), 5);
        assert_eq!(TABLE8_SHA1.len(), 5);
    }

    #[test]
    fn table9_efficiency_consistent() {
        for row in TABLE9 {
            let eff = row.achieved / row.theoretical;
            assert!((eff - row.efficiency).abs() < 0.01, "{}", row.algo);
        }
    }

    #[test]
    fn compare_formats_delta() {
        let s = compare(100.0, 90.0);
        assert!(s.contains("-10.0%"), "{s}");
    }
}
