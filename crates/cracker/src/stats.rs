//! The scheduler's per-worker accounting as a table
//! ([`render_worker_stats`]): tested counts, steals, splits, and
//! busy/idle time, the numbers behind the bench's measured parallel
//! efficiency (`eks crack --stats`, `eks cluster`).

use eks_engine::WorkerStats;

/// Render the scheduler's per-worker accounting as an aligned table:
/// one row per worker with tested candidates, steal and split counts,
/// busy/idle milliseconds, utilization percent, and keys per second.
/// Empty input renders to an empty string. The derived columns come
/// from the guarded [`WorkerStats::utilization_pct`] /
/// [`WorkerStats::keys_per_sec`] helpers, so a zero-duration run (a hit
/// in the first chunk before either clock ticks) renders `0` — never
/// NaN or a division panic.
pub fn render_worker_stats(stats: &[WorkerStats]) -> String {
    use std::fmt::Write as _;
    if stats.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    writeln!(
        out,
        "{:<32}{:>16}{:>8}{:>8}{:>10}{:>10}{:>8}{:>14}",
        "worker", "tested", "steals", "splits", "busy ms", "idle ms", "util%", "keys/s"
    )
    .expect("write to string");
    for w in stats {
        writeln!(
            out,
            "{:<32}{:>16}{:>8}{:>8}{:>10.1}{:>10.1}{:>8.1}{:>14.0}",
            w.label,
            w.tested,
            w.steals,
            w.splits,
            w.busy_ns as f64 / 1e6,
            w.idle_ns as f64 / 1e6,
            w.utilization_pct(),
            w.keys_per_sec()
        )
        .expect("write to string");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_stats_table_has_a_row_per_worker() {
        let mut a = WorkerStats::new("lanes8#0");
        a.tested = 1000;
        a.steals = 2;
        let mut b = WorkerStats::new("lanes8#1");
        b.tested = 500;
        b.splits = 2;
        b.idle_ns = 1_500_000;
        let table = render_worker_stats(&[a, b]);
        assert_eq!(table.lines().count(), 3, "header + two rows");
        assert!(table.contains("lanes8#0"), "{table}");
        assert!(table.contains("steals"), "{table}");
        assert!(table.contains("1.5"), "idle ms rendered: {table}");
        assert!(render_worker_stats(&[]).is_empty());
    }

    #[test]
    fn zero_duration_run_renders_without_nan() {
        // A hit in the very first chunk can finish before either clock
        // ticks: tested > 0 with zero busy and idle time.
        let mut w = WorkerStats::new("lanes8#0");
        w.tested = 8;
        let table = render_worker_stats(&[w.clone()]);
        assert!(!table.contains("NaN"), "{table}");
        assert!(!table.contains("inf"), "{table}");
        assert_eq!(w.utilization_pct(), 0.0);
        assert_eq!(w.keys_per_sec(), 0.0);
        // And a normal run derives sensible values.
        w.busy_ns = 2_000_000;
        w.idle_ns = 2_000_000;
        assert_eq!(w.utilization_pct(), 50.0);
        assert_eq!(w.keys_per_sec(), 4000.0);
        let table = render_worker_stats(&[w]);
        assert!(table.contains("util%"), "{table}");
        assert!(table.contains("keys/s"), "{table}");
        assert!(table.contains("50.0"), "{table}");
    }
}
