//! Offline performance modeling (Section III): "The tuning step could be
//! skipped when a performance model that correlates efficiency,
//! performances, and size of the search subspace for the considered
//! algorithm is available. An approximated model could be built offline
//! by performing a sequence of tests with increasing search size on each
//! node of the cluster."
//!
//! The node-time model is affine: `T(n) = overhead + n / rate`. Fitting
//! it from `(size, time)` samples by least squares recovers both the peak
//! rate `X_j` and the per-dispatch overhead, from which the minimum batch
//! `n_j` for any target efficiency follows in closed form — no online
//! tuning pass needed.

/// A fitted affine performance model for one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FittedModel {
    /// Peak throughput, keys per second.
    pub rate: f64,
    /// Fixed per-dispatch overhead, seconds.
    pub overhead_s: f64,
    /// Coefficient of determination of the fit (1.0 = perfect).
    pub r_squared: f64,
}

impl FittedModel {
    /// Predicted time to search `n` keys.
    pub fn predict_time_s(&self, n: f64) -> f64 {
        self.overhead_s + n / self.rate
    }

    /// Predicted efficiency at `n` keys: useful work over total time.
    pub fn predict_efficiency(&self, n: f64) -> f64 {
        let work = n / self.rate;
        work / self.predict_time_s(n)
    }

    /// The minimum batch reaching `target` efficiency (the paper's `n_j`)
    /// — inverse of [`FittedModel::predict_efficiency`].
    ///
    /// # Panics
    /// Panics unless `target` is in `[0, 1)`.
    pub fn min_batch_for_efficiency(&self, target: f64) -> f64 {
        assert!((0.0..1.0).contains(&target));
        // eff = (n/rate) / (o + n/rate)  =>  n = rate·o·eff/(1-eff)
        self.rate * self.overhead_s * target / (1.0 - target)
    }

    /// Throughput in MKey/s.
    pub fn mkeys(&self) -> f64 {
        self.rate / 1e6
    }
}

/// Fit `T(n) = overhead + n / rate` by ordinary least squares over
/// `(keys, seconds)` samples.
///
/// Returns `None` with fewer than two distinct sizes or a non-positive
/// fitted slope (which would mean a meaningless negative rate).
fn fit_model(samples: &[(f64, f64)]) -> Option<FittedModel> {
    if samples.len() < 2 {
        return None;
    }
    let n = samples.len() as f64;
    let mean_x = samples.iter().map(|(x, _)| x).sum::<f64>() / n;
    let mean_y = samples.iter().map(|(_, y)| y).sum::<f64>() / n;
    let sxx: f64 = samples.iter().map(|(x, _)| (x - mean_x).powi(2)).sum();
    if sxx == 0.0 {
        return None;
    }
    let sxy: f64 = samples
        .iter()
        .map(|(x, y)| (x - mean_x) * (y - mean_y))
        .sum();
    let slope = sxy / sxx; // 1 / rate
    if slope <= 0.0 {
        return None;
    }
    let intercept = mean_y - slope * mean_x; // overhead
    // R²
    let ss_tot: f64 = samples.iter().map(|(_, y)| (y - mean_y).powi(2)).sum();
    let ss_res: f64 = samples
        .iter()
        .map(|(x, y)| (y - (intercept + slope * x)).powi(2))
        .sum();
    let r_squared = if ss_tot == 0.0 { 1.0 } else { 1.0 - ss_res / ss_tot };
    Some(FittedModel {
        rate: 1.0 / slope,
        overhead_s: intercept.max(0.0),
        r_squared,
    })
}

/// Run the offline calibration sequence against a real measurement
/// closure: `measure(n)` searches `n` keys and returns elapsed seconds.
/// `sizes` should grow geometrically (the paper: "a sequence of tests
/// with increasing search size").
pub fn calibrate<F: FnMut(u64) -> f64>(sizes: &[u64], mut measure: F) -> Option<FittedModel> {
    let samples: Vec<(f64, f64)> = sizes
        .iter()
        .map(|&n| (n as f64, measure(n)))
        .collect();
    fit_model(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_affine_model() {
        // T(n) = 0.004 + n / 250e6
        let truth = |n: f64| 0.004 + n / 250e6;
        let samples: Vec<(f64, f64)> = [1e5, 1e6, 1e7, 1e8]
            .iter()
            .map(|&n| (n, truth(n)))
            .collect();
        let m = fit_model(&samples).expect("fit");
        assert!((m.rate - 250e6).abs() / 250e6 < 1e-9);
        assert!((m.overhead_s - 0.004).abs() < 1e-12);
        assert!(m.r_squared > 0.999999);
    }

    #[test]
    fn min_batch_inverts_efficiency() {
        let m = FittedModel { rate: 500e6, overhead_s: 0.002, r_squared: 1.0 };
        for target in [0.5, 0.9, 0.99] {
            let n = m.min_batch_for_efficiency(target);
            assert!((m.predict_efficiency(n) - target).abs() < 1e-9, "target {target}");
        }
    }

    #[test]
    fn noisy_samples_still_fit_well() {
        // ±2 % deterministic "noise".
        let truth = |n: f64| 0.003 + n / 100e6;
        let samples: Vec<(f64, f64)> = (1..=10)
            .map(|i| {
                let n = 1e6 * i as f64;
                let wiggle = 1.0 + 0.02 * if i % 2 == 0 { 1.0 } else { -1.0 };
                (n, truth(n) * wiggle)
            })
            .collect();
        let m = fit_model(&samples).expect("fit");
        assert!((m.rate - 100e6).abs() / 100e6 < 0.05, "rate {}", m.rate);
        assert!(m.r_squared > 0.99);
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(fit_model(&[]).is_none());
        assert!(fit_model(&[(1e6, 0.1)]).is_none());
        assert!(fit_model(&[(1e6, 0.1), (1e6, 0.2)]).is_none(), "no size spread");
        assert!(fit_model(&[(1e6, 0.2), (2e6, 0.1)]).is_none(), "negative slope");
    }

    #[test]
    fn calibrate_drives_the_measurement() {
        let mut calls = 0;
        let m = calibrate(&[100_000, 1_000_000, 10_000_000], |n| {
            calls += 1;
            0.001 + n as f64 / 50e6
        })
        .expect("fit");
        assert_eq!(calls, 3);
        assert!((m.mkeys() - 50.0).abs() < 0.1);
    }

    #[test]
    fn fitted_model_agrees_with_real_cpu_measurement() {
        // Calibrate against the real parallel cracker and check the fit
        // is self-consistent (prediction within 40 % of a fresh sample —
        // CI machines are noisy).
        use eks_cracker::{crack_parallel, ParallelConfig, TargetSet};
        use eks_hashes::HashAlgo;
        use eks_keyspace::{Charset, Interval, KeySpace, Order};
        let space =
            KeySpace::new(Charset::lowercase(), 1, 8, Order::FirstCharFastest).unwrap();
        let targets = TargetSet::new(HashAlgo::Md5, &[vec![0u8; 16]]);
        // Best of three per sample: a sweep is tens of milliseconds on the
        // detected SIMD kernel, short enough for one descheduled worker
        // or a slow phase of the host to double it.
        let mut measure = |n: u64| {
            (0..3)
                .map(|_| {
                    crack_parallel(
                        &space,
                        &targets,
                        Interval::new(0, n as u128),
                        ParallelConfig {
                            threads: 2,
                            chunk: 1 << 12,
                            first_hit_only: false,
                            ..Default::default()
                        },
                    )
                    .elapsed_s
                })
                .fold(f64::INFINITY, f64::min)
        };
        // Untimed warm-up: the first sweeps of a process run cold code on
        // a core still ramping up, and would tilt the fit.
        measure(400_000);
        let m = calibrate(&[50_000, 100_000, 200_000, 400_000], &mut measure)
            .expect("fit");
        assert!(m.rate > 1e5, "rate {} should be at least 0.1 MKey/s", m.rate);
        let fresh = measure(300_000);
        let predicted = m.predict_time_s(300_000.0);
        let rel = (fresh - predicted).abs() / fresh;
        assert!(rel < 0.40, "prediction off by {rel}: {predicted} vs {fresh}");
    }
}
