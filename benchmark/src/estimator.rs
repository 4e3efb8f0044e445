//! Order statistics and the paired-ratio estimator every time-derived
//! metric goes through.

/// Median of `values` (mean of the two middle ones for an even count).
/// `NaN` for an empty slice: callers only report metrics with samples.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Run-to-run spread as the driver of `BENCHMARK.json` takes it: the
/// distance between the first and third quartile as a share of the
/// median, quartiles as Python's `statistics.quantiles(values, n=4)` gives
/// them (the "exclusive" method, wider than [`quantile`] on few values).
/// `NaN` for fewer than two values.
pub fn spread(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / quartile(2)
}

/// Seconds `f` took.
pub fn timed(f: impl FnOnce()) -> f64 {
    let t0 = std::time::Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// One measured slice with the yardstick on either side of it.
#[derive(Debug, Clone, Copy)]
pub struct Paired {
    /// Seconds the slice took.
    pub t: f64,
    /// Units of work in the slice (keys, calls, …).
    pub work: f64,
    /// The yardstick just before the slice, as a multiple of its frozen
    /// reference duration: how much slower than the reference machine
    /// that moment was.
    pub y_before: f64,
    /// The same just after the slice.
    pub y_after: f64,
}

impl Paired {
    /// Seconds per unit of work divided by the local slowness: the
    /// slice's cost at reference machine speed, free of the machine's
    /// speed at that moment.
    pub fn ratio(&self) -> f64 {
        (self.t / self.work) / (0.5 * (self.y_before + self.y_after))
    }
}

/// Seconds per unit of work at reference machine speed: the median over
/// slices of the per-slice ratio. A slow phase of the machine
/// stretches a slice and its neighbouring yardsticks alike, so it cancels
/// inside each ratio; slices that straddle a phase edge land in the tails
/// the median ignores.
pub fn median_ratio(samples: &[Paired]) -> f64 {
    median(&samples.iter().map(Paired::ratio).collect::<Vec<_>>())
}

/// Median of the raw seconds per unit of work (what the normalisation
/// is compared against).
pub fn raw_s_per_unit(samples: &[Paired]) -> f64 {
    median(&samples.iter().map(|p| p.t / p.work).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert!(median(&[]).is_nan());
    }

    /// Against `statistics.quantiles(..., n=4)`: [2.75, 5.5, 8.25] and
    /// [1.25, 3.0, 6.5].
    #[test]
    fn spread_uses_the_drivers_quartiles() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&ten), (8.25 - 2.75) / 5.5);
        assert_eq!(spread(&[3.0, 1.0, 4.0, 1.5, 9.0]), (6.5 - 1.25) / 3.0);
        assert!(spread(&[1.0]).is_nan());
    }

    /// A 30 % slow phase covering a third of the run, with phase edges
    /// falling inside slices, must not move the estimate by more than 2 %.
    #[test]
    fn slow_phase_cancels_in_the_paired_ratio() {
        const TRUE_RATIO: f64 = 3.5e-8; // seconds per key at reference speed
        const Y: f64 = 1.1; // the whole run is 10 % slower than the reference
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut noise = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            1.0 + ((rng >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.04
        };
        let speed = |i: usize| if (100..233).contains(&i) { 1.3 } else { 1.0 };
        let mut samples = Vec::new();
        let mut raw = Vec::new();
        for i in 0..400 {
            // The machine state is sampled per event, so a phase edge
            // separates a slice from one of its two yardstick runs.
            let keys = 1.0e6;
            let t = TRUE_RATIO * Y * keys * speed(i) * noise();
            let p = Paired {
                t,
                work: keys,
                y_before: Y * speed(i.saturating_sub(1)) * noise(),
                y_after: Y * speed(i + 1) * noise(),
            };
            raw.push(t / keys);
            samples.push(p);
        }
        let est = median_ratio(&samples);
        assert!(
            (est / TRUE_RATIO - 1.0).abs() < 0.02,
            "estimate off by {}",
            est / TRUE_RATIO
        );
        // The raw mean is what the phase distorts: a third of the run at
        // +30 % shifts it by about a tenth.
        let raw_mean = raw.iter().sum::<f64>() / raw.len() as f64 / (TRUE_RATIO * Y);
        assert!(raw_mean > 1.08, "raw mean moved only to {raw_mean}");
    }
}
