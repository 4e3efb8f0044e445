//! A self-contained micro-benchmark harness for the `crit_*` targets.
//!
//! The workspace builds with no registry access, so Criterion is not
//! available; this module supplies the subset the benches need: named
//! groups, per-element throughput, warmup, and a median-of-samples
//! timing loop. Every `crit_*` target is a plain `harness = false`
//! binary that prints one line per benchmark:
//!
//! ```text
//! group/name                 median   123.4 ns/iter   8.10 Melem/s
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target wall-clock time spent measuring one benchmark.
const MEASURE_TIME: Duration = Duration::from_millis(300);
/// Warmup time before measurement.
const WARMUP_TIME: Duration = Duration::from_millis(80);
/// Number of samples the measurement window is divided into.
const SAMPLES: usize = 11;

/// A named group of benchmarks with an optional throughput annotation.
pub struct Group {
    name: String,
    elements_per_iter: Option<u64>,
}

impl Group {
    /// Start a benchmark group.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), elements_per_iter: None }
    }

    /// Annotate subsequent benchmarks with elements processed per
    /// iteration so the report includes a Melem/s column.
    pub fn throughput_elements(&mut self, n: u64) -> &mut Self {
        self.elements_per_iter = Some(n);
        self
    }

    /// Time `routine`, printing a one-line report.
    pub fn bench<T>(&mut self, name: &str, mut routine: impl FnMut() -> T) {
        let median = time_routine(&mut routine);
        self.report(name, median);
    }

    /// Time `routine` over fresh inputs from `setup`; setup cost is
    /// excluded by timing each call individually.
    pub fn bench_with_setup<S, T>(
        &mut self,
        name: &str,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> T,
    ) {
        // Calibrate with one setup + call.
        let median = time_routine_with_setup(&mut setup, &mut routine);
        self.report(name, median);
    }

    fn report(&self, name: &str, per_iter: Duration) {
        let label = format!("{}/{}", self.name, name);
        let ns = per_iter.as_secs_f64() * 1e9;
        match self.elements_per_iter {
            Some(n) if per_iter > Duration::ZERO => {
                let meps = n as f64 / per_iter.as_secs_f64() / 1e6;
                println!("{label:<44} {ns:>12.1} ns/iter {meps:>10.2} Melem/s");
            }
            _ => println!("{label:<44} {ns:>12.1} ns/iter"),
        }
    }
}

/// Run `routine` standalone (outside a group) and print the report.
pub fn bench<T>(name: &str, routine: impl FnMut() -> T) {
    Group::new("bench").bench(name, routine);
}

fn time_routine<T>(routine: &mut impl FnMut() -> T) -> Duration {
    // Warmup while estimating the per-iteration cost.
    let warm_start = Instant::now();
    let mut iters: u64 = 0;
    while warm_start.elapsed() < WARMUP_TIME {
        black_box(routine());
        iters += 1;
    }
    let per_iter = warm_start.elapsed().as_secs_f64() / iters as f64;
    // Size each sample to roughly MEASURE_TIME / SAMPLES.
    let sample_target = MEASURE_TIME.as_secs_f64() / SAMPLES as f64;
    let batch = ((sample_target / per_iter.max(1e-12)) as u64).clamp(1, u32::MAX as u64);
    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(routine());
        }
        samples.push(t.elapsed() / batch as u32);
    }
    median(samples)
}

fn time_routine_with_setup<S, T>(
    setup: &mut impl FnMut() -> S,
    routine: &mut impl FnMut(S) -> T,
) -> Duration {
    // Each iteration is timed individually to exclude setup; batches of
    // timed iterations form samples.
    let mut one = || {
        let input = setup();
        let t = Instant::now();
        black_box(routine(input));
        t.elapsed()
    };
    let warm_start = Instant::now();
    let mut iters: u64 = 0;
    let mut spent = Duration::ZERO;
    while warm_start.elapsed() < WARMUP_TIME {
        spent += one();
        iters += 1;
    }
    let per_iter = (spent.as_secs_f64() / iters as f64).max(1e-12);
    let sample_target = MEASURE_TIME.as_secs_f64() / SAMPLES as f64;
    let batch = ((sample_target / per_iter) as u64).clamp(1, u32::MAX as u64);
    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let mut total = Duration::ZERO;
        for _ in 0..batch {
            total += one();
        }
        samples.push(total / batch as u32);
    }
    median(samples)
}

/// The middle sample (the upper one of an even count); zero for none.
fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples.get(samples.len() / 2).copied().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_list() {
        let ds = vec![
            Duration::from_nanos(30),
            Duration::from_nanos(10),
            Duration::from_nanos(20),
        ];
        assert_eq!(median(ds), Duration::from_nanos(20));
    }

    #[test]
    fn timing_loops_terminate() {
        let d = time_routine(&mut || 1 + 1);
        assert!(d < Duration::from_secs(1));
        let d = time_routine_with_setup(&mut || 5u64, &mut |x| x * 2);
        assert!(d < Duration::from_secs(1));
    }
}
