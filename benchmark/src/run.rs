//! The measuring loops: the untraced end-to-end pass, and the fresh-child
//! set-up probes spread through it.

use std::process::{Command, Stdio};
use std::time::Instant;

use crate::estimator::{self, timed, Paired};
use crate::workloads::{self, SliceOut, Workload};
use crate::yard::{Reading, Yard};

/// Slices between two set-up probes.
const SLICES_PER_PROBE: usize = 6;
/// Untimed slices at the start of a pass that show how many workers the
/// workload keeps busy.
pub const PILOT_SLICES: usize = 5;

/// One measured slice with the yardstick readings around it.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Seconds the slice took.
    pub t: f64,
    pub before: Reading,
    pub after: Reading,
    pub out: SliceOut,
}

/// The measured slices of one pass.
#[derive(Debug, Clone, Default)]
pub struct Slices(pub Vec<Slice>);

impl Slices {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn paired(&self, wide_share: f64) -> Vec<Paired> {
        let of = |s: &Slice| Paired {
            t: s.t,
            work: s.out.keys.max(1) as f64,
            y_before: s.before.slowness(wide_share),
            y_after: s.after.slowness(wide_share),
        };
        self.0.iter().map(of).collect()
    }

    /// Seconds per key at reference machine speed, for code that spends
    /// `wide_share` of its time in explicit-SIMD kernels: the median over
    /// slices of (seconds per key ÷ local slowness).
    pub fn s_per_key(&self, wide_share: f64) -> f64 {
        estimator::median_ratio(&self.paired(wide_share))
    }

    /// MKey/s as the wall clock saw it (median slice), never gated.
    pub fn mkeys_raw(&self) -> f64 {
        1e-6 / estimator::raw_s_per_unit(&self.paired(0.0))
    }

    /// Quantile `q` of the `yard.base` runs, in milliseconds: the
    /// machine's state during the pass.
    pub fn yard_ms(&self, q: f64) -> f64 {
        let ys: Vec<f64> = self.0.iter().map(|s| s.before.base * 1e3).collect();
        estimator::quantile(&ys, q)
    }

    /// Median over slices of what `f` extracts.
    pub fn median_of(&self, f: impl Fn(&Slice) -> f64) -> f64 {
        estimator::median(&self.0.iter().map(f).collect::<Vec<_>>())
    }
}

/// What a pass measured its workload against. Both parts are observed in
/// the pass itself, so a change to the product that moves a workload's
/// profile moves its ruler with it.
#[derive(Debug, Clone, Copy)]
pub struct Ruler {
    /// Threads the yardstick ran on: the workers the workload kept busy
    /// in the pilot slices. This host runs one busy thread faster than
    /// each of two, and not always, so a two-thread ruler under a search
    /// that keeps one worker busy carries that swing.
    pub threads: usize,
    /// Median of `Workload::wide_share` over the pass; 0 when the
    /// workload runs no explicit-SIMD kernel.
    pub wide_share: f64,
}

/// Run the pilot slices of `w` and return the thread count its yardstick
/// should run on, with the number of pilot slices that failed. A workload
/// whose product entry point reports no `WorkerStats` is taken at the
/// thread count it was configured with.
pub fn pilot(w: &mut dyn Workload) -> (usize, u64) {
    let most = w.threads().max(1);
    let mut busy_workers = Vec::new();
    let mut failed = 0;
    for _ in 0..PILOT_SLICES {
        let mut out = SliceOut::default();
        let t = timed(|| out = w.slice());
        failed += u64::from(!out.ok);
        if out.workers > 0 {
            busy_workers.push(out.busy_ns as f64 / (t * 1e9));
        }
    }
    let threads = if busy_workers.is_empty() {
        most
    } else {
        (estimator::median(&busy_workers).round() as usize).clamp(1, most)
    };
    (threads, failed)
}

/// What the untraced pass of one workload measured.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    pub workload: String,
    pub label: String,
    pub ruler: Ruler,
    pub slices: Slices,
    pub probes: Vec<Probe>,
    /// Operations (pilot slices, slices, probes, the end-of-run check)
    /// that failed their correctness assertion.
    pub failed: u64,
}

impl EndToEnd {
    pub fn attempted(&self) -> u64 {
        (PILOT_SLICES + self.slices.len() + self.probes.len()) as u64 + 1
    }

    /// MKey/s at reference machine speed.
    pub fn mkeys_norm(&self) -> f64 {
        1e-6 / self.slices.s_per_key(self.ruler.wide_share)
    }

    /// The same by one yardstick variant alone. The two drift apart when
    /// the workload's code is of the other class.
    pub fn mkeys_by(&self, yard: Yard) -> f64 {
        1e-6 / self
            .slices
            .s_per_key(f64::from(u8::from(yard == Yard::Wide)))
    }

    fn probe_median(&self, f: impl Fn(&Probe) -> f64) -> f64 {
        let good = self.probes.iter().filter(|p| p.setup_s.is_finite());
        estimator::median(&good.map(f).collect::<Vec<_>>())
    }

    /// Set-up seconds at reference machine speed: median over probes.
    pub fn setup_s(&self) -> f64 {
        self.probe_median(Probe::normalised_s)
    }

    pub fn setup_raw_s(&self) -> f64 {
        self.probe_median(|p| p.setup_s)
    }

    /// Resident-memory high-water mark of a process that set the workload
    /// up and ran one slice: median over probes.
    pub fn rss_mb(&self) -> f64 {
        self.probe_median(|p| p.rss_mb)
    }

    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted() as f64
    }
}

/// One set-up measured in a fresh process.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Seconds from the child's `main` to its first verified result.
    pub setup_s: f64,
    pub y_before: f64,
    pub y_after: f64,
    /// `VmHWM` of the child at its exit, after one full slice.
    pub rss_mb: f64,
    pub ok: bool,
}

impl Probe {
    /// At reference machine speed; the child times `yard.base`.
    pub fn normalised_s(&self) -> f64 {
        self.setup_s / Yard::Base.slowness(0.5 * (self.y_before + self.y_after))
    }
}

/// The child side of a probe: time set-up to first result between two
/// yardstick runs, run one slice, and print the three times with the
/// process's memory high-water mark. Set-up is baseline code on
/// every workload (process start, allocation, thread spawn, tuning
/// loops), so `yard.base` normalises it whatever normalises the slices,
/// and on one thread, which is what those steps run on: a host that runs
/// one busy thread faster than each of two makes a two-thread ruler read
/// one-thread work too fast (README, "Threads").
pub fn probe_child(name: &str, seed: u64) -> bool {
    // The first yardstick pays this process's page faults; the set-up
    // that follows is meant to be cold, the ruler is not.
    Yard::Base.run(1);
    let y_before = Yard::Base.run(1);
    let t0 = Instant::now();
    let Some(mut w) = workloads::build(name, seed, workloads::nproc(), None) else {
        return false;
    };
    let ok = w.warm();
    let setup_s = t0.elapsed().as_secs_f64();
    let y_after = Yard::Base.run(1);
    // Untimed: one full slice, so that the high-water mark of this process
    // is that of a search and not of its set-up alone.
    let ok = ok && w.slice().ok && w.finish();
    drop(w);
    println!(
        "probe {setup_s:e} {y_before:e} {y_after:e} {:e} {}",
        rss_high_water_mb(),
        u8::from(ok)
    );
    ok
}

/// Run this executable again with `args`, wait for it (so no child
/// outlives the run) and return what it printed and whether it succeeded.
pub fn child_stdout(args: &[&str]) -> Option<(String, bool)> {
    let out = Command::new(std::env::current_exe().ok()?)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    Some((
        String::from_utf8_lossy(&out.stdout).into_owned(),
        out.status.success(),
    ))
}

/// The numbers after `tag` on the line a child run with `args` prints.
/// `None` when the child cannot be spawned, fails, or prints no such line.
pub fn child_numbers(args: &[&str], tag: &str) -> Option<Vec<f64>> {
    let (text, ok) = child_stdout(args)?;
    let line = text.lines().find_map(|l| l.strip_prefix(tag))?;
    ok.then(|| {
        line.split_whitespace()
            .filter_map(|x| x.parse().ok())
            .collect()
    })
}

/// The parent side: run one probe child to completion and parse its line.
/// A child that cannot be spawned or parsed counts as a failed probe.
fn probe(name: &str, seed: u64) -> Probe {
    let args = ["--probe", name, "--seed", &seed.to_string()];
    match child_numbers(&args, "probe ").as_deref() {
        Some(&[setup_s, y_before, y_after, rss_mb, ok]) => Probe {
            setup_s,
            y_before,
            y_after,
            rss_mb,
            ok: ok == 1.0,
        },
        _ => Probe {
            setup_s: f64::NAN,
            y_before: 1.0,
            y_after: 1.0,
            rss_mb: f64::NAN,
            ok: false,
        },
    }
}

fn rss_high_water_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Time one `w.slice()` and the yardstick readings after it. `prev`
/// carries the reading that precedes the next slice.
pub fn timed_slice(w: &mut dyn Workload, threads: usize, prev: &mut Reading) -> Slice {
    let mut out = SliceOut::default();
    let t = timed(|| out = w.slice());
    let after = Reading::take(threads);
    let slice = Slice {
        t,
        before: *prev,
        after,
        out,
    };
    *prev = after;
    slice
}

/// The median of the wide shares a pass collected; 0 for a workload that
/// reports none.
pub fn median_share(shares: &[f64]) -> f64 {
    if shares.is_empty() {
        0.0
    } else {
        estimator::median(shares)
    }
}

/// The untraced pass of one workload: a closed loop of one search at a
/// time for `seconds`, both yardstick variants between every two
/// searches, and every few searches a fresh-process set-up probe and a
/// reading of the workload's wide share.
pub fn end_to_end(name: &str, seed: u64, seconds: f64) -> Option<EndToEnd> {
    let mut w = workloads::build(name, seed, workloads::nproc(), None)?;
    let mut failed = u64::from(!w.warm());
    let (threads, pilot_failed) = pilot(&mut *w);
    failed += pilot_failed;
    let mut slices = Slices::default();
    let mut probes = Vec::new();
    let mut shares = Vec::new();
    Reading::take(threads);
    let mut prev = Reading::take(threads);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let slice = timed_slice(&mut *w, threads, &mut prev);
        failed += u64::from(!slice.out.ok);
        slices.0.push(slice);
        if slices.len() % SLICES_PER_PROBE == 0 {
            let p = probe(name, seed.wrapping_add(probes.len() as u64));
            failed += u64::from(!p.ok);
            probes.push(p);
            shares.extend(w.wide_share());
            prev = Reading::take(threads);
        }
    }
    failed += u64::from(!w.finish());
    let label = w.label();
    drop(w);
    Some(EndToEnd {
        workload: name.to_string(),
        label,
        ruler: Ruler {
            threads,
            wide_share: median_share(&shares),
        },
        slices,
        probes,
        failed,
    })
}
