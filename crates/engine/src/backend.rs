//! The leaf executor abstraction: a [`Backend`] scans an interval and
//! reports the tuned throughput the dispatcher balances with.
//!
//! The paper tunes every device `j` to an achieved throughput `X_j` and
//! assigns it `N_j = N_max · X_j / X_max` candidates; the search step
//! then runs the same generate/test/poll loop on every device regardless
//! of what it is. `Backend` captures exactly that contract: `tuned_rate`
//! for the balancing step, `scan` for the search step.

use std::sync::atomic::AtomicBool;

use eks_hashes::HashAlgo;
use eks_keyspace::{Interval, Key, KeySpace, SolutionSpace};

use crate::target::TargetSet;

/// What ends a scan besides exhaustion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// Stop the search at the first match (one preimage wanted).
    FirstHit,
    /// Test every candidate (the audit sweep).
    Exhaustive,
}

impl ScanMode {
    /// Map the historical `first_hit_only: bool` onto a mode.
    pub fn from_first_hit(first_hit_only: bool) -> Self {
        if first_hit_only {
            ScanMode::FirstHit
        } else {
            ScanMode::Exhaustive
        }
    }

    /// True under [`ScanMode::FirstHit`].
    pub fn first_hit_only(self) -> bool {
        self == ScanMode::FirstHit
    }
}

/// Result of scanning one interval on one backend, over candidates of
/// type `K`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanReport<K = Key> {
    /// `(identifier, candidate, evidence)` per hit, in identifier order;
    /// the evidence is the test's (the target index for a [`TargetSet`]).
    pub hits: Vec<(u128, K, usize)>,
    /// Candidates actually tested.
    pub tested: u128,
    /// True when the scan stopped on the stop flag rather than exhaustion
    /// or a first-hit return.
    pub cancelled: bool,
}

impl<K> ScanReport<K> {
    /// An empty report (nothing scanned, nothing found).
    pub fn empty() -> Self {
        Self {
            hits: Vec::new(),
            tested: 0,
            cancelled: false,
        }
    }
}

/// A leaf executor: scalar CPU, lane-batched CPU, or a simulated GPU
/// kernel. Implementations must poll `stop` (through
/// [`crate::PollCursor`]) so a dispatcher can cancel in-flight work.
///
/// The space `S` and the test `C` are type parameters, not further
/// traits: a search strategy changes the bijection the leaf enumerates
/// (Section III) and nothing else, so a mask or a hybrid dictionary is
/// `Backend<MaskSpace>` / `Backend<HybridSpace>` on the same backend
/// type, and a test that is not a digest set (mining) is one more `C`.
/// Plain `Backend` (and `dyn Backend`) is `Backend<KeySpace, TargetSet>`.
pub trait Backend<S: SolutionSpace + ?Sized = KeySpace, C: ?Sized = TargetSet>: Sync {
    /// Short name for labels and reports (`scalar`, `lanes8`, `simgpu`).
    fn name(&self) -> String;

    /// Scan `interval` of `space` against the test `test`. Under
    /// [`ScanMode::FirstHit`] the backend may return at its first match;
    /// it must stop at the next poll boundary once `stop` is raised.
    fn scan(
        &self,
        space: &S,
        test: &C,
        interval: Interval,
        stop: &AtomicBool,
        mode: ScanMode,
    ) -> ScanReport<S::Solution>;

    /// Tuned throughput `X_j` in MKey/s for the paper's
    /// `N_j = N_max · X_j / X_max` balancing step.
    fn tuned_rate(&self, algo: HashAlgo) -> f64;

    /// The instruction set the backend's kernels for `algo` run on:
    /// `avx2`/`avx512`/`neon` when explicit-SIMD kernels run (what the
    /// CPU backend detects on a CPU that has them), `autovec` for the
    /// portable lanes (vectorised only as far as the build's target
    /// features let the compiler), `scalar` for the reference path.
    /// `None` when the notion does not apply (simulated GPU devices
    /// already carry their model in the backend name).
    fn isa(&self, algo: HashAlgo) -> Option<String> {
        let _ = algo;
        None
    }
}

/// A borrowed backend scans as the backend itself: what lets a
/// [`crate::Fleet`] lend one caller-owned backend to several members.
impl<S: SolutionSpace + ?Sized, C: ?Sized, B: Backend<S, C> + ?Sized> Backend<S, C> for &B {
    fn name(&self) -> String {
        (**self).name()
    }

    fn scan(
        &self,
        space: &S,
        test: &C,
        interval: Interval,
        stop: &AtomicBool,
        mode: ScanMode,
    ) -> ScanReport<S::Solution> {
        (**self).scan(space, test, interval, stop, mode)
    }

    fn tuned_rate(&self, algo: HashAlgo) -> f64 {
        (**self).tuned_rate(algo)
    }

    fn isa(&self, algo: HashAlgo) -> Option<String> {
        (**self).isa(algo)
    }
}

/// The backend vocabulary the CLI and benches expose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// One candidate at a time, heap-allocated digest per test.
    Scalar,
    /// The lane-batched CPU backend: the widest explicit-SIMD kernel the
    /// CPU has (or the ISA the CLI forces), else the portable cores.
    Cpu,
    /// A simulated GPU device driving an `eks-kernels` kernel.
    SimGpu,
}

impl BackendKind {
    /// Every kind, in presentation order.
    pub const ALL: [BackendKind; 3] = [BackendKind::Scalar, BackendKind::Cpu, BackendKind::SimGpu];

    /// Parse a CLI argument: `scalar`, `cpu`, `simgpu`. `lanes8`,
    /// `lanes16`, `simd` and `auto` are accepted as older spellings of
    /// `cpu` (they all resolved to the same detected kernel).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "scalar" => Some(BackendKind::Scalar),
            "cpu" | "lanes8" | "lanes16" | "simd" | "auto" => Some(BackendKind::Cpu),
            "simgpu" => Some(BackendKind::SimGpu),
            _ => None,
        }
    }

    /// Canonical name (round-trips through [`BackendKind::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
            BackendKind::Cpu => "cpu",
            BackendKind::SimGpu => "simgpu",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_round_trips_through_bool() {
        assert_eq!(ScanMode::from_first_hit(true), ScanMode::FirstHit);
        assert_eq!(ScanMode::from_first_hit(false), ScanMode::Exhaustive);
        assert!(ScanMode::FirstHit.first_hit_only());
        assert!(!ScanMode::Exhaustive.first_hit_only());
    }

    #[test]
    fn kind_parse_round_trips() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::parse(kind.name()), Some(kind));
        }
        for legacy in ["lanes8", "lanes16", "simd", "auto"] {
            assert_eq!(BackendKind::parse(legacy), Some(BackendKind::Cpu), "{legacy}");
        }
        assert_eq!(BackendKind::parse("cuda"), None);
    }
}
