//! Benchmark-owned [`Backend`]s: a no-op leaf that isolates the
//! dispatcher's own cost, and a wrapper that records one span per `scan`
//! call of any real backend.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use eks_engine::{Backend, ScanMode, ScanReport, TargetSet};
use eks_hashes::HashAlgo;
use eks_keyspace::{Interval, KeySpace};

use crate::spans::Tracer;

/// Claims every key of the interval tested without touching one: what is
/// left of a dispatch over it is the engine's chunking, polling,
/// stealing and merging.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopBackend;

impl Backend for NoopBackend {
    fn name(&self) -> String {
        "noop".into()
    }

    fn scan(
        &self,
        space: &KeySpace,
        _targets: &TargetSet,
        interval: Interval,
        _stop: &AtomicBool,
        _mode: ScanMode,
    ) -> ScanReport {
        let clamped = interval.intersect(&space.interval());
        ScanReport {
            hits: Vec::new(),
            tested: clamped.len,
            cancelled: false,
        }
    }

    fn tuned_rate(&self, _algo: HashAlgo) -> f64 {
        1.0
    }
}

/// Delegates everything to `inner`, timing each `scan` as a leaf span.
pub struct TracingBackend {
    inner: Box<dyn Backend>,
    tracer: Arc<Tracer>,
}

impl TracingBackend {
    pub fn new(inner: Box<dyn Backend>, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

impl Backend for TracingBackend {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn scan(
        &self,
        space: &KeySpace,
        targets: &TargetSet,
        interval: Interval,
        stop: &AtomicBool,
        mode: ScanMode,
    ) -> ScanReport {
        self.tracer.leaf("scan", || {
            self.inner.scan(space, targets, interval, stop, mode)
        })
    }

    fn tuned_rate(&self, algo: HashAlgo) -> f64 {
        self.inner.tuned_rate(algo)
    }

    fn isa(&self, algo: HashAlgo) -> Option<String> {
        self.inner.isa(algo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eks_cracker::{cpu_backend, crack_parallel_backend, Lanes, ParallelConfig};
    use eks_keyspace::{Charset, Order};

    fn space() -> KeySpace {
        KeySpace::new(Charset::lowercase(), 1, 4, Order::FirstCharFastest).unwrap()
    }

    fn config() -> ParallelConfig {
        ParallelConfig {
            first_hit_only: false,
            chunk: 4096,
            ..ParallelConfig::for_threads(2)
        }
    }

    #[test]
    fn noop_backend_accounts_for_every_key_and_finds_nothing() {
        let s = space();
        let t = TargetSet::new(HashAlgo::Md5, &[HashAlgo::Md5.hash_long(b"dog")]);
        let iv = Interval::new(100, 300_000);
        let r = crack_parallel_backend(&s, &t, iv, &NoopBackend, config());
        assert_eq!(r.tested, 300_000);
        assert!(r.hits.is_empty());
    }

    #[test]
    fn tracing_backend_preserves_tested_and_hits() {
        let s = space();
        let t = TargetSet::new(
            HashAlgo::Md5,
            &[
                HashAlgo::Md5.hash_long(b"dog"),
                HashAlgo::Md5.hash_long(b"mule"),
            ],
        );
        let plain =
            crack_parallel_backend(&s, &t, s.interval(), &*cpu_backend(Lanes::L8), config());
        let tracer = Arc::new(Tracer::new());
        let traced = TracingBackend::new(cpu_backend(Lanes::L8), tracer.clone());
        let slice = tracer.enter("slice");
        let r = crack_parallel_backend(&s, &t, s.interval(), &traced, config());
        tracer.exit(slice);
        assert_eq!(r.tested, plain.tested);
        assert_eq!(r.hits, plain.hits);
        assert_eq!(r.hits.len(), 2);
        let spans = tracer.snapshot();
        let root = spans.iter().find(|x| x.name == "slice").unwrap();
        let scans: Vec<_> = spans.iter().filter(|x| x.name == "scan").collect();
        assert!(!scans.is_empty());
        assert!(scans.iter().all(|x| x.parent == root.id));
        assert_eq!(traced.name(), "lanes8");
    }
}
