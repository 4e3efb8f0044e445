//! Cross-backend equivalence: every [`eks::engine::Backend`] — scalar,
//! the CPU backend under each of its constructors (the detected kernel
//! as `lanes8` / `lanes16` / `auto`, the portable 8/16-lane cores, and
//! every explicit-SIMD ISA the host allows), and the simulated-GPU
//! kernel backend — must produce identical hit sets when driven through
//! the same [`eks::engine::Dispatcher`]. The paper's point is that one dispatch
//! pattern covers heterogeneous devices; these properties pin the part
//! correctness depends on: the *result* of a scan is a function of the
//! interval, not of which device scanned it.

// Indexing/slicing below is over fixed-size state arrays or lengths
// established by construction; the workspace `clippy::indexing_slicing`
// escalation guards new code, not these proven accesses.
#![allow(clippy::indexing_slicing)]

use std::sync::atomic::{AtomicBool, Ordering};

use eks::cluster::SimKernelBackend;
use eks::core::prop::{forall, Rng};
use eks::cracker::batch::Lanes;
use eks::cracker::{cpu_backend, AutoBackend, CpuBackend, TargetSet};
use eks::engine::{Backend, Dispatcher, ScanMode};
use eks::gpusim::device::Device;
use eks::hashes::{HashAlgo, SimdIsa};
use eks::keyspace::{Charset, Interval, Key, KeySpace, Order};

/// Every backend under test, freshly built. On a host with an explicit
/// ISA `cpu_backend(L8/L16)` dispatches past the portable cores, so they
/// join the matrix through the constructor that never dispatches; each
/// explicit ISA joins only where the CPU exposes it (Miri and exotic
/// targets skip them all).
fn all_backends() -> Vec<Box<dyn Backend>> {
    let mut backends: Vec<Box<dyn Backend>> = vec![
        cpu_backend(Lanes::Scalar),
        cpu_backend(Lanes::L8),
        cpu_backend(Lanes::L16),
        Box::new(CpuBackend::portable(Lanes::L8)),
        Box::new(CpuBackend::portable(Lanes::L16)),
        Box::new(SimKernelBackend::new(Device::geforce_gtx_660())),
        Box::new(AutoBackend::new(eks::telemetry::Telemetry::disabled())),
    ];
    for simd in SimdIsa::ALL.into_iter().filter_map(|isa| CpuBackend::new(isa).ok()) {
        backends.push(Box::new(simd));
    }
    backends
}

fn random_space(rng: &mut Rng) -> KeySpace {
    let charset = match rng.index(3) {
        0 => Charset::lowercase(),
        1 => Charset::digits(),
        _ => Charset::from_bytes(b"abcd").unwrap(),
    };
    let min = rng.range(1, 2) as u32;
    let max = rng.range(min as u64, 4) as u32;
    KeySpace::new(charset, min, max, Order::FirstCharFastest).unwrap()
}

/// Plant `n` target keys drawn from `space` and return their digests.
fn plant(rng: &mut Rng, space: &KeySpace, algo: HashAlgo, n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|_| {
            let id = rng.range_u128(0, space.size() - 1);
            algo.hash(space.key_at(id).as_bytes())
        })
        .collect()
}

fn scan_with(
    space: &KeySpace,
    targets: &TargetSet,
    backend: &dyn Backend,
    interval: Interval,
    mode: ScanMode,
    workers: usize,
) -> (Vec<(u128, Key, usize)>, u128) {
    let d = Dispatcher::new(space, targets, mode);
    d.run_queue(backend, interval, workers, 1 << 12);
    let r = d.finish();
    (r.hits, r.tested)
}

#[test]
fn exhaustive_hit_sets_are_identical_across_backends() {
    forall("exhaustive backend equivalence", 12, |rng| {
        let algo = [HashAlgo::Md5, HashAlgo::Sha1, HashAlgo::Ntlm][rng.index(3)];
        let space = random_space(rng);
        let n = 1 + rng.index(3);
        let digests = plant(rng, &space, algo, n);
        let targets = TargetSet::new(algo, &digests);
        // A random sub-interval, sometimes the whole space.
        let start = rng.range_u128(0, space.size() / 2);
        let len = rng.range_u128(1, space.size() - start);
        let interval = Interval::new(start, len);

        let backends = all_backends();
        let (reference, ref_tested) = scan_with(
            &space, &targets, backends[0].as_ref(), interval, ScanMode::Exhaustive, 1,
        );
        assert_eq!(ref_tested, interval.len, "exhaustive tests every identifier");
        for backend in &backends[1..] {
            let workers = 1 + rng.index(3);
            let (hits, tested) = scan_with(
                &space, &targets, backend.as_ref(), interval, ScanMode::Exhaustive, workers,
            );
            assert_eq!(hits, reference, "{} diverges from scalar", backend.name());
            assert_eq!(tested, interval.len, "{}", backend.name());
        }
    });
}

#[test]
fn first_hit_winner_is_the_lowest_identifier_on_every_backend() {
    forall("first-hit determinism", 10, |rng| {
        let algo = [HashAlgo::Md5, HashAlgo::Ntlm][rng.index(2)];
        let space = random_space(rng);
        let n = 2 + rng.index(3);
        let digests = plant(rng, &space, algo, n);
        let targets = TargetSet::new(algo, &digests);
        let interval = space.interval();

        let backends = all_backends();
        let (reference, _) = scan_with(
            &space, &targets, backends[0].as_ref(), interval, ScanMode::FirstHit, 1,
        );
        assert_eq!(reference.len(), 1, "first-hit returns exactly one hit");
        for backend in &backends[1..] {
            // Single worker: the scan is sequential, so the winner is
            // exactly the lowest-identifier hit for every backend.
            let (hits, _) = scan_with(
                &space, &targets, backend.as_ref(), interval, ScanMode::FirstHit, 1,
            );
            assert_eq!(hits, reference, "{} first-hit winner differs", backend.name());
        }
    });
}

#[test]
fn multi_worker_first_hit_returns_a_real_planted_hit() {
    forall("racy first-hit validity", 8, |rng| {
        let algo = HashAlgo::Md5;
        let space = random_space(rng);
        let n = 1 + rng.index(2);
        let digests = plant(rng, &space, algo, n);
        let targets = TargetSet::new(algo, &digests);
        let backends = all_backends();
        let backend = backends[rng.index(backends.len())].as_ref();

        let (hits, _) =
            scan_with(&space, &targets, backend, space.interval(), ScanMode::FirstHit, 4);
        // With several workers racing, WHICH planted key wins can vary —
        // but the winner must be a genuine preimage of the target its
        // index names (indices are into the set's sorted digest order).
        assert_eq!(hits.len(), 1, "{}", backend.name());
        let (_, key, t) = &hits[0];
        assert_eq!(algo.hash(key.as_bytes()), targets.digest(*t), "{}", backend.name());
    });
}

#[test]
fn mid_interval_cancellation_reports_a_subset() {
    forall("cancellation subset", 8, |rng| {
        let algo = HashAlgo::Md5;
        let space = random_space(rng);
        let digests = plant(rng, &space, algo, 3);
        let targets = TargetSet::new(algo, &digests);
        let interval = space.interval();

        // The exhaustive reference hit set.
        let backends = all_backends();
        let (reference, _) = scan_with(
            &space, &targets, backends[0].as_ref(), interval, ScanMode::Exhaustive, 1,
        );

        // A scan cancelled somewhere mid-interval: raise the stop flag
        // from a watcher thread after a random number of tested keys.
        let backend = backends[rng.index(backends.len())].as_ref();
        let d = Dispatcher::new(&space, &targets, ScanMode::Exhaustive);
        let threshold = rng.range_u128(0, interval.len);
        let w = d.register("cancelled");
        let report = std::thread::scope(|scope| {
            let handle = scope.spawn(|| d.scan_as(w, backend, interval));
            // Poll the shared accounting until the threshold passes, then
            // cancel; the scan must stop at the next poll boundary.
            while !handle.is_finished() {
                if d.stop_flag().load(Ordering::Relaxed) {
                    break;
                }
                if threshold == 0 {
                    d.cancel();
                    break;
                }
                std::hint::spin_loop();
            }
            d.cancel();
            handle.join().expect("scan thread")
        });
        assert!(report.tested <= interval.len);
        for hit in &report.hits {
            assert!(reference.contains(hit), "cancelled scan invented a hit");
        }
        let r = d.finish();
        assert_eq!(r.tested, report.tested, "accounting matches the scan report");
    });
}

/// The dispatch itself: on a host with an explicit ISA the lane backends
/// must *be* the explicit backend — same hits, same `tested` (which
/// counts whole batches of the kernel that ran, so it tells a 32-key
/// AVX-512 batch from an 8-key portable one) — in both scan modes, for
/// every algorithm and enumeration order.
#[test]
fn dispatched_lane_backends_equal_the_best_explicit_backend() {
    let Some(simd) = CpuBackend::best() else {
        eprintln!("skipped: no explicit-SIMD ISA on this host");
        return;
    };
    let stop = AtomicBool::new(false);
    for order in [Order::FirstCharFastest, Order::LastCharFastest] {
        let space = KeySpace::new(Charset::lowercase(), 1, 3, order).unwrap();
        for algo in [HashAlgo::Md5, HashAlgo::Sha1, HashAlgo::Ntlm] {
            let digests: Vec<Vec<u8>> =
                [b"q".as_slice(), b"dog", b"zz"].iter().map(|w| algo.hash(w)).collect();
            let targets = TargetSet::new(algo, &digests);
            // Off a batch boundary at both ends, so the scalar tail runs too.
            let interval = Interval::new(3, space.size() - 5);
            for mode in [ScanMode::Exhaustive, ScanMode::FirstHit] {
                let want = simd.scan(&space, &targets, interval, &stop, mode);
                assert!(!want.hits.is_empty(), "{algo:?} {order:?}: planted keys are in range");
                for lanes in [Lanes::L8, Lanes::L16] {
                    let backend = cpu_backend(lanes);
                    let got = backend.scan(&space, &targets, interval, &stop, mode);
                    let case = format!("{} vs {} {algo:?} {order:?} {mode:?}", backend.name(), simd.name());
                    assert_eq!(got.hits, want.hits, "{case}");
                    assert_eq!(got.tested, want.tested, "{case}");
                    assert_eq!(backend.isa(algo), simd.isa(algo), "{case}");
                }
            }
        }
    }
}
