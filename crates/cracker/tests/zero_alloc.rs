//! The acceptance gate for zero-allocation candidate generation: a
//! steady-state batched sweep must perform **zero** heap allocations per
//! candidate. A counting `GlobalAlloc` wrapper measures the whole sweep;
//! the scalar path (one `Vec<u8>` digest per candidate) is measured too,
//! as a positive control that the counter actually counts.
//!
//! The workspace denies `unsafe_code`; this test crate is the one
//! deliberate exception — a `GlobalAlloc` impl cannot be written without
//! `unsafe`, and the allocator below only forwards to `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::AtomicBool;

use eks_cracker::batch::{crack_interval_batched, Kernel, Lanes};
use eks_cracker::{cpu_backend, CrackOutcome, TargetSet};
use eks_engine::ScanMode;
use eks_hashes::{HashAlgo, SimdHasher};
use eks_keyspace::{BlockSpace, Charset, HybridSpace, Interval, KeySpace, MaskSpace, Order};
use eks_telemetry::Telemetry;

thread_local! {
    // Count only while the measuring thread says so, and only that
    // thread's allocations: libtest's own channel machinery and the other
    // tests of this file (the scalar control allocates by design) run
    // concurrently on other threads and must not pollute the measurement.
    // `const` init so the TLS access itself never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_if_measuring() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

struct CountingAlloc;

// SAFETY: pure pass-through to the system allocator; the counter is a
// thread-local increment with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_measuring();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract
        // (non-zero-size `layout`); it is forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc`/`realloc` above, which return
        // `System`'s blocks, and `layout` is the one it was allocated with.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_measuring();
        // SAFETY: `ptr` is a `System` block allocated with `layout`, and
        // the caller upholds `realloc`'s `new_size` contract; all three
        // are forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.with(Cell::get) - before
}

/// An exhaustive, unobserved scan of `interval` on exactly `kernel`.
fn scan<S: BlockSpace>(
    space: &S,
    targets: &TargetSet,
    interval: Interval,
    kernel: Kernel,
) -> CrackOutcome {
    let stop = AtomicBool::new(false);
    crack_interval_batched(space, targets, interval, &stop, false, kernel, &Telemetry::disabled())
}

#[test]
fn steady_state_batch_loop_does_not_allocate() {
    // No possible hit, so no `key_at` / hit bookkeeping: pure steady state.
    let space =
        KeySpace::new(Charset::lowercase(), 1, 8, Order::FirstCharFastest).expect("space");
    let impossible = TargetSet::new(HashAlgo::Md5, &[vec![0u8; 16]]);
    // 32_000 is a multiple of both lane widths: no scalar tail, which
    // (deliberately) still allocates one digest per candidate.
    let interval = Interval::new(0, 32_000);

    for lanes in [Lanes::L8, Lanes::L16] {
        let allocs = allocs_during(|| {
            let out = scan(&space, &impossible, interval, Kernel::Portable(lanes));
            assert_eq!(out.tested, 32_000);
            assert!(out.hits.is_empty());
        });
        assert_eq!(allocs, 0, "lanes {lanes}: {allocs} heap allocations in 32k candidates");
    }
}

#[test]
fn dispatched_default_backend_does_not_allocate() {
    // What `eks crack`, the job fleet and the cluster's CPU leaves run:
    // `cpu_backend` resolves to the widest explicit kernel the CPU has
    // (32 keys per batch on AVX-512), else to the portable path above.
    // 32_000 is a multiple of every batch width, so no scalar tail.
    let space =
        KeySpace::new(Charset::lowercase(), 1, 8, Order::FirstCharFastest).expect("space");
    let stop = AtomicBool::new(false);
    let interval = Interval::new(0, 32_000);
    for algo in [HashAlgo::Md5, HashAlgo::Sha1, HashAlgo::Ntlm] {
        let impossible = TargetSet::new(algo, &[vec![0u8; algo.digest_len()]]);
        for lanes in [Lanes::L8, Lanes::L16] {
            let backend = cpu_backend(lanes);
            let allocs = allocs_during(|| {
                let out = backend.scan(&space, &impossible, interval, &stop, ScanMode::Exhaustive);
                assert_eq!(out.tested, 32_000);
                assert!(out.hits.is_empty());
            });
            let isa = backend.isa(algo).unwrap_or_default();
            assert_eq!(allocs, 0, "{algo:?} lanes {lanes} [{isa}]: {allocs} heap allocations");
        }
    }
}

#[test]
fn structured_batch_loops_do_not_allocate() {
    // What each worker of `crack_space_parallel` runs per cursor chunk:
    // the same lane loop and the same writer, over a mask or over a
    // hybrid, which it rebuilds in place at every word and suffix
    // length. A hitless NTLM sweep of
    // `?u?l?l?d` (the benchmark's mask; 175 760 = 32 * 5 492 + 16 keys)
    // minus its scalar tail, and a hybrid crossing word boundaries.
    let mask = MaskSpace::parse("?u?l?l?d").expect("mask");
    let words: Vec<&[u8]> = vec![b"winter", b"dragon", b"admin", b"x"];
    let hybrid = HybridSpace::with_digit_suffixes(&words, 3).expect("hybrid");
    for algo in [HashAlgo::Ntlm, HashAlgo::Md5, HashAlgo::Sha1] {
        let impossible = TargetSet::new(algo, &[vec![0u8; algo.digest_len()]]);
        let mask_sweep = Interval::new(0, 175_744);
        let hybrid_sweep = Interval::new(0, 4_416);
        for lanes in [Lanes::L8, Lanes::L16] {
            let allocs = allocs_during(|| {
                let out = scan(&mask, &impossible, mask_sweep, Kernel::Portable(lanes));
                assert_eq!(out.tested, mask_sweep.len);
                let out = scan(&hybrid, &impossible, hybrid_sweep, Kernel::Portable(lanes));
                assert_eq!(out.tested, hybrid_sweep.len);
            });
            assert_eq!(allocs, 0, "{algo:?} lanes {lanes}: {allocs} heap allocations");
        }
        let Some(hasher) = SimdHasher::best() else {
            eprintln!("skipped the explicit kernels: no explicit-SIMD ISA on this host");
            continue;
        };
        let allocs = allocs_during(|| {
            let out = scan(&mask, &impossible, mask_sweep, Kernel::Simd(hasher));
            assert_eq!(out.tested, mask_sweep.len);
            let out = scan(&hybrid, &impossible, hybrid_sweep, Kernel::Simd(hasher));
            assert_eq!(out.tested, hybrid_sweep.len);
        });
        assert_eq!(allocs, 0, "{algo:?} {hasher:?}: {allocs} heap allocations");
    }
}

#[test]
fn reversed_md5_batch_loop_does_not_allocate() {
    // Single MD5 target on FirstCharFastest engages the memoized
    // reversed path; rebuilding the `Md5PrefixSearch` per epoch must not
    // touch the heap either.
    let space =
        KeySpace::new(Charset::lowercase(), 5, 8, Order::FirstCharFastest).expect("space");
    let impossible = TargetSet::new(HashAlgo::Md5, &[vec![0u8; 16]]);
    let allocs = allocs_during(|| {
        let out = scan(&space, &impossible, Interval::new(0, 32_000), Kernel::Portable(Lanes::L8));
        assert_eq!(out.tested, 32_000);
    });
    assert_eq!(allocs, 0, "reversed path: {allocs} heap allocations in 32k candidates");
}

#[test]
fn scalar_path_allocates_so_the_counter_is_live() {
    // Positive control: the scalar engine heap-allocates a digest per
    // candidate, so the counter must see plenty of traffic.
    let space =
        KeySpace::new(Charset::lowercase(), 1, 8, Order::FirstCharFastest).expect("space");
    let impossible = TargetSet::new(HashAlgo::Md5, &[vec![0u8; 16]]);
    let allocs = allocs_during(|| {
        scan(&space, &impossible, Interval::new(0, 1_000), Kernel::Portable(Lanes::Scalar));
    });
    assert!(allocs >= 1_000, "scalar control only saw {allocs} allocations");
}
