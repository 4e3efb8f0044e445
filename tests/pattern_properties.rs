//! Property-based integration tests of the dispatch pattern across
//! crates: balancing, partitioning, kernel/hash agreement, and the DES.
//!
//! Uses the offline property harness `eks::core::prop` (the workspace
//! builds without registry access, so `proptest` is unavailable).

// Indexing/slicing below is over fixed-size state arrays or lengths
// established by construction; the workspace `clippy::indexing_slicing`
// escalation guards new code, not these proven accesses.
#![allow(clippy::indexing_slicing)]

use eks::cluster::{paper_network, simulate_search, SimParams};
use eks::core::partition::{balance_workloads, parallel_efficiency, NodeRate};
use eks::core::prop::forall;
use eks::cracker::{CpuBackend, TargetSet};
use eks::engine::{Backend, ScanMode};
use eks::hashes::HashAlgo;
use eks::kernels::md5::{build_md5, Md5Variant};
use eks::kernels::words_for_key_len;
use eks::kernels::Tool;
use eks::keyspace::{Charset, Interval, KeySpace, Order};
use std::sync::atomic::AtomicBool;

/// Balanced workloads always yield ≥ 99 % predicted efficiency and
/// respect every node's minimum batch, for arbitrary heterogeneous
/// rate mixes.
#[test]
fn balancing_is_efficient_for_any_cluster() {
    forall("balancing efficiency", 96, |rng| {
        let n = rng.range(1, 9) as usize;
        let nodes: Vec<NodeRate> = (0..n)
            .map(|_| NodeRate::new(rng.f64_range(1.0, 5000.0), rng.range_u128(1, 1_000_000)))
            .collect();
        let a = balance_workloads(&nodes);
        for (sz, node) in a.sizes.iter().zip(&nodes) {
            assert!(*sz >= node.min_batch);
        }
        assert!(parallel_efficiency(&a.sizes, &nodes) > 0.99);
    });
}

/// The naive MD5 kernel IR computes the real digest for arbitrary
/// 4-byte candidates (kernels ↔ hashes cross-validation).
#[test]
fn kernel_ir_computes_md5_for_any_word() {
    let built = build_md5(Md5Variant::Naive, &words_for_key_len(4));
    forall("kernel IR vs real MD5", 128, |rng| {
        let w0 = rng.u32();
        let regs = built.ir.evaluate(&[w0]);
        let got: Vec<u32> = built.outputs.iter().map(|r| regs[r.0 as usize]).collect();
        let mut block = eks::hashes::padding::pad_md5_block(b"xxxx");
        block[0] = w0;
        let want = eks::hashes::md5::md5_compress(eks::hashes::md5::IV, &block);
        assert_eq!(got, want.to_vec());
    });
}

/// The host CPU backend's single-digest first-hit search (the
/// reversed-MD5 kernel path) returns exactly the planted key at its
/// identifier, for arbitrary planted secrets.
#[test]
fn host_search_matches_forward_scan() {
    let s = KeySpace::new(Charset::lowercase(), 1, 4, Order::FirstCharFastest).unwrap();
    let backend = CpuBackend::default();
    forall("host search finds planted keys", 48, |rng| {
        let id = rng.range_u128(0, 99_999) % s.size();
        let secret = s.key_at(id);
        let targets = TargetSet::new(HashAlgo::Md5, &[HashAlgo::Md5.hash(secret.as_bytes())]);
        let stop = AtomicBool::new(false);
        let out = backend.scan(&s, &targets, s.interval(), &stop, ScanMode::FirstHit);
        assert_eq!(out.hits, vec![(id, secret, 0)]);
    });
}

/// Splitting a space interval among n workers loses nothing and
/// duplicates nothing, whatever the weights.
#[test]
fn weighted_split_is_a_partition() {
    forall("weighted split partitions", 128, |rng| {
        let len = rng.range_u128(1, 1_000_000);
        let n = rng.range(1, 7) as usize;
        let weights: Vec<f64> = (0..n).map(|_| rng.f64_range(0.0, 100.0)).collect();
        let iv = Interval::new(0, len);
        let parts = iv.split_weighted(&weights);
        assert_eq!(parts.iter().map(|p| p.len).sum::<u128>(), len);
        for w in parts.windows(2) {
            assert_eq!(w[0].end(), w[1].start);
        }
    });
}

/// DES sanity for arbitrary search sizes: efficiency is in (0, 1] and
/// grows (weakly) with the search size.
#[test]
fn des_efficiency_monotone_in_search_size() {
    let net = paper_network(2e-3);
    for exp in 8..13 {
        let small = simulate_search(
            &net, Tool::OurApproach, HashAlgo::Md5, 10f64.powi(exp), SimParams::default());
        let big = simulate_search(
            &net, Tool::OurApproach, HashAlgo::Md5, 10f64.powi(exp + 1), SimParams::default());
        assert!(small.parallel_efficiency() > 0.0);
        assert!(small.parallel_efficiency() <= 1.0);
        assert!(big.parallel_efficiency() + 1e-9 >= small.parallel_efficiency());
    }
}

mod checkpoint_properties {
    use eks::core::prop::forall;
    use eks::engine::Checkpoint;
    use eks::keyspace::Interval;

    /// Arbitrary take/complete/requeue sequences never lose or
    /// duplicate identifiers: remaining + completed == full, always.
    #[test]
    fn checkpoint_conserves_work() {
        forall("checkpoint conservation", 128, |rng| {
            let len = rng.range_u128(1, 100_000);
            let n_ops = rng.range(1, 39) as usize;
            let mut cp = Checkpoint::new(Interval::new(0, len));
            let mut in_flight: Vec<Interval> = Vec::new();
            let mut completed: u128 = 0;
            for _ in 0..n_ops {
                let op = rng.range(0, 2);
                let n = rng.range_u128(1, 5_000);
                match op {
                    // take
                    0 => {
                        if let Some(iv) = cp.take_work(n) {
                            in_flight.push(iv);
                        }
                    }
                    // complete the newest in-flight interval
                    1 => {
                        if let Some(iv) = in_flight.pop() {
                            cp.complete(iv);
                            completed += iv.len;
                        }
                    }
                    // requeue the newest in-flight interval
                    _ => {
                        if let Some(iv) = in_flight.pop() {
                            cp.requeue(iv);
                        }
                    }
                }
                let in_flight_len: u128 = in_flight.iter().map(|iv| iv.len).sum();
                assert_eq!(cp.remaining() + in_flight_len + completed, len, "conservation");
            }
            // Serialization round-trips whatever state we ended in.
            let back = Checkpoint::deserialize(&cp.serialize()).unwrap();
            assert_eq!(back, cp);
        });
    }
}
