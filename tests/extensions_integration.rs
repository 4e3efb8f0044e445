//! Integration tests for the extension layers: NTLM end-to-end, mask and
//! hybrid attacks through the generic engine, checkpoint-driven resumes,
//! topology parsing, and occupancy of the real kernels. Dynamic
//! membership is `tests/cluster_driver.rs`'s join/leave/rejoin churn.

// Indexing/slicing below is over fixed-size state arrays or lengths
// established by construction; the workspace `clippy::indexing_slicing`
// escalation guards new code, not these proven accesses.
#![allow(clippy::indexing_slicing)]

use eks::cluster::{parse_topology, run_cluster_search};
use eks::cracker::{crack_interval, crack_space_parallel, ParallelConfig, TargetSet};
use eks::engine::{Checkpoint, SearchCheckpoint};
use eks::hashes::HashAlgo;
use eks::keyspace::{Charset, HybridSpace, KeySpace, MaskSpace, Order};
use std::sync::atomic::AtomicBool;

/// NTLM cracks through the whole stack: engine, cluster, and the MD4
/// kernel model agrees with the real hash.
#[test]
fn ntlm_end_to_end() {
    let s = KeySpace::new(Charset::lowercase(), 1, 4, Order::FirstCharFastest).unwrap();
    let secret = b"ntlm";
    let targets = TargetSet::new(HashAlgo::Ntlm, &[HashAlgo::Ntlm.hash(secret)]);

    // CPU engine.
    let r = eks::cracker::crack_parallel(&s, &targets, s.interval(), ParallelConfig::default());
    assert_eq!(r.hits[0].1.as_bytes(), secret);

    // Cluster runtime (hybrid CPU+GPU node).
    let net = parse_topology("box(660, cpu:2)", 1e-3).unwrap();
    let cr = run_cluster_search(&net, &s, &targets, s.interval(), true);
    assert_eq!(cr.hits[0].1.as_bytes(), secret);

    // The MD4 kernel IR computes the same digest the cracker matched.
    use eks::kernels::md4::{build_md4, Md4Variant};
    use eks::kernels::words_for;
    let built = build_md4(Md4Variant::Naive, &words_for(HashAlgo::Ntlm, secret.len()));
    let mut utf16 = Vec::new();
    for &b in secret {
        utf16.extend_from_slice(&[b, 0]);
    }
    let block = eks::hashes::padding::pad_md5_block(&utf16);
    let params: Vec<u32> = block[..2].to_vec();
    let regs = built.ir.evaluate(&params);
    let got: Vec<u32> = built.outputs.iter().map(|r| regs[r.0 as usize]).collect();
    let want = eks::hashes::md4::md4_compress(eks::hashes::md4::IV, &block);
    assert_eq!(got, want.to_vec());
}

/// A checkpointed sweep finds everything a continuous sweep finds, even
/// when interrupted and resumed from the serialized state.
#[test]
fn checkpointed_sweep_equals_continuous_sweep() {
    let s = KeySpace::new(Charset::lowercase(), 1, 3, Order::FirstCharFastest).unwrap();
    let words: Vec<&[u8]> = vec![b"cab", b"me", b"zzz"];
    let digests: Vec<Vec<u8>> = words.iter().map(|w| HashAlgo::Md5.hash(w)).collect();
    let targets = TargetSet::new(HashAlgo::Md5, &digests);
    let stop = AtomicBool::new(false);

    // Continuous reference.
    let reference = crack_interval(&s, &targets, s.interval(), &stop, false);

    // Interrupted run: process two chunks, "crash", serialize, resume.
    let mut cp = Checkpoint::new(s.interval());
    let mut hits = Vec::new();
    for _ in 0..2 {
        let work = cp.take_work(5_000).expect("work available");
        let out = crack_interval(&s, &targets, work, &stop, false);
        hits.extend(out.hits);
        cp.complete(work);
    }
    let saved = SearchCheckpoint { frontier: cp, slots: Vec::new(), workers: Vec::new() }.to_json();
    let mut cp = SearchCheckpoint::from_json(&saved).unwrap().frontier;
    while let Some(work) = cp.take_work(5_000) {
        let out = crack_interval(&s, &targets, work, &stop, false);
        hits.extend(out.hits);
        cp.complete(work);
    }
    assert!(cp.is_complete());
    hits.sort_by_key(|(id, _, _)| *id);
    assert_eq!(hits, reference.hits);
}

/// Mask and hybrid spaces behave identically under the generic engine and
/// a direct enumeration.
#[test]
fn generic_engine_matches_enumeration_on_mask() {
    let mask = MaskSpace::parse("?l?d?l").unwrap();
    let planted = mask.key_at(1234);
    let targets = TargetSet::new(HashAlgo::Md5, &[HashAlgo::Md5.hash(planted.as_bytes())]);
    let r = crack_space_parallel(
        &mask,
        &targets,
        ParallelConfig { threads: 3, chunk: 100, first_hit_only: false, ..ParallelConfig::default() },
    );
    assert_eq!(r.hits.len(), 1);
    assert_eq!(r.hits[0].0, 1234);
    assert_eq!(r.tested, mask.size());
}

/// Hybrid spaces stay within MAX_KEY_LEN and crack through the engine.
#[test]
fn hybrid_space_end_to_end() {
    let words: Vec<&[u8]> = vec![b"spring", b"autumn"];
    let space = HybridSpace::with_digit_suffixes(&words, 3).unwrap();
    let planted = b"autumn042";
    assert!(space.id_of(&eks::keyspace::Key::from_bytes(planted)).is_some());
    let targets = TargetSet::new(HashAlgo::Sha1, &[HashAlgo::Sha1.hash(planted)]);
    let r = crack_space_parallel(
        &space,
        &targets,
        ParallelConfig { threads: 2, chunk: 64, first_hit_only: true, ..ParallelConfig::default() },
    );
    assert_eq!(r.hits[0].1.as_bytes(), planted);
}

/// The parsed topology drives the same DES as the hand-built paper
/// network.
#[test]
fn parsed_topology_drives_the_same_simulation() {
    use eks::cluster::{paper_network, simulate_search, SimParams};
    let text = parse_topology("A(540M) -> B(660, 550Ti); C(8600M) -> D(8800); A -> C", 2e-3)
        .unwrap();
    let hand = paper_network(2e-3);
    let p = SimParams::default();
    let r1 = simulate_search(&text, eks::kernels::Tool::OurApproach, HashAlgo::Md5, 1e11, p);
    let r2 = simulate_search(&hand, eks::kernels::Tool::OurApproach, HashAlgo::Md5, 1e11, p);
    assert!((r1.achieved_mkeys - r2.achieved_mkeys).abs() < 1e-6);
}

/// The real cracking kernels are occupancy-unconstrained on every
/// architecture (the justification for simulating at max warps).
#[test]
fn real_kernels_run_at_full_occupancy() {
    use eks::gpusim::arch::ComputeCapability;
    use eks::gpusim::codegen::lower;
    use eks::gpusim::occupancy::{latency_hiding_warps, live_registers, resident_warps};
    use eks::kernels::{Tool, ToolKernel};
    for algo in [HashAlgo::Md5, HashAlgo::Sha1, HashAlgo::Ntlm] {
        for cc in ComputeCapability::ALL {
            let tk = ToolKernel::build(Tool::OurApproach, algo, cc);
            let k = lower(&tk.ir, tk.options);
            let regs = live_registers(&k);
            // MD4/MD5 hold the 4-word state plus a few temporaries;
            // SHA-1's rolling 16-word schedule is the heaviest (~26).
            assert!(regs <= 32, "{algo:?}/{cc:?}: {regs} live registers");
            // What actually matters: enough resident warps to hide the
            // pipeline latency (Volkov's bound), on every architecture.
            let warps = resident_warps(&k);
            assert!(
                warps >= latency_hiding_warps(cc),
                "{algo:?}/{cc:?}: {warps} warps < latency-hiding bound {}",
                latency_hiding_warps(cc)
            );
        }
    }
}
