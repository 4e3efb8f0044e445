//! End-to-end integration: the full pipeline from digest to recovered
//! password, exercised through every engine the workspace provides —
//! the scalar oracle, the parallel CPU cracker and the hierarchical
//! cluster runtime — which must all agree.

// Indexing/slicing below is over fixed-size state arrays or lengths
// established by construction; the workspace `clippy::indexing_slicing`
// escalation guards new code, not these proven accesses.
#![allow(clippy::indexing_slicing)]

use eks::cluster::{paper_network, run_cluster_search};
use eks::cracker::{crack_interval, crack_parallel, ParallelConfig, TargetSet};
use eks::hashes::HashAlgo;
use eks::keyspace::{Charset, Interval, Key, KeySpace, Order};
use std::sync::atomic::AtomicBool;

fn space() -> KeySpace {
    KeySpace::new(Charset::lowercase(), 1, 4, Order::FirstCharFastest).unwrap()
}

/// Every engine must crack the same secret and report the same identifier.
#[test]
fn all_engines_agree_on_the_same_hit() {
    let s = space();
    let secret = Key::from_bytes(b"kgb");
    let id = s.id_of(&secret).unwrap();
    let digest = HashAlgo::Md5.hash(secret.as_bytes());

    // 1. The scalar oracle: one key at a time, `f` once, `next` after.
    let targets = TargetSet::new(HashAlgo::Md5, std::slice::from_ref(&digest));
    let out = crack_interval(&s, &targets, s.interval(), &AtomicBool::new(false), true);
    assert_eq!(out.hits, vec![(id, secret.clone(), 0)], "scalar oracle");

    // 2. Parallel CPU cracker (the reversed-MD5 fast path).
    let r = crack_parallel(&s, &targets, s.interval(), ParallelConfig::default());
    assert_eq!(r.hits[0].0, id, "parallel cracker");
    assert_eq!(r.hits[0].1, secret);

    // 3. Hierarchical cluster runtime over the paper's network.
    let net = paper_network(1e-3);
    let cr = run_cluster_search(&net, &s, &targets, s.interval(), true);
    assert_eq!(cr.hits[0].0, id, "cluster runtime");
    assert_eq!(cr.hits[0].1, secret);
}

/// Cracking SHA-1 targets works through the same pipeline.
#[test]
fn sha1_end_to_end() {
    let s = space();
    let secret = Key::from_bytes(b"sha");
    let digest = HashAlgo::Sha1.hash(secret.as_bytes());
    let targets = TargetSet::new(HashAlgo::Sha1, std::slice::from_ref(&digest));
    let r = crack_parallel(&s, &targets, s.interval(), ParallelConfig::default());
    assert_eq!(r.hits[0].1, secret);
    let out = crack_interval(&s, &targets, s.interval(), &AtomicBool::new(false), true);
    let id = s.id_of(&secret).unwrap();
    assert_eq!(out.hits, vec![(id, secret, 0)], "scalar oracle");
}

/// A multi-target audit through the cluster runtime: every planted key is
/// recovered, none twice, and the whole space is covered exactly once.
#[test]
fn cluster_audit_covers_space_exactly_once() {
    let s = space();
    let words: Vec<&[u8]> = vec![b"a", b"me", b"cat", b"zzzz"];
    let digests: Vec<Vec<u8>> = words.iter().map(|w| HashAlgo::Md5.hash(w)).collect();
    let targets = TargetSet::new(HashAlgo::Md5, &digests);
    let net = paper_network(1e-3);
    let r = run_cluster_search(&net, &s, &targets, s.interval(), false);
    assert_eq!(r.tested, s.size(), "each key tested exactly once");
    let mut found: Vec<&[u8]> = r.hits.iter().map(|(_, k, _)| k.as_bytes()).collect();
    found.sort();
    let mut expect = words.clone();
    expect.sort();
    assert_eq!(found, expect);
}

/// The search respects interval boundaries: a secret outside the
/// dispatched interval is not found, one inside is.
#[test]
fn interval_boundaries_respected_across_engines() {
    let s = space();
    let secret = Key::from_bytes(b"pz");
    let id = s.id_of(&secret).unwrap();
    let digest = HashAlgo::Md5.hash(secret.as_bytes());
    let targets = TargetSet::new(HashAlgo::Md5, &[digest]);

    let before = Interval::new(0, id);
    let containing = Interval::new(id, 1);

    let r1 = crack_parallel(&s, &targets, before, ParallelConfig::default());
    assert!(r1.hits.is_empty());
    let r2 = crack_parallel(&s, &targets, containing, ParallelConfig::default());
    assert_eq!(r2.hits.len(), 1);

    let net = paper_network(1e-3);
    let c1 = run_cluster_search(&net, &s, &targets, before, true);
    assert!(c1.hits.is_empty());
    let c2 = run_cluster_search(&net, &s, &targets, containing, true);
    assert_eq!(c2.hits.len(), 1);
}

/// Salting does not change the search-space mechanics (Section I): the
/// salted digest is different, but the same enumeration cracks it.
#[test]
fn salted_target_cracks_with_same_enumeration() {
    use eks::cracker::HashTarget;
    let s = space();
    let salt = b"NaCl-";
    let secret = b"dog";
    let mut msg = salt.to_vec();
    msg.extend_from_slice(secret);
    let salted_digest = HashAlgo::Md5.hash_long(&msg);
    let plain_digest = HashAlgo::Md5.hash(secret);
    assert_ne!(salted_digest, plain_digest, "salting changes the digest");

    let target = HashTarget::salted(HashAlgo::Md5, &salted_digest, salt, b"");
    let mut found = None;
    s.iter(s.interval()).for_each_key(|_, k| {
        if target.matches(k) {
            found = Some(k.clone());
            false
        } else {
            true
        }
    });
    assert_eq!(found.unwrap().as_bytes(), secret);
}
