//! What the strong first-hit contract costs, measured.
//!
//! A first-hit search over *several* digests returns the lowest matching
//! identifier: a hit lowers a floor instead of raising the stop flag, so
//! the shares below it are searched to the end (`eks_engine::dispatch`,
//! "Merge semantics"). A search for *one* digest stops at its hit. This
//! example plants the same key at evenly spread identifiers and times
//! both: the one digest alone, and the same digest plus a dummy nothing
//! hashes to. SHA-1, so that the work per key is the same in both arms
//! (a single MD5 target would take the reversed 49-step kernel, two
//! would not).
//!
//! Run with: `cargo run --release -p eks-bench --example first_hit_cost`

use std::time::Instant;

use eks_cracker::{crack_parallel, ParallelConfig, TargetSet};
use eks_hashes::HashAlgo;
use eks_keyspace::{Charset, KeySpace, Order};

/// Key positions per arm, evenly spread over the space.
const POSITIONS: u128 = 24;

fn main() {
    let threads = std::thread::available_parallelism().map_or(2, usize::from).max(2);
    let space = KeySpace::new(Charset::lowercase(), 1, 5, Order::FirstCharFastest)
        .expect("valid space");
    let algo = HashAlgo::Sha1;
    let dummy = vec![0xa5; algo.digest_len()];
    let config = ParallelConfig::for_threads(threads);
    println!(
        "{} keys, {algo:?}, {threads} threads, sched {}, {POSITIONS} planted positions",
        space.size(),
        config.sched
    );
    println!("{:>12}  {:>12}  {:>12}  {:>7}", "identifier", "stop ms", "floor ms", "ratio");
    let (mut stop_total, mut floor_total) = (0.0, 0.0);
    for i in 0..POSITIONS {
        let id = space.size() * (2 * i + 1) / (2 * POSITIONS);
        let digest = algo.hash(space.key_at(id).as_bytes());
        // One distinct digest: any hit raises the stop flag.
        let one = TargetSet::new(algo, std::slice::from_ref(&digest));
        // The same digest plus a dummy: a hit only lowers the floor.
        let two = TargetSet::new(algo, &[digest, dummy.clone()]);
        // Best of three, in ms.
        let time = |targets: &TargetSet| {
            (0..3)
                .map(|_| {
                    let t0 = Instant::now();
                    let r = crack_parallel(&space, targets, space.interval(), config);
                    assert_eq!(r.hits.first().map(|h| h.0), Some(id), "planted key found");
                    t0.elapsed().as_secs_f64() * 1e3
                })
                .fold(f64::INFINITY, f64::min)
        };
        let (stop_ms, floor_ms) = (time(&one), time(&two));
        stop_total += stop_ms;
        floor_total += floor_ms;
        println!("{id:>12}  {stop_ms:>12.2}  {floor_ms:>12.2}  {:>7.2}", floor_ms / stop_ms);
    }
    println!(
        "mean time-to-solution: stop {:.2} ms, floor {:.2} ms, ratio {:.2}",
        stop_total / POSITIONS as f64,
        floor_total / POSITIONS as f64,
        floor_total / stop_total
    );
}
