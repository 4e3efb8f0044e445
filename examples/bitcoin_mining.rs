//! The paper's second motivating application (Section I): Bitcoin-style
//! mining as exhaustive search — find a nonce whose double-SHA-256 block
//! hash has enough leading zero bits.
//!
//! Run with: `cargo run --release --example bitcoin_mining`

use eks::cracker::{mine, MiningJob};
use eks::hashes::sha256::leading_zero_bits;
use eks::hashes::to_hex;

fn main() {
    let header = b"eks-demo-block:prev=00ab3f...:merkle=7c11e2...:time=1404691200".to_vec();

    // Increasing difficulty, like the network ratcheting up.
    for difficulty in [8u32, 12, 16, 20] {
        let job = MiningJob { header: header.clone(), difficulty_bits: difficulty };
        let start = std::time::Instant::now();
        match mine(&job, 0..1 << 32, 8) {
            Some(result) => {
                let elapsed = start.elapsed().as_secs_f64();
                println!(
                    "difficulty {difficulty:>2} bits: nonce {:>10} after {:>9} tests ({:.3} s, {:.2} Mhash/s)",
                    result.nonce,
                    result.tested,
                    elapsed,
                    result.tested as f64 / elapsed / 1e6
                );
                println!("  block hash: {}", to_hex(&result.digest));
                assert!(leading_zero_bits(&result.digest) >= difficulty);
            }
            None => println!("difficulty {difficulty}: nonce space exhausted (unlucky header)"),
        }
    }
    println!("\nExpected work doubles every bit — the same exhaustive-search pattern,");
    println!("a different test function C (leading zeros instead of digest equality).");
}
