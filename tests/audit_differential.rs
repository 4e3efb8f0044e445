//! `eks audit`'s search against the scalar oracle: [`run_audit`] runs one
//! all-hits dispatcher search per round and retires found digests between
//! rounds; the oracle runs the same rounds through
//! [`eks::cracker::crack_interval`], one key at a time. Over MD5, NTLM and
//! SHA-1, tables with shared passwords and survivors, and tables that
//! fall entirely in the first round, both must report the same findings
//! (account, key, identifier, in the order they fell), the same survivors
//! and the same `tested`.

use std::sync::atomic::AtomicBool;

use eks::core::prop::{forall, Rng};
use eks::cracker::{crack_interval, run_audit, AuditEntry, TargetSet};
use eks::hashes::HashAlgo;
use eks::keyspace::{Charset, Key, KeySpace, Order};

const ALGOS: [HashAlgo; 3] = [HashAlgo::Md5, HashAlgo::Ntlm, HashAlgo::Sha1];

/// Identifiers per audit round: `tested` counts whole rounds, so the
/// oracle must cut the space where the audit does.
const ROUND: u128 = 1 << 16;

type Finding = (String, Key, u128);

/// The audit as the scalar oracle runs it.
fn oracle(space: &KeySpace, algo: HashAlgo, table: &[AuditEntry]) -> (Vec<Finding>, Vec<String>, u128) {
    let mut left: Vec<Vec<u8>> = table.iter().map(|e| e.digest.clone()).collect();
    let mut rest = space.interval();
    let (mut findings, mut tested): (Vec<Finding>, u128) = (Vec::new(), 0);
    while !left.is_empty() && !rest.is_empty() {
        let targets = TargetSet::new(algo, &left);
        let out = crack_interval(space, &targets, rest.take_front(ROUND), &AtomicBool::new(false), false);
        tested += out.tested;
        for (id, key, t) in out.hits {
            let digest = targets.digest(t);
            for e in table.iter().filter(|e| e.digest == digest) {
                findings.push((e.account.clone(), key.clone(), id));
            }
            left.retain(|d| d != digest);
        }
    }
    let survivors = table
        .iter()
        .filter(|e| !findings.iter().any(|f| f.0 == e.account))
        .map(|e| e.account.clone())
        .collect();
    (findings, survivors, tested)
}

/// A table of `passwords` under shuffled account labels.
fn table(rng: &mut Rng, algo: HashAlgo, passwords: &[Key]) -> Vec<AuditEntry> {
    let mut table: Vec<AuditEntry> = passwords
        .iter()
        .enumerate()
        .map(|(i, pw)| AuditEntry { account: format!("u{i}"), digest: algo.hash(pw.as_bytes()) })
        .collect();
    for i in (1..table.len()).rev() {
        table.swap(i, rng.index(i + 1));
    }
    table
}

/// Keys from identifiers below `bound`, the first one used twice.
fn keys_below(rng: &mut Rng, space: &KeySpace, bound: u128, n: usize) -> Vec<Key> {
    let mut keys: Vec<Key> = (0..n).map(|_| space.key_at(rng.range_u128(0, bound - 1))).collect();
    keys.extend(keys.first().cloned());
    keys
}

#[test]
fn audit_matches_the_scalar_oracle() {
    let hex = Charset::from_bytes(b"0123456789abcdef").unwrap();
    let spaces = [
        // One round and a bit, and one partial round.
        KeySpace::new(hex, 1, 4, Order::FirstCharFastest).unwrap(),
        KeySpace::new(Charset::lowercase(), 1, 3, Order::LastCharFastest).unwrap(),
    ];
    forall("run_audit vs crack_interval rounds", 2, |rng| {
        for (space, algo) in spaces.iter().flat_map(|s| ALGOS.map(|a| (s, a))) {
            // Shared passwords anywhere in the space, plus survivors: an
            // uppercase key is in neither space.
            let n = rng.range(1, 5) as usize;
            let mut spread = keys_below(rng, space, space.size(), n);
            for _ in 0..rng.range(1, 3) {
                spread.push(Key::from_bytes(format!("Q{}", rng.below(1000)).as_bytes()));
            }
            // Everything falls in the first quarter of the first round,
            // so `tested` is one whole round (or the space) and pins the
            // round size.
            let first = keys_below(rng, space, space.size().min(ROUND / 4), n);
            for passwords in [spread, first] {
                let table = table(rng, algo, &passwords);
                let report = run_audit(space, algo, &table).unwrap();
                let got: Vec<Finding> = report
                    .findings
                    .iter()
                    .map(|f| (f.account.clone(), f.password.clone(), f.found_at_id))
                    .collect();
                let want = oracle(space, algo, &table);
                assert_eq!((got, report.survivors, report.tested), want, "{algo:?} over {space:?}");
            }
        }
    });
}
