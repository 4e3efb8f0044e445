//! Audit sessions (paper §I: "in some working environments, it is a
//! standard procedure to make periodic cracking tests, called auditing
//! sessions, to assess the reliability of the employees' passwords").
//!
//! [`run_audit`] sweeps one keyspace against a whole table of digests
//! through the same dispatcher and kernels as every other search, and
//! produces the report a security team actually wants: which accounts
//! fell, how quickly, and how much of the space was needed.

use std::time::Instant;

use eks_hashes::HashAlgo;
use eks_keyspace::{Key, KeySpace};

use crate::backend::CpuBackend;
use crate::search::{crack_parallel_backend, ParallelConfig};
use crate::target::TargetSet;

/// One entry of the audited table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditEntry {
    /// Account label ("alice", "uid 1007", ...).
    pub account: String,
    /// The stored digest.
    pub digest: Vec<u8>,
}

/// The outcome for one account.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditFinding {
    /// Account label.
    pub account: String,
    /// Recovered plaintext.
    pub password: Key,
    /// Identifier at which it fell (a proxy for password strength within
    /// this keyspace).
    pub found_at_id: u128,
}

/// Final report of an audit sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// Cracked accounts, in the order they fell.
    pub findings: Vec<AuditFinding>,
    /// Accounts that survived the sweep.
    pub survivors: Vec<String>,
    /// Candidates tested.
    pub tested: u128,
    /// Wall-clock seconds.
    pub elapsed_s: f64,
}

impl AuditReport {
    /// Fraction of accounts cracked.
    fn crack_rate(&self) -> f64 {
        let total = self.findings.len() + self.survivors.len();
        if total == 0 {
            return 0.0;
        }
        self.findings.len() as f64 / total as f64
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        writeln!(
            out,
            "audit: {}/{} accounts cracked ({:.0}%) after {} candidates in {:.2} s",
            self.findings.len(),
            self.findings.len() + self.survivors.len(),
            self.crack_rate() * 100.0,
            self.tested,
            self.elapsed_s
        )
        .expect("write to string");
        for f in &self.findings {
            writeln!(out, "  CRACKED {:<12} -> {:?} (id {})", f.account, f.password.to_string(), f.found_at_id)
                .expect("write to string");
        }
        for s in &self.survivors {
            writeln!(out, "  ok      {s}").expect("write to string");
        }
        out
    }
}

/// Identifiers per round. A digest found in one round leaves the target
/// set before the next, and `tested` counts whole rounds.
const ROUND_KEYS: u128 = 1 << 16;

/// Audit `entries` over `space` until the space is exhausted or every
/// account is cracked: one all-hits dispatcher search per round of
/// `ROUND_KEYS` (2¹⁶) identifiers on every core, against the digests not yet
/// found. A hit cracks every account that stored that digest.
///
/// # Errors
/// Names the account whose digest length does not match `algo`.
pub fn run_audit(
    space: &KeySpace,
    algo: HashAlgo,
    entries: &[AuditEntry],
) -> Result<AuditReport, String> {
    if let Some(e) = entries.iter().find(|e| e.digest.len() != algo.digest_len()) {
        return Err(format!(
            "digest of account {} is {} bytes; {} digests are {} bytes",
            e.account,
            e.digest.len(),
            algo.name(),
            algo.digest_len()
        ));
    }
    let start = Instant::now();
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let config = ParallelConfig { first_hit_only: false, ..ParallelConfig::for_threads(threads) };
    let backend = CpuBackend::default();
    let mut left: Vec<Vec<u8>> = entries.iter().map(|e| e.digest.clone()).collect();
    let mut targets = TargetSet::new(algo, &left);
    let mut rest = space.interval();
    let mut findings: Vec<AuditFinding> = Vec::new();
    let mut tested: u128 = 0;
    while !targets.is_empty() && !rest.is_empty() {
        let round = rest.take_front(ROUND_KEYS);
        let report = crack_parallel_backend(space, &targets, round, &backend, config);
        tested += report.tested;
        if report.hits.is_empty() {
            continue;
        }
        for (id, key, t) in &report.hits {
            let digest = targets.digest(*t);
            for e in entries.iter().filter(|e| e.digest == digest) {
                findings.push(AuditFinding {
                    account: e.account.clone(),
                    password: key.clone(),
                    found_at_id: *id,
                });
            }
        }
        // Retire the cracked digests so the next rounds test fewer.
        left.retain(|d| !report.hits.iter().any(|(_, _, t)| targets.digest(*t) == d.as_slice()));
        targets = TargetSet::new(algo, &left);
    }
    let survivors = entries
        .iter()
        .filter(|e| !findings.iter().any(|f| f.account == e.account))
        .map(|e| e.account.clone())
        .collect();
    Ok(AuditReport { findings, survivors, tested, elapsed_s: start.elapsed().as_secs_f64() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eks_keyspace::{Charset, Order};

    fn entries(pairs: &[(&str, &[u8])]) -> Vec<AuditEntry> {
        pairs
            .iter()
            .map(|(a, pw)| AuditEntry {
                account: a.to_string(),
                digest: HashAlgo::Md5.hash(pw),
            })
            .collect()
    }

    #[test]
    fn audit_stops_early_when_everything_falls() {
        // Several rounds long; both targets fall in the first.
        let s = KeySpace::new(Charset::lowercase(), 1, 4, Order::FirstCharFastest).unwrap();
        assert!(s.size() > ROUND_KEYS);
        let table = entries(&[("a", b"a"), ("b", b"b")]);
        let report = run_audit(&s, HashAlgo::Md5, &table).unwrap();
        assert_eq!(report.survivors.len(), 0);
        assert!(report.tested < s.size(), "tested {} of {}", report.tested, s.size());
        assert_eq!(report.tested, ROUND_KEYS);
    }

    #[test]
    fn wrong_digest_length_names_the_account() {
        let s = KeySpace::new(Charset::lowercase(), 1, 2, Order::FirstCharFastest).unwrap();
        let mut table = entries(&[("alice", b"me")]);
        table.push(AuditEntry { account: "bob".into(), digest: vec![0xaa, 0xbb] });
        let err = run_audit(&s, HashAlgo::Md5, &table).unwrap_err();
        assert!(err.contains("bob") && err.contains("2 bytes"), "{err}");
    }

    #[test]
    fn render_outputs_are_informative() {
        let s = KeySpace::new(Charset::lowercase(), 1, 3, Order::FirstCharFastest).unwrap();
        // "zzzzzz" is outside the 1..=3 space: a survivor.
        let table = entries(&[("alice", b"me"), ("carol", b"zzzzzz")]);
        let report = run_audit(&s, HashAlgo::Md5, &table).unwrap();
        assert!((report.crack_rate() - 0.5).abs() < 1e-12);
        let text = report.render();
        assert!(text.contains("1/2 accounts cracked (50%)"), "{text}");
        assert!(text.contains("CRACKED alice"));
        assert!(text.contains("ok      carol"));
    }
}
