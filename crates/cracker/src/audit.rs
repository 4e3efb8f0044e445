//! Audit sessions (paper §I: "in some working environments, it is a
//! standard procedure to make periodic cracking tests, called auditing
//! sessions, to assess the reliability of the employees' passwords").
//!
//! An [`AuditSession`] sweeps one keyspace against a whole table of
//! digests, checkpointing between chunks so multi-hour audits survive
//! interruption, and produces the report a security team actually wants:
//! which accounts fell, how quickly, and how much of the space was
//! needed.

use std::time::Instant;

use eks_engine::Checkpoint;
use eks_hashes::{to_hex, HashAlgo};
use eks_keyspace::{Key, KeySpace};

use crate::engine::crack_interval;
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
    pub fn crack_rate(&self) -> f64 {
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

/// A resumable audit over one keyspace.
#[derive(Debug, Clone)]
pub struct AuditSession {
    algo: HashAlgo,
    entries: Vec<AuditEntry>,
    checkpoint: Checkpoint,
    /// Chunk size between checkpoint updates.
    chunk: u128,
}

impl AuditSession {
    /// Start an audit of `entries` over `space`.
    ///
    /// # Panics
    /// Panics when a digest's length does not match `algo`.
    pub fn new(algo: HashAlgo, entries: Vec<AuditEntry>, space: &KeySpace) -> Self {
        for e in &entries {
            assert_eq!(e.digest.len(), algo.digest_len(), "digest length for {}", e.account);
        }
        Self {
            algo,
            entries,
            checkpoint: Checkpoint::new(space.interval()),
            chunk: 1 << 16,
        }
    }

    /// Resume from a serialized checkpoint.
    pub fn resume(
        algo: HashAlgo,
        entries: Vec<AuditEntry>,
        checkpoint_text: &str,
    ) -> Result<Self, String> {
        Ok(Self {
            algo,
            entries,
            checkpoint: Checkpoint::deserialize(checkpoint_text)?,
            chunk: 1 << 16,
        })
    }

    /// Set the candidates scanned between checkpoint persists.
    ///
    /// # Panics
    /// Panics when `chunk == 0`.
    pub fn with_chunk(mut self, chunk: u128) -> Self {
        assert!(chunk > 0);
        self.chunk = chunk;
        self
    }

    /// Current checkpoint, serializable between chunks.
    pub fn checkpoint(&self) -> &Checkpoint {
        &self.checkpoint
    }

    /// Run until the space is exhausted or every account is cracked.
    /// `persist` is called with the serialized checkpoint after every
    /// chunk (write it to disk in a real deployment).
    pub fn run<F: FnMut(&str)>(&mut self, space: &KeySpace, mut persist: F) -> AuditReport {
        let start = Instant::now();
        let mut findings: Vec<AuditFinding> = Vec::new();
        let mut tested: u128 = 0;
        let stop = std::sync::atomic::AtomicBool::new(false);
        // Map digest -> accounts (duplicate passwords are common).
        let digests: Vec<Vec<u8>> = self.entries.iter().map(|e| e.digest.clone()).collect();
        let mut remaining_set = TargetSet::new(self.algo, &digests);

        while let Some(work) = self.checkpoint.take_work(self.chunk) {
            if remaining_set.is_empty() {
                break;
            }
            let out = crack_interval(space, &remaining_set, work, &stop, false);
            tested += out.tested;
            if !out.hits.is_empty() {
                // Indices refer to the set used for this scan; resolve all
                // of them before rebuilding it.
                let mut cracked_digests: Vec<Vec<u8>> = Vec::new();
                for (id, key, t) in out.hits {
                    let hit_digest = remaining_set.digest(t).to_vec();
                    for e in self.entries.iter().filter(|e| e.digest == hit_digest) {
                        findings.push(AuditFinding {
                            account: e.account.clone(),
                            password: key.clone(),
                            found_at_id: id,
                        });
                    }
                    cracked_digests.push(hit_digest);
                }
                // Rebuild the set without the cracked digests so the scan
                // cheapens as accounts fall.
                let left: Vec<Vec<u8>> = remaining_set
                    .iter_digests()
                    .filter(|d| !cracked_digests.iter().any(|c| c.as_slice() == *d))
                    .map(|d| d.to_vec())
                    .collect();
                remaining_set = TargetSet::new(self.algo, &left);
            }
            self.checkpoint.complete(work);
            persist(&self.checkpoint.serialize());
        }

        let cracked: Vec<&str> = findings.iter().map(|f| f.account.as_str()).collect();
        let survivors = self
            .entries
            .iter()
            .map(|e| e.account.clone())
            .filter(|a| !cracked.contains(&a.as_str()))
            .collect();
        AuditReport {
            findings,
            survivors,
            tested,
            elapsed_s: start.elapsed().as_secs_f64(),
        }
    }

    /// Accounts in the table.
    pub fn accounts(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|e| e.account.as_str())
    }

    /// Pretty-print an entry table (account, digest hex).
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for e in &self.entries {
            writeln!(out, "{:<16} {}", e.account, to_hex(&e.digest)).expect("write to string");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eks_keyspace::{Charset, Order};

    fn space() -> KeySpace {
        KeySpace::new(Charset::lowercase(), 1, 3, Order::FirstCharFastest).unwrap()
    }

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
    fn audit_cracks_weak_and_spares_strong() {
        let s = space();
        // "zzzzzz" is outside the 1..=3 space: a survivor.
        let table = entries(&[("alice", b"cab"), ("bob", b"zz"), ("carol", b"zzzzzz")]);
        let mut session = AuditSession::new(HashAlgo::Md5, table, &s);
        let report = session.run(&s, |_| {});
        assert_eq!(report.findings.len(), 2);
        assert_eq!(report.survivors, vec!["carol".to_string()]);
        assert!((report.crack_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(report.tested, s.size(), "survivors force a full sweep");
    }

    #[test]
    fn duplicate_passwords_crack_together() {
        let s = space();
        let table = entries(&[("u1", b"dog"), ("u2", b"dog"), ("u3", b"cat")]);
        let mut session = AuditSession::new(HashAlgo::Md5, table, &s);
        let report = session.run(&s, |_| {});
        assert_eq!(report.findings.len(), 3);
        let dogs: Vec<&str> = report
            .findings
            .iter()
            .filter(|f| f.password.as_bytes() == b"dog")
            .map(|f| f.account.as_str())
            .collect();
        assert_eq!(dogs.len(), 2);
    }

    #[test]
    fn audit_stops_early_when_everything_falls() {
        let s = space();
        // Both targets are very early keys.
        let table = entries(&[("a", b"a"), ("b", b"b")]);
        let mut session = AuditSession::new(HashAlgo::Md5, table, &s).with_chunk(512);
        let report = session.run(&s, |_| {});
        assert_eq!(report.survivors.len(), 0);
        assert!(report.tested < s.size(), "tested {} of {}", report.tested, s.size());
    }

    #[test]
    fn checkpoint_resume_finds_the_same_results() {
        let s = space();
        let table = entries(&[("alice", b"cab"), ("bob", b"zzz")]);
        // Full run as the reference.
        let mut full = AuditSession::new(HashAlgo::Md5, table.clone(), &s).with_chunk(2000);
        let reference = full.run(&s, |_| {});
        // Interrupted run: scan one 2000-key chunk manually, persist, drop.
        let mut first = AuditSession::new(HashAlgo::Md5, table.clone(), &s);
        let work = first.checkpoint.take_work(2000).unwrap();
        let stop = std::sync::atomic::AtomicBool::new(false);
        let digests: Vec<Vec<u8>> = table.iter().map(|e| e.digest.clone()).collect();
        let set = TargetSet::new(HashAlgo::Md5, &digests);
        let out = crack_interval(&s, &set, work, &stop, false);
        let mut accounts: Vec<String> = out
            .hits
            .iter()
            .flat_map(|(_, _, t)| {
                let d = set.digest(*t);
                table
                    .iter()
                    .filter(move |e| e.digest == d)
                    .map(|e| e.account.clone())
            })
            .collect();
        first.checkpoint.complete(work);
        let saved = first.checkpoint.serialize();
        // Resume from the save and finish.
        let mut resumed = AuditSession::resume(HashAlgo::Md5, table, &saved)
            .unwrap()
            .with_chunk(2000);
        let rest = resumed.run(&s, |_| {});
        accounts.extend(rest.findings.iter().map(|f| f.account.clone()));
        accounts.sort();
        let mut want: Vec<String> =
            reference.findings.iter().map(|f| f.account.clone()).collect();
        want.sort();
        assert_eq!(accounts, want);
    }

    #[test]
    fn render_outputs_are_informative() {
        let s = space();
        let table = entries(&[("alice", b"me")]);
        let mut session = AuditSession::new(HashAlgo::Md5, table, &s);
        assert!(session.render_table().contains("alice"));
        let report = session.run(&s, |_| {});
        let text = report.render();
        assert!(text.contains("CRACKED"));
        assert!(text.contains("alice"));
    }
}
