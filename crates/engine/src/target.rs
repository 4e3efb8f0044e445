//! The test function `C` ([`CandidateTest`]) and its hash-target
//! instantiation: what a search compares each candidate against.
//!
//! Supports the paper's auditing scenario: one or many digests, optionally
//! *salted* (Section I: salting defeats lookup/rainbow tables but "does
//! not increment the search space since the random part of the string ...
//! is known by definition" — the salt is simply concatenated before
//! hashing).

// Indexing/slicing below is over fixed-size state arrays or lengths
// established by construction; the workspace `clippy::indexing_slicing`
// escalation guards new code, not these proven accesses.
#![allow(clippy::indexing_slicing)]

use eks_hashes::HashAlgo;
use eks_keyspace::Key;

/// A single hash target with optional salt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashTarget {
    algo: HashAlgo,
    digest: Vec<u8>,
    salt_prefix: Vec<u8>,
    salt_suffix: Vec<u8>,
}

impl HashTarget {
    /// An unsalted target.
    ///
    /// # Panics
    /// Panics when the digest length does not match the algorithm.
    pub fn new(algo: HashAlgo, digest: &[u8]) -> Self {
        assert_eq!(digest.len(), algo.digest_len(), "digest length mismatch");
        Self {
            algo,
            digest: digest.to_vec(),
            salt_prefix: Vec::new(),
            salt_suffix: Vec::new(),
        }
    }

    /// A salted target: the stored digest is `hash(prefix ‖ key ‖ suffix)`.
    pub fn salted(algo: HashAlgo, digest: &[u8], prefix: &[u8], suffix: &[u8]) -> Self {
        let mut t = Self::new(algo, digest);
        t.salt_prefix = prefix.to_vec();
        t.salt_suffix = suffix.to_vec();
        t
    }

    /// The algorithm.
    pub fn algo(&self) -> HashAlgo {
        self.algo
    }

    /// The stored digest.
    pub fn digest(&self) -> &[u8] {
        &self.digest
    }

    /// Whether a salt is attached.
    fn is_salted(&self) -> bool {
        !self.salt_prefix.is_empty() || !self.salt_suffix.is_empty()
    }

    /// The test function `C`: does this candidate produce the digest?
    pub fn matches(&self, key: &Key) -> bool {
        if self.is_salted() {
            let mut msg =
                Vec::with_capacity(self.salt_prefix.len() + key.len() + self.salt_suffix.len());
            msg.extend_from_slice(&self.salt_prefix);
            msg.extend_from_slice(key.as_bytes());
            msg.extend_from_slice(&self.salt_suffix);
            self.algo.hash_long(&msg) == self.digest
        } else {
            self.algo.hash(key.as_bytes()) == self.digest
        }
    }
}

/// Several targets of the same algorithm, tested together — the audit
/// scenario where one sweep cracks a whole password table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetSet {
    algo: HashAlgo,
    /// Sorted digests for binary search.
    digests: Vec<Vec<u8>>,
    /// Sorted per-target prefilter words for the lane-batched path: the
    /// first word a batched kernel produces per candidate (MD5/NTLM final
    /// `a` state, SHA-1 `a75`). The common miss is one `u32` compare per
    /// lane — the paper's "anticipate the checks as soon as each part is
    /// computed", generalized to many targets.
    lane_words: Vec<u32>,
}

impl TargetSet {
    /// Build from digests (all must match the algorithm's length).
    ///
    /// # Panics
    /// Panics on a digest of the wrong length.
    pub fn new(algo: HashAlgo, digests: &[Vec<u8>]) -> Self {
        for d in digests {
            assert_eq!(d.len(), algo.digest_len(), "digest length mismatch");
        }
        let mut digests = digests.to_vec();
        digests.sort();
        digests.dedup();
        let mut lane_words: Vec<u32> = digests.iter().map(|d| Self::lane_word(algo, d)).collect();
        lane_words.sort_unstable();
        lane_words.dedup();
        Self {
            algo,
            digests,
            lane_words,
        }
    }

    /// The prefilter word a digest implies: what the batched kernel's
    /// cheapest per-candidate output must equal for this digest to match.
    fn lane_word(algo: HashAlgo, digest: &[u8]) -> u32 {
        match algo {
            // Little-endian serialization: digest bytes 0..4 are the final
            // `a` state word, the first thing md5_lanes/md4_lanes yield.
            // Iterated MD5's final round is a plain MD5 compression, so
            // its digest carries the same lane word.
            HashAlgo::Md5 | HashAlgo::Ntlm | HashAlgo::Md5Iter { .. } => {
                u32::from_le_bytes(digest[0..4].try_into().expect("4 bytes"))
            }
            // SHA-1 cannot compare the digest directly 4 rounds early; the
            // partial search compares `a75 = rotr30(e_target - IV[4])`,
            // which is target-only and thus works across a whole set.
            HashAlgo::Sha1 => {
                let e = u32::from_be_bytes(digest[16..20].try_into().expect("4 bytes"));
                e.wrapping_sub(eks_hashes::sha1::IV[4]).rotate_right(30)
            }
        }
    }

    /// Number of distinct targets.
    pub fn len(&self) -> usize {
        self.digests.len()
    }

    /// True when there are no targets.
    pub fn is_empty(&self) -> bool {
        self.digests.is_empty()
    }

    /// The algorithm.
    pub fn algo(&self) -> HashAlgo {
        self.algo
    }

    /// Test a candidate; returns the index of the matched digest.
    pub fn matches(&self, key: &Key) -> Option<usize> {
        let h = self.algo.hash(key.as_bytes());
        self.digests.binary_search(&h).ok()
    }

    /// Lane prefilter over a whole batch: bit `l` is set when a candidate
    /// whose cheapest kernel output is `row[l]` could match some target.
    /// False rejects are impossible; a rare set bit (≈ `len·2⁻³²` per
    /// candidate) is confirmed by the caller's own test.
    #[inline]
    pub fn prefilter_row<const L: usize>(&self, row: &[u32; L]) -> u64 {
        const { assert!(L <= 64, "one bit per lane") };
        let mut mask = 0;
        if self.lane_words.len() <= 4 {
            // Tiny sets (the usual case): one branch-free compare of the
            // whole row per target word, which the compiler turns into a
            // vector compare and a mask extraction.
            for &t in &self.lane_words {
                for (l, &w) in row.iter().enumerate() {
                    mask |= u64::from(w == t) << l;
                }
            }
        } else {
            // Big audit sets: a binary search per lane, the branch taken
            // only on the rare survivor.
            for (l, w) in row.iter().enumerate() {
                if self.lane_words.binary_search(w).is_ok() {
                    mask |= 1 << l;
                }
            }
        }
        mask
    }

    /// The digest at `index` (as returned by [`TargetSet::matches`]).
    pub fn digest(&self, index: usize) -> &[u8] {
        &self.digests[index]
    }
}

/// The test function `C : S -> {0, 1}` of PAPER.md §III over candidates
/// of type `K`: what a [`crate::Dispatcher`] searches a space for. `C`
/// may be arbitrarily complex: [`TargetSet`] hashes a key and looks the
/// digest up, a mining job counts the leading zero bits of a nonce's
/// double SHA-256.
pub trait CandidateTest<K: ?Sized> {
    /// `Some(evidence)` when `C(candidate) = 1`: the index of the matched
    /// digest for a [`TargetSet`], 0 for a test with one criterion.
    fn test(&self, id: u128, candidate: &K) -> Option<usize>;

    /// True when at most one candidate can pass, so that under first-hit
    /// any hit may end the search at once. The default, "several may
    /// pass", makes a first-hit search return the lowest passing
    /// identifier (the dispatcher's floor rule).
    fn unique(&self) -> bool {
        false
    }

    /// The algorithm whose [`crate::Backend::tuned_rate`] seeds a
    /// retuned round's rate estimates; `None` seeds every leaf equally.
    fn tuned_algo(&self) -> Option<HashAlgo> {
        None
    }
}

impl CandidateTest<Key> for TargetSet {
    #[inline]
    fn test(&self, _id: u128, key: &Key) -> Option<usize> {
        self.matches(key)
    }

    /// One digest: a second match could only be the same key under
    /// another identifier (a repeated dictionary word) or a collision.
    fn unique(&self) -> bool {
        self.len() <= 1
    }

    fn tuned_algo(&self) -> Option<HashAlgo> {
        Some(self.algo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsalted_match() {
        let t = HashTarget::new(HashAlgo::Md5, &HashAlgo::Md5.hash_long(b"abc"));
        assert!(t.matches(&Key::from_bytes(b"abc")));
        assert!(!t.matches(&Key::from_bytes(b"abd")));
        assert!(!t.is_salted());
    }

    #[test]
    fn salted_match() {
        let algo = HashAlgo::Sha1;
        let digest = algo.hash_long(b"PRE-hunter2-POST");
        let t = HashTarget::salted(algo, &digest, b"PRE-", b"-POST");
        assert!(t.is_salted());
        assert!(t.matches(&Key::from_bytes(b"hunter2")));
        assert!(!t.matches(&Key::from_bytes(b"hunter3")));
    }

    #[test]
    fn salting_changes_the_digest() {
        let plain = HashTarget::new(HashAlgo::Md5, &HashAlgo::Md5.hash_long(b"pw"));
        let salted_digest = HashAlgo::Md5.hash_long(b"saltpw");
        assert_ne!(plain.digest(), &salted_digest[..]);
    }

    #[test]
    fn target_set_finds_members() {
        let algo = HashAlgo::Md5;
        let digests: Vec<Vec<u8>> = [&b"one"[..], b"two", b"three"]
            .iter()
            .map(|p| algo.hash_long(p))
            .collect();
        let set = TargetSet::new(algo, &digests);
        assert_eq!(set.len(), 3);
        assert!(set.matches(&Key::from_bytes(b"two")).is_some());
        assert!(set.matches(&Key::from_bytes(b"four")).is_none());
        let idx = set.matches(&Key::from_bytes(b"three")).unwrap();
        assert_eq!(set.digest(idx), &algo.hash_long(b"three")[..]);
    }

    #[test]
    fn target_set_dedups() {
        let algo = HashAlgo::Md5;
        let d = algo.hash_long(b"dup");
        let set = TargetSet::new(algo, &[d.clone(), d]);
        assert_eq!(set.len(), 1);
    }

    /// splitmix64: seeded draws without a dependency on `eks-core`'s
    /// property kit.
    fn draw(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Random rows with `words` planted at lane 0, at lane `L - 1`, at
    /// both plus a random lane, or nowhere: the mask must equal the
    /// per-lane reference bit for bit.
    fn check_rows<const L: usize>(set: &TargetSet, words: &[u32], state: &mut u64) {
        for case in 0..64 {
            let mut row: [u32; L] = core::array::from_fn(|_| draw(state) as u32);
            let lanes = match case % 4 {
                0 => vec![0],
                1 => vec![L - 1],
                2 => vec![0, L - 1, draw(state) as usize % L],
                _ => vec![],
            };
            for l in lanes {
                row[l] = words[draw(state) as usize % words.len()];
            }
            let want = (0..L).filter(|&l| words.contains(&row[l])).fold(0u64, |m, l| m | 1 << l);
            assert_eq!(set.prefilter_row(&row), want, "{} targets, L = {L}, row {row:x?}", set.len());
        }
    }

    #[test]
    fn prefilter_row_equals_the_per_lane_reference() {
        let mut state = 0x5eed;
        for algo in [HashAlgo::Md5, HashAlgo::Ntlm, HashAlgo::Sha1] {
            // Both sides of the linear / binary-search switch at 4 words.
            for n in [1, 4, 5, 1_000] {
                let mut digests: Vec<Vec<u8>> = (0..n)
                    .map(|_| (0..algo.digest_len()).map(|_| draw(&mut state) as u8).collect())
                    .collect();
                // A duplicate digest, and one that differs outside the
                // lane word: neither adds a lane word.
                digests.push(digests[0].clone());
                let mut twin = digests[0].clone();
                twin[8] ^= 1;
                digests.push(twin);
                let set = TargetSet::new(algo, &digests);
                assert_eq!(set.len(), n + 1);
                let words: Vec<u32> = digests.iter().map(|d| TargetSet::lane_word(algo, d)).collect();
                check_rows::<8>(&set, &words, &mut state);
                check_rows::<16>(&set, &words, &mut state);
                check_rows::<32>(&set, &words, &mut state);
            }
        }
    }

    #[test]
    #[should_panic]
    fn wrong_length_digest_rejected() {
        HashTarget::new(HashAlgo::Md5, &[0u8; 20]);
    }
}
