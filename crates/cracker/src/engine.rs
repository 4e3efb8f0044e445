//! The scalar scan: sequential interval scanning with cooperative
//! cancellation, over any space whose candidates are keys.
//!
//! One call = one node's `K_search` (Section III): generate `f(start)`
//! once per poll chunk, walk it with `next`, test every candidate through
//! [`TargetSet::matches`], and poll a stop flag between chunks — the
//! chunk/poll/cancel loop itself is `eks-engine`'s [`PollCursor`].
//!
//! [`crack_interval`] is the one scalar scan of the workspace and the
//! reference every equivalence test compares against: what
//! [`ScalarBackend`](crate::ScalarBackend) runs, and what the lane loop
//! of [`crate::batch`] hands tails shorter than a batch, `Lanes::Scalar`
//! and algorithms with no lockstep formulation (`Md5Iter`).

use std::sync::atomic::AtomicBool;

use eks_engine::PollCursor;
use eks_keyspace::{Interval, Key, SolutionSpace};

use crate::target::TargetSet;

/// Candidates between stop-flag polls (re-exported from the dispatch
/// core, the single source of truth for cancellation latency).
pub use eks_engine::POLL_CHUNK;

/// Result of scanning one interval (the engine layer's [`ScanReport`],
/// under its historical name).
///
/// [`ScanReport`]: eks_engine::ScanReport
pub use eks_engine::ScanReport as CrackOutcome;

/// Scan `interval` (clamped to the space) against a target set, stopping
/// early when `stop` is raised or — if `first_hit_only` — at the first
/// match.
pub fn crack_interval<S>(
    space: &S,
    targets: &TargetSet,
    interval: Interval,
    stop: &AtomicBool,
    first_hit_only: bool,
) -> CrackOutcome
where
    S: SolutionSpace<Solution = Key> + ?Sized,
{
    let whole = Interval::new(0, space.size().unwrap_or(u128::MAX));
    let mut cursor = PollCursor::new(interval.intersect(&whole), stop);
    let mut out = CrackOutcome::empty();
    'outer: while let Some(chunk) = cursor.next_chunk() {
        let mut key = space.generate(chunk.start);
        for id in chunk.start..chunk.end() {
            out.tested += 1;
            if let Some(t) = targets.matches(&key) {
                out.hits.push((id, key.clone(), t));
                if first_hit_only {
                    break 'outer;
                }
            }
            if id + 1 < chunk.end() {
                space.advance(id, &mut key);
            }
        }
    }
    out.cancelled = cursor.cancelled();
    out
}

/// [`crack_interval`] over `[start, start + len)`, the end saturating.
pub fn crack_space_interval<S>(
    space: &S,
    targets: &TargetSet,
    start: u128,
    len: u128,
    stop: &AtomicBool,
    first_hit_only: bool,
) -> CrackOutcome
where
    S: SolutionSpace<Solution = Key> + ?Sized,
{
    let interval = Interval { start, len: len.min(u128::MAX - start) };
    crack_interval(space, targets, interval, stop, first_hit_only)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eks_hashes::HashAlgo;
    use eks_keyspace::{Charset, KeySpace, MaskSpace, Order};

    fn space() -> KeySpace {
        KeySpace::new(Charset::lowercase(), 1, 4, Order::FirstCharFastest).unwrap()
    }

    fn targets(words: &[&[u8]]) -> TargetSet {
        let ds: Vec<Vec<u8>> = words.iter().map(|w| HashAlgo::Md5.hash_long(w)).collect();
        TargetSet::new(HashAlgo::Md5, &ds)
    }

    #[test]
    fn finds_single_target() {
        let s = space();
        let t = targets(&[b"dog"]);
        let stop = AtomicBool::new(false);
        let out = crack_interval(&s, &t, s.interval(), &stop, true);
        assert_eq!(out.hits.len(), 1);
        assert_eq!(out.hits[0].1.as_bytes(), b"dog");
        assert!(!out.cancelled);
        // First-hit scan stops at the hit.
        assert_eq!(out.tested, out.hits[0].0 + 1);
    }

    #[test]
    fn finds_all_targets_when_not_first_hit() {
        let s = space();
        let t = targets(&[b"cat", b"dog", b"pig"]);
        let stop = AtomicBool::new(false);
        let out = crack_interval(&s, &t, s.interval(), &stop, false);
        assert_eq!(out.hits.len(), 3);
        let found: Vec<&[u8]> = out.hits.iter().map(|(_, k, _)| k.as_bytes()).collect();
        // Hits come back in identifier order.
        let mut ids: Vec<u128> = out.hits.iter().map(|(id, _, _)| *id).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
        ids.dedup();
        assert_eq!(ids.len(), 3);
        for w in [&b"cat"[..], b"dog", b"pig"] {
            assert!(found.contains(&w), "{w:?}");
        }
        assert_eq!(out.tested, s.size());
    }

    #[test]
    fn pre_raised_stop_tests_nothing() {
        let s = space();
        let t = targets(&[b"dog"]);
        let stop = AtomicBool::new(true);
        let out = crack_interval(&s, &t, s.interval(), &stop, true);
        assert!(out.cancelled);
        assert_eq!(out.tested, 0);
        assert!(out.hits.is_empty());
    }

    #[test]
    fn interval_is_clamped_to_space() {
        let s = space();
        let t = targets(&[b"zzzz"]);
        let stop = AtomicBool::new(false);
        let out = crack_interval(&s, &t, Interval::new(0, u64::MAX as u128), &stop, false);
        assert_eq!(out.tested, s.size());
        assert_eq!(out.hits.len(), 1);
    }

    #[test]
    fn empty_interval() {
        let s = space();
        let t = targets(&[b"dog"]);
        let stop = AtomicBool::new(false);
        let out = crack_interval(&s, &t, Interval::new(5, 0), &stop, true);
        assert_eq!(out.tested, 0);
        assert!(out.hits.is_empty());
        assert!(!out.cancelled);
    }

    #[test]
    fn hit_exactly_at_interval_boundaries() {
        let s = space();
        let t = targets(&[b"dog"]);
        let id = s.id_of(&eks_keyspace::Key::from_bytes(b"dog")).unwrap();
        let stop = AtomicBool::new(false);
        // Interval starting exactly at the hit.
        let out = crack_interval(&s, &t, Interval::new(id, 1), &stop, true);
        assert_eq!(out.hits.len(), 1);
        // Interval ending just before the hit.
        let out = crack_interval(&s, &t, Interval::new(0, id), &stop, true);
        assert!(out.hits.is_empty());
    }

    #[test]
    fn any_key_producing_space_scans_through_the_same_body() {
        let mask = MaskSpace::parse("?d?d").unwrap();
        let t = targets(&[b"57"]);
        let stop = AtomicBool::new(false);
        let hit = crack_space_interval(&mask, &t, 70, 10, &stop, true);
        assert_eq!(hit.hits.len(), 1, "57 is id 75 in a ?d?d mask (first position fastest)");
        assert_eq!(hit.tested, 6, "first-hit stops at the match");
        let miss = crack_space_interval(&mask, &t, 0, 75, &stop, true);
        assert!(miss.hits.is_empty());
        let all = crack_space_interval(&mask, &t, 90, u128::MAX, &stop, false);
        assert_eq!(all.tested, 10, "clamped to the space, no overflow");
    }
}
