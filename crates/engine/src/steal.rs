//! Adaptive work distribution: per-worker interval deques, steal-half
//! rebalancing, and guided chunk sizing.
//!
//! The paper's scatter step (Section III) hands every worker a contiguous
//! interval sized by its tuned rate (`N_j = N_max · X_j / X_max`), so the
//! common case touches no shared state at all. The tuning step is an
//! estimate, though: when a worker drains its share early — a mis-tuned
//! rate, a heterogeneous neighbour, a first-hit race — it *steals* the
//! back half of the largest remaining remote interval instead of idling
//! until the gather. Three pieces implement that here:
//!
//! * [`IntervalDeques`] — one interval slot per worker. The owner pops
//!   chunks off the front (oldest identifiers first, so per-owner
//!   coverage stays a contiguous prefix); a thief splits the *back* half
//!   off the largest remote slot. Both ends are guarded by one mutex per
//!   slot, held for O(1) arithmetic, never across a scan; at most one
//!   lock is held at a time, so the scheme cannot deadlock.
//! * [`ChunkPolicy`] — how much an owner pops at once. `Fixed` is the
//!   classic shared-queue granularity; `Guided` starts at
//!   `remaining / 8` and shrinks toward the tail, so early chunks
//!   amortize dispatch overhead while late chunks leave work for
//!   thieves and keep the makespan tail short.
//! * [`SchedPolicy`] — the CLI-facing knob (`--sched static|queue|steal`)
//!   naming the three dispatcher modes built from the two pieces above.
//!
//! Exactly-once coverage is structural: the slots start as a partition of
//! the search interval, `pop` and the steal split only ever *move*
//! identifier ranges between disjoint owners, and nothing is ever copied
//! or re-inserted — properties the seeded interleaving tests pin down.

// Indexing/slicing below is over fixed-size state arrays or lengths
// established by construction; the workspace `clippy::indexing_slicing`
// escalation guards new code, not these proven accesses.
#![allow(clippy::indexing_slicing)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use eks_keyspace::Interval;

/// Denominator of the guided self-scheduling rule: each pop takes
/// `remaining / GUIDED_DIVISOR` keys (clamped below by the policy's
/// floor), the classic "start large, shrink toward the tail" schedule.
const GUIDED_DIVISOR: u128 = 8;

/// How an owner sizes the chunk it pops from its own deque.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkPolicy {
    /// Every pop takes the same number of keys (at least one).
    Fixed(u128),
    /// Guided self-scheduling: pop `remaining / 8`, never less than
    /// `min` (and never less than one key).
    Guided {
        /// Smallest chunk the schedule decays to.
        min: u128,
    },
    /// Rate-aware sizing: pop however many keys the worker's live rate
    /// estimate says fit in `target_ms` milliseconds, never less than
    /// `min`. With no rate available (cold estimator, contexts without
    /// a [`crate::rate::RateBook`]) it degrades to the guided rule, so
    /// [`ChunkPolicy::next_len`] stays total.
    Timed {
        /// Wall-clock budget one chunk should take, in milliseconds.
        target_ms: u64,
        /// Smallest chunk the schedule decays to.
        min: u128,
    },
}

impl ChunkPolicy {
    /// Keys the next pop should take from a deque holding `remaining`
    /// keys, without rate information. Positive whenever `remaining`
    /// is, zero when the deque is already empty, and never more than
    /// `remaining` — so a pop can always be satisfied exactly.
    pub fn next_len(&self, remaining: u128) -> u128 {
        if remaining == 0 {
            return 0;
        }
        let n = match *self {
            ChunkPolicy::Fixed(n) => n.max(1),
            ChunkPolicy::Guided { min } | ChunkPolicy::Timed { min, .. } => {
                (remaining / GUIDED_DIVISOR).max(min).max(1)
            }
        };
        n.min(remaining)
    }

    /// Keys the next pop should take given a live rate estimate in keys
    /// per second. [`ChunkPolicy::Timed`] converts the rate into a
    /// time-budgeted size; the other policies ignore the rate. A
    /// non-finite or non-positive rate falls back to [`Self::next_len`].
    fn next_len_rated(&self, remaining: u128, keys_per_sec: f64) -> u128 {
        match *self {
            ChunkPolicy::Timed { target_ms, min } if keys_per_sec.is_finite() && keys_per_sec > 0.0 => {
                if remaining == 0 {
                    return 0;
                }
                let budget = (keys_per_sec * target_ms as f64 / 1e3).floor();
                let n = if budget >= remaining as f64 { remaining } else { budget as u128 };
                n.max(min).max(1).min(remaining)
            }
            _ => self.next_len(remaining),
        }
    }
}

/// The dispatcher's scheduling mode, as named on the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedPolicy {
    /// Pure scatter: every worker scans exactly its pre-assigned
    /// interval; no stealing. Accounting equals the split shares.
    Static,
    /// Fixed-size chunks with stealing — the load-balancing profile of
    /// the old shared-cursor queue, without the shared cursor.
    Queue,
    /// Guided chunks with stealing: the adaptive default.
    Steal,
}

impl SchedPolicy {
    /// Every policy, in CLI vocabulary order.
    pub const ALL: [SchedPolicy; 3] =
        [SchedPolicy::Static, SchedPolicy::Queue, SchedPolicy::Steal];

    /// Parse the CLI spelling.
    pub fn parse(s: &str) -> Option<SchedPolicy> {
        match s {
            "static" => Some(SchedPolicy::Static),
            "queue" => Some(SchedPolicy::Queue),
            "steal" => Some(SchedPolicy::Steal),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(&self) -> &'static str {
        match self {
            SchedPolicy::Static => "static",
            SchedPolicy::Queue => "queue",
            SchedPolicy::Steal => "steal",
        }
    }

    /// Whether idle workers steal under this policy.
    pub fn steals(&self) -> bool {
        !matches!(self, SchedPolicy::Static)
    }

    /// The chunk policy this mode pairs with, given the caller's chunk
    /// knob (the fixed size for [`SchedPolicy::Queue`], the guided floor
    /// otherwise).
    pub fn chunk_policy(&self, chunk: u128) -> ChunkPolicy {
        match self {
            SchedPolicy::Queue => ChunkPolicy::Fixed(chunk),
            _ => ChunkPolicy::Guided { min: chunk },
        }
    }
}

impl std::fmt::Display for SchedPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The steal-half split, as pure interval arithmetic: the victim keeps
/// the front half (it scans lowest identifiers first), the thief takes
/// the back half — never less than one key when the victim is nonempty.
/// Returns `(keep, stolen)` with `keep.end() == stolen.start` and
/// `keep.len + stolen.len == victim.len`.
///
/// This is the one definition of the split both the live
/// [`IntervalDeques::steal_into`] path and the `eks-verify` model
/// checker share, so the verified transition relation cannot drift from
/// the shipped arithmetic.
pub fn steal_split(victim: Interval) -> (Interval, Interval) {
    let keep = victim.len / 2;
    (
        Interval { start: victim.start, len: keep },
        Interval { start: victim.start + keep, len: victim.len - keep },
    )
}

/// Why a scatter could not be performed. The CLI and job layers render
/// these directly, so the messages name the failing weight instead of
/// panicking deep inside the split arithmetic.
#[derive(Debug, Clone, PartialEq)]
pub enum ScatterError {
    /// The weight list was empty: no workers to scatter over.
    NoWorkers,
    /// A weight was NaN, infinite, or negative.
    BadWeight {
        /// Index of the offending weight.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// Every weight was zero: no worker claims any throughput, so a
    /// proportional split is undefined.
    ZeroTotal,
}

impl std::fmt::Display for ScatterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScatterError::NoWorkers => write!(f, "cannot scatter: no worker weights given"),
            ScatterError::BadWeight { index, value } => write!(
                f,
                "cannot scatter: weight #{index} is {value} (weights must be finite and >= 0)"
            ),
            ScatterError::ZeroTotal => {
                write!(f, "cannot scatter: all worker weights are zero (no tuned rates?)")
            }
        }
    }
}

impl std::error::Error for ScatterError {}

/// Validate scatter weights, naming the first offender.
fn check_weights(weights: &[f64]) -> Result<(), ScatterError> {
    if weights.is_empty() {
        return Err(ScatterError::NoWorkers);
    }
    for (index, &value) in weights.iter().enumerate() {
        if !value.is_finite() || value < 0.0 {
            return Err(ScatterError::BadWeight { index, value });
        }
    }
    if weights.iter().sum::<f64>() <= 0.0 {
        return Err(ScatterError::ZeroTotal);
    }
    Ok(())
}

/// The re-scatter arithmetic, as a pure function shared with the
/// `eks-verify` model checker (like [`steal_split`] and
/// [`ChunkPolicy::next_len`], so the verified transition relation
/// cannot drift from the shipped code).
///
/// `remainders[i]` is what slot `i` still holds; `weights[i]` is slot
/// `i`'s live rate (zero for retired or excluded slots). The plan cuts
/// the held ranges into one contiguous piece per slot, sized so each
/// slot's share is proportional to its weight — the closed-loop version
/// of the paper's `N_j = N_max · X_j / X_max` scatter. Because a slot
/// holds a *single* contiguous range, pieces never bridge the gaps
/// between remainders; the plan only ever cuts and reassigns the ranges
/// it was given, so the output tiles exactly the same identifiers as
/// the input (exactly-once is preserved by construction).
///
/// Returns `None` when there is nothing to move: no work, no positive
/// weight, or a plan identical to the current layout.
pub fn rescatter_plan(remainders: &[Interval], weights: &[f64]) -> Option<Vec<Interval>> {
    if remainders.len() != weights.len() || remainders.is_empty() {
        return None;
    }
    let total: u128 = remainders.iter().map(|r| r.len).sum();
    if total == 0 {
        return None;
    }
    let active: Vec<usize> = (0..weights.len())
        .filter(|&i| weights.get(i).copied().unwrap_or(0.0).is_finite() && weights[i] > 0.0)
        .collect();
    if active.is_empty() {
        return None;
    }
    // A zero-weight slot takes no *new* work, but keeps what it holds:
    // only the owner may drain its slot, so moving a passive slot's
    // range is not this function's call. Redistribute only the work the
    // active slots hold.
    let mut plan = vec![Interval::new(0, 0); remainders.len()];
    for i in 0..remainders.len() {
        if !active.contains(&i) {
            plan[i] = remainders[i];
        }
    }
    let movable: u128 = active.iter().map(|&i| remainders[i].len).sum();
    if movable == 0 {
        return None;
    }
    // Target share per active slot: the weighted split of the movable
    // count (using the same residue rules as the scatter step).
    let shares = Interval::new(0, movable).split_weighted(
        &active.iter().map(|&i| weights[i]).collect::<Vec<f64>>(),
    );
    // Largest targets first so the big shares get first pick of the big
    // ranges (LPT); ties broken by slot index for determinism.
    let mut order: Vec<(usize, u128)> =
        active.iter().copied().zip(shares.iter().map(|s| s.len)).collect();
    order.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    // The ranges to hand out: what the active slots currently hold.
    let mut ranges: Vec<Interval> =
        active.iter().map(|&i| remainders[i]).filter(|r| !r.is_empty()).collect();
    let mut slots_left = order.len();
    for (slot, target) in order {
        // Invariant: ranges.len() <= slots_left (slots hold at most one
        // range each, and a cut only splits a range when there is slack).
        ranges.sort_by(|a, b| b.len.cmp(&a.len).then(a.start.cmp(&b.start)));
        let range_count = ranges.len();
        if let Some(biggest) = ranges.first_mut() {
            let take = if range_count >= slots_left {
                // No slack: every remaining slot must absorb a whole
                // range or some range would be orphaned.
                biggest.len
            } else {
                target.min(biggest.len)
            };
            plan[slot] = biggest.take_front(take);
            if biggest.is_empty() {
                ranges.remove(0);
            }
        }
        slots_left -= 1;
    }
    debug_assert!(ranges.is_empty(), "every range must be assigned");
    if plan == remainders {
        return None;
    }
    Some(plan)
}

/// Per-worker scheduler accounting, gathered alongside the tested
/// counts: how often this worker stole, how often it was stolen from,
/// and where its wall-clock went. `idle_ns` is time spent looking for
/// work (successful or not); `busy_ns` is time inside scans. The bench
/// derives measured parallel efficiency from `busy / (busy + idle)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStats {
    /// Display label, registration order.
    pub label: String,
    /// Candidates tested by this worker.
    pub tested: u128,
    /// Successful steals this worker performed.
    pub steals: u64,
    /// Times this worker's deque was split by a thief.
    pub splits: u64,
    /// Nanoseconds spent out of work (steal attempts included).
    pub idle_ns: u64,
    /// Nanoseconds spent scanning.
    pub busy_ns: u64,
}

impl WorkerStats {
    /// Fresh zeroed stats for a labelled worker.
    pub fn new(label: impl Into<String>) -> Self {
        Self { label: label.into(), tested: 0, steals: 0, splits: 0, idle_ns: 0, busy_ns: 0 }
    }

    /// Busy share of accounted wall time, in percent. A run too short
    /// for either clock to tick reports 0 — never NaN.
    pub fn utilization_pct(&self) -> f64 {
        let total = self.busy_ns.saturating_add(self.idle_ns);
        if total == 0 {
            0.0
        } else {
            100.0 * self.busy_ns as f64 / total as f64
        }
    }

    /// Tested keys per busy second. A zero-duration run (a hit in the
    /// first chunk before the clock ticks) reports 0 — never NaN or
    /// infinite.
    pub fn keys_per_sec(&self) -> f64 {
        if self.busy_ns == 0 {
            0.0
        } else {
            self.tested as f64 / (self.busy_ns as f64 / 1e9)
        }
    }
}

/// One interval deque per worker: the scatter step's partition, made
/// stealable. See the module docs for the locking and exactly-once
/// arguments.
#[derive(Debug)]
pub struct IntervalDeques {
    slots: Vec<Mutex<Interval>>,
    splits: Vec<AtomicU64>,
    /// Owner has exited its run loop with the slot drained; a
    /// re-scatter must never assign work here (no one would scan it).
    /// Only flipped while holding the slot's own lock, so a rescatter
    /// holding every lock reads a consistent value.
    retired: Vec<AtomicBool>,
}

impl IntervalDeques {
    /// Deques over pre-split parts (the cluster planners' scatter: parts
    /// were already sized by tuned rates, slot `i` belongs to leaf `i`).
    pub fn assign(parts: Vec<Interval>) -> Self {
        assert!(!parts.is_empty(), "need at least one deque");
        let splits = parts.iter().map(|_| AtomicU64::new(0)).collect();
        let retired = parts.iter().map(|_| AtomicBool::new(false)).collect();
        Self { slots: parts.into_iter().map(Mutex::new).collect(), splits, retired }
    }

    /// Scatter `interval` into one contiguous slot per weight,
    /// proportionally to `weights` (the paper's `N_j = N_max·X_j/X_max`
    /// step; equal weights give an even split).
    ///
    /// # Panics
    /// Panics with a named-weight message when a weight is NaN,
    /// infinite, or negative, or when `weights` is empty. All-zero
    /// weights fall back to an even split (legacy behaviour; use
    /// `IntervalDeques::try_scatter` to surface that case instead).
    pub fn scatter(interval: Interval, weights: &[f64]) -> Self {
        match Self::try_scatter(interval, weights) {
            Ok(d) => d,
            Err(ScatterError::ZeroTotal) => {
                Self::assign(interval.split_even(weights.len()))
            }
            Err(e) => panic!("{e}"),
        }
    }

    /// Scatter `interval` proportionally to `weights`, reporting
    /// degenerate weights ([`ScatterError`]) instead of panicking or
    /// silently splitting evenly.
    fn try_scatter(interval: Interval, weights: &[f64]) -> Result<Self, ScatterError> {
        check_weights(weights)?;
        Ok(Self::assign(interval.split_weighted(weights)))
    }

    /// Number of deques (== workers).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when there are no deques at all (never: `assign` rejects it).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Keys currently left in `slot`'s deque.
    pub fn remaining(&self, slot: usize) -> u128 {
        self.slots[slot].lock().expect("deque slot").len
    }

    /// Times `slot`'s deque has been split by thieves so far.
    pub fn splits(&self, slot: usize) -> u64 {
        self.splits[slot].load(Ordering::Relaxed)
    }

    /// Pop the next chunk off the front of `slot`'s own deque, sized by
    /// `policy`. `None` when the deque is empty (time to steal).
    pub fn pop(&self, slot: usize, policy: ChunkPolicy) -> Option<Interval> {
        let mut own = self.slots[slot].lock().expect("deque slot");
        if own.is_empty() {
            return None;
        }
        let n = policy.next_len(own.len);
        Some(own.take_front(n))
    }

    /// [`IntervalDeques::pop`] with a live rate estimate (keys per
    /// second) for the [`ChunkPolicy::Timed`] sizing rule; other
    /// policies ignore the rate.
    pub fn pop_rated(&self, slot: usize, policy: ChunkPolicy, keys_per_sec: f64) -> Option<Interval> {
        let mut own = self.slots[slot].lock().expect("deque slot");
        if own.is_empty() {
            return None;
        }
        let n = policy.next_len_rated(own.len, keys_per_sec);
        Some(own.take_front(n))
    }

    /// Keys left across every deque (taken one lock at a time — exact
    /// only when quiescent, but "zero" is stable: pops and steals only
    /// remove or move work, so once the total hits zero it stays there).
    pub fn total_remaining(&self) -> u128 {
        self.slots.iter().map(|s| s.lock().expect("deque slot").len).sum()
    }

    /// Mark `slot` retired if (and only if) it is empty: its owner is
    /// exiting and no re-scatter may assign it work again. Returns false
    /// when the slot holds work — a concurrent re-scatter refilled it —
    /// in which case the owner must keep scanning instead of exiting.
    pub fn retire_if_empty(&self, slot: usize) -> bool {
        let own = self.slots[slot].lock().expect("deque slot");
        if !own.is_empty() {
            return false;
        }
        self.retired[slot].store(true, Ordering::Relaxed);
        true
    }

    /// Pick the remote slot with the most work left, skipping `thief`'s
    /// own slot *by index* before any lock is taken (a self-steal would
    /// be a no-op lock round-trip: the thief only steals when its own
    /// deque is already drained).
    ///
    /// ## The benign stale-snapshot race
    ///
    /// Locks are taken one slot at a time, so the lengths observed here
    /// are **not** a consistent snapshot: by the time the thief locks
    /// its chosen victim, an owner may have popped the slot down (or
    /// empty), and some *other* slot may now be larger. That is safe —
    /// and deliberately cheap — for two reasons:
    ///
    /// * **Safety** never depends on the choice: the split in
    ///   [`IntervalDeques::steal_into`] re-checks the victim *under its
    ///   lock* and rescans if it was drained in the meantime, so work is
    ///   only ever moved, never invented or lost.
    /// * **Quality** of the choice only affects load balance: stealing
    ///   from a stale "largest" victim costs at most one extra future
    ///   steal. The `eks-verify` model makes exactly this
    ///   nondeterminism explicit — its `Steal` transition allows *any*
    ///   nonempty remote victim, so every outcome the race can produce
    ///   is inside the verified state space.
    fn largest_remote(&self, thief: usize) -> Option<usize> {
        let mut best: Option<(usize, u128)> = None;
        for (i, slot) in self.slots.iter().enumerate() {
            if i == thief {
                continue;
            }
            let len = slot.lock().expect("deque slot").len;
            if len > 0 && best.is_none_or(|(_, l)| len > l) {
                best = Some((i, len));
            }
        }
        best.map(|(i, _)| i)
    }

    /// The current per-slot intervals, in slot order (empty slots
    /// included, so indices line up with leaves). Taken one lock at a
    /// time: only meaningful as a *checkpoint* when the owning round is
    /// quiescent — between rounds, or after `run_deques` returned —
    /// where it is exact. [`IntervalDeques::assign`] restores it.
    pub fn snapshot(&self) -> Vec<Interval> {
        self.slots.iter().map(|s| *s.lock().expect("deque slot")).collect()
    }

    /// Steal-half: split the back half of the largest remote deque into
    /// `thief`'s (empty) slot. Returns the victim's slot index, or
    /// `None` when every remote deque is empty — the queue is drained
    /// (up to chunks already being scanned) and the thief should exit.
    ///
    /// Only valid in runs without re-scattering (benches, tests, the
    /// model replay): with a live re-scatter the thief's slot may have
    /// been refilled mid-steal, which [`IntervalDeques::try_steal`]
    /// resolves by handing the stolen half back to the caller.
    ///
    /// Victim selection (`largest_remote`) reads slot lengths
    /// without a consistent snapshot; see its docs for why that race is
    /// benign and how the model checker covers it.
    pub fn steal_into(&self, thief: usize) -> Option<usize> {
        match self.try_steal(thief) {
            StealOutcome::Stolen { victim } => Some(victim),
            StealOutcome::Drained => None,
            StealOutcome::Handoff { .. } => {
                unreachable!("steal_into is only used in runs without re-scattering")
            }
        }
    }

    /// Steal-half with the re-scatter conflict resolved: when the
    /// thief's own slot was refilled between its drained pop and the
    /// install (a concurrent [`IntervalDeques::rescatter`] targeting the
    /// then-empty slot), the stolen back half cannot be installed — a
    /// slot holds one contiguous range — so it is handed back to the
    /// caller to scan directly. Either way the range only *moved*
    /// (victim → slot, or victim → in-flight chunk), so exactly-once
    /// coverage is preserved.
    pub fn try_steal(&self, thief: usize) -> StealOutcome {
        loop {
            let Some(victim) = self.largest_remote(thief) else {
                return StealOutcome::Drained;
            };
            let stolen = {
                let mut v = self.slots[victim].lock().expect("deque slot");
                if v.is_empty() {
                    continue; // raced with the owner; look again
                }
                let (keep, stolen) = steal_split(*v);
                *v = keep;
                stolen
            };
            self.splits[victim].fetch_add(1, Ordering::Relaxed);
            let mut own = self.slots[thief].lock().expect("deque slot");
            if own.is_empty() {
                *own = stolen;
                return StealOutcome::Stolen { victim };
            }
            return StealOutcome::Handoff { victim, chunk: stolen };
        }
    }

    /// Rebalance the queued remainders to `weights` (live rates; zero
    /// for slots that must not receive work). Takes every slot lock in
    /// index order — safe against the rest of the protocol, which never
    /// holds more than one slot lock at a time — computes the pure
    /// [`rescatter_plan`], and installs it. Retired slots are forced to
    /// weight zero regardless of the caller's value, so work is never
    /// assigned to a slot whose owner already exited.
    ///
    /// In-flight chunks are untouched: like a steal, a re-scatter only
    /// moves *queued* identifiers between slots, so the exactly-once
    /// argument (ranges move, nothing is copied or re-inserted) is
    /// unchanged. Returns true when the layout changed.
    pub fn rescatter(&self, weights: &[f64]) -> bool {
        assert_eq!(weights.len(), self.slots.len(), "one weight per slot");
        let mut guards: Vec<std::sync::MutexGuard<'_, Interval>> =
            self.slots.iter().map(|s| s.lock().expect("deque slot")).collect();
        let remainders: Vec<Interval> = guards.iter().map(|g| **g).collect();
        let masked: Vec<f64> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| if self.retired[i].load(Ordering::Relaxed) { 0.0 } else { w })
            .collect();
        let Some(plan) = rescatter_plan(&remainders, &masked) else {
            return false;
        };
        for (guard, part) in guards.iter_mut().zip(plan) {
            **guard = part;
        }
        true
    }
}

/// What a [`IntervalDeques::try_steal`] attempt produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StealOutcome {
    /// The back half of `victim`'s deque is now in the thief's slot.
    Stolen {
        /// The slot that was split.
        victim: usize,
    },
    /// The thief's slot was refilled mid-steal (concurrent re-scatter);
    /// the stolen half is handed back for the caller to scan directly.
    Handoff {
        /// The slot that was split.
        victim: usize,
        /// The back half that could not be installed.
        chunk: Interval,
    },
    /// Every remote deque is empty; nothing left to steal.
    Drained,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_partitions_contiguously_and_proportionally() {
        let d = IntervalDeques::scatter(Interval::new(100, 1000), &[3.0, 1.0]);
        assert_eq!(d.len(), 2);
        assert_eq!(d.remaining(0), 750);
        assert_eq!(d.remaining(1), 250);
        // Contiguous: slot 1 starts where slot 0 ends.
        let p0 = d.pop(0, ChunkPolicy::Fixed(750)).unwrap();
        let p1 = d.pop(1, ChunkPolicy::Fixed(250)).unwrap();
        assert_eq!(p0.end(), p1.start);
        assert_eq!(p1.end(), 1100);
    }

    #[test]
    fn guided_chunks_start_large_and_shrink_to_the_floor() {
        let d = IntervalDeques::assign(vec![Interval::new(0, 80_000)]);
        let policy = ChunkPolicy::Guided { min: 1000 };
        let mut sizes = Vec::new();
        while let Some(chunk) = d.pop(0, policy) {
            sizes.push(chunk.len);
        }
        assert_eq!(sizes[0], 10_000, "first pop takes remaining/8");
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]), "monotone shrink {sizes:?}");
        assert!(sizes.iter().all(|&s| s >= 1), "every pop is nonempty");
        assert!(sizes.iter().rev().skip(1).all(|&s| s >= 1000), "floor respected");
        assert_eq!(sizes.iter().sum::<u128>(), 80_000, "pops cover the deque exactly");
    }

    #[test]
    fn fixed_chunks_pop_from_the_front_in_order() {
        let d = IntervalDeques::assign(vec![Interval::new(10, 100)]);
        let a = d.pop(0, ChunkPolicy::Fixed(64)).unwrap();
        let b = d.pop(0, ChunkPolicy::Fixed(64)).unwrap();
        assert_eq!(a, Interval::new(10, 64));
        assert_eq!(b, Interval::new(74, 36), "tail pop is clipped");
        assert!(d.pop(0, ChunkPolicy::Fixed(64)).is_none());
    }

    #[test]
    fn steal_takes_the_back_half_of_the_largest_remote() {
        let d = IntervalDeques::assign(vec![
            Interval::new(0, 10),
            Interval::new(10, 1000),
            Interval::new(1010, 0),
        ]);
        let victim = d.steal_into(2).expect("work to steal");
        assert_eq!(victim, 1, "largest deque is the victim");
        assert_eq!(d.remaining(1), 500, "victim keeps the front half");
        assert_eq!(d.remaining(2), 500, "thief holds the back half");
        let stolen = d.pop(2, ChunkPolicy::Fixed(500)).unwrap();
        assert_eq!(stolen, Interval::new(510, 500));
        assert_eq!(d.splits(1), 1);
        assert_eq!(d.splits(2), 0);
    }

    #[test]
    fn steal_of_a_single_key_takes_the_whole_thing() {
        let d = IntervalDeques::assign(vec![Interval::new(5, 1), Interval::new(6, 0)]);
        assert_eq!(d.steal_into(1), Some(0));
        assert_eq!(d.remaining(0), 0);
        assert_eq!(d.remaining(1), 1);
    }

    #[test]
    fn steal_returns_none_when_everything_is_drained() {
        let d = IntervalDeques::assign(vec![Interval::new(0, 4), Interval::new(4, 0)]);
        while d.pop(0, ChunkPolicy::Fixed(2)).is_some() {}
        assert!(d.steal_into(1).is_none());
        assert_eq!(d.splits(0), 0);
    }

    #[test]
    fn steal_split_is_a_partition_with_a_nonempty_back_half() {
        for len in 1u128..=9 {
            let v = Interval::new(100, len);
            let (keep, stolen) = steal_split(v);
            assert_eq!(keep.start, v.start);
            assert_eq!(keep.end(), stolen.start, "halves are adjacent");
            assert_eq!(keep.len + stolen.len, v.len, "nothing lost or doubled");
            assert!(!stolen.is_empty(), "thief always gets at least one key");
            assert!(keep.len <= stolen.len, "victim keeps the smaller-or-equal front");
        }
    }

    #[test]
    fn sched_policy_round_trips_through_the_cli_vocabulary() {
        for p in SchedPolicy::ALL {
            assert_eq!(SchedPolicy::parse(p.name()), Some(p));
            assert_eq!(format!("{p}"), p.name());
        }
        assert_eq!(SchedPolicy::parse("turbo"), None);
        assert!(!SchedPolicy::Static.steals());
        assert!(SchedPolicy::Queue.steals() && SchedPolicy::Steal.steals());
        assert_eq!(SchedPolicy::Queue.chunk_policy(64), ChunkPolicy::Fixed(64));
        assert_eq!(SchedPolicy::Steal.chunk_policy(64), ChunkPolicy::Guided { min: 64 });
    }

    #[test]
    fn chunk_policies_never_return_zero_for_nonempty_work() {
        assert_eq!(ChunkPolicy::Fixed(0).next_len(5), 1, "degenerate fixed clamps to 1");
        assert_eq!(ChunkPolicy::Guided { min: 0 }.next_len(3), 1);
        assert_eq!(ChunkPolicy::Guided { min: 16 }.next_len(80), 16);
        assert_eq!(ChunkPolicy::Guided { min: 16 }.next_len(8000), 1000);
    }

    #[test]
    fn next_len_edge_cases_are_total() {
        for policy in [
            ChunkPolicy::Fixed(0),
            ChunkPolicy::Fixed(64),
            ChunkPolicy::Guided { min: 0 },
            ChunkPolicy::Guided { min: 16 },
            ChunkPolicy::Timed { target_ms: 50, min: 16 },
        ] {
            assert_eq!(policy.next_len(0), 0, "{policy:?}: an empty deque yields nothing");
            assert_eq!(policy.next_len(1), 1, "{policy:?}: a single key is poppable");
            // Remainders below any plausible worker count stay exact:
            // never zero, never more than what is there.
            for remaining in 1u128..8 {
                let n = policy.next_len(remaining);
                assert!(n >= 1 && n <= remaining, "{policy:?} at {remaining} gave {n}");
            }
        }
        // Fixed chunks larger than the remainder are clipped at sizing
        // time, so a pop can always be satisfied exactly.
        assert_eq!(ChunkPolicy::Fixed(64).next_len(36), 36);
    }

    #[test]
    fn timed_policy_sizes_by_rate_and_falls_back_guided() {
        let p = ChunkPolicy::Timed { target_ms: 100, min: 16 };
        // 1e6 keys/s × 0.1 s = 100_000 keys.
        assert_eq!(p.next_len_rated(1 << 40, 1e6), 100_000);
        // Clamped to the floor and the remainder.
        assert_eq!(p.next_len_rated(1 << 40, 10.0), 16, "slow rate hits the floor");
        assert_eq!(p.next_len_rated(50, 1e9), 50, "never more than remaining");
        assert_eq!(p.next_len_rated(0, 1e6), 0);
        // No usable rate: the guided rule applies.
        assert_eq!(p.next_len_rated(8000, 0.0), 1000);
        assert_eq!(p.next_len_rated(8000, f64::NAN), 1000);
        // Non-timed policies ignore the rate entirely.
        assert_eq!(ChunkPolicy::Fixed(64).next_len_rated(1000, 1e9), 64);
    }

    #[test]
    fn try_scatter_names_the_offending_weight() {
        let iv = Interval::new(0, 100);
        assert_eq!(IntervalDeques::try_scatter(iv, &[]).unwrap_err(), ScatterError::NoWorkers);
        match IntervalDeques::try_scatter(iv, &[1.0, f64::NAN]).unwrap_err() {
            ScatterError::BadWeight { index, value } => {
                assert_eq!(index, 1);
                assert!(value.is_nan());
            }
            other => panic!("expected BadWeight, got {other:?}"),
        }
        assert!(matches!(
            IntervalDeques::try_scatter(iv, &[1.0, -2.0]).unwrap_err(),
            ScatterError::BadWeight { index: 1, .. }
        ));
        assert_eq!(
            IntervalDeques::try_scatter(iv, &[0.0, 0.0]).unwrap_err(),
            ScatterError::ZeroTotal
        );
        let msg = ScatterError::BadWeight { index: 1, value: f64::NAN }.to_string();
        assert!(msg.contains("#1"), "message names the weight: {msg}");
        // The happy path still scatters proportionally.
        let d = IntervalDeques::try_scatter(iv, &[3.0, 1.0]).unwrap();
        assert_eq!(d.remaining(0), 75);
    }

    #[test]
    #[should_panic(expected = "weight #0")]
    fn scatter_panics_with_a_friendly_message_on_nan() {
        IntervalDeques::scatter(Interval::new(0, 10), &[f64::NAN, 1.0]);
    }

    #[test]
    fn scatter_keeps_the_even_fallback_for_all_zero_weights() {
        let d = IntervalDeques::scatter(Interval::new(0, 9), &[0.0, 0.0, 0.0]);
        assert_eq!(d.remaining(0), 3);
        assert_eq!(d.remaining(1), 3);
        assert_eq!(d.remaining(2), 3);
    }

    /// The plan must tile exactly the identifiers the remainders held.
    fn assert_tiles(plan: &[Interval], remainders: &[Interval]) {
        let mut got: Vec<Interval> = plan.iter().copied().filter(|p| !p.is_empty()).collect();
        got.sort_by_key(|p| p.start);
        let mut want: Vec<Interval> =
            remainders.iter().copied().filter(|r| !r.is_empty()).collect();
        want.sort_by_key(|r| r.start);
        // Coalesce both sides (adjacent pieces may have been merged or cut).
        let coalesce = |ivs: Vec<Interval>| {
            let mut out: Vec<Interval> = Vec::new();
            for iv in ivs {
                match out.last_mut() {
                    Some(last) if last.end() == iv.start => last.len += iv.len,
                    _ => out.push(iv),
                }
            }
            out
        };
        assert_eq!(coalesce(got), coalesce(want), "plan must tile the input exactly");
    }

    #[test]
    fn rescatter_plan_rebalances_toward_the_weights() {
        // Slow worker 0 holds everything; fast worker 1 (4x rate) is dry.
        let remainders = [Interval::new(0, 1000), Interval::new(1000, 0)];
        let plan = rescatter_plan(&remainders, &[1.0, 4.0]).expect("imbalance to fix");
        assert_tiles(&plan, &remainders);
        assert_eq!(plan[1].len, 800, "fast worker gets 4/5 of the work");
        assert_eq!(plan[0].len, 200);
    }

    #[test]
    fn rescatter_plan_is_a_noop_when_already_proportional() {
        let remainders = [Interval::new(0, 800), Interval::new(800, 200)];
        assert_eq!(rescatter_plan(&remainders, &[4.0, 1.0]), None);
        assert_eq!(rescatter_plan(&[Interval::new(0, 0)], &[1.0]), None, "no work");
        assert_eq!(rescatter_plan(&[Interval::new(0, 9)], &[0.0]), None, "no active slot");
    }

    #[test]
    fn rescatter_plan_leaves_passive_slots_their_work() {
        // Slot 1 has weight zero but still holds a range: only the
        // active slots' work is redistributed.
        let remainders =
            [Interval::new(0, 600), Interval::new(600, 100), Interval::new(700, 0)];
        let plan = rescatter_plan(&remainders, &[1.0, 0.0, 2.0]).expect("rebalance");
        assert_tiles(&plan, &remainders);
        assert_eq!(plan[1], Interval::new(600, 100), "passive slot keeps its range");
        assert_eq!(plan[0].len + plan[2].len, 600, "active work redistributed");
        assert_eq!(plan[2].len, 400, "2/3 of the movable work");
    }

    #[test]
    fn rescatter_plan_handles_more_ranges_than_weight_suggests() {
        // Target concentrated on the (empty) slot 3, but a slot holds at
        // most one contiguous range: the plan must still absorb every
        // loaded range somewhere instead of orphaning the ones the
        // weighted shares rounded down to zero.
        let remainders = [
            Interval::new(0, 10),
            Interval::new(50, 10),
            Interval::new(90, 10),
            Interval::new(200, 0),
        ];
        let plan = rescatter_plan(&remainders, &[1.0, 1.0, 1.0, 100.0]).expect("rebalance");
        assert_tiles(&plan, &remainders);
        let total: u128 = plan.iter().map(|p| p.len).sum();
        assert_eq!(total, 30, "no range orphaned: {plan:?}");
        assert!(!plan[3].is_empty(), "the heavy slot was fed");

        // The degenerate cousin: equal loaded slots with nowhere to move
        // work is a no-op, not a reshuffle.
        let stuck = [Interval::new(0, 10), Interval::new(50, 10), Interval::new(90, 10)];
        assert_eq!(rescatter_plan(&stuck, &[100.0, 1.0, 1.0]), None);
    }

    #[test]
    fn live_rescatter_respects_retired_slots() {
        let d = IntervalDeques::assign(vec![
            Interval::new(0, 1000),
            Interval::new(1000, 0),
            Interval::new(1000, 0),
        ]);
        assert!(d.retire_if_empty(2), "empty slot retires");
        assert!(!d.retire_if_empty(0), "loaded slot refuses to retire");
        assert!(d.rescatter(&[1.0, 1.0, 1.0]), "rebalance happened");
        assert_eq!(d.remaining(2), 0, "retired slot got nothing");
        assert_eq!(d.remaining(0) + d.remaining(1), 1000, "work conserved");
        assert!(d.remaining(1) > 0, "live empty slot was fed");
        assert_eq!(d.total_remaining(), 1000);
    }

    #[test]
    fn try_steal_hands_off_when_own_slot_was_refilled() {
        let d = IntervalDeques::assign(vec![Interval::new(0, 100), Interval::new(100, 0)]);
        // Simulate the conflict: a re-scatter refills slot 1 after its
        // owner decided to steal (we refill before the steal here — the
        // lock-order outcome is identical).
        assert!(d.rescatter(&[1.0, 1.0]));
        assert!(d.remaining(1) > 0, "slot 1 refilled");
        match d.try_steal(1) {
            StealOutcome::Handoff { victim, chunk } => {
                assert_eq!(victim, 0);
                assert!(!chunk.is_empty());
                assert_eq!(
                    chunk.len + d.remaining(0) + d.remaining(1),
                    100,
                    "handoff moved, never duplicated"
                );
            }
            other => panic!("expected handoff, got {other:?}"),
        }
    }
}
