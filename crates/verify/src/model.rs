//! An explicit-state model of the work-stealing scheduler protocol.
//!
//! The live scheduler (`eks_engine::steal::IntervalDeques` driven by
//! `Dispatcher::run_deques`) is a handful of per-worker loops over
//! shared state: pop a chunk off your own deque, scan it one poll
//! quantum at a time, steal the back half of a remote deque when
//! drained, exit when the stop flag is up or everything is empty, merge
//! at the end. Under first-hit a single-hit configuration (one digest)
//! raises the stop flag at its hit; a multi-hit one lowers a shared
//! `floor` (the lowest hit so far) instead, a popped chunk that starts
//! above the floor is dropped unscanned, and the run ends when the deques
//! drain — so the merged hit is the lowest *planted* identifier, not
//! merely the lowest reported. This module restates those transitions
//! over a cloneable, hashable [`ModelState`] so the checker in
//! [`crate::checker`] can enumerate *every* interleaving instead of
//! sampling a few.
//!
//! ## Fidelity
//!
//! The model does not re-implement the arithmetic it verifies — it calls
//! the same [`ChunkPolicy::next_len`], [`Interval::take_front`] and
//! [`steal_split`] the live deques use, so the verified transition
//! relation cannot drift from the shipped code. The scan loop is split
//! into two atomic actions ([`Action::ScanBegin`] / [`Action::ScanEnd`])
//! so a stop flag raised *between* them reproduces the real
//! one-quantum-per-worker cancellation overshoot, and the
//! [`Action::Steal`] transition permits *any* nonempty remote victim —
//! the stale-snapshot nondeterminism `IntervalDeques::largest_remote`
//! documents is therefore inside the verified state space, not abstracted
//! away.
//!
//! ## Mutations
//!
//! [`Mutation`] seeds deliberate protocol bugs (lost lease, double
//! count, highest-id merge, ignored cancel poll, stop at any hit) used by
//! the negative-path tests: a checker that does not flag every mutant is
//! vacuous.

use std::fmt;

use eks_engine::{rescatter_plan, steal_split, ChunkPolicy};
use eks_keyspace::Interval;

/// A deliberately broken transition relation, for negative-path tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// A steal removes the back half from the victim but never hands it
    /// to the thief: the lease is lost mid-flight.
    DropStolenLease,
    /// A steal hands the back half to the thief while the victim keeps
    /// its full interval: the range is now leased twice.
    DoubleCountSteal,
    /// The merge keeps the *highest*-identifier hit under first-hit
    /// instead of the lowest.
    MergeHighestFirst,
    /// The scan loop never polls the stop flag between quanta, so a
    /// cancelled worker drains its whole popped chunk.
    IgnoreCancelPoll,
    /// A first-hit search over several hits raises the stop flag at the
    /// first one reported, as if there were only one: a higher hit
    /// cancels the worker still below it.
    StopAtAnyHit,
}

/// One scheduler configuration to check: the scatter shape, the chunk
/// and poll arithmetic, the planted hits and the optional seeded bug.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Number of workers (deque slots).
    pub workers: usize,
    /// Keyspace size; identifiers are `0..keys`.
    pub keys: u128,
    /// How owners size their pops — the live [`ChunkPolicy`].
    pub chunk: ChunkPolicy,
    /// Whether drained workers steal (false models `SchedPolicy::Static`).
    pub steal: bool,
    /// First-hit mode: with a single planted hit a reported hit raises
    /// the stop flag; with several it lowers the floor.
    pub first_hit: bool,
    /// Identifiers that test positive (the planted keys).
    pub hits: Vec<u128>,
    /// Keys per poll quantum: the model's `poll_quantum`, scaled down so
    /// bounded exploration stays tractable.
    pub quantum: u128,
    /// Canonical live-weight vectors the retune controller may re-scatter
    /// with ([`Action::Rescatter`] indexes into this list). Empty
    /// disables the transition; each vector must have one weight per
    /// worker. The checker explores a re-scatter at *every* point where
    /// the live controller could fire one, so "arbitrary re-scatter
    /// timing" is inside the verified state space.
    pub rescatter: Vec<Vec<f64>>,
    /// Seeded protocol bug, if any.
    pub mutation: Option<Mutation>,
}

impl ModelConfig {
    /// An exhaustive-mode stealing config with two planted hits.
    pub fn exhaustive(workers: usize, keys: u128) -> Self {
        let hits = if keys >= 2 { vec![1, keys - 1] } else { vec![0] };
        ModelConfig {
            workers,
            keys,
            chunk: ChunkPolicy::Fixed(1),
            steal: true,
            first_hit: false,
            hits,
            quantum: 1,
            rescatter: Vec::new(),
            mutation: None,
        }
    }

    /// An exhaustive-mode stealing config whose keyspace is popped as
    /// `intervals` two-key work intervals — the shape the acceptance
    /// bar fixes ("2 workers / 8 intervals"), with enough interleaving
    /// surface that the checker demonstrably explores a nontrivial
    /// state space.
    pub fn steal_intervals(workers: usize, intervals: u128) -> Self {
        ModelConfig {
            chunk: ChunkPolicy::Fixed(2),
            ..Self::exhaustive(workers, intervals * 2)
        }
    }

    /// A first-hit stealing config with hits planted at both ends, so
    /// different interleavings race to report different keys and the
    /// floor rule and the lowest-id merge actually have work to do; in
    /// two-key chunks, so a chunk can be in flight when the floor drops.
    pub fn first_hit(workers: usize, keys: u128) -> Self {
        ModelConfig {
            first_hit: true,
            chunk: ChunkPolicy::Fixed(2),
            ..Self::exhaustive(workers, keys)
        }
    }

    /// True when a hit lowers the floor instead of raising the stop flag:
    /// first-hit with several planted hits (the live `targets.len() > 1`).
    fn floor_rule(&self) -> bool {
        self.first_hit && self.hits.len() > 1 && self.mutation != Some(Mutation::StopAtAnyHit)
    }

    /// The cancellation-bound prober: one big pop per worker (the chunk
    /// spans the whole share) scanned one key per quantum, with a hit at
    /// identifier 0 — the worst case for post-cancel overshoot.
    pub fn cancel_bound(workers: usize, keys: u128) -> Self {
        ModelConfig {
            workers,
            keys,
            chunk: ChunkPolicy::Fixed(keys.max(1)),
            steal: true,
            first_hit: true,
            hits: vec![0],
            quantum: 1,
            rescatter: Vec::new(),
            mutation: None,
        }
    }

    /// Attach a seeded bug.
    pub fn with_mutation(mut self, mutation: Mutation) -> Self {
        self.mutation = Some(mutation);
        self
    }

    /// Enable the re-scatter transition with these canonical live-weight
    /// vectors (one weight per worker in each).
    pub fn with_rescatter(mut self, weights: Vec<Vec<f64>>) -> Self {
        self.rescatter = weights;
        self
    }
}

/// One atomic step of the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Action {
    /// `worker` pops the next chunk off the front of its own deque.
    Pop {
        /// The popping worker.
        worker: usize,
    },
    /// `worker` starts the next poll quantum of its popped chunk —
    /// checking the stop flag first, exactly like `PollCursor`.
    ScanBegin {
        /// The scanning worker.
        worker: usize,
    },
    /// `worker` finishes the quantum: keys are counted and covered,
    /// hits reported, and (first-hit mode) the stop flag raised or the
    /// floor lowered.
    ScanEnd {
        /// The scanning worker.
        worker: usize,
    },
    /// Drained `worker` steals the back half of `victim`'s deque.
    Steal {
        /// The thief.
        worker: usize,
        /// The victim slot (any nonempty remote slot — the model keeps
        /// the live victim-selection race nondeterministic).
        victim: usize,
    },
    /// `worker` leaves the run loop (stop flag up, or nothing left).
    Exit {
        /// The exiting worker.
        worker: usize,
    },
    /// The retune controller re-scatters every deque remainder using
    /// the live-weight vector `ModelConfig::rescatter[plan]` — the same
    /// [`rescatter_plan`] arithmetic `IntervalDeques::rescatter` runs,
    /// with exited workers masked to weight zero the way retired slots
    /// are live.
    Rescatter {
        /// Index into [`ModelConfig::rescatter`].
        plan: usize,
    },
    /// The gather/merge step, once every worker has exited.
    Merge,
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Action::Pop { worker } => write!(f, "pop(w{worker})"),
            Action::ScanBegin { worker } => write!(f, "scan-begin(w{worker})"),
            Action::ScanEnd { worker } => write!(f, "scan-end(w{worker})"),
            Action::Steal { worker, victim } => write!(f, "steal(w{worker}<-w{victim})"),
            Action::Exit { worker } => write!(f, "exit(w{worker})"),
            Action::Rescatter { plan } => write!(f, "rescatter(#{plan})"),
            Action::Merge => write!(f, "merge"),
        }
    }
}

/// The property a violation is charged against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Property {
    /// Some identifier was scanned (or leased) more than once.
    ExactlyOnce,
    /// Some identifier fell out of every lease: the union of deques,
    /// in-flight chunks, scanned and abandoned coverage no longer tiles
    /// the keyspace.
    NoLostLease,
    /// The merge broke its contract: not the lowest planted identifier
    /// under first-hit, or exhaustive outcomes differ across
    /// interleavings.
    MergeDeterminism,
    /// Post-cancel work exceeded `K + workers x quantum`.
    CancellationBound,
}

impl Property {
    /// Stable kebab-case identifier.
    pub fn name(self) -> &'static str {
        match self {
            Property::ExactlyOnce => "exactly-once",
            Property::NoLostLease => "no-lost-lease",
            Property::MergeDeterminism => "merge-determinism",
            Property::CancellationBound => "cancellation-bound",
        }
    }
}

impl fmt::Display for Property {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A property violation, raised while applying an action or checking a
/// freshly generated state.
pub type Fault = (Property, String);

/// The empty interval, normalized so hashing/equality cannot tell two
/// drained slots apart by their stale start offsets.
const EMPTY: Interval = Interval { start: 0, len: 0 };

fn norm(iv: Interval) -> Interval {
    if iv.len == 0 {
        EMPTY
    } else {
        iv
    }
}

/// A complete snapshot of the protocol: cloneable, hashable, and small
/// enough that millions fit in a visited set.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelState {
    /// Per-worker deque slots (the stealable leases).
    slots: Vec<Interval>,
    /// Per-worker popped-but-unscanned chunk remainders.
    in_flight: Vec<Interval>,
    /// Per-worker quantum currently being scanned.
    scanning: Vec<Interval>,
    /// Which workers have left their run loop.
    done: Vec<bool>,
    /// The shared stop flag.
    stop: bool,
    /// Lowest hit reported so far, under the floor rule only.
    floor: Option<u128>,
    /// Per-worker: the chunk in flight passed the floor check `scan_as`
    /// makes once, before the scan (later quanta poll only `stop`). Only
    /// ever set under the floor rule, with a chunk remainder in flight.
    admitted: Vec<bool>,
    /// Per-worker tested-key counters (the live `WorkerStats.keys`
    /// accounting: part of the observable protocol state because the
    /// dispatch report and utilization figures are computed from it).
    tested: Vec<u128>,
    /// Total keys counted (scanned) so far.
    counted: u128,
    /// `counted` at the moment the stop flag was first raised.
    stop_at: Option<u128>,
    /// Hit identifiers reported so far, sorted.
    reported: Vec<u128>,
    /// Scanned coverage: disjoint, sorted, coalesced intervals.
    scanned: Vec<Interval>,
    /// Coverage abandoned by cancellation: disjoint, sorted, coalesced.
    abandoned: Vec<Interval>,
    /// The merge result, once [`Action::Merge`] ran.
    merged: Option<Vec<u128>>,
}

impl ModelState {
    fn get(v: &[Interval], w: usize) -> Interval {
        *v.get(w).expect("worker index in range")
    }

    fn get_mut(v: &mut [Interval], w: usize) -> &mut Interval {
        v.get_mut(w).expect("worker index in range")
    }

    /// The merge result, if the protocol has reached it.
    pub fn merged(&self) -> Option<&[u128]> {
        self.merged.as_deref()
    }

    /// Total keys counted (scanned) so far.
    pub fn counted(&self) -> u128 {
        self.counted
    }

    /// `worker`'s deque slot.
    pub fn slot(&self, worker: usize) -> Interval {
        Self::get(&self.slots, worker)
    }

    /// Insert `iv` into a normalized coverage list, keeping it sorted
    /// and coalesced. Returns the identifier of the first overlapping
    /// key when `iv` intersects existing coverage.
    fn insert_coverage(list: &mut Vec<Interval>, iv: Interval) -> Result<(), u128> {
        if iv.is_empty() {
            return Ok(());
        }
        let pos = list.partition_point(|c| c.start < iv.start);
        if let Some(prev) = pos.checked_sub(1).and_then(|p| list.get(p)) {
            if prev.end() > iv.start {
                return Err(iv.start);
            }
        }
        if let Some(next) = list.get(pos) {
            if iv.end() > next.start {
                return Err(next.start);
            }
        }
        list.insert(pos, iv);
        // Coalesce around the insertion point so equal coverage always
        // has equal representation (state dedup depends on it).
        let mut i = pos.saturating_sub(1);
        while i + 1 < list.len() {
            let (a, b) = (
                *list.get(i).expect("coalesce index"),
                *list.get(i + 1).expect("coalesce index"),
            );
            if a.end() == b.start {
                *list.get_mut(i).expect("coalesce index") =
                    Interval { start: a.start, len: a.len + b.len };
                list.remove(i + 1);
            } else {
                i += 1;
            }
        }
        Ok(())
    }

    /// One-line rendering for counterexample traces.
    pub fn summary(&self) -> String {
        fn ivs(list: &[Interval]) -> String {
            let parts: Vec<String> = list
                .iter()
                .map(|iv| {
                    if iv.is_empty() {
                        "-".to_string()
                    } else {
                        format!("{}+{}", iv.start, iv.len)
                    }
                })
                .collect();
            parts.join("|")
        }
        let done: String =
            self.done.iter().map(|d| if *d { 'x' } else { '.' }).collect();
        let stop = match (self.stop, self.stop_at, self.floor) {
            (true, Some(k), _) => format!(" stop@{k}"),
            (true, None, _) => " stop".to_string(),
            (false, _, Some(f)) => format!(" floor={f}"),
            _ => String::new(),
        };
        let merged = match &self.merged {
            Some(m) => format!(" merged={m:?}"),
            None => String::new(),
        };
        let tested: Vec<String> = self.tested.iter().map(|t| t.to_string()).collect();
        format!(
            "deques=[{}] popped=[{}] scanning=[{}] done=[{done}] tested=[{}] counted={}{stop} hits={:?}{merged}",
            ivs(&self.slots),
            ivs(&self.in_flight),
            ivs(&self.scanning),
            tested.join("|"),
            self.counted,
            self.reported,
        )
    }
}

/// The transition relation for one [`ModelConfig`].
#[derive(Debug, Clone)]
pub struct Model {
    cfg: ModelConfig,
}

impl Model {
    /// A model over `cfg`.
    ///
    /// # Panics
    /// Panics when the config has no workers or an empty keyspace —
    /// there is no protocol to check.
    pub fn new(cfg: ModelConfig) -> Self {
        assert!(cfg.workers >= 1, "need at least one worker");
        assert!(cfg.keys >= 1, "need a nonempty keyspace");
        assert!(cfg.hits.iter().all(|h| *h < cfg.keys), "hits must be inside the keyspace");
        Model { cfg }
    }

    /// The checked configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// The initial state: the even scatter the dispatcher performs
    /// (`IntervalDeques::scatter` with equal weights reduces to
    /// `split_even`).
    pub fn initial(&self) -> ModelState {
        let slots: Vec<Interval> = Interval::new(0, self.cfg.keys)
            .split_even(self.cfg.workers)
            .into_iter()
            .map(norm)
            .collect();
        ModelState {
            slots,
            in_flight: vec![EMPTY; self.cfg.workers],
            scanning: vec![EMPTY; self.cfg.workers],
            done: vec![false; self.cfg.workers],
            stop: false,
            floor: None,
            admitted: vec![false; self.cfg.workers],
            tested: vec![0; self.cfg.workers],
            counted: 0,
            stop_at: None,
            reported: Vec::new(),
            scanned: Vec::new(),
            abandoned: Vec::new(),
            merged: None,
        }
    }

    /// Every action enabled in `s`. Per-worker control flow is
    /// deterministic (it mirrors `Dispatcher::drive_leaf` exactly);
    /// nondeterminism comes from worker interleaving and victim choice.
    pub fn enabled(&self, s: &ModelState) -> Vec<Action> {
        if s.merged.is_some() {
            return Vec::new();
        }
        if s.done.iter().all(|d| *d) {
            return vec![Action::Merge];
        }
        let mut out = Vec::new();
        // The retune controller may fire between any two worker steps —
        // but only while the stop flag is down (drive_chunk checks it
        // before electing a re-scatter) and only when the plan actually
        // moves work (a proportional fleet yields no transition).
        if !s.stop {
            for plan in 0..self.cfg.rescatter.len() {
                if self.rescatter_plan_for(s, plan).is_some() {
                    out.push(Action::Rescatter { plan });
                }
            }
        }
        for worker in 0..self.cfg.workers {
            if *s.done.get(worker).expect("worker index") {
                continue;
            }
            if !ModelState::get(&s.scanning, worker).is_empty() {
                out.push(Action::ScanEnd { worker });
                continue;
            }
            if !ModelState::get(&s.in_flight, worker).is_empty() {
                out.push(Action::ScanBegin { worker });
                continue;
            }
            // The run-loop head: check the stop flag before popping,
            // like `drive_leaf`.
            if s.stop {
                out.push(Action::Exit { worker });
                continue;
            }
            if !ModelState::get(&s.slots, worker).is_empty() {
                out.push(Action::Pop { worker });
                continue;
            }
            let mut victims = false;
            if self.cfg.steal {
                for victim in 0..self.cfg.workers {
                    if victim != worker && !ModelState::get(&s.slots, victim).is_empty() {
                        out.push(Action::Steal { worker, victim });
                        victims = true;
                    }
                }
            }
            if !victims {
                // Static scatter with the retune controller on: a
                // drained worker waits for a re-scatter to refill it
                // (drive_leaf's wait-for-refill loop) and only exits
                // once the whole fleet is drained. The wait itself is
                // not a transition — the worker simply has no enabled
                // action until another worker or the controller moves.
                let waiting = !self.cfg.steal
                    && !self.cfg.rescatter.is_empty()
                    && s.slots.iter().any(|iv| !iv.is_empty());
                if !waiting {
                    out.push(Action::Exit { worker });
                }
            }
        }
        out
    }

    /// The plan `Action::Rescatter { plan }` would apply from `s`, if it
    /// changes anything: the live [`rescatter_plan`] over the current
    /// deque remainders, with exited workers' weights masked to zero
    /// exactly as `IntervalDeques::rescatter` masks retired slots.
    fn rescatter_plan_for(&self, s: &ModelState, plan: usize) -> Option<Vec<Interval>> {
        let weights = self.cfg.rescatter.get(plan)?;
        assert_eq!(weights.len(), self.cfg.workers, "one weight per worker");
        let masked: Vec<f64> = weights
            .iter()
            .zip(&s.done)
            .map(|(&w, &done)| if done { 0.0 } else { w })
            .collect();
        rescatter_plan(&s.slots, &masked)
    }

    /// Apply `a` to `s`. Returns the successor state, or the fault when
    /// the transition itself exposes a violation (an overlapping scan).
    /// The caller must only pass enabled actions.
    pub fn apply(&self, s: &ModelState, a: Action) -> Result<ModelState, Fault> {
        let mut n = s.clone();
        match a {
            Action::Pop { worker } => {
                let slot = ModelState::get_mut(&mut n.slots, worker);
                let len = self.cfg.chunk.next_len(slot.len);
                let chunk = slot.take_front(len);
                *slot = norm(*slot);
                *ModelState::get_mut(&mut n.in_flight, worker) = norm(chunk);
            }
            Action::ScanBegin { worker } => {
                let ignore_cancel =
                    self.cfg.mutation == Some(Mutation::IgnoreCancelPoll);
                let admitted = n.admitted.get_mut(worker).expect("worker index");
                let fly = ModelState::get_mut(&mut n.in_flight, worker);
                // `scan_as` drops a chunk that starts above the floor (an
                // admitted one only polls the stop flag) — as is the rest
                // of a chunk whose scan returned at its first match.
                let dropped = self.cfg.floor_rule()
                    && !*admitted
                    && n.floor.is_some_and(|f| fly.start > f);
                if (n.stop && !ignore_cancel) || dropped {
                    // PollCursor sees the flag (or the scan never ran):
                    // the remainder is abandoned, not scanned.
                    let rest = std::mem::replace(fly, EMPTY);
                    *admitted = false;
                    ModelState::insert_coverage(&mut n.abandoned, rest).map_err(|id| {
                        (
                            Property::ExactlyOnce,
                            format!("abandoned chunk re-covers identifier {id}"),
                        )
                    })?;
                } else {
                    let q = fly.take_front(self.cfg.quantum.max(1));
                    *fly = norm(*fly);
                    // Cleared with the last quantum so equal protocol
                    // states stay equal.
                    *admitted = self.cfg.floor_rule() && !fly.is_empty();
                    *ModelState::get_mut(&mut n.scanning, worker) = norm(q);
                }
            }
            Action::ScanEnd { worker } => {
                let q = std::mem::replace(
                    ModelState::get_mut(&mut n.scanning, worker),
                    EMPTY,
                );
                *n.tested.get_mut(worker).expect("worker index") += q.len;
                n.counted += q.len;
                ModelState::insert_coverage(&mut n.scanned, q).map_err(|id| {
                    (
                        Property::ExactlyOnce,
                        format!(
                            "quantum [{}, {}) scans identifier {id} a second time",
                            q.start,
                            q.end()
                        ),
                    )
                })?;
                let mut lowest_here: Option<u128> = None;
                for &h in &self.cfg.hits {
                    if q.contains(h) {
                        lowest_here = Some(lowest_here.map_or(h, |l| l.min(h)));
                        if let Err(pos) = n.reported.binary_search(&h) {
                            n.reported.insert(pos, h);
                        }
                    }
                }
                match lowest_here {
                    Some(h) if self.cfg.floor_rule() => {
                        // The hit lowers the floor, and the backend
                        // returned at it: the rest of the chunk, all above
                        // the floor now, is dropped at the next scan-begin.
                        n.floor = Some(n.floor.map_or(h, |f| f.min(h)));
                        *n.admitted.get_mut(worker).expect("worker index") = false;
                    }
                    Some(_) if self.cfg.first_hit && !n.stop => {
                        n.stop = true;
                        n.stop_at = Some(n.counted);
                    }
                    _ => {}
                }
            }
            Action::Steal { worker, victim } => {
                let v = ModelState::get(&n.slots, victim);
                let (keep, stolen) = steal_split(v);
                match self.cfg.mutation {
                    Some(Mutation::DropStolenLease) => {
                        // The bug: the victim is trimmed but the thief
                        // never receives the back half.
                        *ModelState::get_mut(&mut n.slots, victim) = norm(keep);
                    }
                    Some(Mutation::DoubleCountSteal) => {
                        // The bug: the victim keeps everything while the
                        // thief also takes the back half.
                        *ModelState::get_mut(&mut n.slots, worker) = norm(stolen);
                    }
                    _ => {
                        *ModelState::get_mut(&mut n.slots, victim) = norm(keep);
                        *ModelState::get_mut(&mut n.slots, worker) = norm(stolen);
                    }
                }
            }
            Action::Exit { worker } => {
                *n.done.get_mut(worker).expect("worker index") = true;
            }
            Action::Rescatter { plan } => {
                let new_slots = self
                    .rescatter_plan_for(s, plan)
                    .expect("caller only applies enabled actions");
                n.slots = new_slots.into_iter().map(norm).collect();
            }
            Action::Merge => {
                let merged = if self.cfg.first_hit {
                    let pick = if self.cfg.mutation == Some(Mutation::MergeHighestFirst) {
                        n.reported.last()
                    } else {
                        n.reported.first()
                    };
                    pick.copied().into_iter().collect()
                } else {
                    n.reported.clone()
                };
                n.merged = Some(merged);
            }
        }
        Ok(n)
    }

    /// Check every state-local property on `s`: the lease partition
    /// (exactly-once + no-lost-lease), the cancellation bound, and the
    /// merge contract once merged.
    pub fn check_invariants(&self, s: &ModelState) -> Result<(), Fault> {
        // The partition invariant: deque slots, in-flight chunks,
        // scanning quanta, scanned coverage and abandoned coverage must
        // tile [0, keys) exactly — at *every* state, not just the end.
        let mut pieces: Vec<Interval> = Vec::new();
        for list in [&s.slots, &s.in_flight, &s.scanning, &s.scanned, &s.abandoned] {
            pieces.extend(list.iter().copied().filter(|iv| !iv.is_empty()));
        }
        pieces.sort_by_key(|iv| (iv.start, iv.len));
        let mut cursor = 0u128;
        for p in &pieces {
            if p.start < cursor {
                return Err((
                    Property::ExactlyOnce,
                    format!("identifier {} is leased twice", p.start),
                ));
            }
            if p.start > cursor {
                return Err((
                    Property::NoLostLease,
                    format!("identifiers [{cursor}, {}) fell out of every lease", p.start),
                ));
            }
            cursor = p.end();
        }
        if cursor != self.cfg.keys {
            return Err((
                Property::NoLostLease,
                format!(
                    "identifiers [{cursor}, {}) fell out of every lease",
                    self.cfg.keys
                ),
            ));
        }
        // The cancellation bound: after the flag went up at count K, the
        // total can grow by at most one quantum per worker.
        if let Some(k) = s.stop_at {
            let bound = k + self.cfg.workers as u128 * self.cfg.quantum.max(1);
            if s.counted > bound {
                return Err((
                    Property::CancellationBound,
                    format!(
                        "counted {} keys after stop at {k}: exceeds K + workers x quantum = {bound}",
                        s.counted
                    ),
                ));
            }
        }
        // The merge contract.
        if let Some(m) = &s.merged {
            if self.cfg.first_hit {
                // A run ends at its one hit (the stop flag) or with all
                // below the floor scanned: it owes the lowest *planted* id.
                let want: Vec<u128> = self.cfg.hits.iter().min().copied().into_iter().collect();
                if *m != want {
                    return Err((
                        Property::MergeDeterminism,
                        format!(
                            "first-hit merge kept {m:?}, not the lowest planted of {:?} (reported {:?})",
                            self.cfg.hits, s.reported
                        ),
                    ));
                }
            } else {
                // Exhaustive: the stop flag never rises, so termination
                // means full coverage and the merge must report every
                // planted hit.
                let mut want = self.cfg.hits.clone();
                want.sort_unstable();
                want.dedup();
                if *m != want {
                    return Err((
                        Property::MergeDeterminism,
                        format!("exhaustive merge reported {m:?}, expected {want:?}"),
                    ));
                }
                if s.scanned != vec![Interval::new(0, self.cfg.keys)] {
                    return Err((
                        Property::ExactlyOnce,
                        format!(
                            "exhaustive run terminated with partial coverage {:?}",
                            s.scanned
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Whether `ScanEnd {worker}` would raise the stop flag or lower the
    /// floor from `s` — the one transition that is dependent with every
    /// reader of either.
    fn raises_stop(&self, s: &ModelState, worker: usize) -> bool {
        if !self.cfg.first_hit || s.stop {
            return false;
        }
        let q = ModelState::get(&s.scanning, worker);
        self.cfg.hits.iter().any(|h| q.contains(*h))
    }

    /// Conservative independence relation for the sleep-set reduction:
    /// two actions are independent when, from `s`, they touch disjoint
    /// workers/slots and neither can write state the other reads.
    /// Dependent-by-default keeps the reduction sound.
    pub fn independent(&self, s: &ModelState, a: Action, b: Action) -> bool {
        fn touched(a: Action) -> (usize, Option<usize>) {
            match a {
                Action::Pop { worker }
                | Action::ScanBegin { worker }
                | Action::ScanEnd { worker }
                | Action::Exit { worker } => (worker, None),
                Action::Steal { worker, victim } => (worker, Some(victim)),
                Action::Rescatter { .. } | Action::Merge => (usize::MAX, None),
            }
        }
        // A re-scatter reads and writes every deque slot: globally
        // dependent, like the merge.
        if matches!(a, Action::Merge | Action::Rescatter { .. })
            || matches!(b, Action::Merge | Action::Rescatter { .. })
        {
            return false;
        }
        let (aw, av) = touched(a);
        let (bw, bv) = touched(b);
        if aw == bw || Some(aw) == bv || Some(bw) == av || (av.is_some() && av == bv) {
            return false;
        }
        // A stop-raising or floor-lowering scan end invalidates every
        // other worker's read of the flag or the floor (pop/steal/exit
        // enabledness, scan-begin's abandon decision): treat it as
        // globally dependent.
        for (x, other) in [(a, b), (b, a)] {
            if let Action::ScanEnd { worker } = x {
                if self.raises_stop(s, worker) {
                    let _ = other;
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eks_engine::IntervalDeques;

    #[test]
    fn initial_state_partitions_the_keyspace() {
        let m = Model::new(ModelConfig::exhaustive(3, 10));
        let s = m.initial();
        assert!(m.check_invariants(&s).is_ok());
        let total: u128 = (0..3).map(|w| s.slot(w).len).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn pop_scan_sequence_counts_and_covers() {
        let m = Model::new(ModelConfig::exhaustive(1, 3));
        let mut s = m.initial();
        for _ in 0..3 {
            s = m.apply(&s, Action::Pop { worker: 0 }).unwrap();
            s = m.apply(&s, Action::ScanBegin { worker: 0 }).unwrap();
            s = m.apply(&s, Action::ScanEnd { worker: 0 }).unwrap();
            m.check_invariants(&s).unwrap();
        }
        assert_eq!(s.counted(), 3);
        s = m.apply(&s, Action::Exit { worker: 0 }).unwrap();
        s = m.apply(&s, Action::Merge).unwrap();
        m.check_invariants(&s).unwrap();
        assert_eq!(s.merged(), Some(&[1, 2][..]));
    }

    /// The model's pop and steal transitions replay the *live*
    /// `IntervalDeques` arithmetic step for step: same chunk sizes, same
    /// split points. This pins the model to the shipped code — if the
    /// engine's arithmetic changes, this test drifts red before the
    /// checker silently verifies the wrong protocol.
    #[test]
    fn model_transitions_mirror_live_interval_deques() {
        let cfg = ModelConfig {
            workers: 2,
            keys: 12,
            chunk: ChunkPolicy::Guided { min: 1 },
            steal: true,
            first_hit: false,
            hits: vec![],
            quantum: 4,
            rescatter: Vec::new(),
            mutation: None,
        };
        let m = Model::new(cfg.clone());
        let mut s = m.initial();
        let live = IntervalDeques::scatter(Interval::new(0, 12), &[1.0, 1.0]);

        // Worker 0 pops twice, then worker 1 drains and steals from 0;
        // with two workers the victim choice is forced, so the live
        // scheduler and the model must agree exactly.
        for _ in 0..2 {
            let chunk = live.pop(0, cfg.chunk).unwrap();
            s = m.apply(&s, Action::Pop { worker: 0 }).unwrap();
            let fly = ModelState::get(&s.in_flight, 0);
            assert_eq!((fly.start, fly.len), (chunk.start, chunk.len));
            // Drain the chunk through scan quanta so the next pop sees
            // the same deque shape the live side does.
            while !ModelState::get(&s.in_flight, 0).is_empty() {
                s = m.apply(&s, Action::ScanBegin { worker: 0 }).unwrap();
                s = m.apply(&s, Action::ScanEnd { worker: 0 }).unwrap();
            }
            assert_eq!(s.slot(0).len, live.remaining(0));
        }
        while live.pop(1, cfg.chunk).is_some() {}
        while !s.slot(1).is_empty() {
            s = m.apply(&s, Action::Pop { worker: 1 }).unwrap();
            while !ModelState::get(&s.in_flight, 1).is_empty() {
                s = m.apply(&s, Action::ScanBegin { worker: 1 }).unwrap();
                s = m.apply(&s, Action::ScanEnd { worker: 1 }).unwrap();
            }
        }
        assert_eq!(live.steal_into(1), Some(0));
        s = m.apply(&s, Action::Steal { worker: 1, victim: 0 }).unwrap();
        assert_eq!(s.slot(0).len, live.remaining(0), "victim keeps the same front half");
        assert_eq!(s.slot(1).len, live.remaining(1), "thief holds the same back half");
        m.check_invariants(&s).unwrap();
    }

    /// The model's re-scatter replays the live `IntervalDeques::rescatter`
    /// step for step: same plan arithmetic, same retirement masking.
    #[test]
    fn rescatter_transition_mirrors_live_interval_deques() {
        let plan = [3.0, 1.0];
        let weights = vec![plan.to_vec()];
        let m = Model::new(
            ModelConfig::exhaustive(2, 12).with_rescatter(weights.clone()),
        );
        let mut s = m.initial();
        let live = IntervalDeques::scatter(Interval::new(0, 12), &[1.0, 1.0]);

        // From the even initial scatter no single-interval plan can move
        // work (every slot already holds its one range), so the
        // transition is disabled — on both sides.
        let a = Action::Rescatter { plan: 0 };
        assert!(!m.enabled(&s).contains(&a), "even fleet has nothing to move");
        assert!(!live.rescatter(&plan), "live agrees: no-op plan");

        // Drain most of worker 0's share: now worker 0 (the 3x-weighted
        // slot) holds the small remainder and the plan swaps ranges.
        for _ in 0..4 {
            s = m.apply(&s, Action::Pop { worker: 0 }).unwrap();
            s = m.apply(&s, Action::ScanBegin { worker: 0 }).unwrap();
            s = m.apply(&s, Action::ScanEnd { worker: 0 }).unwrap();
            live.pop(0, ChunkPolicy::Fixed(1)).unwrap();
        }
        assert!(m.enabled(&s).contains(&a), "skewed remainders enable the re-scatter");
        s = m.apply(&s, a).unwrap();
        assert!(live.rescatter(&plan), "live deques rebalance too");
        for w in 0..2 {
            assert_eq!(s.slot(w).len, live.remaining(w), "slot {w} remainder");
        }
        m.check_invariants(&s).unwrap();
        // Immediately re-applying the same weights is a no-op, so the
        // transition is disabled — the controller cannot livelock.
        assert!(!m.enabled(&s).contains(&a), "rebalanced fleet disables the plan");
    }

    #[test]
    fn static_workers_wait_for_a_rescatter_instead_of_exiting() {
        let cfg = ModelConfig {
            steal: false,
            ..ModelConfig::exhaustive(2, 8)
        }
        .with_rescatter(vec![vec![1.0, 1.0]]);
        let m = Model::new(cfg);
        let mut s = m.initial();
        // Drain worker 1's share.
        while !s.slot(1).is_empty() {
            s = m.apply(&s, Action::Pop { worker: 1 }).unwrap();
            while !ModelState::get(&s.in_flight, 1).is_empty() {
                s = m.apply(&s, Action::ScanBegin { worker: 1 }).unwrap();
                s = m.apply(&s, Action::ScanEnd { worker: 1 }).unwrap();
            }
        }
        // Worker 0 still holds keys: the drained worker has no Exit —
        // it waits for the controller, exactly like the live
        // wait-for-refill loop.
        let enabled = m.enabled(&s);
        assert!(
            !enabled.contains(&Action::Exit { worker: 1 }),
            "drained static worker must wait while the fleet holds keys: {enabled:?}"
        );
        assert!(
            enabled.iter().any(|a| matches!(a, Action::Rescatter { .. })),
            "the even-weight plan can refill the drained slot: {enabled:?}"
        );
        // After the re-scatter the waiter owns work again.
        s = m.apply(&s, Action::Rescatter { plan: 0 }).unwrap();
        assert!(!s.slot(1).is_empty(), "re-scatter refilled the waiter");
        m.check_invariants(&s).unwrap();
    }

    #[test]
    fn drop_stolen_lease_breaks_the_partition() {
        let m = Model::new(
            ModelConfig::exhaustive(2, 8).with_mutation(Mutation::DropStolenLease),
        );
        let mut s = m.initial();
        // Drain worker 1's share so it becomes a thief.
        while !s.slot(1).is_empty() {
            s = m.apply(&s, Action::Pop { worker: 1 }).unwrap();
            s = m.apply(&s, Action::ScanBegin { worker: 1 }).unwrap();
            s = m.apply(&s, Action::ScanEnd { worker: 1 }).unwrap();
        }
        s = m.apply(&s, Action::Steal { worker: 1, victim: 0 }).unwrap();
        let (prop, _) = m.check_invariants(&s).unwrap_err();
        assert_eq!(prop, Property::NoLostLease);
    }

    #[test]
    fn summary_renders_compactly() {
        let m = Model::new(ModelConfig::exhaustive(2, 8));
        let s = m.initial();
        let line = s.summary();
        assert!(line.contains("deques=[0+4|4+4]"), "{line}");
        assert!(line.contains("done=[..]"), "{line}");
    }
}
