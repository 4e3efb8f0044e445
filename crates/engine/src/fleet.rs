//! The fleet and its one round driver.
//!
//! PAPER.md §III is one loop: scatter `N_j = N · X_j / ΣX` by tuned or
//! measured rates, gather, check the stop condition, with one machine a
//! one-node tree. A [`Fleet`] is the scatter's input and
//! [`Fleet::run_round`] one turn of the loop: the only code that turns a
//! slice of identifiers into dispatcher workers, deques and threads.
//! `eks crack` is one round over [`Fleet::threads`], `eks cluster` a
//! rounds loop with [`FleetEvent`]s in between, `eks job` one round per
//! lease.
//!
//! Under retune the fleet's ledger holds one [`RateEstimator`] per label,
//! fed from the label's Δ(tested, busy) over each round and read as the
//! next round's weights. A joining label gets a fresh estimator seeded
//! from its weight (its accounting row on a long-lived dispatcher still
//! resumes).

use std::collections::BTreeMap;
use std::sync::Mutex;

use eks_keyspace::{Interval, KeySpace, SolutionSpace};
use eks_telemetry::{names, Telemetry};

use crate::backend::Backend;
use crate::dispatch::{DequeLeaf, Dispatcher, SchedOptions, WorkerId};
use crate::rate::RateEstimator;
use crate::steal::IntervalDeques;

/// One member of a fleet. Members sharing a label (the threads of one
/// CPU worker) share one accounting row; `'b` bounds a borrowed backend,
/// owned fleets are `'static`.
pub struct FleetMember<'b, S: ?Sized = KeySpace> {
    /// Telemetry/worker label, stable across rounds, leases and jobs.
    pub label: String,
    /// Relative tuned rate (the §VI tuning step) for the scatter.
    pub weight: f64,
    /// The leaf executor.
    pub backend: Box<dyn Backend<S> + 'b>,
}

/// The members a search scatters over, and their between-round rate
/// ledger.
pub struct Fleet<'b, S: ?Sized = KeySpace> {
    members: Vec<FleetMember<'b, S>>,
    /// Live estimate per label, consulted only under retune.
    ledger: Mutex<BTreeMap<String, RateEstimator>>,
    /// Whether each round traces its partitioning as a `scatter` span.
    scatter_spans: bool,
}

/// A fleet membership change, applied between rounds.
pub enum FleetEvent {
    /// A device (or remote node's executor) joins the fleet.
    Join {
        /// The joining member.
        member: FleetMember<'static>,
    },
    /// Every member carrying this label leaves the fleet.
    Leave {
        /// Label of the leaver.
        label: String,
    },
}

/// A [`FleetEvent`] scheduled before a given round.
pub struct ScheduledFleetEvent {
    /// The event fires before this round index (0-based).
    pub before_round: u64,
    /// What happens.
    pub event: FleetEvent,
}

impl<'b, S: ?Sized> Fleet<'b, S> {
    /// A fleet over the given members.
    ///
    /// # Panics
    /// Panics when `members` is empty — a fleet must be able to scan.
    pub fn new(members: Vec<FleetMember<'b, S>>) -> Self {
        assert!(!members.is_empty(), "a fleet needs at least one member");
        Self { members, ledger: Mutex::new(BTreeMap::new()), scatter_spans: false }
    }

    /// The same fleet, tracing every round's partitioning as a `scatter`
    /// span (the cluster driver's rounds; `eks report` reads the spans'
    /// total as the cost model's partitioning time). Crack runs and job
    /// leases leave it off: their traces carry no such span.
    #[must_use]
    pub fn with_scatter_spans(mut self) -> Self {
        self.scatter_spans = true;
        self
    }

    /// `threads` equal members lending one borrowed backend, labelled
    /// `{backend.name()}#i`: one machine as a one-node tree.
    ///
    /// # Panics
    /// Panics when `threads == 0`.
    pub fn threads(backend: &'b dyn Backend<S>, threads: usize) -> Self {
        let name = backend.name();
        let member = |i| FleetMember { label: format!("{name}#{i}"), weight: 1.0, backend: Box::new(backend) };
        Self::new((0..threads).map(member).collect())
    }

    /// Member count.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Never true: construction rejects empty fleets.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Member labels, in slot order.
    pub fn labels(&self) -> Vec<&str> {
        self.members.iter().map(|m| m.label.as_str()).collect()
    }

    /// Tuned scatter weights, in slot order.
    pub fn weights(&self) -> Vec<f64> {
        self.members.iter().map(|m| m.weight).collect()
    }

    /// The weights a retuned round scatters by, in slot order: each
    /// label's live (warm-up-gated) estimate, or the member's tuned
    /// weight until a round has seeded one.
    pub fn live_weights(&self) -> Vec<f64> {
        let ledger = self.ledger.lock().expect("rate ledger");
        self.members
            .iter()
            .map(|m| ledger.get(&m.label).map_or(m.weight, RateEstimator::mkeys))
            .collect()
    }

    /// A member joins the fleet (cluster dynamic membership), taking
    /// effect at the next round. Its label starts a fresh rate estimate.
    pub fn join(&mut self, member: FleetMember<'b, S>) {
        self.ledger.lock().expect("rate ledger").remove(&member.label);
        self.members.push(member);
    }

    /// A device leaves the fleet: every member carrying the label (all
    /// threads of a CPU worker) goes. Returns false when no member
    /// carries the label, or when the leave would empty the fleet (the
    /// caller decides whether to stop instead). Rounds already
    /// dispatched are unaffected.
    pub fn leave(&mut self, label: &str) -> bool {
        let before = self.members.len();
        if self.members.iter().all(|m| m.label == label) {
            return false;
        }
        self.members.retain(|m| m.label != label);
        self.members.len() != before
    }
}

impl Fleet<'static> {
    /// Apply (and remove) the events scheduled before `round`, tracing
    /// each join and leave. A leave of an absent label, or one that
    /// would empty the fleet, is refused. Returns whether the membership
    /// changed.
    pub fn apply_events(
        &mut self,
        events: &mut Vec<ScheduledFleetEvent>,
        round: u64,
        telemetry: &Telemetry,
    ) -> bool {
        let (due, rest): (Vec<_>, Vec<_>) =
            std::mem::take(events).into_iter().partition(|e| e.before_round == round);
        *events = rest;
        let mut changed = false;
        for scheduled in due {
            match scheduled.event {
                FleetEvent::Join { member } => {
                    telemetry.event(names::EVENT_JOIN).field("member", &member.label).finish();
                    self.join(member);
                    changed = true;
                }
                FleetEvent::Leave { label } => {
                    if self.leave(&label) {
                        telemetry.event(names::EVENT_LEAVE).field("member", &label).finish();
                        changed = true;
                    }
                }
            }
        }
        changed
    }
}

impl<S: SolutionSpace + Sync + ?Sized> Fleet<'_, S> {
    /// The dispatcher worker of every member, in slot order: one per
    /// distinct label, registered on first sight, so a label that left
    /// and re-joins resumes its accounting row.
    pub fn workers(&self, dispatcher: &Dispatcher<'_, S>) -> Vec<WorkerId> {
        self.members.iter().map(|m| dispatcher.register(m.label.as_str())).collect()
    }

    /// One round: scatter `slice` (clamped to the space) over the members
    /// by their tuned weights — or, under `opts.retune`, by the ledger's
    /// live ones — and run it to the end on `dispatcher`, one thread per
    /// member. Under retune each label's Δ(tested, busy) over the round
    /// then feeds its estimate; busy time sums over a label's members, so
    /// the estimate is per member, in the units of the weights it
    /// replaces.
    pub fn run_round(&self, dispatcher: &Dispatcher<'_, S>, slice: Interval, opts: SchedOptions) {
        let workers = self.workers(dispatcher);
        let scatter = self.scatter_spans.then(|| dispatcher.telemetry().span(names::SPAN_SCATTER));
        let weights: Vec<f64> = if opts.retune.is_some() {
            let mut ledger = self.ledger.lock().expect("rate ledger");
            self.members
                .iter()
                .map(|m| {
                    ledger
                        .entry(m.label.clone())
                        .or_insert_with(|| RateEstimator::new(m.weight))
                        .mkeys()
                })
                .collect()
        } else {
            self.weights()
        };
        let deques = IntervalDeques::scatter(dispatcher.clamp(slice), &weights);
        if let Some(span) = scatter {
            span.field("leaves", self.members.len()).finish();
        }
        let leaves: Vec<DequeLeaf<'_, S>> = self
            .members
            .iter()
            .zip(&workers)
            .map(|(m, &worker)| DequeLeaf { worker, backend: m.backend.as_ref() })
            .collect();
        let before = opts.retune.map(|_| dispatcher.worker_stats());
        dispatcher.run_deques(&leaves, &deques, opts);
        let Some(before) = before else { return };
        let mut ledger = self.ledger.lock().expect("rate ledger");
        for (then, now) in before.iter().zip(dispatcher.worker_stats()) {
            if let Some(est) = ledger.get_mut(&now.label) {
                est.observe(now.tested - then.tested, now.busy_ns - then.busy_ns);
            }
        }
    }
}
