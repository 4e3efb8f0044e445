//! The real multi-threaded cluster driver.
//!
//! PAPER.md §III is one loop: tune `X_j`, scatter `N_j = N · X_j / ΣX`,
//! gather, check the stop condition — and on a dynamic network run the
//! same steps again whenever the members or their measured rates change.
//! A static search is one round of that loop, and this module is the loop,
//! once:
//!
//! * [`plan_fleet`] flattens the node tree into a [`Fleet`] of
//!   [`eks_engine::Backend`] leaves weighted by tuned rate: a
//!   [`SimKernelBackend`] per simulated GPU and a [`CpuBackend`] per CPU
//!   worker thread (the widest explicit-SIMD kernel the CPU has, or the
//!   portable lanes where it has none). A flat split gives every leaf the
//!   same proportion `X_j / ΣX` a walk down the tree would.
//! * [`run_cluster`] runs rounds over that fleet: take the next
//!   `round_keys` identifiers (the whole interval when unset — the
//!   static scatter), apply the membership events due, split the slice
//!   by the members' weights, and run it through one [`Dispatcher`],
//!   which owns the shared stop flag, the hit merge and the per-device
//!   accounting; stop after a round with a hit under first-hit.

// Indexing/slicing below is over fixed-size state arrays or lengths
// established by construction; the workspace `clippy::indexing_slicing`
// escalation guards new code, not these proven accesses.
#![allow(clippy::indexing_slicing)]

use std::time::Instant;

use eks_hashes::HashAlgo;
use eks_jobs::{Fleet, FleetMember};
use eks_keyspace::{Interval, Key, KeySpace};

use eks_cracker::target::TargetSet;
use eks_cracker::CpuBackend;
use eks_engine::{
    Backend, DequeLeaf, Dispatcher, IntervalDeques, RateEstimator, Retune, ScanMode, SchedOptions,
    SchedPolicy, WorkerId, WorkerStats,
};
use eks_telemetry::{names, Telemetry};

use crate::simgpu::SimKernelBackend;
use crate::spec::ClusterNode;
use crate::tuning::tune_cpu;

/// Guided chunk floor for cluster leaves: one poll quantum, so the
/// smallest pop still amortizes a stop-flag check.
const CLUSTER_CHUNK: u128 = eks_engine::POLL_CHUNK;

/// Result of a real cluster search.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSearchResult {
    /// All hits, in identifier order: `(id, key, target index)`.
    pub hits: Vec<(u128, Key, usize)>,
    /// Candidates actually tested across the whole fleet.
    pub tested: u128,
    /// Per-device `(node/device [backend], tested)` accounting, one row
    /// per distinct member label in first-appearance (tree) order.
    pub per_device: Vec<(String, u128)>,
    /// Full per-device scheduler stats, same order as `per_device`.
    pub stats: Vec<WorkerStats>,
    /// Dispatch rounds executed.
    pub rounds: u64,
    /// Rounds preceded by at least one applied membership change.
    pub rebalances: u64,
    /// Worker time the fleet had, in nanoseconds: the sum over rounds of
    /// fleet members × the round's wall time.
    pub capacity_ns: u64,
}

impl ClusterSearchResult {
    /// Whole-network parallel efficiency in percent:
    /// `Σ busy / (fleet members × driver wall time) · 100`. A member that
    /// drains its share early and exits is idle for the rest of its round
    /// — the wait the gather barrier imposes — so a static split by a
    /// wrong `X_j` shows here. This is the measured counterpart of the
    /// paper's 85–90% whole-network efficiency (Tables VII–IX). A run
    /// where no clock ticked (for example an empty interval) reports `0`
    /// rather than NaN.
    pub fn parallel_efficiency(&self) -> f64 {
        if self.capacity_ns == 0 {
            return 0.0;
        }
        let busy: u64 = self.stats.iter().map(|w| w.busy_ns).sum();
        100.0 * busy as f64 / self.capacity_ns as f64
    }
}

/// A fleet membership change, applied between rounds.
pub enum FleetEvent {
    /// A device (or remote node's executor) joins the fleet.
    Join {
        /// The joining member.
        member: FleetMember,
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

/// How [`run_cluster`] drives its rounds.
pub struct ClusterOptions {
    /// Stop the search after the round that finds the first hit (the
    /// lowest matching identifier when several digests are searched).
    pub first_hit_only: bool,
    /// How members are scheduled within a round:
    /// [`SchedPolicy::Static`] keeps every member on exactly its
    /// rate-proportional share, the stealing policies let drained
    /// members take the back half of the largest remaining deque.
    pub sched: SchedPolicy,
    /// Closed-loop balancing: the engine's in-round re-scatter, and
    /// between rounds each worker's measured rate (once warm) in place of
    /// its tuned weight. `None` splits every round by the tuned weights.
    pub retune: Option<Retune>,
    /// Keys dispatched per round; `None` runs the whole interval as one
    /// round (the static scatter).
    pub round_keys: Option<u128>,
    /// Membership changes, each applied before the round it names.
    pub events: Vec<ScheduledFleetEvent>,
    /// Where spans, events, the round/rebalance counters and the
    /// efficiency gauge go.
    pub telemetry: Telemetry,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        Self {
            first_hit_only: false,
            sched: SchedPolicy::Static,
            retune: None,
            round_keys: None,
            events: Vec::new(),
            telemetry: Telemetry::disabled(),
        }
    }
}

/// The scatter step's input: one fleet member per simulated GPU (label
/// `node/device [simgpu]`) and one per CPU worker thread (all threads of
/// a worker share the `node/cpu [auto:kernel]` label, so their credits
/// accumulate per device), in tree order. Weights are tuned rates for
/// `algo`; a CPU worker's rate is split evenly over its threads. Every
/// device publishes its tuned rate as a gauge, and CPU leaves route their
/// batch timings into `telemetry`.
///
/// # Panics
/// Panics when the tree holds no device and no CPU worker.
pub fn plan_fleet(root: &ClusterNode, algo: HashAlgo, telemetry: &Telemetry) -> Fleet {
    let mut members = Vec::new();
    push_members(root, algo, telemetry, &mut members);
    Fleet::new(members)
}

fn push_members(
    node: &ClusterNode,
    algo: HashAlgo,
    telemetry: &Telemetry,
    out: &mut Vec<FleetMember>,
) {
    for slot in &node.devices {
        let backend = SimKernelBackend::new(slot.device.clone());
        let weight = backend.tuned_rate(algo);
        let label = format!("{}/{} [{}]", node.name, slot.device.name, backend.name());
        if telemetry.is_enabled() {
            telemetry.gauge(names::DEVICE_RATE_MKEYS, &[("device", &label)]).set(weight);
        }
        out.push(FleetMember { label, weight, backend: Box::new(backend) });
    }
    for cpu in &node.cpus {
        // Each thread runs the detected kernel (the widest explicit-SIMD
        // ISA, else the portable lanes) — the paper's §V per-architecture
        // specialization applied at scatter time.
        let rate = tune_cpu(cpu, algo).achieved_mkeys;
        let backend = CpuBackend::default().with_telemetry(telemetry.clone());
        let label = format!("{}/{} [auto:{}]", node.name, cpu.name, backend.kernel().name());
        if telemetry.is_enabled() {
            telemetry.gauge(names::DEVICE_RATE_MKEYS, &[("device", &label)]).set(rate);
            if let Some(isa) = backend.isa(algo) {
                telemetry.gauge(names::BACKEND_ISA, &[("backend", "auto"), ("isa", &isa)]).set(1.0);
            }
        }
        let threads = cpu.threads.max(1);
        for _ in 0..threads {
            // Clones share the telemetry registry.
            out.push(FleetMember {
                label: label.clone(),
                weight: rate / threads as f64,
                backend: Box::new(backend.clone()),
            });
        }
    }
    for child in &node.children {
        push_members(child, algo, telemetry, out);
    }
}

/// Apply (and remove) the events scheduled before `round`, tracing each
/// join and leave. A leave of an absent label, or one that would empty
/// the fleet, is refused. Returns whether the membership changed.
fn apply_events(
    fleet: &mut Fleet,
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
                fleet.join(member);
                changed = true;
            }
            FleetEvent::Leave { label } => {
                if fleet.leave(&label) {
                    telemetry.event(names::EVENT_LEAVE).field("member", &label).finish();
                    changed = true;
                }
            }
        }
    }
    changed
}

/// One dispatcher worker: a distinct member label.
struct Worker {
    label: String,
    id: WorkerId,
    /// Between-round rate estimate, seeded with the member's weight;
    /// consulted only under retune.
    rate: RateEstimator,
    /// Cumulative `(tested, busy_ns)` at the previous round's end.
    seen: (u128, u64),
}

/// Register a worker for every fleet label not seen before. A label that
/// left and re-joins keeps its worker, so its accounting resumes.
fn register_new(fleet: &Fleet, dispatcher: &Dispatcher<'_>, workers: &mut Vec<Worker>) {
    for m in fleet.members() {
        if !workers.iter().any(|w| w.label == m.label) {
            workers.push(Worker {
                label: m.label.clone(),
                id: dispatcher.register(m.label.clone()),
                rate: RateEstimator::new(m.weight),
                seen: (0, 0),
            });
        }
    }
}

/// Search `interval` of `space` over `fleet`, round by round (see the
/// module docs). Worker busy time is summed over a CPU worker's threads,
/// so under retune a round's Δtested ÷ Δbusy is a per-thread rate, in
/// the units of the per-thread member weights it replaces.
///
/// # Panics
/// Panics when `opts.round_keys` is `Some(0)`.
pub fn run_cluster(
    mut fleet: Fleet,
    space: &KeySpace,
    targets: &TargetSet,
    interval: Interval,
    opts: ClusterOptions,
) -> ClusterSearchResult {
    let ClusterOptions { first_hit_only, sched, retune, round_keys, mut events, telemetry } = opts;
    let round_keys = round_keys.unwrap_or(u128::MAX);
    assert!(round_keys > 0, "round_keys must be positive");
    let dispatcher = Dispatcher::new(space, targets, ScanMode::from_first_hit(first_hit_only))
        .with_telemetry(telemetry.clone());
    let mut sched_opts = SchedOptions::for_policy(sched, CLUSTER_CHUNK);
    if let Some(r) = retune {
        sched_opts = sched_opts.with_retune(r);
    }
    let rounds_counter = telemetry.counter(names::ROUNDS, &[]);
    let rebalance_counter = telemetry.counter(names::REBALANCES, &[]);
    let mut workers = Vec::new();
    register_new(&fleet, &dispatcher, &mut workers);

    let mut remaining = interval.intersect(&space.interval());
    let (mut rounds, mut rebalances, mut capacity_ns) = (0u64, 0u64, 0u64);
    while !remaining.is_empty() {
        if apply_events(&mut fleet, &mut events, rounds, &telemetry) {
            rebalances += 1;
            rebalance_counter.inc();
            register_new(&fleet, &dispatcher, &mut workers);
        }
        let slice = remaining.take_front(round_keys);
        let started = Instant::now();
        rounds_counter.inc();
        // Dropped at the end of this iteration, covering scatter, scan
        // and the stop check.
        let _round_span = telemetry
            .span(names::SPAN_ROUND)
            .field("round", rounds)
            .field("members", fleet.len())
            .field("keys", slice.len);
        let members = fleet.members();
        let slots: Vec<&Worker> = members
            .iter()
            .map(|m| workers.iter().find(|w| w.label == m.label).expect("registered"))
            .collect();
        let scatter = telemetry.span(names::SPAN_SCATTER);
        let weights: Vec<f64> = if retune.is_some() {
            slots.iter().map(|w| w.rate.mkeys()).collect()
        } else {
            members.iter().map(|m| m.weight).collect()
        };
        let deques = IntervalDeques::assign(slice.split_weighted(&weights));
        scatter.field("leaves", members.len()).finish();
        let leaves: Vec<DequeLeaf<'_>> = members
            .iter()
            .zip(&slots)
            .map(|(m, w)| DequeLeaf { worker: w.id, backend: m.backend.as_ref() })
            .collect();
        dispatcher.run_deques(&leaves, &deques, sched_opts);
        let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        capacity_ns = capacity_ns.saturating_add(wall_ns.saturating_mul(members.len() as u64));
        if retune.is_some() {
            // Workers register in order, so stats row `i` is worker `i`.
            for (w, st) in workers.iter_mut().zip(dispatcher.worker_stats()) {
                w.rate.observe(
                    st.tested.saturating_sub(w.seen.0),
                    st.busy_ns.saturating_sub(w.seen.1),
                );
                w.seen = (st.tested, st.busy_ns);
            }
        }
        // Round boundary: let an attached live plane close a window and
        // run its anomaly pass over this round's deltas.
        telemetry.observe_plane();
        rounds += 1;
        if first_hit_only && dispatcher.any_hits() {
            break;
        }
    }

    let merge = telemetry.span(names::SPAN_MERGE);
    let report = dispatcher.finish();
    merge.field("hits", report.hits.len()).finish();
    let result = ClusterSearchResult {
        hits: report.hits,
        tested: report.tested,
        per_device: report.per_worker,
        stats: report.stats,
        rounds,
        rebalances,
        capacity_ns,
    };
    if telemetry.is_enabled() {
        telemetry
            .gauge(names::CLUSTER_EFFICIENCY_PCT, &[])
            .set(result.parallel_efficiency());
    }
    result
}

/// [`run_cluster`] over the planned `root` with default options: one
/// static round, no telemetry.
///
/// # Panics
/// Panics when the tree holds no device and no CPU worker.
pub fn run_cluster_search(
    root: &ClusterNode,
    space: &KeySpace,
    targets: &TargetSet,
    interval: Interval,
    first_hit_only: bool,
) -> ClusterSearchResult {
    let fleet = plan_fleet(root, targets.algo(), &Telemetry::disabled());
    run_cluster(fleet, space, targets, interval, ClusterOptions { first_hit_only, ..ClusterOptions::default() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::paper_network;
    use eks_gpusim::device::Device;
    use eks_keyspace::{Charset, Order};

    fn space() -> KeySpace {
        KeySpace::new(Charset::lowercase(), 1, 4, Order::FirstCharFastest).unwrap()
    }

    fn miss() -> TargetSet {
        TargetSet::new(HashAlgo::Md5, &[vec![0xa5; 16]])
    }

    #[test]
    fn members_are_labelled_per_device_and_cpu_threads_share_one() {
        let net = ClusterNode::device_node("box", vec![Device::geforce_gtx_660()], 0.0)
            .with_cpu("host-cpu", 2);
        let fleet = plan_fleet(&net, HashAlgo::Md5, &Telemetry::disabled());
        let labels = fleet.labels();
        assert_eq!(labels.len(), 3, "one GPU member + one member per CPU thread");
        assert_eq!(labels[0], "box/GeForce GTX 660 [simgpu]");
        assert!(labels[1].starts_with("box/host-cpu [auto:"), "{labels:?}");
        assert_eq!(labels[1], labels[2], "a CPU worker's threads share its label");
        let weights = fleet.weights();
        assert_eq!(weights[1], weights[2], "the worker's rate splits evenly");

        let s = space();
        let r = run_cluster_search(&net, &s, &miss(), s.interval(), false);
        let rows: Vec<&str> = r.per_device.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(rows, [labels[0], labels[1]], "one accounting row per distinct label");
        assert!(r.per_device.iter().all(|(_, n)| *n > 0), "{:?}", r.per_device);
    }

    #[test]
    fn work_split_follows_throughput_ratios() {
        let net = paper_network(1e-3);
        let s = space();
        let r = run_cluster_search(&net, &s, &miss(), s.interval(), false);
        assert!(r.per_device.iter().all(|(n, _)| n.contains("[simgpu]")), "{:?}", r.per_device);
        // The GTX 660 (fastest) must receive the largest share; the
        // 8600M GT (slowest) the smallest.
        let share = |pat: &str| {
            r.per_device
                .iter()
                .find(|(n, _)| n.contains(pat))
                .map(|(_, c)| *c)
                .unwrap_or_else(|| panic!("{pat} missing"))
        };
        let gtx660 = share("660");
        let m8600 = share("8600M");
        assert!(gtx660 > 10 * m8600, "660 {gtx660} vs 8600M {m8600}");
    }

    #[test]
    fn a_leaver_takes_no_further_share() {
        // Two equal members, 60k-key static rounds: `b` scans half of
        // rounds 0 and 1, then leaves, and `a` covers the rest alone.
        let member = |label: &str| FleetMember {
            label: label.into(),
            weight: 1.0,
            backend: Box::new(CpuBackend::default()),
        };
        let leave = FleetEvent::Leave { label: "b".into() };
        let options = ClusterOptions {
            round_keys: Some(60_000),
            events: vec![ScheduledFleetEvent { before_round: 2, event: leave }],
            ..ClusterOptions::default()
        };
        let s = space();
        let fleet = Fleet::new(vec![member("a"), member("b")]);
        let r = run_cluster(fleet, &s, &miss(), s.interval(), options);
        assert_eq!(r.tested, s.size());
        assert_eq!(r.per_device[1], ("b".to_string(), 60_000), "two 30k half-rounds");
        assert_eq!(r.rebalances, 1);
    }

    #[test]
    fn a_leave_that_would_empty_the_fleet_is_refused() {
        let telemetry = Telemetry::disabled();
        let net = ClusterNode::device_node("A", vec![Device::geforce_gtx_660()], 1e-3);
        let mut fleet = plan_fleet(&net, HashAlgo::Md5, &telemetry);
        assert_eq!(fleet.len(), 1);
        let label = fleet.labels()[0].to_string();
        assert!(!fleet.leave(&label), "last member must stay");
        assert_eq!(fleet.len(), 1);
        // Nor may the threads of the only worker all leave at once.
        let net = ClusterNode::device_node("A", vec![], 1e-3).with_cpu("cpu0", 2);
        let mut fleet = plan_fleet(&net, HashAlgo::Md5, &telemetry);
        let label = fleet.labels()[0].to_string();
        assert!(!fleet.leave(&label), "the only worker must stay");
        assert_eq!(fleet.len(), 2);
    }

    #[test]
    fn empty_interval_runs_no_round() {
        let net = paper_network(1e-3);
        let s = space();
        let r = run_cluster_search(&net, &s, &miss(), Interval::new(0, 0), true);
        assert!(r.hits.is_empty());
        assert_eq!((r.tested, r.rounds), (0, 0));
        assert_eq!(r.per_device.len(), 5, "every device still has its row");
        assert_eq!(r.parallel_efficiency(), 0.0, "no clock ticked: 0, not NaN");
    }
}
