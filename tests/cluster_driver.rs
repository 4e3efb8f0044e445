//! One seeded property for the one cluster driver: topology × round size
//! × scheduler × retune × membership churn, against the scalar oracle.
//!
//! PAPER.md §III makes a static search one round of the dynamic loop, so
//! every way of running the cluster is a draw of [`ClusterOptions`] over a
//! [`plan_fleet`]ed topology: one round or many (the last one ragged), any
//! `SchedPolicy`, with or without the closed loop re-scattering at every
//! drift check, and a member joining, leaving and re-joining at drawn
//! rounds. Whatever is drawn, an exhaustive run tests every identifier of
//! the interval exactly once and finds exactly the oracle's hits, with the
//! per-device rows summing to `tested`; a first-hit run over several
//! digests returns the lowest planted identifier, and over one digest a
//! genuine occurrence of the key.

// Indexing below is over vectors sized by the same expression that draws
// the index; the workspace `clippy::indexing_slicing` escalation guards
// product code.
#![allow(clippy::indexing_slicing)]

use std::sync::atomic::AtomicBool;

use eks::cluster::{
    paper_network, parse_topology, plan_fleet, run_cluster, run_cluster_search, ClusterNode,
    ClusterOptions, ClusterSearchResult, FleetEvent, ScheduledFleetEvent, SimKernelBackend,
};
use eks::core::prop::{forall, Rng};
use eks::cracker::{crack_interval, TargetSet};
use eks::engine::{Backend, Retune, SchedPolicy};
use eks::gpusim::device::Device;
use eks::hashes::HashAlgo;
use eks::jobs::FleetMember;
use eks::keyspace::{Charset, Interval, KeySpace, Order};
use eks::telemetry::Telemetry;

/// The member [`churn`] adds.
const JOINER: &str = "J/GeForce GTX 550 Ti [simgpu]";

/// A drawn cluster: a single node (one GPU, or two CPU workers and no
/// GPU), a GPU beside a two-thread CPU worker, or the paper's five-GPU
/// network plus a two-thread CPU worker.
fn topology(rng: &mut Rng) -> ClusterNode {
    match rng.index(4) {
        0 => parse_topology("solo(660)", 0.0),
        1 => parse_topology("box(cpu:2, cpu:1)", 0.0),
        2 => parse_topology("A(660, cpu:2)", 0.0),
        _ => Ok(paper_network(0.0).with_cpu("host-cpu", 2)),
    }
    .expect("topology")
}

/// A simulated GPU member carrying `label`.
fn gpu_member(label: &str) -> FleetMember {
    let backend = SimKernelBackend::new(Device::geforce_gtx_550_ti());
    FleetMember { label: label.into(), weight: backend.tuned_rate(HashAlgo::Md5), backend: Box::new(backend) }
}

/// A new GPU joins, then one member (the newcomer or the first planned
/// device) leaves and later re-joins, each before a drawn round; rounds the
/// run never reaches simply never fire.
fn churn(rng: &mut Rng, first: &str) -> Vec<ScheduledFleetEvent> {
    let leaver = if rng.below(2) == 0 { JOINER } else { first };
    let join = rng.range(0, 3);
    let leave = join + rng.range(0, 3);
    let rejoin = leave + rng.range(1, 3);
    vec![
        ScheduledFleetEvent { before_round: join, event: FleetEvent::Join { member: gpu_member(JOINER) } },
        ScheduledFleetEvent { before_round: leave, event: FleetEvent::Leave { label: leaver.into() } },
        ScheduledFleetEvent { before_round: rejoin, event: FleetEvent::Join { member: gpu_member(leaver) } },
    ]
}

/// What one drawn run did, with the draws the checks depend on.
struct Run {
    result: ClusterSearchResult,
    sched: SchedPolicy,
    round_keys: Option<u128>,
    case: String,
}

impl Run {
    /// Under bounded rounds a first-hit run stops after the round that
    /// holds `id`.
    fn stopped_by(&self, interval: Interval, id: u128) {
        if let Some(k) = self.round_keys {
            assert!(self.result.rounds as u128 <= (id - interval.start) / k + 1, "{}", self.case);
        }
    }
}

/// One drawn run of the driver over a freshly planned fleet.
fn drawn_run(
    rng: &mut Rng,
    root: &ClusterNode,
    space: &KeySpace,
    targets: &TargetSet,
    interval: Interval,
    first_hit_only: bool,
) -> Run {
    let fleet = plan_fleet(root, HashAlgo::Md5, &Telemetry::disabled());
    let events = if rng.below(2) == 0 { churn(rng, fleet.labels()[0]) } else { Vec::new() };
    let options = ClusterOptions {
        first_hit_only,
        sched: SchedPolicy::ALL[rng.index(3)],
        retune: (rng.below(2) == 0).then_some(Retune { every_chunks: 1, drift_pct: 0 }),
        round_keys: [None, Some(1_000), Some(4_097)][rng.index(3)],
        events,
        telemetry: Telemetry::disabled(),
    };
    let case = format!(
        "{} {:?} retune {:?} rounds of {:?}, {} events, {interval:?}",
        root.name,
        options.sched,
        options.retune,
        options.round_keys,
        options.events.len()
    );
    let (sched, round_keys) = (options.sched, options.round_keys);
    Run { result: run_cluster(fleet, space, targets, interval, options), sched, round_keys, case }
}

#[test]
fn every_driver_configuration_matches_the_oracle() {
    let stop = AtomicBool::new(false);
    forall("cluster driver", 64, |rng| {
        let order = [Order::FirstCharFastest, Order::LastCharFastest][rng.index(2)];
        let space = KeySpace::new(Charset::lowercase(), 1, 3, order).expect("space");
        let size = space.size();
        let start = if rng.below(2) == 0 { 0 } else { rng.range_u128(1, size / 2) };
        let interval = Interval::new(start, size - start - rng.range_u128(0, size / 4));
        let root = topology(rng);

        // Exhaustive: exactly the oracle's hits, every identifier once.
        let planted: Vec<u128> =
            (0..rng.range(2, 4)).map(|_| rng.range_u128(interval.start, interval.end() - 1)).collect();
        let mut digests: Vec<Vec<u8>> =
            planted.iter().map(|&id| HashAlgo::Md5.hash(space.key_at(id).as_bytes())).collect();
        digests.push(vec![0xa5; 16]);
        let targets = TargetSet::new(HashAlgo::Md5, &digests);
        let oracle = crack_interval(&space, &targets, interval, &stop, false);
        let all = drawn_run(rng, &root, &space, &targets, interval, false);
        let (r, case) = (&all.result, &all.case);
        assert_eq!(r.hits, oracle.hits, "exhaustive hits, {case}");
        assert_eq!(r.tested, interval.len, "exhaustive tested, {case}");
        assert_eq!(r.per_device.iter().map(|(_, n)| n).sum::<u128>(), r.tested, "{case}");
        let rounds = all.round_keys.map_or(1, |k| interval.len.div_ceil(k));
        assert_eq!(u128::from(r.rounds), rounds, "{case}");
        assert_eq!(r.stats.len(), r.per_device.len(), "{case}");
        let mut labels: Vec<&str> = r.per_device.iter().map(|(l, _)| l.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), r.per_device.len(), "a re-joining label resumes its row, {case}");
        assert_eq!(labels.contains(&JOINER), r.rebalances > 0, "the join is the first event, {case}");
        let steals: u64 = r.stats.iter().map(|w| w.steals).sum();
        assert_eq!(steals, r.stats.iter().map(|w| w.splits).sum::<u64>(), "{case}");
        assert!(all.sched.steals() || steals == 0, "a static round never steals, {case}");

        // Several digests, first hit: the lowest planted identifier.
        let first = drawn_run(rng, &root, &space, &targets, interval, true);
        let case = &first.case;
        assert_eq!(first.result.hits, oracle.hits[..1], "lowest-id first hit, {case}");
        assert!(first.result.tested <= interval.len, "{case}");
        first.stopped_by(interval, oracle.hits[0].0);

        // One digest, first hit: a genuine occurrence of the key.
        let key = space.key_at(planted[0]);
        let one = TargetSet::new(HashAlgo::Md5, &[HashAlgo::Md5.hash(key.as_bytes())]);
        let single = drawn_run(rng, &root, &space, &one, interval, true);
        let case = &single.case;
        assert_eq!(single.result.hits.len(), 1, "{case}");
        let (id, found, target) = &single.result.hits[0];
        assert_eq!((found, *target), (&key, 0), "{case}");
        assert_eq!(space.key_at(*id), key, "{case}");
        single.stopped_by(interval, planted[0]);
    });
}

/// A static split by tuned rate hands the simulated GTX 660 nearly every
/// key, so the CPU leaf beside it drains early and waits: an efficiency
/// that counts the wait cannot read 100 %.
#[test]
fn static_scatter_efficiency_counts_the_idle_leaf() {
    let root = parse_topology("A(660, cpu:1)", 0.0).expect("topology");
    let space = KeySpace::new(Charset::lowercase(), 1, 4, Order::FirstCharFastest).expect("space");
    let miss = TargetSet::new(HashAlgo::Md5, &[vec![0xa5; 16]]);
    let r = run_cluster_search(&root, &space, &miss, space.interval(), false);
    assert_eq!(r.tested, space.size());
    let eff = r.parallel_efficiency();
    assert!(eff > 0.0 && eff < 75.0, "efficiency {eff:.1}% with an idle CPU leaf");
}
