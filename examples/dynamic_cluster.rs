//! Operating a dynamic cluster (the paper's §III runtime-reconfiguration
//! extension): a node joins and another leaves while a real search runs;
//! the master re-scatters every round over the then-current members.
//! Offline model-fitting replaces the online tuning pass for the joining
//! node.
//!
//! Run with: `cargo run --release --example dynamic_cluster`

use std::sync::atomic::AtomicBool;
use std::time::Instant;

use eks::cluster::model::{calibrate, FittedModel};
use eks::cluster::{
    plan_fleet, run_cluster, ClusterNode, ClusterOptions, FleetEvent, ScheduledFleetEvent,
};
use eks::cracker::{CpuBackend, TargetSet};
use eks::engine::{Backend, ScanMode};
use eks::gpusim::device::Device;
use eks::hashes::HashAlgo;
use eks::jobs::FleetMember;
use eks::keyspace::{Charset, Interval, KeySpace, Order};
use eks::telemetry::Telemetry;

fn main() {
    let space = KeySpace::new(Charset::lowercase(), 1, 5, Order::FirstCharFastest).unwrap();
    let secret = b"exact";
    let targets = TargetSet::new(HashAlgo::Md5, &[HashAlgo::Md5.hash(secret)]);

    // Start with two of the paper's GPUs on one node.
    let node = ClusterNode::device_node(
        "A",
        vec![Device::geforce_gtx_660(), Device::geforce_gt_540m()],
        2e-3,
    );
    let fleet = plan_fleet(&node, HashAlgo::Md5, &Telemetry::disabled());
    println!("initial members:");
    for m in fleet.members() {
        println!("  {:<28} {:>8.1} MKey/s", m.label, m.weight);
    }

    // A volunteer offers one CPU thread; calibrate it offline with the
    // fitted affine model T(n) = overhead + n / rate instead of a live
    // tuning pass (paper: "an approximated model could be built offline").
    let volunteer = CpuBackend::default();
    let cpu_model: FittedModel = calibrate(&[50_000, 100_000, 200_000], |n| {
        let started = Instant::now();
        let stop = AtomicBool::new(false);
        volunteer.scan(&space, &targets, Interval::new(0, n as u128), &stop, ScanMode::Exhaustive);
        started.elapsed().as_secs_f64()
    })
    .expect("calibration fits");
    println!(
        "volunteer CPU calibrated offline: {:.2} MKey/s, {:.2} ms overhead (R² {:.4})",
        cpu_model.mkeys(),
        cpu_model.overhead_s * 1e3,
        cpu_model.r_squared
    );

    // The CPU joins before round 3; the 540M laptop leaves (lid closed)
    // before round 6.
    let joiner = "volunteer/cpu [auto]";
    let events = vec![
        ScheduledFleetEvent {
            before_round: 3,
            event: FleetEvent::Join {
                member: FleetMember {
                    label: joiner.into(),
                    weight: cpu_model.mkeys(),
                    backend: Box::new(volunteer),
                },
            },
        },
        ScheduledFleetEvent {
            before_round: 6,
            event: FleetEvent::Leave { label: "A/GeForce GT 540M [simgpu]".into() },
        },
    ];
    let options =
        ClusterOptions { round_keys: Some(1_000_000), events, ..ClusterOptions::default() };
    let result = run_cluster(fleet, &space, &targets, space.interval(), options);

    println!(
        "\nsearch of {} keys over {} rounds ({} rebalances):",
        space.size(),
        result.rounds,
        result.rebalances
    );
    for (name, keys) in &result.per_device {
        println!("  {name:<28} {keys:>10} keys");
    }
    let (id, key, _) = result.hits.first().expect("planted key is in the space");
    println!("cracked \"{key}\" (id {id}); covered {} keys exactly once", result.tested);
    assert_eq!(result.tested, space.size());
    assert_eq!(result.rebalances, 2);
}
