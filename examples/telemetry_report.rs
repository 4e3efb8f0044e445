//! Observability end-to-end: crack a small keyspace on a simulated
//! heterogeneous cluster with telemetry enabled, then render the run
//! report from the exposition artifacts alone — the same pipeline as
//! `eks crack --metrics-out/--trace-out` followed by `eks report`.
//!
//! The cluster mixes a simulated Kepler GPU (GTX 660), a simulated
//! Fermi GPU (GTX 550 Ti) and two real CPU lane workers, so the
//! per-device tuned rates differ by an order of magnitude and the
//! §III proportional scatter actually has something to balance. The
//! report puts the measured network efficiency next to the 85–90%
//! band the paper reports for its four-node network.
//!
//! Run with: `cargo run --release --example telemetry_report`

use eks::cluster::{plan_fleet, run_cluster, ClusterOptions};
use eks::cracker::TargetSet;
use eks::engine::SchedPolicy;
use eks::gpusim::device::Device;
use eks::hashes::HashAlgo;
use eks::keyspace::{Charset, KeySpace, Order};
use eks::telemetry::report::{render_report, PAPER_EFFICIENCY_RANGE};
use eks::telemetry::{parse_prometheus, parse_trace_jsonl, Telemetry};

fn main() {
    // A heterogeneous node: two simulated GPUs of different
    // generations plus two CPU lane workers.
    let net = eks::cluster::ClusterNode::device_node(
        "box",
        vec![Device::geforce_gtx_660(), Device::geforce_gtx_550_ti()],
        0.0,
    )
    .with_cpu("host-cpu", 2);
    println!("cluster: box(660, 550Ti, cpu:2)\n");

    // The search: all lowercase strings of length 1..=4, exhaustive
    // (no early exit), so every worker's share is real work.
    let space = KeySpace::new(Charset::lowercase(), 1, 4, Order::FirstCharFastest).unwrap();
    let secret = b"gpus";
    let targets = TargetSet::new(HashAlgo::Md5, &[HashAlgo::Md5.hash(secret)]);

    // Run with a live registry + trace sink; the steal scheduler
    // repairs whatever the tuned-rate scatter got wrong.
    let telemetry = Telemetry::enabled();
    let fleet = plan_fleet(&net, HashAlgo::Md5, &telemetry);
    let options = ClusterOptions {
        sched: SchedPolicy::Steal,
        telemetry: telemetry.clone(),
        ..ClusterOptions::default()
    };
    let result = run_cluster(fleet, &space, &targets, space.interval(), options);
    let (_, key, _) = result.hits.first().expect("planted key is in the space");
    println!("cracked \"{key}\" — {} keys tested\n", result.tested);

    // Round-trip through the on-disk formats: everything below uses
    // only what `--metrics-out` / `--trace-out` would have written.
    let samples = parse_prometheus(&telemetry.render_prometheus()).expect("valid exposition");
    let trace = parse_trace_jsonl(&telemetry.trace_jsonl()).expect("valid trace JSONL");
    print!("{}", render_report(&samples, &trace));

    let (lo, hi) = PAPER_EFFICIENCY_RANGE;
    println!(
        "\nmeasured parallel efficiency {:.1}% — the paper's whole-network band is {lo:.0}-{hi:.0}%",
        result.parallel_efficiency()
    );
}
