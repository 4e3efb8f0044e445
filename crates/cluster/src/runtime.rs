//! A real multi-threaded cluster runtime.
//!
//! The DES predicts *performance*; this module executes the same
//! hierarchical dispatch for *real*. Planning walks the node tree
//! exactly as the paper's scatter step does — every interval is split by
//! the tuned throughput ratios (`N_j = N_max · X_j / X_max`) at every
//! level — and yields one [`eks_engine::Backend`] leaf per device thread:
//! a [`SimKernelBackend`] per simulated GPU, a [`CpuBackend`] per CPU
//! worker thread (the widest explicit-SIMD kernel the CPU has, or the
//! portable lanes where it has none). Execution then runs every leaf
//! through one [`Dispatcher`], which owns the shared stop flag (the
//! paper's periodic stop-condition check), the hit merge, and the
//! per-device accounting.

// Indexing/slicing below is over fixed-size state arrays or lengths
// established by construction; the workspace `clippy::indexing_slicing`
// escalation guards new code, not these proven accesses.
#![allow(clippy::indexing_slicing)]

use eks_hashes::HashAlgo;
use eks_keyspace::{Interval, Key, KeySpace};

use eks_cracker::target::TargetSet;
use eks_cracker::CpuBackend;
use eks_engine::{
    Backend, DequeLeaf, Dispatcher, IntervalDeques, Retune, ScanMode, SchedOptions, SchedPolicy,
    WorkerId, WorkerStats,
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
    /// Candidates actually tested across the whole tree.
    pub tested: u128,
    /// Per-device `(node/device [backend], tested)` accounting, tree order.
    pub per_device: Vec<(String, u128)>,
    /// Full per-device scheduler stats, same order as `per_device`.
    pub stats: Vec<WorkerStats>,
}

impl ClusterSearchResult {
    /// Whole-network parallel efficiency in percent: the busy fraction of
    /// the total worker time, `Σ busy / (Σ busy + Σ idle) · 100`. This is
    /// the measured counterpart of the paper's 85–90% whole-network
    /// efficiency (Tables VII–IX). A run where no clock ticked (for
    /// example an empty interval) reports `0` rather than NaN.
    pub fn parallel_efficiency(&self) -> f64 {
        cluster_efficiency_pct(&self.stats)
    }
}

/// Busy fraction of total worker time across a set of worker stats, in
/// percent; `0` when no time was recorded.
pub(crate) fn cluster_efficiency_pct(stats: &[WorkerStats]) -> f64 {
    let busy: u64 = stats.iter().map(|w| w.busy_ns).sum();
    let idle: u64 = stats.iter().map(|w| w.idle_ns).sum();
    let total = busy.saturating_add(idle);
    if total == 0 {
        0.0
    } else {
        100.0 * busy as f64 / total as f64
    }
}

/// One planned unit of execution: a pre-assigned slice of the keyspace,
/// the backend that scans it, and the worker it is credited to. A CPU
/// worker's threads share one `worker` id, so accounting stays
/// per-device rather than per-thread.
struct Leaf {
    worker: WorkerId,
    backend: Box<dyn Backend>,
    interval: Interval,
}

/// Execute a search over the cluster with the static (purely
/// rate-proportional) schedule: every leaf scans exactly its planned
/// share, so per-device accounting reproduces the paper's
/// `N_j = N_max · X_j / X_max` split. See [`run_cluster_search_sched`]
/// to let drained leaves rebalance by stealing.
pub fn run_cluster_search(
    root: &ClusterNode,
    space: &KeySpace,
    targets: &TargetSet,
    interval: Interval,
    first_hit_only: bool,
) -> ClusterSearchResult {
    run_cluster_search_sched(root, space, targets, interval, first_hit_only, SchedPolicy::Static)
}

/// Execute a search over the cluster: planning mirrors the dispatch
/// tree (rate-proportional scatter), execution runs every leaf as an
/// interval-deque owner under one [`Dispatcher`] with the chosen
/// scheduling policy — [`SchedPolicy::Static`] keeps each leaf on its
/// planned share, the stealing policies let drained leaves take the
/// back half of the largest remaining deque. `first_hit_only` stops the
/// whole tree at the first match.
pub fn run_cluster_search_sched(
    root: &ClusterNode,
    space: &KeySpace,
    targets: &TargetSet,
    interval: Interval,
    first_hit_only: bool,
    sched: SchedPolicy,
) -> ClusterSearchResult {
    run_cluster_search_observed(
        root,
        space,
        targets,
        interval,
        first_hit_only,
        sched,
        &Telemetry::disabled(),
    )
}

/// [`run_cluster_search_sched`] with telemetry attached: the scatter
/// (planning) and gather/merge steps run under spans, every device
/// publishes its tuned rate as a gauge, CPU leaves use the observed
/// batch path, and the whole-network efficiency
/// ([`ClusterSearchResult::parallel_efficiency`]) lands in the
/// [`names::CLUSTER_EFFICIENCY_PCT`] gauge — the measured number the
/// paper reports as 85–90%.
pub fn run_cluster_search_observed(
    root: &ClusterNode,
    space: &KeySpace,
    targets: &TargetSet,
    interval: Interval,
    first_hit_only: bool,
    sched: SchedPolicy,
    telemetry: &Telemetry,
) -> ClusterSearchResult {
    run_cluster_search_retuned(
        root,
        space,
        targets,
        interval,
        first_hit_only,
        sched,
        None,
        telemetry,
    )
}

/// [`run_cluster_search_observed`] with an optional closed-loop
/// [`Retune`]: when set, every leaf feeds its chunk timings into a
/// shared rate book and the deques are re-scattered whenever the live
/// estimated-time-to-drain divergence exceeds the drift threshold.
/// `None` reproduces [`run_cluster_search_observed`] exactly.
#[allow(clippy::too_many_arguments)]
pub fn run_cluster_search_retuned(
    root: &ClusterNode,
    space: &KeySpace,
    targets: &TargetSet,
    interval: Interval,
    first_hit_only: bool,
    sched: SchedPolicy,
    retune: Option<Retune>,
    telemetry: &Telemetry,
) -> ClusterSearchResult {
    let dispatcher = Dispatcher::new(space, targets, ScanMode::from_first_hit(first_hit_only))
        .with_telemetry(telemetry.clone());
    let mut leaves = Vec::new();
    {
        let scatter = telemetry.span(names::SPAN_SCATTER);
        plan_node(root, targets.algo(), interval, &dispatcher, telemetry, &mut leaves);
        scatter.field("leaves", leaves.len()).finish();
    }
    if !leaves.is_empty() {
        let deques = IntervalDeques::assign(leaves.iter().map(|l| l.interval).collect());
        let deque_leaves: Vec<DequeLeaf<'_>> = leaves
            .iter()
            .map(|l| DequeLeaf { worker: l.worker, backend: l.backend.as_ref() })
            .collect();
        let mut opts = SchedOptions::for_policy(sched, CLUSTER_CHUNK);
        if let Some(r) = retune {
            opts = opts.with_retune(r);
        }
        dispatcher.run_deques(&deque_leaves, &deques, opts);
    }
    let merge = telemetry.span(names::SPAN_MERGE);
    let report = dispatcher.finish();
    merge.field("hits", report.hits.len()).finish();
    let result = ClusterSearchResult {
        hits: report.hits,
        tested: report.tested,
        per_device: report.per_worker,
        stats: report.stats,
    };
    if telemetry.is_enabled() {
        telemetry
            .gauge(names::CLUSTER_EFFICIENCY_PCT, &[])
            .set(result.parallel_efficiency());
    }
    result
}

/// Dispatch weight of a subtree: the sum of its devices' and CPU
/// workers' tuned rates.
fn subtree_rate(node: &ClusterNode, algo: HashAlgo) -> f64 {
    let gpus: f64 = node
        .devices
        .iter()
        .map(|s| SimKernelBackend::new(s.device.clone()).tuned_rate(algo))
        .sum();
    let cpus: f64 = node.cpus.iter().map(|c| tune_cpu(c, algo).achieved_mkeys).sum();
    gpus + cpus + node.children.iter().map(|c| subtree_rate(c, algo)).sum::<f64>()
}

/// The scatter step: split `interval` over this node's devices, CPUs and
/// children by tuned rate, register one worker per device/CPU (in tree
/// order), and emit the execution leaves.
fn plan_node(
    node: &ClusterNode,
    algo: HashAlgo,
    interval: Interval,
    dispatcher: &Dispatcher<'_>,
    telemetry: &Telemetry,
    leaves: &mut Vec<Leaf>,
) {
    let backends: Vec<SimKernelBackend> =
        node.devices.iter().map(|s| SimKernelBackend::new(s.device.clone())).collect();
    let mut weights: Vec<f64> = backends.iter().map(|b| b.tuned_rate(algo)).collect();
    weights.extend(node.cpus.iter().map(|c| tune_cpu(c, algo).achieved_mkeys));
    weights.extend(node.children.iter().map(|c| subtree_rate(c, algo)));
    if weights.is_empty() {
        return;
    }
    let parts = interval.split_weighted(&weights);
    let n_devices = node.devices.len();
    let n_cpus = node.cpus.len();
    for (i, part) in parts.iter().enumerate() {
        if i < n_devices {
            let backend = backends[i].clone();
            let label =
                format!("{}/{} [{}]", node.name, node.devices[i].device.name, backend.name());
            if telemetry.is_enabled() {
                telemetry.gauge(names::DEVICE_RATE_MKEYS, &[("device", &label)]).set(weights[i]);
            }
            let worker = dispatcher.register(label);
            leaves.push(Leaf { worker, backend: Box::new(backend), interval: *part });
        } else if i < n_devices + n_cpus {
            // A CPU worker fans its share out over its own threads; all
            // of them are credited to the one device-level worker. Each
            // thread runs the detected kernel (the widest explicit-SIMD
            // ISA, else the portable lanes) — the paper's §V
            // per-architecture specialization applied at scatter time.
            let cpu = &node.cpus[i - n_devices];
            let backend = CpuBackend::default().with_telemetry(telemetry.clone());
            let label =
                format!("{}/{} [auto:{}]", node.name, cpu.name, backend.kernel().name());
            if telemetry.is_enabled() {
                telemetry.gauge(names::DEVICE_RATE_MKEYS, &[("device", &label)]).set(weights[i]);
                if let Some(isa) = backend.isa(algo) {
                    telemetry
                        .gauge(names::BACKEND_ISA, &[("backend", "auto"), ("isa", &isa)])
                        .set(1.0);
                }
            }
            let worker = dispatcher.register(label);
            // Clones share the telemetry registry.
            for sub in part.split_even(cpu.threads) {
                leaves.push(Leaf { worker, backend: Box::new(backend.clone()), interval: sub });
            }
        } else {
            plan_node(
                &node.children[i - n_devices - n_cpus],
                algo,
                *part,
                dispatcher,
                telemetry,
                leaves,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::paper_network;
    use eks_keyspace::{Charset, Order};

    fn space() -> KeySpace {
        KeySpace::new(Charset::lowercase(), 1, 4, Order::FirstCharFastest).unwrap()
    }

    fn targets(words: &[&[u8]]) -> TargetSet {
        let ds: Vec<Vec<u8>> = words.iter().map(|w| HashAlgo::Md5.hash_long(w)).collect();
        TargetSet::new(HashAlgo::Md5, &ds)
    }

    #[test]
    fn cluster_cracks_a_real_password() {
        let net = paper_network(1e-3);
        let s = space();
        let t = targets(&[b"gpus"]);
        let r = run_cluster_search(&net, &s, &t, s.interval(), true);
        assert_eq!(r.hits.len(), 1);
        assert_eq!(r.hits[0].1.as_bytes(), b"gpus");
    }

    #[test]
    fn full_sweep_covers_every_key_exactly_once() {
        let net = paper_network(1e-3);
        let s = space();
        let t = targets(&[b"zzzz"]); // last key: forces a full sweep
        let r = run_cluster_search(&net, &s, &t, s.interval(), false);
        assert_eq!(r.tested, s.size(), "every key tested exactly once");
        assert_eq!(r.hits.len(), 1);
        assert_eq!(r.per_device.len(), 5, "five devices participated");
    }

    #[test]
    fn multiple_targets_all_found() {
        let net = paper_network(1e-3);
        let s = space();
        let t = targets(&[b"cat", b"dog", b"bird"]);
        let r = run_cluster_search(&net, &s, &t, s.interval(), false);
        let keys: Vec<&[u8]> = r.hits.iter().map(|(_, k, _)| k.as_bytes()).collect();
        assert_eq!(keys.len(), 3);
        for w in [&b"cat"[..], b"dog", b"bird"] {
            assert!(keys.contains(&w));
        }
    }

    #[test]
    fn work_split_follows_throughput_ratios() {
        let net = paper_network(1e-3);
        let s = space();
        let t = targets(&[b"zzzz"]);
        let r = run_cluster_search(&net, &s, &t, s.interval(), false);
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
    fn device_workers_are_labelled_with_the_simgpu_backend() {
        let net = paper_network(1e-3);
        let s = space();
        let t = targets(&[b"zzzz"]);
        let r = run_cluster_search(&net, &s, &t, s.interval(), false);
        assert!(r.per_device.iter().all(|(n, _)| n.contains("[simgpu]")), "{:?}", r.per_device);
    }

    #[test]
    fn pruned_network_still_finds_the_key() {
        let mut net = paper_network(1e-3);
        assert!(net.remove_subtree("C"));
        let s = space();
        let t = targets(&[b"mice"]);
        let r = run_cluster_search(&net, &s, &t, s.interval(), true);
        assert_eq!(r.hits.len(), 1);
        assert_eq!(r.hits[0].1.as_bytes(), b"mice");
    }

    #[test]
    fn single_node_degenerate_cluster_works() {
        let net = crate::spec::ClusterNode::device_node(
            "solo",
            vec![eks_gpusim::device::Device::geforce_gtx_660()],
            0.0,
        );
        let s = space();
        let t = targets(&[b"owl"]);
        let r = run_cluster_search(&net, &s, &t, s.interval(), true);
        assert_eq!(r.hits[0].1.as_bytes(), b"owl");
    }

    #[test]
    fn hybrid_cpu_gpu_node_cracks() {
        // Paper future work: "apply the proposed parallelization pattern
        // to other architectures, including multicore CPUs".
        let net = crate::spec::ClusterNode::device_node(
            "hybrid",
            vec![eks_gpusim::device::Device::geforce_gtx_660()],
            0.0,
        )
        .with_cpu("host-cpu", 2);
        let s = space();
        let t = targets(&[b"fox"]);
        let r = run_cluster_search(&net, &s, &t, s.interval(), true);
        assert_eq!(r.hits[0].1.as_bytes(), b"fox");
    }

    #[test]
    fn heterogeneous_cluster_accounts_both_backend_kinds() {
        // The acceptance scenario: a spec mixing CPU workers and a
        // simulated GPU runs end-to-end through the Backend trait, finds
        // the planted key, and the per-device table shows both kinds.
        let net = crate::spec::ClusterNode::device_node(
            "hetero",
            vec![eks_gpusim::device::Device::geforce_gtx_660()],
            0.0,
        )
        .with_cpu("host-cpu", 2);
        let s = space();
        let t = targets(&[b"zzzz"]); // full sweep: every worker tests
        let r = run_cluster_search(&net, &s, &t, s.interval(), false);
        assert_eq!(r.hits.len(), 1);
        assert_eq!(r.tested, s.size());
        let gpu = r.per_device.iter().find(|(n, _)| n.contains("[simgpu]")).expect("gpu worker");
        let cpu = r.per_device.iter().find(|(n, _)| n.contains("[auto:")).expect("cpu worker");
        assert!(gpu.1 > 0, "gpu tested its share");
        assert!(cpu.1 > 0, "cpu tested its share");
        assert_eq!(gpu.1 + cpu.1, r.tested);
    }

    #[test]
    fn cpu_only_cluster_full_sweep() {
        let net = crate::spec::ClusterNode::device_node("cpu-box", vec![], 0.0)
            .with_cpu("cpu0", 2)
            .with_cpu("cpu1", 2);
        let s = space();
        let t = targets(&[b"zzzz"]);
        let r = run_cluster_search(&net, &s, &t, s.interval(), false);
        assert_eq!(r.tested, s.size(), "cpu workers cover the space exactly");
        assert_eq!(r.hits.len(), 1);
        assert_eq!(r.per_device.len(), 2);
    }

    #[test]
    fn empty_interval_is_fine() {
        let net = paper_network(1e-3);
        let s = space();
        let t = targets(&[b"cat"]);
        let r = run_cluster_search(&net, &s, &t, Interval::new(0, 0), true);
        assert!(r.hits.is_empty());
        assert_eq!(r.tested, 0);
    }

    #[test]
    fn steal_schedule_still_covers_exactly_once() {
        let net = paper_network(1e-3);
        let s = space();
        let t = targets(&[b"zzzz"]);
        let r = run_cluster_search_sched(
            &net,
            &s,
            &t,
            s.interval(),
            false,
            SchedPolicy::Steal,
        );
        assert_eq!(r.tested, s.size(), "stealing neither drops nor doubles keys");
        assert_eq!(r.hits.len(), 1);
        assert_eq!(r.stats.len(), r.per_device.len());
        let steals: u64 = r.stats.iter().map(|w| w.steals).sum();
        let splits: u64 = r.stats.iter().map(|w| w.splits).sum();
        assert_eq!(steals, splits, "every steal splits exactly one victim");
    }

    #[test]
    fn observed_search_fills_registry_and_trace() {
        let telemetry = Telemetry::enabled();
        let net = paper_network(1e-3).with_cpu("host-cpu", 2);
        let s = space();
        let t = targets(&[b"zzzz"]);
        let r = run_cluster_search_observed(
            &net,
            &s,
            &t,
            s.interval(),
            false,
            SchedPolicy::Static,
            &telemetry,
        );
        assert_eq!(r.tested, s.size());
        let eff = r.parallel_efficiency();
        assert!(eff > 0.0 && eff <= 100.0, "{eff}");
        let text = telemetry.render_prometheus();
        assert!(text.contains(names::KEYS_TESTED), "{text}");
        assert!(text.contains(names::DEVICE_RATE_MKEYS), "{text}");
        assert!(text.contains(names::CLUSTER_EFFICIENCY_PCT), "{text}");
        let jsonl = telemetry.trace_jsonl();
        assert!(jsonl.contains("\"scatter\""), "{jsonl}");
        assert!(jsonl.contains("\"merge\""), "{jsonl}");
        assert!(jsonl.contains("\"scan\""), "{jsonl}");
    }

    #[test]
    fn efficiency_of_an_empty_run_is_zero_not_nan() {
        let r = ClusterSearchResult {
            hits: vec![],
            tested: 0,
            per_device: vec![],
            stats: vec![],
        };
        assert_eq!(r.parallel_efficiency(), 0.0);
    }

    #[test]
    fn static_schedule_reports_no_steals() {
        let net = paper_network(1e-3);
        let s = space();
        let t = targets(&[b"zzzz"]);
        let r = run_cluster_search(&net, &s, &t, s.interval(), false);
        assert!(r.stats.iter().all(|w| w.steals == 0 && w.splits == 0), "{:?}", r.stats);
    }
}
