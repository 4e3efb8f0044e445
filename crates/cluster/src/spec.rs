//! Cluster description: a tree of nodes holding GPU devices.

use eks_gpusim::device::Device;

/// One GPU installed in a node.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSlot {
    /// The device model.
    pub device: Device,
}

/// A multicore-CPU worker on a node — the paper's stated future work
/// ("we plan to apply the proposed parallelization pattern to other
/// architectures, including multicore CPUs"). Unlike the simulated GPUs,
/// a CPU worker's throughput is *measured* on the host by the tuning
/// step, and its searches run for real.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuWorker {
    /// Display name.
    pub name: String,
    /// Worker threads this CPU contributes.
    pub threads: usize,
}

/// A node in the dispatch tree. A node may hold devices (computing node),
/// children (dispatcher), or both — the paper's node C both dispatches to
/// D and computes on its own 8600M GT.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterNode {
    /// Node name ("A", "B", ...).
    pub name: String,
    /// Devices hosted on this node.
    pub devices: Vec<GpuSlot>,
    /// CPU workers hosted on this node.
    pub cpus: Vec<CpuWorker>,
    /// Child subtrees this node dispatches to.
    pub children: Vec<ClusterNode>,
    /// One-way message latency to this node from its parent, seconds.
    pub link_latency_s: f64,
}

impl ClusterNode {
    /// A leaf computing node.
    pub fn device_node(name: &str, devices: Vec<Device>, link_latency_s: f64) -> Self {
        Self {
            name: name.to_string(),
            devices: devices.into_iter().map(|device| GpuSlot { device }).collect(),
            cpus: Vec::new(),
            children: Vec::new(),
            link_latency_s,
        }
    }

    /// Attach a child subtree.
    fn with_child(mut self, child: ClusterNode) -> Self {
        self.children.push(child);
        self
    }

    /// Attach a CPU worker to this node.
    pub fn with_cpu(mut self, name: &str, threads: usize) -> Self {
        assert!(threads >= 1);
        self.cpus.push(CpuWorker { name: name.to_string(), threads });
        self
    }

    /// All CPU workers in this subtree, depth-first.
    pub fn all_cpus(&self) -> Vec<&CpuWorker> {
        let mut out: Vec<&CpuWorker> = self.cpus.iter().collect();
        for c in &self.children {
            out.extend(c.all_cpus());
        }
        out
    }

    /// All devices in this subtree, depth-first.
    pub fn all_devices(&self) -> Vec<&Device> {
        let mut out: Vec<&Device> = self.devices.iter().map(|s| &s.device).collect();
        for c in &self.children {
            out.extend(c.all_devices());
        }
        out
    }

    /// Number of nodes in the subtree (including this one).
    pub fn node_count(&self) -> usize {
        1 + self.children.iter().map(|c| c.node_count()).sum::<usize>()
    }

    /// Depth of the subtree (a single node has depth 1).
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(|c| c.depth()).max().unwrap_or(0)
    }

    /// Find a node by name.
    pub fn find(&self, name: &str) -> Option<&ClusterNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Remove the named subtree; returns whether anything was removed.
    /// (Used by the fault model: a dead dispatcher takes its subtree with
    /// it — the weakness the paper points out.)
    pub fn remove_subtree(&mut self, name: &str) -> bool {
        let before = self.children.len();
        self.children.retain(|c| c.name != name);
        if self.children.len() != before {
            return true;
        }
        self.children.iter_mut().any(|c| c.remove_subtree(name))
    }
}

/// The paper's evaluation network (Section VI-A):
///
/// * node A (GT 540M) dispatches to B and C;
/// * node B holds a GTX 660 and a GTX 550 Ti;
/// * node C (8600M GT) dispatches to D;
/// * node D holds an 8800 GTS 512.
///
/// `link_latency_s` applies to every edge (the paper's LAN).
pub fn paper_network(link_latency_s: f64) -> ClusterNode {
    ClusterNode::device_node("A", vec![Device::geforce_gt_540m()], 0.0)
        .with_child(ClusterNode::device_node(
            "B",
            vec![Device::geforce_gtx_660(), Device::geforce_gtx_550_ti()],
            link_latency_s,
        ))
        .with_child(
            ClusterNode::device_node("C", vec![Device::geforce_8600m_gt()], link_latency_s)
                .with_child(ClusterNode::device_node(
                    "D",
                    vec![Device::geforce_8800_gts_512()],
                    link_latency_s,
                )),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_network_shape() {
        let net = paper_network(1e-3);
        assert_eq!(net.node_count(), 4);
        assert_eq!(net.depth(), 3, "A -> C -> D");
        assert_eq!(net.all_devices().len(), 5, "five GPUs");
        assert_eq!(net.find("B").unwrap().devices.len(), 2);
        assert_eq!(net.find("D").unwrap().devices.len(), 1);
        assert!(net.find("E").is_none());
    }

    #[test]
    fn device_placement_matches_section_vi() {
        let net = paper_network(1e-3);
        let names = |node: &ClusterNode| -> Vec<String> {
            node.devices.iter().map(|slot| slot.device.name.to_string()).collect()
        };
        assert_eq!(names(&net), ["GeForce GT 540M"]);
        let b = net.find("B").unwrap();
        assert_eq!(names(b), ["GeForce GTX 660", "GeForce GTX 550 Ti"]);
        let c = net.find("C").unwrap();
        assert_eq!(names(c), ["GeForce 8600M GT"]);
        let below_c: Vec<Vec<String>> = c.children.iter().map(names).collect();
        assert_eq!(below_c, [["GeForce 8800 GTS 512"]]);
    }

    #[test]
    fn remove_subtree_drops_descendants() {
        let mut net = paper_network(1e-3);
        assert!(net.remove_subtree("C"));
        assert_eq!(net.node_count(), 2, "C takes D with it");
        assert_eq!(net.all_devices().len(), 3);
        assert!(!net.remove_subtree("C"), "already gone");
    }

    #[test]
    fn remove_leaf_keeps_parent() {
        let mut net = paper_network(1e-3);
        assert!(net.remove_subtree("D"));
        assert_eq!(net.node_count(), 3);
        assert!(net.find("C").is_some());
    }
}
