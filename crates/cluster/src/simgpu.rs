//! Simulated GPUs as first-class cluster devices: the [`Backend`] that
//! drives an `eks-kernels` kernel through the `eks-gpusim` IR.
//!
//! A [`SimKernelBackend`] wraps one simulated [`Device`] and plays the
//! role a CUDA context would on real hardware:
//!
//! * **Tuning** — `tuned_rate` is the device's achieved throughput from
//!   the paper's tuning step ([`tune_device`], analytic model), so the
//!   dispatcher assigns it `N_j = N_max · X_j / X_max` candidates just
//!   like any other worker.
//! * **Fidelity** — before bulk-scanning an interval, the backend builds
//!   the algorithm's *naive* kernel for each key length it encounters and
//!   executes the kernel IR (`KernelIr::evaluate`) on sampled candidates,
//!   checking the IR's digest against `eks-hashes`. A mismatch is a
//!   simulator or kernel-builder bug and panics loudly. Each
//!   `(algo, key length)` pair is verified once per process.
//! * **Bulk scan** — interpreting IR per candidate is ~10⁴× slower than
//!   hashing, so the throughput-bearing sweep runs on the 16-lane SIMD
//!   core, the CPU stand-in for a warp executing that same kernel (the
//!   lockstep structure is identical; the fidelity samples pin the
//!   semantics to the real IR).

// Indexing/slicing below is over fixed-size state arrays or lengths
// established by construction; the workspace `clippy::indexing_slicing`
// escalation guards new code, not these proven accesses.
#![allow(clippy::indexing_slicing)]

use std::collections::HashSet;
use std::sync::atomic::AtomicBool;
use std::sync::{Mutex, OnceLock};

use eks_cracker::CpuBackend;
use eks_engine::{Backend, ScanMode, ScanReport, TargetSet};
use eks_gpusim::device::Device;
use eks_hashes::HashAlgo;
use eks_keyspace::{Interval, Key, KeySpace};
use eks_kernels::{
    block_for, build_md4, build_md5, build_sha1, words_for, Md4Variant, Md5Variant, Sha1Variant,
    Tool,
};

use crate::tuning::{tune_device, AchievedModel};

/// Candidates IR-executed per scan for the fidelity check.
const FIDELITY_SAMPLES: u128 = 3;

/// A simulated GPU device as an engine-layer backend.
#[derive(Debug, Clone)]
pub struct SimKernelBackend {
    device: Device,
    bulk: CpuBackend,
}

impl SimKernelBackend {
    /// A backend driving kernels on `device`.
    pub fn new(device: Device) -> Self {
        Self { device, bulk: CpuBackend::default() }
    }

    /// The simulated device.
    pub fn device(&self) -> &Device {
        &self.device
    }
}

impl Backend for SimKernelBackend {
    fn name(&self) -> String {
        "simgpu".into()
    }

    fn scan(
        &self,
        space: &KeySpace,
        targets: &TargetSet,
        interval: Interval,
        stop: &AtomicBool,
        mode: ScanMode,
    ) -> ScanReport {
        let clamped = interval.intersect(&space.interval());
        if !clamped.is_empty() {
            // Pin the scan's semantics to the real kernel IR on a few
            // sampled candidates before the lockstep bulk sweep.
            let step = (clamped.len / FIDELITY_SAMPLES).max(1);
            let mut id = clamped.start;
            while id < clamped.end() {
                verify_kernel_ir(targets.algo(), &space.key_at(id));
                id = match id.checked_add(step) {
                    Some(next) => next,
                    None => break,
                };
            }
        }
        self.bulk.scan(space, targets, interval, stop, mode)
    }

    fn tuned_rate(&self, algo: HashAlgo) -> f64 {
        tune_device(&self.device, Tool::OurApproach, algo, AchievedModel::Analytic).achieved_mkeys
    }
}

/// Check the naive kernel IR digest for `key` against `eks-hashes`,
/// memoizing per `(algo, key length)` — the kernel is built per length,
/// so one verified candidate pins every candidate of that length.
///
/// # Panics
/// Panics when the kernel IR disagrees with the reference hash — that is
/// a kernel-builder or simulator bug, never a caller error.
fn verify_kernel_ir(algo: HashAlgo, key: &Key) {
    static VERIFIED: OnceLock<Mutex<HashSet<(HashAlgo, usize)>>> = OnceLock::new();
    let verified = VERIFIED.get_or_init(|| Mutex::new(HashSet::new()));
    let len = key.len();
    if verified.lock().expect("fidelity cache").contains(&(algo, len)) {
        return;
    }
    let words = words_for(algo, len);
    let block = block_for(algo, key.as_bytes());
    let got: Vec<u8> = match algo {
        HashAlgo::Ntlm => {
            let state: [u32; 4] = build_md4(Md4Variant::Naive, &words)
                .eval(&block)
                .try_into()
                .expect("MD4 outputs 4 words");
            // MD4 shares MD5's little-endian serialization.
            eks_hashes::md5::state_to_digest(state).to_vec()
        }
        HashAlgo::Sha1 => {
            let state: [u32; 5] = build_sha1(Sha1Variant::Naive, &words)
                .eval(&block)
                .try_into()
                .expect("SHA-1 outputs 5 words");
            eks_hashes::sha1::state_to_digest(state).to_vec()
        }
        HashAlgo::Md5 | HashAlgo::Md5Iter { .. } => {
            // An iterated KDF's device kernel is the base MD5
            // compression; the round loop is driver code. Pin the first
            // compression to the IR, then chain the host-side rounds
            // exactly as the driver would (none for plain MD5).
            let state: [u32; 4] = build_md5(Md5Variant::Naive, &words)
                .eval(&block)
                .try_into()
                .expect("MD5 outputs 4 words");
            let mut digest = eks_hashes::md5::state_to_digest(state);
            for _ in 1..algo.rounds_for(key.as_bytes()) {
                digest = eks_hashes::md5::md5_single_block(&digest);
            }
            digest.to_vec()
        }
    };
    let want = algo.hash(key.as_bytes());
    assert_eq!(
        got, want,
        "kernel IR fidelity failure: {algo:?} kernel for length-{len} keys disagrees with eks-hashes"
    );
    verified.lock().expect("fidelity cache").insert((algo, len));
}

#[cfg(test)]
mod tests {
    use super::*;
    use eks_cracker::ScalarBackend;
    use eks_keyspace::{Charset, Order};

    fn space() -> KeySpace {
        KeySpace::new(Charset::lowercase(), 1, 4, Order::FirstCharFastest).unwrap()
    }

    fn backend() -> SimKernelBackend {
        SimKernelBackend::new(Device::geforce_gtx_660())
    }

    #[test]
    fn simgpu_matches_the_scalar_reference() {
        let s = space();
        for algo in [HashAlgo::Md5, HashAlgo::Sha1, HashAlgo::Ntlm] {
            let ds: Vec<Vec<u8>> =
                [&b"a"[..], b"zz", b"cat", b"mnop"].iter().map(|w| algo.hash_long(w)).collect();
            let t = TargetSet::new(algo, &ds);
            let stop = AtomicBool::new(false);
            let want = ScalarBackend.scan(&s, &t, s.interval(), &stop, ScanMode::Exhaustive);
            let got = backend().scan(&s, &t, s.interval(), &stop, ScanMode::Exhaustive);
            assert_eq!(got.hits, want.hits, "{algo:?}");
            assert_eq!(got.tested, want.tested, "{algo:?}");
        }
    }

    #[test]
    fn kernel_ir_fidelity_holds_for_every_algo_and_length() {
        for algo in [HashAlgo::Md5, HashAlgo::Sha1, HashAlgo::Ntlm] {
            for key in [&b"a"[..], b"ab", b"abc", b"dcba", b"qwert", b"zzzzzz"] {
                verify_kernel_ir(algo, &Key::from_bytes(key));
            }
        }
    }

    #[test]
    fn tuned_rate_comes_from_the_device_tuning_step() {
        let b = backend();
        let want = tune_device(
            &Device::geforce_gtx_660(),
            Tool::OurApproach,
            HashAlgo::Md5,
            AchievedModel::Analytic,
        )
        .achieved_mkeys;
        assert_eq!(b.tuned_rate(HashAlgo::Md5), want);
        assert!(want > 0.0);
    }

    #[test]
    fn faster_device_tunes_faster() {
        let fast = SimKernelBackend::new(Device::geforce_gtx_660());
        let slow = SimKernelBackend::new(Device::geforce_8600m_gt());
        assert!(fast.tuned_rate(HashAlgo::Md5) > slow.tuned_rate(HashAlgo::Md5));
    }

    #[test]
    fn backend_name_is_simgpu() {
        assert_eq!(backend().name(), "simgpu");
    }
}
