//! Password-strength estimation: how long a given password survives a
//! brute-force sweep on a given device or cluster — the number an audit
//! report translates the paper's MKey/s tables into.
//!
//! Two horizons are reported: the *exact* time until the enumeration
//! reaches the password (its identifier over the throughput — meaningful
//! because the enumeration order is public), and the *expected* time for
//! an attacker sweeping the whole space (half the space on average,
//! worst-case all of it).

use eks_gpusim::device::Device;
use eks_hashes::HashAlgo;
use eks_keyspace::{Key, KeySpace};
use eks_kernels::Tool;

use crate::spec::ClusterNode;
use crate::tuning::{tune_device, AchievedModel};

/// Strength verdict for one password against one attacker throughput.
#[derive(Debug, Clone, PartialEq)]
pub struct StrengthEstimate {
    /// The attacking throughput, MKey/s.
    pub attacker_mkeys: f64,
    /// Seconds until the sweep reaches this exact password.
    pub time_to_reach_s: f64,
    /// Seconds to sweep the whole space (the survivor guarantee).
    pub full_sweep_s: f64,
    /// Candidates in the space.
    pub space_size: u128,
}

impl StrengthEstimate {
    /// Human-scale rendering of a duration.
    pub fn render_duration(seconds: f64) -> String {
        const MINUTE: f64 = 60.0;
        const HOUR: f64 = 3_600.0;
        const DAY: f64 = 86_400.0;
        const YEAR: f64 = 365.25 * DAY;
        if seconds < 1.0 {
            format!("{:.0} ms", seconds * 1e3)
        } else if seconds < MINUTE {
            format!("{seconds:.1} s")
        } else if seconds < HOUR {
            format!("{:.1} min", seconds / MINUTE)
        } else if seconds < DAY {
            format!("{:.1} h", seconds / HOUR)
        } else if seconds < YEAR {
            format!("{:.1} days", seconds / DAY)
        } else {
            format!("{:.1} years", seconds / YEAR)
        }
    }
}

/// Estimate how `password` fares against one device.
///
/// Returns `None` when the password is not inside `space` (different
/// charset or length) — such a password survives this particular sweep
/// outright.
pub fn estimate_against_device(
    password: &Key,
    space: &KeySpace,
    algo: HashAlgo,
    device: &Device,
) -> Option<StrengthEstimate> {
    let t = tune_device(device, Tool::OurApproach, algo, AchievedModel::Analytic);
    estimate_at_rate(password, space, t.achieved_mkeys)
}

/// Estimate against a whole cluster (sum of tuned device rates).
pub fn estimate_against_cluster(
    password: &Key,
    space: &KeySpace,
    algo: HashAlgo,
    cluster: &ClusterNode,
) -> Option<StrengthEstimate> {
    let rate: f64 = cluster
        .all_devices()
        .iter()
        .map(|d| tune_device(d, Tool::OurApproach, algo, AchievedModel::Analytic).achieved_mkeys)
        .sum::<f64>()
        + cluster
            .all_cpus()
            .iter()
            .map(|c| crate::tuning::tune_cpu(c, algo).achieved_mkeys)
            .sum::<f64>();
    estimate_at_rate(password, space, rate)
}

/// Estimate at an explicit throughput (MKey/s).
fn estimate_at_rate(
    password: &Key,
    space: &KeySpace,
    mkeys: f64,
) -> Option<StrengthEstimate> {
    assert!(mkeys > 0.0);
    let id = space.id_of(password)?;
    let keys_per_s = mkeys * 1e6;
    Some(StrengthEstimate {
        attacker_mkeys: mkeys,
        time_to_reach_s: (id + 1) as f64 / keys_per_s,
        full_sweep_s: space.size() as f64 / keys_per_s,
        space_size: space.size(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::paper_network;
    use eks_keyspace::{Charset, Order};

    fn space() -> KeySpace {
        KeySpace::new(Charset::alphanumeric(), 1, 8, Order::FirstCharFastest).unwrap()
    }

    #[test]
    fn longer_passwords_survive_longer() {
        let s = space();
        let d = Device::geforce_gtx_660();
        let short = estimate_against_device(&Key::from_bytes(b"zz"), &s, HashAlgo::Md5, &d)
            .expect("member");
        let long = estimate_against_device(&Key::from_bytes(b"zzzzzzzz"), &s, HashAlgo::Md5, &d)
            .expect("member");
        assert!(long.time_to_reach_s > short.time_to_reach_s * 1e6);
    }

    #[test]
    fn full_sweep_of_the_paper_space_on_the_660_takes_about_33_hours() {
        // 2.22e14 candidates at ~1847 MKey/s ≈ 1.2e5 s ≈ 33 h — the
        // headline practical consequence of Table VIII.
        let s = space();
        let d = Device::geforce_gtx_660();
        let e = estimate_against_device(&Key::from_bytes(b"a"), &s, HashAlgo::Md5, &d).unwrap();
        let hours = e.full_sweep_s / 3600.0;
        assert!((25.0..45.0).contains(&hours), "{hours} h");
    }

    #[test]
    fn cluster_beats_single_device() {
        let s = space();
        let net = paper_network(2e-3);
        let k = Key::from_bytes(b"Zz9Zz9");
        let single =
            estimate_against_device(&k, &s, HashAlgo::Md5, &Device::geforce_gtx_660()).unwrap();
        let cluster = estimate_against_cluster(&k, &s, HashAlgo::Md5, &net).unwrap();
        assert!(cluster.attacker_mkeys > single.attacker_mkeys * 1.5);
        assert!(cluster.full_sweep_s < single.full_sweep_s);
    }

    #[test]
    fn out_of_space_passwords_survive() {
        let s = space();
        let d = Device::geforce_gtx_660();
        // '!' is not alphanumeric: this sweep can never reach it.
        assert!(estimate_against_device(&Key::from_bytes(b"p@ss"), &s, HashAlgo::Md5, &d).is_none());
        // Too long for the space.
        assert!(
            estimate_against_device(&Key::from_bytes(b"zzzzzzzzz"), &s, HashAlgo::Md5, &d)
                .is_none()
        );
    }

    #[test]
    fn duration_rendering() {
        assert_eq!(StrengthEstimate::render_duration(0.5), "500 ms");
        assert_eq!(StrengthEstimate::render_duration(30.0), "30.0 s");
        assert_eq!(StrengthEstimate::render_duration(120.0), "2.0 min");
        assert_eq!(StrengthEstimate::render_duration(7200.0), "2.0 h");
        assert_eq!(StrengthEstimate::render_duration(2.0 * 86_400.0), "2.0 days");
        assert!(StrengthEstimate::render_duration(1e9).contains("years"));
    }

    #[test]
    fn ntlm_falls_faster_than_md5() {
        let s = space();
        let d = Device::geforce_gtx_660();
        let k = Key::from_bytes(b"Zz9Zz9");
        let md5 = estimate_against_device(&k, &s, HashAlgo::Md5, &d).unwrap();
        let ntlm = estimate_against_device(&k, &s, HashAlgo::Ntlm, &d).unwrap();
        assert!(ntlm.full_sweep_s < md5.full_sweep_s);
    }
}
