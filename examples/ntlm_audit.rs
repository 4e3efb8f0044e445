//! An NTLM audit session end-to-end: the workflow a security team runs
//! against a dumped SAM table, with every layer of this repository in the
//! loop — a dispatched all-hits sweep, per-account findings, and
//! time-to-crack estimates on the paper's GPUs.
//!
//! Run with: `cargo run --release --example ntlm_audit`

use eks::cluster::{estimate_against_device, StrengthEstimate};
use eks::cracker::{run_audit, AuditEntry};
use eks::gpusim::device::Device;
use eks::hashes::{to_hex, HashAlgo};
use eks::keyspace::{Charset, KeySpace, Order};

fn main() {
    // The "dumped table": NTLM hashes (how they'd arrive, we only see
    // digests). The passwords behind them vary in strength.
    let truth: Vec<(&str, &[u8])> = vec![
        ("svc_backup", b"a"),
        ("j.smith", b"dog"),
        ("admin", b"zzz"),
        ("m.jones", b"qwrt"),
        ("ceo", b"Xk9qWz77"), // outside the lowercase sweep: survives
    ];
    let entries: Vec<AuditEntry> = truth
        .iter()
        .map(|(account, pw)| AuditEntry {
            account: account.to_string(),
            digest: HashAlgo::Ntlm.hash(pw),
        })
        .collect();

    println!("NTLM table under audit:");
    for e in &entries {
        println!("  {:<12} {}", e.account, to_hex(&e.digest));
    }

    // Sweep lowercase 1..=4 — the "weak password" band.
    let space = KeySpace::new(Charset::lowercase(), 1, 4, Order::FirstCharFastest).unwrap();
    println!("\nsweeping {} candidates (lowercase, 1..=4 chars)...", space.size());
    let report = run_audit(&space, HashAlgo::Ntlm, &entries).expect("NTLM-length digests");
    print!("\n{}", report.render());

    // How long each cracked password would survive a GTX 660 sweeping the
    // full alphanumeric space — the remediation priority column.
    let full_space =
        KeySpace::new(Charset::alphanumeric(), 1, 8, Order::FirstCharFastest).unwrap();
    let gpu = Device::geforce_gtx_660();
    println!("\ntime-to-crack on a GTX 660 over alphanumeric 1..=8 (NTLM):");
    for f in &report.findings {
        match estimate_against_device(&f.password, &full_space, HashAlgo::Ntlm, &gpu) {
            Some(e) => println!(
                "  {:<12} {:<10} falls in {}",
                f.account,
                format!("{:?}", f.password.to_string()),
                StrengthEstimate::render_duration(e.time_to_reach_s)
            ),
            None => println!("  {:<12} outside the space", f.account),
        }
    }
    println!("\nsurvivor \"ceo\" used length-8 mixed classes — the audit's point.");
}
