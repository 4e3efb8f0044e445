//! The small informational and single-shot commands: `hash`, `mine`,
//! `devices`, `disasm`, `profile`, `audit`.

use crate::args::Args;
use eks_cracker::{mine, MiningJob};
use eks_gpusim::codegen::lower;
use eks_gpusim::device::DeviceCatalog;
use eks_gpusim::sched::{simulate, SimConfig};
use eks_hashes::{from_hex, to_hex};
use eks_kernels::{Tool, ToolKernel};
use eks_keyspace::{KeySpace, Order};

use super::{parse_algo, parse_charset, parse_threads};

pub(super) fn cmd_hash(args: &Args) -> Result<(), String> {
    let algo = parse_algo(args)?;
    let plaintext = args.positional(1).ok_or("hash requires a plaintext argument")?;
    println!("{}", to_hex(&algo.hash_long(plaintext.as_bytes())));
    Ok(())
}

pub(super) fn cmd_mine(args: &Args) -> Result<(), String> {
    let difficulty: u32 = args.get_parse_or("difficulty", 16)?;
    let threads = parse_threads(args, 8)?;
    let header = args.get_or("header", "eks-block-header").as_bytes().to_vec();
    let job = MiningJob { header, difficulty_bits: difficulty };
    println!("mining: {difficulty} leading zero bits, {threads} threads");
    let start = std::time::Instant::now();
    match mine(&job, 0..1 << 32, threads) {
        Some(r) => {
            println!(
                "nonce {} after {} tests in {:.3} s",
                r.nonce,
                r.tested,
                start.elapsed().as_secs_f64()
            );
            println!("hash  {}", to_hex(&r.digest));
            Ok(())
        }
        None => Err("nonce space exhausted".into()),
    }
}

pub(super) fn cmd_devices() -> Result<(), String> {
    println!("{:<24}{:>6}{:>8}{:>12}{:>6}", "device", "MPs", "cores", "clock MHz", "cc");
    for d in DeviceCatalog::paper_devices() {
        println!(
            "{:<24}{:>6}{:>8}{:>12}{:>6}",
            d.name, d.mp_count, d.cores, d.clock_mhz, d.cc.label()
        );
    }
    Ok(())
}

pub(super) fn cmd_disasm(args: &Args) -> Result<(), String> {
    let algo = parse_algo(args)?;
    use eks_gpusim::arch::ComputeCapability;
    let cc = match args.get_or("cc", "3.0") {
        "1.x" | "1.*" | "1.1" => ComputeCapability::Sm1x,
        "2.0" => ComputeCapability::Sm20,
        "2.1" => ComputeCapability::Sm21,
        "3.0" => ComputeCapability::Sm30,
        "3.5" => ComputeCapability::Sm35,
        other => return Err(format!("unknown --cc {other:?}")),
    };
    let tool = match args.get_or("tool", "ours") {
        "ours" => Tool::OurApproach,
        "barswf" => Tool::BarsWf,
        "cryptohaze" => Tool::Cryptohaze,
        other => return Err(format!("unknown --tool {other:?}")),
    };
    let tk = ToolKernel::build(tool, algo, cc);
    let k = lower(&tk.ir, tk.options);
    print!("{}", eks_gpusim::disasm(&k));
    Ok(())
}

pub(super) fn cmd_profile(args: &Args) -> Result<(), String> {
    let algo = parse_algo(args)?;
    let device = eks_gpusim::device::DeviceCatalog::find(args.get_or("device", "660"))
        .ok_or("unknown --device")?;
    let tk = ToolKernel::build(Tool::OurApproach, algo, device.cc);
    let k = lower(&tk.ir, tk.options);
    let cfg = SimConfig::for_cc(device.cc);
    let sim = simulate(&k, cfg);
    println!("{} on {} (simulated):", algo.name(), device.name);
    let report = eks_gpusim::ProfilerReport::new(&k, &sim, cfg.warps);
    print!("{}", report.render());
    println!("throughput        : {:.1} MKey/s", sim.device_mkeys(&device));
    Ok(())
}

pub(super) fn cmd_audit(args: &Args) -> Result<(), String> {
    let algo = parse_algo(args)?;
    let digests_arg = args.get("digests").ok_or("audit requires --digests h1,h2,...")?;
    let accounts: Vec<String> = match args.get("accounts") {
        Some(a) => a.split(',').map(|s| s.to_string()).collect(),
        None => (1..).map(|i| format!("account{i}")).take(digests_arg.split(',').count()).collect(),
    };
    let digests: Vec<Vec<u8>> = digests_arg
        .split(',')
        .map(|h| from_hex(h).ok_or(format!("bad hex digest {h:?}")))
        .collect::<Result<_, _>>()?;
    if accounts.len() != digests.len() {
        return Err("--accounts and --digests must have the same length".into());
    }
    let charset = parse_charset(args)?;
    let min: u32 = args.get_parse_or("min", 1)?;
    let max: u32 = args.get_parse_or("max", 4)?;
    let space = KeySpace::new(charset, min, max, Order::FirstCharFastest)
        .map_err(|e| e.to_string())?;
    let entries: Vec<eks_cracker::AuditEntry> = accounts
        .into_iter()
        .zip(digests)
        .map(|(account, digest)| eks_cracker::AuditEntry { account, digest })
        .collect();
    let mut session = eks_cracker::AuditSession::new(algo, entries, &space);
    println!("auditing over {} candidates:", space.size());
    let report = session.run(&space, |_| {});
    print!("{}", report.render());
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::args::Args;
    use crate::commands::run;
    use eks_hashes::{to_hex, HashAlgo};

    fn args(s: &[&str]) -> Args {
        Args::parse(s.iter().map(|x| x.to_string())).unwrap()
    }

    #[test]
    fn hash_command() {
        let a = args(&["hash", "abc", "--algo", "md5"]);
        assert!(run("hash", &a).is_ok());
        let a = args(&["hash"]);
        assert!(run("hash", &a).is_err());
    }

    #[test]
    fn mine_low_difficulty() {
        let a = args(&["mine", "--difficulty", "8", "--threads", "2"]);
        assert!(run("mine", &a).is_ok());
    }

    #[test]
    fn disasm_lists_kernels() {
        assert!(run("disasm", &args(&["disasm", "--cc", "3.0"])).is_ok());
        assert!(run("disasm", &args(&["disasm", "--cc", "9.9"])).is_err());
        assert!(run("disasm", &args(&["disasm", "--tool", "barswf", "--cc", "1.x"])).is_ok());
    }

    #[test]
    fn profile_and_audit_commands() {
        assert!(run("profile", &args(&["profile", "--device", "550"])).is_ok());
        assert!(run("profile", &args(&["profile", "--device", "voodoo2"])).is_err());
        let d1 = to_hex(&HashAlgo::Md5.hash(b"cab"));
        let d2 = to_hex(&HashAlgo::Md5.hash(b"zzzzzzzz")); // survivor
        let a = args(&[
            "audit", "--digests", &format!("{d1},{d2}"), "--accounts", "alice,bob", "--max", "3",
        ]);
        assert!(run("audit", &a).is_ok());
        let bad = args(&["audit", "--digests", "zz"]);
        assert!(run("audit", &bad).is_err());
    }
}
