//! perfbench — the headline benchmark of this repository.
//!
//! Runs what an `lcw` user sees on the two real multi-process wires: two
//! rank processes spawned through `World::spawn_local`, one thread each,
//! closed loops throughout. The workloads:
//!
//! - `p2p-shm` and `p2p-tcp`, over the `/dev/shm` segment and over the
//!   loopback socket mesh, run three phases: an 8 B active-message
//!   ping-pong with one message outstanding (round-trip latency), a
//!   one-way 8 B active-message stream with a 256-message window and
//!   one credit ack per window (message rate), and a 64 KiB tagged
//!   `send`/`post_recv` stream with a window of 8 (bandwidth);
//! - `moe-shm` runs an MoE layer loop over a seeded Zipf-skewed routing
//!   on the shm wire: per layer `exchange_counts`, `alltoallv` dispatch,
//!   expert compute, `alltoallv` combine, then one 1 MiB `allreduce`.
//!
//! Every payload is checked (sequence numbers, patterns, closed forms,
//! byte-exact tokens); a leaked worker process or segment file is a
//! failed operation too.
//!
//! ```text
//! perfbench --workload p2p-shm|p2p-tcp|moe-shm --seed N --seconds S --trace 0|1 [--quick]
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. The line before it records the
//! run's context (cores, source revision, wire, seed).

mod child;
mod hops;
mod launcher;
mod moe;
mod osstat;
mod report;
mod sample;
mod trace;

use std::time::{SystemTime, UNIX_EPOCH};

/// Wall-clock nanoseconds (comparable across the rank processes).
pub fn unix_ns() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos() as u64)
}

/// A workload: the wire it runs on and the phases it runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub wire: &'static str,
    /// The MoE collective loop, or else the three point-to-point phases.
    pub moe: bool,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload { name: "p2p-shm", wire: "shm", moe: false },
    Workload { name: "p2p-tcp", wire: "tcp", moe: false },
    Workload { name: "moe-shm", wire: "shm", moe: true },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Command-line options (launcher and ranks share the parser).
#[derive(Clone, Debug, Default)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Rank-side only: `probe` or `main`.
    pub child: Option<String>,
    pub t0: u64,
    pub out: String,
    pub job: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args { seconds: 10.0, ..Args::default() };
    let (mut have_workload, mut have_seed) = (false, false);
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let mut val = || it.next().cloned().ok_or(format!("{k} needs a value"));
        match k.as_str() {
            "--workload" => {
                a.workload = val()?;
                have_workload = true;
            }
            "--seed" => {
                a.seed = val()?.parse().map_err(|_| "--seed takes an integer")?;
                have_seed = true;
            }
            "--seconds" => a.seconds = val()?.parse().map_err(|_| "--seconds takes a number")?,
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--quick" => a.quick = true,
            "--child" => a.child = Some(val()?),
            "--t0" => a.t0 = val()?.parse().map_err(|_| "--t0 takes an integer")?,
            "--out" => a.out = val()?,
            "--job" => a.job = val()?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.child.is_none() && !(have_workload && have_seed) {
        return Err("--workload and --seed are required".into());
    }
    if workload(&a.workload).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {:?}; expected one of {names:?}", a.workload));
    }
    if a.child.is_none() && !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(a)
}

fn main() {
    let t_main = unix_ns();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let code = if args.child.is_some() {
        launcher::rank_main(&args, t_main)
    } else {
        launcher::launcher_main(&args)
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_command_line() {
        let a = parse_args(&v("--workload p2p-tcp --seed 4 --seconds 7 --trace 1")).unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("p2p-tcp", 4, 7.0, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse_args(&v("--workload moe-tcp --seed 1")).is_err());
        assert!(parse_args(&v("--workload moe-shm")).is_err());
        assert!(parse_args(&v("--workload p2p-shm --seed 1 --trace 2")).is_err());
        assert!(parse_args(&v("--workload p2p-shm --seed 1 --bogus")).is_err());
    }
}
