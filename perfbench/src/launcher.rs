//! The launcher (parent) side: inputs from the seed, the isolated hop
//! loops, the set-up probes, the main job, the leak checks, and the
//! metrics derived from both ranks' records.

use crate::child::{self, Plan};
use crate::hops;
use crate::moe::{self, MoeInput};
use crate::osstat;
use crate::report::{self, Metric, RankResult, Rec};
use crate::sample::{median, smooth_median, sorted_f64};
use crate::{unix_ns, Args};
use lcw::{BackendKind, Platform, ResourceMode, World, WorldConfig};
use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::time::Duration;

const NRANKS: usize = 2;
/// Set-up is measured on this many attach-only jobs plus the main job.
const PROBES: usize = 15;

fn world_cfg() -> WorldConfig {
    WorldConfig::new(BackendKind::Lci, Platform::ShmHost, ResourceMode::Shared)
}

/// Rank process entry: attach, then run the probe or the main job.
pub fn rank_main(args: &Args, t_main: u64) -> i32 {
    let world = match World::from_env(world_cfg()) {
        Ok(Some(w)) => w,
        Ok(None) => {
            eprintln!("perfbench: --child given without a rendezvous environment");
            return 2;
        }
        Err(e) => {
            eprintln!("perfbench: attach failed: {e}");
            return 3;
        }
    };
    // Bind the rank process to a core of its own, as MPI launchers do,
    // when the ranks fit the cores: the worker thread and the
    // transport's helper threads (started while attaching) alike. Left
    // to the scheduler, the helpers settle on either core and the shm
    // round trip differs by half between runs.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = if NRANKS <= cores { osstat::bind_process_to_cpu(world.rank()) } else { None };

    let t_ret = unix_ns();
    let mut rec = Rec::default();
    rec.put("pid", std::process::id() as f64);
    rec.put("cpu", cpu.map_or(-1.0, |c| c as f64));
    rec.put("setup.spawn_ns", t_main.saturating_sub(args.t0) as f64);
    rec.put("setup.attach_ns", t_ret.saturating_sub(t_main) as f64);
    rec.put("setup.total_ns", t_ret.saturating_sub(args.t0) as f64);
    let out = PathBuf::from(&args.out);
    let mut code = 0;
    if args.child.as_deref() == Some("main") {
        let plan = Plan {
            seconds: args.seconds,
            trace: args.trace,
            quick: args.quick,
            moe: crate::workload(&args.workload).is_some_and(|w| w.moe),
            cores,
            out: out.clone(),
            moe_input: out.join("moe.bin"),
        };
        if let Err(e) = child::run(&world, &plan, &mut rec) {
            eprintln!("perfbench: rank {} failed: {e}", world.rank());
            rec.put("error", 1.0);
            code = 4;
        }
    }
    if let Err(e) = rec.write(&out, &args.job, world.rank()) {
        eprintln!("perfbench: rank {} cannot write its record: {e}", world.rank());
        code = 5;
    }
    if code == 0 {
        world.fabric().oob_barrier();
    }
    code
}

/// One spawned job's outcome.
struct Job {
    ranks: Vec<RankResult>,
    ok: bool,
}

impl Job {
    fn setup(&self, key: &str) -> f64 {
        self.ranks.iter().map(|r| r.get(key)).fold(0.0, f64::max) / 1e9
    }
}

fn spawn_job(args: &Args, out: &Path, kind: &str, job: &str, timeout: Duration) -> Job {
    let t0 = unix_ns();
    let mut cargs: Vec<OsString> = [
        "--child",
        kind,
        "--workload",
        &args.workload,
        "--job",
        job,
        "--t0",
        &t0.to_string(),
        "--out",
        out.to_str().unwrap_or("."),
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if args.trace { "1" } else { "0" },
    ]
    .iter()
    .map(OsString::from)
    .collect();
    if args.quick {
        cargs.push("--quick".into());
    }
    let exits = match World::spawn_local(NRANKS, &cargs, timeout) {
        Ok(r) => r.exit_codes,
        Err(e) => {
            eprintln!("perfbench: spawning {job} failed: {e}");
            vec![-1; NRANKS]
        }
    };
    let ranks: Vec<RankResult> =
        (0..NRANKS).filter_map(|r| RankResult::read(out, job, r)).collect();
    let mut ok = exits.iter().all(|&c| c == 0) && ranks.len() == NRANKS;
    if !ok {
        eprintln!("perfbench: job {job} exit codes {exits:?}, {} records", ranks.len());
    }
    let leaked_pids: Vec<u32> = ranks
        .iter()
        .map(|r| r.get("pid") as u32)
        .filter(|&p| osstat::pid_alive(p))
        .chain(osstat::live_children())
        .collect();
    let leaked_segs = osstat::leaked_segments();
    if !leaked_pids.is_empty() || !leaked_segs.is_empty() {
        eprintln!("perfbench: job {job} leaked processes {leaked_pids:?} segments {leaked_segs:?}");
        ok = false;
    }
    Job { ranks, ok }
}

/// Source revision: the checked-out commit when this is a git work
/// tree, and always a fingerprint of the library sources.
fn source_rev() -> (String, String) {
    let git = std::fs::read_to_string(".git/HEAD")
        .ok()
        .and_then(|h| match h.trim().strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).ok(),
            None => Some(h),
        })
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    let mut files = Vec::new();
    let mut stack = vec![PathBuf::from("crates")];
    while let Some(d) = stack.pop() {
        for e in std::fs::read_dir(&d).into_iter().flatten().flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    files.sort();
    // FNV-1a over path and contents.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f.to_string_lossy().bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    (git, format!("{h:016x}"))
}

pub fn launcher_main(args: &Args) -> i32 {
    let wl = crate::workload(&args.workload).expect("workload checked by the parser");
    let wire = wl.wire;
    let out = PathBuf::from(".bench_build").join("perfbench-out").join(wl.name);
    let _ = std::fs::remove_dir_all(&out);
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: cannot create {}: {e}", out.display());
        return 2;
    }
    let (layers, tokens) = if args.quick { (8, 256) } else { (moe::LAYERS, moe::TOKENS) };
    if wl.moe {
        let input = MoeInput::generate(args.seed, NRANKS, layers, tokens);
        if let Err(e) = input.write(&out.join("moe.bin")) {
            eprintln!("perfbench: cannot write the moe input: {e}");
            return 2;
        }
    }
    let hops = if args.trace {
        match hops::measure(args.quick) {
            Ok(h) => Some(h),
            Err(e) => {
                eprintln!("perfbench: hop loops failed: {e}");
                return 2;
            }
        }
    } else {
        None
    };
    // The rendezvous reads the wire from the launcher's environment.
    if wire == "tcp" {
        std::env::set_var(lci_fabric::bootstrap::ENV_TRANSPORT, "tcp");
    } else {
        std::env::remove_var(lci_fabric::bootstrap::ENV_TRANSPORT);
    }
    // A hung job is cut so that the whole run still ends in about
    // `seconds` + 105 s: a probe takes milliseconds.
    let probe_timeout = Duration::from_secs(3);
    let probes: Vec<Job> = (0..PROBES)
        .map(|k| spawn_job(args, &out, "probe", &format!("probe{k}"), probe_timeout))
        .collect();
    let main_timeout = Duration::from_secs_f64(args.seconds + 60.0);
    let main = spawn_job(args, &out, "main", "main", main_timeout);

    let mut attempted = 0u64;
    let mut failed = 0u64;
    for j in probes.iter().chain([&main]) {
        attempted += 1;
        failed += !j.ok as u64;
    }
    for ph in ["pp", "st", "bw", "moe"] {
        for (rank, r) in main.ranks.iter().enumerate() {
            attempted += r.get(&format!("{ph}.ops")) as u64;
            let f = r.get(&format!("{ph}.fail")) as u64;
            if f > 0 {
                eprintln!("perfbench: rank {rank} saw {f} failed checks in phase {ph}");
            }
            failed += f;
        }
    }
    let correct = failed == 0 && main.ok;
    let jobs: Vec<&Job> =
        probes.iter().chain([&main]).filter(|j| j.ranks.len() == NRANKS).collect();
    let setup =
        |key: &str| median(&jobs.iter().map(|j| j.setup(key)).collect::<Vec<_>>()).unwrap_or(0.0);
    let (git, fingerprint) = source_rev();
    let wait_policy = match main.ranks.first().map(|r| r.get("wait.yields")) {
        Some(y) if y > 0.0 => "spin-then-yield",
        Some(_) => "busy-poll",
        None => "unknown",
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{}",
        report::info_line(&[
            ("workload", wl.name.to_string()),
            ("wire", wire.to_string()),
            ("seed", args.seed.to_string()),
            ("seconds", args.seconds.to_string()),
            ("trace", (args.trace as u8).to_string()),
            ("nproc", cores.to_string()),
            ("ranks", NRANKS.to_string()),
            ("wait_policy", wait_policy.to_string()),
            ("git_rev", git),
            ("src_fingerprint", fingerprint),
        ])
    );
    let metrics = if main.ranks.len() == NRANKS {
        let v = Views { r: &main.ranks, moe: wl.moe };
        if args.trace {
            per_layer(&v, wire, setup("setup.spawn_ns"), setup("setup.attach_ns"), hops.as_ref())
        } else {
            end_to_end(&v, setup("setup.total_ns"))
        }
    } else {
        Vec::new()
    };
    println!("{}", report::result_line(correct, attempted.max(1), failed, &metrics));
    if correct {
        0
    } else {
        1
    }
}

/// Both ranks' records of the main job.
struct Views<'a> {
    r: &'a [RankResult],
    /// The MoE workload (else point-to-point).
    moe: bool,
}

impl Views<'_> {
    fn r0(&self, k: &str) -> f64 {
        self.r[0].get(k)
    }

    fn sum(&self, keys: &[&str]) -> f64 {
        self.r.iter().map(|r| keys.iter().map(|k| r.get(k)).sum::<f64>()).sum()
    }

    fn max(&self, k: &str) -> f64 {
        self.r.iter().map(|r| r.get(k)).fold(0.0, f64::max)
    }

    /// Samples of `keys` from both ranks, merged and sorted.
    fn merged(&self, keys: &[&str]) -> Vec<f64> {
        let all: Vec<u32> =
            self.r.iter().flat_map(|r| keys.iter().flat_map(|k| r.samples(k))).collect();
        sorted_f64(&all)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The user-visible figures, from rank 0's clocks; `sfx` selects the
/// untraced (`""`) or traced (`"_traced"`) blocks. Each workload fills
/// the same slots from its own phases:
///
/// | slot | `p2p-*` | `moe-shm` |
/// |---|---|---|
/// | `p50_us`, `p99_us` | 8 B ping-pong round trip | one MoE layer |
/// | `rate_kops` | 8 B stream, messages | 1 MiB allreduces |
/// | `bw_mibps` | 64 KiB stream | `alltoallv`, true matrix bytes |
struct E2e {
    p50_us: f64,
    p99_us: f64,
    rate_kops: f64,
    bw_mibps: f64,
}

/// Each figure is the median over rounds of the round's figure.
fn e2e(v: &Views, sfx: &str) -> E2e {
    let med = |base: &str| median(v.r[0].list(&format!("{base}{sfx}"))).unwrap_or(0.0);
    if v.moe {
        E2e {
            p50_us: med("moe.layer_p50_ns") / 1e3,
            p99_us: med("moe.layer_p99_ns") / 1e3,
            rate_kops: med("moe.allreduce_kops"),
            bw_mibps: med("moe.a2av_mibps"),
        }
    } else {
        E2e {
            p50_us: med("pp.p50_ns") / 1e3,
            p99_us: med("pp.p99_ns") / 1e3,
            rate_kops: med("st.rate_kops"),
            bw_mibps: med("bw.mibps"),
        }
    }
}

fn m(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.to_string(), value, unit }
}

fn end_to_end(v: &Views, setup_s: f64) -> Vec<Metric> {
    let e = e2e(v, "");
    vec![
        m("p50_us", e.p50_us, "us"),
        m("rate_kops", e.rate_kops, "kop/s"),
        m("bw_mibps", e.bw_mibps, "MiB/s"),
        m("setup_s", setup_s, "s"),
    ]
}

fn per_layer(
    v: &Views,
    wire: &str,
    spawn_s: f64,
    attach_s: f64,
    hops: Option<&hops::Hops>,
) -> Vec<Metric> {
    let p50 = |keys: &[&str]| smooth_median(&v.merged(keys)).unwrap_or(0.0);
    let pp_msgs = v.r0("pp.msgs");
    let st_msgs = v.r0("st.msgs");
    let bw_msgs = v.r0("bw.msgs");
    let send_am_p50 = p50(&["pp.send_am", "st.send_am"]);
    let mut out = vec![
        m("p99_us", e2e(v, "").p99_us, "us"),
        m("lcw.send_am.ns_p50", send_am_p50, "ns"),
        m(
            "lcw.send_am.retry_ratio",
            ratio(
                v.sum(&["pp.lcw.send_am_retry", "st.lcw.send_am_retry"]),
                v.sum(&["pp.lcw.send_am", "st.lcw.send_am"]),
            ),
            "ratio",
        ),
        m("lcw.progress.ns_p50", p50(&["pp.progress"]), "ns"),
        m(
            "lcw.progress.useful_ratio",
            ratio(v.sum(&["pp.lcw.progress_useful"]), v.sum(&["pp.lcw.progress"])),
            "ratio",
        ),
        m(
            "lcw.poll_msg.hit_ratio",
            ratio(v.sum(&["pp.lcw.poll_hit"]), v.sum(&["pp.lcw.poll"])),
            "ratio",
        ),
        m(
            "lcw.recv_wait.ns_per_msg",
            ratio(v.sum(&["pp.span.recv_wait.total_ns"]), v.sum(&["pp.span.recv_wait.count"])),
            "ns",
        ),
        m(
            "lci.progress.passes_per_msg",
            ratio(v.sum(&["st.lci.progress_calls"]), st_msgs),
            "1/msg",
        ),
        m("lci.post.backlogged_per_msg", ratio(v.sum(&["st.lci.backlogged"]), st_msgs), "1/msg"),
        m(
            "lci.zero_copy_ratio",
            ratio(v.sum(&["st.lci.zero_copy"]), v.sum(&["st.lci.zero_copy", "st.lci.copied"])),
            "ratio",
        ),
        m("lci.rdv.chunks_per_msg", ratio(v.sum(&["bw.lci.rdv_chunks"]), bw_msgs), "1/msg"),
        m(
            "lci.reg_cache.hit_ratio",
            ratio(v.sum(&["bw.lci.reg_hits"]), v.sum(&["bw.lci.reg_hits", "bw.lci.reg_misses"])),
            "ratio",
        ),
        m(
            "lci.buf_pool.hit_ratio",
            ratio(
                v.sum(&["bw.lci.pool_hits", "moe.lci.pool_hits"]),
                v.sum(&[
                    "bw.lci.pool_hits",
                    "moe.lci.pool_hits",
                    "bw.lci.pool_misses",
                    "moe.lci.pool_misses",
                ]),
            ),
            "ratio",
        ),
        m(
            "shm.cross_proc_wakes_per_msg",
            ratio(v.sum(&["pp.lci.cross_proc_wakes"]), pp_msgs),
            "1/msg",
        ),
        m("shm.doorbell_rings_per_msg", ratio(v.sum(&["pp.lci.doorbell_rings"]), pp_msgs), "1/msg"),
        m("shm.ring_hwm", v.max("st.lci.ring_hwm"), "frames"),
        m(
            "tcp.writev_fill",
            ratio(v.sum(&["st.lci.writev_frames"]), v.sum(&["st.lci.writev_calls"])),
            "frames/call",
        ),
        m("tcp.writev_per_msg", ratio(v.sum(&["st.lci.writev_calls"]), st_msgs), "1/msg"),
        m("os.ctx_switches_per_msg", ratio(v.sum(&["pp.os.ctx"]), pp_msgs), "1/msg"),
        m("os.sys_us_per_msg", ratio(v.sum(&["pp.os.sys_s"]) * 1e6, pp_msgs), "us"),
        m("os.user_us_per_msg", ratio(v.sum(&["pp.os.user_s"]) * 1e6, pp_msgs), "us"),
        m("coll.exchange_counts.ns_p50", p50(&["moe.exchange_counts"]), "ns"),
        m("coll.alltoallv.ns_p50", p50(&["moe.alltoallv"]), "ns"),
        m("coll.allreduce.ns_p50", p50(&["moe.allreduce"]), "ns"),
        m(
            "coll.skipped_pairs",
            ratio(v.sum(&["moe.lci.skipped_pairs"]), v.r0("moe.a2av_calls")),
            "1/call",
        ),
        m("coll.inflight_hwm", v.max("moe.lci.inflight_hwm"), "chunks"),
        m("moe.compute.ns_p50", p50(&["moe.compute"]), "ns"),
        m("bootstrap.spawn_s", spawn_s, "s"),
        m("bootstrap.attach_s", attach_s, "s"),
    ];
    if let Some(h) = hops {
        out.extend([
            m("hop.shm_ring.produce_consume_ns", h.shm_ring, "ns"),
            m("hop.tcp_codec.encode_decode_ns", h.tcp_codec, "ns"),
            m("hop.doorbell.ring_nowaiter_ns", h.doorbell_nowaiter, "ns"),
            m("hop.doorbell.ring_waiter_ns", h.doorbell_waiter, "ns"),
            m("hop.buf_pool.take_return_ns", h.buf_pool, "ns"),
            m("hop.comp_queue.push_pop_ns", h.comp_queue, "ns"),
            m("hop.matching.insert_match_ns", h.matching, "ns"),
            m("hop.packet_pool.get_put_ns", h.packet_pool, "ns"),
            m("hop.progress.empty_pass_ns.shm", h.empty_pass_shm, "ns"),
            m("hop.progress.empty_pass_ns.tcp", h.empty_pass_tcp, "ns"),
        ]);
        // One direction of an 8 B active message: the live post (which
        // already pays the ring write and the doorbell), then at the
        // target one progress pass, the wire hop (ring slot or frame
        // codec), its packet, and the completion-queue hand-off. The
        // gap is against the untraced round trip.
        // The MoE workload has no round trip: both read 0 there.
        let (pass, wire_hop) = if wire == "shm" {
            (h.empty_pass_shm, h.shm_ring)
        } else {
            (h.empty_pass_tcp, h.tcp_codec)
        };
        let one_way_ns = send_am_p50 + pass + wire_hop + h.packet_pool + h.comp_queue;
        let (sum_us, gap_us) = if v.moe {
            (0.0, 0.0)
        } else {
            let sum_us = 2.0 * one_way_ns / 1e3;
            (sum_us, e2e(v, "").p50_us - sum_us)
        };
        out.push(m("rtt.layer_sum_us", sum_us, "us"));
        out.push(m("rtt.gap_us", gap_us, "us"));
    }
    // Tracing overhead: how much slower the traced blocks ran than the
    // untraced blocks of the same run, in percent of the untraced
    // figure (positive = tracing costs).
    let (u, t) = (e2e(v, ""), e2e(v, "_traced"));
    let longer = |traced: f64, untraced: f64| ratio(traced - untraced, untraced) * 100.0;
    let slower = |traced: f64, untraced: f64| ratio(untraced - traced, untraced) * 100.0;
    out.extend([
        m("trace.overhead.p50_pct", longer(t.p50_us, u.p50_us), "%"),
        m("trace.overhead.p99_pct", longer(t.p99_us, u.p99_us), "%"),
        m("trace.overhead.rate_pct", slower(t.rate_kops, u.rate_kops), "%"),
        m("trace.overhead.bw_pct", slower(t.bw_mibps, u.bw_mibps), "%"),
    ]);
    out
}
