//! The rank side: the measured phases, run by each of the two worker
//! processes over the attached world.
//!
//! Rank 0 drives every closed loop and owns the end-to-end clocks; rank
//! 1 serves. The measured time is cut into rounds and every phase of the
//! workload runs once per round, each figure being the round's; the
//! launcher takes the median over rounds. A phase's first round starts
//! with a short verified warm-up. Its measured part is a sequence of
//! blocks, sized by rank 0 to the phase's share of the round and agreed
//! out of band outside the timed regions. In a traced run odd blocks
//! record spans and even blocks do not, so one run yields both the
//! per-layer costs and the tracing overhead on the same inputs.

use crate::moe::{self, MoeInput};
use crate::osstat::{self, TaskTotals};
use crate::report::Rec;
use crate::sample::{quantile, sorted_f64};
use crate::trace::{Name, Tracer};
use lci::StatsSnapshot;
use lcw::{Endpoint, Msg, RecvToken, World};
use std::time::{Duration, Instant};

/// A single wait longer than this is a failed operation.
const OP_TIMEOUT: Duration = Duration::from_secs(10);

const TAG_PING: u32 = 1;
const TAG_PONG: u32 = 2;
const TAG_DATA: u32 = 3;
const TAG_ACK: u32 = 4;
const TAG_BW_ACK: u32 = 0x7000;

const STREAM_WINDOW: usize = 256;
const BW_WINDOW: usize = 8;
const BW_SIZE: usize = 64 << 10;
const ALLREDUCE_BYTES: usize = 1 << 20;
const MIB: f64 = 1024.0 * 1024.0;

/// How a point-to-point workload's measured time is split over its
/// phases (the MoE workload has one phase).
const SHARE_PINGPONG: f64 = 0.4;
const SHARE_STREAM: f64 = 0.3;
const SHARE_BW: f64 = 0.3;

/// What the launcher tells a main-job rank.
pub struct Plan {
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// The MoE loop, or else the three point-to-point phases.
    pub moe: bool,
    /// Cores the launcher may use (counted before the rank was bound).
    pub cores: usize,
    pub out: std::path::PathBuf,
    pub moe_input: std::path::PathBuf,
}

/// Wait policy, core-aware: busy-poll while every rank has a core of
/// its own; when oversubscribed, spin for a bounded number of empty
/// polls and then yield on each further one, so the rank that holds the
/// core it needs gets it within microseconds instead of a time slice.
#[derive(Clone, Copy)]
struct Waiter {
    /// Empty polls before yielding; `u32::MAX` never yields.
    spin_limit: u32,
    idle_run: u32,
}

/// Empty polls a waiter spins through before it starts yielding.
const SPIN_POLLS: u32 = 256;

impl Waiter {
    fn new(ranks: usize, cores: usize) -> Waiter {
        let spin_limit = if ranks <= cores { u32::MAX } else { SPIN_POLLS };
        Waiter { spin_limit, idle_run: 0 }
    }

    fn yields(&self) -> bool {
        self.spin_limit != u32::MAX
    }

    #[inline]
    fn idle(&mut self) {
        self.idle_run = self.idle_run.saturating_add(1);
        if self.idle_run > self.spin_limit {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }

    #[inline]
    fn reset(&mut self) {
        self.idle_run = 0;
    }
}

/// Calls the benchmark makes into lcw, counted always and timed when
/// the tracer is on.
#[derive(Clone, Copy, Default, Debug)]
struct LcwCounts {
    send_am: u64,
    send_am_retry: u64,
    progress: u64,
    progress_useful: u64,
    poll: u64,
    poll_hit: u64,
}

impl LcwCounts {
    fn since(&self, e: &LcwCounts) -> LcwCounts {
        LcwCounts {
            send_am: self.send_am - e.send_am,
            send_am_retry: self.send_am_retry - e.send_am_retry,
            progress: self.progress - e.progress,
            progress_useful: self.progress_useful - e.progress_useful,
            poll: self.poll - e.poll,
            poll_hit: self.poll_hit - e.poll_hit,
        }
    }
}

struct Lcw {
    ep: Endpoint,
    tr: Tracer,
    /// Spans each phase round may keep in the buffer.
    span_quota: usize,
    c: LcwCounts,
    wait: Waiter,
}

type Res<T> = Result<T, String>;

/// A wait's give-up clock, read on every 256th retry (and started at the
/// first such read), so a short wait never reads the time.
#[derive(Default)]
struct Retry {
    tries: u32,
    deadline: Option<Instant>,
}

impl Retry {
    /// Counts one more retry; true once the wait has exceeded
    /// `OP_TIMEOUT`.
    fn expired(&mut self) -> bool {
        self.tries += 1;
        if !self.tries.is_multiple_of(256) {
            return false;
        }
        let now = Instant::now();
        now > *self.deadline.get_or_insert(now + OP_TIMEOUT)
    }
}

impl Lcw {
    fn progress(&mut self, op: u64) {
        self.c.progress += 1;
        let ep = &mut self.ep;
        if self.tr.span(Name::Progress, op, || ep.progress()) {
            self.c.progress_useful += 1;
        }
    }

    fn send_am(&mut self, dst: usize, data: &[u8], tag: u32, op: u64) -> Res<()> {
        let mut retry = Retry::default();
        loop {
            self.c.send_am += 1;
            let ep = &mut self.ep;
            if self.tr.span(Name::SendAm, op, || ep.send_am(dst, data, tag)) {
                return Ok(());
            }
            self.c.send_am_retry += 1;
            self.progress(op);
            if retry.expired() {
                return Err(format!("send_am to {dst} kept asking for retry"));
            }
        }
    }

    fn send(&mut self, dst: usize, data: &[u8], tag: u32, op: u64) -> Res<()> {
        let mut retry = Retry::default();
        loop {
            let ep = &mut self.ep;
            if self.tr.span(Name::Send, op, || ep.send(dst, data, tag)) {
                return Ok(());
            }
            self.progress(op);
            if retry.expired() {
                return Err(format!("send to {dst} kept asking for retry"));
            }
        }
    }

    /// Polls until an active message arrives.
    fn recv_am(&mut self, op: u64) -> Res<Msg> {
        self.tr.begin(Name::RecvWait, op);
        let r = self.recv_am_inner(op);
        self.tr.end();
        r
    }

    fn recv_am_inner(&mut self, op: u64) -> Res<Msg> {
        let mut retry = Retry::default();
        loop {
            self.progress(op);
            self.c.poll += 1;
            let ep = &mut self.ep;
            if let Some(m) = self.tr.span(Name::PollMsg, op, || ep.poll_msg()) {
                self.c.poll_hit += 1;
                self.wait.reset();
                return Ok(m);
            }
            self.wait.idle();
            if retry.expired() {
                return Err("timed out waiting for an active message".into());
            }
        }
    }

    fn post_recv(&mut self, src: usize, tag: u32, max: usize, op: u64) -> RecvToken {
        let ep = &mut self.ep;
        self.tr.span(Name::PostRecv, op, || ep.post_recv(src, tag, max))
    }

    fn wait_recv(&mut self, tok: &RecvToken, op: u64) -> Res<Msg> {
        self.tr.begin(Name::RecvWait, op);
        let mut retry = Retry::default();
        let r = loop {
            let ep = &mut self.ep;
            if let Some(m) = self.tr.span(Name::TestRecv, op, || ep.test_recv(tok)) {
                self.wait.reset();
                break Ok(m);
            }
            self.progress(op);
            self.wait.idle();
            if retry.expired() {
                break Err("timed out waiting for a tagged receive".to_string());
            }
        };
        self.tr.end();
        r
    }
}

/// Per-phase bookkeeping: counter snapshots at the start, merged into
/// the record at the end.
struct PhaseStart {
    t: Instant,
    lci: StatsSnapshot,
    os: TaskTotals,
    lcw: LcwCounts,
}

fn phase_start(l: &mut Lcw) -> PhaseStart {
    let _ = l.tr.take_stats();
    l.tr.set_quota(l.span_quota);
    PhaseStart { t: Instant::now(), lci: lci_stats(&l.ep), os: osstat::self_totals(), lcw: l.c }
}

fn lci_stats(ep: &Endpoint) -> StatsSnapshot {
    ep.lci_device().map(|d| d.stats()).unwrap_or_default()
}

fn phase_end(l: &mut Lcw, rec: &mut Rec, ph: &str, start: PhaseStart) {
    let lci = lci_stats(&l.ep).since(&start.lci);
    let os = osstat::self_totals().since(&start.os);
    let c = l.c.since(&start.lcw);
    rec.max(&format!("{ph}.lci.ring_hwm"), lci.shm_ring_hwm as f64);
    rec.max(&format!("{ph}.lci.inflight_hwm"), lci.coll_chunks_inflight_hwm as f64);
    let mut put = |k: &str, v: f64| rec.add(&format!("{ph}.{k}"), v);
    put("wall_s", start.t.elapsed().as_secs_f64());
    put("lci.progress_calls", lci.progress_calls as f64);
    put("lci.backlogged", lci.backlogged as f64);
    put("lci.zero_copy", lci.zero_copy_deliveries as f64);
    put("lci.copied", lci.copied_deliveries as f64);
    put("lci.rdv_chunks", lci.rdv_chunks_posted as f64);
    put("lci.reg_hits", lci.reg_cache_hits as f64);
    put("lci.reg_misses", lci.reg_cache_misses as f64);
    put("lci.pool_hits", lci.buf_pool_hits as f64);
    put("lci.pool_misses", lci.buf_pool_misses as f64);
    put("lci.doorbell_rings", lci.doorbell_rings as f64);
    put("lci.cross_proc_wakes", lci.doorbell_cross_proc_wakes as f64);
    put("lci.writev_calls", lci.tcp_writev_calls as f64);
    put("lci.writev_frames", lci.tcp_writev_frames as f64);
    put("lci.skipped_pairs", lci.coll_skipped_pairs as f64);
    put("os.ctx", os.ctx_switches as f64);
    put("os.user_s", os.user_s);
    put("os.sys_s", os.sys_s);
    put("lcw.send_am", c.send_am as f64);
    put("lcw.send_am_retry", c.send_am_retry as f64);
    put("lcw.progress", c.progress as f64);
    put("lcw.progress_useful", c.progress_useful as f64);
    put("lcw.poll", c.poll as f64);
    put("lcw.poll_hit", c.poll_hit as f64);
    for (name, count, total, samples) in l.tr.take_stats() {
        let n = name.as_str();
        rec.add(&format!("{ph}.span.{n}.count"), count as f64);
        rec.add(&format!("{ph}.span.{n}.total_ns"), total as f64);
        rec.extend(&format!("{ph}.{n}"), samples);
    }
}

/// Seconds of measurement per round; every phase runs once per round,
/// so each metric samples the whole run rather than one slice of it.
const ROUND_SECONDS: f64 = 1.5;

/// Runs the workload's phases; the record collects what the launcher
/// needs.
pub fn run(world: &World, plan: &Plan, rec: &mut Rec) -> Res<()> {
    let wait = Waiter::new(world.size(), plan.cores);
    rec.put("wait.yields", wait.yields() as u8 as f64);
    let rounds = (plan.seconds / ROUND_SECONDS).round().max(1.0);
    let span_cap = if plan.trace { 400_000 } else { 0 };
    let phases = if plan.moe { 1 } else { 3 };
    let mut l = Lcw {
        ep: world.endpoint(0),
        tr: Tracer::new(span_cap),
        span_quota: span_cap / (phases * rounds as usize),
        c: LcwCounts::default(),
        wait,
    };
    let input = if plan.moe {
        Some(MoeInput::read(&plan.moe_input).map_err(|e| format!("moe input: {e}"))?)
    } else {
        None
    };
    let quick = plan.quick;
    let sched = |warm: u64, trace_group: u64| Schedule::new(warm, trace_group, plan.trace);
    let mut pp = sched(2, 1);
    let mut st = sched(if quick { 4 } else { 40 }, 1);
    let mut bw = sched(if quick { 2 } else { 20 }, 1);
    let mut moe = sched(if quick { 2 } else { 16 }, 8);
    let budget = |share: f64| plan.seconds * share / rounds;
    world.fabric().oob_barrier();
    for _ in 0..rounds as u64 {
        if let Some(input) = &input {
            moe_loop(world, &mut l, input, &mut moe, budget(1.0), rec)?;
        } else {
            pingpong(world, &mut l, plan, &mut pp, budget(SHARE_PINGPONG), rec)?;
            stream(world, &mut l, &mut st, budget(SHARE_STREAM), rec)?;
            bandwidth(world, &mut l, &mut bw, budget(SHARE_BW), rec)?;
        }
    }
    rec.put("rounds", rounds);
    l.ep.quiesce(OP_TIMEOUT).map_err(|e| format!("quiesce: {e}"))?;
    if plan.trace {
        let origin = crate::unix_ns() - l.tr.age_ns();
        let path = plan.out.join(format!("spans.r{}.tsv", world.rank()));
        l.tr.write_tsv(&path, origin).map_err(|e| format!("write spans: {e}"))?;
        rec.put("trace.spans", l.tr.span_count() as f64);
        rec.put("trace.dropped", l.tr.dropped as f64);
    }
    Ok(())
}

/// Rank 0's choice, shared out of band.
fn agree(world: &World, mine: u64) -> u64 {
    let all = world.fabric().oob_allgather(world.rank(), mine.to_le_bytes().to_vec());
    u64::from_le_bytes(all[0][..8].try_into().expect("8-byte contribution"))
}

fn ns(d: Duration) -> u32 {
    d.as_nanos().min(u32::MAX as u128) as u32
}

/// How a phase's blocks are scheduled, and its progress across rounds.
struct Schedule {
    /// Verified warm-up blocks before the first round; the second half
    /// gives the first per-block estimate.
    warm: u64,
    /// Traced and untraced blocks alternate in groups of this size.
    trace_group: u64,
    trace: bool,
    /// Next block index (warm-up included): sequence numbers and MoE
    /// layers continue across rounds.
    idx: u64,
    /// Measured blocks so far and the time they took.
    done: u64,
    busy: f64,
    per_warm: f64,
}

impl Schedule {
    fn new(warm: u64, trace_group: u64, trace: bool) -> Schedule {
        Schedule { warm, trace_group, trace, idx: 0, done: 0, busy: 0.0, per_warm: 0.0 }
    }

    fn per_block(&self) -> f64 {
        if self.done > 0 { self.busy / self.done as f64 } else { self.per_warm }.max(1e-9)
    }
}

/// Runs one round of a phase: the warm-up on the first round, then
/// measured blocks in sub-rounds. Before each sub-round rank 0 sizes it
/// from the time blocks have taken so far, so the round fills `budget`,
/// and the count is agreed out of band (outside every timed region).
/// `block(l, index, measured)` runs one block; the tracer is on for the
/// traced groups. Returns the counter snapshot taken after the warm-up.
fn timed_blocks(
    world: &World,
    l: &mut Lcw,
    s: &mut Schedule,
    budget: f64,
    mut block: impl FnMut(&mut Lcw, u64, bool) -> Res<()>,
) -> Res<PhaseStart> {
    if s.idx == 0 {
        let mut t = Instant::now();
        for i in 0..2 * s.warm {
            if i == s.warm {
                t = Instant::now();
            }
            block(l, s.idx, false)?;
            s.idx += 1;
        }
        s.per_warm = t.elapsed().as_secs_f64() / s.warm as f64;
    }
    let start = phase_start(l);
    let (mut done, mut busy) = (0u64, 0.0f64);
    for sub in 0..6 {
        let mut want = ((budget - busy).max(0.0) / s.per_block()) as u64;
        if done == 0 {
            // Leave room for the estimate to settle, and measure at
            // least one traced and one untraced group.
            want = (want / 2).max(2 * s.trace_group);
        } else if want < 1 || want < done / 50 || sub == 5 {
            want = 0;
        }
        // Flush this rank's queued frames before blocking out of band:
        // a queued final ack would otherwise wait for the transport's
        // backstop, inside the peer's timed block.
        l.ep.quiesce(OP_TIMEOUT).map_err(|e| format!("quiesce: {e}"))?;
        let n = agree(world, want);
        if n == 0 {
            break;
        }
        for _ in 0..n {
            l.tr.on = s.trace && (s.done / s.trace_group) % 2 == 1;
            let t = Instant::now();
            block(l, s.idx, true)?;
            let d = t.elapsed().as_secs_f64();
            l.tr.on = false;
            busy += d;
            s.busy += d;
            s.idx += 1;
            s.done += 1;
            done += 1;
        }
    }
    Ok(start)
}

/// Ping-pong: 8 B active messages, one outstanding. Payloads carry the
/// sequence number; rank 0 times each round trip.
fn pingpong(
    world: &World,
    l: &mut Lcw,
    plan: &Plan,
    s: &mut Schedule,
    budget: f64,
    rec: &mut Rec,
) -> Res<()> {
    let me = world.rank();
    let peer = 1 - me;
    let per_block: u64 = if plan.quick { 100 } else { 1000 };
    let (mut ops, mut fail, mut blocks) = (0u64, 0u64, 0u64);
    let (mut rtt, mut rtt_traced) = (Vec::new(), Vec::new());
    let start = timed_blocks(world, l, s, budget, |l, b, measured| {
        for i in 0..per_block {
            let seq = b * per_block + i;
            let t = Instant::now();
            l.tr.begin(Name::RoundTrip, seq);
            let ok = if me == 0 {
                l.send_am(peer, &seq.to_le_bytes(), TAG_PING, seq)?;
                let m = l.recv_am(seq)?;
                m.src == peer && m.tag == TAG_PONG && m.data == seq.to_le_bytes()
            } else {
                let m = l.recv_am(seq)?;
                let ok = m.src == peer && m.tag == TAG_PING && m.data == seq.to_le_bytes();
                l.send_am(peer, &m.data, TAG_PONG, seq)?;
                ok
            };
            l.tr.end();
            let d = ns(t.elapsed());
            ops += 1;
            fail += !ok as u64;
            if measured {
                if l.tr.on {
                    rtt_traced.push(d)
                } else {
                    rtt.push(d)
                }
            }
        }
        blocks += measured as u64;
        Ok(())
    })?;
    rec.add("pp.msgs", (2 * blocks * per_block) as f64);
    phase_end(l, rec, "pp", start);
    rec.add("pp.ops", ops as f64);
    rec.add("pp.fail", fail as f64);
    // This round's round-trip percentiles (rank 0 holds the clocks).
    if me == 0 {
        for (sfx, v) in [("", rtt), ("_traced", rtt_traced)] {
            let v = sorted_f64(&v);
            if let (Some(p50), Some(p99)) = (quantile(&v, 0.5), quantile(&v, 0.99)) {
                rec.push(&format!("pp.p50_ns{sfx}"), p50);
                rec.push(&format!("pp.p99_ns{sfx}"), p99);
            }
        }
    }
    Ok(())
}

/// Time and work of the traced and untraced measured blocks.
#[derive(Default)]
struct Split {
    secs: [f64; 2],
    work: [f64; 2],
}

impl Split {
    fn add(&mut self, traced: bool, secs: f64, work: f64) {
        self.secs[traced as usize] += secs;
        self.work[traced as usize] += work;
    }

    /// Appends this round's rate (work per second, times `scale`) to
    /// `key` and `key_traced`.
    fn push_rates(&self, rec: &mut Rec, key: &str, scale: f64) {
        for (i, sfx) in ["", "_traced"].iter().enumerate() {
            if self.secs[i] > 0.0 {
                rec.push(&format!("{key}{sfx}"), self.work[i] / self.secs[i] * scale);
            }
        }
    }
}

/// One-way 8 B stream: windows of `STREAM_WINDOW` active messages
/// carrying their sequence number, one credit ack per window.
fn stream(world: &World, l: &mut Lcw, s: &mut Schedule, budget: f64, rec: &mut Rec) -> Res<()> {
    let me = world.rank();
    let peer = 1 - me;
    let win = STREAM_WINDOW as u64;
    let (mut ops, mut fail, mut blocks) = (0u64, 0u64, 0u64);
    let mut split = Split::default();
    let start = timed_blocks(world, l, s, budget, |l, w, measured| {
        let t = Instant::now();
        l.tr.begin(Name::Window, w);
        if me == 0 {
            for seq in w * win..(w + 1) * win {
                l.send_am(peer, &seq.to_le_bytes(), TAG_DATA, seq)?;
            }
            let m = l.recv_am(w)?;
            fail += !(m.tag == TAG_ACK && m.data == w.to_le_bytes()) as u64;
            ops += 1;
        } else {
            for seq in w * win..(w + 1) * win {
                let m = l.recv_am(seq)?;
                fail += !(m.src == peer && m.tag == TAG_DATA && m.data == seq.to_le_bytes()) as u64;
                ops += 1;
            }
            l.send_am(peer, &w.to_le_bytes(), TAG_ACK, w)?;
        }
        l.tr.end();
        if measured {
            split.add(l.tr.on, t.elapsed().as_secs_f64(), win as f64);
            blocks += 1;
        }
        Ok(())
    })?;
    rec.add("st.msgs", (blocks * win) as f64);
    phase_end(l, rec, "st", start);
    rec.add("st.ops", ops as f64);
    rec.add("st.fail", fail as f64);
    split.push_rates(rec, "st.rate_kops", 1e-3);
    Ok(())
}

/// The 64 KiB pattern byte `k` of window slot `j`.
fn bw_pattern(j: usize, k: usize) -> u8 {
    (k.wrapping_mul(131) ^ j.wrapping_mul(17)).wrapping_add(7) as u8
}

/// One window of the 64 KiB stream: `n` tagged messages, each carrying
/// `(window, slot)` in its first 16 bytes and a slot pattern after, then
/// one credit ack. Returns the operations run and the checks failed.
fn bw_window(
    l: &mut Lcw,
    me: usize,
    w: u64,
    n: usize,
    bodies: &[Vec<u8>],
    payloads: &mut [Vec<u8>],
) -> Res<(u64, u64)> {
    let peer = 1 - me;
    let (mut ops, mut fail) = (0u64, 0u64);
    if me == 0 {
        for j in 0..n {
            let p = &mut payloads[j % BW_WINDOW];
            p[..8].copy_from_slice(&w.to_le_bytes());
            p[8..16].copy_from_slice(&(j as u64).to_le_bytes());
            l.send(peer, p, j as u32, w)?;
        }
        let tok = l.post_recv(peer, TAG_BW_ACK, 8, w);
        let m = l.wait_recv(&tok, w)?;
        fail += (m.data != w.to_le_bytes()) as u64;
        ops += 1;
    } else {
        let toks: Vec<RecvToken> =
            (0..n).map(|j| l.post_recv(peer, j as u32, BW_SIZE, w)).collect();
        for (j, tok) in toks.iter().enumerate() {
            let m = l.wait_recv(tok, w)?;
            let ok = m.data.len() == BW_SIZE
                && m.data[..8] == w.to_le_bytes()
                && m.data[8..16] == (j as u64).to_le_bytes()
                && m.data[16..] == bodies[j % BW_WINDOW][16..];
            fail += !ok as u64;
            ops += 1;
        }
        l.send(peer, &w.to_le_bytes(), TAG_BW_ACK, w)?;
    }
    Ok((ops, fail))
}

/// Messages per window, and windows, of the connection warm-up.
const BW_FILL_WINDOW: usize = 64;
const BW_FILL_WINDOWS: u64 = 48;

/// Tagged 64 KiB `send`/`post_recv` stream, `BW_WINDOW` messages per
/// window then one credit ack.
///
/// Before the first round, a few windows of `BW_FILL_WINDOW` messages
/// warm the connection: the kernel sizes a tcp receive buffer from the
/// bytes in flight it has seen, and with only the measured window to go
/// by it settled at different sizes on different runs (the 64 KiB
/// stream then ran at about 800 or about 1300 MiB/s, by run).
fn bandwidth(world: &World, l: &mut Lcw, s: &mut Schedule, budget: f64, rec: &mut Rec) -> Res<()> {
    let me = world.rank();
    let bodies: Vec<Vec<u8>> =
        (0..BW_WINDOW).map(|j| (0..BW_SIZE).map(|k| bw_pattern(j, k)).collect()).collect();
    let mut payloads = bodies.clone();
    let (mut ops, mut fail, mut blocks) = (0u64, 0u64, 0u64);
    if s.idx == 0 {
        for k in 0..BW_FILL_WINDOWS {
            let (o, f) = bw_window(l, me, u64::MAX - k, BW_FILL_WINDOW, &bodies, &mut payloads)?;
            ops += o;
            fail += f;
        }
    }
    let mut split = Split::default();
    let start = timed_blocks(world, l, s, budget, |l, w, measured| {
        let t = Instant::now();
        l.tr.begin(Name::Window, w);
        let (o, f) = bw_window(l, me, w, BW_WINDOW, &bodies, &mut payloads)?;
        ops += o;
        fail += f;
        l.tr.end();
        if measured {
            split.add(l.tr.on, t.elapsed().as_secs_f64(), (BW_WINDOW * BW_SIZE) as f64);
            blocks += 1;
        }
        Ok(())
    })?;
    rec.add("bw.msgs", (blocks as usize * BW_WINDOW) as f64);
    phase_end(l, rec, "bw", start);
    rec.add("bw.ops", ops as f64);
    rec.add("bw.fail", fail as f64);
    split.push_rates(rec, "bw.mibps", 1.0 / MIB);
    Ok(())
}

/// The MoE loop: per iteration one layer (exchange_counts, alltoallv
/// dispatch, expert compute, alltoallv combine) then one 1 MiB
/// allreduce; everything checked byte-exact outside the timed parts.
fn moe_loop(
    world: &World,
    l: &mut Lcw,
    input: &MoeInput,
    s: &mut Schedule,
    budget: f64,
    rec: &mut Rec,
) -> Res<()> {
    let me = world.rank();
    let n = world.size();
    if input.nranks != n {
        return Err(format!("moe input is for {} ranks, world has {n}", input.nranks));
    }
    let tb = input.token_bytes;
    let lanes = ALLREDUCE_BYTES / 8;
    let (mut send, mut expect, mut recv, mut out, mut comb) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut red = vec![0u8; ALLREDUCE_BYTES];
    let mut recv_counts = vec![0usize; n];
    let (mut ops, mut fail) = (0u64, 0u64);
    let (mut a2av, mut allreduce) = (Split::default(), Split::default());
    let mut layer_ns: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
    let (mut calls, mut layers) = (0u64, 0u64);
    let coll = |e: lci::FatalError| format!("collective failed: {e}");
    let start = timed_blocks(world, l, s, budget, |l, k, measured| {
        let layer = k as usize % input.layers;
        let send_counts = input.assemble(layer, me, None, &mut send);
        let tr = &mut l.tr;
        let t = Instant::now();
        tr.begin(Name::Layer, k);
        tr.span(Name::ExchangeCounts, k, || world.exchange_counts(&send_counts, &mut recv_counts))
            .map_err(coll)?;
        recv.resize(recv_counts.iter().sum(), 0);
        let t1 = Instant::now();
        tr.span(Name::Alltoallv, k, || {
            world.alltoallv(&send, &send_counts, &mut recv, &recv_counts)
        })
        .map_err(coll)?;
        let d1 = t1.elapsed();
        tr.span(Name::Compute, k, || moe::compute(&recv, &mut out, tb));
        comb.resize(send.len(), 0);
        let t2 = Instant::now();
        tr.span(Name::Alltoallv, k, || {
            world.alltoallv(&out, &recv_counts, &mut comb, &send_counts)
        })
        .map_err(coll)?;
        let d2 = t2.elapsed();
        tr.end();
        let dl = t.elapsed();
        // Counts against the matrix, dispatched tokens against their
        // sources, combined tokens against the expert outputs.
        let mut bad = false;
        let mut off = 0;
        for (src, &cnt) in recv_counts.iter().enumerate() {
            let want = input.assemble(layer, src, Some(me), &mut expect)[me];
            bad |= cnt != want || recv[off..off + cnt] != expect[..];
            off += cnt;
        }
        bad |= !moe::check_combined(&send, &comb, tb);
        for (i, c) in red.chunks_exact_mut(8).enumerate() {
            c.copy_from_slice(&moe::allreduce_lane(me, k, i).to_le_bytes());
        }
        let t3 = Instant::now();
        tr.span(Name::Allreduce, k, || world.allreduce(&mut red, &lci::SumU64)).map_err(coll)?;
        let d3 = t3.elapsed();
        bad |= (0..lanes).any(|i| {
            u64::from_le_bytes(red[8 * i..8 * i + 8].try_into().expect("8-byte lane"))
                != moe::allreduce_expected(n, k, i)
        });
        ops += 1;
        fail += bad as u64;
        if measured {
            // Cross-rank bytes of the matrix, both directions, per call.
            let cross: usize =
                (0..n).filter(|&p| p != me).map(|p| send_counts[p] + recv_counts[p]).sum();
            let traced = tr.on;
            layer_ns[traced as usize].push(ns(dl));
            a2av.add(traced, (d1 + d2).as_secs_f64(), 2.0 * cross as f64);
            allreduce.add(traced, d3.as_secs_f64(), 1.0);
            calls += 2;
            layers += 1;
        }
        Ok(())
    })?;
    rec.add("moe.layers", layers as f64);
    rec.add("moe.a2av_calls", calls as f64);
    phase_end(l, rec, "moe", start);
    rec.add("moe.ops", ops as f64);
    rec.add("moe.fail", fail as f64);
    a2av.push_rates(rec, "moe.a2av_mibps", 1.0 / MIB);
    allreduce.push_rates(rec, "moe.allreduce_kops", 1e-3);
    for (sfx, v) in [("", &layer_ns[0]), ("_traced", &layer_ns[1])] {
        let v = sorted_f64(v);
        if let (Some(p50), Some(p99)) = (quantile(&v, 0.5), quantile(&v, 0.99)) {
            rec.push(&format!("moe.layer_p50_ns{sfx}"), p50);
            rec.push(&format!("moe.layer_p99_ns{sfx}"), p99);
        }
    }
    Ok(())
}
