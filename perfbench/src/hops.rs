//! Isolated per-hop costs: each hop a small message takes, timed as a
//! loop over the layer's public call in this process with nothing else
//! running. Each figure is the median over batches of the mean cost per
//! call. Together with the live `send_am` cost they give the round-trip
//! breakdown (`rtt.layer_sum_us`); the rest of the round trip is the gap.

use crate::sample::median;
use lci::{CompDesc, CompQueue, CqConfig, MatchKind, MatchingEngine, MatchingPolicy};
use lci::{PacketPool, PacketPoolConfig};
use lci_fabric::shm::ring::{FrameHeader, KIND_SEND};
use lci_fabric::shm::{geometry_from_env, ShmSegment};
use lci_fabric::tcp::stream::{encode_frame, FrameDecoder};
use lci_fabric::{BufPool, BufPoolConfig, Fabric};
use lcw::{BackendKind, Platform, ResourceMode, World, WorldConfig};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Median over `batches` of the mean nanoseconds per call of `f`.
fn per_call(iters: usize, batches: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters / 4 {
        f();
    }
    let v: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&v).unwrap_or(0.0)
}

pub struct Hops {
    pub shm_ring: f64,
    pub tcp_codec: f64,
    pub doorbell_nowaiter: f64,
    pub doorbell_waiter: f64,
    pub buf_pool: f64,
    pub comp_queue: f64,
    pub matching: f64,
    pub packet_pool: f64,
    pub empty_pass_shm: f64,
    pub empty_pass_tcp: f64,
}

fn header() -> FrameHeader {
    FrameHeader { kind: KIND_SEND, ..FrameHeader::default() }
}

pub fn measure(quick: bool) -> std::io::Result<Hops> {
    let (n, b) = if quick { (2_000, 3) } else { (20_000, 11) };
    let payload = [7u8; 8];
    let seg = Arc::new(ShmSegment::create_anonymous(2, geometry_from_env())?);
    let chan = seg.channel(0, 1);
    let shm_ring = per_call(n, b, || {
        chan.produce(&header(), &[&payload]).expect("ring has room");
        let f = chan.peek().expect("frame queued");
        black_box(f.payload());
        chan.release(&f);
    });

    let pool = BufPool::new(BufPoolConfig::default());
    let mut dec = FrameDecoder::new();
    let tcp_codec = per_call(n, b, || {
        let buf = encode_frame(&pool, &header(), &[&payload]).expect("frame fits");
        dec.push(&buf);
        let f = dec.decode_next().expect("well-formed").expect("whole frame");
        black_box(f.payload.len());
    });

    let doorbell_nowaiter = per_call(n, b, || {
        black_box(seg.ring_doorbell(1));
    });
    // A bridge-like waiter parked on rank 1's doorbell on another thread.
    let stop = Arc::new(AtomicBool::new(false));
    let waiter = {
        let (seg, stop) = (seg.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut seen = seg.doorbell_seq(1);
            while !stop.load(Ordering::Relaxed) {
                seen = seg.doorbell_wait(1, seen, Duration::from_millis(20));
            }
        })
    };
    std::thread::sleep(Duration::from_millis(5));
    let doorbell_waiter = per_call(n / 10, b, || {
        black_box(seg.ring_doorbell(1));
    });
    stop.store(true, Ordering::Relaxed);
    seg.ring_doorbell(1);
    waiter.join().expect("waiter thread");

    let buf_pool = per_call(n, b, || {
        black_box(pool.take_len(64));
    });

    let cq = CompQueue::new(CqConfig::default());
    let comp_queue = per_call(n, b, || {
        cq.push(CompDesc::default());
        black_box(cq.pop());
    });

    let engine: MatchingEngine<u64> = MatchingEngine::new();
    let key = engine.key_for(1, 5, MatchingPolicy::RankTag);
    let matching = per_call(n, b, || {
        black_box(engine.insert(key, 1, MatchKind::Send));
        black_box(engine.insert(key, 2, MatchKind::Recv));
    });

    let packets = PacketPool::new(PacketPoolConfig::default())
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let packet_pool = per_call(n, b, || {
        black_box(packets.get());
    });

    let empty_pass_shm = empty_pass(Platform::ShmHost, n, b);
    let empty_pass_tcp = empty_pass(Platform::TcpHost, n, b);
    Ok(Hops {
        shm_ring,
        tcp_codec,
        doorbell_nowaiter,
        doorbell_waiter,
        buf_pool,
        comp_queue,
        matching,
        packet_pool,
        empty_pass_shm,
        empty_pass_tcp,
    })
}

/// One idle `Endpoint::progress` pass on an in-process two-rank world
/// over the given wire.
fn empty_pass(platform: Platform, n: usize, b: usize) -> f64 {
    let fabric = Fabric::new(2);
    let cfg = WorldConfig::new(BackendKind::Lci, platform, ResourceMode::Shared);
    let w0 = World::new(fabric.clone(), 0, cfg);
    let _w1 = World::new(fabric, 1, cfg);
    let mut ep = w0.endpoint(0);
    per_call(n, b, || {
        black_box(ep.progress());
    })
}
