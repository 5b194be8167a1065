//! The ofi-like backend (paper §4.2.4).
//!
//! Mirrors the libfabric cxi/verbs provider lock structure: **one spinlock
//! per endpoint** guards `post_send`, `post_recv` *and* `poll_cq`, so a
//! worker thread posting and a progress thread polling the same device
//! always contend. Memory (de)registration goes through a per-domain
//! registration cache protected by a mutex (the pthread mutex the paper
//! mentions), and — matching the paper — registration is *not* wrapped in
//! a trylock because a registration failure cannot be back-propagated.
//!
//! LCI wraps the endpoint lock in a single trylock (§4.2.4); baselines use
//! blocking acquisition (`LockDiscipline::Blocking`), which is how stock
//! MPI implementations drive libfabric.

use crate::backend::{deliver_into, DeviceConfig, NetDevice, SendDesc};
use crate::buf_pool::{BufPool, BufPoolStats};
use crate::fabric::{Fabric, RxEndpoint};
use crate::mem::{MemoryRegion, Rkey};
use crate::reg_cache::{RegCache, RegCacheStats};
use crate::sync::{Doorbell, SpinLock};
use crate::types::{
    Cqe, CqeKind, DevId, NetError, NetResult, Rank, RecvBufDesc, RetryReason, WireMsg, WireMsgKind,
    WirePayload,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Everything the endpoint lock protects.
struct EpState {
    srq: VecDeque<RecvBufDesc>,
    cq: VecDeque<Cqe>,
    posted: u64,
}

/// The ofi-like device.
pub struct OfiDevice {
    fabric: Arc<Fabric>,
    rank: Rank,
    dev_id: DevId,
    cfg: DeviceConfig,
    rx: Arc<RxEndpoint>,
    /// The single endpoint lock (paper §4.2.4): post and poll serialize.
    ep: SpinLock<EpState>,
    /// Per-domain registration cache behind a mutex (see
    /// [`crate::reg_cache`]).
    reg_cache: RegCache,
    /// Recycled staging-buffer pool feeding `WirePayload::Heap`.
    buf_pool: BufPool,
    posted_recvs: AtomicUsize,
    /// Shared with the RX endpoint; rung here whenever a *local*
    /// completion is staged (SendDone/WriteDone/ReadDone) so a parked
    /// progress thread wakes to reap it.
    bell: Arc<Doorbell>,
}

impl OfiDevice {
    /// Creates the device. Called by
    /// [`NetContext::create_device`](crate::backend::NetContext::create_device).
    pub(crate) fn new(
        fabric: Arc<Fabric>,
        rank: Rank,
        dev_id: DevId,
        rx: Arc<RxEndpoint>,
        bell: Arc<Doorbell>,
        cfg: DeviceConfig,
    ) -> Self {
        Self {
            fabric,
            rank,
            dev_id,
            cfg,
            rx,
            ep: SpinLock::new(EpState {
                srq: VecDeque::with_capacity(cfg.rx_capacity),
                cq: VecDeque::with_capacity(cfg.polled_cq_cap()),
                posted: 0,
            }),
            reg_cache: RegCache::new(cfg.reg_cache),
            buf_pool: BufPool::new(cfg.buf_pool),
            posted_recvs: AtomicUsize::new(0),
            bell,
        }
    }

    /// Acquires the endpoint lock per the configured discipline.
    #[inline]
    fn lock_ep(&self) -> NetResult<crate::sync::SpinGuard<'_, EpState>> {
        self.cfg.discipline.acquire(&self.ep).ok_or(NetError::Retry(RetryReason::LockBusy))
    }

    /// Drains inbound traffic into the CQ. Caller holds the endpoint
    /// lock. The receive descriptor is taken before the wire message is
    /// popped so the ring stays strictly FIFO (see the ibv backend for
    /// the overtaking-deadlock rationale).
    fn deliver_inbound(&self, st: &mut EpState, budget: usize) -> NetResult<()> {
        for _ in 0..budget {
            let Some(desc) = st.srq.pop_front() else { break };
            let Some(msg) = self.rx.pop() else {
                st.srq.push_front(desc);
                break;
            };
            self.posted_recvs.fetch_sub(1, Ordering::AcqRel);
            let cqe = deliver_into(&msg, &desc)?;
            st.cq.push_back(cqe);
        }
        Ok(())
    }
}

impl NetDevice for OfiDevice {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn dev_id(&self) -> DevId {
        self.dev_id
    }

    fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    fn post_send(
        &self,
        target: Rank,
        target_dev: DevId,
        data: &[u8],
        imm: u64,
        ctx: u64,
    ) -> NetResult<()> {
        let ep_remote = self.fabric.endpoint(target, target_dev)?;
        let mut st = self.lock_ep()?;
        ep_remote.push(WireMsg {
            src_rank: self.rank,
            src_dev: self.dev_id,
            imm,
            kind: WireMsgKind::Send,
            payload: self.buf_pool.stage(data),
        })?;
        st.posted += 1;
        st.cq.push_back(Cqe::local(CqeKind::SendDone, ctx));
        drop(st);
        self.bell.ring();
        Ok(())
    }

    fn post_send_batch(
        &self,
        target: Rank,
        target_dev: DevId,
        msgs: &[SendDesc<'_>],
    ) -> NetResult<usize> {
        let ep_remote = self.fabric.endpoint(target, target_dev)?;
        // The batch is the whole point here: the single endpoint lock
        // serializes post *and* poll (§4.2.4), so paying it once for N
        // messages instead of N times is a direct hot-path win.
        let mut st = self.lock_ep()?;
        let mut posted = 0;
        for m in msgs {
            let res = ep_remote.push(WireMsg {
                src_rank: self.rank,
                src_dev: self.dev_id,
                imm: m.imm,
                kind: WireMsgKind::Send,
                payload: self.buf_pool.stage(m.data),
            });
            match res {
                Ok(()) => posted += 1,
                Err(e) if posted == 0 => return Err(e),
                Err(_) => break, // ring full mid-batch: partial progress
            }
        }
        st.posted += posted as u64;
        for m in &msgs[..posted] {
            st.cq.push_back(Cqe::local(CqeKind::SendDone, m.ctx));
        }
        drop(st);
        if posted > 0 {
            self.bell.ring();
        }
        Ok(posted)
    }

    fn post_recv(&self, desc: RecvBufDesc) -> NetResult<()> {
        let mut st = self.lock_ep()?;
        st.srq.push_back(desc);
        self.posted_recvs.fetch_add(1, Ordering::AcqRel);
        drop(st);
        // A fresh receive can unpark RNR-parked wire messages: wake the
        // progress thread so it re-polls (delivery happens in poll_cq).
        if self.rx.occupancy() > 0 {
            self.bell.ring();
        }
        Ok(())
    }

    fn post_recv_batch(&self, descs: &[RecvBufDesc]) -> NetResult<usize> {
        // One endpoint-lock acquisition restocks the whole batch — on
        // this backend that lock also serializes post_send and poll_cq
        // (§4.2.4), so the amortization directly shortens the critical
        // section other threads contend on.
        let mut st = self.lock_ep()?;
        st.srq.extend(descs.iter().copied());
        self.posted_recvs.fetch_add(descs.len(), Ordering::AcqRel);
        drop(st);
        if !descs.is_empty() && self.rx.occupancy() > 0 {
            self.bell.ring();
        }
        Ok(descs.len())
    }

    fn poll_cq(&self, out: &mut Vec<Cqe>, max: usize) -> NetResult<usize> {
        let mut st = self.lock_ep()?;
        self.deliver_inbound(&mut st, max.max(self.cfg.cq_drain_batch))?;
        let n = max.min(st.cq.len());
        out.extend(st.cq.drain(..n));
        Ok(n)
    }

    fn post_write(
        &self,
        target: Rank,
        target_dev: DevId,
        data: &[u8],
        rkey: Rkey,
        offset: usize,
        imm: Option<u64>,
        ctx: u64,
    ) -> NetResult<()> {
        let base = self.fabric.mem().validate(rkey, offset, data.len())?;
        let mut st = self.lock_ep()?;
        // SAFETY: bounds validated against a live registration; region is
        // externally-shared bytes per the registration contract.
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), base as *mut u8, data.len());
        }
        if let Some(imm) = imm {
            let ep_remote = self.fabric.endpoint(target, target_dev)?;
            ep_remote.push(WireMsg {
                src_rank: self.rank,
                src_dev: self.dev_id,
                imm,
                kind: WireMsgKind::WriteImm,
                payload: WirePayload::None,
            })?;
        }
        st.posted += 1;
        st.cq.push_back(Cqe::local(CqeKind::WriteDone, ctx));
        drop(st);
        self.bell.ring();
        Ok(())
    }

    fn post_read(
        &self,
        target: Rank,
        local: RecvBufDesc,
        rkey: Rkey,
        offset: usize,
    ) -> NetResult<()> {
        let _ = target;
        let base = self.fabric.mem().validate(rkey, offset, local.len)?;
        let mut st = self.lock_ep()?;
        // SAFETY: bounds validated; local buffer validity is the
        // RecvBufDesc contract.
        unsafe {
            std::ptr::copy_nonoverlapping(base as *const u8, local.ptr, local.len);
        }
        st.posted += 1;
        let mut cqe = Cqe::local(CqeKind::ReadDone, local.ctx);
        cqe.len = local.len;
        st.cq.push_back(cqe);
        drop(st);
        self.bell.ring();
        Ok(())
    }

    fn register(&self, ptr: *const u8, len: usize) -> NetResult<MemoryRegion> {
        // The registration cache mutex is acquired blockingly: LCI has no
        // way to back-propagate a registration retry (paper §4.2.4).
        Ok(self.reg_cache.register(self.fabric.mem(), self.rank, ptr, len))
    }

    fn deregister(&self, mr: &MemoryRegion) -> NetResult<()> {
        self.reg_cache.release(self.fabric.mem(), mr);
        Ok(())
    }

    fn reg_cache_stats(&self) -> RegCacheStats {
        self.reg_cache.stats()
    }

    fn buf_pool(&self) -> Option<BufPool> {
        Some(self.buf_pool.clone())
    }

    fn buf_pool_stats(&self) -> BufPoolStats {
        self.buf_pool.stats()
    }

    fn posted_recvs(&self) -> usize {
        self.posted_recvs.load(Ordering::Acquire)
    }

    fn doorbell(&self) -> Option<Arc<Doorbell>> {
        Some(self.bell.clone())
    }

    fn inbound_pending(&self) -> usize {
        self.rx.occupancy()
    }

    fn teardown(&self) -> (Vec<Cqe>, Vec<RecvBufDesc>) {
        self.rx.close();
        let mut st = self.ep.lock();
        let cqes: Vec<Cqe> = st.cq.drain(..).collect();
        let descs: Vec<RecvBufDesc> = st.srq.drain(..).collect();
        self.posted_recvs.store(0, Ordering::Release);
        (cqes, descs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::NetContext;

    fn pair() -> (Arc<dyn NetDevice>, Arc<dyn NetDevice>) {
        let fabric = Fabric::new(2);
        let cfg = DeviceConfig::ofi();
        let d0 = NetContext::new(fabric.clone(), 0).create_device(cfg);
        let d1 = NetContext::new(fabric, 1).create_device(cfg);
        (d0, d1)
    }

    #[test]
    fn send_recv_roundtrip() {
        let (d0, d1) = pair();
        let mut rbuf = vec![0u8; 64];
        let desc = unsafe { RecvBufDesc::new(rbuf.as_mut_ptr(), rbuf.len(), 21) };
        d1.post_recv(desc).unwrap();
        d0.post_send(1, 0, b"ofi", 5, 1).unwrap();

        let mut cqes = Vec::new();
        d0.poll_cq(&mut cqes, 8).unwrap();
        assert_eq!(cqes[0].kind, CqeKind::SendDone);

        cqes.clear();
        d1.poll_cq(&mut cqes, 8).unwrap();
        assert_eq!(cqes[0].kind, CqeKind::RecvDone);
        assert_eq!(cqes[0].ctx, 21);
        assert_eq!(cqes[0].imm, 5);
        assert_eq!(&rbuf[..3], b"ofi");
    }

    #[test]
    fn batched_post_partial_progress_on_ring_full() {
        let fabric = Fabric::new(2);
        let cfg = DeviceConfig::ofi().with_rx_capacity(4);
        let d0 = NetContext::new(fabric.clone(), 0).create_device(cfg);
        let _d1 = NetContext::new(fabric, 1).create_device(cfg);
        let bufs: Vec<[u8; 1]> = (0..8u8).map(|i| [i]).collect();
        let msgs: Vec<SendDesc> = bufs
            .iter()
            .enumerate()
            .map(|(i, b)| SendDesc { data: b, imm: i as u64, ctx: i as u64 })
            .collect();
        // Ring holds 4: the batch makes partial progress, not all-or-nothing.
        assert_eq!(d0.post_send_batch(1, 0, &msgs).unwrap(), 4);
        let mut cqes = Vec::new();
        d0.poll_cq(&mut cqes, 16).unwrap();
        assert_eq!(cqes.iter().filter(|c| c.kind == CqeKind::SendDone).count(), 4);
        assert_eq!(cqes.iter().map(|c| c.ctx).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        // Retrying the tail against a still-full ring posts nothing.
        assert!(matches!(
            d0.post_send_batch(1, 0, &msgs[4..]).unwrap_err(),
            NetError::Retry(RetryReason::RxFull)
        ));
    }

    #[test]
    fn batched_post_delivers_in_order() {
        let (d0, d1) = pair();
        let mut rbufs: Vec<Vec<u8>> = (0..3).map(|_| vec![0u8; 16]).collect();
        for (i, b) in rbufs.iter_mut().enumerate() {
            let desc = unsafe { RecvBufDesc::new(b.as_mut_ptr(), b.len(), i as u64) };
            d1.post_recv(desc).unwrap();
        }
        let bufs: Vec<[u8; 2]> = (0..3u8).map(|i| [i, i + 10]).collect();
        let msgs: Vec<SendDesc> = bufs
            .iter()
            .enumerate()
            .map(|(i, b)| SendDesc { data: b, imm: 100 + i as u64, ctx: i as u64 })
            .collect();
        assert_eq!(d0.post_send_batch(1, 0, &msgs).unwrap(), 3);
        let mut cqes = Vec::new();
        d1.poll_cq(&mut cqes, 8).unwrap();
        assert_eq!(cqes.len(), 3);
        for (i, c) in cqes.iter().enumerate() {
            assert_eq!(c.kind, CqeKind::RecvDone);
            assert_eq!(c.imm, 100 + i as u64);
            assert_eq!(&rbufs[c.ctx as usize][..2], &[i as u8, i as u8 + 10]);
        }
    }

    #[test]
    fn batched_recv_roundtrip() {
        let (d0, d1) = pair();
        let mut rbufs: Vec<Vec<u8>> = (0..3).map(|_| vec![0u8; 16]).collect();
        let descs: Vec<RecvBufDesc> = rbufs
            .iter_mut()
            .enumerate()
            .map(|(i, b)| unsafe { RecvBufDesc::new(b.as_mut_ptr(), b.len(), i as u64) })
            .collect();
        assert_eq!(d1.post_recv_batch(&descs).unwrap(), 3);
        assert_eq!(d1.posted_recvs(), 3);
        for i in 0..3u8 {
            d0.post_send(1, 0, &[i], i as u64, 0).unwrap();
        }
        let mut cqes = Vec::new();
        d1.poll_cq(&mut cqes, 8).unwrap();
        assert_eq!(cqes.len(), 3);
        for (i, c) in cqes.iter().enumerate() {
            assert_eq!(c.ctx, i as u64);
            assert_eq!(rbufs[i][0], i as u8);
        }
        assert_eq!(d1.posted_recvs(), 0);
    }

    #[test]
    fn registration_cache_hits() {
        let (d0, _d1) = pair();
        let buf = vec![0u8; 256];
        let a = d0.register(buf.as_ptr(), buf.len()).unwrap();
        let b = d0.register(buf.as_ptr(), buf.len()).unwrap();
        assert_eq!(a.rkey, b.rkey, "cache should return the same registration");
        d0.deregister(&a).unwrap();
        d0.deregister(&b).unwrap();
        let c = d0.register(buf.as_ptr(), buf.len()).unwrap();
        assert_eq!(a.rkey, c.rkey, "deregister releases: the cached registration is reused");
        assert_eq!(
            d0.reg_cache_stats(),
            crate::reg_cache::RegCacheStats { hits: 2, misses: 1, evictions: 0 }
        );
    }

    #[test]
    fn rdma_write_and_read() {
        let (d0, d1) = pair();
        let mut region = [0u8; 64];
        let mr = d1.register(region.as_ptr(), region.len()).unwrap();
        d0.post_write(1, 0, &[7u8; 8], mr.rkey, 0, None, 2).unwrap();
        let mut cqes = Vec::new();
        d0.poll_cq(&mut cqes, 4).unwrap();
        assert_eq!(cqes[0].kind, CqeKind::WriteDone);
        assert_eq!(&region[..8], &[7u8; 8]);

        let mut dst = vec![0u8; 8];
        let desc = unsafe { RecvBufDesc::new(dst.as_mut_ptr(), dst.len(), 4) };
        d0.post_read(1, desc, mr.rkey, 0).unwrap();
        cqes.clear();
        d0.poll_cq(&mut cqes, 4).unwrap();
        assert_eq!(cqes[0].kind, CqeKind::ReadDone);
        assert_eq!(dst, vec![7u8; 8]);
        // keep region alive past the RDMA ops
        std::hint::black_box(&mut region);
    }

    #[test]
    fn endpoint_lock_busy_surfaces_as_retry() {
        let fabric = Fabric::new(1);
        let dev = NetContext::new(fabric, 0).create_device(DeviceConfig::ofi());
        // Downcast trick: hold the lock by calling poll on another thread
        // in a loop, and observe retries here. On 1 core collisions may
        // not occur; this test only checks nothing deadlocks.
        let dev2 = dev.clone();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let s2 = stop.clone();
        let t = std::thread::spawn(move || {
            let mut out = Vec::new();
            while !s2.load(Ordering::Relaxed) {
                let _ = dev2.poll_cq(&mut out, 1);
                out.clear();
            }
        });
        let mut out = Vec::new();
        for _ in 0..50_000 {
            let _ = dev.poll_cq(&mut out, 1);
            out.clear();
        }
        stop.store(true, Ordering::Relaxed);
        t.join().unwrap();
    }
}
