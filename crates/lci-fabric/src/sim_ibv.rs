//! The ibv-like backend (paper §4.2.3).
//!
//! Mirrors the libibverbs/mlx5 lock structure the paper analyses:
//!
//! * every **queue pair** (one per target rank) has its own posting lock
//!   (standing in for the QP spinlock + uUAR lock);
//! * the **completion queue** has its own lock, taken by `ibv_poll_cq`
//!   (pollers contend with each other, *not* with posters — the NIC
//!   writes CQEs by DMA, modelled as a lock-free staging queue);
//! * the **shared receive queue** has its own lock;
//! * memory (de)registration takes no backend locks beyond the
//!   registration table's internal append lock (the paper notes ibv
//!   registration acquires no locks). When the device-level
//!   [registration cache](crate::reg_cache) is enabled (the default),
//!   its mutex sits in front — a deliberate trade: one short cache
//!   mutex hold replaces a registration-table append per message.
//!
//! The `ibv_td_strategy` attribute controls QP lock sharing:
//! `per_qp` gives every QP its own trylock-wrapped lock; `all_qp` shares
//! one trylock-wrapped lock across all QPs; `none` shares one lock that is
//! always acquired *blockingly* (the provider's own lock, which LCI cannot
//! wrap).
//!
//! With `per_qp`, a worker thread posting a send and a progress thread
//! polling the CQ touch disjoint locks — the contention-free guarantee the
//! paper highlights for AMT-style runtimes.

use crate::backend::{deliver_into, DeviceConfig, NetDevice, SendDesc, TdStrategy};
use crate::buf_pool::{BufPool, BufPoolStats};
use crate::fabric::{Fabric, RxEndpoint};
use crate::mem::{MemoryRegion, Rkey};
use crate::reg_cache::{RegCache, RegCacheStats};
use crate::sync::{Doorbell, LockDiscipline, SpinLock};
use crate::types::{
    Cqe, CqeKind, DevId, NetError, NetResult, Rank, RecvBufDesc, RetryReason, WireMsg, WireMsgKind,
    WirePayload,
};
use crossbeam::queue::ArrayQueue;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Bookkeeping protected by a QP lock. The lock itself *is* the modelled
/// resource (uUAR doorbell serialization); the counter provides
/// observability for tests and ablations.
#[derive(Default)]
struct QpState {
    posted: u64,
}

/// The ibv-like device.
pub struct IbvDevice {
    fabric: Arc<Fabric>,
    rank: Rank,
    dev_id: DevId,
    cfg: DeviceConfig,
    rx: Arc<RxEndpoint>,
    /// One entry per target rank; entries may alias the same lock
    /// depending on the thread-domain strategy.
    qps: Vec<Arc<SpinLock<QpState>>>,
    /// Whether QP locks are acquired with the trylock wrapper. Under
    /// `TdStrategy::None` the provider lock is blocking regardless of the
    /// device discipline.
    qp_discipline: LockDiscipline,
    /// CQEs written by the "NIC" (lock-free staging, like DMA'd CQEs).
    /// A fixed ring, as on real hardware: sized at creation, never
    /// allocating on the post path. A full ring bounds the number of
    /// unpolled local completions (send-queue depth) and surfaces as
    /// `Retry(QueueFull)`.
    cq_staging: ArrayQueue<Cqe>,
    /// The polled CQ; its lock models the `ibv_poll_cq` spinlock.
    cq: SpinLock<VecDeque<Cqe>>,
    /// The shared receive queue and its spinlock.
    srq: SpinLock<VecDeque<RecvBufDesc>>,
    /// Registration cache (per device, like a provider's domain cache).
    reg_cache: RegCache,
    /// Recycled staging-buffer pool feeding `WirePayload::Heap`.
    buf_pool: BufPool,
    posted_recvs: AtomicUsize,
    /// Shared with the RX endpoint; rung by [`IbvDevice::stage_cqe`]
    /// whenever the "NIC" writes a local completion so a parked progress
    /// thread wakes to reap it.
    bell: Arc<Doorbell>,
}

impl IbvDevice {
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
        let nranks = fabric.nranks();
        let (qps, qp_discipline) = match cfg.td_strategy {
            TdStrategy::PerQp => (
                (0..nranks).map(|_| Arc::new(SpinLock::new(QpState::default()))).collect(),
                cfg.discipline,
            ),
            TdStrategy::AllQp => {
                let shared = Arc::new(SpinLock::new(QpState::default()));
                ((0..nranks).map(|_| shared.clone()).collect(), cfg.discipline)
            }
            TdStrategy::None => {
                let shared = Arc::new(SpinLock::new(QpState::default()));
                // The provider's own lock: always blocking.
                ((0..nranks).map(|_| shared.clone()).collect(), LockDiscipline::Blocking)
            }
        };
        Self {
            fabric,
            rank,
            dev_id,
            cfg,
            rx,
            qps,
            qp_discipline,
            cq_staging: ArrayQueue::new(cfg.cq_staging_cap()),
            cq: SpinLock::new(VecDeque::with_capacity(cfg.polled_cq_cap())),
            srq: SpinLock::new(VecDeque::with_capacity(cfg.rx_capacity)),
            reg_cache: RegCache::new(cfg.reg_cache),
            buf_pool: BufPool::new(cfg.buf_pool),
            posted_recvs: AtomicUsize::new(0),
            bell,
        }
    }

    /// Writes a NIC completion into the staging ring. On the rare race
    /// where the ring filled between the capacity pre-check and this
    /// push, the CQE goes straight to the polled CQ instead — never
    /// dropped. Rings the doorbell either way: a completion is now
    /// waiting for a poll.
    #[inline]
    fn stage_cqe(&self, cqe: Cqe) {
        if let Err(cqe) = self.cq_staging.push(cqe) {
            self.cq.lock().push_back(cqe);
        }
        self.bell.ring();
    }

    /// Acquires the QP lock for `target` per the effective discipline.
    #[inline]
    fn lock_qp(&self, target: Rank) -> NetResult<crate::sync::SpinGuard<'_, QpState>> {
        let lock = self
            .qps
            .get(target)
            .ok_or_else(|| NetError::fatal(format!("target rank {target} out of range")))?;
        self.qp_discipline.acquire(lock).ok_or(NetError::Retry(RetryReason::LockBusy))
    }

    /// Drains inbound wire messages into completions, consuming pre-posted
    /// receives. Called with the CQ guard held (we are "the NIC + poller").
    ///
    /// The receive descriptor is taken *before* the wire message is
    /// popped so the ring stays strictly FIFO: when no receive is posted
    /// (RNR) the message simply stays on the wire, like an RC transport
    /// retransmitting in order. Popping first and re-queueing at the back
    /// would let later messages overtake — a deadlock source when the
    /// overtaken message is the one the receiver is waiting on.
    fn deliver_inbound(&self, cq: &mut VecDeque<Cqe>, budget: usize) -> NetResult<()> {
        for _ in 0..budget {
            // Take a pre-posted receive under the SRQ lock; copy outside it.
            let desc = {
                let Some(mut srq) = self.cfg.discipline.acquire(&self.srq) else { break };
                match srq.pop_front() {
                    Some(d) => d,
                    None => break, // RNR: leave the wire untouched
                }
            };
            let Some(msg) = self.rx.pop() else {
                // Nothing inbound: hand the receive back (front: it is
                // the oldest posted one).
                if let Some(mut srq) = self.cfg.discipline.acquire(&self.srq) {
                    srq.push_front(desc);
                } else {
                    // SRQ briefly contended: push at the back instead;
                    // receive order within an SRQ is not meaningful.
                    self.srq.lock().push_back(desc);
                }
                break;
            };
            self.posted_recvs.fetch_sub(1, Ordering::AcqRel);
            let cqe = deliver_into(&msg, &desc)?;
            cq.push_back(cqe);
        }
        Ok(())
    }
}

impl NetDevice for IbvDevice {
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
        let ep = self.fabric.endpoint(target, target_dev)?;
        if self.cq_staging.is_full() {
            return Err(NetError::Retry(RetryReason::QueueFull));
        }
        let mut qp = self.lock_qp(target)?;
        ep.push(WireMsg {
            src_rank: self.rank,
            src_dev: self.dev_id,
            imm,
            kind: WireMsgKind::Send,
            payload: self.buf_pool.stage(data),
        })?;
        qp.posted += 1;
        drop(qp);
        // The NIC reports the send completion; the send buffer was staged.
        self.stage_cqe(Cqe::local(CqeKind::SendDone, ctx));
        Ok(())
    }

    fn post_send_batch(
        &self,
        target: Rank,
        target_dev: DevId,
        msgs: &[SendDesc<'_>],
    ) -> NetResult<usize> {
        let ep = self.fabric.endpoint(target, target_dev)?;
        if self.cq_staging.is_full() {
            return Err(NetError::Retry(RetryReason::QueueFull));
        }
        // One QP lock acquisition (doorbell) covers the whole batch.
        let mut qp = self.lock_qp(target)?;
        let mut posted = 0;
        for m in msgs {
            let res = ep.push(WireMsg {
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
        qp.posted += posted as u64;
        drop(qp);
        for m in &msgs[..posted] {
            self.stage_cqe(Cqe::local(CqeKind::SendDone, m.ctx));
        }
        Ok(posted)
    }

    fn post_recv(&self, desc: RecvBufDesc) -> NetResult<()> {
        let mut srq =
            self.cfg.discipline.acquire(&self.srq).ok_or(NetError::Retry(RetryReason::LockBusy))?;
        srq.push_back(desc);
        self.posted_recvs.fetch_add(1, Ordering::AcqRel);
        drop(srq);
        // A fresh receive can unpark RNR-parked wire messages: wake the
        // progress thread so it re-polls (delivery happens in poll_cq).
        if self.rx.occupancy() > 0 {
            self.bell.ring();
        }
        Ok(())
    }

    fn post_recv_batch(&self, descs: &[RecvBufDesc]) -> NetResult<usize> {
        // One SRQ lock acquisition covers the whole batch; the queue is
        // unbounded, so once the lock is held every buffer posts.
        let mut srq =
            self.cfg.discipline.acquire(&self.srq).ok_or(NetError::Retry(RetryReason::LockBusy))?;
        srq.extend(descs.iter().copied());
        self.posted_recvs.fetch_add(descs.len(), Ordering::AcqRel);
        drop(srq);
        if !descs.is_empty() && self.rx.occupancy() > 0 {
            self.bell.ring();
        }
        Ok(descs.len())
    }

    fn poll_cq(&self, out: &mut Vec<Cqe>, max: usize) -> NetResult<usize> {
        let mut cq =
            self.cfg.discipline.acquire(&self.cq).ok_or(NetError::Retry(RetryReason::LockBusy))?;
        // Move NIC-written CQEs into the polled CQ.
        while let Some(cqe) = self.cq_staging.pop() {
            cq.push_back(cqe);
        }
        // Deliver inbound traffic (bounded so one poll cannot starve).
        self.deliver_inbound(&mut cq, max.max(self.cfg.cq_drain_batch))?;
        let n = max.min(cq.len());
        out.extend(cq.drain(..n));
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
        let mut qp = self.lock_qp(target)?;
        // SAFETY: `validate` bounds-checked the access against a live
        // registration; the registration contract makes the region
        // externally-shared bytes.
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), base as *mut u8, data.len());
        }
        if let Some(imm) = imm {
            let ep = self.fabric.endpoint(target, target_dev)?;
            // If the notify cannot be queued the whole op retries; the
            // data copy is idempotent and the target must not read before
            // the notification arrives.
            ep.push(WireMsg {
                src_rank: self.rank,
                src_dev: self.dev_id,
                imm,
                kind: WireMsgKind::WriteImm,
                payload: WirePayload::None,
            })?;
        }
        qp.posted += 1;
        drop(qp);
        self.stage_cqe(Cqe::local(CqeKind::WriteDone, ctx));
        Ok(())
    }

    fn post_read(
        &self,
        target: Rank,
        local: RecvBufDesc,
        rkey: Rkey,
        offset: usize,
    ) -> NetResult<()> {
        let base = self.fabric.mem().validate(rkey, offset, local.len)?;
        let mut qp = self.lock_qp(target)?;
        // SAFETY: bounds validated; local buffer validity is the
        // RecvBufDesc contract.
        unsafe {
            std::ptr::copy_nonoverlapping(base as *const u8, local.ptr, local.len);
        }
        qp.posted += 1;
        drop(qp);
        let mut cqe = Cqe::local(CqeKind::ReadDone, local.ctx);
        cqe.len = local.len;
        self.stage_cqe(cqe);
        Ok(())
    }

    fn register(&self, ptr: *const u8, len: usize) -> NetResult<MemoryRegion> {
        // ibv memory registration acquires no backend locks (paper
        // §4.2.3); with the cache disabled the table's internal append
        // lock is the only one.
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
        let mut cqes = Vec::new();
        while let Some(c) = self.cq_staging.pop() {
            cqes.push(c);
        }
        cqes.extend(self.cq.lock().drain(..));
        // Parked wire messages are dropped with the endpoint; their
        // payloads were staged copies.
        let descs: Vec<RecvBufDesc> = self.srq.lock().drain(..).collect();
        self.posted_recvs.store(0, Ordering::Release);
        (cqes, descs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::NetContext;

    fn pair(cfg: DeviceConfig) -> (Arc<dyn NetDevice>, Arc<dyn NetDevice>) {
        let fabric = Fabric::new(2);
        let d0 = NetContext::new(fabric.clone(), 0).create_device(cfg);
        let d1 = NetContext::new(fabric, 1).create_device(cfg);
        (d0, d1)
    }

    fn post_packet_recv(dev: &Arc<dyn NetDevice>, buf: &mut [u8], ctx: u64) {
        // SAFETY: test keeps buf alive and unaliased until completion.
        let desc = unsafe { RecvBufDesc::new(buf.as_mut_ptr(), buf.len(), ctx) };
        dev.post_recv(desc).unwrap();
    }

    #[test]
    fn send_recv_roundtrip() {
        let (d0, d1) = pair(DeviceConfig::ibv());
        let mut rbuf = vec![0u8; 64];
        post_packet_recv(&d1, &mut rbuf, 42);
        d0.post_send(1, 0, &[1, 2, 3], 0xAB, 7).unwrap();

        let mut cqes = Vec::new();
        d0.poll_cq(&mut cqes, 8).unwrap();
        assert_eq!(cqes.len(), 1);
        assert_eq!(cqes[0].kind, CqeKind::SendDone);
        assert_eq!(cqes[0].ctx, 7);

        cqes.clear();
        d1.poll_cq(&mut cqes, 8).unwrap();
        assert_eq!(cqes.len(), 1);
        assert_eq!(cqes[0].kind, CqeKind::RecvDone);
        assert_eq!(cqes[0].ctx, 42);
        assert_eq!(cqes[0].imm, 0xAB);
        assert_eq!(cqes[0].len, 3);
        assert_eq!(cqes[0].src_rank, 0);
        assert_eq!(&rbuf[..3], &[1, 2, 3]);
    }

    #[test]
    fn batched_post_roundtrip_and_partial_progress() {
        let fabric = Fabric::new(2);
        let cfg = DeviceConfig::ibv().with_rx_capacity(2);
        let d0 = NetContext::new(fabric.clone(), 0).create_device(cfg);
        let d1 = NetContext::new(fabric, 1).create_device(cfg);
        let bufs: Vec<[u8; 1]> = (0..4u8).map(|i| [i]).collect();
        let msgs: Vec<SendDesc> = bufs
            .iter()
            .enumerate()
            .map(|(i, b)| SendDesc { data: b, imm: i as u64, ctx: i as u64 })
            .collect();
        assert_eq!(d0.post_send_batch(1, 0, &msgs).unwrap(), 2);
        let mut rbufs: Vec<Vec<u8>> = (0..2).map(|_| vec![0u8; 8]).collect();
        for (i, b) in rbufs.iter_mut().enumerate() {
            post_packet_recv(&d1, b, i as u64);
        }
        let mut cqes = Vec::new();
        d1.poll_cq(&mut cqes, 8).unwrap();
        assert_eq!(cqes.len(), 2);
        assert_eq!(cqes[0].imm, 0);
        assert_eq!(cqes[1].imm, 1);
        // Ring drained: the tail posts now.
        assert_eq!(d0.post_send_batch(1, 0, &msgs[2..]).unwrap(), 2);
    }

    #[test]
    fn batched_recv_posts_all_under_one_lock() {
        let (d0, d1) = pair(DeviceConfig::ibv());
        let mut rbufs: Vec<Vec<u8>> = (0..4).map(|_| vec![0u8; 8]).collect();
        let descs: Vec<RecvBufDesc> = rbufs
            .iter_mut()
            .enumerate()
            // SAFETY: test keeps bufs alive and unaliased until delivery.
            .map(|(i, b)| unsafe { RecvBufDesc::new(b.as_mut_ptr(), b.len(), i as u64) })
            .collect();
        assert_eq!(d1.post_recv_batch(&descs).unwrap(), 4);
        assert_eq!(d1.posted_recvs(), 4);
        for i in 0..4u8 {
            d0.post_send(1, 0, &[i], i as u64, 0).unwrap();
        }
        let mut cqes = Vec::new();
        d1.poll_cq(&mut cqes, 8).unwrap();
        assert_eq!(cqes.len(), 4);
        // Receives are consumed in posting order.
        for (i, c) in cqes.iter().enumerate() {
            assert_eq!(c.ctx, i as u64);
            assert_eq!(rbufs[i][0], i as u8);
        }
        assert_eq!(d1.posted_recvs(), 0);
    }

    #[test]
    fn rnr_message_waits_for_recv() {
        let (d0, d1) = pair(DeviceConfig::ibv());
        d0.post_send(1, 0, b"hello", 0, 0).unwrap();
        let mut cqes = Vec::new();
        // No receive posted: nothing delivered, message parked.
        d1.poll_cq(&mut cqes, 8).unwrap();
        assert!(cqes.is_empty());
        let mut rbuf = vec![0u8; 64];
        post_packet_recv(&d1, &mut rbuf, 1);
        d1.poll_cq(&mut cqes, 8).unwrap();
        assert_eq!(cqes.len(), 1);
        assert_eq!(&rbuf[..5], b"hello");
    }

    #[test]
    fn rdma_write_with_imm() {
        let (d0, d1) = pair(DeviceConfig::ibv());
        let target = [0u8; 128];
        let mr = d1.register(target.as_ptr(), target.len()).unwrap();
        let mut notif = vec![0u8; 8];
        post_packet_recv(&d1, &mut notif, 9);

        d0.post_write(1, 0, &[5u8; 16], mr.rkey, 32, Some(0x77), 3).unwrap();

        let mut cqes = Vec::new();
        d0.poll_cq(&mut cqes, 8).unwrap();
        assert_eq!(cqes[0].kind, CqeKind::WriteDone);
        assert_eq!(cqes[0].ctx, 3);

        cqes.clear();
        d1.poll_cq(&mut cqes, 8).unwrap();
        assert_eq!(cqes[0].kind, CqeKind::WriteImmRecv);
        assert_eq!(cqes[0].imm, 0x77);
        assert_eq!(&target[32..48], &[5u8; 16]);
    }

    #[test]
    fn rdma_read() {
        let (d0, d1) = pair(DeviceConfig::ibv());
        let src: Vec<u8> = (0..64).collect();
        let mr = d1.register(src.as_ptr(), src.len()).unwrap();

        let mut dst = vec![0u8; 16];
        let desc = unsafe { RecvBufDesc::new(dst.as_mut_ptr(), dst.len(), 11) };
        d0.post_read(1, desc, mr.rkey, 8).unwrap();

        let mut cqes = Vec::new();
        d0.poll_cq(&mut cqes, 8).unwrap();
        assert_eq!(cqes[0].kind, CqeKind::ReadDone);
        assert_eq!(cqes[0].ctx, 11);
        assert_eq!(cqes[0].len, 16);
        assert_eq!(&dst[..], &src[8..24]);
    }

    #[test]
    fn rdma_write_out_of_bounds_is_fatal() {
        let (d0, d1) = pair(DeviceConfig::ibv());
        let target = [0u8; 8];
        let mr = d1.register(target.as_ptr(), target.len()).unwrap();
        let err = d0.post_write(1, 0, &[0u8; 16], mr.rkey, 0, None, 0).unwrap_err();
        assert!(matches!(err, NetError::Fatal(_)));
    }

    #[test]
    fn trylock_poll_reports_busy() {
        let fabric = Fabric::new(1);
        let ctx = NetContext::new(fabric, 0);
        let cfg = DeviceConfig::ibv();
        let dev = ctx.create_device(cfg);
        // Simulate a concurrent poller by grabbing the CQ lock through a
        // second handle on another thread and holding it.
        let dev2 = dev.clone();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = stop.clone();
        let t = std::thread::spawn(move || {
            // Busy-poll in a tight loop to hold the lock often.
            let mut out = Vec::new();
            while !stop2.load(Ordering::Relaxed) {
                let _ = dev2.poll_cq(&mut out, 1);
                out.clear();
            }
        });
        // At least sometimes we should see LockBusy from our side.
        let mut saw_busy = false;
        let mut out = Vec::new();
        for _ in 0..200_000 {
            match dev.poll_cq(&mut out, 1) {
                Err(NetError::Retry(RetryReason::LockBusy)) => {
                    saw_busy = true;
                    break;
                }
                _ => out.clear(),
            }
        }
        stop.store(true, Ordering::Relaxed);
        t.join().unwrap();
        // On a single-core box the interleaving may never collide, so we
        // do not assert saw_busy; we only assert no deadlock/panic.
        let _ = saw_busy;
    }

    #[test]
    fn dedicated_devices_do_not_share_qps() {
        let fabric = Fabric::new(2);
        let c0 = NetContext::new(fabric.clone(), 0);
        let a = c0.create_device(DeviceConfig::ibv());
        let b = c0.create_device(DeviceConfig::ibv());
        assert_eq!(a.dev_id(), 0);
        assert_eq!(b.dev_id(), 1);
        // Target device 1 on rank 1 does not exist yet -> PeerNotReady.
        assert!(matches!(
            b.post_send(1, 1, &[1], 0, 0),
            Err(NetError::Retry(RetryReason::PeerNotReady))
        ));
    }
}
