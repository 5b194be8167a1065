//! The progress engine: who calls `progress`, and how idle cores sleep.
//!
//! The paper makes progress explicit and its evaluation hinges on *who*
//! invokes it: §5.3 shows the all-worker-progress pathology on
//! coarse-lock fabrics (every worker hammering the single sim-ofi
//! endpoint lock), while the companion AMT paper argues task runtimes
//! want to dedicate cores to progress and park the rest. This module
//! provides both ends of that spectrum and a middle ground:
//!
//! * [`ProgressMode::Workers`] — the status quo: worker threads poll
//!   [`Device::worker_progress`](crate::device::Device::worker_progress)
//!   through the trylock wrapper; nothing sleeps.
//! * [`ProgressMode::Dedicated`] — `n` dedicated progress threads
//!   partition the runtime's devices (device *i* belongs to thread
//!   `i % n`) and run an adaptive spin→yield→park loop: a full spin
//!   ramp while sweeps keep finding work (streaming), a short re-park
//!   ramp once the duty-cycle window shows mostly fruitless sweeps
//!   (trickle — the doorbell covers the wakeup); workers never poll,
//!   they block on completion signals instead.
//! * [`ProgressMode::Hybrid`] — dedicated threads as above, but workers
//!   may *steal* a progress call through the trylock path whenever the
//!   device's dedicated thread is parked.
//!
//! Parking is driven by per-device doorbells ([`lci_fabric::Doorbell`]):
//! the NIC simulators ring a device's bell on wire delivery and on
//! locally staged completions, and the LCI layer rings it when a worker
//! parks work in the device backlog. Each progress thread aggregates its
//! devices' bells into one thread-level bell (doorbell subscription) and
//! parks on that; the eventcount protocol (epoch read → poll → park only
//! if the epoch is unchanged) makes lost wakeups impossible — see the
//! [`lci_fabric::Doorbell`] docs and DESIGN.md §4.8 for the argument.
//!
//! A multi-process shm rank's devices share one bell on the rank's
//! segment futex words, which producers in *other processes* ring
//! without passing through any local bell. A thread owning such a
//! device therefore parks on that shared bell itself, and its
//! aggregate bell forwards its own rings (other devices, shutdown,
//! new-device notices) into the shared one.

use crate::device::Device;
use crate::runtime::RuntimeInner;
use lci_fabric::sync::{Doorbell, MpmcArray, SpinLock};
use lci_fabric::topology;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Who drives progress for a runtime (`RuntimeConfig::progress_mode`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProgressMode {
    /// Worker threads poll (the default; the paper's explicit-progress
    /// baseline). No progress threads are spawned.
    Workers,
    /// `n` dedicated progress threads own all polling; worker-side
    /// progress entry points become no-ops and blocking waits park on
    /// completion signals.
    Dedicated(usize),
    /// `n` dedicated progress threads, plus workers steal progress via
    /// the trylock path while a device's dedicated thread is parked.
    Hybrid(usize),
}

impl ProgressMode {
    /// Number of dedicated threads this mode asks for (0 for `Workers`).
    pub fn dedicated_threads(&self) -> usize {
        match self {
            ProgressMode::Workers => 0,
            ProgressMode::Dedicated(n) | ProgressMode::Hybrid(n) => *n,
        }
    }
}

/// Idle rounds before an idle progress thread stops spinning and yields.
const SPIN_ROUNDS: u32 = 64;
/// Idle rounds (spin + yield) before an idle progress thread parks.
const IDLE_ROUNDS_BEFORE_PARK: u32 = 192;
/// Short re-park ramp used while the thread is in the doorbell-driven
/// regime (its last sleep was a park): arrivals ring the bell, so there
/// is no point burning a long spin ramp between them.
const PARKED_SPIN_ROUNDS: u32 = 2;
/// Park threshold for the short ramp.
const PARKED_IDLE_ROUNDS: u32 = 8;
/// Consecutive useful sweeps that promote the thread back to the full
/// spin ramp: back-to-back work means a streaming phase, where staying
/// awake beats paying a wakeup per batch.
const BUSY_STREAK: u32 = 4;
/// Duty-cycle window: every this-many sweeps the thread checks what
/// fraction found work and demotes itself to the doorbell-driven (short
/// ramp) regime when fewer than 1 in [`DUTY_DENOM`] did. This is what
/// bootstraps parking under a *trickle* load — work arriving every few
/// dozen sweeps resets a consecutive-idle counter forever without ever
/// letting it reach the full ramp's park threshold.
const DUTY_WINDOW: u32 = 128;
/// See [`DUTY_WINDOW`]: demote when `useful * DUTY_DENOM <= sweeps`.
const DUTY_DENOM: u32 = 8;
/// Belt-and-braces park bound: a parked thread re-sweeps at least this
/// often even if every doorbell stays silent. Not part of the lost-wakeup
/// correctness argument (the eventcount protocol is), just a backstop.
const PARK_TIMEOUT: Duration = Duration::from_millis(250);

/// The dedicated progress threads of one runtime.
///
/// Threads hold only a [`Weak`] reference to the runtime, so user handles
/// dropping is enough to wind the engine down; `shutdown` (run from the
/// runtime's `Drop`, or explicitly) rings every thread's bell so parked
/// threads notice immediately instead of waiting out [`PARK_TIMEOUT`].
pub(crate) struct ProgressEngine {
    /// Ends every progress thread's loop when set.
    shutdown: AtomicBool,
    /// Live progress threads. Zero means workers must poll for
    /// themselves (never spawned, explicitly stopped, or died on a fatal
    /// error — the error then resurfaces on the worker's own poll).
    active: AtomicUsize,
    /// Join handles, drained under a short lock at shutdown; the
    /// crate-idiomatic leaf [`SpinLock`] guards only the vector flips
    /// (push/drain) — never a join, a ring, or any polling.
    threads: SpinLock<Vec<std::thread::JoinHandle<()>>>,
    /// One aggregate bell per thread, for shutdown/new-device wakeups.
    /// An [`MpmcArray`] so [`ring_all`](Self::ring_all) — called on
    /// every device creation — reads lock-free; slots are cleared (not
    /// popped) at shutdown, so a later respawn appends fresh bells.
    bells: MpmcArray<Arc<Doorbell>>,
}

impl ProgressEngine {
    pub(crate) fn new() -> Self {
        Self {
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            threads: SpinLock::new(Vec::new()),
            bells: MpmcArray::with_capacity(8),
        }
    }

    /// Whether dedicated progress threads are currently running.
    #[inline]
    pub(crate) fn engine_active(&self) -> bool {
        self.active.load(Ordering::Acquire) > 0
    }

    /// Spawns `nthreads` progress threads for `rt`. Devices are
    /// partitioned statically by index; devices allocated later are
    /// picked up on the owning thread's next loop iteration.
    pub(crate) fn spawn(rt: &Arc<RuntimeInner>, nthreads: usize) -> crate::error::Result<()> {
        if nthreads == 0 || nthreads > 64 {
            return Err(crate::error::FatalError::InvalidArg(
                "progress thread count must be in 1..=64".into(),
            ));
        }
        let engine = &rt.progress;
        // Reserve the engine under a short lock (a state flip: empty →
        // claimed); the actual spawning happens outside any lock.
        {
            let threads = engine.threads.lock();
            if !threads.is_empty() || engine.engine_active() {
                return Err(crate::error::FatalError::InvalidArg(
                    "progress threads already running".into(),
                ));
            }
            engine.shutdown.store(false, Ordering::Release);
            // Claiming token: `active` goes non-zero before the lock
            // drops, so a racing spawn sees the engine taken.
            engine.active.fetch_add(nthreads, Ordering::AcqRel);
        }
        for slot in 0..nthreads {
            let bell = Arc::new(Doorbell::new());
            let weak = Arc::downgrade(rt);
            let thread_bell = bell.clone();
            let handle = std::thread::Builder::new()
                .name(format!("lci-progress-{slot}"))
                .spawn(move || progress_thread_main(weak, slot, nthreads, thread_bell))
                .map_err(|e| {
                    engine.active.fetch_sub(nthreads - slot, Ordering::AcqRel);
                    crate::error::FatalError::Net(format!("spawning progress thread: {e}"))
                })?;
            engine.threads.lock().push(handle);
            engine.bells.push(bell);
        }
        Ok(())
    }

    /// Wakes every progress thread (e.g. after a new device is
    /// allocated, so its owner subscribes to the device's doorbell).
    /// Lock-free: reads the bell registry without touching any lock.
    pub(crate) fn ring_all(&self) {
        for i in 0..self.bells.len() {
            if let Some(bell) = self.bells.read(i) {
                bell.ring();
            }
        }
    }

    /// Stops and joins all progress threads. Safe to call from a progress
    /// thread itself (it skips self-join; that thread exits on its own
    /// right after, since the shutdown flag is set). Handles are drained
    /// under a short lock; ringing and joining happen outside it.
    pub(crate) fn shutdown_and_join(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.ring_all();
        let drained: Vec<_> = std::mem::take(&mut *self.threads.lock());
        let me = std::thread::current().id();
        for handle in drained {
            if handle.thread().id() != me {
                let _ = handle.join();
            }
        }
        for i in 0..self.bells.len() {
            self.bells.clear_at(i);
        }
        self.active.store(0, Ordering::Release);
    }
}

/// One dedicated progress thread: sweep the devices in this thread's
/// partition, then spin → yield → park by idleness.
fn progress_thread_main(
    rt_weak: Weak<RuntimeInner>,
    slot: usize,
    nthreads: usize,
    bell: Arc<Doorbell>,
) {
    // Core-affine placement: home this thread on the logical core of
    // its device partition (device i belongs to thread i % nthreads, so
    // thread `slot` sits on core `slot` of the placement map). Its
    // stats cells, ctx-pool shard, and pool stripes all key off this
    // binding, keeping engine-side bookkeeping on the engine's core.
    // Logical only — OS affinity is the launcher's job (topology docs).
    if let Some(rt) = rt_weak.upgrade() {
        let p = rt.config.placement;
        if p.enabled && p.pin_progress {
            topology::bind_current_thread(slot % p.effective_cores());
        }
    }
    let mut idle: u32 = 0;
    // Consecutive useful sweeps; reaching `BUSY_STREAK` restores the
    // full spin ramp after a parked (doorbell-driven) phase.
    let mut streak: u32 = 0;
    // Whether the thread is in the doorbell-driven regime (short ramp):
    // entered after a park or when the duty-cycle window shows mostly
    // fruitless sweeps; left after a busy streak of useful ones.
    let mut parked_regime = false;
    // Duty-cycle window counters (see `DUTY_WINDOW`).
    let mut window_sweeps: u32 = 0;
    let mut window_useful: u32 = 0;
    // Devices already checked for doorbell subscription (registry index).
    let mut subscribed = 0usize;
    // The bell this thread parks on: its aggregate bell, or a device's
    // shared (cross-process) bell once it owns one.
    let mut park_bell = bell.clone();
    loop {
        // Upgrade per iteration: the parked/idle thread must not keep the
        // runtime alive, or user handles dropping could never tear it down.
        let Some(rt) = rt_weak.upgrade() else {
            break;
        };
        if rt.progress.shutdown.load(Ordering::Acquire) {
            break;
        }
        // Epoch snapshot BEFORE the sweep: any ring that lands after this
        // read makes the park below return immediately (eventcount).
        let seen = park_bell.epoch();

        // Subscribe this thread's aggregate bell to newly created
        // devices in its partition. Subscribe-then-sweep ordering closes
        // the gap: work that rang the device bell before the
        // subscription is found by the sweep that follows.
        let ndev = rt.devices.len();
        let mut switched = false;
        while subscribed < ndev {
            if subscribed % nthreads == slot {
                if let Some(dev) = rt.devices.read(subscribed).and_then(|w| w.upgrade()) {
                    match dev.net.doorbell() {
                        Some(dev_bell) if !dev_bell.is_shared() => dev_bell.subscribe(bell.clone()),
                        // A shared bell is rung from other processes
                        // directly: park on it, and forward the
                        // aggregate's rings into it (never the reverse,
                        // which would close a cycle). One runtime has
                        // one rank, hence at most one shared bell.
                        Some(dev_bell) if !Arc::ptr_eq(&park_bell, &dev_bell) => {
                            bell.subscribe(dev_bell.clone());
                            park_bell = dev_bell;
                            switched = true;
                        }
                        _ => {}
                    }
                }
            }
            subscribed += 1;
        }
        if switched {
            // `seen` was read from the previous bell: re-snapshot from
            // the new one before any sweep that may end in a park.
            drop(rt);
            continue;
        }

        let mut did = false;
        let mut deferred = false;
        let mut fatal = false;
        let mut i = slot;
        while i < ndev {
            if let Some(inner) = rt.devices.read(i).and_then(|w| w.upgrade()) {
                let dev = Device { inner };
                dev.set_dedicated_active(true);
                match dev.progress() {
                    Ok(d) => did |= d,
                    Err(_) => {
                        // The engine has no error channel; die and let
                        // workers fall back to polling, where the same
                        // fatal error surfaces on their call stack.
                        fatal = true;
                    }
                }
                // Backlogged/coalesced/RNR-parked work needs more polls,
                // not another doorbell ring: never park on it.
                deferred |= dev.has_deferred_work();
            }
            i += nthreads;
        }
        if fatal {
            break;
        }
        window_sweeps += 1;
        if did {
            window_useful += 1;
        }
        if window_sweeps >= DUTY_WINDOW {
            if window_useful.saturating_mul(DUTY_DENOM) <= window_sweeps {
                // Trickle load: most sweeps find nothing, so stop
                // burning the core between arrivals — the doorbell
                // covers the wakeup.
                parked_regime = true;
            }
            window_sweeps = 0;
            window_useful = 0;
        }
        if did {
            idle = 0;
            streak = streak.saturating_add(1);
            if streak >= BUSY_STREAK {
                // Streaming phase: work arrives faster than sweeps
                // drain it. Earn back the full spin ramp.
                parked_regime = false;
            }
            // Wake workers blocked in `wait_until` on completions this
            // sweep may have signaled.
            rt.comp_bell.ring();
            drop(rt);
            continue;
        }
        streak = 0;
        idle = idle.saturating_add(1);
        let (spin_limit, park_limit) = if parked_regime {
            (PARKED_SPIN_ROUNDS, PARKED_IDLE_ROUNDS)
        } else {
            (SPIN_ROUNDS, IDLE_ROUNDS_BEFORE_PARK)
        };
        if idle < spin_limit {
            drop(rt);
            std::hint::spin_loop();
        } else if idle < park_limit || deferred {
            drop(rt);
            std::thread::yield_now();
        } else {
            // Park: mark the partition's devices stealable (Hybrid) and
            // count the park, then wait on the aggregate bell. The epoch
            // check inside `wait` (against the pre-sweep snapshot) makes
            // a wakeup between sweep and park impossible to lose.
            let mut i = slot;
            while i < ndev {
                if let Some(inner) = rt.devices.read(i).and_then(|w| w.upgrade()) {
                    let dev = Device { inner };
                    dev.set_dedicated_active(false);
                    dev.note_progress_park();
                }
                i += nthreads;
            }
            drop(rt);
            park_bell.wait(seen, PARK_TIMEOUT);
            // Doorbell-driven regime: re-park on the short ramp until a
            // busy streak proves a streaming phase is on.
            parked_regime = true;
            idle = PARKED_IDLE_ROUNDS;
        }
    }
    // Mark this thread gone so workers stop deferring to the engine.
    // (Saturating: `shutdown_and_join` may already have zeroed the count.)
    if let Some(rt) = rt_weak.upgrade() {
        let _ = rt
            .progress
            .active
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1));
        // Unpark anyone blocked on completions: they must resume polling.
        rt.comp_bell.ring();
        let ndev = rt.devices.len();
        let mut i = slot;
        while i < ndev {
            if let Some(inner) = rt.devices.read(i).and_then(|w| w.upgrade()) {
                Device { inner }.set_dedicated_active(false);
            }
            i += nthreads;
        }
    }
}
