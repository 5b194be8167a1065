//! Thin OS layer for the shared-memory transport: shared mappings,
//! futex wait/wake, and process-liveness probes.
//!
//! No external crates: the symbols are declared directly against the C
//! runtime the Rust standard library already links. Everything
//! cross-process (file-backed mappings, futexes) is Linux-gated; other
//! Unixes fall back to process-private mappings and timed polling, which
//! keeps the in-process `shm` mode (and the whole crate) compiling and
//! testable everywhere while multi-process mode remains Linux-only.

use std::sync::atomic::AtomicU32;
use std::time::Duration;

/// A shared-memory mapping (or, on the fallback path, a process-private
/// aligned allocation). Bytes are zero-initialized.
pub struct Mapping {
    ptr: *mut u8,
    len: usize,
    kind: MappingKind,
}

enum MappingKind {
    #[cfg(unix)]
    Mmap,
    Heap(std::alloc::Layout),
}

// SAFETY: the mapping is plain memory; concurrent access is coordinated
// by the transport's atomics, as for any shared allocation.
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Base address.
    pub fn ptr(&self) -> *mut u8 {
        self.ptr
    }

    /// Mapping length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty (never true for live mappings).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maps `len` bytes of anonymous memory shared with child processes
    /// on Unix; private aligned heap memory elsewhere (single-process
    /// use only).
    pub fn anonymous(len: usize) -> std::io::Result<Mapping> {
        #[cfg(unix)]
        {
            let ptr = unsafe {
                ffi::mmap(
                    std::ptr::null_mut(),
                    len,
                    ffi::PROT_READ | ffi::PROT_WRITE,
                    ffi::MAP_SHARED | ffi::MAP_ANONYMOUS,
                    -1,
                    0,
                )
            };
            if ptr == ffi::MAP_FAILED {
                return Err(std::io::Error::last_os_error());
            }
            Ok(Mapping { ptr: ptr.cast(), len, kind: MappingKind::Mmap })
        }
        #[cfg(not(unix))]
        {
            Self::heap(len)
        }
    }

    /// Maps `len` bytes of `file` (which must already be `len` bytes
    /// long) shared across processes. Unix only.
    #[cfg(unix)]
    pub fn file(file: &std::fs::File, len: usize) -> std::io::Result<Mapping> {
        use std::os::unix::io::AsRawFd;
        let ptr = unsafe {
            ffi::mmap(
                std::ptr::null_mut(),
                len,
                ffi::PROT_READ | ffi::PROT_WRITE,
                ffi::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == ffi::MAP_FAILED {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Mapping { ptr: ptr.cast(), len, kind: MappingKind::Mmap })
    }

    #[allow(dead_code)]
    fn heap(len: usize) -> std::io::Result<Mapping> {
        let layout = std::alloc::Layout::from_size_align(len.max(1), 4096)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        // SAFETY: layout has non-zero size.
        let ptr = unsafe { std::alloc::alloc_zeroed(layout) };
        if ptr.is_null() {
            return Err(std::io::Error::new(std::io::ErrorKind::OutOfMemory, "alloc failed"));
        }
        Ok(Mapping { ptr, len, kind: MappingKind::Heap(layout) })
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        match self.kind {
            #[cfg(unix)]
            MappingKind::Mmap => unsafe {
                ffi::munmap(self.ptr.cast(), self.len);
            },
            MappingKind::Heap(layout) => unsafe {
                std::alloc::dealloc(self.ptr, layout);
            },
        }
    }
}

/// This process's id.
pub fn pid() -> u64 {
    std::process::id() as u64
}

/// Whether a process with `pid` currently exists (signal-0 probe).
/// Conservatively `true` on platforms without the probe.
pub fn process_alive(pid: u64) -> bool {
    #[cfg(unix)]
    {
        if pid == 0 {
            return false;
        }
        // kill(pid, 0): 0 = exists, EPERM = exists but not ours,
        // ESRCH = gone.
        let r = unsafe { ffi::kill(pid as i32, 0) };
        r == 0 || std::io::Error::last_os_error().raw_os_error() == Some(ffi::EPERM)
    }
    #[cfg(not(unix))]
    {
        let _ = pid;
        true
    }
}

/// Forcibly kills a process (SIGKILL on Unix; no-op elsewhere). Used by
/// the bootstrap launcher to reap children that outlive their timeout.
pub fn kill_process(pid: u64) {
    #[cfg(unix)]
    unsafe {
        ffi::kill(pid as i32, 9);
    }
    #[cfg(not(unix))]
    let _ = pid;
}

/// Blocks until `word != expected` (best effort) or `timeout` elapses.
///
/// On Linux this is a shared (cross-process) `FUTEX_WAIT`; elsewhere a
/// coarse timed poll, sufficient for the single-process fallback.
pub fn futex_wait(word: &AtomicU32, expected: u32, timeout: Duration) {
    #[cfg(target_os = "linux")]
    {
        let ts = ffi::Timespec {
            tv_sec: timeout.as_secs() as i64,
            tv_nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: the futex word is a valid, live AtomicU32; FUTEX_WAIT
        // with a non-PRIVATE op works across processes on shared memory.
        unsafe {
            ffi::syscall(
                ffi::SYS_FUTEX,
                word as *const AtomicU32,
                ffi::FUTEX_WAIT,
                expected as usize,
                &ts as *const ffi::Timespec,
            );
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        use std::sync::atomic::Ordering;
        let deadline = std::time::Instant::now() + timeout.min(Duration::from_millis(2));
        while word.load(Ordering::Acquire) == expected && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
    }
}

/// Wakes up to `n` waiters blocked in [`futex_wait`] on `word`;
/// `u32::MAX` wakes them all.
pub fn futex_wake(word: &AtomicU32, n: u32) {
    #[cfg(target_os = "linux")]
    // SAFETY: see `futex_wait`. The kernel reads `nr_wake` as a signed
    // int, where `u32::MAX` would be -1 and stop after the first waiter:
    // clamp it to the largest positive count.
    unsafe {
        ffi::syscall(
            ffi::SYS_FUTEX,
            word as *const AtomicU32,
            ffi::FUTEX_WAKE,
            n.min(i32::MAX as u32) as usize,
            std::ptr::null::<ffi::Timespec>(),
        );
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (word, n);
    }
}

#[cfg(unix)]
mod ffi {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const PROT_WRITE: c_int = 2;
    pub const MAP_SHARED: c_int = 0x01;
    #[cfg(target_os = "linux")]
    pub const MAP_ANONYMOUS: c_int = 0x20;
    #[cfg(not(target_os = "linux"))]
    pub const MAP_ANONYMOUS: c_int = 0x1000; // BSD/macOS MAP_ANON
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;
    pub const EPERM: i32 = 1;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn kill(pid: c_int, sig: c_int) -> c_int;
    }

    #[cfg(target_os = "linux")]
    mod linux {
        #[cfg(target_arch = "x86_64")]
        pub const SYS_FUTEX: std::os::raw::c_long = 202;
        #[cfg(target_arch = "aarch64")]
        pub const SYS_FUTEX: std::os::raw::c_long = 98;
        pub const FUTEX_WAIT: usize = 0;
        pub const FUTEX_WAKE: usize = 1;

        #[repr(C)]
        pub struct Timespec {
            pub tv_sec: i64,
            pub tv_nsec: i64,
        }

        extern "C" {
            pub fn syscall(
                num: std::os::raw::c_long,
                a: *const std::sync::atomic::AtomicU32,
                op: usize,
                val: usize,
                timeout: *const Timespec,
            ) -> std::os::raw::c_long;
        }
    }
    #[cfg(target_os = "linux")]
    pub use linux::*;
}

#[cfg(not(unix))]
mod ffi {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    #[test]
    fn anonymous_mapping_is_zeroed_and_writable() {
        let m = Mapping::anonymous(8192).unwrap();
        assert_eq!(m.len(), 8192);
        let s = unsafe { std::slice::from_raw_parts_mut(m.ptr(), m.len()) };
        assert!(s.iter().all(|&b| b == 0));
        s[4095] = 7;
        assert_eq!(s[4095], 7);
    }

    #[test]
    fn process_alive_self_and_bogus() {
        assert!(process_alive(pid()));
        assert!(!cfg!(unix) || !process_alive(0x3FFF_FF17));
    }

    #[test]
    fn futex_wait_times_out() {
        let w = AtomicU32::new(0);
        let t0 = std::time::Instant::now();
        futex_wait(&w, 0, Duration::from_millis(20));
        assert!(t0.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn futex_wake_releases_waiter() {
        let w = Arc::new(AtomicU32::new(0));
        let w2 = w.clone();
        let h = std::thread::spawn(move || {
            while w2.load(Ordering::Acquire) == 0 {
                futex_wait(&w2, 0, Duration::from_secs(2));
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        w.store(1, Ordering::Release);
        futex_wake(&w, u32::MAX);
        h.join().unwrap();
    }

    #[test]
    fn futex_wake_all_releases_every_waiter() {
        // Three threads park on one word with a long timeout; a single
        // wake-all must release them all well inside it.
        const PARK: Duration = Duration::from_secs(5);
        let w = Arc::new(AtomicU32::new(0));
        let parked = Arc::new(AtomicU32::new(0));
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let (w, parked) = (w.clone(), parked.clone());
                std::thread::spawn(move || {
                    parked.fetch_add(1, Ordering::SeqCst);
                    let t0 = std::time::Instant::now();
                    futex_wait(&w, 0, PARK);
                    t0.elapsed()
                })
            })
            .collect();
        while parked.load(Ordering::SeqCst) < 3 {
            std::thread::yield_now();
        }
        // Let all three reach the kernel before the (single) wake.
        std::thread::sleep(Duration::from_millis(50));
        w.store(1, Ordering::SeqCst);
        futex_wake(&w, u32::MAX);
        for h in waiters {
            let slept = h.join().unwrap();
            assert!(slept < Duration::from_secs(2), "a waiter slept out its timeout: {slept:?}");
        }
    }
}
