//! What the benchmark asks the operating system: CPU time and context
//! switches (`getrusage`), peak resident memory (`VmHWM`), and heap traffic
//! (a counting global allocator).  The workspace vendors no `libc` crate, so
//! the one foreign call carries its own declaration, as `ppmsg-host` does.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of the 64-bit Linux ABI (glibc and musl agree): two
/// `timeval`s followed by fourteen `long`s.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct RawRusage {
    utime: TimeVal,
    stime: TimeVal,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

/// Words of a `cpu_set_t` (glibc's is 1024 bits).
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_THREAD: i32 = 1;

/// CPU time and context switches of the process (all threads) or of the
/// calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub user: Duration,
    pub sys: Duration,
    pub vol_ctx: u64,
    pub invol_ctx: u64,
    max_rss_kb: u64,
}

impl Usage {
    fn read(who: i32) -> Usage {
        let mut raw = RawRusage::default();
        // SAFETY: `raw` is a live, writable `struct rusage` of the layout the
        // kernel fills for this ABI; `getrusage` writes nothing else and
        // keeps no pointer.
        let rc = unsafe { getrusage(who, &mut raw) };
        assert_eq!(rc, 0, "getrusage({who}) failed");
        let tv = |t: TimeVal| Duration::new(t.sec.max(0) as u64, t.usec.max(0) as u32 * 1000);
        Usage {
            user: tv(raw.utime),
            sys: tv(raw.stime),
            vol_ctx: raw.nvcsw.max(0) as u64,
            invol_ctx: raw.nivcsw.max(0) as u64,
            max_rss_kb: raw.maxrss.max(0) as u64,
        }
    }

    pub fn process() -> Usage {
        Usage::read(RUSAGE_SELF)
    }

    pub fn thread() -> Usage {
        Usage::read(RUSAGE_THREAD)
    }

    pub fn cpu(&self) -> Duration {
        self.user + self.sys
    }
}

/// Where the whole process runs: the highest-numbered CPU it is allowed on
/// (CPU 0 takes most of a small guest's interrupts).  `None` when the
/// affinity call is refused.
pub fn driver_cpu() -> Option<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a live, writable buffer of the size passed; pid 0
    // names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    (0..CPU_SET_WORDS * 64).rfind(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
}

/// Pins the calling thread — and every thread it spawns afterwards, which
/// inherit the mask — to `cpu`.  `false` (and no change) when refused.
pub fn pin_current_thread(cpu: usize) -> bool {
    if cpu >= CPU_SET_WORDS * 64 {
        return false;
    }
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of the size passed that the call only
    // reads; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) == 0 }
}

/// One field of `/proc/self/status` in MiB (the kernel reports kB).
fn status_mib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let rest = status.lines().find_map(|l| l.strip_prefix(field))?;
    let kb: u64 = rest
        .trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb as f64 / 1024.0)
}

/// Peak resident set of this process in MiB, file-backed pages included:
/// `VmHWM`, or `ru_maxrss` where there is no procfs.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM").unwrap_or_else(|| Usage::process().max_rss_kb as f64 / 1024.0)
}

/// Resident anonymous memory (heap, stacks) of this process in MiB right
/// now: `RssAnon`, falling back to [`peak_rss_mib`] where the kernel does not
/// report it.
pub fn anon_rss_mib() -> f64 {
    status_mib("RssAnon").unwrap_or_else(peak_rss_mib)
}

/// The benchmark binary's allocator: the system allocator, counting calls
/// and bytes while a traced run has switched counting on.  Off, it costs one
/// relaxed load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: forwarded with the caller's own guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches allocation counting on or off (traced runs only).
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocation calls, bytes requested)` counted so far.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Nanoseconds one pass of a fixed arithmetic loop takes: a diagnostic for
/// "was the machine itself slower during this run", never applied to any
/// reported number.
pub fn calib_spin_ns() -> f64 {
    const ROUNDS: u64 = 2_000_000;
    let mut best = f64::MAX;
    for _ in 0..5 {
        let start = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..ROUNDS {
            x = std::hint::black_box(x ^ (x << 13) ^ (x >> 7)).wrapping_add(i);
        }
        std::hint::black_box(x);
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}
