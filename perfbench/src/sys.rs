//! Process-level probes: CPU time and peak resident memory.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: CPU time of every thread of the
/// process, including threads that already exited.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// Linux `CLOCK_THREAD_CPUTIME_ID`: CPU time of the calling thread.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `struct timespec`
    // (two 64-bit fields on the 64-bit Linux targets this builds for),
    // and `clock` is one of the two CPU-time clock ids defined above,
    // which every Linux kernel supports.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time consumed by the whole process so far.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread so far.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Hands memory the allocator holds free back to the kernel (glibc's
/// `malloc_trim`). Called between repetitions, outside measured time.
pub fn release_free_memory() {
    // SAFETY: `malloc_trim` takes a plain size and only releases memory
    // that is already free; it is safe to call at any time from any
    // thread of a process that uses the system allocator.
    unsafe {
        malloc_trim(0);
    }
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}
