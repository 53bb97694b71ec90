//! Whole-process accounting, straight from libc (Linux): CPU from
//! `CLOCK_PROCESS_CPUTIME_ID`, so threads of the in-process server
//! count, and `CLOCK_THREAD_CPUTIME_ID`; peak RSS from `VmHWM`.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

fn cpu_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of
    // the call, and the clock id is a constant Linux defines.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time of every thread of this process, in seconds.
pub fn process_cpu_s() -> f64 {
    cpu_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread, in seconds.
pub fn thread_cpu_s() -> f64 {
    cpu_s(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

/// Return freed heap pages to the kernel (glibc `malloc_trim`).
pub fn trim_heap() {
    // SAFETY: malloc_trim only walks the allocator's own free lists;
    // it takes no pointers from the caller.
    unsafe {
        malloc_trim(0);
    }
}

/// Reset `VmHWM` to the current RSS (`/proc/self/clear_refs`, value 5).
pub fn reset_peak_rss() {
    // Best effort: without it the mark also covers earlier set-ups.
    std::fs::write("/proc/self/clear_refs", "5").ok();
}
