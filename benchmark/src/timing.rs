//! Clocks the standard library does not expose.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("vxmeter reads CLOCK_THREAD_CPUTIME_ID and /proc/self/status: 64-bit Linux only");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has consumed, in seconds. Unlike wall
/// time it does not grow while the shared host runs someone else.
pub fn thread_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, enforced by the cfg gate above) and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_THREAD_CPUTIME_ID unavailable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set of this process in MiB (`VmHWM`), or NaN when the
/// kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_time_advances_with_work() {
        let before = thread_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(thread_cpu_s() > before, "{x}");
    }

    #[test]
    fn peak_rss_is_reported() {
        assert!(peak_rss_mib() > 0.0);
    }
}
