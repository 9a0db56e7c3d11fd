//! CPU clocks.
//!
//! The end-to-end times are CPU seconds, not wall-clock seconds. On a
//! shared virtual machine the hypervisor can take a large and varying
//! share of the guest's time; the guest kernel accounts that time as
//! steal and leaves it out of task CPU time, so CPU time measures the
//! program's own work. See `README.md` for the measurements that chose it.
//!
//! `clock_gettime` is called directly: the `/proc` views of the same
//! counters only advance at scheduler ticks (4 ms here), too coarse for
//! a 30 ms measurement.

#![allow(unsafe_code)]

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the CPU clocks assume 64-bit Linux's `struct timespec` and clock ids");

fn read(clock: i32) -> Option<f64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: on 64-bit Linux `struct timespec` is two `long`s, which is
    // `Timespec`'s `repr(C)` layout; `ts` is a live, writable local, and
    // `clock_gettime` writes it once and keeps no pointer to it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// CPU seconds used so far by every thread of this process, exited ones
/// included.
pub fn process_cpu_s() -> Option<f64> {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds used so far by the calling thread.
pub fn thread_cpu_s() -> Option<f64> {
    read(CLOCK_THREAD_CPUTIME_ID)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_with_work() {
        // The process interval is read outside the thread interval.
        let p0 = process_cpu_s().unwrap();
        let t0 = thread_cpu_s().unwrap();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let t1 = thread_cpu_s().unwrap();
        let p1 = process_cpu_s().unwrap();
        assert!(t1 > t0, "thread clock did not advance");
        // Allow one scheduler tick for the process clock's accounting.
        assert!(
            p1 - p0 + 0.005 >= t1 - t0,
            "the process clock covers this thread"
        );
    }
}
