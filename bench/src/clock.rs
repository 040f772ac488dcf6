//! The clock the end-to-end timings are read from: CPU time of this process.
//!
//! The builder's box is a KVM guest whose host takes the virtual CPUs away
//! for up to 40 % of a minute (`steal` in `/proc/stat`); wall-clock time
//! counts those gaps, the guest's CPU-time accounting does not. CPU time also
//! leaves out time blocked on I/O, and it adds up the threads of a pass; the
//! spans of a traced run keep wall-clock time beside it.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux.
const PROCESS_CPUTIME: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU seconds this process has used, all threads together.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` of the layout 64-bit Linux
    // uses (two 64-bit fields), and the call writes nothing else.
    let rc = unsafe { clock_gettime(PROCESS_CPUTIME, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        // Other tests run on other threads of this process and add to the
        // clock, so only a lower bound can be checked.
        let a = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - a < 0.02 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds() - a >= 0.02);
    }
}
