//! Per-thread timer slack.
//!
//! Linux lets a timed wait end up to the thread's *timer slack* after
//! its deadline (50 µs by default), so that nearby expiries can share
//! one wake-up. A worker that fires timers at absolute deadlines — the
//! open-loop load engine's intended send times — turns that lateness
//! into measurement error, so it may ask for 1 ns instead. The setting
//! belongs to the calling thread and ends with it; nothing process-wide
//! changes. On other targets these calls do nothing.

#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::{c_int, c_ulong};

    pub const PR_SET_TIMERSLACK: c_int = 29;
    #[cfg(test)]
    pub const PR_GET_TIMERSLACK: c_int = 30;

    extern "C" {
        pub fn prctl(option: c_int, ...) -> c_int;
    }

    pub fn set_timer_slack(nanos: c_ulong) {
        let zero: c_ulong = 0;
        // SAFETY: PR_SET_TIMERSLACK reads its one argument by value and
        // touches only the calling thread. It cannot fail for a positive
        // value, and a failure would only leave the default slack.
        unsafe {
            prctl(PR_SET_TIMERSLACK, nanos, zero, zero, zero);
        }
    }
}

/// Sets the calling thread's timer slack to 1 ns, the least the kernel
/// accepts (0 means "back to the default").
pub(crate) fn exact_timers() {
    #[cfg(target_os = "linux")]
    sys::set_timer_slack(1);
}

/// The calling thread's timer slack in nanoseconds.
#[cfg(all(test, target_os = "linux"))]
pub(crate) fn current_nanos() -> u64 {
    // SAFETY: PR_GET_TIMERSLACK takes no argument and reads only the
    // calling thread's setting.
    unsafe { sys::prctl(sys::PR_GET_TIMERSLACK) as u64 }
}
