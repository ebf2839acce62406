//! Graceful-termination plumbing for long-running harness CLIs.
//!
//! `jmst_princed` and the corpus fuzzer run for minutes; a Ctrl-C or a
//! service manager's SIGTERM must not leave a half-written journal or a
//! lost corpus. This module installs minimal async-signal-safe handlers
//! (one atomic store — nothing else is legal in a handler) and exposes
//! the flag for run loops to poll: on the first SIGINT/SIGTERM the loop
//! finishes its current unit of work, flushes and closes the journal,
//! and exits — so an interrupted campaign is always resumable.
//!
//! Implemented directly against the C library's `signal(2)` (the build
//! is offline; no `libc`/`signal-hook` crates), which `std` already
//! links. `kill -9` is of course not interceptable — that path is what
//! the journal's crash-safe resume exists for.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// `SIGINT` (Ctrl-C) on every platform this repo targets.
pub const SIGINT: i32 = 2;
/// `SIGTERM` (polite kill) on every platform this repo targets.
pub const SIGTERM: i32 = 15;

static TERMINATE: AtomicBool = AtomicBool::new(false);
static INSTALLED: OnceLock<()> = OnceLock::new();

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
    fn raise(signum: i32) -> i32;
}

extern "C" fn on_terminate(_signum: i32) {
    // Async-signal-safe: a single atomic store, nothing else.
    TERMINATE.store(true, Ordering::SeqCst);
}

/// Installs SIGINT/SIGTERM handlers that set the termination flag.
/// Idempotent; safe to call from every CLI entry point.
pub fn install_termination_handler() {
    INSTALLED.get_or_init(|| {
        // SAFETY: `on_terminate` is async-signal-safe and has the exact
        // `extern "C" fn(i32)` shape `signal` expects.
        unsafe {
            signal(SIGINT, on_terminate as *const () as usize);
            signal(SIGTERM, on_terminate as *const () as usize);
        }
    });
}

/// `true` once SIGINT or SIGTERM has been received (or
/// [`request_termination`] was called). Run loops poll this between
/// units of work.
pub fn termination_requested() -> bool {
    TERMINATE.load(Ordering::SeqCst)
}

/// Sets the flag programmatically — what the signal handler does, minus
/// the signal. Lets library code and tests drive the same shutdown path.
pub fn request_termination() {
    TERMINATE.store(true, Ordering::SeqCst);
}

/// Clears the flag (between tests, or before a new campaign in a
/// long-lived process).
pub fn reset_termination() {
    TERMINATE.store(false, Ordering::SeqCst);
}

/// Serialises the lib tests that set, clear or poll the flag: it is
/// process-global, and the test harness runs tests on parallel threads,
/// so a test that clears the flag must not do so while another test's
/// campaign is meant to see it raised (or the other way round). Each
/// holder starts with the flag clear.
#[cfg(test)]
pub(crate) fn flag_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A test that failed holding the lock poisoned it and may have left
    // the flag raised; clearing the flag undoes all it could leave.
    let guard = LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    reset_termination();
    guard
}

/// Sends `signum` to the current process — the test hook proving the
/// installed handler actually runs on a real delivered signal.
pub fn raise_signal(signum: i32) {
    // SAFETY: raise(2) with a valid signal number.
    unsafe {
        raise(signum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test exercises both signals sequentially, holding the flag
    // lock: signal-handler state is process-global, so tests in parallel
    // would race on the flag.
    #[test]
    fn delivered_signals_set_the_flag_and_reset_clears_it() {
        let _flag = flag_test_lock();
        install_termination_handler();
        install_termination_handler(); // idempotent

        reset_termination();
        assert!(!termination_requested());
        raise_signal(SIGTERM);
        assert!(termination_requested(), "SIGTERM must set the flag");

        reset_termination();
        assert!(!termination_requested());
        raise_signal(SIGINT);
        assert!(termination_requested(), "SIGINT must set the flag");

        reset_termination();
        request_termination();
        assert!(termination_requested(), "programmatic path matches");
        reset_termination();
    }
}
