//! SIGINT/SIGTERM → a process-wide shutdown flag.
//!
//! The node's accept loop polls `interrupted` between accepts; a signal
//! therefore triggers the same graceful drain as a `Shutdown` frame.  The
//! handler itself only stores into an `AtomicBool` — the one thing that is
//! unconditionally async-signal-safe.
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod ffi {
    pub const SIGINT: i32 = 2;
    pub const SIGTERM: i32 = 15;

    extern "C" {
        // `signal(2)` rather than `sigaction(2)`: we need no siginfo, no
        // masks, and no SA_RESTART control — just a handler swap, which
        // `signal` does portably across the unix targets we build on.
        pub fn signal(signum: i32, handler: usize) -> usize;
    }
}

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    INTERRUPTED.store(true, Ordering::SeqCst);
}

/// Installs the SIGINT and SIGTERM handlers.  Idempotent; call once per
/// process before the accept loop starts.
pub fn install() {
    #[cfg(unix)]
    // SAFETY: `on_signal` is an `extern "C"` fn that only performs an
    // atomic store, which is async-signal-safe.  Passing a function
    // pointer as `usize` matches the `signal(2)` ABI on every 64-bit unix
    // target we support.
    unsafe {
        ffi::signal(ffi::SIGINT, on_signal as *const () as usize);
        ffi::signal(ffi::SIGTERM, on_signal as *const () as usize);
    }
}

/// Whether a shutdown signal has arrived.
pub(crate) fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::SeqCst)
}

/// Resets the flag (tests only — a real node exits after one interrupt).
#[cfg(test)]
fn reset() {
    INTERRUPTED.store(false, Ordering::SeqCst);
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    #[test]
    fn a_raised_signal_sets_the_flag() {
        install();
        reset();
        assert!(!interrupted());
        // Raise SIGTERM at ourselves through the installed handler.
        extern "C" {
            fn raise(signum: i32) -> i32;
        }
        // SAFETY: `raise(2)` with a signal we installed a handler for.
        unsafe {
            raise(ffi::SIGTERM);
        }
        assert!(interrupted());
        reset();
    }
}
