//! Minimal std-only SIGTERM/SIGINT latching.
//!
//! The handler only flips an `AtomicBool` (async-signal-safe); the accept
//! loop polls [`requested`] and runs the ordinary drain path — close the
//! admission queue, let in-flight flushes finish, then exit. No libc
//! crate: `signal(2)` is declared directly (std already links libc).

use std::sync::atomic::{AtomicBool, Ordering};

static REQUESTED: AtomicBool = AtomicBool::new(false);

/// Whether a termination signal arrived since [`install`].
pub fn requested() -> bool {
    REQUESTED.load(Ordering::SeqCst)
}

/// Latch a shutdown request by hand (used by tests; equivalent to
/// receiving SIGTERM).
pub fn request() {
    REQUESTED.store(true, Ordering::SeqCst);
}

extern "C" fn on_signal(_signum: i32) {
    REQUESTED.store(true, Ordering::SeqCst);
}

/// Install the latching handler for SIGINT (ctrl-c) and SIGTERM.
/// Idempotent; a no-op on non-unix targets.
pub fn install() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        #[allow(clippy::fn_to_numeric_cast)]
        let handler = on_signal as extern "C" fn(i32) as usize;
        // SAFETY: the handler only stores to an atomic, which is
        // async-signal-safe; `signal` itself is safe to call with a valid
        // function pointer for these two signals. Under AddressSanitizer:
        // `tests/signal.rs::sigterm_drains_the_daemon_and_unlinks_its_socket`.
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}
