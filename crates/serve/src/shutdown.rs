//! Graceful-shutdown plumbing, std-only.
//!
//! The workspace takes no external crates, so SIGTERM/SIGINT handling
//! goes through the two libc symbols the platform already links:
//! `signal` to install a flag-setting handler and `kill` to let drills
//! deliver signals to child processes. A handler may only do
//! async-signal-safe work, so ours stores one atomic; everything else
//! — lease release, journal flush, server teardown — happens in normal
//! code that observes the flag between seeds / accepts.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::sync::OnceLock;

/// `SIGINT` (Ctrl-C).
pub const SIGINT: i32 = 2;
/// `SIGTERM` (polite kill; `SIGKILL` by definition cannot be handled).
pub const SIGTERM: i32 = 15;

static FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();

#[cfg(unix)]
mod sys {
    extern "C" {
        pub fn signal(signum: i32, handler: usize) -> usize;
        pub fn kill(pid: i32, sig: i32) -> i32;
    }

    pub extern "C" fn on_signal(_signum: i32) {
        if let Some(f) = super::FLAG.get() {
            f.store(true, std::sync::atomic::Ordering::SeqCst);
        }
    }
}

/// Installs SIGTERM/SIGINT handlers (first call only) and returns the
/// process-wide shutdown flag they set. Wire the returned flag into
/// [`flame_core::ShardOptions::shutdown`] and server accept loops; on
/// non-Unix targets the flag simply never fires.
pub fn install() -> Arc<AtomicBool> {
    let flag = FLAG
        .get_or_init(|| Arc::new(AtomicBool::new(false)))
        .clone();
    #[cfg(unix)]
    {
        static INSTALLED: AtomicBool = AtomicBool::new(false);
        if !INSTALLED.swap(true, Ordering::SeqCst) {
            unsafe {
                sys::signal(SIGTERM, sys::on_signal as *const () as usize);
                sys::signal(SIGINT, sys::on_signal as *const () as usize);
            }
        }
    }
    flag
}

/// Sends `sig` to process `pid` (drill helper: a process test SIGTERMs
/// its child server to exercise the graceful path). Returns `false` on
/// failure or on non-Unix targets.
pub fn send_signal(pid: u32, sig: i32) -> bool {
    #[cfg(unix)]
    {
        let p = i32::try_from(pid).unwrap_or(0);
        p > 0 && unsafe { sys::kill(p, sig) } == 0
    }
    #[cfg(not(unix))]
    {
        let _ = (pid, sig);
        false
    }
}
