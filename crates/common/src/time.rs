//! Monotonic time.
//!
//! Protocol code must not read ambient clocks (`Instant::now`,
//! `SystemTime::now`): chaos tests replay from a seed, and a wall-clock
//! read is a hidden input that breaks the replay. Instead, durations and
//! deadlines flow through [`mono_now`], the elapsed time since the
//! process's first reading. A test that needs to drive time by hand takes
//! `now` as an argument of the decision it checks, or holds a fake clock
//! of its own; nothing overrides `mono_now` process-wide.
//!
//! This module is the one sanctioned home for the ambient read — it is on
//! polarlint's determinism allowlist, everything else goes through it.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Monotonic reading: the time elapsed since the process's first reading.
/// Only differences are meaningful.
pub fn mono_now() -> Duration {
    origin().elapsed()
}

/// Elapsed-time measurement over [`mono_now`] — the drop-in replacement
/// for the `let t = Instant::now(); … t.elapsed()` pattern.
#[derive(Debug, Clone, Copy)]
pub struct Timer {
    start: Duration,
}

impl Timer {
    /// Start measuring.
    pub fn start() -> Timer {
        Timer { start: mono_now() }
    }

    /// Time since [`Timer::start`].
    pub fn elapsed(&self) -> Duration {
        mono_now().saturating_sub(self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mono_now_is_monotonic() {
        let a = mono_now();
        let b = mono_now();
        assert!(b >= a);
    }

    #[test]
    fn timer_measures_elapsed() {
        let t = Timer::start();
        std::thread::sleep(Duration::from_millis(2));
        assert!(t.elapsed() >= Duration::from_millis(1));
    }
}
