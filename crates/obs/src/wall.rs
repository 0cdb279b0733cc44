//! Wall-clock profiling.
//!
//! The simulator's observable clock is deterministic sim time; wall-clock
//! readings are host noise and must never feed the sim-time tracer (a
//! trace would stop being byte-reproducible). [`WallTimer`] therefore only
//! ever lands in registry *histograms*, and reads the clock only while the
//! sinks are enabled.

use crate::metrics::Histogram;

/// A started wall-clock timer, observed into a histogram on completion.
///
/// [`WallTimer::start`] reads `std::time::Instant` only when the global
/// sinks are enabled, so instrumented-but-disabled runs pay one relaxed
/// load and stay free of syscalls.
#[derive(Debug)]
pub struct WallTimer {
    started: Option<std::time::Instant>,
}

impl WallTimer {
    /// Starts a timer (no-op unless the sinks are enabled).
    #[inline]
    pub fn start() -> Self {
        WallTimer {
            started: crate::enabled().then(std::time::Instant::now),
        }
    }

    /// Records the elapsed wall seconds into `histogram` (no-op when the
    /// timer never started).
    #[inline]
    pub fn observe(self, histogram: &Histogram) {
        if let Some(t) = self.started {
            histogram.record(t.elapsed().as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn enabled_timer_records_elapsed_time() {
        let r = Registry::new();
        let h = r.histogram("test.wall.enabled");
        crate::set_enabled(true);
        let t = WallTimer::start();
        std::hint::black_box(0u64);
        t.observe(h);
        crate::set_enabled(false);
        assert_eq!(h.count(), 1);
        assert!(h.sum() >= 0.0);
        // A timer started while the sinks are disabled records nothing.
        let t = WallTimer::start();
        t.observe(h);
        assert_eq!(h.count(), 1);
    }
}
