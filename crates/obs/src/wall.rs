//! Wall-clock profiling behind the `wallclock` feature.
//!
//! The simulator's observable clock is deterministic sim time; wall-clock
//! readings are host noise and must never feed the sim-time tracer (a
//! trace would stop being byte-reproducible). [`WallTimer`] therefore only
//! ever lands in registry *histograms*, and only exists at all when the
//! consumer (the bench crate, the end-to-end benchmark) enables the feature
//! — with it disabled, the type is zero-sized and every method compiles
//! away.

use crate::metrics::Histogram;

/// A started wall-clock timer, observed into a histogram on completion.
///
/// Without the `wallclock` feature this is a zero-sized no-op. With it,
/// [`WallTimer::start`] reads `std::time::Instant` only when the global
/// sinks are enabled, so instrumented-but-disabled runs stay free of
/// syscalls too.
#[derive(Debug)]
pub struct WallTimer {
    #[cfg(feature = "wallclock")]
    started: Option<std::time::Instant>,
}

impl WallTimer {
    /// Starts a timer (no-op unless the `wallclock` feature is on and the
    /// sinks are enabled).
    #[inline]
    pub fn start() -> Self {
        WallTimer {
            #[cfg(feature = "wallclock")]
            started: crate::enabled().then(std::time::Instant::now),
        }
    }

    /// Records the elapsed wall seconds into `histogram` (no-op when the
    /// timer never started).
    #[inline]
    pub fn observe(self, histogram: &Histogram) {
        #[cfg(feature = "wallclock")]
        if let Some(t) = self.started {
            histogram.record(t.elapsed().as_secs_f64());
        }
        #[cfg(not(feature = "wallclock"))]
        let _ = histogram;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[cfg(not(feature = "wallclock"))]
    #[test]
    fn featureless_timer_records_nothing() {
        let r = Registry::new();
        let h = r.histogram("test.wall");
        let t = WallTimer::start();
        t.observe(h);
        assert_eq!(h.count(), 0);
    }

    #[cfg(feature = "wallclock")]
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
    }
}
