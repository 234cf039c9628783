//! No-forward-progress detection with structured diagnostics.
//!
//! A cycle-level model of a deeply pipelined memory system can deadlock
//! in ways that are invisible from the outside: every component keeps
//! ticking, yet no request ever retires. The [`Watchdog`] turns that
//! silent hang into a loud, bounded failure — the driver notes every
//! forward-progress event (a retired request, a delivered response) and
//! periodically asks the watchdog whether too many cycles have elapsed
//! since the last one. When it trips, the driver assembles a
//! [`DiagnosticSnapshot`] — per-component occupancy sections rendered as
//! a readable dump — so the stall site can be identified post mortem
//! instead of attaching a debugger to a spinning process.

use std::fmt;

use crate::Cycle;

/// Detects the absence of forward progress.
///
/// The owner calls [`note_progress`](Self::note_progress) whenever
/// anything retires and [`is_stalled`](Self::is_stalled) periodically;
/// the watchdog trips once `threshold` cycles pass without progress.
///
/// # Example
///
/// ```
/// use simkit::watchdog::Watchdog;
/// let mut w = Watchdog::new(100);
/// w.note_progress(5);
/// assert!(!w.is_stalled(100));
/// assert!(w.is_stalled(106));
/// ```
#[derive(Debug, Clone)]
pub struct Watchdog {
    threshold: Cycle,
    last_progress: Cycle,
}

impl Watchdog {
    /// Creates a watchdog that trips after `threshold` cycles without
    /// progress.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero.
    pub fn new(threshold: Cycle) -> Self {
        assert!(threshold > 0, "watchdog threshold must be nonzero");
        Watchdog {
            threshold,
            last_progress: 0,
        }
    }

    /// Records that something retired at cycle `now`.
    #[inline]
    pub fn note_progress(&mut self, now: Cycle) {
        self.last_progress = now;
    }

    /// `true` once more than the threshold has elapsed since the last
    /// progress event.
    #[inline]
    pub fn is_stalled(&self, now: Cycle) -> bool {
        now.saturating_sub(self.last_progress) > self.threshold
    }

    /// Cycles elapsed since the last progress event.
    pub fn stalled_for(&self, now: Cycle) -> Cycle {
        now.saturating_sub(self.last_progress)
    }

    /// Cycle of the most recent progress event.
    pub fn last_progress(&self) -> Cycle {
        self.last_progress
    }

    /// The configured no-progress threshold.
    pub fn threshold(&self) -> Cycle {
        self.threshold
    }
}

/// One named group of key/value diagnostics (one component's state).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagnosticSection {
    /// Component name, e.g. `"moms"` or `"dram"`.
    pub name: String,
    /// Ordered key/value pairs describing the component's state.
    pub entries: Vec<(String, String)>,
}

impl DiagnosticSection {
    /// Creates an empty section.
    pub fn new(name: impl Into<String>) -> Self {
        DiagnosticSection {
            name: name.into(),
            entries: Vec::new(),
        }
    }

    /// Appends one key/value entry.
    pub fn push(&mut self, key: impl Into<String>, value: impl fmt::Display) {
        self.entries.push((key.into(), value.to_string()));
    }
}

/// Point-in-time state dump taken when a [`Watchdog`] trips.
///
/// Rendered via [`Display`](fmt::Display) as an indented, per-section
/// report suitable for a panic message or stderr.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagnosticSnapshot {
    /// Cycle at which the stall was detected.
    pub cycle: Cycle,
    /// Cycle of the last observed progress event.
    pub last_progress: Cycle,
    /// The watchdog threshold that tripped.
    pub threshold: Cycle,
    /// Per-component state sections.
    pub sections: Vec<DiagnosticSection>,
}

impl fmt::Display for DiagnosticSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "no forward progress for {} cycles (threshold {}): last retirement \
             at cycle {}, detected at cycle {}",
            self.cycle.saturating_sub(self.last_progress),
            self.threshold,
            self.last_progress,
            self.cycle
        )?;
        for s in &self.sections {
            writeln!(f, "  [{}]", s.name)?;
            for (k, v) in &s.entries {
                writeln!(f, "    {k}: {v}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_only_after_threshold() {
        let mut w = Watchdog::new(10);
        assert!(!w.is_stalled(10));
        assert!(w.is_stalled(11));
        w.note_progress(11);
        assert!(!w.is_stalled(21));
        assert!(w.is_stalled(22));
        assert_eq!(w.stalled_for(15), 4);
        assert_eq!(w.last_progress(), 11);
        assert_eq!(w.threshold(), 10);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_threshold_rejected() {
        let _ = Watchdog::new(0);
    }

    #[test]
    fn snapshot_renders_all_sections() {
        let mut sec = DiagnosticSection::new("moms");
        sec.push("bank[0]", "mshr=3/64 subs=7");
        let snap = DiagnosticSnapshot {
            cycle: 1234,
            last_progress: 200,
            threshold: 1000,
            sections: vec![sec],
        };
        let text = snap.to_string();
        assert!(text.contains("no forward progress for 1034 cycles"));
        assert!(text.contains("[moms]"));
        assert!(text.contains("bank[0]: mshr=3/64 subs=7"));
    }
}
