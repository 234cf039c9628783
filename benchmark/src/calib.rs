//! Host-speed reference: a fixed piece of host work, timed just before
//! and just after the timed phase of every operation, that converts
//! measured seconds into seconds of a reference host.
//!
//! The hosts this benchmark runs on share their cores with other tenants.
//! Their speed drifts by up to 2× within seconds and stays low for
//! minutes, while a process's on-CPU time still equals its wall time, so
//! no number of repeats inside one run removes it. The kernel below lives
//! in the benchmark, not in the simulator, so a change to the simulator
//! cannot move it: scaling an operation's times by
//! `(REFERENCE_S / measured kernel time)^sensitivity` cancels most of the
//! host's drift and keeps every simulator change visible. The sensitivity
//! is a fixed property of each workload (see
//! `Workload::host_sensitivity`): most workloads slow more than the
//! kernel when the host slows.
//!
//! The kernel mimics the simulator's host profile: a four-way
//! set-associative tag store (the MOMS cache arrays), a FIFO of pending
//! entries (MSHRs and DRAM queues) and data-dependent branches, over a
//! working set of a few MiB.

use std::collections::VecDeque;
use std::time::Instant;

use simkit::SplitMix64;

use crate::spans::Spans;

/// Kernel seconds on the reference host: about the fastest kernel time
/// seen on the 2-core x86-64 VM the baselines were measured on.
/// Normalised times are in seconds of that host at its fastest.
pub const REFERENCE_S: f64 = 0.008;

/// Sets of the tag store (4 ways of 8 B each: 4 MiB).
const SETS: usize = 1 << 17;
/// Accesses per kernel run.
const ACCESSES: u32 = 600_000;

/// The kernel's state, allocated once per process so that timing the
/// kernel measures no page faults.
pub struct Reference {
    tags: Vec<[u64; 4]>,
    pending: VecDeque<u64>,
    rng: SplitMix64,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            tags: vec![[0; 4]; SETS],
            pending: VecDeque::with_capacity(64),
            rng: SplitMix64::new(0x5EED),
        }
    }
}

impl Reference {
    /// Runs the kernel once and returns its wall time in seconds.
    pub fn time(&mut self) -> f64 {
        let t = Instant::now();
        std::hint::black_box(self.work());
        t.elapsed().as_secs_f64()
    }

    fn work(&mut self) -> u64 {
        let mut hits = 0u64;
        for _ in 0..ACCESSES {
            let r = self.rng.next_u64();
            // Skewed addresses: a hot quarter of the sets takes half the
            // accesses, like clustered vertex labels.
            let set = if r & 1 == 0 {
                (r >> 8) as usize & (SETS / 4 - 1)
            } else {
                (r >> 8) as usize & (SETS - 1)
            };
            let tag = r >> 44;
            let ways = &mut self.tags[set];
            if let Some(w) = ways.iter().position(|&t| t == tag) {
                hits += 1;
                ways[..=w].rotate_right(1);
            } else {
                ways.rotate_right(1);
                ways[0] = tag;
                self.pending.push_back(r);
                if self.pending.len() == 64 {
                    while let Some(p) = self.pending.pop_front() {
                        hits = hits.wrapping_add(p & 7);
                        if self.pending.len() <= 32 {
                            break;
                        }
                    }
                }
            }
        }
        hits
    }
}

/// Times the kernel from inside an operation: once right before its
/// timed phase (which is also right after its set-up) and once right
/// after.
pub struct Probe<'a> {
    reference: &'a mut Reference,
    /// Kernel seconds right before the timed phase (0 until sampled).
    pub before_s: f64,
    /// Kernel seconds right after the timed phase (0 until sampled).
    pub after_s: f64,
}

impl<'a> Probe<'a> {
    /// A probe timing `reference`.
    pub fn new(reference: &'a mut Reference) -> Self {
        Probe {
            reference,
            before_s: 0.0,
            after_s: 0.0,
        }
    }

    /// Samples the kernel before the timed phase, in a `bench.reference`
    /// span.
    pub fn before(&mut self, spans: &mut Spans) {
        self.before_s = spans.time(REFERENCE_SPAN, || self.reference.time()).0;
    }

    /// Samples the kernel after the timed phase, in a `bench.reference`
    /// span.
    pub fn after(&mut self, spans: &mut Spans) {
        self.after_s = spans.time(REFERENCE_SPAN, || self.reference.time()).0;
    }
}

/// Name of the spans around kernel samples; they are the benchmark's own
/// time, not a layer's.
pub const REFERENCE_SPAN: &str = "bench.reference";

/// Seconds on the reference host for `secs` of work that slows as the
/// kernel time to the power `sensitivity`, measured while the kernel took
/// `kernel_s`.
pub fn normalise(secs: f64, kernel_s: f64, sensitivity: f64) -> f64 {
    secs * (REFERENCE_S / kernel_s).powf(sensitivity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_takes_time_and_normalises() {
        let mut r = Reference::default();
        assert!(r.time() > 0.0);
        assert_eq!(normalise(2.0, REFERENCE_S, 1.5), 2.0);
        assert_eq!(normalise(2.0, 2.0 * REFERENCE_S, 1.0), 1.0);
        assert_eq!(normalise(2.0, 2.0 * REFERENCE_S, 2.0), 0.5);
    }
}
