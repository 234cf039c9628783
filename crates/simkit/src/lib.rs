//! Deterministic cycle-level simulation primitives.
//!
//! This crate provides the small set of building blocks used by the DRAM,
//! MOMS, and accelerator models to express registered, handshaked FPGA
//! hardware in plain Rust:
//!
//! * [`BitSet`] — a fixed-size index set that remembers which components
//!   have work, so loops visit only those, in ascending order.
//! * [`Fifo`] — a bounded queue with *two-phase* semantics: items pushed
//!   during cycle *c* become visible to `pop` only from cycle *c+1*. This
//!   mirrors a registered FIFO and makes the simulation outcome independent
//!   of the order in which components are ticked within a cycle.
//! * [`DelayLine`] — a fixed-latency pipe, used for die crossings and deep
//!   pipelines where only the latency (not per-stage occupancy) matters.
//! * [`SplitMix64`] — a tiny, fully deterministic RNG so that workloads and
//!   synthetic graphs are reproducible across platforms.
//! * [`Stats`] — a name→counter registry for throughput/occupancy metrics.
//! * [`record`] — a dependency-free [`Record`]/[`Value`] model with JSON
//!   and CSV writers, used by the experiment harness to export results.
//! * [`Watchdog`] — no-forward-progress detection that turns silent
//!   deadlocks into structured [`DiagnosticSnapshot`] dumps.
//! * [`FaultInjector`] — a deterministic, seedable delay/reorder/NACK
//!   stage for stress-testing response streams.
//! * [`trace`] — a zero-cost-when-disabled event/counter tracing layer
//!   with Perfetto/Chrome-trace and CSV exporters.
//! * [`epoch`] — an epoch-barrier parallel map over independent shards
//!   whose ordered result collection keeps multi-threaded simulation
//!   byte-identical to the sequential sweep.
//! * [`fuzz`] — the deterministic fuzzing framework: per-case seed
//!   scheduling, a greedy shrinking loop, and the stable `key=value`
//!   corpus line format the conformance fuzzer's regression corpus uses.
//!
//! # Example
//!
//! ```
//! use simkit::Fifo;
//!
//! let mut f: Fifo<u32> = Fifo::new(2);
//! f.push(7).unwrap();
//! assert_eq!(f.pop(), None); // not yet visible
//! f.tick();
//! assert_eq!(f.pop(), Some(7));
//! ```

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]
pub mod bitset;
pub mod delay;
pub mod epoch;
pub mod fault;
pub mod fifo;
pub mod fuzz;
pub mod handshake;
pub mod record;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod watchdog;

pub use bitset::BitSet;
pub use delay::DelayLine;
pub use fault::{FaultConfig, FaultInjector, FaultProfile};
pub use fifo::{Fifo, PushError};
pub use handshake::CrossingLink;
pub use record::{LatencyHistogram, Record, Value};
pub use rng::SplitMix64;
pub use stats::Stats;
pub use trace::{
    EventKind, TraceConfig, TraceEvent, TraceLevel, TraceReport, Tracer, Track, TrackKind,
};
pub use watchdog::{DiagnosticSection, DiagnosticSnapshot, Watchdog};

/// Simulation time, in clock cycles of the modelled design.
pub type Cycle = u64;
