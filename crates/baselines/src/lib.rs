//! Baselines and platform models for the comparison experiments.
//!
//! * [`fabgraph`] — the analytic throughput model of FabGraph used by the
//!   paper itself for Figs. 14/16 (edges always active, ideal DRAM
//!   bandwidth, no RAW stalls, internal L1↔L2 bandwidth limit).
//! * [`cpu`] — multithreaded CPU reference implementations of PageRank,
//!   SCC-style label propagation, and SSSP, standing in for Ligra/GraphMat
//!   in the Fig. 16 comparison (see DESIGN.md for the substitution).
//! * [`resources`] — the analytic FPGA resource and frequency model behind
//!   Fig. 17 and §V-G.
//! * [`platforms`] — Table IV: external bandwidth and power per platform,
//!   plus bandwidth/power-efficiency helpers.

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]
pub mod analytic;
pub mod cpu;
pub mod fabgraph;
pub mod platforms;
pub mod resources;

pub use analytic::MomsAnalyticModel;
pub use fabgraph::FabGraphModel;
pub use platforms::Platform;
pub use resources::{ResourceModel, ResourceUsage};
