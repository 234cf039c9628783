//! One preemptible job on one device slot.
//!
//! A [`Session`] is one [`accel::System`] plus the shared
//! [`IterationDriver`]: it steps the device one Template-1 iteration at a
//! time and yields after `quantum` boundaries (a *slice*), so the
//! scheduler can interleave jobs on a slot and preempt at iteration
//! boundaries.
//!
//! Preemption reuses the fabric's proven checkpoint/restore protocol:
//! at a boundary the host-visible `V_in` image plus the driver's
//! iteration, active flags and edge count are the complete algorithm
//! state, captured into an [`accel::Checkpoint`]. Resuming builds a fresh
//! `System` (simulated devices are stateless between episodes, like a
//! re-provisioned FPGA), restores the checkpoint onto it, and continues
//! from the saved iteration — bit-exact for the integer algorithms and
//! within the standard 1e-5 tolerance for PageRank, exactly as the
//! fabric's rollback path guarantees.

use std::slice;

use accel::iteration::{CheckpointShapeError, IterationDriver};
use accel::{Checkpoint, RunConfig, RunError, RunResult, System};
use algos::Algorithm;
use graph::CooGraph;
use simkit::Cycle;

/// Why a slice returned: [`Finished`](SliceEnd::Finished) when the job
/// ran out of work (converged or hit its iteration cap),
/// [`Boundary`](SliceEnd::Boundary) when the quantum expired at an
/// iteration boundary and the job can be checkpointed or continued.
pub use accel::iteration::Step as SliceEnd;

/// A job's execution state across preemption episodes.
pub struct Session {
    sys: System,
    driver: IterationDriver,
    /// Device cycles consumed so far, summed across episodes (each
    /// episode's fresh `System` restarts its own clock at zero).
    pub device_cycles: Cycle,
}

impl Session {
    /// Starts `algo` from scratch on `g` under `rc`.
    pub fn fresh(g: &CooGraph, algo: Algorithm, rc: &RunConfig) -> Self {
        let (cfg, partitioner) = rc.build();
        let sys = System::new(g, partitioner, algo, cfg);
        let driver = IterationDriver::new(slice::from_ref(&sys));
        Session {
            sys,
            driver,
            device_cycles: 0,
        }
    }

    /// Rebuilds a preempted job from `ckpt` on a fresh device.
    ///
    /// # Errors
    ///
    /// [`CheckpointShapeError`] when `ckpt` does not fit this job's graph
    /// and configuration.
    pub fn resume(
        g: &CooGraph,
        algo: Algorithm,
        rc: &RunConfig,
        ckpt: &Checkpoint,
    ) -> Result<Self, CheckpointShapeError> {
        let mut s = Session::fresh(g, algo, rc);
        s.driver.restore(slice::from_mut(&mut s.sys), ckpt)?;
        s.device_cycles = ckpt.cycle;
        Ok(s)
    }

    /// Iterations completed so far (across episodes).
    pub fn iterations_done(&self) -> u32 {
        self.driver.iteration()
    }

    /// Runs until `quantum` boundaries pass (at least one iteration is
    /// attempted) or the job finishes. Returns how the slice ended and
    /// the device cycles it consumed.
    ///
    /// # Errors
    ///
    /// [`RunError::Stalled`] when the device's no-progress watchdog
    /// trips mid-iteration; the session is inconsistent afterwards and
    /// must be dropped.
    pub fn step_slice(&mut self, quantum: u32) -> Result<(SliceEnd, Cycle), RunError> {
        let start = self.sys.now();
        let mut boundaries = 0u32;
        let end = loop {
            match self.driver.step(slice::from_mut(&mut self.sys), 1, None)? {
                SliceEnd::Finished => break SliceEnd::Finished,
                SliceEnd::Boundary => {
                    boundaries += 1;
                    if boundaries >= quantum.max(1) {
                        break SliceEnd::Boundary;
                    }
                }
            }
        };
        let used = self.sys.now() - start;
        self.device_cycles += used;
        Ok((end, used))
    }

    /// Captures the boundary state needed to resume this job later.
    /// Valid only after a [`SliceEnd::Boundary`] (the inter-iteration
    /// point where `V_in` holds the globally consistent values).
    pub fn checkpoint(&self) -> Checkpoint {
        let values = (0..self.sys.num_nodes())
            .map(|v| self.sys.read_node_in(v))
            .collect();
        self.driver.checkpoint(values, self.device_cycles)
    }

    /// Finalizes a finished job into its [`RunResult`] (values, stats).
    pub fn finish(mut self) -> RunResult {
        self.sys
            .finish(self.driver.iteration(), self.driver.edges()[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel::{Driver, ExecutionMode};
    use algos::golden;
    use graph::GraphSpec;

    fn small_graph() -> CooGraph {
        GraphSpec::rmat(6, 4).build(5).with_random_weights(1, 9, 6)
    }

    fn rc(g: &CooGraph) -> RunConfig {
        Driver::new().run_config(g)
    }

    /// Slicing at any quantum, in either execution mode, must land on the
    /// same values, iterations and total device cycles as the unsliced
    /// run — and never offer a boundary once the iteration cap is hit.
    #[test]
    fn sliced_run_matches_run_to_outcome() {
        let g = small_graph();
        let algos = [
            Algorithm::bfs(0),
            Algorithm::sssp(0),
            Algorithm::Scc,
            Algorithm::Wcc,
            Algorithm::pagerank(),
        ];
        for mode in [
            ExecutionMode::AlgorithmDefault,
            ExecutionMode::ForceSynchronous,
        ] {
            for algo in algos {
                let rc = Driver::new().execution(mode).run_config(&g);
                let whole = Driver::new().execution(mode).run(&g, algo);
                for quantum in [1, 3, u32::MAX] {
                    let what = format!("{} {mode:?} quantum {quantum}", algo.name());
                    let mut s = Session::fresh(&g, algo, &rc);
                    while let (SliceEnd::Boundary, _) = s.step_slice(quantum).unwrap() {
                        assert!(s.iterations_done() < whole.iterations, "{what}");
                    }
                    let total = s.device_cycles;
                    let r = s.finish();
                    assert_eq!(r.values, whole.values, "{what}");
                    assert_eq!(total, whole.cycles, "{what}");
                    assert_eq!(r.iterations, whole.iterations, "{what}");
                    assert_eq!(r.edges_processed, whole.edges_processed, "{what}");
                }
            }
        }
    }

    /// Checkpoint → fresh device → resume must replay to golden values,
    /// from every boundary.
    #[test]
    fn resume_from_every_boundary_is_golden_exact() {
        let g = small_graph();
        for algo in [Algorithm::bfs(0), Algorithm::sssp(2)] {
            let rc = rc(&g);
            let want = golden::run(&algo, &g);
            let mut boundary = 0;
            loop {
                let mut s = Session::fresh(&g, algo, &rc);
                let mut reached = true;
                for _ in 0..=boundary {
                    let (end, _) = s.step_slice(1).unwrap();
                    if end == SliceEnd::Finished {
                        reached = false;
                        break;
                    }
                }
                if !reached {
                    break;
                }
                let ckpt = s.checkpoint();
                drop(s);
                let mut resumed = Session::resume(&g, algo, &rc, &ckpt).unwrap();
                while let (SliceEnd::Boundary, _) = resumed.step_slice(1).unwrap() {}
                assert_eq!(
                    resumed.finish().values,
                    want,
                    "{} from boundary {boundary}",
                    algo.name()
                );
                boundary += 1;
            }
            assert!(boundary > 0, "{} never hit a boundary", algo.name());
        }
    }

    /// PageRank resumes within the standard floating-point tolerance.
    #[test]
    fn pagerank_resume_is_within_tolerance() {
        let g = small_graph();
        let algo = Algorithm::pagerank();
        let rc = rc(&g);
        let want = golden::run(&algo, &g);
        let mut s = Session::fresh(&g, algo, &rc);
        let (end, _) = s.step_slice(3).unwrap();
        assert_eq!(end, SliceEnd::Boundary);
        let ckpt = s.checkpoint();
        let mut resumed = Session::resume(&g, algo, &rc, &ckpt).unwrap();
        while let (SliceEnd::Boundary, _) = resumed.step_slice(2).unwrap() {}
        let got = resumed.finish().values;
        assert!(
            golden::pagerank_mismatch(&got, &want, 1e-5).is_none(),
            "pagerank after preempt/resume drifted past 1e-5"
        );
    }
}
