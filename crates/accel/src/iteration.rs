//! The Template-1 iteration loop, written once for every run path.
//!
//! [`IterationDriver`] owns the loop's control state — iteration counter,
//! resolved cap, next-iteration active flags, edges per device — and
//! advances a slice of devices one iteration per
//! [`step`](IterationDriver::step), a BSP superstep over shards.
//! [`System::run_to_outcome`] is the one-device case stepped until
//! [`Step::Finished`]; a serving session yields every `quantum`
//! [`Step::Boundary`]s; the [`Fabric`](crate::Fabric) runs its barrier
//! exchange at every boundary. The mapping between this state and a
//! [`Checkpoint`] lives only here.

use std::time::Instant;

use simkit::watchdog::DiagnosticSnapshot;
use simkit::Cycle;

use crate::checkpoint::Checkpoint;
use crate::system::{RunError, System};

/// How one [`IterationDriver::step`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The run is over: it converged, no job was active, or the iteration
    /// cap was reached.
    Finished,
    /// An iteration completed and another one will run; `V_in` holds the
    /// current values, so the state can be checkpointed or exchanged.
    Boundary,
}

/// Why a step failed. The devices are left mid-iteration: drop them or
/// [`restore`](IterationDriver::restore) a checkpoint onto fresh ones.
#[derive(Debug)]
pub enum StepError {
    /// The host wall-clock deadline expired (on any device).
    TimedOut,
    /// The lowest-index device whose no-progress watchdog tripped.
    Stalled {
        /// Which device stalled.
        device: usize,
        /// The device's diagnostic dump.
        snapshot: Box<DiagnosticSnapshot>,
    },
}

impl From<StepError> for RunError {
    fn from(e: StepError) -> Self {
        match e {
            StepError::TimedOut => RunError::TimedOut,
            StepError::Stalled { snapshot, .. } => RunError::Stalled(snapshot),
        }
    }
}

/// A checkpoint whose shape does not match the devices it is restored
/// onto (a truncated or foreign snapshot).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointShapeError {
    /// The mismatched [`Checkpoint`] field: `values`, `active` or `edges`.
    pub field: &'static str,
    /// Entries the devices require.
    pub expected: usize,
    /// Entries the checkpoint holds.
    pub found: usize,
}

impl std::fmt::Display for CheckpointShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (field, want, got) = (self.field, self.expected, self.found);
        write!(f, "checkpoint {field} has {got} entries, expected {want}")
    }
}

impl std::error::Error for CheckpointShapeError {}

/// Resumable Template-1 control state of one run over a fixed set of
/// devices.
#[derive(Debug)]
pub struct IterationDriver {
    iter: u32,
    max_iter: u32,
    /// Active flags of the next iteration's source intervals.
    active: Vec<bool>,
    edges: Vec<u64>,
    /// Devices that had jobs in the current iteration.
    stepped: Vec<bool>,
}

impl IterationDriver {
    /// Fresh state for `devices` (non-empty): iteration 0, every source
    /// interval active, the cap resolved from the first device.
    pub fn new(devices: &[System]) -> Self {
        let first = &devices[0];
        IterationDriver {
            iter: 0,
            max_iter: first.resolved_max_iterations(),
            active: vec![true; first.num_source_intervals()],
            edges: vec![0; devices.len()],
            stepped: vec![false; devices.len()],
        }
    }

    /// Iterations completed so far.
    pub fn iteration(&self) -> u32 {
        self.iter
    }

    /// Edges processed so far, per device.
    pub fn edges(&self) -> &[u64] {
        &self.edges
    }

    /// Runs one iteration over `devices` (the same ones on every call) on
    /// up to `threads` host workers. Outcomes are handled in ascending
    /// device order, so every observable is identical for any `threads`.
    ///
    /// # Errors
    ///
    /// [`StepError::TimedOut`] when `deadline` passes, before the
    /// iteration or on any device; otherwise [`StepError::Stalled`] for
    /// the lowest-index stalled device (every stepped device finishes its
    /// iteration first, so the choice does not depend on scheduling).
    pub fn step(
        &mut self,
        devices: &mut [System],
        threads: usize,
        deadline: Option<Instant>,
    ) -> Result<Step, StepError> {
        if self.iter >= self.max_iter {
            return Ok(Step::Finished);
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(StepError::TimedOut);
        }
        let iter = self.iter;
        let mut total_jobs = 0;
        for (dev, ran) in devices.iter_mut().zip(&mut self.stepped) {
            let jobs = dev.begin_iteration(iter, &self.active);
            *ran = jobs > 0;
            total_jobs += jobs;
        }
        if total_jobs == 0 {
            return Ok(Step::Finished);
        }
        let stepped = &self.stepped;
        let outcomes = simkit::epoch::run_epoch(devices, threads, |i, dev| {
            stepped[i].then(|| dev.step_iteration(iter, deadline))
        });
        let mut stall = None;
        for (i, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                None => {}
                Some(Ok(edges)) => self.edges[i] += edges,
                Some(Err(RunError::TimedOut)) => return Err(StepError::TimedOut),
                Some(Err(RunError::Stalled(snapshot))) => {
                    stall.get_or_insert(StepError::Stalled {
                        device: i,
                        snapshot,
                    });
                }
            }
        }
        if let Some(err) = stall {
            return Err(err);
        }
        self.iter += 1;

        let ran = || {
            devices
                .iter()
                .zip(&self.stepped)
                .filter_map(|(dev, &ran)| ran.then_some(dev))
        };
        // `continues` is always true for an always-active algorithm. At
        // the cap a synchronous image's final values still sit in `V_out`
        // (no swap), so no boundary may be offered there.
        if self.iter >= self.max_iter || !ran().any(System::continues) {
            return Ok(Step::Finished);
        }
        self.active.fill(false);
        for dev in ran() {
            for (f, d) in self.active.iter_mut().zip(dev.next_active_srcs()) {
                *f |= d;
            }
        }
        if devices[0].is_synchronous_image() {
            for dev in devices.iter_mut() {
                dev.advance_synchronous_frontier();
            }
        }
        Ok(Step::Boundary)
    }

    /// Captures this state at a [`Step::Boundary`] (or before the first
    /// step) with the caller's consistent `V_in` `values` and resume
    /// `cycle`.
    pub fn checkpoint(&self, values: Vec<u32>, cycle: Cycle) -> Checkpoint {
        Checkpoint {
            iteration: self.iter,
            cycle,
            values,
            active: self.active.clone(),
            edges: self.edges.clone(),
        }
    }

    /// Reloads `ckpt`: its values into every device's `V_in`, and its
    /// iteration, active flags and edge counts into this driver. Applying
    /// `ckpt.cycle` is the caller's job.
    ///
    /// # Errors
    ///
    /// [`CheckpointShapeError`] unless the checkpoint holds one value per
    /// node, one flag per source interval and one edge count per device;
    /// nothing is modified then.
    pub fn restore(
        &mut self,
        devices: &mut [System],
        ckpt: &Checkpoint,
    ) -> Result<(), CheckpointShapeError> {
        let shape = [
            ("values", devices[0].num_nodes() as usize, ckpt.values.len()),
            ("active", self.active.len(), ckpt.active.len()),
            ("edges", self.edges.len(), ckpt.edges.len()),
        ];
        if let Some(&(field, expected, found)) = shape.iter().find(|(_, e, f)| e != f) {
            return Err(CheckpointShapeError {
                field,
                expected,
                found,
            });
        }
        for dev in devices.iter_mut() {
            for (v, &val) in ckpt.values.iter().enumerate() {
                dev.write_node_in(v as u32, val);
            }
        }
        self.iter = ckpt.iteration;
        self.active.copy_from_slice(&ckpt.active);
        self.edges.copy_from_slice(&ckpt.edges);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Driver;
    use algos::Algorithm;
    use graph::GraphSpec;
    use std::slice;

    fn device() -> System {
        let g = GraphSpec::rmat(7, 4).build(3);
        let (cfg, p) = Driver::new().run_config(&g).build();
        System::new(&g, p, Algorithm::bfs(0), cfg)
    }

    fn values(sys: &System) -> Vec<u32> {
        (0..sys.num_nodes()).map(|v| sys.read_node_in(v)).collect()
    }

    #[test]
    fn restore_of_checkpoint_round_trips_the_control_state() {
        let mut sys = device();
        let mut driver = IterationDriver::new(slice::from_ref(&sys));
        for _ in 0..2 {
            let step = driver.step(slice::from_mut(&mut sys), 1, None);
            assert_eq!(step.unwrap(), Step::Boundary);
        }
        let ckpt = driver.checkpoint(values(&sys), sys.now());
        assert!(ckpt.iteration == 2 && ckpt.edges[0] > 0);

        let mut fresh = device();
        let mut restored = IterationDriver::new(slice::from_ref(&fresh));
        restored
            .restore(slice::from_mut(&mut fresh), &ckpt)
            .unwrap();
        assert_eq!(restored.checkpoint(values(&fresh), ckpt.cycle), ckpt);
    }

    #[test]
    fn truncated_checkpoint_is_an_error_not_a_panic() {
        let mut sys = device();
        let mut driver = IterationDriver::new(slice::from_ref(&sys));
        let good = driver.checkpoint(values(&sys), 0);
        for field in ["values", "active", "edges"] {
            let mut bad = good.clone();
            bad.iteration = 5;
            match field {
                "values" => bad.values.truncate(1),
                "active" => bad.active.clear(),
                _ => bad.edges.push(0),
            }
            let err = driver.restore(slice::from_mut(&mut sys), &bad).unwrap_err();
            assert_eq!(err.field, field);
            assert_eq!(driver.iteration(), 0, "failed restore left state intact");
        }
    }
}
