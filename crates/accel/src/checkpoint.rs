//! Iteration-level checkpointing and rollback recovery for the fabric.
//!
//! A multi-device run is globally synchronous: after every barrier
//! exchange the host-side mirror holds the globally consistent `V_in`
//! values and the next-iteration active flags are known. That is exactly
//! the state a [`Checkpoint`] captures — everything needed to replay the
//! run from that barrier on fresh or rolled-back devices. The
//! [`CheckpointStore`] keeps a bounded window of them (configurable
//! interval and retention), and the [`Fabric`](crate::Fabric) consults the
//! newest one when a device or link watchdog trips: instead of
//! surfacing [`FabricError`](crate::FabricError), it rolls every shard
//! back, resets the link protocol, and replays — bounded by
//! [`RecoveryConfig::max_attempts`] — recording what happened in a
//! [`RecoveryReport`].

use simkit::Cycle;

use std::collections::VecDeque;

/// Globally consistent fabric state at one barrier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Iterations completed when this checkpoint was taken.
    pub iteration: u32,
    /// Global cycle at which every device sat at the barrier.
    pub cycle: Cycle,
    /// The globally consistent `V_in` value of every node.
    pub values: Vec<u32>,
    /// Active flags of the next iteration's source intervals.
    pub active: Vec<bool>,
    /// Edges processed so far, per device.
    pub edges: Vec<u64>,
}

/// Bounded ring of the most recent checkpoints.
///
/// # Eviction order
///
/// Eviction is deterministic and strictly oldest-first: [`save`]
/// appends at the back and pops from the front until at most
/// [`capacity`](CheckpointStore::capacity) checkpoints remain, so the
/// retained window is always the contiguous run of the newest saves, in
/// save order, regardless of how many sessions share the store or how
/// their saves interleave. Two runs that issue the same save sequence
/// observe byte-identical stores — the serving layer relies on this to
/// keep preempt/park/evict decisions reproducible when many concurrent
/// sessions checkpoint against bounded capacity.
///
/// [`save`]: CheckpointStore::save
#[derive(Debug, Clone, Default)]
pub struct CheckpointStore {
    retention: usize,
    saved: VecDeque<Checkpoint>,
    taken: u64,
}

impl CheckpointStore {
    /// A store keeping the `retention` most recent checkpoints
    /// (`retention` is clamped to at least 1 — a store that cannot hold a
    /// checkpoint cannot recover anything).
    pub fn new(retention: usize) -> Self {
        CheckpointStore {
            retention: retention.max(1),
            saved: VecDeque::new(),
            taken: 0,
        }
    }

    /// Saves `ckpt`, evicting the oldest checkpoint beyond retention.
    pub fn save(&mut self, ckpt: Checkpoint) {
        self.taken += 1;
        self.saved.push_back(ckpt);
        while self.saved.len() > self.retention {
            self.saved.pop_front();
        }
    }

    /// The newest checkpoint, if any was taken.
    pub fn latest(&self) -> Option<&Checkpoint> {
        self.saved.back()
    }

    /// The oldest retained checkpoint — the furthest the fabric could
    /// still roll back.
    pub fn oldest(&self) -> Option<&Checkpoint> {
        self.saved.front()
    }

    /// Checkpoints currently retained.
    pub fn len(&self) -> usize {
        self.saved.len()
    }

    /// Maximum checkpoints the store retains before [`save`]
    /// (oldest-first) eviction kicks in — the clamped `retention` this
    /// store was built with.
    ///
    /// [`save`]: CheckpointStore::save
    pub fn capacity(&self) -> usize {
        self.retention
    }

    /// `true` when no checkpoint was ever saved (or all were evicted).
    pub fn is_empty(&self) -> bool {
        self.saved.is_empty()
    }

    /// Total checkpoints taken over the run, including evicted ones.
    pub fn taken(&self) -> u64 {
        self.taken
    }
}

/// Rollback-recovery policy of a fabric run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Barriers between checkpoints (1 = snapshot at every barrier).
    pub checkpoint_interval: u32,
    /// How many checkpoints the store retains.
    pub retention: usize,
    /// Total rollbacks attempted before the original error surfaces.
    pub max_attempts: u32,
    /// Downtime in cycles charged per rollback (detection, link reset,
    /// and state reload), booked as `link_wait` on every PE.
    pub reset_cycles: Cycle,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            checkpoint_interval: 1,
            retention: 2,
            max_attempts: 8,
            reset_cycles: 10_000,
        }
    }
}

impl RecoveryConfig {
    /// The default policy with a checkpoint every `barriers` barriers;
    /// `None` (recovery off) for 0.
    pub fn every(barriers: u32) -> Option<RecoveryConfig> {
        (barriers > 0).then(|| RecoveryConfig {
            checkpoint_interval: barriers,
            ..RecoveryConfig::default()
        })
    }
}

/// What tripped the watchdog that a rollback answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryCause {
    /// The link exchange made no progress (lost messages, dead link).
    LinkStalled,
    /// A device's own watchdog tripped mid-iteration.
    DeviceStalled {
        /// Which device stalled.
        device: usize,
    },
}

impl RecoveryCause {
    /// Stable label for exports and diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            RecoveryCause::LinkStalled => "link-stalled",
            RecoveryCause::DeviceStalled { .. } => "device-stalled",
        }
    }
}

impl std::fmt::Display for RecoveryCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryCause::LinkStalled => write!(f, "link-stalled"),
            RecoveryCause::DeviceStalled { device } => {
                write!(f, "device-stalled[{device}]")
            }
        }
    }
}

/// One rollback the fabric performed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryAttempt {
    /// Why the rollback happened.
    pub cause: RecoveryCause,
    /// Global cycle at which the failure was detected.
    pub at_cycle: Cycle,
    /// Iteration the run resumed from (the checkpoint's iteration).
    pub resumed_iteration: u32,
    /// Cycles of work discarded plus reset downtime
    /// (`resume - checkpoint.cycle`).
    pub cycles_lost: Cycle,
}

/// Structured account of every rollback of one fabric run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Every rollback, in order.
    pub attempts: Vec<RecoveryAttempt>,
    /// Sum of `cycles_lost` over all attempts.
    pub total_cycles_lost: Cycle,
    /// Checkpoints taken over the run (including the implicit initial
    /// one).
    pub checkpoints_taken: u64,
}

impl RecoveryReport {
    /// `true` when the run rolled back at least once.
    pub fn recovered(&self) -> bool {
        !self.attempts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ckpt(iteration: u32) -> Checkpoint {
        Checkpoint {
            iteration,
            cycle: iteration as Cycle * 100,
            values: vec![iteration; 4],
            active: vec![true, false],
            edges: vec![iteration as u64 * 10; 2],
        }
    }

    #[test]
    fn store_keeps_only_the_retention_newest() {
        let mut s = CheckpointStore::new(2);
        assert!(s.is_empty());
        for i in 0..5 {
            s.save(ckpt(i));
        }
        assert_eq!(s.len(), 2);
        assert_eq!(s.taken(), 5);
        assert_eq!(s.latest().unwrap().iteration, 4);
    }

    #[test]
    fn eviction_is_strictly_oldest_first() {
        let mut s = CheckpointStore::new(3);
        for i in 0..7 {
            s.save(ckpt(i));
            // After each save the window is the contiguous newest run:
            // oldest..=latest with no gaps and no reordering.
            let oldest = s.oldest().unwrap().iteration;
            let latest = s.latest().unwrap().iteration;
            assert_eq!(latest, i);
            assert_eq!(oldest, i.saturating_sub(2));
            assert_eq!(s.len() as u32, latest - oldest + 1);
        }
        assert_eq!(s.taken(), 7);
    }

    #[test]
    fn restore_after_reset_replays_the_saved_state() {
        // A store that survives a device reset must hand back exactly the
        // bytes it was given — the fabric reloads values/active/edges from
        // the checkpoint verbatim.
        let mut s = CheckpointStore::new(2);
        s.save(ckpt(3));
        s.save(ckpt(4));
        let restored = s.latest().cloned().unwrap();
        assert_eq!(restored, ckpt(4));
        assert_eq!(restored.values, vec![4; 4]);
        assert_eq!(restored.edges, vec![40; 2]);
        // Rolling back does not consume the checkpoint: a second failure
        // can restore from the same snapshot.
        assert_eq!(s.latest().cloned().unwrap(), ckpt(4));
        assert_eq!(s.len(), 2);
        // Saving after the rollback keeps counting and evicting in order.
        s.save(ckpt(4));
        assert_eq!(s.taken(), 3);
        assert_eq!(s.oldest().unwrap().iteration, 4);
    }

    #[test]
    fn zero_retention_is_clamped_to_one() {
        let mut s = CheckpointStore::new(0);
        assert_eq!(s.capacity(), 1);
        s.save(ckpt(1));
        s.save(ckpt(2));
        assert_eq!(s.len(), 1);
        assert_eq!(s.latest().unwrap().iteration, 2);
    }

    #[test]
    fn capacity_reports_the_clamped_retention() {
        assert_eq!(CheckpointStore::new(5).capacity(), 5);
        let mut s = CheckpointStore::new(3);
        for i in 0..9 {
            s.save(ckpt(i));
            assert!(s.len() <= s.capacity());
        }
        assert_eq!(s.len(), s.capacity());
    }

    #[test]
    fn report_tracks_attempts_and_cycles() {
        let mut r = RecoveryReport::default();
        assert!(!r.recovered());
        r.attempts.push(RecoveryAttempt {
            cause: RecoveryCause::LinkStalled,
            at_cycle: 500,
            resumed_iteration: 3,
            cycles_lost: 200,
        });
        r.total_cycles_lost += 200;
        assert!(r.recovered());
        assert_eq!(r.attempts[0].cause.name(), "link-stalled");
        assert_eq!(
            RecoveryCause::DeviceStalled { device: 2 }.to_string(),
            "device-stalled[2]"
        );
    }
}
