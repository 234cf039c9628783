//! Deterministic, seedable fault injection for response streams.
//!
//! Robustness of a miss-optimized memory system only shows under
//! adversarial timing: responses that arrive late, out of order, or get
//! transiently rejected and retried. The [`FaultInjector`] sits between
//! a producer (the DRAM model) and its consumer (the accelerator's
//! response router) and perturbs delivery according to a named
//! [`FaultProfile`] and a seed. Every decision comes from a
//! [`SplitMix64`] stream, so a `(profile, seed)` pair
//! replays the exact same fault schedule on every run and platform.
//!
//! All profiles except [`FaultProfile::BlackHole`] are *lossless*: every
//! offered item is eventually delivered exactly once, so a correct
//! consumer must produce results identical to the fault-free run.
//! `BlackHole` deliberately drops items after a grace period — it exists
//! to seed deadlocks and prove that a no-progress watchdog fires.

use std::collections::BTreeMap;
use std::str::FromStr;

use crate::watchdog::DiagnosticSection;
use crate::{Cycle, SplitMix64};

/// Items delivered unperturbed by [`FaultProfile::BlackHole`] before it
/// starts dropping everything.
pub const BLACK_HOLE_GRACE: u64 = 256;

/// A named fault schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultProfile {
    /// No perturbation: the injector is a transparent pass-through.
    #[default]
    None,
    /// Occasional large delivery delays (1/16 of items, 16–64 cycles).
    Delay,
    /// Small uniform jitter on every item, reordering near neighbours.
    Reorder,
    /// Transient NACKs: 1/32 of items are rejected and redelivered after
    /// a fixed retry penalty.
    Nack,
    /// A mild mix of delays, NACKs, and jitter.
    ChaosLite,
    /// An aggressive mix of delays, NACKs, and jitter.
    Chaos,
    /// Drops every item after [`BLACK_HOLE_GRACE`] deliveries. Lossy by
    /// design — used to seed deadlocks for watchdog tests, never part of
    /// the graceful-degradation guarantee.
    BlackHole,
    /// Sustained random loss: each item is dropped with probability
    /// `permille`/1000, survivors get a small jitter. Link-grade only —
    /// the consumer must run a retransmitting transport to survive it
    /// (the DRAM response path has no such protocol, so `Lossy` is not
    /// part of [`FaultProfile::GRACEFUL`]).
    Lossy {
        /// Drop probability in 1/1000ths (0..=1000).
        permille: u16,
    },
    /// Duplicate delivery: 1/8 of items are delivered twice, the copy
    /// trailing by a few cycles. Link-grade only — the consumer must
    /// dedup by sequence number; on the DRAM path a duplicate response
    /// would double-fire burst bookkeeping.
    Duplicate,
}

impl FaultProfile {
    /// Every built-in profile, in documentation order.
    pub const ALL: [FaultProfile; 9] = [
        FaultProfile::None,
        FaultProfile::Delay,
        FaultProfile::Reorder,
        FaultProfile::Nack,
        FaultProfile::ChaosLite,
        FaultProfile::Chaos,
        FaultProfile::BlackHole,
        FaultProfile::Lossy { permille: 100 },
        FaultProfile::Duplicate,
    ];

    /// The lossless profiles under which results must be identical to a
    /// fault-free run.
    pub const GRACEFUL: [FaultProfile; 5] = [
        FaultProfile::Delay,
        FaultProfile::Reorder,
        FaultProfile::Nack,
        FaultProfile::ChaosLite,
        FaultProfile::Chaos,
    ];

    /// Stable CLI name (`--fault-profile` spelling).
    pub fn name(&self) -> &'static str {
        match self {
            FaultProfile::None => "none",
            FaultProfile::Delay => "delay",
            FaultProfile::Reorder => "reorder",
            FaultProfile::Nack => "nack",
            FaultProfile::ChaosLite => "chaos-lite",
            FaultProfile::Chaos => "chaos",
            FaultProfile::BlackHole => "black-hole",
            FaultProfile::Lossy { .. } => "lossy",
            FaultProfile::Duplicate => "duplicate",
        }
    }

    /// `true` when the profile can drop items outright, so only a
    /// retransmitting consumer can guarantee delivery.
    pub fn is_lossy(&self) -> bool {
        matches!(self, FaultProfile::BlackHole | FaultProfile::Lossy { .. })
    }
}

impl FromStr for FaultProfile {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        // `lossy:N` selects a drop rate of N/1000; bare `lossy` means 10%.
        if let Some(rate) = s.strip_prefix("lossy:") {
            let permille: u16 = rate
                .parse()
                .ok()
                .filter(|p| *p <= 1000)
                .ok_or_else(|| format!("lossy rate {rate:?} is not in 0..=1000 (permille)"))?;
            return Ok(FaultProfile::Lossy { permille });
        }
        FaultProfile::ALL
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| format!("unknown fault profile {s:?} (try: none, delay, reorder, nack, chaos-lite, chaos, black-hole, lossy[:PERMILLE], duplicate)"))
    }
}

/// A fault schedule: which profile to apply and the RNG seed driving it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultConfig {
    /// The perturbation profile.
    pub profile: FaultProfile,
    /// Seed for the deterministic decision stream.
    pub seed: u64,
}

impl FaultConfig {
    /// A pass-through configuration (no faults).
    pub fn none() -> Self {
        FaultConfig::default()
    }

    /// `true` when the profile actually perturbs anything.
    pub fn is_active(&self) -> bool {
        self.profile != FaultProfile::None
    }
}

/// Deterministic delay/reorder/NACK/drop stage for a response stream.
///
/// [`offer`](Self::offer) an item when the producer emits it;
/// [`pop_ready`](Self::pop_ready) items whose (possibly perturbed)
/// release cycle has arrived. Items are released in `(release cycle,
/// arrival order)` order, so the schedule is fully deterministic.
///
/// # Example
///
/// ```
/// use simkit::fault::{FaultConfig, FaultInjector, FaultProfile};
/// let cfg = FaultConfig { profile: FaultProfile::Delay, seed: 1 };
/// let mut inj: FaultInjector<u32> = FaultInjector::new(cfg);
/// inj.offer(0, 7);
/// let mut now = 0;
/// let got = loop {
///     if let Some(x) = inj.pop_ready(now) {
///         break x;
///     }
///     now += 1;
/// };
/// assert_eq!(got, 7);
/// ```
#[derive(Debug, Clone)]
pub struct FaultInjector<T> {
    cfg: FaultConfig,
    rng: SplitMix64,
    held: BTreeMap<(Cycle, u64), T>,
    seq: u64,
    offered: u64,
    delivered: u64,
    delayed: u64,
    nacked: u64,
    dropped: u64,
    duplicated: u64,
}

impl<T> FaultInjector<T> {
    /// Creates an injector for `cfg`.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultInjector {
            rng: SplitMix64::new(cfg.seed ^ 0xFA_17_1D_EA),
            cfg,
            held: BTreeMap::new(),
            seq: 0,
            offered: 0,
            delivered: 0,
            delayed: 0,
            nacked: 0,
            dropped: 0,
            duplicated: 0,
        }
    }

    /// The configured schedule.
    pub fn config(&self) -> FaultConfig {
        self.cfg
    }

    /// `true` when the profile perturbs delivery (callers may bypass the
    /// injector entirely when this is `false`).
    pub fn is_active(&self) -> bool {
        self.cfg.is_active()
    }

    /// Hands one produced item to the injector at cycle `now`.
    pub fn offer(&mut self, now: Cycle, item: T)
    where
        T: Clone,
    {
        self.offered += 1;
        let extra = match self.cfg.profile {
            FaultProfile::None => 0,
            FaultProfile::Delay => {
                if self.rng.next_below(16) == 0 {
                    16 + self.rng.next_below(49)
                } else {
                    0
                }
            }
            FaultProfile::Reorder => self.rng.next_below(8),
            FaultProfile::Nack => {
                if self.rng.next_below(32) == 0 {
                    self.nacked += 1;
                    32 + self.rng.next_below(17)
                } else {
                    0
                }
            }
            FaultProfile::ChaosLite => {
                if self.rng.next_below(32) == 0 {
                    8 + self.rng.next_below(25)
                } else if self.rng.next_below(64) == 0 {
                    self.nacked += 1;
                    48
                } else {
                    self.rng.next_below(4)
                }
            }
            FaultProfile::Chaos => {
                if self.rng.next_below(8) == 0 {
                    16 + self.rng.next_below(113)
                } else if self.rng.next_below(16) == 0 {
                    self.nacked += 1;
                    96
                } else {
                    self.rng.next_below(8)
                }
            }
            FaultProfile::BlackHole => {
                if self.offered > BLACK_HOLE_GRACE {
                    self.dropped += 1;
                    return;
                }
                0
            }
            FaultProfile::Lossy { permille } => {
                if self.rng.next_below(1000) < permille as u64 {
                    self.dropped += 1;
                    return;
                }
                self.rng.next_below(4)
            }
            FaultProfile::Duplicate => {
                if self.rng.next_below(8) == 0 {
                    self.duplicated += 1;
                    let trail = 2 + self.rng.next_below(7);
                    self.held.insert((now + trail, self.seq), item.clone());
                    self.seq += 1;
                }
                self.rng.next_below(4)
            }
        };
        if extra > 0 {
            self.delayed += 1;
        }
        self.held.insert((now + extra, self.seq), item);
        self.seq += 1;
    }

    /// Pops the next item whose release cycle has arrived, if any.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        let (&key, _) = self.held.first_key_value()?;
        if key.0 > now {
            return None;
        }
        self.delivered += 1;
        self.held.remove(&key)
    }

    /// Items currently held back.
    pub fn pending(&self) -> usize {
        self.held.len()
    }

    /// Items dropped so far (nonzero only for the lossy profiles).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Extra copies injected so far (nonzero only for
    /// [`FaultProfile::Duplicate`]).
    pub fn duplicated(&self) -> u64 {
        self.duplicated
    }

    /// Items offered so far.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Items delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Current state as a diagnostic section for watchdog dumps.
    pub fn diagnostic(&self) -> DiagnosticSection {
        let mut s = DiagnosticSection::new("fault");
        s.push("profile", self.cfg.profile.name());
        s.push("seed", self.cfg.seed);
        s.push("offered", self.offered);
        s.push("delivered", self.delivered);
        s.push("delayed", self.delayed);
        s.push("nacked", self.nacked);
        s.push("dropped", self.dropped);
        s.push("duplicated", self.duplicated);
        if let FaultProfile::Lossy { permille } = self.cfg.profile {
            s.push("loss_permille", permille);
        }
        s.push("pending", self.pending());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(inj: &mut FaultInjector<u64>, until: Cycle) -> Vec<u64> {
        let mut got = Vec::new();
        for now in 0..until {
            while let Some(x) = inj.pop_ready(now) {
                got.push(x);
            }
        }
        got
    }

    #[test]
    fn none_profile_is_transparent_and_ordered() {
        let mut inj: FaultInjector<u64> = FaultInjector::new(FaultConfig::none());
        assert!(!inj.is_active());
        for i in 0..100 {
            inj.offer(i, i);
        }
        let got = drain_all(&mut inj, 200);
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn lossless_profiles_deliver_every_item_exactly_once() {
        for profile in FaultProfile::GRACEFUL {
            let mut inj: FaultInjector<u64> = FaultInjector::new(FaultConfig { profile, seed: 9 });
            for i in 0..1000 {
                inj.offer(i, i);
            }
            let mut got = drain_all(&mut inj, 3000);
            assert_eq!(inj.pending(), 0, "{} left items behind", profile.name());
            assert_eq!(inj.dropped(), 0);
            got.sort_unstable();
            assert_eq!(got, (0..1000).collect::<Vec<_>>(), "{}", profile.name());
        }
    }

    #[test]
    fn chaos_actually_reorders() {
        let mut inj: FaultInjector<u64> = FaultInjector::new(FaultConfig {
            profile: FaultProfile::Chaos,
            seed: 3,
        });
        for i in 0..1000 {
            inj.offer(i, i);
        }
        let got = drain_all(&mut inj, 3000);
        assert_ne!(got, (0..1000).collect::<Vec<_>>(), "no reordering observed");
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = FaultConfig {
            profile: FaultProfile::ChaosLite,
            seed: 42,
        };
        let mut a: FaultInjector<u64> = FaultInjector::new(cfg);
        let mut b: FaultInjector<u64> = FaultInjector::new(cfg);
        for i in 0..500 {
            a.offer(i, i);
            b.offer(i, i);
        }
        assert_eq!(drain_all(&mut a, 2000), drain_all(&mut b, 2000));
    }

    #[test]
    fn black_hole_drops_after_grace() {
        let mut inj: FaultInjector<u64> = FaultInjector::new(FaultConfig {
            profile: FaultProfile::BlackHole,
            seed: 0,
        });
        for i in 0..BLACK_HOLE_GRACE + 100 {
            inj.offer(i, i);
        }
        let got = drain_all(&mut inj, 2000);
        assert_eq!(got.len() as u64, BLACK_HOLE_GRACE);
        assert_eq!(inj.dropped(), 100);
    }

    #[test]
    fn profile_names_round_trip() {
        for p in FaultProfile::ALL {
            if let FaultProfile::Lossy { permille } = p {
                // `lossy` alone means the default 10% rate.
                assert_eq!(permille, 100);
            }
            assert_eq!(p.name().parse::<FaultProfile>().unwrap(), p);
        }
        assert!("bogus".parse::<FaultProfile>().is_err());
    }

    #[test]
    fn lossy_rate_parses_and_validates() {
        assert_eq!(
            "lossy:250".parse::<FaultProfile>().unwrap(),
            FaultProfile::Lossy { permille: 250 }
        );
        assert_eq!(
            "lossy".parse::<FaultProfile>().unwrap(),
            FaultProfile::Lossy { permille: 100 }
        );
        assert!("lossy:1001".parse::<FaultProfile>().is_err());
        assert!("lossy:abc".parse::<FaultProfile>().is_err());
    }

    #[test]
    fn lossy_drops_near_the_configured_rate_deterministically() {
        let cfg = FaultConfig {
            profile: FaultProfile::Lossy { permille: 200 },
            seed: 11,
        };
        let mut a: FaultInjector<u64> = FaultInjector::new(cfg);
        let mut b: FaultInjector<u64> = FaultInjector::new(cfg);
        for i in 0..2000 {
            a.offer(i, i);
            b.offer(i, i);
        }
        // ~20% of 2000 = 400 drops; allow wide slack, but loss must be
        // substantial and exactly reproducible for the same seed.
        assert!(
            (250..550).contains(&(a.dropped() as usize)),
            "{}",
            a.dropped()
        );
        assert_eq!(a.dropped(), b.dropped());
        assert_eq!(drain_all(&mut a, 4000), drain_all(&mut b, 4000));
    }

    #[test]
    fn duplicate_delivers_every_item_plus_extras() {
        let mut inj: FaultInjector<u64> = FaultInjector::new(FaultConfig {
            profile: FaultProfile::Duplicate,
            seed: 5,
        });
        for i in 0..800 {
            inj.offer(i, i);
        }
        let got = drain_all(&mut inj, 3000);
        assert!(inj.duplicated() > 0, "no duplicates injected");
        assert_eq!(got.len() as u64, 800 + inj.duplicated());
        assert_eq!(inj.dropped(), 0);
        let mut uniq = got.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq, (0..800).collect::<Vec<_>>(), "an item went missing");
    }

    #[test]
    fn diagnostic_reports_counters() {
        let mut inj: FaultInjector<u64> = FaultInjector::new(FaultConfig {
            profile: FaultProfile::Nack,
            seed: 1,
        });
        for i in 0..200 {
            inj.offer(i, i);
        }
        let d = inj.diagnostic();
        assert_eq!(d.name, "fault");
        assert!(d.entries.iter().any(|(k, v)| k == "profile" && v == "nack"));
        assert!(d.entries.iter().any(|(k, _)| k == "offered"));
    }
}
