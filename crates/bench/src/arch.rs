//! Architecture design points of the exploration (Fig. 11).
//!
//! The label convention follows the paper: `X/Y Zk` means X PEs, Y shared
//! MOMS banks, and Z kB of private cache; `private X` has per-PE MOMSes
//! only; `trad X/Y` is the two-level traditional nonblocking cache.
//!
//! On-chip capacities are scaled with the graphs (see EXPERIMENTS.md):
//! the default scaled bank keeps the paper's *ratios* — MSHR counts stay
//! in the thousands system-wide (Little's-law bound, not graph-size
//! bound) while cache arrays shrink with the node set.

use accel::RunConfig;
use algos::Algorithm;
use baselines::ResourceModel;
use moms::{CacheConfig, MomsConfig, MomsSystemConfig, Topology};

/// DRAM channels of every experiment point except Fig. 14's sweep: the
/// four DDR4 channels of the paper's f1 board.
pub const F1_CHANNELS: usize = 4;

/// Interval sizes `(Ns, Nd)` for a given extra shrink factor.
///
/// Scaled so that jobs stay 1–2 orders of magnitude more numerous than
/// PEs, as §IV-E requires (the paper has 500–3,600 jobs for 16–24 PEs;
/// quick-scope graphs have 15k–40k nodes, so Nd must shrink with them).
pub fn intervals_for(shrink: u64) -> (u32, u32) {
    if shrink >= 4 {
        (2048, 256)
    } else {
        (4096, 512)
    }
}

/// A named design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchPoint {
    /// Paper-style label.
    pub name: &'static str,
    /// MOMS organisation.
    pub topology: Topology,
    /// Number of PEs.
    pub pes: usize,
    /// Shared banks (ignored for private topology).
    pub banks: usize,
    /// Private cache in scaled KiB (0 = none).
    pub private_cache_kib: usize,
    /// Shared cache per bank in scaled KiB (0 = none).
    pub shared_cache_kib: usize,
    /// `true` for the traditional (16-MSHR fully associative) variant.
    pub traditional: bool,
}

impl ArchPoint {
    /// The Fig. 11 exploration set.
    pub const ALL: [ArchPoint; 7] = [
        ArchPoint {
            name: "shared 24/8",
            topology: Topology::Shared,
            pes: 24,
            banks: 8,
            private_cache_kib: 0,
            shared_cache_kib: 4,
            traditional: false,
        },
        ArchPoint {
            name: "shared 18/16",
            topology: Topology::Shared,
            pes: 18,
            banks: 16,
            private_cache_kib: 0,
            shared_cache_kib: 4,
            traditional: false,
        },
        ArchPoint {
            name: "private 18",
            topology: Topology::Private,
            pes: 18,
            banks: 0,
            private_cache_kib: 4,
            shared_cache_kib: 0,
            traditional: false,
        },
        ArchPoint {
            name: "2lvl 16/16",
            topology: Topology::TwoLevel,
            pes: 16,
            banks: 16,
            private_cache_kib: 0,
            shared_cache_kib: 4,
            traditional: false,
        },
        ArchPoint {
            name: "2lvl 18/16",
            topology: Topology::TwoLevel,
            pes: 18,
            banks: 16,
            private_cache_kib: 0,
            shared_cache_kib: 4,
            traditional: false,
        },
        ArchPoint {
            name: "2lvl 20/8 +pc",
            topology: Topology::TwoLevel,
            pes: 20,
            banks: 8,
            private_cache_kib: 2,
            shared_cache_kib: 4,
            traditional: false,
        },
        ArchPoint {
            name: "trad 20/8",
            topology: Topology::TwoLevel,
            pes: 20,
            banks: 8,
            private_cache_kib: 2,
            shared_cache_kib: 4,
            traditional: true,
        },
    ];

    /// A quick subset for fast runs: one per family.
    pub const QUICK: [ArchPoint; 4] = [
        Self::ALL[1], // shared 18/16
        Self::ALL[2], // private 18
        Self::ALL[4], // 2lvl 18/16
        Self::ALL[6], // trad 20/8
    ];

    /// The paper's headline architecture (two-level 16/16).
    pub fn two_level_16_16() -> ArchPoint {
        Self::ALL[3]
    }

    /// The Fig. 15 subject (two-level 20/8 with caches).
    pub fn two_level_20_8() -> ArchPoint {
        Self::ALL[5]
    }

    /// The paper's headline two-level point (also in [`Self::QUICK`]);
    /// the perf smoke gate pins this architecture.
    pub fn two_level_18_16() -> ArchPoint {
        Self::ALL[4]
    }

    fn scaled_bank(&self, cache_kib: usize, private: bool, shrink: usize) -> MomsConfig {
        if self.traditional {
            // Same cache capacity as the MOMS counterpart (Fig. 15
            // compares the designs at matched cache budgets).
            let cache = (cache_kib > 0)
                .then(|| CacheConfig::set_associative_kib((cache_kib / shrink).max(1), 4));
            return MomsConfig::traditional(cache);
        }
        let cache = (cache_kib > 0).then(|| {
            if private {
                CacheConfig::set_associative_kib((cache_kib / shrink).max(1), 4)
            } else {
                CacheConfig::direct_mapped_kib((cache_kib / shrink).max(1))
            }
        });
        MomsConfig {
            cache,
            mshrs: 512,
            cuckoo_ways: 4,
            max_kicks: 8,
            subentries: if private { 12288 } else { 8192 },
            subentry_slots_per_row: 4,
            chain_rows: true,
            in_queue: 8,
            out_queue: 8,
            mem_queue: 16,
            burst_assembly: None,
        }
    }

    /// MOMS system configuration at simulator scale.
    ///
    /// `with_caches = false` deactivates every cache array (Fig. 12/15).
    pub fn moms_config(
        &self,
        channels: usize,
        shrink: usize,
        with_caches: bool,
    ) -> MomsSystemConfig {
        let mut shared = self.scaled_bank(self.shared_cache_kib, false, shrink);
        let mut private = self.scaled_bank(self.private_cache_kib, true, shrink);
        if !with_caches {
            shared = shared.without_cache();
            private = private.without_cache();
        }
        // Banks must split evenly over channels; round up.
        let banks = if matches!(self.topology, Topology::Private) {
            channels // unused, but keep validate() happy for other fields
        } else {
            self.banks.div_ceil(channels) * channels
        };
        MomsSystemConfig::new(self.topology, self.pes, channels, banks, shared, private)
    }

    /// The run configuration of this design point on `channels` DRAM
    /// channels with graphs shrunk by `shrink`: banks from
    /// [`moms_config`](Self::moms_config), intervals from
    /// [`intervals_for`], full caches and algorithm-default execution.
    pub fn run_config(&self, channels: usize, shrink: u64) -> RunConfig {
        RunConfig::new(
            self.moms_config(channels, shrink.max(1) as usize, true),
            intervals_for(shrink),
        )
    }

    /// Estimated clock frequency in MHz for this design point at *paper*
    /// scale (the resource model evaluates the real design, not the scaled
    /// simulator stand-in).
    pub fn frequency_mhz(&self, channels: usize, algo: &Algorithm) -> f64 {
        let mut cfg = self.moms_config(channels, 1, true);
        // Paper-scale banks for the resource estimate.
        cfg.shared = if self.traditional {
            MomsConfig::traditional(Some(CacheConfig::direct_mapped_kib(256)))
        } else {
            MomsConfig::paper_shared_bank()
        };
        cfg.private = MomsConfig::paper_private_bank(self.private_cache_kib > 0);
        let model = ResourceModel {
            moms: cfg,
            floating_point: matches!(algo, Algorithm::PageRank { .. }),
            pe_buffer_bytes: 32_768 * algo.bram_words() as u64 * 4,
        };
        model.frequency_mhz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_points_produce_valid_configs() {
        for a in ArchPoint::ALL {
            for ch in [1usize, 2, 4] {
                let c = a.moms_config(ch, 4, true);
                c.validate();
            }
        }
    }

    #[test]
    fn cacheless_variant_strips_arrays() {
        let a = ArchPoint::two_level_20_8();
        let c = a.moms_config(4, 1, false);
        assert!(c.shared.cache.is_none());
        assert!(c.private.cache.is_none());
        let c = a.moms_config(4, 1, true);
        assert!(c.shared.cache.is_some());
        assert!(c.private.cache.is_some());
    }

    #[test]
    fn traditional_point_uses_small_mshr_file() {
        let a = ArchPoint::ALL[6];
        let c = a.moms_config(4, 1, true);
        assert_eq!(c.shared.mshrs, 16);
        assert!(c.shared.is_fully_associative());
        assert!(!c.shared.chain_rows);
    }

    #[test]
    fn frequencies_fall_in_paper_band() {
        for a in ArchPoint::ALL {
            let f = a.frequency_mhz(4, &Algorithm::Scc);
            assert!(
                (150.0..=250.0).contains(&f),
                "{}: {f} MHz out of range",
                a.name
            );
        }
    }

    #[test]
    fn banks_round_to_channel_multiple() {
        let a = ArchPoint::ALL[0]; // 8 banks
        let c = a.moms_config(3, 1, true);
        assert_eq!(c.shared_banks % 3, 0);
    }
}
