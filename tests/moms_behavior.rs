//! Integration tests of the paper's architectural claims: coalescing,
//! topology trade-offs, traditional-cache collapse, cache-array
//! redundancy, bandwidth scaling, and the thousands-of-outstanding-misses
//! headline — the qualitative shapes behind Figs. 11, 12, 14, and 15.
//!
//! The memory-system claims are driven with controlled synthetic request
//! streams against [`MomsSystem`] directly; the execution-model claims run
//! the full accelerator.

use accel::{PeConfig, System, SystemConfig};
use algos::Algorithm;
use dram::{DramConfig, MemorySystem};
use graph::Partitioner;
use moms::{CacheConfig, MomsConfig, MomsReq, MomsSystem, MomsSystemConfig, Topology};
use simkit::SplitMix64;

fn moms_config(topology: Topology, pes: usize, channels: usize) -> MomsSystemConfig {
    MomsSystemConfig::new(
        topology,
        pes,
        channels,
        4 * channels,
        MomsConfig::paper_shared_bank()
            .scaled(1, 32)
            .without_cache(),
        MomsConfig::paper_private_bank(false).scaled(1, 32),
    )
}

/// Shard-shaped request stream: edge streaming reads sources within one
/// source interval (a window of `window_lines` cache lines) for
/// `window_len` consecutive requests before moving on, with a power-law
/// skew of exponent `skew` inside the window — the access pattern the
/// partitioned layout actually produces (§III-A).
fn shard_stream(
    count: usize,
    window_lines: u64,
    window_len: usize,
    skew: i32,
    seed: u64,
) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|i| {
            let base = (i / window_len) as u64 * window_lines;
            let u = rng.next_f64().powi(skew);
            base + ((u * window_lines as f64) as u64).min(window_lines - 1)
        })
        .collect()
}

/// Feeds one request per PE per cycle (round-robin over the stream) until
/// every response returns; reports total cycles and system stats.
fn drive(cfg: MomsSystemConfig, dram: DramConfig, stream: &[u64]) -> (u64, simkit::Stats) {
    let pes = cfg.num_pes;
    let channels = cfg.num_channels;
    let mut sys = MomsSystem::new(cfg);
    let mut mem = MemorySystem::new(dram, channels);
    let mut next = vec![0usize; pes]; // per-PE cursor into its slice
    let per_pe: Vec<Vec<u64>> = (0..pes)
        .map(|p| stream.iter().skip(p).step_by(pes).copied().collect())
        .collect();
    let mut received = 0usize;
    let mut now = 0u64;
    while received < stream.len() {
        for p in 0..pes {
            if next[p] < per_pe[p].len() {
                let line = per_pe[p][next[p]];
                if sys.try_request(
                    p,
                    MomsReq {
                        line,
                        word: (line % 16) as u8,
                        id: (next[p] % 65536) as u32,
                    },
                ) {
                    next[p] += 1;
                }
            }
        }
        sys.tick(now, &mut mem);
        mem.tick(now);
        for ch in 0..mem.num_channels() {
            while let Some(r) = mem.pop_response(now, ch) {
                assert!(MomsSystem::owns_dram_id(r.id));
                sys.dram_response(r.id, r.lines);
            }
        }
        for p in 0..pes {
            while sys.pop_response(p).is_some() {
                received += 1;
            }
        }
        now += 1;
        assert!(now < 50_000_000, "stream did not drain");
    }
    (now, sys.stats())
}

#[test]
fn moms_coalescing_cuts_dram_reads_well_below_request_count() {
    let stream = shard_stream(40_000, 128, 4000, 4, 1);
    let (_, stats) = drive(
        moms_config(Topology::TwoLevel, 4, 1),
        DramConfig::default(),
        &stream,
    );
    let dram_lines = stats.get("dram_line_requests");
    assert!(
        dram_lines * 4 < stream.len() as u64,
        "coalescing too weak: {dram_lines} lines for {} reads",
        stream.len()
    );
}

#[test]
fn two_level_issues_less_dram_traffic_than_private() {
    let stream = shard_stream(30_000, 256, 3000, 2, 2);
    let (_, two) = drive(
        moms_config(Topology::TwoLevel, 4, 2),
        DramConfig::default(),
        &stream,
    );
    let (_, prv) = drive(
        moms_config(Topology::Private, 4, 2),
        DramConfig::default(),
        &stream,
    );
    assert!(
        two.get("dram_line_requests") < prv.get("dram_line_requests"),
        "two-level {} vs private {}",
        two.get("dram_line_requests"),
        prv.get("dram_line_requests")
    );
}

#[test]
fn moms_outperforms_traditional_cache_on_skewed_stream() {
    // Same stream, same DRAM, same (small) cache budget: the MOMS absorbs
    // the miss burst in its thousands of subentries, the 16-entry MSHR
    // file stalls (§II, Fig. 12).
    let stream = shard_stream(40_000, 256, 4000, 2, 3);
    let moms_cfg = moms_config(Topology::TwoLevel, 4, 2);
    let (t_moms, _) = drive(moms_cfg, DramConfig::default(), &stream);

    let mut trad_cfg = moms_config(Topology::TwoLevel, 4, 2);
    trad_cfg.shared = MomsConfig::traditional(Some(CacheConfig { lines: 32, ways: 1 }));
    trad_cfg.private = MomsConfig::traditional(Some(CacheConfig { lines: 32, ways: 4 }));
    let (t_trad, _) = drive(trad_cfg, DramConfig::default(), &stream);

    assert!(
        t_moms as f64 * 1.3 < t_trad as f64,
        "MOMS {t_moms} cycles vs traditional {t_trad}: expected ≥1.3x win"
    );
}

#[test]
fn cache_arrays_barely_matter_for_the_moms() {
    // Fig. 12/15: deactivating the cache arrays costs the MOMS little.
    let stream = shard_stream(40_000, 256, 4000, 2, 4);
    let mut with_cfg = moms_config(Topology::TwoLevel, 4, 2);
    // Small arrays: 32 lines per shared bank (a fraction of the working
    // set, like the paper's 256 kB against tens of MB).
    with_cfg.shared = with_cfg
        .shared
        .with_cache(CacheConfig { lines: 32, ways: 1 });
    let (t_with, _) = drive(with_cfg, DramConfig::default(), &stream);
    let (t_without, _) = drive(
        moms_config(Topology::TwoLevel, 4, 2),
        DramConfig::default(),
        &stream,
    );
    let ratio = t_without as f64 / t_with as f64;
    assert!(
        ratio < 1.25,
        "cache array removal slowed the MOMS {ratio:.2}x; should be marginal"
    );
}

#[test]
fn throughput_scales_with_memory_channels() {
    // Fig. 14: a stream with little reuse is memory bound; channels help.
    let stream = shard_stream(40_000, 2048, 4000, 1, 5);
    let (t1, _) = drive(
        moms_config(Topology::TwoLevel, 8, 1),
        DramConfig::default(),
        &stream,
    );
    let (t4, _) = drive(
        moms_config(Topology::TwoLevel, 8, 4),
        DramConfig::default(),
        &stream,
    );
    let speedup = t1 as f64 / t4 as f64;
    assert!(speedup > 2.0, "4 channels only {speedup:.2}x faster than 1");
}

#[test]
fn outstanding_misses_reach_the_thousands() {
    // The headline: with a saturated memory system, thousands of misses
    // are simultaneously in flight (scaled: the paper's full-size system
    // reaches tens of thousands).
    let stream = shard_stream(60_000, 256, 6000, 4, 6);
    let (_, stats) = drive(
        moms_config(Topology::TwoLevel, 16, 1),
        DramConfig::default(),
        &stream,
    );
    let peak = stats.get("peak_outstanding_misses");
    assert!(peak > 1_000, "peak outstanding misses only {peak}");
}

#[test]
fn convergence_tracking_skips_inactive_work() {
    // Full-system test: BFS over a long chain activates only the frontier
    // intervals each iteration, so total gathers stay far below
    // edges × iterations (Template 1's active_srcs machinery).
    let n = 4096u32;
    let g = graph::CooGraph::from_edges(n, (0..n - 1).map(|i| (i, i + 1)).collect());
    let cfg = SystemConfig {
        dram: DramConfig::default(),
        moms: moms_config(Topology::TwoLevel, 4, 2),
        pe: PeConfig {
            bram_nodes: 128,
            ..PeConfig::default()
        },
        max_iterations: None,
        execution: accel::ExecutionMode::AlgorithmDefault,
        moms_trace_cap: 0,
        fault: simkit::FaultConfig::none(),
        trace: simkit::TraceConfig::default(),
        watchdog_cycles: Some(accel::DEFAULT_WATCHDOG_CYCLES),
        idle_skip: true,
    };
    let r = System::new(&g, Partitioner::new(128, 128), Algorithm::bfs(0), cfg)
        .run_to_outcome(None)
        .unwrap();
    assert!(
        r.iterations >= 4,
        "chain should take several frontier steps"
    );
    let upper = g.num_edges() as u64 * r.iterations as u64;
    assert!(
        r.edges_processed < upper / 4,
        "active tracking ineffective: {} of {upper}",
        r.edges_processed
    );
    // And the result is still exact.
    assert_eq!(r.values, algos::golden::run(&Algorithm::bfs(0), &g));
}
