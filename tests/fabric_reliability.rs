//! Fabric reliability suite: the ack/retransmit link transport and
//! checkpoint-rollback recovery.
//!
//! * Every graceful fault profile plus sustained loss and duplication on
//!   the link delivery path must be masked by the transport alone:
//!   BFS/SSSP/SCC/WCC stay golden-exact on 2/4/8 devices, PageRank stays
//!   within fp noise, and no run rolls back — loss shows up only as
//!   retransmissions and extra exchange cycles.
//! * Seeded lossy runs must export byte-identical value rows to the
//!   clean run, and repeated lossy runs must be fully deterministic.
//! * A black-hole link fault cannot be masked: the watchdog trips, and
//!   with recovery enabled the fabric must roll back to the last barrier
//!   checkpoint (re-arming the fault's grace window via the link reset)
//!   and still finish — integer algorithms bit-exact, PageRank within
//!   1 ulp (cache state after a rollback differs from the clean run's
//!   natural history, so float accumulation order can reassociate) —
//!   reporting every rollback in the `RecoveryReport` instead of dying
//!   with `FabricError::LinkStalled`.
//! * Recovery attempts are bounded: an unsurvivable fault under a tiny
//!   attempt budget must still surface the original error.

use accel::{Driver, Fabric, FabricError, FabricRunResult, RecoveryConfig, RunConfig};
use algos::{golden, Algorithm};
use graph::{CooGraph, GraphSpec};
use simkit::record::{Record, Value};
use simkit::{FaultConfig, FaultProfile};

fn test_graph() -> CooGraph {
    // 256 nodes: 8 devices × 32 owned nodes keeps every barrier exchange
    // to ~1 chunk per flow, well inside the black hole's grace window, so
    // a recovered epoch always completes at least one fresh barrier.
    GraphSpec::rmat(8, 6)
        .build(17)
        .with_random_weights(0, 255, 5)
}

/// Every profile the transport must mask without a single rollback.
fn maskable_faults() -> Vec<FaultConfig> {
    let mut faults: Vec<FaultConfig> = FaultProfile::GRACEFUL
        .iter()
        .map(|&profile| FaultConfig { profile, seed: 9 })
        .collect();
    faults.extend([
        FaultConfig {
            profile: FaultProfile::Lossy { permille: 100 },
            seed: 9,
        },
        FaultConfig {
            profile: FaultProfile::Lossy { permille: 250 },
            seed: 9,
        },
        FaultConfig {
            profile: FaultProfile::Duplicate,
            seed: 9,
        },
    ]);
    faults
}

fn faulty_config(g: &CooGraph, devices: usize, fault: FaultConfig) -> RunConfig {
    let mut rc = Driver::new().devices(devices).run_config(g);
    rc.link.fault = fault;
    rc
}

fn run_with_fault(
    g: &CooGraph,
    algo: Algorithm,
    devices: usize,
    fault: FaultConfig,
) -> FabricRunResult {
    Fabric::new(g, algo, &faulty_config(g, devices, fault))
        .run_to_outcome(None)
        .unwrap()
}

#[test]
fn sustained_link_faults_are_masked_by_retransmission() {
    let g = test_graph();
    for algo in [
        Algorithm::bfs(0),
        Algorithm::Scc,
        Algorithm::sssp(0),
        Algorithm::Wcc,
    ] {
        let expect = golden::run(&algo, &g);
        for fault in maskable_faults() {
            for devices in [2usize, 4, 8] {
                let r = run_with_fault(&g, algo, devices, fault);
                let label = format!("{}/{}/{devices}dev", algo.name(), fault.profile.name());
                assert_eq!(r.values, expect, "{label}: diverged from golden");
                assert!(
                    !r.recovery.recovered(),
                    "{label}: transport needed a rollback"
                );
                assert_eq!(
                    r.link.messages_delivered, r.link.messages_sent,
                    "{label}: lost or double-counted payloads"
                );
                if fault.profile.is_lossy() {
                    assert!(
                        r.link.messages_dropped > 0 && r.link.retransmissions > 0,
                        "{label}: lossy link dropped nothing or never retransmitted \
                         (dropped={}, retx={})",
                        r.link.messages_dropped,
                        r.link.retransmissions
                    );
                }
                assert!(r.link.acks > 0, "{label}: no acks flowed");
            }
        }
    }
}

#[test]
fn pagerank_stays_within_fp_noise_under_link_faults() {
    let g = test_graph();
    let algo = Algorithm::pagerank();
    let expect = golden::run(&algo, &g);
    let clean = run_with_fault(&g, algo, 4, FaultConfig::none());
    for fault in maskable_faults() {
        let r = run_with_fault(&g, algo, 4, fault);
        assert_eq!(
            golden::pagerank_mismatch(&r.values, &expect, 1e-5),
            None,
            "{}: pagerank diverged beyond fp noise",
            fault.profile.name()
        );
        assert_eq!(
            r.iterations,
            clean.iterations,
            "{}: fault changed the fixed iteration count",
            fault.profile.name()
        );
        assert!(!r.recovery.recovered());
    }
}

#[test]
fn duplicate_delivery_is_discarded_by_receiver_dedup() {
    let g = test_graph();
    let fault = FaultConfig {
        profile: FaultProfile::Duplicate,
        seed: 3,
    };
    let r = run_with_fault(&g, Algorithm::bfs(0), 4, fault);
    assert_eq!(r.values, golden::run(&Algorithm::bfs(0), &g));
    assert!(r.link.dup_drops > 0, "duplicate profile never deduped");
    assert_eq!(
        r.link.messages_delivered, r.link.messages_sent,
        "duplicates inflated the delivery count"
    );
    assert!(
        r.link.per_link.iter().any(|l| l.dup_drops > 0),
        "dup drops not attributed to any link"
    );
}

/// One exported value row, mirroring what `--out`-style exports carry.
struct ValueRow {
    node: u32,
    value: u32,
}

impl Record for ValueRow {
    fn fields(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("node", Value::from(u64::from(self.node))),
            ("value", Value::from(u64::from(self.value))),
        ]
    }
}

fn value_rows(r: &FabricRunResult) -> Vec<ValueRow> {
    r.values
        .iter()
        .enumerate()
        .map(|(v, &value)| ValueRow {
            node: v as u32,
            value,
        })
        .collect()
}

#[test]
fn seeded_lossy_runs_export_byte_identical_results_to_clean_runs() {
    let g = test_graph();
    let algo = Algorithm::sssp(0);
    let clean = run_with_fault(&g, algo, 4, FaultConfig::none());
    let lossy_cfg = FaultConfig {
        profile: FaultProfile::Lossy { permille: 200 },
        seed: 41,
    };
    let lossy = run_with_fault(&g, algo, 4, lossy_cfg);
    // Loss costs time, never results: the exported rows are identical
    // byte for byte in both formats.
    assert_eq!(
        simkit::record::to_csv(&value_rows(&lossy)),
        simkit::record::to_csv(&value_rows(&clean))
    );
    assert_eq!(
        simkit::record::to_json(&value_rows(&lossy)),
        simkit::record::to_json(&value_rows(&clean))
    );
    assert!(lossy.link.retransmissions > 0);
    assert!(
        lossy.link.exchange_cycles > clean.link.exchange_cycles,
        "retransmission should cost exchange cycles ({} vs {})",
        lossy.link.exchange_cycles,
        clean.link.exchange_cycles
    );
    // Same seed, same schedule: lossy runs are fully deterministic.
    let again = run_with_fault(&g, algo, 4, lossy_cfg);
    assert_eq!(again.cycles, lossy.cycles);
    assert_eq!(again.values, lossy.values);
    assert_eq!(again.link.retransmissions, lossy.link.retransmissions);
    assert_eq!(again.link.messages_dropped, lossy.link.messages_dropped);
}

fn recovery_config() -> RecoveryConfig {
    RecoveryConfig {
        checkpoint_interval: 1,
        retention: 2,
        max_attempts: 64,
        reset_cycles: 10_000,
    }
}

#[test]
fn black_hole_recovery_is_bit_exact_for_integer_algorithms() {
    // SSSP on 8 devices keeps enough owners broadcasting per barrier that
    // the black hole's 256-offer grace window dies mid-run; the rollback
    // resets the link fabric (re-arming the grace window), and the
    // replayed integer relaxation is bit-identical to both the fault-free
    // fabric run and the golden executor.
    let g = GraphSpec::rmat(9, 6)
        .build(41)
        .with_random_weights(0, 255, 3);
    let algo = Algorithm::sssp(0);
    let mut rc = Driver::new().devices(8).run_config(&g);
    let clean = Fabric::new(&g, algo, &rc).run_to_outcome(None).unwrap();
    assert!(!clean.recovery.recovered());
    rc.link.fault = FaultConfig {
        profile: FaultProfile::BlackHole,
        seed: 7,
    };
    rc.link.watchdog_cycles = Some(20_000);
    rc.recovery = Some(recovery_config());
    rc.trace = simkit::TraceConfig {
        level: simkit::trace::TraceLevel::Events,
        ..simkit::TraceConfig::default()
    };
    let r = Fabric::new(&g, algo, &rc)
        .run_to_outcome(None)
        .expect("recovery must carry a black-holed fabric to completion");
    assert_eq!(r.values, clean.values, "recovered run diverged");
    assert_eq!(r.values, golden::run(&algo, &g));
    assert_eq!(r.iterations, clean.iterations);
    assert!(r.recovery.recovered(), "black hole never tripped recovery");
    assert!(r.recovery.total_cycles_lost > 0);
    assert!(r.recovery.checkpoints_taken > 0);
    for attempt in &r.recovery.attempts {
        assert_eq!(attempt.cause.name(), "link-stalled");
        assert!(attempt.cycles_lost > 0);
    }
    // The trace layer records both the snapshots and the rollbacks.
    let names: Vec<&str> = r.trace.events.iter().map(|e| e.kind.name()).collect();
    assert!(
        names.contains(&"fabric.checkpoint"),
        "no checkpoint events: {names:?}"
    );
    assert!(
        names.contains(&"fabric.rollback"),
        "no rollback events: {names:?}"
    );
}

#[test]
fn black_hole_recovery_keeps_pagerank_within_one_ulp() {
    // PageRank is always-active, so every barrier broadcasts and the
    // grace window dies after a couple of barriers even on small fabrics.
    // Unlike the integer algorithms, replay is not bit-for-bit: the MOMS
    // caches hold different state after a rollback than at the same
    // barrier of the clean run, response timing shifts, and the float
    // accumulation order can reassociate — the paper's acceptance bar for
    // PageRank is ≤ 1 ulp, not bit equality.
    let g = GraphSpec::rmat(9, 6).build(41);
    let algo = Algorithm::pagerank();
    let mut rc = Driver::new().devices(8).max_iterations(12).run_config(&g);
    let clean = Fabric::new(&g, algo, &rc).run_to_outcome(None).unwrap();
    rc.link.fault = FaultConfig {
        profile: FaultProfile::BlackHole,
        seed: 7,
    };
    rc.link.watchdog_cycles = Some(20_000);
    rc.recovery = Some(recovery_config());
    let r = Fabric::new(&g, algo, &rc)
        .run_to_outcome(None)
        .expect("recovery must carry a black-holed fabric to completion");
    assert!(r.recovery.recovered(), "black hole never tripped recovery");
    assert_eq!(r.iterations, clean.iterations);
    for (v, (&got, &want)) in r.values.iter().zip(&clean.values).enumerate() {
        assert!(
            got.abs_diff(want) <= 1,
            "node {v}: {got:#010x} vs {want:#010x} differ by more than 1 ulp"
        );
    }
}

#[test]
fn recovery_attempts_are_bounded() {
    // PageRank is always-active, so a black-holed link keeps tripping the
    // watchdog every epoch; a tiny attempt budget must give up with the
    // original structured error rather than looping forever.
    let g = test_graph();
    let mut rc = Driver::new().devices(8).max_iterations(50).run_config(&g);
    rc.link.fault = FaultConfig {
        profile: FaultProfile::BlackHole,
        seed: 1,
    };
    rc.link.watchdog_cycles = Some(10_000);
    rc.recovery = Some(RecoveryConfig {
        max_attempts: 2,
        ..recovery_config()
    });
    match Fabric::new(&g, Algorithm::pagerank(), &rc).run_to_outcome(None) {
        Err(FabricError::LinkStalled(snap)) => {
            let rendered = snap.to_string();
            assert!(
                rendered.contains("recovery_attempts"),
                "diagnostics should show the exhausted budget: {rendered}"
            );
        }
        other => panic!("expected the original link stall, got {other:?}"),
    }
}

#[test]
fn driver_builders_wire_reliability_knobs_through() {
    let g = test_graph();
    let rc = Driver::new()
        .devices(2)
        .link_retry(2_048)
        .checkpoint_interval(3)
        .run_config(&g);
    assert_eq!(rc.link.retry.rto, 2_048);
    assert_eq!(rc.recovery.unwrap().checkpoint_interval, 3);
    // 0 disables recovery again.
    let off = Driver::new().checkpoint_interval(0).run_config(&g);
    assert!(off.recovery.is_none());
    // The knobs don't change fault-free results.
    let r = Fabric::new(
        &g,
        Algorithm::bfs(0),
        &Driver::new()
            .devices(2)
            .link_retry(2_048)
            .checkpoint_interval(3)
            .run_config(&g),
    )
    .run_to_outcome(None)
    .unwrap();
    assert_eq!(r.values, golden::run(&Algorithm::bfs(0), &g));
    assert!(!r.recovery.recovered());
    assert!(
        r.recovery.checkpoints_taken > 0,
        "no checkpoints were taken"
    );
}
