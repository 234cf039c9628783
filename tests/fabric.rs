//! Multi-accelerator fabric suite: sharded scale-out runs joined by the
//! cycle-level link network.
//!
//! * A 1-device fabric must be cycle-identical (and bitwise
//!   value-identical) to a plain synchronous `System` run — the fabric
//!   layer adds nothing when there is nothing to exchange.
//! * Multi-device runs shard by destination ownership, so every vertex's
//!   reduction happens on exactly one device in single-device shard
//!   order: results must match the golden executors *exactly* for the
//!   monotone algorithms and bit-for-bit across device counts for
//!   PageRank's non-associative f32 accumulation.
//! * Both link topologies must deliver the same values; only timing may
//!   differ. Repeated runs must be fully deterministic.
//! * A black-hole link fault starves the barrier of expected messages
//!   and must terminate through the fabric watchdog with per-link
//!   diagnostics — never a hang.

use accel::{
    Driver, ExecutionMode, Fabric, FabricError, FabricRunResult, LinkConfig, LinkTopology, System,
};
use algos::{golden, Algorithm};
use graph::{CooGraph, GraphSpec};
use simkit::{FaultConfig, FaultProfile};

fn test_graph() -> CooGraph {
    GraphSpec::rmat(9, 6)
        .build(41)
        .with_random_weights(0, 255, 3)
}

fn all_algos() -> [Algorithm; 5] {
    [
        Algorithm::bfs(0),
        Algorithm::Scc,
        Algorithm::sssp(0),
        Algorithm::Wcc,
        Algorithm::pagerank(),
    ]
}

fn run_fabric(g: &CooGraph, algo: Algorithm, devices: usize) -> FabricRunResult {
    Driver::new().devices(devices).run_fabric(g, algo).unwrap()
}

#[test]
fn one_device_fabric_is_cycle_identical_to_system() {
    let g = test_graph();
    for algo in all_algos() {
        let driver = Driver::new().execution(ExecutionMode::ForceSynchronous);
        let (cfg, partitioner) = driver.run_config(&g).build();
        let single = System::new(&g, partitioner, algo, cfg)
            .run_to_outcome(None)
            .unwrap();
        let fabric = driver.clone().devices(1).run_fabric(&g, algo).unwrap();
        let name = algo.name();
        assert_eq!(
            fabric.cycles, single.cycles,
            "{name}: 1-device fabric changed timing"
        );
        assert_eq!(
            fabric.values, single.values,
            "{name}: 1-device fabric changed results"
        );
        assert_eq!(fabric.iterations, single.iterations, "{name}: iterations");
        assert_eq!(
            fabric.edges_processed, single.edges_processed,
            "{name}: edge count"
        );
        assert_eq!(fabric.stats, single.stats, "{name}: merged statistics");
        assert_eq!(
            fabric.link.messages_sent, 0,
            "{name}: no links, no messages"
        );
        assert_eq!(fabric.link.exchange_cycles, 0, "{name}: no exchange time");
        assert!(fabric.link.per_link.is_empty(), "{name}: no links exist");
    }
}

#[test]
fn sharded_runs_match_golden_exactly() {
    let g = test_graph();
    for algo in [
        Algorithm::bfs(0),
        Algorithm::Scc,
        Algorithm::sssp(0),
        Algorithm::Wcc,
    ] {
        let expect = golden::run(&algo, &g);
        for devices in [2, 4, 8] {
            let r = run_fabric(&g, algo, devices);
            assert_eq!(
                r.values,
                expect,
                "{} on {devices} devices diverged from golden",
                algo.name()
            );
            assert_eq!(r.devices, devices);
            assert!(r.iterations > 0);
            assert!(r.edges_processed > 0);
        }
    }
}

#[test]
fn pagerank_stays_within_fp_noise_on_every_device_count() {
    // Destination ownership keeps every vertex's f32 accumulation on one
    // device, but a PE gathers contributions in MOMS response-arrival
    // order, so sums can shift by an ulp as timing changes with the
    // device count — exactly the tolerance the DRAM fault profiles get.
    // Anything beyond rounding noise would be a lost or duplicated
    // remote update.
    let g = test_graph();
    let algo = Algorithm::pagerank();
    let expect = golden::run(&algo, &g);
    let baseline = run_fabric(&g, algo, 1);
    for devices in [1, 2, 4, 8] {
        let r = run_fabric(&g, algo, devices);
        assert_eq!(
            golden::pagerank_mismatch(&r.values, &expect, 1e-5),
            None,
            "pagerank on {devices} devices diverged from golden beyond fp noise"
        );
        assert_eq!(
            r.iterations, baseline.iterations,
            "{devices} devices changed the fixed iteration count"
        );
    }
}

#[test]
fn multi_device_runs_exchange_updates_over_links() {
    let g = test_graph();
    let r = run_fabric(&g, Algorithm::bfs(0), 4);
    assert!(r.link.messages_sent > 0, "no link messages on 4 devices");
    assert_eq!(
        r.link.messages_delivered, r.link.messages_sent,
        "fault-free run must deliver every message"
    );
    assert_eq!(r.link.messages_dropped, 0);
    assert!(r.link.updates > 0, "no vertex updates crossed the fabric");
    assert!(r.link.exchange_cycles > 0, "exchange was free");
    // All-to-all wiring on 4 devices: 12 directed links, and at least one
    // carried traffic.
    assert_eq!(r.link.per_link.len(), 12);
    assert!(r.link.per_link.iter().any(|l| l.messages > 0));
    let occ = r.link.mean_occupancy(r.cycles);
    assert!(
        (0.0..=1.0).contains(&occ),
        "mean occupancy {occ} out of range"
    );
    assert!(r.link.peak_occupancy(r.cycles) >= occ);
    // Barrier parking is attributed to the fabric-only breakdown class.
    assert!(
        r.pe_cycles.link_wait > 0,
        "multi-device run never parked a PE at the barrier"
    );
}

#[test]
fn ring_topology_matches_all_to_all_values() {
    let g = test_graph();
    for algo in [Algorithm::bfs(0), Algorithm::pagerank()] {
        let direct = Driver::new()
            .devices(4)
            .link_topology(LinkTopology::AllToAll)
            .run_fabric(&g, algo)
            .unwrap();
        let ring = Driver::new()
            .devices(4)
            .link_topology(LinkTopology::Ring)
            .run_fabric(&g, algo)
            .unwrap();
        assert_eq!(
            ring.values,
            direct.values,
            "{}: topology changed results",
            algo.name()
        );
        assert_eq!(ring.iterations, direct.iterations);
        // A 4-device ring has 4 directed links and store-and-forwards
        // through intermediates, so it moves at least as many messages.
        assert_eq!(ring.link.per_link.len(), 4);
        assert!(ring.link.messages_sent >= direct.link.messages_sent / 3);
    }
}

#[test]
fn fabric_runs_are_deterministic() {
    let g = test_graph();
    let a = run_fabric(&g, Algorithm::sssp(0), 4);
    let b = run_fabric(&g, Algorithm::sssp(0), 4);
    assert_eq!(a.cycles, b.cycles, "repeated fabric runs disagree on time");
    assert_eq!(a.values, b.values);
    assert_eq!(a.link.exchange_cycles, b.link.exchange_cycles);
    assert_eq!(a.link.messages_sent, b.link.messages_sent);
    assert_eq!(a.stats, b.stats);
}

#[test]
fn narrow_links_cost_cycles_but_not_correctness() {
    let g = test_graph();
    let algo = Algorithm::bfs(0);
    let wide = Driver::new()
        .devices(4)
        .link_bandwidth(64)
        .link_latency(1)
        .run_fabric(&g, algo)
        .unwrap();
    let narrow = Driver::new()
        .devices(4)
        .link_bandwidth(1)
        .link_latency(256)
        .run_fabric(&g, algo)
        .unwrap();
    assert_eq!(narrow.values, wide.values, "bandwidth changed results");
    assert!(
        narrow.link.exchange_cycles > wide.link.exchange_cycles,
        "1 word/cycle at 256-cycle latency ({}) not slower than 64 words/cycle at 1 ({})",
        narrow.link.exchange_cycles,
        wide.link.exchange_cycles
    );
    assert!(narrow.cycles > wide.cycles);
}

#[test]
fn black_hole_link_fault_trips_fabric_watchdog() {
    // PageRank is always-active, so every iteration every owner
    // broadcasts to every consumer: 8 devices yield 56 messages per
    // barrier, blowing past the black hole's 256-offer grace window in a
    // handful of iterations. After that, expected deliveries never
    // arrive and the exchange must die through the fabric watchdog.
    let g = test_graph();
    let mut rc = Driver::new().devices(8).max_iterations(100).run_config(&g);
    rc.link = LinkConfig {
        fault: FaultConfig {
            profile: FaultProfile::BlackHole,
            seed: 7,
        },
        watchdog_cycles: Some(20_000),
        ..LinkConfig::default()
    };
    let mut fabric = Fabric::new(&g, Algorithm::pagerank(), &rc);
    match fabric.run_to_outcome(None) {
        Err(FabricError::LinkStalled(snap)) => {
            assert!(snap.cycle > snap.last_progress);
            assert_eq!(snap.threshold, 20_000);
            let names: Vec<&str> = snap.sections.iter().map(|s| s.name.as_str()).collect();
            assert!(names.contains(&"fabric"), "missing fabric section");
            assert!(names.contains(&"fault"), "missing fault section");
            assert!(
                names.iter().any(|n| n.starts_with("link[")),
                "missing per-link sections: {names:?}"
            );
            let rendered = snap.to_string();
            assert!(rendered.contains("no forward progress for"));
            assert!(rendered.contains("expected_messages"));
        }
        other => panic!("expected a link stall, got {other:?}"),
    }
}

#[test]
fn link_stall_error_renders_diagnostic() {
    let g = test_graph();
    let mut rc = Driver::new().devices(8).max_iterations(100).run_config(&g);
    rc.link.fault = FaultConfig {
        profile: FaultProfile::BlackHole,
        seed: 1,
    };
    rc.link.watchdog_cycles = Some(10_000);
    // The error's Display is the full diagnostic a caller prints.
    let Err(err) = Fabric::new(&g, Algorithm::pagerank(), &rc).run_to_outcome(None) else {
        panic!("black-hole links must not complete");
    };
    let msg = err.to_string();
    assert!(msg.contains("link exchange stalled"), "got: {msg}");
}

#[test]
fn link_trace_records_tx_and_rx_events() {
    let g = test_graph();
    let mut rc = Driver::new().devices(2).run_config(&g);
    rc.trace = simkit::TraceConfig {
        level: simkit::trace::TraceLevel::Events,
        ..simkit::TraceConfig::default()
    };
    let r = Fabric::new(&g, Algorithm::bfs(0), &rc)
        .run_to_outcome(None)
        .unwrap();
    assert!(!r.trace.events.is_empty(), "tracing on, no link events");
    let names: Vec<&str> = r.trace.events.iter().map(|e| e.kind.name()).collect();
    assert!(names.contains(&"link.tx"), "no tx events: {names:?}");
    assert!(names.contains(&"link.rx"), "no rx events: {names:?}");
    // Tracing off by default: no events, zero overhead.
    let quiet = run_fabric(&g, Algorithm::bfs(0), 2);
    assert!(quiet.trace.events.is_empty());
    assert_eq!(quiet.cycles, r.cycles, "tracing changed fabric timing");
}
