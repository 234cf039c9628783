//! Robustness suite: the fault-injection, invariant, and watchdog
//! machinery added around the simulator.
//!
//! * The graceful fault profiles perturb DRAM-completion timing without
//!   losing data, so every algorithm must reach a final result identical
//!   to the fault-free run (the paper's architecture never relies on
//!   response timing for correctness, only for performance).
//! * The `black-hole` profile swallows completions outright, which must
//!   terminate through the no-progress watchdog with a structured
//!   diagnostic snapshot — never a hang.
//! * A panicking experiment point must become a `failed` row while the
//!   rest of the sweep completes.
//! * A MOMS bank under randomized traffic, latency, and backpressure must
//!   answer every accepted request exactly once (with `--features
//!   invariants`, the bank additionally self-checks its ledger and
//!   structural consistency every tick).

use accel::{RunError, System, SystemConfig};
use algos::{golden, Algorithm};
use bench::engine::{run_points, EngineConfig, Outcome, PointSpec};
use bench::ArchPoint;
use graph::benchmarks::BenchmarkId;
use graph::{CooGraph, GraphSpec, Partitioner};
use moms::{MomsBank, MomsConfig, MomsReq};
use simkit::{FaultConfig, FaultProfile, SplitMix64};

fn test_graph() -> CooGraph {
    GraphSpec::rmat(8, 6)
        .build(41)
        .with_random_weights(0, 255, 3)
}

fn system_with_fault(g: &CooGraph, algo: Algorithm, fault: FaultConfig) -> System {
    let mut cfg = SystemConfig::small();
    cfg.fault = fault;
    System::new(g, Partitioner::new(256, 256), algo, cfg)
}

#[test]
fn fault_profiles_preserve_results() {
    let g = test_graph();
    let algos = [
        Algorithm::bfs(0),
        Algorithm::Scc,
        Algorithm::sssp(0),
        Algorithm::pagerank(),
    ];
    for algo in algos {
        let baseline = system_with_fault(&g, algo, FaultConfig::none())
            .run_to_outcome(None)
            .unwrap();
        for profile in FaultProfile::GRACEFUL {
            for seed in [1u64, 99] {
                let fault = FaultConfig { profile, seed };
                let r = system_with_fault(&g, algo, fault)
                    .run_to_outcome(None)
                    .unwrap();
                if algo == Algorithm::pagerank() {
                    // PageRank gathers are f32 adds performed in response
                    // arrival order, so reordered completions can shift
                    // the result by an ulp; everything beyond rounding
                    // noise would be a lost or duplicated update.
                    assert_eq!(
                        golden::pagerank_mismatch(&r.values, &baseline.values, 1e-5),
                        None,
                        "pagerank under {} (seed {seed}) diverged beyond fp noise",
                        profile.name()
                    );
                } else {
                    // The monotone algorithms have a unique fixpoint:
                    // results must be bit-identical however completions
                    // are delayed or reordered.
                    assert_eq!(
                        r.values,
                        baseline.values,
                        "{} under {} (seed {seed}) diverged from fault-free run",
                        algo.name(),
                        profile.name()
                    );
                }
            }
        }
    }
}

#[test]
fn watchdog_fires_on_seeded_deadlock() {
    // Weighted SSSP on small intervals keeps thousands of source reads in
    // flight through the MOMS, so DRAM completions quickly exceed the
    // black hole's grace window and start vanishing: guaranteed deadlock,
    // which must surface as a structured stall, not a hang.
    let g = test_graph();
    let mut cfg = SystemConfig::small();
    // Cacheless MOMS: every irregular read becomes DRAM traffic, so the
    // completion stream exceeds the black hole's grace window fast.
    cfg.moms.private = cfg.moms.private.without_cache();
    cfg.moms.shared = cfg.moms.shared.without_cache();
    cfg.fault = FaultConfig {
        profile: FaultProfile::BlackHole,
        seed: 5,
    };
    cfg.watchdog_cycles = Some(20_000);
    let mut sys = System::new(&g, Partitioner::new(64, 64), Algorithm::sssp(0), cfg);
    match sys.run_to_outcome(None) {
        Err(RunError::Stalled(snap)) => {
            assert!(snap.cycle > snap.last_progress);
            assert_eq!(snap.threshold, 20_000);
            let names: Vec<&str> = snap.sections.iter().map(|s| s.name.as_str()).collect();
            for required in ["scheduler", "pes", "moms", "dram", "fault"] {
                assert!(names.contains(&required), "missing section {required}");
            }
            let rendered = snap.to_string();
            assert!(rendered.contains("no forward progress for"));
            assert!(rendered.contains("[pes]"));
            assert!(rendered.contains("dropped"));
        }
        other => panic!("expected a watchdog stall, got {other:?}"),
    }
}

#[test]
fn stall_snapshot_embeds_trace_tail_naming_dropped_request() {
    // Same seeded deadlock as above, but with event tracing on: the
    // diagnostic snapshot must gain a `trace-tail` section whose events
    // include the `fault.drop` record naming the black-holed completion —
    // the smoking gun a human needs to see first when triaging a hang.
    let g = test_graph();
    let mut cfg = SystemConfig::small();
    cfg.moms.private = cfg.moms.private.without_cache();
    cfg.moms.shared = cfg.moms.shared.without_cache();
    cfg.fault = FaultConfig {
        profile: FaultProfile::BlackHole,
        seed: 5,
    };
    cfg.watchdog_cycles = Some(20_000);
    cfg.trace = simkit::TraceConfig {
        level: simkit::trace::TraceLevel::Events,
        ..simkit::TraceConfig::default()
    };
    let mut sys = System::new(&g, Partitioner::new(64, 64), Algorithm::sssp(0), cfg);
    match sys.run_to_outcome(None) {
        Err(RunError::Stalled(snap)) => {
            let tail = snap
                .sections
                .iter()
                .find(|s| s.name == "trace-tail")
                .expect("tracing-enabled stall must embed a trace-tail section");
            assert!(!tail.entries.is_empty(), "trace tail is empty");
            let rendered = snap.to_string();
            assert!(rendered.contains("[trace-tail]"), "got: {rendered}");
            assert!(
                rendered.contains("fault.drop arg="),
                "trace tail must name the black-holed request:\n{rendered}"
            );
        }
        other => panic!("expected a watchdog stall, got {other:?}"),
    }
}

#[test]
fn stall_error_renders_diagnostic() {
    let g = test_graph();
    let mut cfg = SystemConfig::small();
    cfg.moms.private = cfg.moms.private.without_cache();
    cfg.moms.shared = cfg.moms.shared.without_cache();
    cfg.fault = FaultConfig {
        profile: FaultProfile::BlackHole,
        seed: 1,
    };
    cfg.watchdog_cycles = Some(10_000);
    // The error's Display is the full diagnostic a caller prints.
    let Err(err) =
        System::new(&g, Partitioner::new(64, 64), Algorithm::sssp(0), cfg).run_to_outcome(None)
    else {
        panic!("black-hole run must not complete");
    };
    let msg = err.to_string();
    assert!(msg.contains("no forward progress for"), "got: {msg}");
}

#[test]
fn sweep_continues_past_panicking_point() {
    let arch = ArchPoint::two_level_16_16();
    let good = |bench| PointSpec::new(bench, Algorithm::Scc, arch, 4, 64);
    let mut bad = good(BenchmarkId::Wt);
    // Zero channels fails MomsSystemConfig validation inside the worker.
    bad.run.moms.num_channels = 0;
    let points = vec![good(BenchmarkId::Wt), bad, good(BenchmarkId::R24)];
    let results = run_points(
        &points,
        &EngineConfig {
            jobs: 2,
            ..Default::default()
        },
    );
    assert_eq!(results.len(), 3, "every submitted point gets a row");
    assert_eq!(results[0].outcome, Outcome::Completed);
    assert_eq!(results[2].outcome, Outcome::Completed);
    assert_eq!(results[1].outcome, Outcome::Failed);
    let err = results[1].error.as_deref().expect("failure message");
    assert!(!err.is_empty());
}

#[test]
fn moms_bank_randomized_traffic_conserves_requests() {
    // Random lines (a window small enough to force secondary misses),
    // random DRAM latency, random response backpressure — every accepted
    // request must be answered exactly once. With `--features invariants`
    // the bank also self-checks its ledger on each of the 100k ticks.
    let mut bank = MomsBank::new(MomsConfig::paper_private_bank(false).scaled(1, 32));
    let mut rng = SplitMix64::new(0xB0B0);
    let mut next_id: u32 = 0;
    let mut answered: Vec<u8> = Vec::new();
    // In-flight simulated memory: (ready_cycle, line, count).
    let mut mem: Vec<(u64, u64, u32)> = Vec::new();

    const TICKS: u64 = 100_000;
    const INJECT_UNTIL: u64 = 90_000;
    for now in 1..=TICKS {
        if now < INJECT_UNTIL && rng.next_below(4) != 0 {
            let req = MomsReq {
                line: rng.next_below(96),
                word: rng.next_below(16) as u8,
                id: next_id,
            };
            if bank.try_request(req) {
                answered.push(0);
                next_id += 1;
            }
        }
        // Serve bank line fetches with a random 20..150-cycle latency,
        // sometimes refusing to pick one up this cycle at all.
        if rng.next_below(8) != 0 {
            if let Some((line, count)) = bank.pop_mem_request() {
                mem.push((now + 20 + rng.next_below(130), line, count));
            }
        }
        let mut i = 0;
        while i < mem.len() {
            if mem[i].0 <= now && bank.can_accept_mem_response() {
                let (_, line, count) = mem.swap_remove(i);
                assert!(bank.push_mem_burst_response(line, count));
            } else {
                i += 1;
            }
        }
        // Randomly stall the response port to exercise backpressure.
        if rng.next_below(3) != 0 {
            while let Some(resp) = bank.pop_response() {
                let slot = &mut answered[resp.id as usize];
                assert_eq!(*slot, 0, "request {} answered twice", resp.id);
                *slot = 1;
            }
        }
        bank.tick(now);
    }
    // Drain.
    let mut now = TICKS;
    while !bank.is_idle() || !mem.is_empty() {
        now += 1;
        assert!(now < TICKS + 200_000, "drain did not converge");
        if let Some((line, count)) = bank.pop_mem_request() {
            mem.push((now + 20, line, count));
        }
        let mut i = 0;
        while i < mem.len() {
            if mem[i].0 <= now && bank.can_accept_mem_response() {
                let (_, line, count) = mem.swap_remove(i);
                assert!(bank.push_mem_burst_response(line, count));
            } else {
                i += 1;
            }
        }
        while let Some(resp) = bank.pop_response() {
            let slot = &mut answered[resp.id as usize];
            assert_eq!(*slot, 0, "request {} answered twice", resp.id);
            *slot = 1;
        }
        bank.tick(now);
    }
    assert!(next_id > 10_000, "traffic generator barely ran: {next_id}");
    let unanswered = answered.iter().filter(|&&a| a == 0).count();
    assert_eq!(
        unanswered, 0,
        "{unanswered} accepted requests never answered"
    );
}

#[test]
fn fault_injection_is_deterministic() {
    let g = GraphSpec::rmat(8, 4).build(11);
    let fault = FaultConfig {
        profile: FaultProfile::Chaos,
        seed: 1234,
    };
    let a = system_with_fault(&g, Algorithm::Scc, fault)
        .run_to_outcome(None)
        .unwrap();
    let b = system_with_fault(&g, Algorithm::Scc, fault)
        .run_to_outcome(None)
        .unwrap();
    assert_eq!(
        a.cycles, b.cycles,
        "same seed must replay the same schedule"
    );
    assert_eq!(a.values, b.values);
}
