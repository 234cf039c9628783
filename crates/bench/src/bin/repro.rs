//! Experiment driver: regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro <experiment> [--full] [--shrink N] [--jobs N] [--timeout-secs S]
//!                    [--out PATH] [--format json|csv]
//!                    [--fault-profile P] [--fault-seed N]
//!                    [--watchdog-cycles N]
//!                    [--link-fault-profile P] [--link-fault-seed N]
//!                    [--link-retry CYCLES] [--checkpoint-interval N]
//!                    [--sim-threads N]
//!                    [--trace PATH] [--trace-level events|counters]
//!                    [--trace-window START:END]
//!
//! experiments: table1 table2 table3 fig11 fig12 fig13 fig14 fig15
//!              fig16 fig17 ablate sweep syncasync paperscale related
//!              explain fabric chaos-fabric serve fuzz all
//! --full           all 12 benchmarks and all 7 architectures (slow)
//! --shrink N       extra graph shrink factor (default 4; 1 = largest scale)
//! --jobs N         worker threads for the simulated points
//!                  (default: one per core)
//! --timeout-secs S per-point wall-clock budget; expired points become
//!                  `timed_out` rows instead of hanging the run
//! --out PATH       write every simulated point as structured results
//! --format F       json (default) or csv, for --out
//! --fault-profile P  inject DRAM-response faults into every point:
//!                  none|delay|reorder|nack|chaos-lite|chaos|black-hole
//! --fault-seed N   seed for the deterministic fault schedule (default 0)
//! --watchdog-cycles N  no-progress watchdog threshold in cycles
//!                  (0 disables; default 2000000)
//! --trace PATH     export each simulated point's trace: Perfetto/Chrome
//!                  JSON (load at ui.perfetto.dev), or CSV when PATH ends
//!                  in .csv; with several points, PATH-<point> files
//! --trace-level L  events (default with --trace) or counters
//! --trace-window START:END  record events only in [START, END) cycles
//!
//! Every experiment returns its text, rows, traces and failures as one
//! value, and one export path prints the text, writes `--out` and
//! `--trace`, and exits 1 with a one-line summary when any point failed
//! (panic or watchdog stall; timed-out points are a requested bound, not
//! a failure). Every simulated point runs on the engine's worker pool
//! (`--jobs`); `--timeout-secs` bounds every single-device and fabric
//! point, and each `fuzz` case.
//!
//! `fabric` sweeps the multi-accelerator scale-out space (device count ×
//! link bandwidth × topology, BFS and PageRank) and exports per-point
//! cycles, GTEPS, link occupancy, and transport counters;
//! `--fault-profile` applies to each device's DRAM completions as usual,
//! while `--link-fault-profile`/`--link-fault-seed` target the link
//! network's delivery path (the reliable transport retransmits around
//! loss). `--link-retry` sets the transport's initial retransmission
//! timeout; `--checkpoint-interval N` enables checkpoint-rollback
//! recovery with a snapshot every N barriers (0 = off).
//! `--sim-threads N` sets the host worker threads each fabric point uses
//! for its per-device compute phase (0 = auto, 1 = sequential); every
//! exported byte is identical across thread counts, and requests that
//! would oversubscribe the host (jobs × threads > cores) are clamped
//! once at start-up, with a warning.
//!
//! `chaos-fabric` runs the reliability sweep: BFS under every graceful
//! link-fault profile plus sustained loss and duplication on 2- and
//! 4-device fabrics (each row validated golden-exact), plus black-hole
//! rows that complete through checkpoint rollback. A row that stalls
//! anyway exits nonzero with a one-line structured summary.
//!
//! `fuzz` runs the deterministic conformance fuzzer (`bench::fuzz`):
//! random graph × algorithm × architecture × fabric × fault cases
//! cross-checked against the CPU golden executors, sequential/threaded
//! byte-identity, sync-vs-async fixpoints, and fault-equivalence. Extra
//! flags:
//!
//! --seed N            master seed (default 1); same seed = same cases
//! --budget-secs N     deterministic work budget (N × 150000 simulated
//!                     cycles); same seed + budget = same summary
//! --cases N           exact case count (default 200 without a budget)
//! --replay SPEC       re-run one case: `@corpus-file` or `seed:index`
//! --corpus DIR        where failing cases are saved
//!                     (default tests/fixtures/fuzz_corpus)
//! --inject-corruption test hook: corrupt each single-device result so
//!                     the oracle stack and shrinker demonstrably fire
//!
//! On an oracle violation the case is shrunk to a minimal reproducer,
//! saved to the corpus (replayed forever after by tests/fuzz_corpus.rs),
//! and the run exits 1 with a one-line `--replay` command.
//!
//! `serve` sweeps offered load over the multi-tenant serving layer
//! (`serve` crate): each rate point replays the seeded request stream at
//! a different arrival rate through admission control, class queues,
//! co-batching, and checkpoint-based preemption, and exports the
//! saturation curve (latency quantiles, goodput, shed rate, fairness).
//! Same seed + config = byte-identical output at any `--jobs` or
//! `--sim-threads` setting. Extra flags:
//!
//! --seed N          master workload seed (default 1)
//! --requests N      requests per rate point (default 100)
//! --slots N         device slots in the pool (default 2)
//! --slot-devices N  devices per slot; >1 runs each job on a fabric
//! --quantum N       preemption quantum in iterations (default 2)
//! --max-queue N     admission-control queue bound (default 16)
//!
//! A golden-reference divergence or scheduler stall exits 1 with a
//! one-line summary; watchdog trips are reported per row and count as
//! failures, exiting 1 after every requested export is written. Unknown
//! flags print the invoked subcommand's own usage (exit 2) instead of the
//! full flag universe.
//! ```

use bench::cli::{CommonFlags, Cursor};
use bench::experiments;
use bench::fuzz;
use bench::Report;
use simkit::record::Record;
use simkit::trace::{to_chrome_json, to_csv, TraceReport};

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // The usage printer keys on the subcommand actually being invoked,
    // so pre-scan for it before flag parsing can bail out.
    let _ = SUBCOMMAND.set(raw.iter().find(|a| !a.starts_with('-')).cloned());
    let mut cur = Cursor::new(raw);
    let mut flags = CommonFlags::new();
    let mut which: Option<String> = None;
    let mut fopts = fuzz::FuzzOptions::default();
    let mut fuzz_replay: Option<String> = None;
    let mut any_fuzz_flag = false;
    let mut sopts = experiments::serve::ServeSweepOptions::default();
    let mut any_serve_flag = false;
    let mut seed_set = false;
    while let Some(tok) = cur.next() {
        match flags.accept(&tok, &mut cur) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(msg) => usage(&msg),
        }
        match tok.as_str() {
            "--seed" => {
                // Shared by `fuzz` (case seed) and `serve` (workload
                // seed); the applicability audit below rejects it for
                // every other subcommand.
                seed_set = true;
                let seed = flag(&mut cur, "--seed wants an unsigned integer");
                fopts.seed = seed;
                sopts.seed = seed;
            }
            "--requests" => {
                any_serve_flag = true;
                sopts.requests = flag(&mut cur, "--requests wants an unsigned integer");
            }
            "--slots" => {
                any_serve_flag = true;
                sopts.slots = flag(&mut cur, "--slots wants a nonzero count");
            }
            "--slot-devices" => {
                any_serve_flag = true;
                sopts.slot_devices = flag(&mut cur, "--slot-devices wants a nonzero count");
            }
            "--quantum" => {
                any_serve_flag = true;
                sopts.quantum = flag(&mut cur, "--quantum wants an iteration count");
            }
            "--max-queue" => {
                any_serve_flag = true;
                sopts.max_queue = flag(&mut cur, "--max-queue wants an unsigned integer");
            }
            "--budget-secs" => {
                any_fuzz_flag = true;
                fopts.budget_secs = Some(flag(&mut cur, "--budget-secs wants an unsigned integer"));
            }
            "--cases" => {
                any_fuzz_flag = true;
                fopts.max_cases = Some(flag(&mut cur, "--cases wants an unsigned integer"));
            }
            "--replay" => {
                any_fuzz_flag = true;
                fuzz_replay = Some(flag(&mut cur, "--replay needs a value"));
            }
            "--corpus" => {
                any_fuzz_flag = true;
                fopts.corpus_dir = flag(&mut cur, "--corpus needs a value");
            }
            "--inject-corruption" => {
                any_fuzz_flag = true;
                fopts.corrupt = true;
            }
            s if which.is_none() && !s.starts_with('-') => which = Some(s.to_owned()),
            s => usage(&format!("unknown argument {s}")),
        }
    }
    let which = which.unwrap_or_else(|| usage("missing experiment name"));
    if let Err(msg) = flags.finalize() {
        usage(&msg);
    }
    if any_fuzz_flag && which != "fuzz" {
        usage("--budget-secs/--cases/--replay/--corpus/--inject-corruption only apply to the fuzz experiment");
    }
    if any_serve_flag && which != "serve" {
        usage(
            "--requests/--slots/--slot-devices/--quantum/--max-queue only apply to the serve \
             experiment",
        );
    }
    if seed_set && which != "fuzz" && which != "serve" {
        usage("--seed only applies to the fuzz and serve experiments");
    }
    if let Some(warning) = flags.engine.clamp_sim_threads() {
        eprintln!("warning: {warning}");
    }
    let (scope, eng) = (flags.scope, &flags.engine);
    match which.as_str() {
        // `fuzz` owns its loop (budget, shrinking, corpus files); a
        // violated oracle aborts with the one-line replay command.
        "fuzz" => {
            if let Some(t) = eng.timeout {
                fopts.per_case_timeout = t;
            }
            export(
                match fuzz_replay {
                    Some(spec) => fuzz::replay(&spec, &fopts),
                    None => fuzz::run(&fopts),
                },
                &flags,
            );
        }
        "fabric" => export(experiments::fabric::run(scope, eng), &flags),
        "chaos-fabric" => export(experiments::chaos_fabric::run(scope, eng), &flags),
        "serve" => export(experiments::serve::run(scope, &sopts, eng), &flags),
        name => match experiments::run(name, scope, eng) {
            Some(report) => export(Ok(report), &flags),
            None => usage(&format!("unknown experiment {name}")),
        },
    }
}

/// The one export path every experiment shares: prints the report's
/// text, writes `--out` and `--trace`, then — after every export is
/// written — exits 1 with a one-line summary if any point failed. A sweep
/// that could not continue (`Err`) exits 1 with its one-line summary and
/// exports nothing.
fn export<R: Record>(report: Result<Report<R>, String>, flags: &CommonFlags) {
    let report = report.unwrap_or_else(|msg| die(&msg));
    print!("{}", report.text);
    if let Some(path) = &flags.out_path {
        write_or_die(path, &flags.format.render(&report.rows));
        eprintln!("wrote {} result rows to {path}", report.rows.len());
    }
    if let Some(path) = &flags.trace_path {
        if report.traces.is_empty() {
            eprintln!("warning: no traces captured (did every point fail?)");
        }
        let many = report.traces.len() > 1;
        for (label, trace) in &report.traces {
            let file = if many {
                suffixed_path(path, label)
            } else {
                path.clone()
            };
            write_trace(&file, trace);
        }
    }
    if let Some(first) = report.failures.first() {
        die(&format!(
            "{} point(s) failed (panic or watchdog stall); first: {first}",
            report.failures.len()
        ));
    }
}

/// Consumes the next token as the value of an extra flag, or exits with
/// the usage text and `err`.
fn flag<T: std::str::FromStr>(cur: &mut Cursor, err: &str) -> T {
    cur.value(err).unwrap_or_else(|msg| usage(&msg))
}

fn write_or_die(path: &str, rendered: &str) {
    if let Err(e) = std::fs::write(path, rendered) {
        die(&format!("cannot write {path}: {e}"));
    }
}

/// One-line structured error to stderr, then a nonzero exit (distinct
/// from the usage exit code 2).
fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// Renders one trace report in the format implied by the path extension
/// (`.csv` for the flat timeline, Chrome/Perfetto JSON otherwise).
fn write_trace(path: &str, report: &TraceReport) {
    let rendered = if path.ends_with(".csv") {
        to_csv(report)
    } else {
        to_chrome_json(report)
    };
    write_or_die(path, &rendered);
    eprintln!(
        "wrote trace ({} events, {} counter series) to {path}",
        report.events.len(),
        report.counters.len()
    );
}

/// Inserts a sanitized point label before the path's extension:
/// `out.json` + `WT-scc-2lvl 16/16-4ch` → `out-WT-scc-2lvl_16_16-4ch.json`.
fn suffixed_path(path: &str, label: &str) -> String {
    let clean: String = label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect();
    match path.rsplit_once('.') {
        Some((stem, ext)) if !stem.is_empty() => format!("{stem}-{clean}.{ext}"),
        _ => format!("{path}-{clean}"),
    }
}

/// The subcommand named on the command line, captured before flag
/// parsing so [`usage`] can print that subcommand's own flag set.
static SUBCOMMAND: std::sync::OnceLock<Option<String>> = std::sync::OnceLock::new();

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    let sub = SUBCOMMAND.get().and_then(|s| s.as_deref());
    eprint!("{}", bench::cli::usage_for(sub));
    std::process::exit(2);
}
