//! The command line, the measurement loop and every output.
//!
//! Untraced runs interleave the selected workloads round-robin, one
//! operation each per round, so host-speed phases hit every workload, and
//! report medians over the rounds. A traced run (`--trace 1`) runs each
//! workload once traced, between two untraced operations, and reports the
//! per-layer metrics of the traced operation.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::alloc;
use crate::calib::{self, Probe, Reference};
use crate::json;
use crate::metrics::{MetricDef, Summary, END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::workloads::{Op, Size, Workload};

/// Usage text printed on a command-line error.
pub const USAGE: &str = "usage: benchmark [--workload NAME|all] [--seed N] [--seconds N] \
[--trace 0|1] [--trace-dir DIR] [--out PATH]";

/// Operations per workload below which a run keeps measuring past its
/// time budget, so every median has at least this many samples.
const MIN_REPEATS: usize = 3;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workloads to run, in reporting order.
    pub workloads: Vec<Workload>,
    /// Master seed of every input generator.
    pub seed: u64,
    /// Measuring budget in seconds (untraced runs).
    pub seconds: u64,
    /// `true` for the traced run.
    pub trace: bool,
    /// Where the traced run writes its Chrome trace files.
    pub trace_dir: PathBuf,
    /// Where to write the full JSON report, if anywhere.
    pub out: Option<PathBuf>,
}

impl Args {
    /// Parses the arguments after the program name.
    ///
    /// # Errors
    ///
    /// Names the first unknown flag, missing value or bad value.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workloads: Workload::ALL.to_vec(),
            seed: 1,
            seconds: 60,
            trace: false,
            trace_dir: PathBuf::from("bench_trace"),
            out: None,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a whole number: {value}"))
            };
            match flag.as_str() {
                "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
                "--workload" => {
                    let w = Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?;
                    args.workloads = vec![w];
                }
                "--seed" => args.seed = number()?,
                "--seconds" => {
                    args.seconds = number()?;
                    if !(1..=3600).contains(&args.seconds) {
                        return Err("--seconds must be 1..=3600".to_owned());
                    }
                }
                "--trace" => {
                    args.trace = match value {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    }
                }
                "--trace-dir" => args.trace_dir = PathBuf::from(value),
                "--out" => args.out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(args)
    }
}

/// The measured outcome of one workload.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload.
    pub workload: Workload,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations that failed a check, stalled or panicked.
    pub failed: usize,
    /// Why each failed operation failed.
    pub errors: Vec<String>,
    /// Every declared metric of the run's kind, with its summary.
    pub metrics: Vec<(&'static MetricDef, Summary)>,
    /// Self time per layer of the traced operation, in seconds.
    pub self_times: Vec<(String, f64)>,
    /// Raw measurements of every successful operation, in order.
    pub samples: Vec<Sample>,
}

/// The raw measurements of one operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Measured set-up seconds.
    pub setup_s: f64,
    /// Measured seconds of the timed phase.
    pub run_s: f64,
    /// Reference-kernel seconds right before the timed phase.
    pub kernel_before_s: f64,
    /// Reference-kernel seconds right after the timed phase.
    pub kernel_after_s: f64,
    /// Simulated device-cycles of the timed phase.
    pub sim_cycles: u64,
    /// Peak heap growth in MiB.
    pub peak_heap_mib: f64,
}

/// One operation with its heap peak, the host-speed reference time
/// around it, and the spans it recorded.
struct Measured {
    op: Op,
    peak_heap_mib: f64,
    /// Reference-kernel time right after set-up, before the timed phase.
    kernel_before_s: f64,
    /// Reference-kernel time right after the timed phase.
    kernel_after_s: f64,
    /// The workload's [`Workload::host_sensitivity`].
    sensitivity: f64,
    spans: Spans,
}

/// Runs one operation, with the host-speed reference timed on both sides
/// of its timed phase, turning a panic or a zero-cycle result into an
/// error.
fn measure_op(
    reference: &mut Reference,
    w: Workload,
    seed: u64,
    size: Size,
    traced: bool,
) -> Result<Measured, String> {
    let mut spans = if traced { Spans::on() } else { Spans::off() };
    let mut probe = Probe::new(reference);
    let heap0 = alloc::live_bytes();
    alloc::reset_peak();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let root = spans.open("bench.op");
        let op = w.run(seed, size, &mut spans, &mut probe);
        spans.close(root);
        op
    }));
    let peak = alloc::peak_bytes().saturating_sub(heap0);
    let op = match outcome {
        Ok(op) => op?,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            return Err(format!("panicked: {msg}"));
        }
    };
    if op.sim_cycles == 0 || op.run_s <= 0.0 {
        return Err("the timed phase simulated no cycles".to_owned());
    }
    Ok(Measured {
        op,
        peak_heap_mib: alloc::mib(peak),
        kernel_before_s: probe.before_s,
        kernel_after_s: probe.after_s,
        sensitivity: w.host_sensitivity(),
        spans,
    })
}

/// Accumulates one workload's operations.
struct Tally {
    workload: Workload,
    attempted: usize,
    errors: Vec<String>,
    reference: Option<Vec<(&'static str, u64)>>,
    ok: Vec<Measured>,
}

impl Tally {
    fn new(workload: Workload) -> Self {
        Tally {
            workload,
            attempted: 0,
            errors: Vec::new(),
            reference: None,
            ok: Vec::new(),
        }
    }

    /// Records one operation; it fails if its simulated counts differ
    /// from the first successful operation's.
    fn record(&mut self, outcome: Result<Measured, String>) {
        self.attempted += 1;
        let m = match outcome {
            Ok(m) => m,
            Err(e) => return self.fail(e),
        };
        match &self.reference {
            None => self.reference = Some(m.op.signature.clone()),
            Some(r) if *r != m.op.signature => {
                return self.fail(format!(
                    "simulated counts changed between repeats: {r:?} then {:?}",
                    m.op.signature
                ))
            }
            Some(_) => {}
        }
        self.ok.push(m);
    }

    fn fail(&mut self, e: String) {
        eprintln!("[{}] operation failed: {e}", self.workload.name());
        self.errors.push(e);
    }

    fn report(self, metrics: Vec<(&'static MetricDef, Summary)>, spans: Option<&Spans>) -> Report {
        let samples = self
            .ok
            .iter()
            .map(|m| Sample {
                setup_s: m.op.setup_s,
                run_s: m.op.run_s,
                kernel_before_s: m.kernel_before_s,
                kernel_after_s: m.kernel_after_s,
                sim_cycles: m.op.sim_cycles,
                peak_heap_mib: m.peak_heap_mib,
            })
            .collect();
        Report {
            samples,
            workload: self.workload,
            attempted: self.attempted,
            failed: self.errors.len(),
            errors: self.errors,
            metrics,
            self_times: spans.map(Spans::self_time_by_layer).unwrap_or_default(),
        }
    }
}

impl Measured {
    /// Simulated device-cycles per reference-host second of the timed
    /// phase.
    fn sim_cycles_per_s(&self) -> f64 {
        let kernel_s = (self.kernel_before_s + self.kernel_after_s) / 2.0;
        self.op.sim_cycles as f64 / calib::normalise(self.op.run_s, kernel_s, self.sensitivity)
    }
}

/// End-to-end value of `def` for one operation; host times are in
/// seconds of the reference host (see [`calib`]).
fn end_to_end(def: &MetricDef, m: &Measured) -> f64 {
    match def.name {
        "sim_cycles_per_s" => m.sim_cycles_per_s(),
        "setup_s" => calib::normalise(m.op.setup_s, m.kernel_before_s, 1.0),
        "peak_heap_mib" => m.peak_heap_mib,
        other => unreachable!("end-to-end metric {other} has no definition"),
    }
}

/// Interleaved untraced measurement: rounds of one operation per
/// workload until the budget is spent and every workload has
/// [`MIN_REPEATS`] operations.
pub fn measure(workloads: &[Workload], seed: u64, seconds: u64, size: Size) -> Vec<Report> {
    let start = Instant::now();
    let mut reference = Reference::default();
    let mut tallies: Vec<Tally> = workloads.iter().map(|&w| Tally::new(w)).collect();
    for round in 1.. {
        for t in &mut tallies {
            t.record(measure_op(&mut reference, t.workload, seed, size, false));
        }
        if round >= MIN_REPEATS && start.elapsed().as_secs_f64() >= seconds as f64 {
            break;
        }
    }
    tallies
        .into_iter()
        .map(|t| {
            let metrics = END_TO_END
                .iter()
                .filter_map(|def| {
                    let values: Vec<f64> = t.ok.iter().map(|m| end_to_end(def, m)).collect();
                    Summary::of(&values).map(|s| (def, s))
                })
                .collect();
            t.report(metrics, None)
        })
        .collect()
}

/// The traced run of one workload: an untraced operation, the traced
/// one, and another untraced one; all three must agree on every simulated
/// count. Returns the report and the traced operation's spans.
pub fn trace(w: Workload, seed: u64, size: Size) -> (Report, Option<Spans>) {
    let mut t = Tally::new(w);
    let mut reference = Reference::default();
    t.record(measure_op(&mut reference, w, seed, size, false));
    t.record(measure_op(&mut reference, w, seed, size, true));
    t.record(measure_op(&mut reference, w, seed, size, false));
    if t.ok.len() < 3 {
        return (t.report(Vec::new(), None), None);
    }
    // Untraced operations on both sides of the traced one, so the
    // process's cold first operation does not pass for tracing cost.
    let untraced = (t.ok[0].sim_cycles_per_s() + t.ok[2].sim_cycles_per_s()) / 2.0;
    let traced = &mut t.ok[1];
    let mut layers = std::mem::take(&mut traced.op.layers);
    layers.insert(
        "bench.tracing_overhead",
        untraced / traced.sim_cycles_per_s(),
    );
    layers.insert(
        "bench.trace_coverage",
        traced.spans.coverage(calib::REFERENCE_SPAN),
    );
    let spans = std::mem::replace(&mut traced.spans, Spans::off());
    let undeclared: Vec<_> = layers
        .keys()
        .filter(|k| !PER_LAYER.iter().any(|d| d.name == **k))
        .collect();
    assert!(
        undeclared.is_empty(),
        "undeclared layer metrics {undeclared:?}"
    );
    let metrics = PER_LAYER
        .iter()
        .map(|def| {
            let v = layers.get(def.name).copied().unwrap_or(0.0);
            (def, Summary::of(&[v]).expect("one sample"))
        })
        .collect();
    (t.report(metrics, Some(&spans)), Some(spans))
}

/// The last line of standard output: `correct`, `attempted`, `failed` and
/// each metric's median. With several workloads, metric keys are
/// prefixed with the workload name.
pub fn result_line(reports: &[Report]) -> String {
    let attempted: usize = reports.iter().map(|r| r.attempted).sum();
    let failed: usize = reports.iter().map(|r| r.failed).sum();
    let prefix = reports.len() > 1;
    let metrics = reports.iter().flat_map(|r| {
        r.metrics.iter().map(move |(def, s)| {
            let key = if prefix {
                format!("{}.{}", r.workload.name(), def.name)
            } else {
                def.name.to_owned()
            };
            let value = json::object([
                ("value", json::number(s.median)),
                ("unit", json::string(def.unit)),
            ]);
            (key, value)
        })
    });
    json::object([
        ("correct", (failed == 0 && attempted > 0).to_string()),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        ("metrics", json::object(metrics)),
    ])
}

/// Human-readable tables: every metric by name with its unit, median,
/// quartiles and sample count.
pub fn render_tables(reports: &[Report]) -> String {
    let mut out = String::new();
    for r in reports {
        out += &format!(
            "== {} — ops {}, failed {} — {}\n",
            r.workload.name(),
            r.attempted,
            r.failed,
            r.workload.why()
        );
        out += &format!(
            "  {:<30} {:<12} {:>14} {:>14} {:>14} {:>3}\n",
            "metric", "unit", "median", "q1", "q3", "n"
        );
        for (def, s) in &r.metrics {
            out += &format!(
                "  {:<30} {:<12} {:>14.6} {:>14.6} {:>14.6} {:>3}\n",
                def.name, def.unit, s.median, s.q1, s.q3, s.n
            );
        }
        for (layer, secs) in &r.self_times {
            out += &format!("  self time {layer:<20} {secs:>12.6} s\n");
        }
    }
    out
}

/// The revision of the repository the benchmark was built from, or
/// `"unknown"` outside a git checkout. The search stops at the
/// repository root.
pub fn git_revision() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap_or(Path::new("."));
    let mut cmd = Command::new("git");
    cmd.arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null());
    if let Some(ceiling) = root.parent() {
        cmd.env("GIT_CEILING_DIRECTORIES", ceiling);
    }
    match cmd.output() {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        _ => "unknown".to_owned(),
    }
}

/// The full JSON report: provenance, then every workload with its
/// operation counts and every metric's summary, unit, direction, bound
/// and layer mapping.
pub fn report_json(args: &Args, reports: &[Report], wall_s: f64) -> String {
    let provenance = json::object([
        ("seed", args.seed.to_string()),
        ("trace", args.trace.to_string()),
        ("seconds_budget", args.seconds.to_string()),
        ("git_revision", json::string(&git_revision())),
        ("host_cores", host_cores().to_string()),
        ("total_wall_s", json::number(wall_s)),
    ]);
    let workloads = reports.iter().map(|r| {
        let metrics = r.metrics.iter().map(|(def, s)| {
            let mut fields = vec![
                ("unit", json::string(def.unit)),
                ("better", json::string(def.better.as_str())),
                ("layer", json::string(def.layer)),
                ("median", json::number(s.median)),
                ("q1", json::number(s.q1)),
                ("q3", json::number(s.q3)),
                ("n", s.n.to_string()),
            ];
            if let Some(b) = def.bound {
                fields.push(("bound", json::number(b)));
            } else {
                fields.push(("moves", json::string(def.moves)));
            }
            (def.name, json::object(fields))
        });
        let self_times = r
            .self_times
            .iter()
            .map(|(l, s)| (l.as_str(), json::number(*s)));
        let samples = r.samples.iter().map(|s| {
            json::object([
                ("setup_s", json::number(s.setup_s)),
                ("run_s", json::number(s.run_s)),
                ("kernel_before_s", json::number(s.kernel_before_s)),
                ("kernel_after_s", json::number(s.kernel_after_s)),
                ("sim_cycles", s.sim_cycles.to_string()),
                ("peak_heap_mib", json::number(s.peak_heap_mib)),
            ])
        });
        let body = json::object([
            ("why", json::string(r.workload.why())),
            ("ops", r.attempted.to_string()),
            ("failed_ops", r.failed.to_string()),
            (
                "errors",
                json::array(r.errors.iter().map(|e| json::string(e))),
            ),
            ("metrics", json::object(metrics)),
            ("self_time_s", json::object(self_times)),
            ("samples", json::array(samples)),
        ]);
        (r.workload.name(), body)
    });
    json::object([
        ("provenance", provenance),
        ("workloads", json::object(workloads)),
    ])
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs the benchmark for `argv` (the arguments after the program name)
/// and returns the process exit code: 0 when every operation passed, 1
/// when any failed or an output could not be written, 2 on a usage error.
pub fn main(argv: &[String]) -> i32 {
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return 2;
        }
    };
    let start = Instant::now();
    let mut write_errors = Vec::new();
    let reports = if args.trace {
        args.workloads
            .iter()
            .map(|&w| {
                let (report, spans) = trace(w, args.seed, Size::Full);
                if let Some(spans) = spans {
                    let per_layer = report
                        .metrics
                        .iter()
                        .map(|(def, s)| (def.name, json::number(s.median)));
                    let extra = vec![
                        ("workload".to_owned(), json::string(w.name())),
                        ("seed".to_owned(), args.seed.to_string()),
                        ("perLayer".to_owned(), json::object(per_layer)),
                    ];
                    let path = args.trace_dir.join(format!("{}.trace.json", w.name()));
                    if let Err(e) = write_file(&path, &spans.chrome_json(extra)) {
                        write_errors.push(e);
                    }
                }
                report
            })
            .collect()
    } else {
        measure(&args.workloads, args.seed, args.seconds, Size::Full)
    };
    let wall_s = start.elapsed().as_secs_f64();
    print!("{}", render_tables(&reports));
    println!(
        "seed {}, {} host cores, {:.1} s total",
        args.seed,
        host_cores(),
        wall_s
    );
    if let Some(out) = &args.out {
        if let Err(e) = write_file(out, &report_json(&args, &reports, wall_s)) {
            write_errors.push(e);
        }
    }
    for e in &write_errors {
        eprintln!("error: cannot write {e}");
    }
    println!("{}", result_line(&reports));
    let failed = reports.iter().any(|r| r.failed > 0);
    i32::from(failed || !write_errors.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = Args::parse(&argv(
            "--workload fabric-bfs4 --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workloads, vec![Workload::FabricBfs4]);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20, true));
        let d = Args::parse(&[]).unwrap();
        assert_eq!(d.workloads.len(), 5);
        assert!(!d.trace);
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--seed x",
            "--bogus 1",
            "--seed",
        ] {
            assert!(Args::parse(&argv(bad)).is_err(), "{bad}");
        }
    }

    fn check_line(line: &str, reports: &[Report], declared: &[MetricDef]) {
        let v = parse(line).unwrap();
        let Value::Object(fields) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let Some(Value::Object(metrics)) = v.get("metrics") else {
            panic!("metrics is not an object")
        };
        assert_eq!(metrics.len(), declared.len() * reports.len());
        for r in reports {
            for def in declared {
                let key = if reports.len() > 1 {
                    format!("{}.{}", r.workload.name(), def.name)
                } else {
                    def.name.to_owned()
                };
                let m = v.get("metrics").and_then(|m| m.get(&key)).expect(&key);
                assert!(m.get("value").and_then(Value::as_f64).is_some(), "{key}");
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(def.unit));
            }
        }
    }

    /// Every workload passes its oracle once at the reduced size, its
    /// traced operation reproduces the untraced counts, and both kinds of
    /// output parse and carry every declared metric.
    #[test]
    fn every_workload_passes_its_oracle_at_smoke_size() {
        let untraced = measure(&Workload::ALL, 3, 0, Size::Smoke);
        for r in &untraced {
            assert_eq!((r.attempted, r.failed), (MIN_REPEATS, 0), "{:?}", r.errors);
            for (def, s) in &r.metrics {
                assert!(s.median > 0.0, "{} {}", r.workload.name(), def.name);
            }
        }
        check_line(&result_line(&untraced), &untraced, END_TO_END);
        check_line(&result_line(&untraced[..1]), &untraced[..1], END_TO_END);
        let args = Args::parse(&[]).unwrap();
        let report = parse(&report_json(&args, &untraced, 1.0)).unwrap();
        assert!(report
            .get("provenance")
            .and_then(|p| p.get("git_revision"))
            .is_some());

        for w in Workload::ALL {
            let (r, spans) = trace(w, 3, Size::Smoke);
            assert_eq!(
                (r.attempted, r.failed),
                (3, 0),
                "{}: {:?}",
                w.name(),
                r.errors
            );
            let spans = spans.expect("traced spans");
            assert!(spans.spans().len() > 2, "{}", w.name());
            assert!(parse(&spans.chrome_json(vec![])).is_ok());
            let one = std::slice::from_ref(&r);
            check_line(&result_line(one), one, PER_LAYER);
        }
    }

    #[test]
    fn failures_and_changed_counts_fail_the_operation() {
        let mut t = Tally::new(Workload::ClusteredScc);
        t.record(Err("stalled".to_owned()));
        let mut reference = Reference::default();
        t.record(measure_op(
            &mut reference,
            Workload::ClusteredScc,
            5,
            Size::Smoke,
            false,
        ));
        let mut m = measure_op(
            &mut reference,
            Workload::ClusteredScc,
            5,
            Size::Smoke,
            false,
        )
        .unwrap();
        m.op.signature[0].1 += 1;
        t.record(Ok(m));
        assert_eq!((t.attempted, t.errors.len(), t.ok.len()), (3, 2, 1));
        let line = result_line(&[t.report(Vec::new(), None)]);
        assert_eq!(
            parse(&line).unwrap().get("correct"),
            Some(&Value::Bool(false))
        );
    }
}
