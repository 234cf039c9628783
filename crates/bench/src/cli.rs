//! Shared command-line plumbing for the `repro` binary.
//!
//! Every subcommand accepts the same overlay flags — scope
//! (`--full`/`--shrink`), engine (`--jobs`/`--timeout-secs`), hardening
//! (`--fault-*`/`--watchdog-cycles`), export (`--out`/`--format`), and
//! tracing (`--trace*`). [`CommonFlags::accept`] parses them all in one
//! place, so a new subcommand (like `fabric`) plugs into the same parser
//! loop instead of copying the match arms another time.

use std::str::FromStr;
use std::time::Duration;

use simkit::record::Format;
use simkit::trace::TraceLevel;

use crate::engine::EngineConfig;
use crate::experiments::Scope;

/// Forward-only cursor over the raw argument list.
#[derive(Debug)]
pub struct Cursor {
    args: Vec<String>,
    i: usize,
}

impl Cursor {
    /// Wraps an argument list (without the program name).
    pub fn new(args: Vec<String>) -> Self {
        Cursor { args, i: 0 }
    }

    /// Consumes the next token as a flag value parsed into `T`; `err` is
    /// the usage message when the token is missing or unparsable.
    pub fn value<T: FromStr>(&mut self, err: &str) -> Result<T, String> {
        self.next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| err.to_owned())
    }
}

impl Iterator for Cursor {
    type Item = String;

    /// Consumes and returns the next raw token.
    fn next(&mut self) -> Option<String> {
        let tok = self.args.get(self.i).cloned();
        if tok.is_some() {
            self.i += 1;
        }
        tok
    }
}

/// The flag set shared by every `repro` subcommand.
#[derive(Debug, Clone)]
pub struct CommonFlags {
    /// Experiment scope (`--full`, `--shrink`).
    pub scope: Scope,
    /// Engine overlay (`--jobs`, `--timeout-secs`, `--fault-*`,
    /// `--watchdog-cycles`, `--link-fault-*`, `--link-retry`,
    /// `--checkpoint-interval`, `--sim-threads`, `--trace-level`,
    /// `--trace-window`).
    pub engine: EngineConfig,
    /// `--out PATH` structured-result export.
    pub out_path: Option<String>,
    /// `--trace PATH` timeline export.
    pub trace_path: Option<String>,
    /// `--format` for `--out`.
    pub format: Format,
}

impl Default for CommonFlags {
    fn default() -> Self {
        CommonFlags::new()
    }
}

impl CommonFlags {
    /// Defaults: quick scope, progress output on, JSON export format.
    pub fn new() -> Self {
        CommonFlags {
            scope: Scope::quick(),
            engine: EngineConfig {
                progress: true,
                ..EngineConfig::default()
            },
            out_path: None,
            trace_path: None,
            format: Format::Json,
        }
    }

    /// Tries to consume `flag` (and its value, from `cur`) as one of the
    /// shared flags. Returns `Ok(true)` when the flag was recognized,
    /// `Ok(false)` when the caller should handle it, and `Err` with a
    /// usage message when a recognized flag has a bad or missing value.
    pub fn accept(&mut self, flag: &str, cur: &mut Cursor) -> Result<bool, String> {
        match flag {
            "--full" => self.scope.full = true,
            "--shrink" => self.scope.shrink = cur.value("--shrink needs a number")?,
            "--jobs" => self.engine.jobs = cur.value("--jobs needs a number")?,
            "--timeout-secs" => {
                let secs: u64 = cur.value("--timeout-secs needs a number")?;
                self.engine.timeout = Some(Duration::from_secs(secs));
            }
            "--out" => {
                self.out_path = Some(cur.next().ok_or("--out needs a path")?);
            }
            "--format" => self.format = cur.value("--format is json or csv")?,
            "--fault-profile" => {
                self.engine.fault.profile = cur.value(
                    "--fault-profile is one of \
                     none|delay|reorder|nack|chaos-lite|chaos|black-hole",
                )?;
            }
            "--fault-seed" => {
                self.engine.fault.seed = cur.value("--fault-seed needs a number")?;
            }
            "--watchdog-cycles" => {
                self.engine.watchdog_cycles = Some(cur.value("--watchdog-cycles needs a number")?);
            }
            "--link-fault-profile" => {
                self.engine.link_fault.profile = cur.value(
                    "--link-fault-profile is one of \
                     none|delay|reorder|nack|chaos-lite|chaos|black-hole|\
                     lossy[:permille]|duplicate",
                )?;
            }
            "--link-fault-seed" => {
                self.engine.link_fault.seed = cur.value("--link-fault-seed needs a number")?;
            }
            "--link-retry" => {
                let rto: u64 = cur.value("--link-retry needs a cycle count")?;
                if rto == 0 {
                    return Err("--link-retry must be nonzero".to_owned());
                }
                self.engine.link_retry = Some(rto);
            }
            "--checkpoint-interval" => {
                self.engine.checkpoint_interval =
                    cur.value("--checkpoint-interval needs a barrier count (0 = off)")?;
            }
            "--sim-threads" => {
                self.engine.sim_threads =
                    cur.value("--sim-threads needs a thread count (0 = auto)")?;
            }
            "--trace" => {
                self.trace_path = Some(cur.next().ok_or("--trace needs a path")?);
            }
            "--trace-level" => {
                self.engine.trace.level = cur.value("--trace-level is events or counters")?;
            }
            "--trace-window" => {
                self.engine.trace.window = Some(
                    cur.next()
                        .as_deref()
                        .and_then(parse_window)
                        .ok_or("--trace-window is START:END in cycles")?,
                );
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Applies the cross-flag defaults and consistency rules: `--trace`
    /// implies event-level tracing, and trace tuning without a trace path
    /// is an error.
    pub fn finalize(&mut self) -> Result<(), String> {
        if self.trace_path.is_some() && self.engine.trace.level == TraceLevel::Off {
            self.engine.trace.level = TraceLevel::Events;
        }
        if self.trace_path.is_none() && self.engine.trace.level != TraceLevel::Off {
            return Err("--trace-level/--trace-window require --trace PATH".to_owned());
        }
        Ok(())
    }
}

/// The shared-flag block every subcommand's usage text ends with.
const SHARED_USAGE: &str = "\
shared flags:
  [--full] [--shrink N] [--jobs N] [--timeout-secs S]
  [--out PATH] [--format json|csv]
  [--fault-profile none|delay|reorder|nack|chaos-lite|chaos|black-hole]
  [--fault-seed N] [--watchdog-cycles N]
  [--link-fault-profile none|delay|reorder|nack|chaos-lite|chaos|black-hole|lossy[:permille]|duplicate]
  [--link-fault-seed N] [--link-retry CYCLES] [--checkpoint-interval N]
  [--sim-threads N]
  [--trace PATH] [--trace-level events|counters] [--trace-window START:END]
";

/// Renders the usage text for `sub`: subcommand-specific for the
/// subcommands that take extra flags (`serve`, `fuzz`), the
/// generic experiment-list text for everything else (including a
/// missing or unknown subcommand). The `repro` binary prints this on
/// exit code 2, so an unknown flag names the flags of the subcommand
/// actually being invoked instead of the whole flag universe.
pub fn usage_for(sub: Option<&str>) -> String {
    match sub {
        Some("serve") => format!(
            "usage: repro serve [serve flags] [shared flags]
serve flags:
  [--seed N]         master workload seed (default 1)
  [--requests N]     requests per rate point (default 100)
  [--slots N]        device slots in the pool (default 2)
  [--slot-devices N] devices per slot; >1 runs each job on a fabric
  [--quantum N]      preemption quantum in iterations (default 2)
  [--max-queue N]    admission-control queue bound (default 16)
sweeps offered load x25%..10x of pool saturation and reports the
saturation curve; same seed + config = byte-identical output at any
--jobs/--sim-threads setting
{SHARED_USAGE}"
        ),
        Some("fuzz") => format!(
            "usage: repro fuzz [fuzz flags] [shared flags]
fuzz flags:
  [--seed N]             master seed (default 1); same seed = same cases
  [--budget-secs N]      deterministic work budget
  [--cases N]            exact case count (default 200 without a budget)
  [--replay SPEC]        re-run one case: @corpus-file or seed:index
  [--corpus DIR]         where failing cases are saved
  [--inject-corruption]  test hook: corrupt results so oracles fire
{SHARED_USAGE}"
        ),
        _ => format!(
            "usage: repro <experiment> [flags]
experiments: table1 table2 table3 fig11 fig12 fig13 fig14 fig15 fig16
             fig17 ablate sweep syncasync paperscale related explain
             fabric chaos-fabric serve fuzz all
`repro <experiment> --help-like output`: rerun with the experiment name
for its specific flags (serve and fuzz take extra flags)
{SHARED_USAGE}"
        ),
    }
}

/// Parses `START:END` cycle bounds for `--trace-window`.
fn parse_window(s: &str) -> Option<(u64, u64)> {
    let (a, b) = s.split_once(':')?;
    let start: u64 = a.parse().ok()?;
    let end: u64 = b.parse().ok()?;
    (start < end).then_some((start, end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::FaultProfile;

    fn parse(tokens: &[&str]) -> Result<(CommonFlags, Vec<String>), String> {
        let mut cur = Cursor::new(tokens.iter().map(|s| s.to_string()).collect());
        let mut flags = CommonFlags::new();
        let mut rest = Vec::new();
        while let Some(tok) = cur.next() {
            if !flags.accept(&tok, &mut cur)? {
                rest.push(tok);
            }
        }
        flags.finalize()?;
        Ok((flags, rest))
    }

    #[test]
    fn shared_flags_parse_and_leftovers_pass_through() {
        let (flags, rest) = parse(&[
            "fabric",
            "--shrink",
            "8",
            "--jobs",
            "3",
            "--fault-profile",
            "chaos",
            "--fault-seed",
            "7",
            "--out",
            "x.csv",
            "--format",
            "csv",
            "--devices",
            "4",
        ])
        .unwrap();
        assert_eq!(flags.scope.shrink, 8);
        assert_eq!(flags.engine.jobs, 3);
        assert_eq!(flags.engine.fault.profile, FaultProfile::Chaos);
        assert_eq!(flags.engine.fault.seed, 7);
        assert_eq!(flags.out_path.as_deref(), Some("x.csv"));
        assert_eq!(rest, vec!["fabric", "--devices", "4"]);
    }

    #[test]
    fn bad_values_surface_usage_messages() {
        assert!(parse(&["--shrink"]).is_err());
        assert!(parse(&["--shrink", "abc"]).is_err());
        assert!(parse(&["--trace-window", "9:3"]).is_err());
        assert!(parse(&["--link-retry", "0"]).is_err());
        assert!(parse(&["--link-fault-profile", "lossy:2000"]).is_err());
    }

    #[test]
    fn link_reliability_flags_parse() {
        let (flags, _) = parse(&[
            "--link-fault-profile",
            "lossy:250",
            "--link-fault-seed",
            "11",
            "--link-retry",
            "600",
            "--checkpoint-interval",
            "2",
        ])
        .unwrap();
        assert_eq!(
            flags.engine.link_fault.profile,
            FaultProfile::Lossy { permille: 250 }
        );
        assert_eq!(flags.engine.link_fault.seed, 11);
        assert_eq!(flags.engine.link_retry, Some(600));
        assert_eq!(flags.engine.checkpoint_interval, 2);
    }

    #[test]
    fn sim_threads_flag_parses() {
        let (flags, _) = parse(&["--sim-threads", "4"]).unwrap();
        assert_eq!(flags.engine.sim_threads, 4);
        let (flags, _) = parse(&[]).unwrap();
        assert_eq!(flags.engine.sim_threads, 0, "default is auto");
        assert!(parse(&["--sim-threads"]).is_err());
        assert!(parse(&["--sim-threads", "many"]).is_err());
    }

    #[test]
    fn usage_is_subcommand_specific() {
        let generic = usage_for(None);
        assert!(generic.contains("serve"), "{generic}");
        assert!(generic.contains("chaos-fabric"), "{generic}");
        let serve = usage_for(Some("serve"));
        assert!(serve.contains("--requests"), "{serve}");
        assert!(serve.contains("--slot-devices"), "{serve}");
        assert!(!serve.contains("--budget-secs"), "{serve}");
        let fuzz = usage_for(Some("fuzz"));
        assert!(fuzz.contains("--replay"), "{fuzz}");
        assert!(!fuzz.contains("--max-queue"), "{fuzz}");
        // Every variant carries the shared block.
        for text in [&generic, &serve, &fuzz, &usage_for(Some("table1"))] {
            assert!(text.contains("--trace-window"), "{text}");
            assert!(text.contains("--shrink"), "{text}");
        }
    }

    #[test]
    fn trace_path_defaults_level_to_events() {
        let (flags, _) = parse(&["--trace", "t.json"]).unwrap();
        assert_eq!(flags.engine.trace.level, TraceLevel::Events);
        assert!(parse(&["--trace-level", "events"]).is_err());
    }
}
