//! Command-line interface for the `fpb` binary.
//!
//! Hand-rolled argument parsing (no CLI dependency) kept separate from the
//! binary so it is unit-testable. Subcommands:
//!
//! * `run` — simulate a workload under a scheme and print metrics.
//! * `compare` — run every major scheme on one workload.
//! * `list` — list catalog workloads, programs, and scheme names.

use std::fmt;

use fpb_pcm::CellMapping;
use fpb_sim::scheme::{Modifier, SchemeBase, SchemeRegistry, SchemeSpec};
use fpb_sim::{SchemeSetup, SimOptions};
use fpb_types::SystemConfig;

/// A parsed command line.
// One Command is built per process and immediately consumed; the size
// spread between variants is irrelevant here, so boxing the sweep
// controls would only add noise.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `fpb run --workload W --scheme S [options]`
    Run(RunArgs),
    /// `fpb compare --workload W [options]`
    Compare(RunArgs),
    /// `fpb sweep --workload W --axis name=v1,v2 [--axis ...] [options]`
    Sweep {
        /// Shared run options (`scheme` is the swept scheme; the baseline
        /// is always DIMM+chip).
        args: RunArgs,
        /// Parsed axes: `(axis name, raw comma-separated values)`.
        axes: Vec<(String, String)>,
        /// Optional CSV output path.
        csv: Option<String>,
        /// Supervision / journal / resume controls.
        control: SweepControl,
    },
    /// `fpb list`
    List,
    /// `fpb inspect [verb] [options]` — the event-log time-travel
    /// debugger.
    Inspect(InspectArgs),
    /// `fpb help`
    Help,
}

/// What `fpb inspect` should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InspectVerb {
    /// Run a workload and record its lifecycle event log (`--log` out).
    Record,
    /// Read a log and re-derive metrics/timeline from events alone.
    Replay,
    /// Scan a stream for the first event matching `--break`.
    Break,
    /// Print one write's full event trace (`--write`).
    Lineage,
    /// Attribute waiting time across stall kinds.
    Stalls,
}

/// Options for `fpb inspect`.
#[derive(Debug, Clone, PartialEq)]
pub struct InspectArgs {
    /// The verb; `fpb inspect --break EXPR` with no verb means `Break`,
    /// any other verbless invocation means `Replay`.
    pub verb: InspectVerb,
    /// Workload/scheme/fault flags for verbs that simulate
    /// (`record`, and `break` without `--log`).
    pub run: RunArgs,
    /// Event-log path: output for `record`, input for the rest.
    pub log: Option<String>,
    /// Breakpoint expression (`--break`).
    pub break_expr: Option<String>,
    /// Write the replay-derived metrics JSON here (`--metrics-out`).
    pub metrics_out: Option<String>,
    /// Print the derived metrics JSON to stdout (`--json`).
    pub json: bool,
    /// Refuse logs without a valid trailer (`--require-complete`);
    /// without it a torn log replays its valid prefix.
    pub require_complete: bool,
    /// Write id for `lineage` (`--write`).
    pub write: Option<u64>,
    /// Worst-writes rows shown by `stalls` (`--top`).
    pub top: usize,
}

impl Default for InspectArgs {
    fn default() -> Self {
        InspectArgs {
            verb: InspectVerb::Replay,
            run: RunArgs::default(),
            log: None,
            break_expr: None,
            metrics_out: None,
            json: false,
            require_complete: false,
            write: None,
            top: 5,
        }
    }
}

/// Supervision, journaling, and resume controls for `fpb sweep`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SweepControl {
    /// Start a fresh durable journal at this path (`--journal`).
    pub journal: Option<String>,
    /// Resume from an existing journal (`--resume`); mutually exclusive
    /// with `--journal`.
    pub resume: Option<String>,
    /// Write the final `fpb-sweep/v1` JSON document here (`--json-out`).
    pub json_out: Option<String>,
    /// Per-point deadline in wall milliseconds (`--deadline-ms`;
    /// `None` = no watchdog).
    pub deadline_ms: Option<u64>,
    /// Deterministic fault-injection hook: every run of this grid point
    /// panics (`--inject-panic I`). A test/CI hook, not a production
    /// flag.
    pub inject_panic: Option<usize>,
    /// Graceful-cancellation hook: stop admitting new points after this
    /// many completions (`--cancel-after`).
    pub cancel_after: Option<usize>,
    /// Disable result reuse entirely — semantic dedup *and* the
    /// persistent cache — so every grid point simulates from scratch
    /// (`--no-result-cache`; the CI byte-identity gate compares against
    /// this mode).
    pub no_result_cache: bool,
    /// Persistent point-result cache file override (`--result-cache`);
    /// `None` = `target/fpb-sweep-cache.v1`.
    pub result_cache: Option<String>,
}

/// Options shared by `run` and `compare`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Table 2 workload name.
    pub workload: String,
    /// Scheme name (see [`scheme_names`]); `compare` ignores it.
    pub scheme: String,
    /// Instructions per core.
    pub instructions: u64,
    /// System configuration after applying the sweep flags.
    pub cfg: SystemConfig,
    /// Cell mapping override (`--mapping NE|VIM|BIM`).
    pub mapping: Option<CellMapping>,
    /// Write cancellation / pausing / truncation flags.
    pub wc: bool,
    /// Write pausing.
    pub wp: bool,
    /// Write truncation ECC budget.
    pub wt: Option<u32>,
    /// Run the opt-in token-conservation auditor (`--audit-ledger`).
    pub audit_ledger: bool,
    /// Worker threads for warm-up and sweep/compare fan-out (`--jobs`;
    /// `None` = use the machine's available parallelism).
    pub jobs: Option<usize>,
}

impl Default for RunArgs {
    fn default() -> Self {
        RunArgs {
            workload: "mcf_m".into(),
            scheme: "fpb".into(),
            instructions: 200_000,
            cfg: SystemConfig::default(),
            mapping: None,
            wc: false,
            wp: false,
            wt: None,
            audit_ledger: false,
            jobs: None,
        }
    }
}

/// Resolves an optional `--jobs` value: explicit wins, otherwise the
/// machine's available parallelism.
pub fn effective_jobs(jobs: Option<usize>) -> usize {
    jobs.unwrap_or_else(fpb_sim::default_jobs).max(1)
}

/// Error from parsing or resolving arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// The canonical scheme names `--scheme` accepts, straight from the
/// [`SchemeRegistry`] (any registry spec string also works, e.g.
/// `fpb+wc+wt8` or `gcp:vim:0.5`).
pub fn scheme_names() -> Vec<&'static str> {
    SchemeRegistry::standard().names()
}

/// Builds the scheme named by the registry spec `name`, folding the
/// run's modifier flags (`--mapping`, `--wc`, `--wp`, `--wt`) into the
/// spec before the registry resolves it.
///
/// # Errors
///
/// Returns [`CliError`] for an unknown or malformed spec, or a modifier
/// that does not apply (e.g. `+reg` without a GCP).
pub fn build_scheme(name: &str, args: &RunArgs) -> Result<SchemeSetup, CliError> {
    let spec = folded_spec(name, args)?;
    SchemeRegistry::standard()
        .build_spec(&spec, &args.cfg)
        .map_err(|e| CliError(format!("{e}")))
}

/// Renders the registry spec for `name` with the run's modifier flags
/// folded in — the canonical string handed to drivers that resolve
/// specs themselves (the sweep driver). Building it here also validates
/// the composition before any simulation work starts.
///
/// # Errors
///
/// See [`build_scheme`].
pub fn scheme_spec(name: &str, args: &RunArgs) -> Result<String, CliError> {
    let spec = folded_spec(name, args)?;
    SchemeRegistry::standard()
        .build_spec(&spec, &args.cfg)
        .map_err(|e| CliError(format!("{e}")))?;
    Ok(spec.render())
}

/// Parses `name` and folds the `--mapping`/`--wc`/`--wp`/`--wt` flags
/// into the spec.
fn folded_spec(name: &str, args: &RunArgs) -> Result<SchemeSpec, CliError> {
    let mut spec: SchemeSpec = name.parse().map_err(|e| CliError(format!("{e}")))?;
    if let Some(m) = args.mapping {
        // A GCP base takes its mapping as an argument (it shapes the
        // label); for every other base the flag is a plain override.
        match &mut spec.base {
            SchemeBase::Gcp { mapping, .. } if mapping.is_none() => *mapping = Some(m),
            _ => spec.mods.push(Modifier::Mapping(m)),
        }
    }
    if args.wc {
        spec.mods.push(Modifier::Wc);
    }
    if args.wp {
        spec.mods.push(Modifier::Wp);
    }
    if let Some(ecc) = args.wt {
        spec.mods.push(Modifier::Wt(ecc));
    }
    Ok(spec)
}

/// Parses a full argument vector (excluding `argv[0]`).
///
/// # Errors
///
/// Returns [`CliError`] describing the offending flag or value.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter();
    let sub = match it.next() {
        None => return Ok(Command::Help),
        Some(s) => s.as_str(),
    };
    match sub {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "list" => Ok(Command::List),
        "run" | "compare" | "sweep" => {
            let mut ra = RunArgs::default();
            let mut axes = Vec::new();
            let mut csv = None;
            let mut control = SweepControl::default();
            while let Some(flag) = it.next() {
                let mut value = |name: &str| -> Result<String, CliError> {
                    it.next()
                        .cloned()
                        .ok_or_else(|| CliError(format!("{name} needs a value")))
                };
                if apply_run_flag(&mut ra, flag.as_str(), &mut value)? {
                    continue;
                }
                match flag.as_str() {
                    "--axis" if sub == "sweep" => {
                        let spec = value("--axis")?;
                        let (name, vals) = spec
                            .split_once('=')
                            .ok_or_else(|| CliError("--axis expects name=v1,v2,...".into()))?;
                        axes.push((name.to_string(), vals.to_string()));
                    }
                    "--csv" if sub == "sweep" => csv = Some(value("--csv")?),
                    "--journal" if sub == "sweep" => control.journal = Some(value("--journal")?),
                    "--resume" if sub == "sweep" => control.resume = Some(value("--resume")?),
                    "--json-out" if sub == "sweep" => control.json_out = Some(value("--json-out")?),
                    "--deadline-ms" if sub == "sweep" => {
                        let ms = parse_num(&value("--deadline-ms")?, "--deadline-ms")?;
                        control.deadline_ms = (ms > 0).then_some(ms);
                    }
                    "--inject-panic" if sub == "sweep" => {
                        control.inject_panic =
                            Some(parse_num(&value("--inject-panic")?, "--inject-panic")? as usize)
                    }
                    "--cancel-after" if sub == "sweep" => {
                        control.cancel_after =
                            Some(parse_num(&value("--cancel-after")?, "--cancel-after")? as usize)
                    }
                    "--no-result-cache" if sub == "sweep" => control.no_result_cache = true,
                    "--result-cache" if sub == "sweep" => {
                        control.result_cache = Some(value("--result-cache")?)
                    }
                    other => return Err(CliError(format!("unknown flag `{other}`"))),
                }
            }
            ra.cfg
                .validate()
                .map_err(|e| CliError(format!("invalid configuration: {e}")))?;
            match sub {
                "run" => Ok(Command::Run(ra)),
                "compare" => Ok(Command::Compare(ra)),
                _ => {
                    if axes.is_empty() {
                        return Err(CliError("sweep requires at least one --axis".into()));
                    }
                    if control.journal.is_some() && control.resume.is_some() {
                        return Err(CliError(
                            "--journal starts a fresh journal and --resume continues one; \
                             pass exactly one of them"
                                .into(),
                        ));
                    }
                    if control.no_result_cache && control.result_cache.is_some() {
                        return Err(CliError(
                            "--no-result-cache disables result reuse; it cannot be \
                             combined with --result-cache"
                                .into(),
                        ));
                    }
                    Ok(Command::Sweep {
                        args: ra,
                        axes,
                        csv,
                        control,
                    })
                }
            }
        }
        "inspect" => {
            let mut it = it.peekable();
            let mut ia = InspectArgs::default();
            let verb = match it.peek() {
                Some(v) if !v.starts_with("--") => {
                    let v = it.next().map(String::as_str).unwrap_or_default();
                    Some(match v {
                        "record" => InspectVerb::Record,
                        "replay" => InspectVerb::Replay,
                        "break" => InspectVerb::Break,
                        "lineage" => InspectVerb::Lineage,
                        "stalls" => InspectVerb::Stalls,
                        other => {
                            return Err(CliError(format!(
                                "unknown inspect verb `{other}` (expected record, replay, \
                                 break, lineage, stalls)"
                            )))
                        }
                    })
                }
                _ => None,
            };
            while let Some(flag) = it.next() {
                let mut value = |name: &str| -> Result<String, CliError> {
                    it.next()
                        .cloned()
                        .ok_or_else(|| CliError(format!("{name} needs a value")))
                };
                if apply_run_flag(&mut ia.run, flag.as_str(), &mut value)? {
                    continue;
                }
                match flag.as_str() {
                    "--log" => ia.log = Some(value("--log")?),
                    "--break" => ia.break_expr = Some(value("--break")?),
                    "--metrics-out" => ia.metrics_out = Some(value("--metrics-out")?),
                    "--json" => ia.json = true,
                    "--require-complete" => ia.require_complete = true,
                    "--write" => ia.write = Some(parse_num(&value("--write")?, "--write")?),
                    "--top" => ia.top = parse_num(&value("--top")?, "--top")? as usize,
                    other => return Err(CliError(format!("unknown flag `{other}`"))),
                }
            }
            // A verbless `fpb inspect --break EXPR` means break; any
            // other verbless invocation replays.
            ia.verb = verb.unwrap_or(if ia.break_expr.is_some() {
                InspectVerb::Break
            } else {
                InspectVerb::Replay
            });
            match ia.verb {
                InspectVerb::Record if ia.log.is_none() => {
                    return Err(CliError("inspect record requires --log <out-file>".into()))
                }
                InspectVerb::Replay | InspectVerb::Stalls if ia.log.is_none() => {
                    return Err(CliError(format!(
                        "inspect {} requires --log <file>",
                        if ia.verb == InspectVerb::Replay {
                            "replay"
                        } else {
                            "stalls"
                        }
                    )))
                }
                InspectVerb::Break if ia.break_expr.is_none() => {
                    return Err(CliError("inspect break requires --break <expr>".into()))
                }
                InspectVerb::Lineage if ia.log.is_none() || ia.write.is_none() => {
                    return Err(CliError(
                        "inspect lineage requires --log <file> and --write <id>".into(),
                    ))
                }
                _ => {}
            }
            ia.run
                .cfg
                .validate()
                .map_err(|e| CliError(format!("invalid configuration: {e}")))?;
            Ok(Command::Inspect(ia))
        }
        other => Err(CliError(format!(
            "unknown subcommand `{other}` (try `fpb help`)"
        ))),
    }
}

/// Applies one of the run/fault/modifier flags shared by `run`,
/// `compare`, `sweep`, and `inspect` to `ra`. Returns `Ok(false)` when
/// the flag is not one of the shared set (the caller handles it).
fn apply_run_flag<F>(ra: &mut RunArgs, flag: &str, value: &mut F) -> Result<bool, CliError>
where
    F: FnMut(&str) -> Result<String, CliError>,
{
    match flag {
        "--workload" => ra.workload = value("--workload")?,
        "--scheme" => ra.scheme = value("--scheme")?,
        "--instructions" => {
            ra.instructions = parse_num(&value("--instructions")?, "--instructions")?;
            if ra.instructions == 0 {
                return Err(CliError("--instructions must be at least 1".into()));
            }
        }
        "--line-bytes" => {
            let b = parse_u32(&value("--line-bytes")?, "--line-bytes")?;
            ra.cfg = ra.cfg.clone().with_line_bytes(b);
        }
        "--llc-mib" => {
            let m = parse_u32(&value("--llc-mib")?, "--llc-mib")?;
            ra.cfg = ra.cfg.clone().with_llc_mib(m);
        }
        "--wrq" => {
            let w = parse_num(&value("--wrq")?, "--wrq")? as usize;
            ra.cfg = ra.cfg.clone().with_write_queue(w);
        }
        "--pt-dimm" => {
            let p = parse_num(&value("--pt-dimm")?, "--pt-dimm")?;
            ra.cfg = ra.cfg.clone().with_pt_dimm(p);
        }
        "--e-gcp" => {
            let e: f64 = value("--e-gcp")?
                .parse()
                .map_err(|_| CliError("--e-gcp must be a float".into()))?;
            ra.cfg = ra.cfg.clone().with_gcp_efficiency(e);
        }
        "--seed" => {
            let s = parse_num(&value("--seed")?, "--seed")?;
            ra.cfg = ra.cfg.clone().with_seed(s);
        }
        "--mapping" => {
            let m = value("--mapping")?;
            ra.mapping = Some(m.parse().map_err(|e| CliError(format!("--mapping: {e}")))?);
        }
        "--wc" => ra.wc = true,
        "--wp" => ra.wp = true,
        "--wt" => ra.wt = Some(parse_u32(&value("--wt")?, "--wt")?),
        "--fault-verify-rate" => {
            ra.cfg.faults.verify_fail_prob =
                parse_float(&value("--fault-verify-rate")?, "--fault-verify-rate")?
        }
        "--fault-stuck-rate" => {
            ra.cfg.faults.stuck_cell_prob =
                parse_float(&value("--fault-stuck-rate")?, "--fault-stuck-rate")?
        }
        "--fault-stuck-threshold" => {
            ra.cfg.faults.stuck_wear_threshold = parse_num(
                &value("--fault-stuck-threshold")?,
                "--fault-stuck-threshold",
            )?
        }
        "--fault-brownout-period" => {
            ra.cfg.faults.brownout_period = parse_num(
                &value("--fault-brownout-period")?,
                "--fault-brownout-period",
            )?
        }
        "--fault-brownout-duration" => {
            ra.cfg.faults.brownout_duration = parse_num(
                &value("--fault-brownout-duration")?,
                "--fault-brownout-duration",
            )?
        }
        "--fault-brownout-scale" => {
            ra.cfg.faults.brownout_budget_scale =
                parse_float(&value("--fault-brownout-scale")?, "--fault-brownout-scale")?
        }
        "--fault-max-retries" => {
            let n = parse_num(&value("--fault-max-retries")?, "--fault-max-retries")?;
            ra.cfg.faults.max_retries = u8::try_from(n)
                .map_err(|_| CliError(format!("--fault-max-retries must fit in u8, got `{n}`")))?;
        }
        "--fault-backoff" => {
            ra.cfg.faults.retry_backoff_cycles =
                parse_num(&value("--fault-backoff")?, "--fault-backoff")?
        }
        "--fault-watchdog" => {
            ra.cfg.faults.watchdog_iterations =
                parse_u32(&value("--fault-watchdog")?, "--fault-watchdog")?
        }
        "--fault-degraded-after" => {
            ra.cfg.faults.degraded_after_cycles =
                parse_num(&value("--fault-degraded-after")?, "--fault-degraded-after")?
        }
        "--audit-ledger" => ra.audit_ledger = true,
        "--jobs" => ra.jobs = Some(parse_jobs(&value("--jobs")?)?),
        _ => return Ok(false),
    }
    Ok(true)
}

fn parse_num(s: &str, flag: &str) -> Result<u64, CliError> {
    s.replace('_', "")
        .parse()
        .map_err(|_| CliError(format!("{flag} must be an integer, got `{s}`")))
}

fn parse_u32(s: &str, flag: &str) -> Result<u32, CliError> {
    let n = parse_num(s, flag)?;
    u32::try_from(n).map_err(|_| CliError(format!("{flag} must fit in u32, got `{s}`")))
}

fn parse_float(s: &str, flag: &str) -> Result<f64, CliError> {
    s.parse()
        .map_err(|_| CliError(format!("{flag} must be a number, got `{s}`")))
}

fn parse_jobs(s: &str) -> Result<usize, CliError> {
    let n = parse_num(s, "--jobs")? as usize;
    if n == 0 {
        return Err(CliError("--jobs must be at least 1".into()));
    }
    Ok(n)
}

/// Simulation options derived from parsed args.
pub fn sim_options(args: &RunArgs) -> SimOptions {
    let mut opts = SimOptions::with_instructions(args.instructions);
    opts.audit_ledger = args.audit_ledger;
    opts
}

/// Builds a [`fpb_sim::sweep::Axis`] from a CLI `name=v1,v2` spec.
///
/// # Errors
///
/// Returns [`CliError`] for unknown axis names or unparsable values.
pub fn build_axis(name: &str, values: &str) -> Result<fpb_sim::sweep::Axis, CliError> {
    use fpb_sim::sweep::Axis;
    fn nums<T: std::str::FromStr>(values: &str, what: &str) -> Result<Vec<T>, CliError> {
        values
            .split(',')
            .map(|v| {
                v.trim()
                    .parse::<T>()
                    .map_err(|_| CliError(format!("bad {what} value `{v}`")))
            })
            .collect()
    }
    match name {
        "line-bytes" => Ok(Axis::line_bytes(&nums::<u32>(values, "line-bytes")?)),
        "llc-mib" => Ok(Axis::llc_mib(&nums::<u32>(values, "llc-mib")?)),
        "pt-dimm" => Ok(Axis::pt_dimm(&nums::<u64>(values, "pt-dimm")?)),
        "e-gcp" => Ok(Axis::e_gcp(&nums::<f64>(values, "e-gcp")?)),
        other => Err(CliError(format!(
            "unknown axis `{other}` (expected line-bytes, llc-mib, pt-dimm, e-gcp)"
        ))),
    }
}

/// The `fpb help` text.
pub const USAGE: &str = "\
fpb — fine-grained power budgeting for MLC PCM (MICRO 2012 reproduction)

USAGE:
  fpb run     --workload <name> --scheme <spec> [options]
  fpb compare --workload <name> [options]
  fpb sweep   --workload <name> --axis <name=v1,v2,..> [--axis ..] [--csv out.csv]
              [--journal <file> | --resume <file>] [--json-out <file>]
              [--deadline-ms <n>] [--cancel-after <n>] [options]
  fpb list
  fpb inspect record  --log <file.fpbi> [run options]
  fpb inspect replay  --log <file.fpbi> [--metrics-out <file>] [--json]
              [--require-complete]
  fpb inspect break   --break <expr> [--log <file.fpbi> | run options]
  fpb inspect lineage --log <file.fpbi> --write <id>
  fpb inspect stalls  --log <file.fpbi> [--top <n>]

SCHEMES: --scheme takes a registry spec: BASE[:ARG...][+MOD...], e.g.
  fpb, dimm-chip, gcp:vim:0.5, fpb+wc+wp+wt8, 2xlocal. Run
  `fpb run --scheme help` for the full grammar and scheme list.

SWEEP AXES: line-bytes, llc-mib, pt-dimm, e-gcp (--scheme vs DIMM+chip
  per point)

PARALLELISM:
  --jobs <n>           worker threads for warm-up, sweep points and compare
                       schemes [machine parallelism]; results are bit-for-
                       bit identical to --jobs 1, in the same order

INSPECT (time-travel debugging): `record` runs a workload with the
  lifecycle event recorder on and writes a checksummed fpbi1 event log;
  recording is a pure observer — the run's metrics are bit-identical
  with it on or off. `replay` re-derives the full metrics block and
  bank-activity timeline from the log alone (byte-identical to the live
  run; CI gates on it). `break` halts at the first event matching an
  expression: degraded, brownout, verify-fail, cancelled, watchdog,
  truncated, stage:<name>, write:<id>, or token-stalled><cycles> —
  verbless `fpb inspect --break <expr> [run options]` records in memory
  and scans in one step, exiting nonzero if the breakpoint never fires.
  `lineage` prints one write's complete event trace; `stalls` attributes
  every cycle writes spent waiting (tokens, pauses, backoff, draining).
  A torn log replays its valid prefix by default; --require-complete
  makes truncation an error.

SWEEP SUPERVISION: every sweep point runs supervised — a panicking point
  is quarantined (reported with its panic message) without aborting the
  rest of the grid, and the run exits with code 3 when any point was
  quarantined or the sweep was cancelled. A panicking point is not
  retried: the simulator is deterministic, so it would panic again.
  --deadline-ms <n>    per-point wall-clock deadline; an overdue point is
                       marked timed-out and the grid continues [0 = off]
  --journal <file>     append each finished point to a durable, fsync'd,
                       checksummed journal (refuses to clobber)
  --resume <file>      skip points already in the journal and finish the
                       rest; the final JSON and --csv are byte-identical
                       to an uninterrupted run
  --json-out <file>    write the full fpb-sweep/v1 JSON document
  --cancel-after <n>   stop admitting new points after n completions (the
                       deterministic stand-in for Ctrl-C in tests/CI)
  --inject-panic <i>   test hook: every run of grid point i panics; an
                       index outside the grid is an error

SWEEP RESULT REUSE: grid points whose differing knobs cannot reach the
  simulation (the scheme declares which config inputs it reads) share one
  simulation, and finished results persist across invocations in a cache
  keyed by effective config + code version. Reuse never changes output:
  spliced results are byte-identical to fresh simulation, and the journal
  always outranks the cache on --resume.
  --result-cache <f>   persistent point-result cache file
                       [target/fpb-sweep-cache.v1]
  --no-result-cache    disable result reuse (semantic dedup and the
                       persistent cache); every point simulates fresh

OPTIONS (run/compare):
  --instructions <n>   instructions per core        [200000]
  --line-bytes <n>     PCM/LLC line size            [256]
  --llc-mib <n>        LLC capacity per core, MiB   [32]
  --wrq <n>            write-queue entries          [24]
  --pt-dimm <n>        DIMM power tokens            [560]
  --e-gcp <f>          GCP efficiency               [0.7]
  --mapping <NE|VIM|BIM>  cell-to-chip mapping
  --seed <n>           RNG seed
  --wc / --wp / --wt <ecc>  write cancellation / pausing / truncation

FAULT INJECTION (run/compare; all off by default):
  --fault-verify-rate <f>        P(round fails verify)          [0]
  --fault-stuck-rate <f>         P(worn line sticks per write)  [0]
  --fault-stuck-threshold <n>    region wear before sticking    [0]
  --fault-brownout-period <n>    cycles between brownouts       [0 = off]
  --fault-brownout-duration <n>  brownout window length         [0]
  --fault-brownout-scale <f>     budget fraction kept in window [0.5]
  --fault-max-retries <n>        retries before remap + SLC     [3]
  --fault-backoff <n>            base retry backoff, cycles     [1000]
  --fault-watchdog <n>           per-round iteration cap        [256]
  --fault-degraded-after <n>     browned-out cycles before SLC  [0 = never]
  --audit-ledger                 check token conservation after every
                                 grant/release (reports violations)

EXIT STATUS:
  0  success
  1  an error (named on stderr) or a bad argument
  3  a sweep finished but left quarantined or skipped points
  A closed stdout (`fpb list | head -1`) changes none of these: the rest
  of the output is dropped, and files the command writes are written.
";

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&v(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse(&v(&["--help"])).unwrap(), Command::Help);
        assert_eq!(parse(&v(&["list"])).unwrap(), Command::List);
    }

    #[test]
    fn run_with_options() {
        let cmd = parse(&v(&[
            "run",
            "--workload",
            "lbm_m",
            "--scheme",
            "gcp-ipm",
            "--instructions",
            "50_000",
            "--line-bytes",
            "128",
            "--pt-dimm",
            "466",
            "--mapping",
            "vim",
            "--wc",
            "--wt",
            "8",
        ]))
        .unwrap();
        let Command::Run(ra) = cmd else {
            panic!("expected Run")
        };
        assert_eq!(ra.workload, "lbm_m");
        assert_eq!(ra.scheme, "gcp-ipm");
        assert_eq!(ra.instructions, 50_000);
        assert_eq!(ra.cfg.pcm.line_bytes, 128);
        assert_eq!(ra.cfg.power.pt_dimm, 466);
        assert_eq!(ra.mapping, Some(CellMapping::Vim));
        assert!(ra.wc && !ra.wp);
        assert_eq!(ra.wt, Some(8));
    }

    #[test]
    fn rejects_unknowns_and_bad_values() {
        assert!(parse(&v(&["frobnicate"])).is_err());
        // Retired subcommands are unknown like any other word.
        for retired in ["record", "lint"] {
            let err = parse(&v(&[retired, "--format", "json"])).unwrap_err();
            assert!(
                err.0.contains(&format!("unknown subcommand `{retired}`")),
                "{err}"
            );
        }
        assert!(parse(&v(&["run", "--bogus"])).is_err());
        // No flag hides the sweep's reuse line.
        let err = parse(&v(&["run", "--quiet"])).unwrap_err();
        assert!(err.0.contains("unknown flag `--quiet`"), "{err}");
        assert!(parse(&v(&["run", "--instructions", "many"])).is_err());
        for (flag, value) in [
            ("--instructions", "0"),
            ("--line-bytes", "4294967552"),
            ("--llc-mib", "4294967328"),
            ("--wt", "4294967304"),
        ] {
            let err = parse(&v(&["run", flag, value])).unwrap_err();
            assert!(err.0.contains(flag), "{flag} {value}: {}", err.0);
        }
        assert!(parse(&v(&["run", "--instructions"])).is_err());
        assert!(
            parse(&v(&["run", "--line-bytes", "100"])).is_err(),
            "invalid config"
        );
    }

    #[test]
    fn fault_flags_parse_into_config() {
        let cmd = parse(&v(&[
            "run",
            "--fault-verify-rate",
            "0.25",
            "--fault-stuck-rate",
            "0.01",
            "--fault-stuck-threshold",
            "50_000",
            "--fault-brownout-period",
            "100000",
            "--fault-brownout-duration",
            "20000",
            "--fault-brownout-scale",
            "0.4",
            "--fault-max-retries",
            "5",
            "--fault-backoff",
            "250",
            "--fault-watchdog",
            "64",
            "--fault-degraded-after",
            "5000",
            "--audit-ledger",
        ]))
        .unwrap();
        let Command::Run(ra) = cmd else {
            panic!("expected Run")
        };
        let f = &ra.cfg.faults;
        assert_eq!(f.verify_fail_prob, 0.25);
        assert_eq!(f.stuck_cell_prob, 0.01);
        assert_eq!(f.stuck_wear_threshold, 50_000);
        assert_eq!(f.brownout_period, 100_000);
        assert_eq!(f.brownout_duration, 20_000);
        assert_eq!(f.brownout_budget_scale, 0.4);
        assert_eq!(f.max_retries, 5);
        assert_eq!(f.retry_backoff_cycles, 250);
        assert_eq!(f.watchdog_iterations, 64);
        assert_eq!(f.degraded_after_cycles, 5000);
        assert!(ra.audit_ledger);
        assert!(sim_options(&ra).audit_ledger);
    }

    #[test]
    fn bad_fault_values_name_the_flag_or_field() {
        let e = parse(&v(&["run", "--fault-verify-rate", "lots"])).unwrap_err();
        assert!(e.0.contains("--fault-verify-rate"), "{e}");
        let e = parse(&v(&["run", "--fault-max-retries", "300"])).unwrap_err();
        assert!(e.0.contains("--fault-max-retries"), "{e}");
        // A parseable but invalid value is caught by config validation,
        // which names the offending config field.
        let e = parse(&v(&["run", "--fault-verify-rate", "1.5"])).unwrap_err();
        assert!(e.0.contains("faults.verify_fail_prob"), "{e}");
        // Brownout duration must fit inside the period.
        let e = parse(&v(&[
            "run",
            "--fault-brownout-period",
            "100",
            "--fault-brownout-duration",
            "200",
        ]))
        .unwrap_err();
        assert!(e.0.contains("faults.brownout_duration"), "{e}");
    }

    #[test]
    fn sweep_parses_axes_and_csv() {
        let cmd = parse(&v(&[
            "sweep",
            "--workload",
            "lbm_m",
            "--axis",
            "pt-dimm=466,560",
            "--axis",
            "e-gcp=0.7,0.5",
            "--csv",
            "/tmp/out.csv",
        ]))
        .unwrap();
        let Command::Sweep {
            args,
            axes,
            csv,
            control,
        } = cmd
        else {
            panic!("expected Sweep")
        };
        assert_eq!(args.workload, "lbm_m");
        assert_eq!(axes.len(), 2);
        assert_eq!(axes[0], ("pt-dimm".into(), "466,560".into()));
        assert_eq!(csv.as_deref(), Some("/tmp/out.csv"));
        assert_eq!(control, SweepControl::default());
        // Axes resolve.
        for (n, vs) in &axes {
            assert!(build_axis(n, vs).is_ok());
        }
        assert!(build_axis("warp", "1").is_err());
        assert!(build_axis("pt-dimm", "many").is_err());
    }

    #[test]
    fn jobs_flag_parses_and_rejects_zero() {
        let cmd = parse(&v(&[
            "sweep",
            "--workload",
            "lbm_m",
            "--axis",
            "pt-dimm=466,560",
            "--jobs",
            "4",
        ]))
        .unwrap();
        let Command::Sweep { args, .. } = cmd else {
            panic!("expected Sweep")
        };
        assert_eq!(args.jobs, Some(4));
        assert_eq!(effective_jobs(args.jobs), 4);
        assert!(effective_jobs(None) >= 1);
        assert!(parse(&v(&["sweep", "--axis", "pt-dimm=1", "--jobs", "0"])).is_err());
        let Command::Compare(ra) = parse(&v(&["compare", "--jobs", "2"])).unwrap() else {
            panic!("expected Compare")
        };
        assert_eq!(ra.jobs, Some(2));
    }

    #[test]
    fn sweep_requires_axes() {
        assert!(parse(&v(&["sweep", "--workload", "lbm_m"])).is_err());
        assert!(parse(&v(&["sweep", "--axis", "nope"])).is_err());
    }

    #[test]
    fn sweep_supervision_flags_parse() {
        let cmd = parse(&v(&[
            "sweep",
            "--axis",
            "pt-dimm=466,560",
            "--journal",
            "/tmp/run.fpbj",
            "--json-out",
            "/tmp/run.json",
            "--deadline-ms",
            "30000",
            "--cancel-after",
            "3",
            "--inject-panic",
            "1",
        ]))
        .unwrap();
        let Command::Sweep { control, .. } = cmd else {
            panic!("expected Sweep")
        };
        assert_eq!(control.journal.as_deref(), Some("/tmp/run.fpbj"));
        assert_eq!(control.resume, None);
        assert_eq!(control.json_out.as_deref(), Some("/tmp/run.json"));
        assert_eq!(control.deadline_ms, Some(30_000));
        assert_eq!(control.cancel_after, Some(3));
        assert_eq!(control.inject_panic, Some(1));
    }

    #[test]
    fn sweep_deadline_zero_means_off_and_inject_defaults_to_every_attempt() {
        let cmd = parse(&v(&[
            "sweep",
            "--axis",
            "pt-dimm=466",
            "--deadline-ms",
            "0",
            "--inject-panic",
            "2",
        ]))
        .unwrap();
        let Command::Sweep { control, .. } = cmd else {
            panic!("expected Sweep")
        };
        assert_eq!(control.deadline_ms, None);
        assert_eq!(control.inject_panic, Some(2));
    }

    #[test]
    fn sweep_result_cache_flags_parse() {
        let cmd = parse(&v(&[
            "sweep",
            "--axis",
            "pt-dimm=466,560",
            "--result-cache",
            "/tmp/cache.v1",
        ]))
        .unwrap();
        let Command::Sweep { control, .. } = cmd else {
            panic!("expected Sweep")
        };
        assert_eq!(control.result_cache.as_deref(), Some("/tmp/cache.v1"));
        assert!(!control.no_result_cache);

        let cmd = parse(&v(&["sweep", "--axis", "pt-dimm=466", "--no-result-cache"])).unwrap();
        let Command::Sweep { control, .. } = cmd else {
            panic!("expected Sweep")
        };
        assert!(control.no_result_cache);

        // Contradictory combination is rejected, and the flags belong to
        // sweep only.
        let e = parse(&v(&[
            "sweep",
            "--axis",
            "pt-dimm=466",
            "--no-result-cache",
            "--result-cache",
            "c.v1",
        ]))
        .unwrap_err();
        assert!(e.0.contains("--no-result-cache"), "{e}");
        assert!(parse(&v(&["run", "--no-result-cache"])).is_err());
        assert!(parse(&v(&["run", "--result-cache", "c.v1"])).is_err());
    }

    #[test]
    fn sweep_rejects_conflicting_journal_flags() {
        let base = ["sweep", "--axis", "pt-dimm=466"];
        let both: Vec<&str> = base
            .iter()
            .chain(&["--journal", "a.fpbj", "--resume", "b.fpbj"])
            .copied()
            .collect();
        let e = parse(&v(&both)).unwrap_err();
        assert!(e.0.contains("exactly one"), "{e}");
        // Restored points carry exact metrics, so --csv works on resume.
        let csv_resume: Vec<&str> = base
            .iter()
            .chain(&["--resume", "a.fpbj", "--csv", "out.csv"])
            .copied()
            .collect();
        let Ok(Command::Sweep { csv, control, .. }) = parse(&v(&csv_resume)) else {
            panic!("--csv with --resume must parse");
        };
        assert_eq!(csv.as_deref(), Some("out.csv"));
        assert_eq!(control.resume.as_deref(), Some("a.fpbj"));
        // The supervision flags belong to sweep only.
        assert!(parse(&v(&["run", "--resume", "a.fpbj"])).is_err());
        assert!(parse(&v(&["run", "--inject-panic", "1"])).is_err());
        // Sweeps do not retry a panicking point, so there are no retry
        // flags.
        assert!(parse(&v(&["sweep", "--axis", "pt-dimm=466", "--retries", "1"])).is_err());
        assert!(parse(&v(&[
            "sweep",
            "--axis",
            "pt-dimm=466",
            "--backoff-ms",
            "10"
        ]))
        .is_err());
        // Bad inject-panic specs name the flag; the old `:N` suffix is
        // no longer accepted.
        for bad in ["x", "1:2"] {
            let e = parse(&v(&[
                "sweep",
                "--axis",
                "pt-dimm=466",
                "--inject-panic",
                bad,
            ]))
            .unwrap_err();
            assert!(e.0.contains("--inject-panic"), "{e}");
        }
    }

    #[test]
    fn every_scheme_name_builds() {
        let ra = RunArgs::default();
        for name in scheme_names() {
            let s = build_scheme(name, &ra).unwrap_or_else(|e| panic!("{name}: {e}"));
            s.policy.validate().unwrap();
        }
        assert!(build_scheme("nope", &ra).is_err());
    }

    #[test]
    fn modifiers_compose() {
        let ra = RunArgs {
            wc: true,
            wp: true,
            wt: Some(8),
            mapping: Some(CellMapping::Naive),
            ..RunArgs::default()
        };
        let expected = SchemeSetup::fpb(&ra.cfg)
            .with_wc()
            .with_wp()
            .with_wt(8)
            .with_mapping(CellMapping::Naive);
        assert_eq!(build_scheme("fpb", &ra).unwrap(), expected);
    }

    #[test]
    fn spec_strings_pass_through_to_the_registry() {
        let ra = RunArgs::default();
        let s = build_scheme("fpb+wc+wt8", &ra).unwrap();
        assert_eq!(s.label, "FPB+WC+WT");
        let s = build_scheme("gcp:vim:0.5", &ra).unwrap();
        assert_eq!(s.mapping, CellMapping::Vim);
        assert!(
            build_scheme("dimm-chip+reg", &ra).is_err(),
            "+reg needs a GCP"
        );
    }

    #[test]
    fn mapping_flag_shapes_the_gcp_label() {
        // `--scheme gcp --mapping ne` must behave like `gcp:ne` (the
        // mapping folds into the base argument and shows in the label).
        let ra = RunArgs {
            mapping: Some(CellMapping::Naive),
            ..RunArgs::default()
        };
        let s = build_scheme("gcp", &ra).unwrap();
        assert_eq!(s.mapping, CellMapping::Naive);
        assert!(s.label.contains("NE"), "label `{}`", s.label);
        // An explicit base argument wins; the flag becomes an override.
        let s = build_scheme("gcp:vim", &ra).unwrap();
        assert_eq!(s.mapping, CellMapping::Naive);
    }

    #[test]
    fn inspect_verbs_parse() {
        let Command::Inspect(ia) = parse(&v(&[
            "inspect",
            "record",
            "--log",
            "a.fpbi",
            "--workload",
            "lbm_m",
            "--seed",
            "7",
        ]))
        .unwrap() else {
            panic!("expected Inspect")
        };
        assert_eq!(ia.verb, InspectVerb::Record);
        assert_eq!(ia.log.as_deref(), Some("a.fpbi"));
        assert_eq!(ia.run.workload, "lbm_m");
        assert_eq!(ia.run.cfg.seed, 7);

        let Command::Inspect(ia) = parse(&v(&[
            "inspect",
            "replay",
            "--log",
            "a.fpbi",
            "--metrics-out",
            "m.json",
            "--json",
            "--require-complete",
        ]))
        .unwrap() else {
            panic!("expected Inspect")
        };
        assert_eq!(ia.verb, InspectVerb::Replay);
        assert_eq!(ia.metrics_out.as_deref(), Some("m.json"));
        assert!(ia.json && ia.require_complete);

        let Command::Inspect(ia) = parse(&v(&[
            "inspect", "lineage", "--log", "a.fpbi", "--write", "42",
        ]))
        .unwrap() else {
            panic!("expected Inspect")
        };
        assert_eq!(ia.verb, InspectVerb::Lineage);
        assert_eq!(ia.write, Some(42));

        let Command::Inspect(ia) =
            parse(&v(&["inspect", "stalls", "--log", "a.fpbi", "--top", "9"])).unwrap()
        else {
            panic!("expected Inspect")
        };
        assert_eq!(ia.verb, InspectVerb::Stalls);
        assert_eq!(ia.top, 9);
    }

    #[test]
    fn verbless_inspect_with_break_means_break() {
        let Command::Inspect(ia) = parse(&v(&[
            "inspect",
            "--break",
            "degraded",
            "--fault-brownout-period",
            "20000",
            "--fault-brownout-duration",
            "12000",
            "--fault-degraded-after",
            "5000",
        ]))
        .unwrap() else {
            panic!("expected Inspect")
        };
        assert_eq!(ia.verb, InspectVerb::Break);
        assert_eq!(ia.break_expr.as_deref(), Some("degraded"));
        assert_eq!(ia.run.cfg.faults.degraded_after_cycles, 5000);
        // Verbless without --break means replay, which needs a log.
        assert!(parse(&v(&["inspect"])).is_err());
        let Command::Inspect(ia) = parse(&v(&["inspect", "--log", "a.fpbi"])).unwrap() else {
            panic!("expected Inspect")
        };
        assert_eq!(ia.verb, InspectVerb::Replay);
    }

    #[test]
    fn inspect_rejects_incomplete_and_unknown_forms() {
        assert!(parse(&v(&["inspect", "rewind"])).is_err(), "unknown verb");
        assert!(
            parse(&v(&["inspect", "record"])).is_err(),
            "record needs --log"
        );
        assert!(
            parse(&v(&["inspect", "replay"])).is_err(),
            "replay needs --log"
        );
        assert!(
            parse(&v(&["inspect", "break"])).is_err(),
            "break needs --break"
        );
        assert!(
            parse(&v(&["inspect", "lineage", "--log", "a.fpbi"])).is_err(),
            "lineage needs --write"
        );
        assert!(
            parse(&v(&["inspect", "stalls"])).is_err(),
            "stalls needs --log"
        );
        assert!(parse(&v(&["inspect", "--bogus"])).is_err());
        assert!(parse(&v(&["inspect", "replay", "--write", "nope"])).is_err());
    }
}
