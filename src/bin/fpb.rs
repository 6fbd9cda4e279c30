//! The `fpb` command-line simulator.
//!
//! ```sh
//! cargo run --release --bin fpb -- run --workload mcf_m --scheme fpb
//! cargo run --release --bin fpb -- compare --workload lbm_m
//! cargo run --release --bin fpb -- list
//! ```

use std::io::{self, Write};
use std::path::PathBuf;
use std::process::ExitCode;

use fpb::cli::{self, Command, RunArgs, SweepControl};
use fpb::sim::engine::{run_workload_warmed, warm_cores_jobs};
use fpb::sim::journal::JournalMode;
use fpb::sim::sweep::{run_sweep_supervised, ReuseOptions, SupervisedSweepRequest};
use fpb::sim::{CancelToken, EventSink, Metrics, SchemeSetup, SimOptions, SupervisePolicy, System};
use fpb::trace::{catalog, Workload};

/// Exit code when a sweep finished but left quarantined or skipped
/// points — distinct from plain failure (1) and CLI misuse (2-ish
/// parse errors also map to 1 here).
const EXIT_INCOMPLETE_SWEEP: u8 = 3;

/// Writes to stdout; everything `fpb` prints there goes through here. A
/// closed stdout (`fpb list | head -1`) is not an error: the rest of the
/// output is dropped, nothing is printed on stderr, and the command
/// carries on, so it still writes its files and exits with its own
/// status. Any other write error ends the process with status 1.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    if let Err(e) = io::stdout().write_fmt(args) {
        if e.kind() != io::ErrorKind::BrokenPipe {
            eprintln!("error: writing to stdout: {e}");
            std::process::exit(1);
        }
    }
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::parse(&args) {
        Ok(cmd) => match dispatch(cmd) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n\n{}", cli::USAGE);
            ExitCode::FAILURE
        }
    }
}

fn dispatch(cmd: Command) -> Result<ExitCode, String> {
    match cmd {
        Command::Help => {
            outln!("{}", cli::USAGE);
            Ok(ExitCode::SUCCESS)
        }
        Command::List => {
            outln!("workloads (Table 2):");
            for name in catalog::WORKLOADS {
                let wl = catalog::workload(name)
                    .ok_or_else(|| format!("catalog is missing its own workload `{name}`"))?;
                outln!(
                    "  {name:<8} RPKI {:>5.2}  WPKI {:>5.2}  ({})",
                    wl.table2_rpki,
                    wl.table2_wpki,
                    wl.per_core[0].name
                );
            }
            outln!("\nschemes: {}", cli::scheme_names().join(", "));
            Ok(ExitCode::SUCCESS)
        }
        Command::Run(ra) => {
            if ra.scheme == "help" {
                write_stdout(format_args!(
                    "{}",
                    fpb::sim::SchemeRegistry::standard().help()
                ));
                return Ok(ExitCode::SUCCESS);
            }
            let (wl, opts) = resolve(&ra)?;
            let setup = cli::build_scheme(&ra.scheme, &ra).map_err(|e| e.to_string())?;
            let cores = warm_cores_jobs(&wl, &ra.cfg, &opts, cli::effective_jobs(ra.jobs));
            let m = run_workload_warmed(&wl, &ra.cfg, &setup, &opts, &cores);
            print_header();
            print_metrics(&setup.label, &m, None);
            print_wear(&m);
            print_faults(&m);
            Ok(ExitCode::SUCCESS)
        }
        Command::Sweep {
            args,
            axes,
            csv,
            control,
        } => run_sweep(&args, &axes, csv.as_deref(), &control),
        Command::Compare(ra) => {
            let (wl, opts) = resolve(&ra)?;
            let jobs = cli::effective_jobs(ra.jobs);
            let cores = warm_cores_jobs(&wl, &ra.cfg, &opts, jobs);
            // Scheme runs share the warmed cores and are independent, so
            // they fan across workers. Every registered family runs, with
            // the paper's baseline (DIMM+chip) moved first — the first
            // scheme is the speedup baseline.
            let names = cli::scheme_names();
            let mut order: Vec<&str> = vec!["dimm-chip"];
            order.extend(names.iter().copied().filter(|n| *n != "dimm-chip"));
            let setups: Vec<_> = order
                .iter()
                .map(|name| cli::build_scheme(name, &ra))
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?;
            let results = fpb::sim::parallel_map_indexed(&setups, jobs, |_, setup| {
                run_workload_warmed(&wl, &ra.cfg, setup, &opts, &cores)
            });
            print_header();
            for (i, (setup, m)) in setups.iter().zip(&results).enumerate() {
                let baseline: Option<&Metrics> = if i == 0 { None } else { Some(&results[0]) };
                print_metrics(&setup.label, m, baseline);
            }
            Ok(ExitCode::SUCCESS)
        }
        Command::Inspect(ia) => run_inspect(&ia),
    }
}

/// Runs the `fpb inspect` verbs: record an event log, replay one back
/// into metrics/timeline, scan for a breakpoint, print a write's
/// lineage, or attribute stall time.
fn run_inspect(ia: &cli::InspectArgs) -> Result<ExitCode, String> {
    use cli::InspectVerb;
    use fpb::sim::inspect::{
        lineage_lines, read_event_log, Breakpoint, FileSink, LifecycleEvent, MemorySink,
        StallReport,
    };
    use fpb::sim::Timeline;

    // Verbs that read a log share one loader; the corrupt-tail policy
    // (replay the valid prefix) is the reader's, `--require-complete`
    // hardens it into an error.
    let load = |path: &str| -> Result<Vec<LifecycleEvent>, String> {
        let log = read_event_log(std::path::Path::new(path)).map_err(|e| e.to_string())?;
        if ia.require_complete && !log.complete {
            return Err(format!(
                "{path}: event log is incomplete ({} event(s) before the damage); \
                 re-record it or drop --require-complete to replay the valid prefix",
                log.events.len()
            ));
        }
        if !log.complete {
            eprintln!(
                "fpb inspect: {path} is truncated — replaying the {} valid event(s) \
                 ({} corrupt line(s) dropped)",
                log.events.len(),
                log.dropped_lines
            );
        } else {
            outln!(
                "log {path}: {} event(s), meta: {}",
                log.events.len(),
                log.meta
            );
        }
        Ok(log.events)
    };
    // Verbs that simulate share one recorded run.
    let record_in_memory = || -> Result<(Metrics, Vec<LifecycleEvent>), String> {
        let (wl, opts) = resolve(&ia.run)?;
        let setup = cli::build_scheme(&ia.run.scheme, &ia.run).map_err(|e| e.to_string())?;
        let (m, sink) = run_recorded(&ia.run, &wl, &opts, &setup, MemorySink::new())?;
        Ok((m, sink.into_events()))
    };

    match ia.verb {
        InspectVerb::Record => {
            let log = ia.log.as_deref().ok_or("inspect record requires --log")?;
            let (wl, opts) = resolve(&ia.run)?;
            let setup = cli::build_scheme(&ia.run.scheme, &ia.run).map_err(|e| e.to_string())?;
            let spec = cli::scheme_spec(&ia.run.scheme, &ia.run).map_err(|e| e.to_string())?;
            let meta = format!(
                "fpb-inspect workload={} spec={} instructions={} seed={}",
                ia.run.workload, spec, ia.run.instructions, ia.run.cfg.seed
            );
            let sink =
                FileSink::create(std::path::Path::new(log), &meta).map_err(|e| e.to_string())?;
            let (m, sink) = run_recorded(&ia.run, &wl, &opts, &setup, sink)?;
            let events = sink.finish().map_err(|e| e.to_string())?;
            outln!("recorded {events} event(s) to {log}");
            print_header();
            print_metrics(&setup.label, &m, None);
            print_wear(&m);
            print_faults(&m);
            Ok(ExitCode::SUCCESS)
        }
        InspectVerb::Replay => {
            let log = ia.log.as_deref().ok_or("inspect replay requires --log")?;
            let events = load(log)?;
            let timeline = Timeline::from_events(&events);
            let m = timeline.metrics();
            outln!(
                "replayed {} event(s) -> {} timeline sample(s); derived metrics:",
                events.len(),
                timeline.samples().len()
            );
            print_header();
            print_metrics("replayed", m, None);
            print_wear(m);
            print_faults(m);
            if ia.json {
                outln!("{}", m.to_json());
            }
            if let Some(path) = &ia.metrics_out {
                std::fs::write(path, m.to_json()).map_err(|e| format!("write {path}: {e}"))?;
                outln!("wrote {path}");
            }
            Ok(ExitCode::SUCCESS)
        }
        InspectVerb::Break => {
            let expr = ia
                .break_expr
                .as_deref()
                .ok_or("inspect break requires --break")?;
            let mut bp = Breakpoint::parse(expr)?;
            let events = match ia.log.as_deref() {
                Some(log) => load(log)?,
                None => {
                    let (_, events) = record_in_memory()?;
                    outln!(
                        "recorded {} event(s) from {} / {}",
                        events.len(),
                        ia.run.workload,
                        ia.run.scheme
                    );
                    events
                }
            };
            match bp.first_hit(&events) {
                Some(hit) => {
                    outln!("{hit}");
                    if let Some(id) = hit.event.write_id() {
                        for line in lineage_lines(&events, id) {
                            outln!("{line}");
                        }
                    }
                    Ok(ExitCode::SUCCESS)
                }
                None => Err(format!(
                    "breakpoint {expr:?} never fired ({} event(s) scanned)",
                    events.len()
                )),
            }
        }
        InspectVerb::Lineage => {
            let log = ia.log.as_deref().ok_or("inspect lineage requires --log")?;
            let id = ia.write.ok_or("inspect lineage requires --write")?;
            let events = load(log)?;
            for line in lineage_lines(&events, id) {
                outln!("{line}");
            }
            Ok(ExitCode::SUCCESS)
        }
        InspectVerb::Stalls => {
            let log = ia.log.as_deref().ok_or("inspect stalls requires --log")?;
            let events = load(log)?;
            write_stdout(format_args!(
                "{}",
                StallReport::analyze(&events).render(ia.top)
            ));
            Ok(ExitCode::SUCCESS)
        }
    }
}

/// Runs the supervised sweep driver: every point is panic-isolated, a
/// quarantined point does not abort the grid, and a journal makes the
/// run resumable with byte-identical final output.
fn run_sweep(
    args: &RunArgs,
    axes: &[(String, String)],
    csv: Option<&str>,
    control: &SweepControl,
) -> Result<ExitCode, String> {
    let (wl, opts) = resolve(args)?;
    let built: Vec<_> = axes
        .iter()
        .map(|(n, vs)| cli::build_axis(n, vs))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    // Fold the run flags into the spec and validate it up front so a bad
    // spec is a plain CLI error before any simulation work starts.
    let spec = cli::scheme_spec(&args.scheme, args).map_err(|e| e.to_string())?;
    let journal = match (&control.journal, &control.resume) {
        (Some(p), None) => Some(JournalMode::Fresh(PathBuf::from(p))),
        (None, Some(p)) => Some(JournalMode::Resume(PathBuf::from(p))),
        _ => None,
    };
    let reuse = if control.no_result_cache {
        ReuseOptions::disabled()
    } else {
        ReuseOptions {
            dedup: true,
            cache: Some(PathBuf::from(
                control
                    .result_cache
                    .as_deref()
                    .unwrap_or(fpb::sim::DEFAULT_CACHE_PATH),
            )),
        }
    };
    let run = run_sweep_supervised(SupervisedSweepRequest {
        workload: &wl,
        base_cfg: args.cfg.clone(),
        axes: &built,
        scheme: &spec,
        baseline: "dimm-chip",
        opts,
        policy: SupervisePolicy {
            jobs: cli::effective_jobs(args.jobs),
            deadline_ms: control.deadline_ms,
        },
        journal,
        cancel: CancelToken::new(),
        cancel_after: control.cancel_after,
        inject_panic: control.inject_panic,
        reuse,
    })
    .map_err(|e| e.to_string())?;
    if !control.no_result_cache && run.reuse.runs_total > 0 {
        eprintln!(
            "fpb sweep: result reuse {} run(s) -> {} unique ({:.2}x), \
             {} cache hit(s), {} simulated",
            run.reuse.runs_total,
            run.reuse.runs_unique,
            run.reuse.dedup_ratio(),
            run.reuse.cache_hits,
            run.reuse.simulated
        );
    }

    outln!(
        "{:<40} {:>9} {:>9} {:>9}  status",
        "point",
        "speedup",
        "CPI",
        "burst%"
    );
    for rec in &run.points {
        match rec.stats() {
            Some(s) => outln!(
                "{:<40} {:>9.3} {:>9.2} {:>8.1}%  {}",
                rec.label,
                s.speedup,
                s.cpi,
                s.burst_pct,
                rec.outcome.class()
            ),
            None => outln!(
                "{:<40} {:>9} {:>9} {:>9}  {}",
                rec.label,
                "-",
                "-",
                "-",
                rec.outcome.class()
            ),
        }
    }
    let summary = format!(
        "{} ok, {} panicked, {} timed out, {} skipped",
        run.count("ok"),
        run.count("panicked"),
        run.count("timed_out"),
        run.count("skipped")
    );
    outln!("\noutcomes: {summary}");
    if run.restored > 0 {
        outln!("restored {} points from the journal", run.restored);
    }
    if run.dropped_journal_lines > 0 {
        outln!(
            "dropped {} corrupt trailing journal lines (truncated on resume)",
            run.dropped_journal_lines
        );
    }
    for q in run.quarantined() {
        eprintln!("quarantined point {} ({}): {}", q.index, q.label, q.outcome);
    }

    if let Some(path) = &control.json_out {
        std::fs::write(path, run.to_json()).map_err(|e| format!("write {path}: {e}"))?;
        outln!("wrote {path}");
    }
    if let Some(path) = csv {
        let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        let mut w = std::io::BufWriter::new(file);
        fpb::sim::report::write_csv_header(&mut w).map_err(|e| e.to_string())?;
        let mut rows = 0usize;
        for rec in &run.points {
            if let fpb::sim::sweep::PointState::Done(p) = &rec.state {
                let label = p.label.replace(',', ";");
                fpb::sim::report::write_csv_row(&mut w, &label, &p.metrics)
                    .map_err(|e| e.to_string())?;
                rows += 1;
            }
        }
        outln!("wrote {rows} rows to {path}");
    }

    if run.cancelled || !run.quarantined().is_empty() {
        Ok(ExitCode::from(EXIT_INCOMPLETE_SWEEP))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

/// Runs `ra`'s workload with its lifecycle events recorded into `sink`,
/// as `run_workload_recorded` does, but warming on at most `--jobs`
/// threads. The parser has already validated the configuration.
fn run_recorded<E: EventSink>(
    ra: &RunArgs,
    wl: &Workload,
    opts: &SimOptions,
    setup: &SchemeSetup,
    sink: E,
) -> Result<(Metrics, E), String> {
    let cores = warm_cores_jobs(wl, &ra.cfg, opts, cli::effective_jobs(ra.jobs));
    let mut sys = System::with_cores_and_sink(wl, &ra.cfg, setup, opts, cores, sink);
    while sys.try_step().map_err(|e| e.to_string())? {}
    Ok(sys.finish_with_sink())
}

fn resolve(ra: &RunArgs) -> Result<(Workload, SimOptions), String> {
    let wl = catalog::workload(&ra.workload)
        .ok_or_else(|| format!("unknown workload `{}` (try `fpb list`)", ra.workload))?;
    Ok((wl, cli::sim_options(ra)))
}

fn print_header() {
    outln!(
        "{:<16} {:>8} {:>9} {:>9} {:>8} {:>10} {:>9}",
        "scheme",
        "CPI",
        "reads",
        "writes",
        "burst%",
        "rd-lat",
        "speedup"
    );
}

fn print_metrics(label: &str, m: &Metrics, baseline: Option<&Metrics>) {
    let speedup = baseline.map(|b| m.speedup_over(b)).unwrap_or(1.0);
    outln!(
        "{:<16} {:>8.2} {:>9} {:>9} {:>7.1}% {:>10.0} {:>9.3}",
        label,
        m.cpi(),
        m.pcm_reads,
        m.pcm_writes,
        m.burst_fraction() * 100.0,
        m.avg_read_latency(),
        speedup
    );
}

fn print_faults(m: &Metrics) {
    let f = &m.faults;
    if !f.any_activity() {
        return;
    }
    outln!(
        "\nfaults: {} verify failures, {} retries, {} stuck, {} remapped (SLC), {} watchdog trips",
        f.verify_failures,
        f.retries,
        f.stuck_lines_marked,
        f.remaps,
        f.watchdog_trips
    );
    outln!(
        "        {} brownout windows ({} cycles), {} degraded writes ({} cycles), {} audit violations",
        f.brownout_windows, f.brownout_cycles, f.degraded_writes, f.degraded_cycles, f.audit_violations
    );
}

fn print_wear(m: &Metrics) {
    if let Some(e) = &m.endurance {
        outln!(
            "\nwear: {} cells written, chip imbalance {:.3}, lifetime {:.1e}x this run",
            e.total_cells_written(),
            e.chip_imbalance(),
            e.lifetime_multiple()
        );
    }
}
