//! `fpb-perf` command line. See `USAGE`.

#![forbid(unsafe_code)]

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use fpb_perf::bench::{self, Budget, RunOptions, Tracing};
use fpb_perf::compare;
use fpb_perf::json;
use fpb_perf::plan::Kind;

const USAGE: &str = "\
usage:
  fpb-perf run <workload> [--seed N] [--passes N | --seconds S] [--trace 0|1]
                          [--scale F] [--json-out FILE]
  fpb-perf --workload <workload> [same flags as run]
  fpb-perf all [--seed N] [--passes N | --seconds S] [--scale F] [--json-out FILE]
  fpb-perf compare A.json B.json [--bench BENCHMARK.json]

run      one workload in this process: an untimed pass, timed passes with
         tracing off (end-to-end metrics), then traced passes (per-layer
         metrics). --trace 0 runs only the timed passes, --trace 1 only the
         traced ones; without --trace both run. --passes N (default 5) runs
         N timed passes and one traced pass; --seconds S repeats passes
         until S seconds are measured. Prints a table, then one JSON result
         line. Exit 0 if every correctness gate passed, 2 if not.
all      every workload, each in its own process, one after another;
         prints the tables and writes (or prints) one results document.
compare  judges document B against A with BENCHMARK.json's bounds: one row
         per (workload, metric) reading better, worse, same or unresolved.
         Exit 1 if any metric is worse or any digest or count differs.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("fpb-perf: {e}");
            eprintln!("{USAGE}");
            ExitCode::from(1)
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some(flag) if flag.starts_with("--workload") => run(args),
        Some("all") => all(&args[1..]),
        Some("compare") => compare_cmd(&args[1..]),
        Some("help" | "-h" | "--help") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown command `{other}`")),
        None => Err("no command given".to_string()),
    }
}

/// Parsed `run` / `all` flags.
#[derive(Debug, Default)]
struct Flags {
    workload: Option<Kind>,
    seed: Option<u64>,
    passes: Option<usize>,
    seconds: Option<f64>,
    trace: Option<Tracing>,
    scale: Option<f64>,
    json_out: Option<PathBuf>,
}

fn parse_flags(args: &[String], positional_workload: bool) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let (name, inline) = match arg.split_once('=') {
            Some((n, v)) if n.starts_with("--") => (n, Some(v.to_string())),
            _ => (arg.as_str(), None),
        };
        if !name.starts_with("--") {
            let kind = Kind::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
            if !positional_workload || f.workload.replace(kind).is_some() {
                return Err(format!("unexpected argument `{name}`"));
            }
            continue;
        }
        let value = match inline {
            Some(v) => v,
            None => it
                .next()
                .ok_or_else(|| format!("{name} needs a value"))?
                .clone(),
        };
        let bad = |what: &str| format!("{name}: expected {what}, got `{value}`");
        match name {
            "--workload" if positional_workload => {
                f.workload = Some(Kind::parse(&value).ok_or_else(|| bad("a workload name"))?);
            }
            "--seed" => f.seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--passes" => {
                f.passes = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| bad("a positive integer"))?,
                );
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                f.seconds = Some(s);
            }
            "--trace" if positional_workload => {
                f.trace = Some(match value.as_str() {
                    "0" => Tracing::Off,
                    "1" => Tracing::On,
                    _ => return Err(bad("0 or 1")),
                });
            }
            "--scale" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0 && s <= 1.0) {
                    return Err(bad("a number in (0, 1]"));
                }
                f.scale = Some(s);
            }
            "--json-out" => f.json_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{name}`")),
        }
    }
    if f.passes.is_some() && f.seconds.is_some() {
        return Err("--passes and --seconds are mutually exclusive".to_string());
    }
    Ok(f)
}

impl Flags {
    fn options(&self, kind: Kind) -> RunOptions {
        RunOptions {
            kind,
            seed: self.seed.unwrap_or(fpb_types::SystemConfig::default().seed),
            budget: match (self.seconds, self.passes) {
                (Some(s), _) => Budget::Seconds(s),
                (None, n) => Budget::Passes(n.unwrap_or(5)),
            },
            tracing: self.trace.unwrap_or(Tracing::Both),
            scale: self.scale.unwrap_or(1.0),
        }
    }

    /// The flags that `all` forwards to each workload's process.
    fn forwarded(&self) -> Vec<String> {
        let mut v = Vec::new();
        if let Some(s) = self.seed {
            v.extend(["--seed".to_string(), s.to_string()]);
        }
        if let Some(n) = self.passes {
            v.extend(["--passes".to_string(), n.to_string()]);
        }
        if let Some(s) = self.seconds {
            v.extend(["--seconds".to_string(), s.to_string()]);
        }
        if let Some(s) = self.scale {
            v.extend(["--scale".to_string(), s.to_string()]);
        }
        v
    }
}

/// A private scratch directory beside the executable (inside the build
/// directory), unique to this process.
fn scratch_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate executable: {e}"))?;
    let dir = exe.parent().ok_or("executable has no directory")?;
    Ok(dir.join(format!("fpb-perf-scratch-{}", std::process::id())))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args, true)?;
    let kind = flags.workload.ok_or("no workload given")?;
    let scratch = scratch_dir()?;
    let result = bench::run_workload(&flags.options(kind), &scratch);
    let _ = fs::remove_dir_all(&scratch);
    let report = result?;
    print!("{}", bench::table(std::slice::from_ref(&report)));
    if let Some(path) = &flags.json_out {
        write_file(path, &bench::document(&[report.to_json()]))?;
    }
    println!("{}", report.result_line());
    Ok(if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn all(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args, false)?;
    let exe = std::env::current_exe().map_err(|e| format!("locate executable: {e}"))?;
    let scratch = scratch_dir()?;
    fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let mut entries = Vec::new();
    let mut all_correct = true;
    let outcome = (|| -> Result<(), String> {
        for kind in Kind::ALL {
            let out_path = scratch.join(format!("{}.json", kind.name()));
            let out = Command::new(&exe)
                .arg("run")
                .arg(kind.name())
                .args(flags.forwarded())
                .arg("--json-out")
                .arg(&out_path)
                .output()
                .map_err(|e| format!("start {}: {e}", kind.name()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            // Everything but the trailing result line is the table.
            let table: Vec<&str> = stdout.lines().collect();
            println!("{}", table[..table.len().saturating_sub(1)].join("\n"));
            match out.status.code() {
                Some(0) => {}
                Some(2) => all_correct = false,
                _ => {
                    return Err(format!(
                        "{} failed ({}): {}",
                        kind.name(),
                        out.status,
                        String::from_utf8_lossy(&out.stderr)
                    ))
                }
            }
            let text = fs::read_to_string(&out_path)
                .map_err(|e| format!("read {}: {e}", out_path.display()))?;
            let doc = json::parse(&text)?;
            let entry = doc
                .get("workloads")
                .and_then(json::Value::as_array)
                .and_then(<[json::Value]>::first)
                .ok_or("a workload document has no entry")?;
            entries.push(format!("    {}", json::render(entry)));
        }
        Ok(())
    })();
    let _ = fs::remove_dir_all(&scratch);
    outcome?;
    let doc = bench::document(&entries);
    match &flags.json_out {
        Some(path) => write_file(path, &doc)?,
        None => print!("{doc}"),
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut bench_path = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bench" {
            bench_path = PathBuf::from(it.next().ok_or("--bench needs a value")?);
        } else {
            files.push(PathBuf::from(a));
        }
    }
    let [a, b] = files.as_slice() else {
        return Err("compare needs exactly two result documents".to_string());
    };
    let load = |p: &Path| -> Result<json::Value, String> {
        let text = fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let cmp = compare::compare(&load(a)?, &load(b)?, &load(&bench_path)?)?;
    for row in &cmp.rows {
        println!("{row}");
    }
    println!("{} worse, {} mismatched", cmp.worse, cmp.mismatches);
    Ok(if cmp.worse == 0 && cmp.mismatches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
