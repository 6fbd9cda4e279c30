//! End-to-end tests of the `fpb` binary (spawned as a real process).

use std::process::Command;

fn fpb() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fpb"))
}

#[test]
fn help_prints_usage() {
    let out = fpb().arg("help").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("--workload"));
}

#[test]
fn list_names_all_workloads_and_schemes() {
    let out = fpb().arg("list").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in fpb::trace::catalog::WORKLOADS {
        assert!(text.contains(name), "missing {name}");
    }
    assert!(text.contains("fpb") && text.contains("dimm-chip"));
}

#[test]
fn run_produces_metrics_table() {
    let out = fpb()
        .args([
            "run",
            "--workload",
            "cop_m",
            "--scheme",
            "fpb",
            "--instructions",
            "30000",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("CPI"));
    assert!(text.contains("FPB"));
    assert!(text.contains("wear:"), "wear summary expected: {text}");
}

#[test]
fn bad_arguments_fail_with_diagnostics() {
    let out = fpb()
        .args(["run", "--scheme", "warp-drive"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown scheme"), "stderr: {err}");

    let out = fpb()
        .args(["run", "--workload", "nope_m"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));

    let out = fpb().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));

    // An empty run has no CPI: rejected at parse time (exit 1), not a
    // panic in the metrics (exit 101).
    let out = fpb()
        .args(["run", "--instructions", "0"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--instructions"));
}

#[test]
fn llc_geometry_that_cannot_fill_a_set_is_a_config_error() {
    // 1 MiB of 256 KiB lines is half of one 8-way set: `validate` must
    // reject it (exit 1, naming the field) before warm-up builds the LLC.
    let out = fpb()
        .args([
            "run",
            "--workload",
            "mcf_m",
            "--scheme",
            "fpb",
            "--instructions",
            "1000",
            "--llc-mib",
            "1",
            "--line-bytes",
            "262144",
        ])
        .output()
        .expect("spawn");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {err}");
    assert!(err.contains("cache.l3_mib_per_core"), "stderr: {err}");

    let out = fpb()
        .args([
            "sweep",
            "--workload",
            "mcf_m",
            "--instructions",
            "1000",
            "--no-result-cache",
            "--axis",
            "llc-mib=1,2",
            "--axis",
            "line-bytes=262144",
        ])
        .output()
        .expect("spawn");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {err}");
    assert!(err.contains("cache.l3_mib_per_core"), "stderr: {err}");
}

const SWEEP_ARGS: [&str; 8] = [
    "sweep",
    "--workload",
    "cop_m",
    "--instructions",
    "3000",
    "--axis",
    "pt-dimm=466,560",
    "--jobs",
];

fn sweep_cmd(jobs: &str, extra: &[&str]) -> Command {
    let mut c = fpb();
    c.args(SWEEP_ARGS).arg(jobs).args(extra);
    c
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("fpb-cli-test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let p = dir.join(name);
    std::fs::remove_file(&p).ok();
    p
}

#[test]
fn injected_panic_quarantines_then_resume_restores_byte_identity() {
    let clean_json = tmp("cli_clean.json");
    let out = sweep_cmd("2", &["--json-out", clean_json.to_str().expect("utf8")])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Inject a deterministic panic at point 1: the grid still finishes,
    // the point is quarantined, and the exit code flags the incomplete run.
    let journal = tmp("cli_crash.fpbj");
    let crash_json = tmp("cli_crash.json");
    let out = sweep_cmd(
        "2",
        &[
            "--inject-panic",
            "1",
            "--journal",
            journal.to_str().expect("utf8"),
            "--json-out",
            crash_json.to_str().expect("utf8"),
        ],
    )
    .output()
    .expect("spawn");
    assert_eq!(out.status.code(), Some(3), "quarantine must exit 3");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("1 panicked"), "stdout: {text}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("quarantined point 1"), "stderr: {err}");
    assert!(err.contains("injected panic at point 1"), "stderr: {err}");
    let crash_doc = std::fs::read_to_string(&crash_json).expect("crash json");
    assert!(crash_doc.contains("\"class\": \"panicked\""), "{crash_doc}");

    // Resume without the injection: the healthy point is restored from
    // the journal, only the quarantined one reruns, and the final JSON
    // is byte-identical to the uninterrupted run's.
    let resumed_json = tmp("cli_resumed.json");
    let out = sweep_cmd(
        "2",
        &[
            "--resume",
            journal.to_str().expect("utf8"),
            "--json-out",
            resumed_json.to_str().expect("utf8"),
        ],
    )
    .output()
    .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("restored 1 points"), "stdout: {text}");
    let clean = std::fs::read(&clean_json).expect("clean json");
    let resumed = std::fs::read(&resumed_json).expect("resumed json");
    assert_eq!(clean, resumed, "resume must render byte-identical JSON");
    for p in [&clean_json, &journal, &crash_json, &resumed_json] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn resumed_sweep_writes_the_same_csv_as_an_uninterrupted_one() {
    let clean_csv = tmp("cli_csv_clean.csv");
    let out = sweep_cmd(
        "1",
        &[
            "--no-result-cache",
            "--csv",
            clean_csv.to_str().expect("utf8"),
        ],
    )
    .output()
    .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Journal one point, then cancel: the other point is left to resume.
    let journal = tmp("cli_csv.fpbj");
    let out = sweep_cmd(
        "1",
        &[
            "--no-result-cache",
            "--cancel-after",
            "1",
            "--journal",
            journal.to_str().expect("utf8"),
        ],
    )
    .output()
    .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(3),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The restored point carries its exact metrics, so its CSV row is
    // the one the uninterrupted run wrote.
    let resumed_csv = tmp("cli_csv_resumed.csv");
    let out = sweep_cmd(
        "1",
        &[
            "--no-result-cache",
            "--resume",
            journal.to_str().expect("utf8"),
            "--csv",
            resumed_csv.to_str().expect("utf8"),
        ],
    )
    .output()
    .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("restored 1 points"), "stdout: {text}");
    assert!(text.contains("wrote 2 rows"), "stdout: {text}");
    let clean = std::fs::read(&clean_csv).expect("clean csv");
    let resumed = std::fs::read(&resumed_csv).expect("resumed csv");
    assert_eq!(clean, resumed, "resume must write a byte-identical CSV");
    for p in [&clean_csv, &journal, &resumed_csv] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn out_of_range_inject_panic_is_an_error() {
    // A crash drill aimed at a missing point must fail, not pass as a
    // healthy run.
    let out = sweep_cmd("1", &["--no-result-cache", "--inject-panic", "7"])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(1),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("inject-panic point 7 is outside the 2-point grid"),
        "stderr: {err}"
    );
}

#[test]
fn killed_mid_sweep_then_resume_matches_a_clean_run() {
    use std::io::Read as _;
    use std::time::{Duration, Instant};

    let clean_json = tmp("cli_kill_clean.json");
    let out = sweep_cmd("1", &["--json-out", clean_json.to_str().expect("utf8")])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Start a journaled sweep with a longer run, wait until the journal
    // holds at least one durable record, then kill the process outright
    // (SIGKILL — no handler could run even if one existed).
    let journal = tmp("cli_kill.fpbj");
    let mut child = fpb()
        .args([
            "sweep",
            "--workload",
            "cop_m",
            "--instructions",
            "60000",
            "--axis",
            "pt-dimm=466,560",
            "--jobs",
            "1",
            // The kill must land mid-simulation; a warm result cache
            // could finish the whole grid before the signal arrives.
            "--no-result-cache",
            "--journal",
        ])
        .arg(&journal)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn journaled sweep");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let records = std::fs::read_to_string(&journal)
            .map(|s| s.lines().filter(|l| l.contains(" r ")).count())
            .unwrap_or(0);
        if records >= 1 {
            break;
        }
        if let Some(status) = child.try_wait().expect("try_wait") {
            let mut err = String::new();
            if let Some(mut s) = child.stderr.take() {
                s.read_to_string(&mut err).ok();
            }
            panic!("sweep exited ({status}) before journaling a record: {err}");
        }
        assert!(Instant::now() < deadline, "no journal record within 120s");
        std::thread::sleep(Duration::from_millis(20));
    }
    child.kill().expect("kill");
    child.wait().expect("wait");

    // The interrupted run's instruction budget differs from the clean
    // run's, so resuming it must be refused as a different sweep...
    let out = sweep_cmd("1", &["--resume", journal.to_str().expect("utf8")])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("different sweep"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // ...while resuming with the matching parameters completes the grid.
    // The resume deliberately runs under --jobs 2: the worker count is an
    // execution parameter, not sweep identity, and restored points feed
    // the cost-aware scheduler its journal-refined estimates.
    let resumed_json = tmp("cli_kill_resumed.json");
    let out = fpb()
        .args([
            "sweep",
            "--workload",
            "cop_m",
            "--instructions",
            "60000",
            "--axis",
            "pt-dimm=466,560",
            "--jobs",
            "2",
            "--resume",
        ])
        .arg(&journal)
        .args(["--json-out", resumed_json.to_str().expect("utf8")])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("restored"), "stdout: {text}");
    let resumed = std::fs::read_to_string(&resumed_json).expect("resumed json");
    assert!(resumed.contains("\"skipped\": 0"), "{resumed}");
    assert!(resumed.contains("\"panicked\": 0"), "{resumed}");
    for p in [&clean_json, &journal, &resumed_json] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn result_reuse_is_byte_invisible_and_warm_cache_splices() {
    // Reference: reuse fully disabled.
    let off_json = tmp("cli_reuse_off.json");
    let out = sweep_cmd(
        "2",
        &[
            "--no-result-cache",
            "--json-out",
            off_json.to_str().expect("utf8"),
        ],
    )
    .output()
    .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        !String::from_utf8_lossy(&out.stderr).contains("result reuse"),
        "--no-result-cache must silence the reuse stats line"
    );

    // Cold pass against a private cache file: simulates, saves, and must
    // render byte-identical JSON.
    let cache = tmp("cli_reuse_cache.v1");
    let cold_json = tmp("cli_reuse_cold.json");
    let out = sweep_cmd(
        "2",
        &[
            "--result-cache",
            cache.to_str().expect("utf8"),
            "--json-out",
            cold_json.to_str().expect("utf8"),
        ],
    )
    .output()
    .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("result reuse"), "stderr: {err}");
    assert!(
        err.contains("0 cache hit(s)"),
        "cold pass claimed hits: {err}"
    );
    assert!(cache.exists(), "cold pass must persist the cache");

    // Warm pass: every unit splices from the cache, bytes still equal.
    let warm_json = tmp("cli_reuse_warm.json");
    let out = sweep_cmd(
        "2",
        &[
            "--result-cache",
            cache.to_str().expect("utf8"),
            "--json-out",
            warm_json.to_str().expect("utf8"),
        ],
    )
    .output()
    .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("0 simulated"), "warm pass re-simulated: {err}");

    let off = std::fs::read(&off_json).expect("off json");
    let cold = std::fs::read(&cold_json).expect("cold json");
    let warm = std::fs::read(&warm_json).expect("warm json");
    assert_eq!(off, cold, "cold cache run diverged from reuse-off run");
    assert_eq!(off, warm, "warm cache run diverged from reuse-off run");

    // Corrupt the cache (truncate mid-record): the next run discards it
    // wholesale, runs cold, and still produces identical bytes.
    let text = std::fs::read_to_string(&cache).expect("cache text");
    std::fs::write(&cache, &text[..text.len() / 2]).expect("truncate");
    let after_json = tmp("cli_reuse_after_corrupt.json");
    let out = sweep_cmd(
        "2",
        &[
            "--result-cache",
            cache.to_str().expect("utf8"),
            "--json-out",
            after_json.to_str().expect("utf8"),
        ],
    )
    .output()
    .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("0 cache hit(s)"),
        "corrupt cache must read empty: {err}"
    );
    let after = std::fs::read(&after_json).expect("post-corruption json");
    assert_eq!(off, after, "post-corruption run diverged");

    for p in [&off_json, &cold_json, &warm_json, &after_json, &cache] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn lint_fails_on_an_unsuppressed_finding_and_passes_once_fixed() {
    // A tree with no baseline file: the verdict comes from the findings.
    let root = std::env::temp_dir().join("fpb-cli-test").join("lint-root");
    std::fs::remove_dir_all(&root).ok();
    let src_dir = root.join("crates/core/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir");
    let src = src_dir.join("x.rs");
    let report = tmp("lint-report.json");
    let root_arg = root.to_str().expect("utf8 path");

    std::fs::write(&src, "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n").expect("write");
    let out = fpb()
        .args(["lint", "--root", root_arg])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("crates/core/src/x.rs:1: panic_freedom"),
        "{text}"
    );
    assert!(text.ends_with("— FAILED\n"), "{text}");

    let out = fpb()
        .args(["lint", "--root", root_arg, "--format", "json", "--out"])
        .arg(&report)
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    let json = std::fs::read_to_string(&report).expect("report written");
    assert!(json.contains("\"schema\": \"fpb-lint/v2\""), "{json}");
    assert!(json.contains("\"ok\": false"), "{json}");

    std::fs::write(&src, "pub fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n").expect("write");
    let out = fpb()
        .args(["lint", "--root", root_arg])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("0 violation(s) — OK"), "{text}");

    std::fs::remove_dir_all(&root).ok();
    std::fs::remove_file(&report).ok();
}
