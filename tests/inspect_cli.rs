//! End-to-end tests of `fpb inspect` (spawned as a real process): the
//! acceptance path — break on the first brownout-degraded write of a
//! fault-injected run — plus record → replay byte-identity through the
//! on-disk log, torn-log handling, and the sweep's reuse-line stderr
//! contract.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// How long one `fpb` child may run before the test kills it.
const DEADLINE: Duration = Duration::from_secs(60);

fn fpb() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fpb"))
}

fn tmp_dir() -> PathBuf {
    std::env::temp_dir().join("fpb-inspect-cli-tests")
}

fn tmp(name: &str) -> PathBuf {
    let dir = tmp_dir();
    std::fs::create_dir_all(&dir).expect("mkdir");
    let p = dir.join(format!("{}-{name}", std::process::id()));
    std::fs::remove_file(&p).ok();
    p
}

/// Like `Command::output`, but a child still running after [`DEADLINE`]
/// is killed, the scratch files it was given are deleted, and the test
/// fails naming its arguments. A run whose writes can never be admitted
/// does not end on its own (brownout edges keep an event pending), and
/// `inspect record` would keep appending to its log until the disk is
/// full.
fn output(cmd: &mut Command) -> Output {
    let args: Vec<String> = cmd
        .get_args()
        .map(|a| a.to_string_lossy().into_owned())
        .collect();
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    // Drain both pipes while the child runs, so a full pipe cannot stall it.
    fn drain(mut pipe: impl Read + Send + 'static) -> thread::JoinHandle<Vec<u8>> {
        thread::spawn(move || {
            let mut bytes = Vec::new();
            pipe.read_to_end(&mut bytes).ok();
            bytes
        })
    }
    let stdout = drain(child.stdout.take().expect("stdout"));
    let stderr = drain(child.stderr.take().expect("stderr"));
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait") {
            break status;
        }
        if started.elapsed() > DEADLINE {
            child.kill().ok();
            child.wait().ok();
            for arg in &args {
                if Path::new(arg).starts_with(tmp_dir()) {
                    std::fs::remove_file(arg).ok();
                }
            }
            panic!(
                "`fpb {}` still running after {DEADLINE:?}; killed",
                args.join(" ")
            );
        }
        thread::sleep(Duration::from_millis(20));
    };
    Output {
        status,
        stdout: stdout.join().expect("stdout reader"),
        stderr: stderr.join().expect("stderr reader"),
    }
}

/// Run flags for a fault-injected run where brownouts last long enough
/// to push writes into degraded (SLC) mode.
const DEGRADING_RUN: [&str; 12] = [
    "--workload",
    "mcf_m",
    "--scheme",
    "fpb",
    "--instructions",
    "40000",
    "--fault-brownout-period",
    "20000",
    "--fault-brownout-duration",
    "12000",
    "--fault-degraded-after",
    "5000",
];

#[test]
fn break_halts_on_first_degraded_write() {
    let out = output(
        fpb()
            .args(["inspect", "--break", "degraded"])
            .args(DEGRADING_RUN),
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("break at event"), "no hit reported: {text}");
    assert!(
        text.contains("created in degraded (SLC) mode"),
        "wrong hit reason: {text}"
    );
    // The hit write's lineage follows the hit line.
    assert!(text.contains("write #"), "{text}");
}

#[test]
fn break_that_never_fires_exits_nonzero() {
    let out = output(fpb().args([
        "inspect",
        "--break",
        "watchdog",
        "--workload",
        "mcf_m",
        "--instructions",
        "5000",
    ]));
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("never fired"), "stderr: {err}");
}

#[test]
fn record_then_replay_derives_identical_metrics() {
    let log = tmp("roundtrip.fpbi");
    let metrics = tmp("roundtrip-metrics.json");
    let out = output(
        fpb()
            .args(["inspect", "record", "--log"])
            .arg(&log)
            .args(DEGRADING_RUN),
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("recorded"));

    let out = output(
        fpb()
            .args([
                "inspect",
                "replay",
                "--require-complete",
                "--json",
                "--metrics-out",
            ])
            .arg(&metrics)
            .arg("--log")
            .arg(&log),
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("derived metrics"), "{text}");

    // The derived JSON equals what the same run derives in process.
    let written = std::fs::read_to_string(&metrics).expect("metrics json");
    assert!(
        written.contains("\"schema\": \"fpb-metrics/v1\""),
        "{written}"
    );
    assert!(
        text.contains(&written),
        "--json stdout must match --metrics-out"
    );

    // Recording refuses to clobber an existing log.
    let out = output(
        fpb()
            .args(["inspect", "record", "--log"])
            .arg(&log)
            .args(DEGRADING_RUN),
    );
    assert!(!out.status.success(), "clobbered {}", log.display());

    std::fs::remove_file(&log).ok();
    std::fs::remove_file(&metrics).ok();
}

#[test]
fn torn_log_replays_prefix_unless_complete_required() {
    let log = tmp("torn.fpbi");
    let out = output(
        fpb()
            .args(["inspect", "record", "--log"])
            .arg(&log)
            .args(DEGRADING_RUN),
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Tear off the trailer and the last few events.
    let bytes = std::fs::read(&log).expect("read log");
    std::fs::write(&log, &bytes[..bytes.len() - 200]).expect("truncate");

    let out = output(
        fpb()
            .args(["inspect", "replay", "--require-complete", "--log"])
            .arg(&log),
    );
    assert!(
        !out.status.success(),
        "--require-complete must reject a torn log"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("incomplete"));

    let out = output(fpb().args(["inspect", "replay", "--log"]).arg(&log));
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("truncated"));
    assert!(String::from_utf8_lossy(&out.stdout).contains("derived metrics"));

    std::fs::remove_file(&log).ok();
}

#[test]
fn reuse_stats_line_prints_on_default_stderr() {
    // The reuse line only prints on the reuse path, so give the sweep a
    // throwaway cache rather than `--no-result-cache`.
    let cache = tmp("reuse-line-cache.v1");
    let out = output(
        fpb()
            .args(["sweep", "--workload", "cop_m", "--instructions", "5000"])
            .args(["--axis", "pt-dimm=466,560", "--result-cache"])
            .arg(&cache),
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("result reuse"),
        "stderr must keep the reuse line (CI greps it): {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // No flag hides it: `--quiet` is an unknown flag.
    let out = output(fpb().args(["sweep", "--axis", "pt-dimm=466", "--quiet"]));
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown flag `--quiet`"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    std::fs::remove_file(&cache).ok();
}
