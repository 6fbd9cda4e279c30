//! End-to-end tests of `fpb inspect` (spawned as a real process): the
//! acceptance path — break on the first brownout-degraded write of a
//! fault-injected run — plus record → replay byte-identity through the
//! on-disk log, torn-log handling, and the `--quiet` stderr contract.

use std::path::PathBuf;
use std::process::Command;

fn fpb() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fpb"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("fpb-inspect-cli-tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let p = dir.join(format!("{}-{name}", std::process::id()));
    std::fs::remove_file(&p).ok();
    p
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
    let out = fpb()
        .args(["inspect", "--break", "degraded"])
        .args(DEGRADING_RUN)
        .output()
        .expect("spawn");
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
    let out = fpb()
        .args([
            "inspect",
            "--break",
            "watchdog",
            "--workload",
            "mcf_m",
            "--instructions",
            "5000",
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("never fired"), "stderr: {err}");
}

#[test]
fn record_then_replay_derives_identical_metrics() {
    let log = tmp("roundtrip.fpbi");
    let metrics = tmp("roundtrip-metrics.json");
    let out = fpb()
        .args(["inspect", "record", "--log"])
        .arg(&log)
        .args(DEGRADING_RUN)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("recorded"));

    let out = fpb()
        .args([
            "inspect",
            "replay",
            "--require-complete",
            "--json",
            "--metrics-out",
        ])
        .arg(&metrics)
        .arg("--log")
        .arg(&log)
        .output()
        .expect("spawn");
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
    let out = fpb()
        .args(["inspect", "record", "--log"])
        .arg(&log)
        .args(DEGRADING_RUN)
        .output()
        .expect("spawn");
    assert!(!out.status.success(), "clobbered {}", log.display());

    std::fs::remove_file(&log).ok();
    std::fs::remove_file(&metrics).ok();
}

#[test]
fn torn_log_replays_prefix_unless_complete_required() {
    let log = tmp("torn.fpbi");
    let out = fpb()
        .args(["inspect", "record", "--log"])
        .arg(&log)
        .args(DEGRADING_RUN)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Tear off the trailer and the last few events.
    let bytes = std::fs::read(&log).expect("read log");
    std::fs::write(&log, &bytes[..bytes.len() - 200]).expect("truncate");

    let out = fpb()
        .args(["inspect", "replay", "--require-complete", "--log"])
        .arg(&log)
        .output()
        .expect("spawn");
    assert!(
        !out.status.success(),
        "--require-complete must reject a torn log"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("incomplete"));

    let out = fpb()
        .args(["inspect", "replay", "--log"])
        .arg(&log)
        .output()
        .expect("spawn");
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
fn quiet_suppresses_reuse_stats_line_only_when_asked() {
    // The reuse line only prints on the reuse path, so give the sweep a
    // throwaway cache rather than `--no-result-cache`.
    let cache = tmp("quiet-cache.v1");
    let loud = fpb()
        .args(["sweep", "--workload", "cop_m", "--instructions", "5000"])
        .args(["--axis", "pt-dimm=466,560", "--result-cache"])
        .arg(&cache)
        .output()
        .expect("spawn");
    assert!(
        loud.status.success(),
        "{}",
        String::from_utf8_lossy(&loud.stderr)
    );
    assert!(
        String::from_utf8_lossy(&loud.stderr).contains("result reuse"),
        "default stderr must keep the reuse line (CI greps it): {}",
        String::from_utf8_lossy(&loud.stderr)
    );

    let quiet = fpb()
        .args(["sweep", "--workload", "cop_m", "--instructions", "5000"])
        .args(["--axis", "pt-dimm=466,560", "--quiet", "--result-cache"])
        .arg(&cache)
        .output()
        .expect("spawn");
    assert!(
        quiet.status.success(),
        "{}",
        String::from_utf8_lossy(&quiet.stderr)
    );
    assert!(
        !String::from_utf8_lossy(&quiet.stderr).contains("result reuse"),
        "--quiet must drop the reuse line: {}",
        String::from_utf8_lossy(&quiet.stderr)
    );
    // Simulation output is unchanged.
    assert_eq!(loud.stdout, quiet.stdout);

    // `fpb run --quiet` is accepted too.
    let out = fpb()
        .args([
            "run",
            "--workload",
            "cop_m",
            "--instructions",
            "5000",
            "--quiet",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    std::fs::remove_file(&cache).ok();
}
