//! End-to-end tests of `tfmae serve`: out-dir handling, metrics exports,
//! and the exit-code contract (also `tfmae server`'s), through the real
//! binary.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tfmae"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tfmae_serve_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Simulates a tiny dataset and trains a model into `dir`, returning
/// (model path, data dir).
fn prepared(dir: &Path) -> (PathBuf, PathBuf) {
    let data = dir.join("data");
    let model = dir.join("model.json");
    let out = bin()
        .args(["simulate", "--dataset", "global", "--divisor", "200", "--out-dir"])
        .arg(&data)
        .output()
        .unwrap();
    assert!(out.status.success(), "simulate failed: {}", String::from_utf8_lossy(&out.stderr));
    let out = bin()
        .args(["train", "--epochs", "1", "--win", "32", "--train"])
        .arg(data.join("train.csv"))
        .arg("--model")
        .arg(&model)
        .output()
        .unwrap();
    assert!(out.status.success(), "train failed: {}", String::from_utf8_lossy(&out.stderr));
    (model, data)
}

#[test]
fn serve_creates_nested_out_dir_and_writes_metrics() {
    let dir = tmpdir("metrics");
    let (model, data) = prepared(&dir);
    // Every output path is nested and nonexistent: serve must create them.
    let out_dir = dir.join("verdicts").join("run1");
    let metrics_json = dir.join("metrics").join("snapshot.json");
    let metrics_prom = dir.join("metrics").join("tfmae.prom");

    let out = bin()
        .args(["serve", "--threshold", "0.5", "--hop", "4", "--model"])
        .arg(&model)
        .arg("--input")
        .arg(data.join("test.csv"))
        .arg("--out-dir")
        .arg(&out_dir)
        .arg("--metrics-out")
        .arg(&metrics_json)
        .arg("--metrics-prom")
        .arg(&metrics_prom)
        .output()
        .unwrap();
    assert!(out.status.success(), "serve failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("throughput"), "missing summary in: {text}");

    // Verdict CSV landed in the freshly created nested directory.
    let verdicts = std::fs::read_to_string(out_dir.join("stream_0.csv")).unwrap();
    assert!(verdicts.starts_with("t,score,is_anomaly,quality"));
    assert!(verdicts.lines().count() > 1, "no verdicts written");

    // Both metrics files validate with the exporters' own checkers and
    // cover instruments from every wired layer.
    let prom = std::fs::read_to_string(&metrics_prom).unwrap();
    tfmae_obs::validate_prometheus(&prom).expect("well-formed Prometheus textfile");
    for metric in ["serve_rows", "serve_tick_ns_count", "exec_tasks_dispatched", "fft_plan_cache_misses"] {
        assert!(prom.contains(metric), "{metric} missing from:\n{prom}");
    }
    let json = std::fs::read_to_string(&metrics_json).unwrap();
    tfmae_obs::validate_json_shape(&json).expect("balanced JSON snapshot");
    assert!(json.contains("\"serve.rows\""));
    assert!(json.contains("\"serve.tick_ns\""));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_rejects_empty_out_dir_and_metrics_paths() {
    let dir = tmpdir("badflags");
    let (model, data) = prepared(&dir);

    // `--out-dir` directly followed by the next flag has no value.
    let out = bin()
        .args(["serve", "--threshold", "0.5", "--model"])
        .arg(&model)
        .arg("--input")
        .arg(data.join("test.csv"))
        .args(["--out-dir", "--hop", "4"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "empty --out-dir is a usage error");
    assert!(String::from_utf8_lossy(&out.stderr).contains("out-dir"));

    let out = bin()
        .args(["serve", "--threshold", "0.5", "--model"])
        .arg(&model)
        .arg("--input")
        .arg(data.join("test.csv"))
        .args(["--metrics-out", "--hop", "4"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "empty --metrics-out is a usage error");
    assert!(String::from_utf8_lossy(&out.stderr).contains("metrics-out"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_without_threshold_or_val_is_a_usage_error() {
    let dir = tmpdir("nothresh");
    let (model, data) = prepared(&dir);
    let out = bin()
        .args(["serve", "--model"])
        .arg(&model)
        .arg("--input")
        .arg(data.join("test.csv"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--threshold"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_exits_4_on_a_format_3_checkpoint() {
    let dir = tmpdir("format3");
    let (model, data) = prepared(&dir);
    // Re-stamp the frame as version 3 with a valid header CRC: a file
    // from before the format break, not a damaged one.
    let mut bytes = std::fs::read(&model).unwrap();
    bytes[8..12].copy_from_slice(&3u32.to_le_bytes());
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let head_end = 16 + 16 * count;
    let crc = tfmae_core::checkpoint::crc32_ieee(&bytes[..head_end]);
    bytes[head_end..head_end + 4].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&model, &bytes).unwrap();
    let out = bin()
        .args(["serve", "--threshold", "0.5", "--model"])
        .arg(&model)
        .arg("--input")
        .arg(data.join("test.csv"))
        .arg("--out-dir")
        .arg(dir.join("verdicts"))
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(4), "a format-3 checkpoint is a checkpoint error: {stderr}");
    assert!(stderr.contains("version 3") && stderr.contains("retrain"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_rejects_out_of_range_hop_threshold_and_refresh_every() {
    let dir = tmpdir("badrange");
    let (model, data) = prepared(&dir);
    let out_dir = dir.join("never_written");
    // The model was trained with --win 32.
    let cases: [(&[&str], &str); 8] = [
        (&["--threshold", "0.5", "--hop", "0"], "--hop must be in 1..=32"),
        (&["--threshold", "0.5", "--hop", "33"], "--hop must be in 1..=32"),
        (&["--threshold", "nan"], "--threshold must be a finite number"),
        (&["--threshold", "inf"], "--threshold must be a finite number"),
        (&["--threshold", "-inf"], "--threshold must be a finite number"),
        // The refresh cadence and the post-quarantine holdoff are fixed
        // engine constants, so their retired flags are unknown.
        (&["--threshold", "0.5", "--refresh-every", "64"], "unknown flag --refresh-every"),
        (&["--threshold", "0.5", "--adapt", "--adapt-holdoff", "4"], "unknown flag --adapt-holdoff"),
        (&["--threshold", "0.5", "--shards", "4"], "unknown flag --shards"),
    ];
    for (flags, want) in cases {
        let out = bin()
            .args(["serve", "--model"])
            .arg(&model)
            .arg("--input")
            .arg(data.join("test.csv"))
            .arg("--out-dir")
            .arg(&out_dir)
            .args(flags)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags:?} must be a usage error: {stderr}");
        assert!(stderr.contains(want), "{flags:?}: {want:?} missing from: {stderr}");
        assert!(!out_dir.exists(), "{flags:?} must fail before any scoring");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn server_rejects_out_of_range_sizing_flags_before_binding() {
    let registry = tmpdir("server_flags");
    for (flag, value, want) in [
        ("--shards", "0", "unknown flag --shards"),
        ("--workers", "0", "--workers must be >= 1"),
        ("--queue-cap", "0", "--queue-cap must be >= 1"),
        ("--max-body", "1023", "--max-body must be >= 1024"),
    ] {
        let mut child = bin()
            .args(["server", "--listen", "127.0.0.1:0", flag, value, "--registry"])
            .arg(&registry)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        // A server that took the flag would run until drained: kill it.
        let deadline = Instant::now() + Duration::from_secs(30);
        while child.try_wait().unwrap().is_none() {
            if Instant::now() > deadline {
                let _ = child.kill();
                panic!("{flag} {value}: server started instead of rejecting the flag");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(stderr.contains(want), "{want:?} missing from: {stderr}");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("listening"), "bound anyway");
    }
    let _ = std::fs::remove_dir_all(&registry);
}
