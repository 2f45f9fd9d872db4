//! `tfmae` — command-line interface to the TFMAE reproduction.
//!
//! ```text
//! tfmae simulate --dataset smd --divisor 100 --out-dir data/      # write train/val/test CSVs
//! tfmae train    --train data/train.csv --val data/val.csv --model model.json
//! tfmae score    --model model.json --input data/test.csv --out scores.csv
//! tfmae evaluate --model model.json --input data/test.csv --ratio 0.005
//! tfmae serve    --model model.json --input s0.csv --input s1.csv --val data/val.csv
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use tfmae_core::{
    AdaptationConfig, Precision, QuantStore, ServingConfig, ServingEngine, StreamVerdict,
    TfmaeConfig, TfmaeDetector,
};
use tfmae_data::{
    generate, read_csv, read_csv_lenient, write_csv, DatasetKind, Detector, TimeSeries,
};
use tfmae_metrics::{apply_threshold, point_adjust, pr_auc, roc_auc, threshold_for_ratio, Prf};

fn usage() -> &'static str {
    "tfmae — Temporal-Frequency Masked Autoencoders for time-series anomaly detection

USAGE:
  tfmae simulate --dataset <msl|psm|smd|swat|smap|global|seasonal> [--divisor N] [--seed N] --out-dir DIR
  tfmae train    --train FILE.csv [--val FILE.csv] --model OUT.json [--lenient]
                 [--epochs N] [--win N] [--d-model N] [--layers N] [--rt F] [--rf F]
                 [--patch-len N] [--seed N]
  tfmae score    --model FILE.json --input FILE.csv --out FILE.csv [--lenient]
  tfmae evaluate --model FILE.json --input FILE.csv (--ratio F | --val FILE.csv --ratio F) [--lenient]
  tfmae quantize --model FILE.json --out OUT.json [--precision <bf16|int8>]
  tfmae serve    --model FILE.json --input FILE.csv [--input FILE.csv ...]
                 (--threshold F | --val FILE.csv) [--ratio F] [--hop N]
                 [--precision <f32|bf16|int8>] [--out-dir DIR] [--lenient]
                 [--metrics-out FILE.json] [--metrics-prom FILE.prom]
                 [--adapt] [--adapt-finetune] [--adapt-save OUT.json]
  tfmae server   --listen ADDR --registry DIR [--workers N] [--queue-cap N]
                 [--max-body BYTES] [--drain-grace-secs N]
  tfmae models   ls --registry DIR
  tfmae help

CSV format: one row per observation, one numeric column per channel, optional
header, optional trailing `label` column (needed by `evaluate`). With
--lenient, malformed CSV rows are skipped with a warning on stderr instead of
aborting.

`serve` replays each --input as an independent live stream through one shared
serving engine: rows are interleaved tick by tick, windows that become due on
the same tick are scored in one cross-stream batch, and per-stream verdicts
(t, score, is_anomaly, quality) land in DIR/stream_<i>.csv when --out-dir is
given. --val both derives the threshold (at --ratio, default 0.01) and
freezes each stream's score calibration so online scores match the offline
scale. The engine re-seeds its incremental masking state exactly every 64
scored hops, and spreads ingest and scoring over TFMAE_THREADS threads
(default: all cores) by itself, fanning a tick's ingest out only when its
rows are wide enough to pay for it; verdicts are bitwise identical at any
thread count.

--patch-len folds that many consecutive time steps into one temporal token
(Ti-MAE-style patch embedding): attention cost in the temporal branch drops
~P²x, scores stay per-observation, and the frequency branch is untouched.
Must divide --win; the default 1 reproduces the unpatched model exactly.
`score`/`evaluate`/`serve` pick the patch length up from the checkpoint.

`quantize` rewrites an f32 checkpoint with a quant section recording the
requested serving precision (default bf16) plus per-parameter integrity CRCs;
the f32 payload is untouched, so `--precision f32` still sees
bitwise-identical scoring. `serve --precision` picks the weight precision
for inference (bf16 halves, int8 quarters, resident weight bytes; f32
accumulation throughout). Without the flag, serve applies the checkpoint's
stored precision, if any; `--precision f32` overrides a stored one and serves
the exact f32 model. Quantized serving releases the f32 weights, so
--adapt-finetune is disabled for it (threshold recalibration still runs).

--adapt turns on drift adaptation (default off; without it verdicts are
bitwise identical to the frozen engine): every 64 clean scores, δ is
recalibrated to the (1 − r) quantile of the last 256 clean serving scores,
with quarantined/degraded rows held out of calibration and a 4-window
re-entry delay after quarantine. r is --ratio, the same Eq. 17 ratio that
derives δ from --val (default 0.01); under --adapt it must be in (0, 1).
--adapt-finetune additionally fine-tunes the model in the background, 2
steps on a reservoir of the last 32 clean windows every 256 clean scores;
each update is snapshotted first and rolled back (with exponential cadence
backoff) if post-update scores leave the guard band. --adapt-save writes
the adapted model plus its adaptive state as one checkpoint; serving that
file again with --adapt resumes δ and the backoff where they left off.

`server` runs the long-lived network front-end: a model **registry**
directory of checkpoints, each loadable as an independent tenant, with
clients registering streams, pushing CSV rows and polling verdicts over a
minimal HTTP/1.1 protocol (see DESIGN.md §19 and README for a curl/nc
session). Per-stream ingest is bounded by --queue-cap; refusals are typed
(429 backpressure, 400 width_mismatch, 413 payload_too_large, 503
draining). SIGTERM/SIGINT (or POST /v1/shutdown) drains gracefully:
admitted rows finish scoring and verdicts stay pollable for
--drain-grace-secs before exit. GET /metrics serves the Prometheus
exposition of the runtime metrics registry. `models ls` prints one row per
registry checkpoint — version, CRC status, precision, patch/window/dims —
without loading any model.

--metrics-out / --metrics-prom turn on the runtime metrics registry and
write a JSON snapshot / Prometheus textfile on exit (and periodically during
the replay), covering tick latency, per-stream fault counters, executor and
FFT-plan-cache activity, and the streaming anomaly-score distribution. Point
the Prometheus node-exporter textfile collector at the --metrics-prom file.

EXIT CODES:
  0  success
  2  usage error (unknown or bad flags, bad values, unknown command)
  3  data error (unreadable/malformed CSV, channel mismatch, missing labels)
  4  checkpoint error (missing, corrupt, or incompatible model file)
  5  internal error"
}

/// Typed CLI failure; the variant fixes the process exit code so scripts
/// can distinguish operator mistakes from bad data and bad checkpoints.
enum CliError {
    /// Bad invocation: exit code 2.
    Usage(String),
    /// Input data problem: exit code 3.
    Data(String),
    /// Checkpoint problem: exit code 4.
    Checkpoint(String),
    /// Unexpected internal failure: exit code 5.
    Internal(String),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Data(_) => 3,
            CliError::Checkpoint(_) => 4,
            CliError::Internal(_) => 5,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m)
            | CliError::Data(m)
            | CliError::Checkpoint(m)
            | CliError::Internal(m) => m,
        }
    }
}

struct Args {
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(args: &[String]) -> Self {
        let mut flags = Vec::new();
        let mut i = 0;
        while i < args.len() {
            if let Some(key) = args[i].strip_prefix("--") {
                // A flag followed by another flag (or by nothing) is a
                // boolean switch; only a plain token is consumed as a value.
                match args.get(i + 1) {
                    Some(next) if !next.starts_with("--") => {
                        flags.push((key.to_string(), next.clone()));
                        i += 2;
                    }
                    _ => {
                        flags.push((key.to_string(), String::new()));
                        i += 1;
                    }
                }
            } else {
                i += 1;
            }
        }
        Self { flags }
    }

    /// Refuses the first flag outside `known`, the flags the command takes.
    fn check(&self, known: &[&str]) -> Result<(), CliError> {
        match self.flags.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            Some((k, _)) => Err(CliError::Usage(format!("unknown flag --{k}"))),
            None => Ok(()),
        }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// All values of a repeatable flag, in order of appearance.
    fn get_all(&self, key: &str) -> Vec<&str> {
        self.flags
            .iter()
            .filter(|(k, v)| k == key && !v.is_empty())
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// Whether a boolean switch was passed (with or without a value).
    fn has(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    fn require(&self, key: &str) -> Result<&str, CliError> {
        match self.get(key) {
            Some(v) if !v.is_empty() => Ok(v),
            _ => Err(CliError::Usage(format!("missing required flag --{key}"))),
        }
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => {
                v.parse().map_err(|_| CliError::Usage(format!("bad value for --{key}: {v:?}")))
            }
        }
    }
}

fn parse_dataset(name: &str) -> Result<DatasetKind, CliError> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "msl" => DatasetKind::Msl,
        "psm" => DatasetKind::Psm,
        "smd" => DatasetKind::Smd,
        "swat" => DatasetKind::Swat,
        "smap" => DatasetKind::Smap,
        "global" | "nips-ts-global" => DatasetKind::NipsTsGlobal,
        "seasonal" | "nips-ts-seasonal" => DatasetKind::NipsTsSeasonal,
        other => return Err(CliError::Usage(format!("unknown dataset {other:?}"))),
    })
}

fn cmd_simulate(args: &Args) -> Result<(), CliError> {
    let kind = parse_dataset(args.require("dataset")?)?;
    let divisor: usize = args.num("divisor", 100)?;
    let seed: u64 = args.num("seed", 7)?;
    let out_dir = PathBuf::from(args.require("out-dir")?);
    std::fs::create_dir_all(&out_dir).map_err(|e| CliError::Data(e.to_string()))?;

    let bench = generate(kind, seed, divisor);
    write_csv(out_dir.join("train.csv"), &bench.train, None)
        .map_err(|e| CliError::Data(e.to_string()))?;
    write_csv(out_dir.join("val.csv"), &bench.val, None)
        .map_err(|e| CliError::Data(e.to_string()))?;
    write_csv(out_dir.join("test.csv"), &bench.test, Some(&bench.test_labels))
        .map_err(|e| CliError::Data(e.to_string()))?;
    let hp = kind.paper_hparams();
    println!(
        "wrote {} simulator (dims={}, train={}, val={}, test={}, AR={:.1}%) to {}",
        kind.name(),
        bench.train.dims(),
        bench.train.len(),
        bench.val.len(),
        bench.test.len(),
        bench.realized_anomaly_ratio() * 100.0,
        out_dir.display()
    );
    println!(
        "paper hyper-parameters: --rt {} --rf {}  (threshold ratio r = {})",
        hp.r_t, hp.r_f, hp.r
    );
    Ok(())
}

fn load_series(path: &str, lenient: bool) -> Result<(TimeSeries, Option<Vec<u8>>), CliError> {
    if lenient {
        let (data, warnings) =
            read_csv_lenient(path).map_err(|e| CliError::Data(format!("{path}: {e}")))?;
        for w in &warnings {
            eprintln!("warning: {path}: {w}");
        }
        if !warnings.is_empty() {
            eprintln!("warning: {path}: skipped {} malformed row(s)", warnings.len());
        }
        Ok((data.series, data.labels))
    } else {
        let data = read_csv(path).map_err(|e| CliError::Data(format!("{path}: {e}")))?;
        Ok((data.series, data.labels))
    }
}

fn cmd_train(args: &Args) -> Result<(), CliError> {
    let lenient = args.has("lenient");
    let (train, _) = load_series(args.require("train")?, lenient)?;
    let val = match args.get("val") {
        Some(p) if !p.is_empty() => load_series(p, lenient)?.0,
        _ => train.clone(),
    };
    let cfg = TfmaeConfig {
        epochs: args.num("epochs", 5)?,
        win_len: args.num("win", 100)?,
        d_model: args.num("d-model", 64)?,
        layers: args.num("layers", 2)?,
        r_temporal: args.num("rt", 0.25)?,
        r_frequency: args.num("rf", 0.25)?,
        patch_len: args.num("patch-len", 1)?,
        seed: args.num("seed", 7)?,
        ..TfmaeConfig::default()
    };
    cfg.validate().map_err(CliError::Usage)?;
    let model_path = args.require("model")?.to_string();
    let mut det = TfmaeDetector::new(cfg);
    det.fit(&train, &val);
    println!(
        "trained on {} observations × {} channels: {} steps in {:.2}s (final loss {:.4}, kernels {})",
        train.len(),
        train.dims(),
        det.fit_report.steps,
        det.fit_report.seconds,
        det.fit_report.final_loss,
        tfmae::tensor::kernel_isa()
    );
    let report = &det.train_report;
    if report.rollbacks > 0 || report.skipped_batches > 0 {
        eprintln!(
            "warning: training hit faults: {} rollback(s), {} skipped batch(es), final lr {:.2e}{}",
            report.rollbacks,
            report.skipped_batches,
            report.final_lr,
            if report.aborted { " — aborted early on last good parameters" } else { "" }
        );
    }
    det.save(&model_path).map_err(|e| CliError::Checkpoint(e.to_string()))?;
    println!("saved checkpoint to {model_path}");
    Ok(())
}

fn check_dims(det: &TfmaeDetector, input: &TimeSeries) -> Result<(), CliError> {
    let model_dims = det.model().map(|m| m.dims()).unwrap_or(0);
    if input.dims() != model_dims {
        return Err(CliError::Data(format!(
            "input has {} channels but the model was trained on {model_dims}",
            input.dims()
        )));
    }
    Ok(())
}

fn load_model(args: &Args) -> Result<TfmaeDetector, CliError> {
    let path = args.require("model")?;
    let (det, ..) =
        TfmaeDetector::load_full(path).map_err(|e| CliError::Checkpoint(format!("{path}: {e}")))?;
    Ok(det)
}

fn cmd_score(args: &Args) -> Result<(), CliError> {
    let lenient = args.has("lenient");
    let det = load_model(args)?;
    let (input, _) = load_series(args.require("input")?, lenient)?;
    check_dims(&det, &input)?;
    let scores = det.score(&input);
    let out = args.require("out")?;
    let series = TimeSeries::new(scores.clone(), scores.len(), 1);
    write_csv(out, &series, None).map_err(|e| CliError::Data(e.to_string()))?;
    println!("wrote {} scores to {out}", scores.len());
    Ok(())
}

fn cmd_evaluate(args: &Args) -> Result<(), CliError> {
    let lenient = args.has("lenient");
    let det = load_model(args)?;
    let (input, labels) = load_series(args.require("input")?, lenient)?;
    check_dims(&det, &input)?;
    let labels = labels.ok_or_else(|| {
        CliError::Data("evaluate requires a `label` column in the input CSV".into())
    })?;
    let ratio: f64 = args.num("ratio", 0.01)?;

    let scores = det.score(&input);
    let threshold_scores = match args.get("val") {
        Some(p) if !p.is_empty() => {
            let (val, _) = load_series(p, lenient)?;
            check_dims(&det, &val)?;
            det.score(&val)
        }
        _ => scores.clone(),
    };
    let delta = threshold_for_ratio(&threshold_scores, ratio);
    let pred = apply_threshold(&scores, delta);
    let prf = Prf::from_predictions(&point_adjust(&pred, &labels), &labels);
    println!("threshold δ = {delta:.6} (ratio {ratio})");
    println!("P = {:.2}%  R = {:.2}%  F1 = {:.2}%", prf.precision, prf.recall, prf.f1);
    println!(
        "ROC-AUC = {:.4}  PR-AUC = {:.4}",
        roc_auc(&scores, &labels),
        pr_auc(&scores, &labels)
    );
    Ok(())
}

fn parse_precision(v: &str) -> Result<Precision, CliError> {
    Precision::parse(v).map_err(CliError::Usage)
}

fn cmd_quantize(args: &Args) -> Result<(), CliError> {
    let precision = match args.get("precision") {
        None => Precision::Bf16,
        Some(v) => match parse_precision(v)? {
            Precision::F32 => {
                return Err(CliError::Usage(
                    "quantize needs --precision bf16 or int8 (f32 is the input format)".into(),
                ))
            }
            p => p,
        },
    };
    let det = load_model(args)?;
    let out = args.require("out")?;
    det.save_quantized(out, precision)
        .map_err(|e| CliError::Checkpoint(format!("{out}: {e}")))?;
    // Report the sizes from the same deterministic quantization the save
    // just performed; the model is guaranteed fitted by a successful save.
    let model = det.model().ok_or_else(|| CliError::Internal("unfitted after save".into()))?;
    let qs = QuantStore::from_params(&model.ps, precision);
    println!(
        "wrote {precision} checkpoint to {out}: {} weight panels, {:.1} KiB quantized \
         (f32 equivalent {:.1} KiB, {:.2}x smaller at serve time)",
        qs.num_params(),
        qs.bytes() as f64 / 1024.0,
        qs.f32_bytes() as f64 / 1024.0,
        qs.f32_bytes() as f64 / qs.bytes().max(1) as f64,
    );
    println!("serve it with: tfmae serve --model {out} ... (stored precision applies; override with --precision)");
    Ok(())
}

/// Scored ticks between periodic metrics-file rewrites during a replay.
const METRICS_FLUSH_EVERY: u64 = 256;

/// Resolves an optional metrics output path, creating its parent directory.
fn metrics_path(args: &Args, key: &str) -> Result<Option<PathBuf>, CliError> {
    match args.get(key) {
        None => Ok(None),
        Some("") => Err(CliError::Usage(format!("--{key} requires a file path"))),
        Some(v) => {
            let p = PathBuf::from(v);
            if let Some(parent) = p.parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent)
                        .map_err(|e| CliError::Data(format!("{}: {e}", parent.display())))?;
                }
            }
            Ok(Some(p))
        }
    }
}

/// Writes the current global-registry state to the requested metrics files.
/// Failures here are internal (exit 5): the replay itself succeeded and the
/// paths were already prepared — only the telemetry write went wrong.
fn write_metrics(json: Option<&PathBuf>, prom: Option<&PathBuf>) -> Result<(), CliError> {
    let reg = tfmae_obs::global();
    if let Some(p) = json {
        std::fs::write(p, tfmae_obs::json_snapshot(reg))
            .map_err(|e| CliError::Internal(format!("{}: {e}", p.display())))?;
    }
    if let Some(p) = prom {
        std::fs::write(p, tfmae_obs::prometheus_text(reg))
            .map_err(|e| CliError::Internal(format!("{}: {e}", p.display())))?;
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), CliError> {
    // Flag sanity up front, before the model load and data replay: operator
    // mistakes should fail in milliseconds, not after minutes of scoring.
    if args.get("out-dir") == Some("") {
        return Err(CliError::Usage("--out-dir requires a directory path".into()));
    }
    if args.get("threshold").is_none() && args.get("val").is_none_or(str::is_empty) {
        return Err(CliError::Usage(
            "serve needs --threshold or --val (to derive one at --ratio)".into(),
        ));
    }
    let threshold_flag: Option<f32> = match args.get("threshold") {
        None => None,
        Some(t) => match t.parse::<f32>() {
            Ok(v) if v.is_finite() => Some(v),
            Ok(_) => {
                return Err(CliError::Usage(format!(
                    "--threshold must be a finite number, got {t:?}"
                )))
            }
            Err(_) => return Err(CliError::Usage(format!("bad value for --threshold: {t:?}"))),
        },
    };
    let metrics_out = metrics_path(args, "metrics-out")?;
    let metrics_prom = metrics_path(args, "metrics-prom")?;
    let metrics_on = metrics_out.is_some() || metrics_prom.is_some();

    let adapt_on = args.has("adapt");
    for key in ["adapt-finetune", "adapt-save"] {
        if !adapt_on && args.has(key) {
            return Err(CliError::Usage(format!("--{key} requires --adapt")));
        }
    }
    let adapt_save = match args.get("adapt-save") {
        Some("") => return Err(CliError::Usage("--adapt-save requires a file path".into())),
        Some(p) => Some(PathBuf::from(p)),
        None => None,
    };

    let lenient = args.has("lenient");
    // The full parse reads the optional adaptive section (so a --adapt-save'd
    // model resumes δ and the rollback backoff seamlessly) and the quant
    // section's stored precision. Neither is applied yet: the detector is
    // still the exact f32 model, so threshold calibration below is identical
    // across precisions.
    let path = args.require("model")?;
    let (det, resumed, stored_precision) = TfmaeDetector::load_full(path)
        .map_err(|e| CliError::Checkpoint(format!("{path}: {e}")))?;
    let resumed = if adapt_on { resumed } else { None };
    let precision = match args.get("precision") {
        Some(v) => parse_precision(v)?,
        None => stored_precision.unwrap_or(Precision::F32),
    };
    if precision != Precision::F32 && args.has("adapt-finetune") {
        eprintln!(
            "warning: --precision {precision} releases the f32 weights; background \
             fine-tuning is disabled (threshold recalibration still runs)"
        );
    }
    if precision != Precision::F32 && adapt_save.is_some() {
        return Err(CliError::Usage(format!(
            "--adapt-save cannot checkpoint a {precision} engine (the f32 weights are \
             released); serve with --precision f32 to save an adapted model"
        )));
    }
    let win_len = det.cfg.win_len;
    let hop: usize = args.num("hop", ServingConfig::default_hop(win_len))?;
    if !(1..=win_len).contains(&hop) {
        return Err(CliError::Usage(format!(
            "--hop must be in 1..={win_len} (the model's window length), got {hop}"
        )));
    }
    let inputs = args.get_all("input");
    if inputs.is_empty() {
        return Err(CliError::Usage("serve requires at least one --input".into()));
    }
    let mut streams_data = Vec::with_capacity(inputs.len());
    for p in &inputs {
        let (s, _) = load_series(p, lenient)?;
        check_dims(&det, &s)?;
        streams_data.push(s);
    }

    let val = match args.get("val") {
        Some(p) if !p.is_empty() => {
            let (v, _) = load_series(p, lenient)?;
            check_dims(&det, &v)?;
            Some(v)
        }
        _ => None,
    };
    // One Eq. 17 ratio per run: it derives δ from --val and is the
    // adaptation's recalibration target.
    let ratio: f64 = args.num("ratio", 0.01)?;
    if adapt_on && !(ratio > 0.0 && ratio < 1.0) {
        return Err(CliError::Usage(format!(
            "--ratio must be in (0, 1) under --adapt, got {ratio}"
        )));
    }
    let threshold: f32 = match (threshold_flag, &val) {
        (Some(t), _) => t,
        (None, Some(v)) => threshold_for_ratio(&det.score(v), ratio),
        (None, None) => {
            return Err(CliError::Usage(
                "serve needs --threshold or --val (to derive one at --ratio)".into(),
            ))
        }
    };

    let mut cfg = ServingConfig::new(threshold, hop);
    cfg.precision = precision;
    if adapt_on {
        cfg.adaptation = AdaptationConfig {
            target_ratio: ratio as f32,
            finetune: args.has("adapt-finetune"),
            ..AdaptationConfig::enabled()
        };
    }
    let mut engine = ServingEngine::new(det, cfg);
    if let Some(snap) = &resumed {
        engine.resume_adaptive(snap);
        println!(
            "resumed adaptive state: δ {:.6}, {} prior recalibration(s), cadence ×{}",
            snap.threshold, snap.recalibrations, snap.cadence_mult
        );
    }
    if metrics_on {
        // Turn the registry on and publish the serving executor so its
        // dispatch/pool counters appear in the exports alongside the
        // serve.* instruments.
        engine.detector().executor().register_obs(tfmae_obs::global());
        tfmae_obs::set_enabled(true);
    }
    if let Some(v) = &val {
        engine.calibrate(v);
    }
    let ids: Vec<usize> = (0..streams_data.len()).map(|_| engine.add_stream()).collect();

    // Replay: one tick interleaves the next row of every still-live stream.
    // Tick latency goes straight into a registered histogram (ungated — the
    // summary line below needs it even without the metrics flags).
    let tick_hist = tfmae_obs::global().histogram("serve.tick_ns");
    let max_len = streams_data.iter().map(|s| s.len()).max().unwrap_or(0);
    let mut per_stream: Vec<Vec<tfmae_core::ServingVerdict>> =
        vec![Vec::new(); streams_data.len()];
    let started = std::time::Instant::now();
    for t in 0..max_len {
        let rows: Vec<(usize, &[f32])> = ids
            .iter()
            .filter(|&&id| t < streams_data[id].len())
            .map(|&id| (id, streams_data[id].row(t)))
            .collect();
        let tick_started = std::time::Instant::now();
        let out = engine.tick(&rows);
        let elapsed = tick_started.elapsed().as_nanos();
        if !out.verdicts.is_empty() {
            tick_hist.record(u64::try_from(elapsed).unwrap_or(u64::MAX));
            if metrics_on && tick_hist.count().is_multiple_of(METRICS_FLUSH_EVERY) {
                write_metrics(metrics_out.as_ref(), metrics_prom.as_ref())?;
            }
        }
        // Every replayed id was registered above, so rejections here mean a
        // CLI bug, not operator error — surface loudly rather than dropping.
        for r in &out.rejections {
            eprintln!("warning: row for stream {} rejected: {:?}", r.stream, r.reason);
        }
        for v in out.verdicts {
            per_stream[v.stream].push(v);
        }
    }
    let total_secs = started.elapsed().as_secs_f64();

    let total_rows: usize = streams_data.iter().map(|s| s.len()).sum();
    let total_verdicts: usize = per_stream.iter().map(|v| v.len()).sum();
    let anomalies: usize = per_stream
        .iter()
        .flat_map(|v| v.iter())
        .filter(|v| v.verdict.is_anomaly)
        .count();
    let ticks = tick_hist.snapshot();
    println!(
        "served {} stream(s): {total_rows} rows, {total_verdicts} verdicts, \
         {anomalies} anomalies (threshold δ = {threshold:.6}, hop {hop}, precision {precision}, \
         incremental, kernels {})",
        streams_data.len(),
        tfmae::tensor::kernel_isa()
    );
    println!(
        "throughput {:.0} rows/s; scoring ticks: {} at p50 {:.2} ms, p99 {:.2} ms",
        total_rows as f64 / total_secs.max(1e-9),
        ticks.count,
        ticks.quantile(0.50) as f64 / 1e6,
        ticks.quantile(0.99) as f64 / 1e6,
    );
    if adapt_on {
        let st = engine.adaptation_stats();
        println!(
            "adaptation: δ {:.6} (started at {threshold:.6}), {} recalibration(s), \
             {} fine-tune update(s) over {} step(s), {} rollback(s), cadence ×{}",
            st.threshold,
            st.recalibrations,
            st.finetune_updates,
            st.finetune_steps,
            st.rollbacks,
            st.cadence_mult,
        );
    }
    for &id in &ids {
        let h = engine.health(id);
        if h.imputed_rows > 0 || h.degraded_rows > 0 || h.quarantine_entries > 0 {
            eprintln!(
                "warning: stream {id} faults: {} imputed, {} degraded, {} quarantined row(s), {} quarantine entr(ies)",
                h.imputed_rows, h.degraded_rows, h.quarantined_rows, h.quarantine_entries
            );
        }
    }

    if let Some(dir) = args.get("out-dir") {
        use std::io::Write as _;
        let dir = PathBuf::from(dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| CliError::Data(format!("{}: {e}", dir.display())))?;
        for &id in &ids {
            let path = dir.join(format!("stream_{id}.csv"));
            let mut f = std::io::BufWriter::new(
                std::fs::File::create(&path).map_err(|e| CliError::Data(e.to_string()))?,
            );
            let write = (|| -> std::io::Result<()> {
                writeln!(f, "{}", StreamVerdict::CSV_HEADER)?;
                for v in &per_stream[id] {
                    writeln!(f, "{}", v.verdict)?;
                }
                f.flush()
            })();
            write.map_err(|e| CliError::Data(format!("{}: {e}", path.display())))?;
        }
        println!("wrote per-stream verdicts to {}", dir.display());
    }

    if let Some(path) = &adapt_save {
        let snap = engine.adaptive_snapshot();
        engine
            .detector()
            .save_with_adaptive(path, Some(&snap))
            .map_err(|e| CliError::Checkpoint(format!("{}: {e}", path.display())))?;
        println!("wrote adapted model + adaptive state to {}", path.display());
    }

    if metrics_on {
        write_metrics(metrics_out.as_ref(), metrics_prom.as_ref())?;
        for p in [&metrics_out, &metrics_prom].into_iter().flatten() {
            println!("wrote metrics to {}", p.display());
        }
    }
    Ok(())
}

/// `tfmae server` — run the network serving front-end until a drain
/// completes (SIGTERM/SIGINT or `POST /v1/shutdown`).
fn cmd_server(args: &Args) -> Result<(), CliError> {
    let listen = args.require("listen")?;
    let registry = PathBuf::from(args.require("registry")?);
    let mut cfg = tfmae_server::ServerConfig::new(listen, registry);
    cfg.workers = args.num("workers", cfg.workers)?;
    cfg.queue_cap = args.num("queue-cap", cfg.queue_cap)?;
    cfg.max_body = args.num("max-body", cfg.max_body)?;
    cfg.drain_grace = std::time::Duration::from_secs(args.num("drain-grace-secs", 5u64)?);
    cfg.validate().map_err(CliError::Usage)?;
    tfmae_server::install_term_handler();
    let registry_display = cfg.registry.display().to_string();
    let handle = tfmae_server::Server::start(cfg)
        .map_err(|e| CliError::Data(format!("server start: {e}")))?;
    println!(
        "tfmae server listening on {} (registry {registry_display}; SIGTERM or POST /v1/shutdown drains)",
        handle.addr()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let report = handle.join();
    println!(
        "drain complete: {} rows scored, {} verdicts delivered, {} unpolled, {} rows rejected",
        report.rows_scored,
        report.verdicts_delivered,
        report.verdicts_unpolled,
        report.rejected_rows
    );
    Ok(())
}

/// `tfmae models ls` — list registry checkpoints without loading them.
fn cmd_models(sub: Option<&str>, args: &Args) -> Result<(), CliError> {
    match sub {
        Some("ls") => {
            let dir = PathBuf::from(args.require("registry")?);
            let entries = tfmae_server::scan_registry(&dir)
                .map_err(|e| CliError::Data(format!("{}: {e}", dir.display())))?;
            print!("{}", tfmae_server::models_table(&entries));
            Ok(())
        }
        _ => Err(CliError::Usage("usage: tfmae models ls --registry DIR".into())),
    }
}

/// The flags each command takes; [`Args::check`] refuses any other, so a
/// mistyped or retired flag is a usage error instead of silently ignored.
/// `None` for `help` and unknown commands, which are not checked.
fn command_flags(cmd: &str) -> Option<&'static [&'static str]> {
    Some(match cmd {
        "simulate" => &["dataset", "divisor", "seed", "out-dir"],
        "train" => &[
            "train", "val", "model", "lenient", "epochs", "win", "d-model", "layers", "rt", "rf",
            "patch-len", "seed",
        ],
        "score" => &["model", "input", "out", "lenient"],
        "evaluate" => &["model", "input", "val", "ratio", "lenient"],
        "quantize" => &["model", "out", "precision"],
        "serve" => &[
            "model", "input", "threshold", "val", "ratio", "hop", "precision", "out-dir",
            "lenient", "metrics-out", "metrics-prom", "adapt", "adapt-finetune", "adapt-save",
        ],
        "server" => &["listen", "registry", "workers", "queue-cap", "max-body", "drain-grace-secs"],
        "models" => &["registry"],
        _ => return None,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first().map(String::as_str) else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let args = Args::parse(&argv[1..]);
    let checked = command_flags(cmd).map_or(Ok(()), |known| args.check(known));
    let result = checked.and_then(|()| match cmd {
        "simulate" => cmd_simulate(&args),
        "train" => cmd_train(&args),
        "score" => cmd_score(&args),
        "evaluate" => cmd_evaluate(&args),
        "quantize" => cmd_quantize(&args),
        "serve" => cmd_serve(&args),
        "server" => cmd_server(&args),
        "models" => cmd_models(argv.get(1).map(String::as_str), &args),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command {other:?}\n\n{}", usage()))),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message());
            ExitCode::from(e.exit_code())
        }
    }
}
