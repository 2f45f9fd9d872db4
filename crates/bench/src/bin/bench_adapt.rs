//! Degradation-scheme evaluation harness for drift-adaptive serving:
//! replays regime-shifted streams through a frozen-threshold engine and a
//! drift-adapting engine on *identical* data and writes `BENCH_adapt.json`.
//!
//! ```text
//! cargo run --release -p tfmae-bench --bin bench_adapt -- \
//!     [--quick] [--assert-improvement] [--out BENCH_adapt.json] [--threads N]
//! ```
//!
//! Schemes, each a labeled anomaly-detection problem over one stream:
//!
//! * One scheme per injector of the standard degradation battery
//!   (`tfmae_tests::faults::regime_shift_battery`): the stream starts in
//!   the training domain and switches regime at `onset` — level shift,
//!   variance scale-up, slow trend ramp, stuck-sensor plateau (`--quick`
//!   keeps the level shift only).
//! * `rotation_a_to_b` — cross-domain rotation: the detector is trained on
//!   simulator family A (period-16 sine) and from `onset` onward serves
//!   family B (period-24 sine + trend, different noise floor), the
//!   AnomalyBERT-style "train on one domain, serve another" protocol.
//!
//! Ground truth is a sparse spike train injected *after* the shift (two
//! +5.0 rows every 100), so labels stay detectable in both regimes and the
//! regime change itself is unlabeled drift — exactly the case where a
//! frozen Eq. 17 threshold floods the operator with false positives.
//!
//! Both engines share δ (validation quantile at ratio 0.02, Eq. 17),
//! per-stream calibration constants, and the replayed rows; the adapted
//! engine additionally runs the `tfmae-core` adaptation loop (rolling
//! quantile recalibration + guarded background fine-tune + rollback guard
//! band). Reported per scheme:
//!
//! * Point-adjusted F1 on the pre-shift and post-shift segments, frozen vs
//!   adapted — the acceptance contract is adapted ≥ frozen on the shifted
//!   segment (`--assert-improvement` exits non-zero otherwise).
//! * False-positive rate on non-anomalous post-shift rows, and the
//!   **adaptation half-life**: rows after onset until the per-bucket FP
//!   rate first falls to half its initial post-shift value (−1 = never
//!   within the run; 0 = never elevated).
//! * The adapted engine's loop counters (recalibrations, fine-tune
//!   updates, rollbacks, final δ).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tfmae_bench::{usage_error, Args};
use tfmae_core::{
    AdaptationConfig, ServingConfig, ServingEngine, TfmaeConfig, TfmaeDetector,
};
use tfmae_data::{render, Component, Detector, TimeSeries};
use tfmae_metrics::{point_adjust, threshold_for_ratio, Prf};
use tfmae_tensor::Executor;
use tfmae_tests::faults::{regime_shift_battery, shift_regime};

const RATIO: f64 = 0.02;
const HOP: usize = 2;
const SPIKE_EVERY: usize = 100;
const SPIKE_LEN: usize = 2;
const SPIKE_AMP: f32 = 5.0;
const FP_BUCKET: usize = 64;

fn family_a(len: usize, seed: u64) -> TimeSeries {
    let mut rng = StdRng::seed_from_u64(seed);
    let ch = render(
        &[
            Component::Sine { period: 16.0, amp: 1.0, phase: 0.0 },
            Component::Noise { sigma: 0.05 },
        ],
        len,
        &mut rng,
    );
    TimeSeries::from_channels(&[ch])
}

fn family_b(len: usize, seed: u64) -> TimeSeries {
    let mut rng = StdRng::seed_from_u64(seed);
    let ch = render(
        &[
            Component::Sine { period: 24.0, amp: 0.8, phase: 0.7 },
            Component::Trend { slope: 0.001 },
            Component::Noise { sigma: 0.08 },
        ],
        len,
        &mut rng,
    );
    TimeSeries::from_channels(&[ch])
}

/// One serve stream with its ground truth: `labels[t] == 1` on injected
/// spike rows; everything else (including the regime shift) is unlabeled.
struct Stream {
    data: TimeSeries,
    labels: Vec<u8>,
}

/// Injects the spike train into `data` from `start` onward and returns the
/// labels. Spikes ride on top of whatever regime the row is in.
fn inject_spikes(data: &mut TimeSeries, start: usize) -> Vec<u8> {
    let len = data.len();
    let mut labels = vec![0u8; len];
    let mut t = start;
    while t + SPIKE_LEN <= len {
        for k in 0..SPIKE_LEN {
            for n in 0..data.dims() {
                let v = data.row(t + k)[n];
                data.set(t + k, n, v + SPIKE_AMP);
            }
            labels[t + k] = 1;
        }
        t += SPIKE_EVERY;
    }
    labels
}

/// In-domain stream that switches regime at `onset` via `shift`.
fn shifted_stream(
    shift: tfmae_data::RegimeShift,
    len: usize,
    onset: usize,
    seed: u64,
) -> Stream {
    let mut data = family_a(len, seed);
    shift_regime(&mut data, onset, shift);
    let labels = inject_spikes(&mut data, 64);
    Stream { data, labels }
}

/// Cross-domain rotation: family A rows before `onset`, family B after.
fn rotation_stream(len: usize, onset: usize, seed: u64) -> Stream {
    let a = family_a(len, seed);
    let b = family_b(len, seed ^ 0xb);
    let mut ch = Vec::with_capacity(len);
    for t in 0..len {
        ch.push(if t < onset { a.row(t)[0] } else { b.row(t)[0] });
    }
    let mut data = TimeSeries::from_channels(&[ch]);
    let labels = inject_spikes(&mut data, 64);
    Stream { data, labels }
}

fn segment_f1(pred: &[u8], labels: &[u8], lo: usize, hi: usize) -> f64 {
    let p = &pred[lo..hi];
    let l = &labels[lo..hi];
    Prf::from_predictions(&point_adjust(p, l), l).f1
}

/// FP rate over non-anomalous rows of `[lo, hi)`.
fn fp_rate(pred: &[u8], labels: &[u8], lo: usize, hi: usize) -> f64 {
    let mut fp = 0usize;
    let mut neg = 0usize;
    for t in lo..hi {
        if labels[t] == 0 {
            neg += 1;
            fp += usize::from(pred[t] == 1);
        }
    }
    fp as f64 / neg.max(1) as f64
}

/// Rows after `onset` until the per-bucket FP rate first drops to half of
/// its initial post-shift value. 0 = never elevated, −1 = never halved.
fn half_life_rows(pred: &[u8], labels: &[u8], onset: usize, len: usize) -> i64 {
    let first = fp_rate(pred, labels, onset, (onset + FP_BUCKET).min(len));
    if first <= 0.0 {
        return 0;
    }
    let mut lo = onset + FP_BUCKET;
    while lo < len {
        let hi = (lo + FP_BUCKET).min(len);
        if fp_rate(pred, labels, lo, hi) <= first / 2.0 {
            return (lo - onset + FP_BUCKET / 2) as i64;
        }
        lo += FP_BUCKET;
    }
    -1
}

struct SchemeResult {
    name: String,
    onset: usize,
    len: usize,
    frozen_pre_f1: f64,
    adapted_pre_f1: f64,
    frozen_post_f1: f64,
    adapted_post_f1: f64,
    frozen_post_fp: f64,
    adapted_post_fp: f64,
    frozen_half_life: i64,
    adapted_half_life: i64,
    recalibrations: u64,
    finetune_updates: u64,
    rollbacks: u64,
    delta_start: f32,
    delta_end: f32,
}

fn run_scheme(
    name: &str,
    det: &TfmaeDetector,
    exec: &Arc<Executor>,
    val: &TimeSeries,
    delta: f32,
    stream: &Stream,
    onset: usize,
) -> SchemeResult {
    let win = det.cfg.win_len;
    let len = stream.data.len();
    let make = |adapted: bool| -> ServingEngine {
        let mut cfg = ServingConfig::new(delta, HOP);
        if adapted {
            cfg.adaptation = AdaptationConfig { finetune: true, ..AdaptationConfig::enabled() };
        }
        let mut r = TfmaeDetector::from_checkpoint(det.to_checkpoint().expect("fitted"))
            .expect("checkpoint roundtrip");
        r.set_executor(exec.clone());
        ServingEngine::new(r, cfg)
    };
    let (frozen_pred, _frozen) = replay_calibrated(make(false), val, stream);
    let (adapted_pred, adapted_eng) = replay_calibrated(make(true), val, stream);

    let stats = adapted_eng.adaptation_stats().clone();
    SchemeResult {
        name: name.to_string(),
        onset,
        len,
        frozen_pre_f1: segment_f1(&frozen_pred, &stream.labels, win, onset),
        adapted_pre_f1: segment_f1(&adapted_pred, &stream.labels, win, onset),
        frozen_post_f1: segment_f1(&frozen_pred, &stream.labels, onset, len),
        adapted_post_f1: segment_f1(&adapted_pred, &stream.labels, onset, len),
        frozen_post_fp: fp_rate(&frozen_pred, &stream.labels, onset, len),
        adapted_post_fp: fp_rate(&adapted_pred, &stream.labels, onset, len),
        frozen_half_life: half_life_rows(&frozen_pred, &stream.labels, onset, len),
        adapted_half_life: half_life_rows(&adapted_pred, &stream.labels, onset, len),
        recalibrations: stats.recalibrations,
        finetune_updates: stats.finetune_updates,
        rollbacks: stats.rollbacks,
        delta_start: delta,
        delta_end: adapted_eng.effective_threshold(),
    }
}

fn replay_calibrated(
    mut eng: ServingEngine,
    val: &TimeSeries,
    stream: &Stream,
) -> (Vec<u8>, ServingEngine) {
    eng.calibrate(val);
    let id = eng.add_stream();
    let mut pred = vec![0u8; stream.data.len()];
    for t in 0..stream.data.len() {
        for v in eng.tick(&[(id, stream.data.row(t))]).verdicts {
            if v.verdict.is_anomaly {
                if let Ok(i) = usize::try_from(v.verdict.t) {
                    if i < pred.len() {
                        pred[i] = 1;
                    }
                }
            }
        }
    }
    (pred, eng)
}

fn render_json(cfg: &TfmaeConfig, delta: f32, quick: bool, results: &[SchemeResult]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(
        out,
        "  \"model\": {{\"win_len\": {}, \"d_model\": {}, \"layers\": {}, \"hop\": {HOP}}},",
        cfg.win_len, cfg.d_model, cfg.layers
    );
    let _ = writeln!(
        out,
        "  \"protocol\": {{\"ratio\": {RATIO}, \"delta\": {delta:.6}, \"quick\": {quick}, \
         \"spike_every\": {SPIKE_EVERY}, \"spike_amp\": {SPIKE_AMP}, \"fp_bucket\": {FP_BUCKET}}},"
    );
    let _ = writeln!(out, "  \"schemes\": [");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"onset\": {}, \"len\": {}, \
             \"pre\": {{\"frozen_f1\": {:.4}, \"adapted_f1\": {:.4}}}, \
             \"post\": {{\"frozen_f1\": {:.4}, \"adapted_f1\": {:.4}, \
             \"frozen_fp_rate\": {:.4}, \"adapted_fp_rate\": {:.4}, \
             \"frozen_half_life_rows\": {}, \"adapted_half_life_rows\": {}}}, \
             \"adapted_loop\": {{\"recalibrations\": {}, \"finetune_updates\": {}, \
             \"rollbacks\": {}, \"delta_start\": {:.6}, \"delta_end\": {:.6}}}}}{comma}",
            r.name,
            r.onset,
            r.len,
            r.frozen_pre_f1,
            r.adapted_pre_f1,
            r.frozen_post_f1,
            r.adapted_post_f1,
            r.frozen_post_fp,
            r.adapted_post_fp,
            r.frozen_half_life,
            r.adapted_half_life,
            r.recalibrations,
            r.finetune_updates,
            r.rollbacks,
            r.delta_start,
            r.delta_end,
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

fn main() {
    let mut quick = false;
    let mut assert_improvement = false;
    let mut out_path = "BENCH_adapt.json".to_string();
    let mut threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut args = Args::from_env();
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--assert-improvement" => assert_improvement = true,
            "--out" => out_path = args.value(&flag),
            "--threads" => threads = args.value(&flag),
            _ => usage_error(&format!("unknown flag {flag}")),
        }
    }

    let exec = Arc::new(if threads <= 1 {
        Executor::serial()
    } else {
        Executor::with_threads(threads)
    });

    // Train on family A. `tiny` keeps the harness CI-speed; the measurement
    // is frozen-vs-adapted on identical data, not absolute model quality.
    let mut det = TfmaeDetector::new(TfmaeConfig { epochs: 4, ..TfmaeConfig::tiny() });
    det.set_executor(exec.clone());
    let train = family_a(768, 1);
    det.fit(&train, &train);
    let val = family_a(256, 2);
    let delta = threshold_for_ratio(&det.score(&val), RATIO);
    println!("δ (Eq. 17, ratio {RATIO}) = {delta:.4}");

    let (onset, post) = if quick { (256, 384) } else { (384, 768) };
    let len = onset + post;
    let mut schemes: Vec<(String, Stream)> = Vec::new();
    let battery = regime_shift_battery();
    let injectors = if quick { &battery[..1] } else { &battery[..] };
    for (seed, (name, shift)) in injectors.iter().enumerate() {
        schemes.push((
            (*name).to_string(),
            shifted_stream(*shift, len, onset, 40 + seed as u64),
        ));
    }
    schemes.push(("rotation_a_to_b".to_string(), rotation_stream(len, onset, 60)));

    let mut results = Vec::new();
    for (name, stream) in &schemes {
        let r = run_scheme(name, &det, &exec, &val, delta, stream, onset);
        println!(
            "{name}: post-shift F1 frozen {:.3} → adapted {:.3} | FP rate {:.3} → {:.3} | \
             half-life {} → {} rows | loop: {} recals, {} tunes, {} rollbacks, δ {:.3} → {:.3}",
            r.frozen_post_f1,
            r.adapted_post_f1,
            r.frozen_post_fp,
            r.adapted_post_fp,
            r.frozen_half_life,
            r.adapted_half_life,
            r.recalibrations,
            r.finetune_updates,
            r.rollbacks,
            r.delta_start,
            r.delta_end,
        );
        results.push(r);
    }

    let json = render_json(&det.cfg, delta, quick, &results);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("could not write {out_path}: {e}");
    } else {
        println!("[json] {out_path}");
    }

    if assert_improvement {
        let mut ok = true;
        for r in &results {
            if r.adapted_post_f1 + 1e-9 < r.frozen_post_f1 {
                eprintln!(
                    "FAIL {}: adapted post-shift F1 {:.4} < frozen {:.4}",
                    r.name, r.adapted_post_f1, r.frozen_post_f1
                );
                ok = false;
            }
        }
        if !ok {
            std::process::exit(1);
        }
        println!("assert-improvement: adapted ≥ frozen on every shifted segment");
    }
}
