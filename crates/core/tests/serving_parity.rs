//! Parity suite for the multi-stream serving engine.
//!
//! Three contracts, in increasing strictness:
//!
//! 1. **Incremental ≈ from-scratch** — the masks come from rolling
//!    statistics and a sliding DFT that are exactly re-seeded every 64
//!    scored hops; a long-lived engine's verdict scores must stay within
//!    1e-5 of fresh engines that each see one window *between* refreshes
//!    and match them bitwise *on* refresh hops. A refresh hop's masks are
//!    the batch path's bit for bit, and the cadence itself is pinned on
//!    the f64 spectra, whose drift stays below f32 rounding here (unit
//!    tests in `serving.rs`).
//! 2. **Batched = solo** — N streams ticked through one engine must agree
//!    bitwise with N independent single-stream engines: the forward kernels
//!    are batch-invariant, so a window scores the same bits in any chunk.
//! 3. **Thread invariance** — the whole verdict trace is bitwise identical
//!    at executor threads 1/2/4, which set both the scoring lanes and the
//!    ingest fan-out.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tfmae_core::{
    AdaptationConfig, DataQuality, Precision, RowRejection, ServingConfig, ServingEngine,
    ServingVerdict, StreamVerdict, TfmaeConfig, TfmaeDetector,
};
use tfmae_data::{render, Component, Detector, TimeSeries};
use tfmae_tensor::Executor;

fn series(len: usize, seed: u64) -> TimeSeries {
    let mut rng = StdRng::seed_from_u64(seed);
    let ch = render(
        &[
            Component::Sine { period: 16.0, amp: 1.0, phase: 0.0 },
            Component::Trend { slope: 0.002 },
            Component::Noise { sigma: 0.05 },
        ],
        len,
        &mut rng,
    );
    TimeSeries::from_channels(&[ch])
}

fn fitted() -> TfmaeDetector {
    let train = series(512, 1);
    let mut det = TfmaeDetector::new(TfmaeConfig { epochs: 4, ..TfmaeConfig::tiny() });
    det.fit(&train, &train);
    det
}

fn replicate(det: &TfmaeDetector) -> TfmaeDetector {
    TfmaeDetector::from_checkpoint(det.to_checkpoint().expect("fitted")).expect("roundtrip")
}

/// Ticks one row through one stream, returning its verdicts.
fn push(eng: &mut ServingEngine, id: usize, row: &[f32]) -> Vec<StreamVerdict> {
    eng.tick(&[(id, row)]).verdicts.into_iter().map(|v| v.verdict).collect()
}

/// Runs one single-stream engine over `data`, returning flat verdicts.
fn run_engine(det: TfmaeDetector, cfg: ServingConfig, data: &TimeSeries) -> Vec<StreamVerdict> {
    let mut eng = ServingEngine::new(det, cfg);
    let id = eng.add_stream();
    (0..data.len()).flat_map(|t| push(&mut eng, id, data.row(t))).collect()
}

/// The engine's fixed exact re-seed cadence in scored hops
/// (`REFRESH_EVERY` in `serving.rs`).
const REFRESH_EVERY: usize = 64;

/// Verdicts of one fresh single-stream engine per hop, each fed only the
/// `win_len` rows of that hop's window, so no state crosses hops and every
/// window is its engine's first: a refresh hop.
fn fresh_engine_per_window(det: &TfmaeDetector, hop: usize, data: &TimeSeries) -> Vec<StreamVerdict> {
    let win = det.cfg.win_len;
    let mut out = Vec::new();
    for end in (win..=data.len()).step_by(hop) {
        let mut eng = ServingEngine::new(replicate(det), ServingConfig::new(f32::MAX, hop));
        let id = eng.add_stream();
        for t in end - win..end {
            let shift = (end - win) as u64;
            out.extend(push(&mut eng, id, data.row(t)).into_iter().map(|v| StreamVerdict { t: v.t + shift, ..v }));
        }
    }
    out
}

/// Serves `data` through one long-lived engine at `hop` and holds it to
/// [`fresh_engine_per_window`]: bitwise on the engine's own refresh hops
/// (hop k, 0-based, re-seeds iff `k % REFRESH_EVERY == 0`: the counter
/// starts at 0 after warm-up and resets on each refresh), and within 1e-5
/// on the drifting hops between them. `data` must cover at least three
/// refresh hops.
fn assert_tracks_fresh_engines(det: &TfmaeDetector, hop: usize, data: &TimeSeries) {
    let inc = run_engine(replicate(det), ServingConfig::new(f32::MAX, hop), data);
    let scratch = fresh_engine_per_window(det, hop, data);
    assert_eq!(inc.len(), scratch.len());
    let mut refresh_hops = 0;
    for (k, (av, bv)) in inc.chunks(hop).zip(scratch.chunks(hop)).enumerate() {
        let refresh = k % REFRESH_EVERY == 0;
        refresh_hops += usize::from(refresh);
        for (a, b) in av.iter().zip(bv) {
            assert_eq!(a.t, b.t);
            assert_eq!(a.quality, b.quality);
            if refresh {
                assert_eq!(
                    a.score.to_bits(),
                    b.score.to_bits(),
                    "refresh hop {k} t={} must be bitwise",
                    a.t
                );
            } else {
                assert!(
                    (a.score - b.score).abs() <= 1e-5,
                    "hop {k} t={}: incremental {} vs from-scratch {} drifted past 1e-5",
                    a.t,
                    a.score,
                    b.score
                );
            }
        }
    }
    assert!(refresh_hops >= 3, "run must cover three refresh hops, got {refresh_hops}");
}

/// Rows that give `hops` scored hops at `hop`: the first window, then `hop`
/// rows for each further hop.
fn rows_for_hops(det: &TfmaeDetector, hop: usize, hops: usize) -> usize {
    det.cfg.win_len + hop * (hops - 1)
}

#[test]
fn incremental_tracks_from_scratch_within_1e5_across_refresh_cadence() {
    // Overlapping hops: every refresh period slides the rolling state 126
    // samples deep before the next exact re-seed.
    let det = fitted();
    let data = series(rows_for_hops(&det, 2, 2 * REFRESH_EVERY + 8), 42);
    assert_tracks_fresh_engines(&det, 2, &data);
}

#[test]
fn refresh_hops_are_bitwise_identical_to_from_scratch() {
    let det = fitted();
    let data = series(rows_for_hops(&det, 4, 2 * REFRESH_EVERY + 1), 43);
    assert_tracks_fresh_engines(&det, 4, &data);
}

fn fitted_patched(patch_len: usize) -> TfmaeDetector {
    let train = series(512, 1);
    let mut det =
        TfmaeDetector::new(TfmaeConfig { epochs: 4, patch_len, ..TfmaeConfig::tiny() });
    det.fit(&train, &train);
    det
}

#[test]
fn patched_incremental_tracks_from_scratch() {
    // Same contract as the unpatched suite, at P = 4: rolling statistics
    // stay at row resolution and are folded to patch tokens only at mask
    // selection.
    let det = fitted_patched(4);
    let data = series(rows_for_hops(&det, 2, 2 * REFRESH_EVERY + 8), 142);
    assert_tracks_fresh_engines(&det, 2, &data);
}

#[test]
fn patched_refresh_hops_are_bitwise_identical_to_from_scratch() {
    let det = fitted_patched(4);
    let data = series(rows_for_hops(&det, 3, 2 * REFRESH_EVERY + 1), 143);
    assert_tracks_fresh_engines(&det, 3, &data);
}

#[test]
fn patched_batched_multi_stream_agrees_with_solo() {
    let det = fitted_patched(4);
    let win = det.cfg.win_len;
    let n_streams = 4;
    let len = win * 2 + 12;
    let datas: Vec<TimeSeries> =
        (0..n_streams).map(|sid| series(len, 300 + sid as u64)).collect();

    let mut solo: Vec<Vec<StreamVerdict>> = Vec::new();
    for data in &datas {
        solo.push(run_engine(replicate(&det), ServingConfig::new(f32::MAX, 3), data));
    }

    // Two lanes: the four windows due per hop chunk as
    // `chunk_sizes(4, 2, 16) == [2, 2]`.
    let mut det = det;
    det.set_executor(Arc::new(Executor::with_threads(2)));
    let mut eng = ServingEngine::new(det, ServingConfig::new(f32::MAX, 3));
    let ids: Vec<usize> = (0..n_streams).map(|_| eng.add_stream()).collect();
    let mut batched: Vec<Vec<StreamVerdict>> = vec![Vec::new(); n_streams];
    for t in 0..len {
        let rows: Vec<(usize, &[f32])> =
            ids.iter().map(|&id| (id, datas[id].row(t))).collect();
        for v in eng.tick(&rows).verdicts {
            batched[v.stream].push(v.verdict);
        }
    }

    for sid in 0..n_streams {
        assert_eq!(solo[sid].len(), batched[sid].len(), "stream {sid}");
        assert!(!solo[sid].is_empty());
        for (a, b) in solo[sid].iter().zip(batched[sid].iter()) {
            assert_eq!(a.t, b.t);
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "stream {sid} t={}: batched {} vs solo {}",
                a.t,
                b.score,
                a.score
            );
        }
    }
}

#[test]
fn patched_checkpoint_roundtrip_preserves_serving_verdicts() {
    // `replicate` rebuilds the detector from its checkpoint value; at P > 1
    // the restored engine must serve identical verdict bits.
    let det = fitted_patched(8);
    let win = det.cfg.win_len;
    let data = series(win * 2 + 8, 144);
    let cfg = ServingConfig::new(f32::MAX, 4);

    let restored = replicate(&det);
    assert_eq!(restored.cfg.patch_len, 8);
    let original = run_engine(det, cfg.clone(), &data);
    let roundtripped = run_engine(restored, cfg, &data);
    assert_eq!(original.len(), roundtripped.len());
    assert!(!original.is_empty());
    for (a, b) in original.iter().zip(roundtripped.iter()) {
        assert_eq!(a, b, "checkpoint roundtrip must preserve patched verdict bits");
    }
}

#[test]
fn batched_multi_stream_agrees_with_solo_over_long_run() {
    let det = fitted();
    let win = det.cfg.win_len;
    let n_streams = 4;
    let len = win * 2 + 12;
    let datas: Vec<TimeSeries> =
        (0..n_streams).map(|sid| series(len, 200 + sid as u64)).collect();

    let mut solo: Vec<Vec<StreamVerdict>> = Vec::new();
    for data in &datas {
        solo.push(run_engine(replicate(&det), ServingConfig::new(f32::MAX, 3), data));
    }

    // Two lanes, so the four windows due per hop score in B > 1 chunks
    // (`chunk_sizes(4, 2, 16) == [2, 2]`) that must match solo runs bitwise.
    let mut det = det;
    det.set_executor(Arc::new(Executor::with_threads(2)));
    let mut eng = ServingEngine::new(det, ServingConfig::new(f32::MAX, 3));
    let ids: Vec<usize> = (0..n_streams).map(|_| eng.add_stream()).collect();
    let mut batched: Vec<Vec<StreamVerdict>> = vec![Vec::new(); n_streams];
    for t in 0..len {
        let rows: Vec<(usize, &[f32])> =
            ids.iter().map(|&id| (id, datas[id].row(t))).collect();
        for v in eng.tick(&rows).verdicts {
            batched[v.stream].push(v.verdict);
        }
    }

    for sid in 0..n_streams {
        assert_eq!(solo[sid].len(), batched[sid].len(), "stream {sid}");
        assert!(!solo[sid].is_empty());
        for (a, b) in solo[sid].iter().zip(batched[sid].iter()) {
            assert_eq!(a.t, b.t);
            assert_eq!(a.quality, b.quality);
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "stream {sid} t={}: batched {} vs solo {}",
                a.t,
                b.score,
                a.score
            );
        }
    }
}

#[test]
fn verdicts_are_bitwise_identical_with_observability_on_and_off() {
    // The observability layer must be a pure observer: turning the global
    // registry on changes no verdict bit. (Toggling the switch here is safe
    // alongside the other tests in this binary — recording never feeds back
    // into scoring, which is exactly what this test proves.)
    let det = fitted();
    let win = det.cfg.win_len;
    let data = series(win * 2 + 10, 49);
    let cfg = ServingConfig::new(f32::MAX, 3);

    tfmae_obs::set_enabled(true);
    let with_obs = run_engine(replicate(&det), cfg.clone(), &data);
    let rows_recorded = tfmae_obs::global()
        .instruments()
        .iter()
        .any(|(name, inst)| {
            *name == "serve.rows"
                && matches!(inst, tfmae_obs::Instrument::Counter(c) if c.get() > 0)
        });
    tfmae_obs::set_enabled(false);
    let without_obs = run_engine(det, cfg, &data);

    assert!(rows_recorded, "enabled run must have recorded serve.rows");
    assert_eq!(with_obs.len(), without_obs.len());
    assert!(!with_obs.is_empty());
    for (a, b) in with_obs.iter().zip(without_obs.iter()) {
        assert_eq!(a, b, "metrics on/off must not change any verdict bit");
    }
}

#[test]
fn adaptation_disabled_is_bitwise_identical_to_the_frozen_engine() {
    // The drift-adaptation plumbing (calibration holdoff bookkeeping, score
    // window feeds, probation accounting) rides along every ingest/flush.
    // With `adaptation.enabled == false` — the default — none of it may
    // change a single verdict bit, even through a quarantine cycle. An
    // *enabled* config that never gets to recalibrate must also match: δ
    // only moves on an applied recalibration, and this run's clean scores
    // stay below the engine's 64-score minimum for one.
    let det = fitted();
    let win = det.cfg.win_len;
    let data = series(win * 3, 50);
    // A 24-row NaN storm: 8 imputed rows, then Degraded ones, quarantine at
    // the 16th bad row, then recovery — exercises the post-quarantine
    // holdoff path.
    let faulty_row = |t: usize| -> Option<Vec<f32>> {
        (t >= win && t < win + 24).then(|| vec![f32::NAN])
    };
    let run = |det: TfmaeDetector, adaptation: AdaptationConfig| -> Vec<StreamVerdict> {
        let mut cfg = ServingConfig::new(f32::MAX, 2);
        cfg.adaptation = adaptation;
        let mut eng = ServingEngine::new(det, cfg);
        let id = eng.add_stream();
        let mut out = Vec::new();
        for t in 0..data.len() {
            let row = faulty_row(t).unwrap_or_else(|| data.row(t).to_vec());
            out.extend(push(&mut eng, id, &row));
        }
        assert_eq!(eng.health(id).quarantine_entries, 1, "storm must quarantine");
        assert_eq!(eng.adaptation_stats().recalibrations, 0, "δ must never move");
        out
    };

    let frozen = run(replicate(&det), AdaptationConfig::default());
    assert!(frozen.iter().any(|v| v.quality == DataQuality::Degraded), "storm must bite");
    assert!(frozen.iter().any(|v| v.quality == DataQuality::Imputed), "storm starts imputed");

    // Disabled, but with every setting moved off its default.
    let knobs =
        AdaptationConfig { target_ratio: 0.3, finetune: true, ..AdaptationConfig::default() };
    let with_knobs = run(replicate(&det), knobs);

    // Enabled but inert: too few clean scores to recalibrate.
    let enabled_inert = run(det, AdaptationConfig::enabled());

    assert_eq!(frozen.len(), with_knobs.len());
    assert_eq!(frozen.len(), enabled_inert.len());
    assert!(!frozen.is_empty());
    for ((a, b), c) in frozen.iter().zip(with_knobs.iter()).zip(enabled_inert.iter()) {
        assert_eq!(a, b, "disabled adaptation must not change verdict bits");
        assert_eq!(a, c, "inert enabled adaptation must not change verdict bits");
    }
}

#[test]
fn post_quarantine_holdoff_keeps_scores_out_of_calibration() {
    // Quarantine → recovery → recalibration holdoff. A stream that exits
    // quarantine must re-warm (win_len rows) AND serve out `holdoff` scored
    // windows before its scores feed the adaptive calibration window again.
    let det = fitted();
    let win = det.cfg.win_len;
    let hop = 4;
    // The engine's fixed post-quarantine holdoff, in scored windows.
    let holdoff = 4;
    let mut cfg = ServingConfig::new(f32::MAX, hop);
    cfg.adaptation = AdaptationConfig::enabled();
    let mut eng = ServingEngine::new(det, cfg);
    let id = eng.add_stream();
    let data = series(win * 2, 51);

    // Clean serving: scores flow into calibration.
    for t in 0..data.len() {
        push(&mut eng, id, data.row(t));
    }
    let before_storm = eng.adaptation_stats().clean_scores;
    assert!(before_storm > 0, "clean run must have fed the calibration window");

    // Dead feed: 8 imputed rows, then Degraded ones; the 16th bad row
    // enters quarantine.
    for _ in 0..16 {
        push(&mut eng, id, &[f32::NAN]);
    }
    assert_eq!(eng.health(id).quarantine_entries, 1);
    assert_eq!(
        eng.adaptation_stats().clean_scores,
        before_storm,
        "degraded and quarantined rows must never feed calibration"
    );

    // Recovery. Re-warm takes win_len rows (first window fires at row
    // win_len), then windows fire every `hop` rows; the first `holdoff`
    // windows are calibration-ineligible.
    let held_rows = win + holdoff * hop - hop;
    for t in 0..held_rows {
        push(&mut eng, id, data.row(t % data.len()));
    }
    assert_eq!(eng.health(id).mode, tfmae_core::StreamMode::Normal);
    assert_eq!(
        eng.adaptation_stats().clean_scores,
        before_storm,
        "holdoff windows must stay out of calibration"
    );

    // The next window is past the holdoff: its `hop` clean verdicts re-enter.
    for t in held_rows..held_rows + hop {
        push(&mut eng, id, data.row(t % data.len()));
    }
    assert_eq!(
        eng.adaptation_stats().clean_scores,
        before_storm + hop as u64,
        "post-holdoff clean scores must re-enter calibration"
    );
}

#[test]
fn enabled_adaptation_recalibrates_delta_from_serving_scores() {
    // End-to-end Eq. 17 recalibration: δ starts far above the serving-score
    // scale and must walk down — at most half per recalibration (the
    // engine's fixed per-step clamp).
    let det = fitted();
    let win = det.cfg.win_len;
    let mut cfg = ServingConfig::new(1000.0, 2);
    cfg.adaptation = AdaptationConfig::enabled();
    let mut eng = ServingEngine::new(det, cfg);
    let id = eng.add_stream();
    // Past two of the engine's 64-clean-score recalibration periods.
    let data = series(win + 256, 52);
    for t in 0..data.len() {
        push(&mut eng, id, data.row(t));
    }
    let stats = eng.adaptation_stats().clone();
    assert!(stats.recalibrations >= 2, "run must recalibrate: {stats:?}");
    let delta = eng.effective_threshold();
    assert!(delta < 1000.0, "δ must walk toward the score scale, got {delta}");
    let floor = 1000.0 * 0.5f32.powi(stats.recalibrations.min(127) as i32);
    assert!(
        delta >= floor - 1e-3,
        "each recalibration moves δ at most half: {delta} vs floor {floor}"
    );
}

// ------------------------------------------------------- thread invariance
//
// Contract 3: **the thread count is invisible in the output.** The engine
// scores on one lane per executor thread, windows score the same bits in
// any chunk, a tick whose ingest work clears the engine's gate fans its
// per-stream tasks out over the threads, and both ingest outcomes and
// scored rows merge back on the coordinator in input/staging order. So the
// full verdict trace — order, stream tags, and every score bit — must be
// identical at threads 1/2/4 across the whole battery: plain batched
// serving, quarantine storms, frozen calibration, enabled adaptation, patch
// tokenization, quantized precision, and ticks wide enough to fan ingest
// out. (The `shard_count` test names predate the flat stream table: the
// thread count is what shards the work now.)

/// Replays per-stream data through one engine, returning the full ordered
/// (verdicts, rejections) trace plus the final effective threshold.
/// `fault` may replace a (stream, t) row; `include` gates which streams
/// participate in a tick (irregular interleaves).
fn serve_trace(
    det: TfmaeDetector,
    cfg: ServingConfig,
    datas: &[TimeSeries],
    calibrate: Option<&TimeSeries>,
    fault: &dyn Fn(usize, usize) -> Option<Vec<f32>>,
    include: &dyn Fn(usize, usize) -> bool,
    extra_rows: &dyn Fn(usize) -> Vec<(usize, Vec<f32>)>,
) -> (Vec<ServingVerdict>, Vec<RowRejection>, f32) {
    let mut eng = ServingEngine::new(det, cfg);
    if let Some(val) = calibrate {
        eng.calibrate(val);
    }
    let ids: Vec<usize> = datas.iter().map(|_| eng.add_stream()).collect();
    let len = datas[0].len();
    let mut verdicts = Vec::new();
    let mut rejections = Vec::new();
    for t in 0..len {
        let mut owned: Vec<(usize, Vec<f32>)> = Vec::new();
        for (sid, &id) in ids.iter().enumerate() {
            if include(sid, t) {
                owned.push((id, fault(sid, t).unwrap_or_else(|| datas[sid].row(t).to_vec())));
            }
        }
        owned.extend(extra_rows(t));
        let rows: Vec<(usize, &[f32])> = owned.iter().map(|(id, r)| (*id, r.as_slice())).collect();
        let report = eng.tick(&rows);
        verdicts.extend(report.verdicts);
        rejections.extend(report.rejections);
    }
    (verdicts, rejections, eng.effective_threshold())
}

/// Asserts bitwise-identical traces at executor threads (= scoring lanes
/// and ingest fan-out width) 1/2/4 and returns the 1-thread reference
/// trace.
fn assert_thread_invariant(
    det: &TfmaeDetector,
    cfg: &ServingConfig,
    datas: &[TimeSeries],
    calibrate: Option<&TimeSeries>,
    fault: &dyn Fn(usize, usize) -> Option<Vec<f32>>,
    include: &dyn Fn(usize, usize) -> bool,
    extra_rows: &dyn Fn(usize) -> Vec<(usize, Vec<f32>)>,
) -> Vec<ServingVerdict> {
    let trace = |threads| {
        let mut det = replicate(det);
        det.set_executor(Arc::new(Executor::with_threads(threads)));
        serve_trace(det, cfg.clone(), datas, calibrate, fault, include, extra_rows)
    };
    let (base_v, base_r, base_thr) = trace(1);
    assert!(!base_v.is_empty(), "battery run must produce verdicts");
    for threads in [2usize, 4] {
        let at = format!("threads={threads}");
        let (v, r, thr) = trace(threads);
        assert_eq!(base_v.len(), v.len(), "verdict count at {at}");
        for (i, (a, b)) in base_v.iter().zip(v.iter()).enumerate() {
            assert_eq!(a.stream, b.stream, "verdict #{i} stream at {at}");
            assert_eq!(a.verdict.t, b.verdict.t, "verdict #{i} t at {at}");
            assert_eq!(
                a.verdict.score.to_bits(),
                b.verdict.score.to_bits(),
                "verdict #{i} score bits at {at}"
            );
            assert_eq!(a, b, "verdict #{i} differs at {at}");
        }
        assert_eq!(base_r, r, "rejection trace at {at}");
        assert_eq!(base_thr.to_bits(), thr.to_bits(), "effective threshold at {at}");
    }
    base_v
}

const ALL: &dyn Fn(usize, usize) -> bool = &|_, _| true;
const NO_FAULT: &dyn Fn(usize, usize) -> Option<Vec<f32>> = &|_, _| None;
const NO_EXTRA: &dyn Fn(usize) -> Vec<(usize, Vec<f32>)> = &|_| Vec::new();

#[test]
fn shard_count_is_verdict_invariant_for_batched_multi_stream_serving() {
    let det = fitted();
    let win = det.cfg.win_len;
    let datas: Vec<TimeSeries> =
        (0..5).map(|sid| series(win * 2 + 12, 400 + sid as u64)).collect();
    // Chunk composition varies with the lane count and must not reach the
    // verdicts: at 2 lanes the five windows due per hop chunk as
    // `chunk_sizes(5, 2, 16) == [3, 2]`, against the 1-thread batch-of-one
    // reference.
    let cfg = ServingConfig::new(f32::MAX, 3);
    assert_thread_invariant(&det, &cfg, &datas, None, NO_FAULT, ALL, NO_EXTRA);
}

#[test]
fn shard_count_invariance_survives_faults_and_quarantine() {
    let det = fitted();
    let win = det.cfg.win_len;
    let datas: Vec<TimeSeries> = (0..4).map(|sid| series(win * 3, 410 + sid as u64)).collect();
    let cfg = ServingConfig::new(f32::MAX, 2);
    // At 2 lanes the four windows due per hop chunk as
    // `chunk_sizes(4, 2, 16) == [2, 2]`.
    // A 24-row NaN storm on streams 1 and 3, deep enough to quarantine (at
    // the 16th bad row) and recover; quarantine verdicts are emitted at
    // ingest time, so this also pins the fan-out's row-order merge.
    let fault = |sid: usize, t: usize| -> Option<Vec<f32>> {
        (sid % 2 == 1 && t >= win && t < win + 24).then(|| vec![f32::NAN])
    };
    let got = assert_thread_invariant(&det, &cfg, &datas, None, &fault, ALL, NO_EXTRA);
    assert!(
        got.iter().any(|v| v.verdict.quality == DataQuality::Degraded),
        "storm must bite for the battery to mean anything"
    );
    // Quarantine discards the buffer, so stream 1 re-warms in silence.
    let scored = |t: usize| got.iter().any(|v| v.stream == 1 && v.verdict.t == t as u64);
    assert!((win + 24..win * 3).any(|t| !scored(t)), "storm must quarantine");
}

#[test]
fn shard_count_invariance_with_frozen_calibration() {
    let det = fitted();
    let win = det.cfg.win_len;
    let val = series(160, 47);
    let datas: Vec<TimeSeries> =
        (0..4).map(|sid| series(win * 2, 420 + sid as u64)).collect();
    // At 2 lanes the four windows due per hop chunk as
    // `chunk_sizes(4, 2, 16) == [2, 2]`.
    let cfg = ServingConfig::new(f32::MAX, 2);
    assert_thread_invariant(&det, &cfg, &datas, Some(&val), NO_FAULT, ALL, NO_EXTRA);
}

#[test]
fn shard_count_invariance_with_adaptation_enabled() {
    // Adaptation is the most order-sensitive consumer (score-window
    // generations rotate on observation count; δ moves on recalibration),
    // so a merge-order bug shows up here first. The final δ must match to
    // the bit as well.
    let det = fitted();
    let win = det.cfg.win_len;
    let datas: Vec<TimeSeries> =
        (0..3).map(|sid| series(win + 128, 430 + sid as u64)).collect();
    // At 2 lanes the three windows due per hop chunk as
    // `chunk_sizes(3, 2, 16) == [2, 1]`.
    let mut cfg = ServingConfig::new(1000.0, 2);
    cfg.adaptation = AdaptationConfig::enabled();
    let (_, _, thr) =
        serve_trace(replicate(&det), cfg.clone(), &datas, None, NO_FAULT, ALL, NO_EXTRA);
    assert!(thr < 1000.0, "run must actually recalibrate for this test to bite");
    assert_thread_invariant(&det, &cfg, &datas, None, NO_FAULT, ALL, NO_EXTRA);
}

#[test]
fn shard_count_invariance_with_patch_tokens() {
    let det = fitted_patched(4);
    let win = det.cfg.win_len;
    let datas: Vec<TimeSeries> =
        (0..4).map(|sid| series(win * 2 + 12, 440 + sid as u64)).collect();
    // At 2 lanes the four windows due per hop chunk as
    // `chunk_sizes(4, 2, 16) == [2, 2]`.
    let cfg = ServingConfig::new(f32::MAX, 3);
    assert_thread_invariant(&det, &cfg, &datas, None, NO_FAULT, ALL, NO_EXTRA);
}

#[test]
fn shard_count_invariance_with_quantized_precision() {
    let det = fitted();
    let win = det.cfg.win_len;
    let datas: Vec<TimeSeries> =
        (0..4).map(|sid| series(win * 2, 450 + sid as u64)).collect();
    // At 2 lanes the four windows due per hop chunk as
    // `chunk_sizes(4, 2, 16) == [2, 2]`.
    let mut cfg = ServingConfig::new(f32::MAX, 3);
    cfg.precision = Precision::Bf16;
    assert_thread_invariant(&det, &cfg, &datas, None, NO_FAULT, ALL, NO_EXTRA);
}

#[test]
fn interleaved_ingest_ordering_is_deterministic_across_shard_counts() {
    // Irregular multi-stream interleave: streams drop in and out per tick
    // (so hops complete on different ticks per stream) and every third tick
    // carries a row for an unregistered id. The verdict trace AND the typed
    // rejection trace must be identical at every thread count.
    let det = fitted();
    let win = det.cfg.win_len;
    let dims = 1usize;
    let datas: Vec<TimeSeries> =
        (0..5).map(|sid| series(win * 2 + 30, 460 + sid as u64)).collect();
    // At 2 lanes a tick with three due windows chunks as
    // `chunk_sizes(3, 2, 16) == [2, 1]`.
    let cfg = ServingConfig::new(f32::MAX, 2);
    let include = |sid: usize, t: usize| -> bool { !(t + sid).is_multiple_of(sid + 2) };
    let extra = move |t: usize| -> Vec<(usize, Vec<f32>)> {
        if t.is_multiple_of(3) {
            vec![(999, vec![0.5f32; dims])]
        } else {
            Vec::new()
        }
    };
    let (base_v, base_r, _) =
        serve_trace(replicate(&det), cfg.clone(), &datas, None, NO_FAULT, &include, &extra);
    assert!(!base_v.is_empty());
    assert!(!base_r.is_empty(), "unknown-id rows must be rejected, not dropped");
    assert_thread_invariant(&det, &cfg, &datas, None, NO_FAULT, &include, &extra);
}

#[test]
fn thread_invariance_holds_when_tick_ingest_fans_out() {
    // The rest of the battery's ticks are far below the engine's ingest
    // work gate, so they ingest inline at any thread count. Here 64 streams
    // of a 38-channel model put every tick at 64 × 38 × 17 = 41,344
    // sliding-DFT bin updates, past the gate: the per-stream ingest tasks
    // fan out at threads 2 and 4. Rows arrive in a scrambled stream order
    // with an unknown id among them, and a NaN storm quarantines every
    // third stream, whose verdicts come from ingest in input-row order.
    let dims = 38;
    let wide = |len: usize, seed: u64| {
        let chans: Vec<Vec<f32>> =
            (0..dims).map(|n| series(len, seed * 64 + n as u64).channel(0)).collect();
        TimeSeries::from_channels(&chans)
    };
    let train = wide(256, 1);
    let mut det = TfmaeDetector::new(TfmaeConfig { epochs: 1, ..TfmaeConfig::tiny() });
    det.fit(&train, &train);
    let win = det.cfg.win_len;
    let datas: Vec<TimeSeries> = (0..64).map(|sid| wide(win * 2, 500 + sid as u64)).collect();
    let cfg = ServingConfig::new(f32::MAX, win / 2);

    // The first tick stages no window, so any parallel task it records is
    // the ingest fan-out: this sizing must clear the gate.
    let mut probe = replicate(&det);
    probe.set_executor(Arc::new(Executor::with_threads(2)));
    let mut eng = ServingEngine::new(probe, cfg.clone());
    let rows: Vec<(usize, &[f32])> = datas.iter().map(|d| (eng.add_stream(), d.row(0))).collect();
    assert!(eng.tick(&rows).verdicts.is_empty());
    assert_eq!(eng.exec_stats().parallel_tasks, 1, "ticks of this battery case must fan out");

    // Stream ids equal slots on a fresh engine; 37 is coprime to 64, so
    // this visits every stream once, out of slot order.
    let order: Vec<usize> = (0..64).map(|i| i * 37 % 64).collect();
    let storm = |sid: usize, t: usize| {
        sid.is_multiple_of(3) && (win / 2..win / 2 + 20).contains(&t)
    };
    let scrambled = |t: usize| -> Vec<(usize, Vec<f32>)> {
        let mut rows: Vec<(usize, Vec<f32>)> = order
            .iter()
            .map(|&sid| {
                let row = datas[sid].row(t);
                (sid, if storm(sid, t) { vec![f32::NAN; dims] } else { row.to_vec() })
            })
            .collect();
        rows.insert(32, (999, vec![0.5f32; dims]));
        rows
    };
    let none = |_: usize, _: usize| false;
    let got = assert_thread_invariant(&det, &cfg, &datas, None, NO_FAULT, &none, &scrambled);
    // Storm streams quarantine at their 16th bad row and stage no window
    // before it, so every `Degraded` verdict is an ingest-time one.
    let quarantined: Vec<usize> =
        order.iter().copied().filter(|&sid| sid.is_multiple_of(3)).collect();
    let mut ticks = 0;
    for t in 0..win * 2 {
        let at_t: Vec<usize> = got
            .iter()
            .filter(|v| v.verdict.t == t as u64 && v.verdict.quality == DataQuality::Degraded)
            .map(|v| v.stream)
            .collect();
        if !at_t.is_empty() {
            assert_eq!(at_t, quarantined, "quarantine verdicts at t={t} must follow input order");
            ticks += 1;
        }
    }
    assert!(ticks > 0, "storm must quarantine for the case to mean anything");
}
