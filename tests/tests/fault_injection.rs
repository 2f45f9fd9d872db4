//! Fault-injection harness: drive the training, checkpoint and streaming
//! layers through realistic failure modes — NaN/Inf telemetry, truncated
//! and bit-flipped checkpoint files, forced optimizer divergence — and
//! assert the system recovers instead of panicking or emitting NaN scores.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tfmae_core::{
    param_hash, AdaptationConfig, CheckpointError, DataQuality, ServingConfig, ServingEngine,
    StreamMode, StreamVerdict, TfmaeConfig, TfmaeDetector,
};
use tfmae_data::{render, Component, Detector, TimeSeries};
use tfmae_tests::faults;

fn series(len: usize, seed: u64) -> TimeSeries {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = render(
        &[
            Component::Sine { period: 16.0, amp: 1.0, phase: 0.0 },
            Component::Noise { sigma: 0.05 },
        ],
        len,
        &mut rng,
    );
    let b = render(
        &[
            Component::Sine { period: 8.0, amp: 0.5, phase: 1.0 },
            Component::Noise { sigma: 0.05 },
        ],
        len,
        &mut rng,
    );
    TimeSeries::from_channels(&[a, b])
}

fn fitted(seed: u64) -> TfmaeDetector {
    let train = series(256, seed);
    let mut det = TfmaeDetector::new(TfmaeConfig::tiny());
    det.fit(&train, &train);
    det
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tfmae_faults_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::create_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------- training

#[test]
fn training_survives_nan_storm() {
    let mut train = series(384, 1);
    let hit = faults::inject_nan(&mut train, 0.02, 99);
    assert!(hit > 0, "injector must actually corrupt something");

    let mut det = TfmaeDetector::new(TfmaeConfig::tiny());
    det.fit(&train, &train);
    let report = &det.train_report;
    assert!(
        report.rollbacks > 0 || report.skipped_batches > 0,
        "guard must notice poisoned batches: {report:?}"
    );
    assert!(det.loss_curve.iter().all(|l| l.is_finite()), "certified losses stay finite");

    let scores = det.score(&series(128, 2));
    assert_eq!(scores.len(), 128);
    assert!(scores.iter().all(|s| s.is_finite()), "model must stay usable after NaN training");
}

#[test]
fn training_survives_inf_injection() {
    let mut train = series(384, 3);
    let hit = faults::inject_inf(&mut train, 0.01, 100);
    assert!(hit > 0);

    let mut det = TfmaeDetector::new(TfmaeConfig::tiny());
    det.fit(&train, &train);
    assert!(det.loss_curve.iter().all(|l| l.is_finite()));
    let scores = det.score(&series(128, 4));
    assert!(scores.iter().all(|s| s.is_finite()));
}

#[test]
fn forced_divergence_rolls_back_and_backs_off() {
    let train = series(256, 5);
    let mut cfg = TfmaeConfig::tiny();
    let base_lr = cfg.lr;
    cfg.lr = 1e6; // guaranteed blow-up
    let mut det = TfmaeDetector::new(cfg);
    det.fit(&train, &train);

    let report = &det.train_report;
    assert!(report.rollbacks > 0, "divergence must trigger rollbacks: {report:?}");
    assert!(
        report.final_lr < 1e6,
        "learning rate must back off from the divergent value, got {}",
        report.final_lr
    );
    assert!(det.loss_curve.iter().all(|l| l.is_finite()));
    let scores = det.score(&series(128, 6));
    assert!(
        scores.iter().all(|s| s.is_finite()),
        "scores must stay finite even after forced divergence (base lr was {base_lr})"
    );
}

#[test]
fn clean_training_reports_no_faults() {
    let det = fitted(7);
    let report = &det.train_report;
    assert_eq!(report.rollbacks, 0);
    assert_eq!(report.skipped_batches, 0);
    assert!(!report.aborted);
    assert!(report.steps > 0);
}

// -------------------------------------------------------------- checkpoints

#[test]
fn truncated_checkpoint_is_detected_and_bak_recovers() {
    let det = fitted(8);
    let test = series(96, 9);
    let want = det.score(&test);
    let dir = tmp_dir("trunc");
    let path = dir.join("model.json");

    det.save(&path).unwrap();
    det.save(&path).unwrap(); // first copy becomes model.json.bak
    faults::truncate_file(&path, 0.35).unwrap();

    let (restored, ..) = TfmaeDetector::load_full(&path).expect("recovery from .bak must succeed");
    assert_eq!(restored.score(&test), want, ".bak recovery must be bit-exact");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_checkpoint_without_bak_errors_cleanly() {
    let det = fitted(10);
    let dir = tmp_dir("trunc_nobak");
    let path = dir.join("model.json");
    det.save(&path).unwrap();
    faults::truncate_file(&path, 0.5).unwrap();
    match TfmaeDetector::load_full(&path) {
        Err(CheckpointError::Corrupt(_)) => {}
        other => panic!("expected Corrupt, got {other:?}", other = other.err()),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flipped_checkpoint_never_loads_silently() {
    let det = fitted(11);
    let dir = tmp_dir("bitflip");
    for seed in 0..8u64 {
        let path = dir.join(format!("model_{seed}.json"));
        det.save(&path).unwrap();
        faults::bit_flip_file(&path, 4, seed).unwrap();
        // Any typed error is acceptable detection; silently loading damaged
        // weights (or panicking) is not.
        assert!(
            TfmaeDetector::load_full(&path).is_err(),
            "flip seed {seed} produced a load from a damaged file"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn random_truncation_never_panics() {
    let det = fitted(12);
    let test = series(64, 13);
    let want = det.score(&test);
    let dir = tmp_dir("trunc_sweep");
    for pct in 0..=10usize {
        let path = dir.join(format!("model_{pct}.json"));
        det.save(&path).unwrap();
        faults::truncate_file(&path, pct as f64 / 10.0).unwrap();
        match TfmaeDetector::load_full(&path) {
            Ok((restored, ..)) => {
                // Only an intact file may load — and then it must be exact.
                assert_eq!(pct, 10, "a truncated checkpoint (kept {pct}0%) must not load");
                assert_eq!(restored.score(&test), want);
            }
            Err(_) => assert!(pct < 10, "the untouched file must load"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------- streaming

/// An engine serving one stream (id 0).
fn one_stream(det: TfmaeDetector, cfg: ServingConfig) -> ServingEngine {
    let mut eng = ServingEngine::new(det, cfg);
    eng.add_stream();
    eng
}

/// Ticks one row through stream 0, returning its verdicts.
fn push(eng: &mut ServingEngine, row: &[f32]) -> Vec<StreamVerdict> {
    eng.tick(&[(0, row)]).verdicts.into_iter().map(|v| v.verdict).collect()
}

/// Ticks every row of `data` through stream 0.
fn push_all(eng: &mut ServingEngine, data: &TimeSeries) -> Vec<StreamVerdict> {
    (0..data.len()).flat_map(|t| push(eng, data.row(t))).collect()
}

#[test]
fn streaming_nan_storm_emits_only_finite_flagged_scores() {
    let det = fitted(14);
    let win = det.cfg.win_len;
    let mut eng = one_stream(det, ServingConfig::new(f32::MAX, 1));

    let clean = series(win * 3, 15);
    let mut noisy = clean.clone();
    // ~10% NaN across the middle third only.
    let mut rng = StdRng::seed_from_u64(16);
    use rand::Rng;
    for t in win..win * 2 {
        if rng.gen_bool(0.10) {
            noisy.set(t, 0, f32::NAN);
        }
    }

    let verdicts = push_all(&mut eng, &noisy);
    assert!(!verdicts.is_empty());
    assert!(verdicts.iter().all(|v| v.score.is_finite()), "no NaN score may escape");
    assert!(
        verdicts.iter().any(|v| v.quality == DataQuality::Imputed),
        "imputed rows must be flagged"
    );
    // The final third is clean again: quality recovers.
    let tail: Vec<_> =
        verdicts.iter().filter(|v| v.t >= (win * 2 + win / 2) as u64).collect();
    assert!(!tail.is_empty());
    assert!(
        tail.iter().all(|v| v.quality == DataQuality::Clean),
        "stream must report Clean again once the fault clears"
    );
    assert_eq!(eng.health(0).mode, StreamMode::Normal, "a 10% storm must not quarantine");
}

#[test]
fn dead_feed_quarantines_and_recovers() {
    let det = fitted(17);
    let win = det.cfg.win_len;
    // The engine's fixed policy: 8 imputed rows, then Degraded ones, and
    // quarantine at the 16th consecutive bad row.
    let (staleness_budget, quarantine_after) = (8, 16);
    let mut eng = one_stream(det, ServingConfig::new(f32::NEG_INFINITY, 1));
    let data = series(win * 3, 18);

    for t in 0..win {
        push(&mut eng, data.row(t));
    }
    // Dead feed: every row all-NaN, well past the quarantine threshold.
    for i in 0..quarantine_after * 3 {
        let out = push(&mut eng, &[f32::NAN, f32::NAN]);
        assert_eq!(out.len(), 1);
        let v = out[0];
        assert!(v.score.is_finite());
        if i < staleness_budget {
            // Imputed scores stay meaningful, so they still page.
            assert_eq!(v.quality, DataQuality::Imputed, "bad row {i}");
        } else {
            assert_eq!(v.quality, DataQuality::Degraded, "bad row {i}");
            assert!(!v.is_anomaly, "degraded rows must never page, even at threshold -inf");
        }
        let quarantined = eng.health(0).mode == StreamMode::Quarantine;
        assert_eq!(quarantined, i + 1 >= quarantine_after, "bad row {i}");
    }
    assert_eq!(eng.health(0).mode, StreamMode::Quarantine);
    assert!(eng.health(0).quarantine_entries >= 1);

    // Feed comes back: stream re-warms and serves Clean verdicts again.
    let mut recovered = Vec::new();
    for t in win..win * 2 + 8 {
        recovered.extend(push(&mut eng, data.row(t)));
    }
    assert_eq!(eng.health(0).mode, StreamMode::Normal);
    assert!(!recovered.is_empty(), "stream must resume scoring after recovery");
    assert!(recovered.iter().all(|v| v.quality == DataQuality::Clean));
    assert!(recovered.iter().all(|v| v.score.is_finite()));
}

#[test]
fn regime_shift_battery_degrades_gracefully() {
    // Every degradation scheme of the adaptation suite — level shift,
    // variance scale-up, trend ramp, stuck sensor — produces *finite*
    // in-range telemetry, so the serving path must keep emitting finite,
    // Clean-quality verdicts (drift is not a data fault; it is handled by
    // the adaptation loop, not by quarantine).
    for (name, shift) in faults::regime_shift_battery() {
        let det = fitted(21);
        let win = det.cfg.win_len;
        let mut data = series(win * 3, 22);
        faults::shift_regime(&mut data, win + win / 2, shift);

        let mut eng = one_stream(det, ServingConfig::new(f32::MAX, 2));
        let verdicts = push_all(&mut eng, &data);
        assert!(!verdicts.is_empty(), "{name}: serving must produce verdicts");
        assert!(
            verdicts.iter().all(|v| v.score.is_finite()),
            "{name}: scores must stay finite through the shift"
        );
        assert!(
            verdicts.iter().all(|v| v.quality == DataQuality::Clean),
            "{name}: regime shifts are in-band data, not faults"
        );
        assert_eq!(eng.health(0).mode, StreamMode::Normal, "{name}: drift must not quarantine");
    }
}

/// An adapting, fine-tuning engine whose detector's fine-tune LR (`lr/10`)
/// is absurd: nothing re-checks the weights after the last fine-tune step,
/// so the first background update corrupts them. Returns the engine, the
/// pre-update weight hash, the clean feed, and the number of feed rows
/// served when that first update was booked.
fn engine_after_a_harmful_update() -> (ServingEngine, u32, TimeSeries, usize) {
    let mut det = fitted(23);
    det.cfg.lr = 1e6;
    let win = det.cfg.win_len;
    let mut cfg = ServingConfig::new(f32::MAX, 2);
    cfg.adaptation = AdaptationConfig { finetune: true, ..AdaptationConfig::enabled() };
    let mut eng = one_stream(det, cfg);
    let pristine = param_hash(&eng.detector().model().expect("fitted").ps);
    let data = series(win * 2, 24);
    // The first update waits for 256 clean scores.
    let mut t = 0;
    while eng.adaptation_stats().finetune_updates == 0 && t < win * 20 {
        push(&mut eng, data.row(t % data.len()));
        t += 1;
    }
    let stats = eng.adaptation_stats();
    assert_eq!(stats.finetune_updates, 1, "{stats:?}");
    assert_eq!(stats.last_good_hash, pristine, "last-good snapshot must be the pre-update weights");
    assert_ne!(param_hash(&eng.detector().model().expect("fitted").ps), pristine);
    (eng, pristine, data, t)
}

#[test]
fn harmful_finetune_update_rolls_back_to_last_good_and_backs_off() {
    // A harmful update is followed by a dead feed. The probation guard band
    // must notice (its degraded-rate test: the score statistics cannot see
    // this update, see the next test), restore the pre-update snapshot
    // bit-exactly, and back the adaptation cadence off.
    tfmae_obs::set_enabled(true);
    let (mut eng, pristine, data, t0) = engine_after_a_harmful_update();
    let win = eng.detector().cfg.win_len;
    let mut rolled_back = false;
    for t in t0..t0 + win * 4 {
        // 24 bad rows (8 imputed, then degraded, quarantined from the
        // 16th), then clean rows until the first flush after recovery.
        let row = if t < t0 + 24 { vec![f32::NAN; 2] } else { data.row(t % data.len()).to_vec() };
        push(&mut eng, &row);
        if eng.adaptation_stats().rollbacks >= 1 {
            rolled_back = true;
            break;
        }
    }
    let stats = eng.adaptation_stats().clone();
    assert!(rolled_back, "guard band must catch the harmful update: {stats:?}");
    assert!(stats.finetune_updates >= 1, "{stats:?}");
    assert_eq!(stats.last_good_hash, pristine, "last-good snapshot must be the pre-update weights");
    assert_eq!(
        param_hash(&eng.detector().model().expect("fitted").ps),
        pristine,
        "rollback must restore the last-good snapshot bit-exactly"
    );
    assert!(stats.cadence_mult >= 2, "cadence must back off after a rollback: {stats:?}");

    // The rollback is visible to operators through the obs counters.
    let rollback_counter = tfmae_obs::global().instruments().iter().any(|(name, inst)| {
        *name == "serve.adapt_rollbacks"
            && matches!(inst, tfmae_obs::Instrument::Counter(c) if c.get() > 0)
    });
    tfmae_obs::set_enabled(false);
    assert!(rollback_counter, "serve.adapt_rollbacks must have been incremented");
}

#[test]
fn a_harmful_update_that_collapses_scores_escapes_the_score_guard() {
    // Pins a known blind spot of the guard band (DESIGN.md §15). The
    // harmful update collapses this model's scores to near-constant values
    // close to the pre-update median. Updates land when the score window
    // has just rotated, so by the end of the probation post-update scores
    // are at most a third of the window: neither the median nor the
    // dispersion test trips, and the corrupted weights stay in service.
    // A guard that sees this update must flip these assertions.
    let (mut eng, pristine, data, t0) = engine_after_a_harmful_update();
    let clean_at_update = eng.adaptation_stats().clean_scores;
    let mut t = t0;
    // Past the 64-score probation, one clean flush at a time.
    while eng.adaptation_stats().clean_scores < clean_at_update + 66 {
        push(&mut eng, data.row(t % data.len()));
        t += 1;
    }
    let stats = eng.adaptation_stats();
    assert_eq!(stats.rollbacks, 0, "{stats:?}");
    assert_eq!(stats.cadence_mult, 1, "the probation ended as clean: {stats:?}");
    assert_ne!(param_hash(&eng.detector().model().expect("fitted").ps), pristine);
}

#[test]
fn streaming_inf_values_are_sanitized_too() {
    let det = fitted(19);
    let win = det.cfg.win_len;
    let mut eng = one_stream(det, ServingConfig::new(f32::MAX, 1));
    let data = series(win * 2, 20);
    let mut verdicts = Vec::new();
    for t in 0..data.len() {
        let mut row = data.row(t).to_vec();
        if t >= win && t % 7 == 0 {
            row[1] = f32::INFINITY;
        }
        verdicts.extend(push(&mut eng, &row));
    }
    assert!(verdicts.iter().all(|v| v.score.is_finite()));
    assert!(verdicts.iter().any(|v| v.quality == DataQuality::Imputed));
}
