//! Cross-method integration: every baseline runs under the identical
//! protocol, and family-level sanity orderings hold on benchmarks tailored
//! to each mechanism.

use tfmae::baselines::*;
use tfmae::prelude::*;

#[test]
fn whole_roster_runs_on_a_multivariate_benchmark() {
    let bench = generate(DatasetKind::Smd, 7, 2000);
    let hp = DatasetKind::Smd.paper_hparams();
    for mut det in table3_roster(DeepProtocol::tiny()) {
        let prf = evaluate(det.as_mut(), &bench, hp.r);
        assert!(prf.f1.is_finite(), "{} produced non-finite F1", det.name());
        let scores = det.score(&bench.test);
        assert_eq!(scores.len(), bench.test.len(), "{}", det.name());
        assert!(scores.iter().all(|s| s.is_finite()), "{} non-finite scores", det.name());
    }
}

#[test]
fn iforest_finds_global_point_anomalies() {
    let bench = generate(DatasetKind::NipsTsGlobal, 11, 200);
    let mut det = IsolationForest::new(100, 256, 11);
    det.fit(&bench.train, &bench.val);
    let scores = det.score(&bench.test);
    let auc = roc_auc(&scores, &bench.test_labels);
    assert!(auc > 0.8, "IForest should easily rank global spikes, AUC={auc}");
}

#[test]
fn lof_finds_global_point_anomalies() {
    let bench = generate(DatasetKind::NipsTsGlobal, 12, 400);
    let mut det = Lof::new(10, 1000, 12);
    det.fit(&bench.train, &bench.val);
    let scores = det.score(&bench.test);
    let auc = roc_auc(&scores, &bench.test_labels);
    assert!(auc > 0.7, "LOF should rank global spikes, AUC={auc}");
}

#[test]
fn timesnet_lite_beats_pointwise_methods_on_seasonal_anomalies() {
    // Seasonal anomalies keep values in range — pointwise density methods
    // are blind to them, while the period-folding reconstructor sees the
    // broken phase structure (the paper's "advantages of frequency
    // learning" finding).
    // The seasonal simulator's dominant period is 50, so the default
    // protocol's win_len = 100 is 2·period: half of every window's lag-1
    // features are edge-clamped and lag-2 is always clamped, flooring the
    // reconstructor's MSE even when perfectly trained (same failure mode the
    // timesnet_lite unit test hit). win_len = 4·period plus a denser stride
    // and larger lr give the lag-MLP real one-period context; divisor 50
    // keeps the train split long enough (800 rows) to cut full 200-step
    // windows. Step count: 800 rows at win_len 200, stride 20 make 31
    // windows, one batch of 32 per epoch, so `epochs` is the number of Adam
    // steps. At 8 the lag-MLP is still untrained (validation error ~1.4, a
    // magnitude detector); 100 steps train it.
    let bench = generate(DatasetKind::NipsTsSeasonal, 13, 50);
    let proto = DeepProtocol {
        win_len: 200,
        epochs: 100,
        lr: 1e-2,
        train_stride: 20,
        ..DeepProtocol::default()
    };
    let mut tn = TimesNetLite::new(proto);
    tn.fit(&bench.train, &bench.val);
    // Premise: the period fold is trained. The validation split has no
    // injected anomalies and is z-scored with the train statistics, so a
    // model that predicts zero scores ~1.0 there; a trained one is well below.
    let val_scores = tn.score(&bench.val);
    let val_mean = val_scores.iter().sum::<f32>() / val_scores.len() as f32;
    assert!(
        val_mean < 0.5,
        "TimesNet-lite is untrained: mean reconstruction error {val_mean:.3} on the clean validation split"
    );
    let tn_auc = roc_auc(&tn.score(&bench.test), &bench.test_labels);

    let mut iforest = IsolationForest::new(100, 256, 13);
    iforest.fit(&bench.train, &bench.val);
    let if_auc = roc_auc(&iforest.score(&bench.test), &bench.test_labels);

    assert!(
        tn_auc > if_auc,
        "period-aware recon ({tn_auc:.3}) should beat pointwise trees ({if_auc:.3}) on seasonal data"
    );
}

#[test]
fn deep_recon_detects_spikes_better_after_training() {
    let bench = generate(DatasetKind::NipsTsGlobal, 14, 400);
    let mut short = DenseAutoencoder::new("AE", DeepProtocol { epochs: 1, ..DeepProtocol::tiny() }, 8);
    short.fit(&bench.train, &bench.val);
    let mut long = DenseAutoencoder::new("AE", DeepProtocol { epochs: 12, ..DeepProtocol::tiny() }, 8);
    long.fit(&bench.train, &bench.val);
    let a1 = roc_auc(&short.score(&bench.test), &bench.test_labels);
    let a2 = roc_auc(&long.score(&bench.test), &bench.test_labels);
    assert!(a2 >= a1 - 0.05, "training should not destroy ranking: {a1:.3} -> {a2:.3}");
}

#[test]
fn thresholding_protocol_respects_validation_quantile() {
    let bench = generate(DatasetKind::Psm, 15, 2000);
    let mut det = IsolationForest::new(50, 128, 15);
    det.fit(&bench.train, &bench.val);
    let val_scores = det.score(&bench.val);
    let delta = threshold_for_ratio(&val_scores, 0.10);
    let flagged = val_scores.iter().filter(|&&s| s >= delta).count();
    let frac = flagged as f64 / val_scores.len() as f64;
    assert!((0.05..=0.15).contains(&frac), "validation flag rate {frac}");
}
