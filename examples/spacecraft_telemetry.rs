//! Spacecraft-telemetry scenario (the paper's MSL/SMAP motivation): detect
//! point and contextual anomalies in many-channel telemetry, and show how
//! the temporal mask concentrates on the anomalous region.
//!
//! ```text
//! cargo run --release --example spacecraft_telemetry
//! ```

use tfmae::core::{temporal_mask_patched, temporal_statistic, TemporalMaskKind};
use tfmae::prelude::*;

fn main() {
    let bench = generate(DatasetKind::Msl, 7, 120);
    let hp = bench.kind.paper_hparams();
    println!(
        "MSL simulator: {} channels, train {} / val {} / test {} observations",
        bench.train.dims(),
        bench.train.len(),
        bench.val.len(),
        bench.test.len()
    );

    // --- Peek at the masking machinery on one window of the test set. ---
    let win_len = 100;
    let window = bench.test.slice(0..win_len);
    let stat = temporal_statistic(window.data(), win_len, window.dims(), 10, TemporalMaskKind::Cv, true);
    let peak = stat.iter().cloned().fold(f64::MIN, f64::max);
    println!("window CV statistic: max={peak:.3}, mean={:.3}", stat.iter().sum::<f64>() / win_len as f64);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
    let mask = temporal_mask_patched(
        window.data(),
        win_len,
        window.dims(),
        1,
        (win_len as f64 * hp.r_t) as usize,
        10,
        TemporalMaskKind::Cv,
        true,
        &mut rng,
    );
    println!(
        "temporal mask covers {} of {} observations (r_T = {:.0}%)",
        mask.masked.len(),
        win_len,
        hp.r_t * 100.0
    );

    // --- Full pipeline. ---
    let cfg = TfmaeConfig { r_temporal: hp.r_t, r_frequency: hp.r_f, ..TfmaeConfig::default() };
    let mut det = TfmaeDetector::new(cfg);
    let prf = evaluate(&mut det, &bench, hp.r);
    println!(
        "TFMAE on the MSL simulator: P={:.2}% R={:.2}% F1={:.2}%",
        prf.precision, prf.recall, prf.f1
    );

    // --- Where do the alarms fall? Print the first few detected segments. ---
    let delta = threshold_for_ratio(&det.score(&bench.val), hp.r);
    let pred = apply_threshold(&det.score(&bench.test), delta);
    let adjusted = point_adjust(&pred, &bench.test_labels);
    let mut shown = 0;
    let mut t = 0;
    while t < adjusted.len() && shown < 5 {
        if adjusted[t] == 1 {
            let start = t;
            while t < adjusted.len() && adjusted[t] == 1 {
                t += 1;
            }
            let truth_hit = bench.test_labels[start..t].contains(&1);
            println!(
                "alarm segment [{start}, {t})  length={}  ground-truth-anomaly={truth_hit}",
                t - start
            );
            shown += 1;
        } else {
            t += 1;
        }
    }
}
