//! Server-fleet monitoring scenario (the paper's PSM/SMD motivation):
//! correlated load channels with level shifts and spikes, scored by TFMAE
//! and two baselines side by side.
//!
//! ```text
//! cargo run --release --example server_fleet
//! ```

use tfmae::baselines::{IsolationForest, TranAdLite};
use tfmae::prelude::*;

fn main() {
    let bench = generate(DatasetKind::Psm, 7, 150);
    let hp = bench.kind.paper_hparams();
    println!(
        "PSM simulator: {} channels, anomaly ratio {:.1}% (published: 27.8%)",
        bench.train.dims(),
        bench.realized_anomaly_ratio() * 100.0
    );

    // TFMAE with the paper's PSM masking ratios.
    let cfg = TfmaeConfig { r_temporal: hp.r_t, r_frequency: hp.r_f, ..TfmaeConfig::default() };
    let mut tfmae = TfmaeDetector::new(cfg);
    let tfmae_prf = evaluate(&mut tfmae, &bench, hp.r);

    // Two comparators under the identical protocol.
    let mut iforest = IsolationForest::new(100, 256, 7);
    let iforest_prf = evaluate(&mut iforest, &bench, hp.r);
    let mut tranad = TranAdLite::new(DeepProtocol::default(), 1);
    let tranad_prf = evaluate(&mut tranad, &bench, hp.r);

    println!("\n{:<10} {:>8} {:>8} {:>8}", "method", "P%", "R%", "F1%");
    for (name, prf) in
        [("IForest", iforest_prf), ("TranAD", tranad_prf), ("TFMAE", tfmae_prf)]
    {
        println!("{:<10} {:>8.2} {:>8.2} {:>8.2}", name, prf.precision, prf.recall, prf.f1);
    }

    // Show the anomaly-score trace around the first ground-truth segment.
    let scores = tfmae.score(&bench.test);
    if let Some(first) = bench.test_labels.iter().position(|&l| l == 1) {
        let lo = first.saturating_sub(5);
        let hi = (first + 10).min(scores.len());
        println!("\nscore trace around first anomaly (t={first}):");
        let window = bench.test_labels[lo..hi].iter().zip(&scores[lo..hi]);
        for (t, (&label, score)) in (lo..).zip(window) {
            let marker = if label == 1 { "  <-- anomaly" } else { "" };
            println!("  t={t:<6} score={score:.4}{marker}");
        }
    }
}
