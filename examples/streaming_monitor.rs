//! Online monitoring: feed observations one at a time into a trained TFMAE
//! and raise alarms live — the observability deployment the paper's
//! introduction motivates ("timely alerts for anomalies").
//!
//! ```text
//! cargo run --release --example streaming_monitor
//! ```

use tfmae::core::{ServingConfig, ServingEngine};
use tfmae::prelude::*;

fn main() {
    // Train offline on the PSM simulator.
    let bench = generate(DatasetKind::Psm, 7, 200);
    let hp = bench.kind.paper_hparams();
    let cfg = TfmaeConfig { r_temporal: hp.r_t, r_frequency: hp.r_f, epochs: 4, ..TfmaeConfig::default() };
    let mut det = TfmaeDetector::new(cfg);
    det.fit(&bench.train, &bench.val);

    // Calibrate the alarm threshold on validation scores (Eq. 17).
    let delta = threshold_for_ratio(&det.score(&bench.val), hp.r);
    println!("calibrated threshold δ = {delta:.4} from {} validation points", bench.val.len());

    // Save + reload through a checkpoint, as a deployment would.
    let path = std::env::temp_dir().join("tfmae_streaming_demo.json");
    det.save(&path).expect("save checkpoint");
    let (det, ..) = TfmaeDetector::load_full(&path).expect("load checkpoint");
    let _ = std::fs::remove_file(&path);

    // Go online: one stream on the serving engine, scored every
    // win_len / 4 observations, fed the test split one row per tick.
    let hop = ServingConfig::default_hop(det.cfg.win_len);
    let mut monitor = ServingEngine::new(det, ServingConfig::new(delta, hop));
    let stream = monitor.add_stream();
    let mut alarms = 0usize;
    let mut true_alarms = 0usize;
    let mut scored = 0usize;
    for t in 0..bench.test.len() {
        let report = monitor.tick(&[(stream, bench.test.row(t))]);
        for verdict in report.verdicts.iter().map(|v| v.verdict) {
            scored += 1;
            if verdict.is_anomaly {
                alarms += 1;
                let truth = bench.test_labels[verdict.t as usize] == 1;
                true_alarms += usize::from(truth);
                if alarms <= 8 {
                    println!(
                        "ALARM t={:<6} score={:.4} ground-truth-anomaly={truth}",
                        verdict.t, verdict.score
                    );
                }
            }
        }
    }
    println!(
        "\nstream finished: {scored} observations scored online, {alarms} alarms, \
         {true_alarms} on ground-truth anomalies"
    );
    println!(
        "test split has {} anomalous observations ({:.1}%)",
        bench.test_labels.iter().filter(|&&l| l == 1).count(),
        bench.realized_anomaly_ratio() * 100.0
    );
}
