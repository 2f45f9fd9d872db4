//! Quantized-serving correctness gates: the Table III verdict-flip bound
//! for bf16, the f32 bitwise-identity guarantee, and the serve-only
//! contract of a quantized detector.

use tfmae::prelude::*;
use tfmae_core::{ServingConfig, ServingEngine};
use tfmae_tensor::Precision;

fn fast_cfg() -> TfmaeConfig {
    TfmaeConfig { epochs: 4, ..TfmaeConfig::tiny() }
}

/// A quantized serving copy of a fitted detector, built the way production
/// would: checkpoint roundtrip, then precision switch.
fn quantized_copy(det: &TfmaeDetector, precision: Precision) -> TfmaeDetector {
    let mut q = TfmaeDetector::from_checkpoint(det.to_checkpoint().unwrap()).unwrap();
    q.set_precision(precision).unwrap();
    q
}

/// The Table III serving protocol for one precision: δ from the validation
/// split at the paper's ratio, thresholded verdicts on the test split.
fn verdicts(det: &TfmaeDetector, bench: &Benchmark, r: f64) -> Vec<u8> {
    let delta = threshold_for_ratio(&det.score(&bench.val), r);
    apply_threshold(&det.score(&bench.test), delta)
}

#[test]
fn bf16_verdict_flips_stay_under_the_gate_on_table3_protocol() {
    let mut total = 0usize;
    let mut bf16_flips = 0usize;
    let mut int8_flips = 0usize;
    for kind in [DatasetKind::Psm, DatasetKind::Smd, DatasetKind::NipsTsGlobal] {
        let bench = generate(kind, 7, 400);
        let hp = kind.paper_hparams();
        let mut cfg = fast_cfg();
        cfg.r_temporal = hp.r_t.min(0.5);
        cfg.r_frequency = hp.r_f;
        let mut det = TfmaeDetector::new(cfg);
        det.fit(&bench.train, &bench.val);
        let f32_v = verdicts(&det, &bench, hp.r);
        let bf16_v = verdicts(&quantized_copy(&det, Precision::Bf16), &bench, hp.r);
        let int8_v = verdicts(&quantized_copy(&det, Precision::Int8), &bench, hp.r);
        let bf = f32_v.iter().zip(bf16_v.iter()).filter(|(a, b)| a != b).count();
        let i8 = f32_v.iter().zip(int8_v.iter()).filter(|(a, b)| a != b).count();
        eprintln!("{kind:?}: {} verdicts, bf16 flips {bf}, int8 flips {i8}", f32_v.len());
        total += f32_v.len();
        bf16_flips += bf;
        int8_flips += i8;
    }
    let bf16_rate = bf16_flips as f64 / total as f64;
    let int8_rate = int8_flips as f64 / total as f64;
    eprintln!(
        "verdict flips vs f32 over {total} test points: \
         bf16 {bf16_flips} ({:.4}%), int8 {int8_flips} ({:.4}%)",
        bf16_rate * 100.0,
        int8_rate * 100.0
    );
    // The PR's acceptance gate: bf16 flips ≤ 0.1% of verdicts.
    assert!(
        bf16_rate <= 0.001,
        "bf16 verdict-flip rate {:.4}% exceeds the 0.1% gate ({bf16_flips}/{total})",
        bf16_rate * 100.0
    );
    // int8 is reported, not gated at 0.1%; this bound only catches a
    // catastrophically broken dequantization path.
    assert!(
        int8_rate <= 0.05,
        "int8 verdict-flip rate {:.4}% is implausibly high ({int8_flips}/{total})",
        int8_rate * 100.0
    );
}

#[test]
fn f32_load_of_a_quantized_checkpoint_scores_bitwise_identically() {
    let bench = generate(DatasetKind::NipsTsGlobal, 11, 800);
    let mut det = TfmaeDetector::new(fast_cfg());
    det.fit(&bench.train, &bench.val);
    let want = det.score(&bench.test);

    let dir = std::env::temp_dir().join("tfmae_quant_identity");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.json");
    det.save_quantized(&path, Precision::Bf16).unwrap();

    // The stored precision is surfaced but NOT applied: with `--precision
    // f32` the quant section must leave scoring bitwise untouched.
    let (loaded, _, stored) = TfmaeDetector::load_full(&path).unwrap();
    assert_eq!(stored, Some(Precision::Bf16));
    assert_eq!(loaded.precision(), Precision::F32);
    assert_eq!(loaded.score(&bench.test), want, "f32 path must stay bitwise identical");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serving_engine_applies_precision_and_skips_finetune() {
    let bench = generate(DatasetKind::NipsTsGlobal, 13, 800);
    let mut det = TfmaeDetector::new(fast_cfg());
    det.fit(&bench.train, &bench.val);
    let win = det.cfg.win_len;
    let hop = 4;

    let run = |det: TfmaeDetector, precision: Precision| {
        let mut cfg = ServingConfig::new(f32::MAX, hop);
        cfg.precision = precision;
        cfg.adaptation.enabled = true;
        cfg.adaptation.finetune = true;
        let mut eng = ServingEngine::new(det, cfg);
        let id = eng.add_stream();
        let mut out = Vec::new();
        for t in 0..win * 2 {
            out.extend(eng.tick(&[(id, bench.test.row(t))]).verdicts);
        }
        if precision == Precision::F32 {
            assert!(eng.reservoir_len() > 0, "f32 serving should buffer fine-tune windows");
        } else {
            assert_eq!(eng.reservoir_len(), 0, "quantized serving must not buffer them");
        }
        (eng, out)
    };

    let (f32_eng, f32_v) = run(quantized_copy(&det, Precision::F32), Precision::F32);
    let (bf16_eng, bf16_v) = run(det, Precision::Bf16);
    assert_eq!(f32_eng.precision(), Precision::F32);
    assert_eq!(bf16_eng.precision(), Precision::Bf16);
    assert_eq!(f32_v.len(), bf16_v.len());
    for (a, b) in f32_v.iter().zip(bf16_v.iter()) {
        assert_eq!(a.verdict.t, b.verdict.t);
        assert!(
            (a.verdict.score - b.verdict.score).abs() <= 0.05 * (1.0 + a.verdict.score.abs()),
            "t={}: f32 {} vs bf16 {}",
            a.verdict.t,
            a.verdict.score,
            b.verdict.score
        );
    }
}
