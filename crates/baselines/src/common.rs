//! Shared protocol pieces for all detectors.
//!
//! §V-A5: "For a fair comparison, thresholds of all methods are calculated
//! through the validation set" and every method sees the same normalized
//! windows of length 100.

use tfmae_data::{Benchmark, Detector};
use tfmae_metrics::{apply_threshold, point_adjust, threshold_for_ratio, Prf};

/// Common training hyper-parameters for the deep baselines.
#[derive(Clone, Copy, Debug)]
pub struct DeepProtocol {
    /// Model input length (paper fixes 100 for all methods, §V-B).
    pub win_len: usize,
    /// Windows per batch.
    pub batch: usize,
    /// Training epochs over the (scaled) training split. One epoch is one
    /// Adam step per batch of `batch` windows, so a split that yields at
    /// most `batch` windows gets one step per epoch.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Latent width of the baseline's backbone.
    pub d_model: usize,
    /// Stride between training windows (≤ win_len; smaller = more samples).
    pub train_stride: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DeepProtocol {
    fn default() -> Self {
        Self { win_len: 100, batch: 32, epochs: 3, lr: 1e-3, d_model: 64, train_stride: 50, seed: 7 }
    }
}

impl DeepProtocol {
    /// A fast configuration for unit tests.
    pub fn tiny() -> Self {
        Self { win_len: 32, batch: 16, epochs: 2, d_model: 16, train_stride: 16, ..Self::default() }
    }
}

/// The full evaluation protocol of the paper: score the validation split,
/// take the `(1−r)` quantile as δ (Eq. 17), score the test split, apply
/// point adjustment, and report P/R/F1.
pub fn evaluate(det: &mut dyn Detector, bench: &Benchmark, r: f64) -> Prf {
    det.fit(&bench.train, &bench.val);
    evaluate_fitted(det, bench, r)
}

/// Same as [`evaluate`] but assumes `det` is already fitted.
pub fn evaluate_fitted(det: &dyn Detector, bench: &Benchmark, r: f64) -> Prf {
    let val_scores = det.score(&bench.val);
    let delta = threshold_for_ratio(&val_scores, r);
    let test_scores = det.score(&bench.test);
    let pred = apply_threshold(&test_scores, delta);
    let adjusted = point_adjust(&pred, &bench.test_labels);
    Prf::from_predictions(&adjusted, &bench.test_labels)
}


/// Extracts, shuffles and batches training windows from a normalized series.
/// Returns `(starts, values)` pairs with values shaped `[B, win_len, dims]`.
pub fn training_batches(
    series: &tfmae_data::TimeSeries,
    win_len: usize,
    batch: usize,
    shuffle_seed: u64,
) -> Vec<(Vec<usize>, Vec<f32>)> {
    training_batches_strided(series, win_len, win_len, batch, shuffle_seed)
}

/// [`training_batches`] with an explicit stride between training windows.
pub fn training_batches_strided(
    series: &tfmae_data::TimeSeries,
    win_len: usize,
    stride: usize,
    batch: usize,
    shuffle_seed: u64,
) -> Vec<(Vec<usize>, Vec<f32>)> {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut windows = tfmae_data::extract_windows(series, win_len, stride.min(win_len));
    let mut rng = rand::rngs::StdRng::seed_from_u64(shuffle_seed);
    windows.shuffle(&mut rng);
    tfmae_data::batch_windows(&windows, batch)
}

/// Scores a series with a per-batch closure producing `B * win_len`
/// per-observation scores, folding overlaps back onto the timeline.
pub fn score_windows(
    series: &tfmae_data::TimeSeries,
    win_len: usize,
    batch: usize,
    mut f: impl FnMut(&[f32], usize) -> Vec<f32>,
) -> Vec<f32> {
    let windows = tfmae_data::extract_windows(series, win_len, win_len);
    let mut per_window = Vec::with_capacity(windows.len());
    for (starts, values) in tfmae_data::batch_windows(&windows, batch) {
        let b = starts.len();
        let scores = f(&values, b);
        assert_eq!(scores.len(), b * win_len, "per-batch score size mismatch");
        for (wi, &start) in starts.iter().enumerate() {
            per_window.push((start, scores[wi * win_len..(wi + 1) * win_len].to_vec()));
        }
    }
    tfmae_data::fold_scores(series.len(), win_len, &per_window)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfmae_data::{generate, DatasetKind, TimeSeries};

    /// A detector that scores each observation by its absolute deviation
    /// from the training mean — a useful oracle-ish reference.
    pub struct MeanDeviation {
        mean: Vec<f32>,
    }

    impl Detector for MeanDeviation {
        fn name(&self) -> String {
            "MeanDeviation".into()
        }
        fn fit(&mut self, train: &TimeSeries, _val: &TimeSeries) {
            self.mean = train.channel_means();
        }
        fn score(&self, series: &TimeSeries) -> Vec<f32> {
            (0..series.len())
                .map(|t| {
                    (0..series.dims())
                        .map(|n| (series.get(t, n) - self.mean[n]).abs())
                        .sum::<f32>()
                })
                .collect()
        }
    }

    #[test]
    fn protocol_runs_and_detects_global_anomalies() {
        let bench = generate(DatasetKind::NipsTsGlobal, 7, 400);
        let mut det = MeanDeviation { mean: Vec::new() };
        let prf = evaluate(&mut det, &bench, 0.05);
        // Global spikes are exactly what mean-deviation finds; with point
        // adjustment the simple detector must do well.
        assert!(prf.f1 > 50.0, "mean-deviation F1 was {}", prf.f1);
    }

    #[test]
    fn evaluate_fitted_is_deterministic() {
        let bench = generate(DatasetKind::NipsTsGlobal, 7, 800);
        let mut det = MeanDeviation { mean: Vec::new() };
        det.fit(&bench.train, &bench.val);
        let a = evaluate_fitted(&det, &bench, 0.05);
        let b = evaluate_fitted(&det, &bench, 0.05);
        assert_eq!(a, b);
    }
}
