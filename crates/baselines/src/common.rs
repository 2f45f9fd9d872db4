//! Shared protocol pieces for all detectors: the evaluation protocol, and
//! the one training and scoring driver (`fit_deep`, `score_deep`) that every
//! deep baseline runs through.
//!
//! §V-A5: "For a fair comparison, thresholds of all methods are calculated
//! through the validation set" and every method sees the same normalized
//! windows of length 100.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tfmae_data::{Benchmark, Detector, ScoreAccumulator, TimeSeries, ZScore};
use tfmae_metrics::{apply_threshold, point_adjust, threshold_for_ratio, Prf};
use tfmae_nn::{Adam, Ctx};
use tfmae_tensor::{Graph, ParamStore, Var};

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

/// What every deep baseline's `fit` leaves behind: the training split's
/// scaler, the channel count, the trained parameters and the baseline's own
/// network `N` (its layers plus any state fitted around training, such as
/// DSVDD's center or DAGMM's mixture).
pub(crate) struct Fitted<N> {
    pub(crate) norm: ZScore,
    pub(crate) dims: usize,
    pub(crate) ps: ParamStore,
    pub(crate) net: N,
}

/// The one training loop of the deep baselines. It z-scores `train`, lets
/// `build` create the network in a parameter store seeded from `p.seed`
/// (`build` also sees the normalized split, for warm starts), then runs
/// `p.epochs` epochs of Adam over shuffled strided windows. `loss` builds
/// one batch's scalar loss from the `[B, win_len, dims]` values, the batch
/// size `B` and the epoch (for weight schedules).
pub(crate) fn fit_deep<N>(
    p: &DeepProtocol,
    train: &TimeSeries,
    build: impl FnOnce(&mut ParamStore, &mut StdRng, &TimeSeries) -> N,
    mut loss: impl FnMut(&Fitted<N>, &Ctx, &[f32], usize, usize) -> Var,
) -> Fitted<N> {
    let norm = ZScore::fit(train);
    let tn = norm.transform(train);
    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(p.seed);
    let net = build(&mut ps, &mut rng, &tn);
    let mut fitted = Fitted { norm, dims: train.dims(), ps, net };
    let mut opt = Adam::new(&fitted.ps, p.lr);
    let g = Graph::from_env();
    for epoch in 0..p.epochs {
        let shuffle_seed = p.seed ^ epoch as u64;
        let batches = training_batches_strided(&tn, p.win_len, p.train_stride, p.batch, shuffle_seed);
        for (starts, values) in batches {
            g.reset();
            let ctx = Ctx::train(&g, &fitted.ps, shuffle_seed);
            let l = loss(&fitted, &ctx, &values, starts.len(), epoch);
            g.backward_params_pooled(l, &mut fitted.ps);
            opt.step(&mut fitted.ps);
        }
    }
    fitted
}

/// The one scoring loop of the deep baselines: normalizes `series` with the
/// fitted scaler and scores its non-overlapping windows batch by batch on
/// one tape, each batch under a fresh eval context. `score` returns
/// `B * win_len` per-observation scores for a batch of `B` windows.
pub(crate) fn score_deep<N>(
    p: &DeepProtocol,
    fitted: Option<&Fitted<N>>,
    series: &TimeSeries,
    mut score: impl FnMut(&Fitted<N>, &Ctx, &[f32], usize) -> Vec<f32>,
) -> Vec<f32> {
    let fitted = fitted.expect("fit before score");
    let s = fitted.norm.transform(series);
    let g = Graph::from_env();
    score_windows(&s, p.win_len, p.batch, |values, b| {
        g.reset();
        let ctx = Ctx::eval(&g, &fitted.ps);
        score(fitted, &ctx, values, b)
    })
}

/// Extracts, shuffles and batches training windows from a normalized series
/// at the given stride. Returns `(starts, values)` pairs with values shaped
/// `[B, win_len, dims]`.
fn training_batches_strided(
    series: &TimeSeries,
    win_len: usize,
    stride: usize,
    batch: usize,
    shuffle_seed: u64,
) -> Vec<(Vec<usize>, Vec<f32>)> {
    use rand::seq::SliceRandom;
    let mut windows = tfmae_data::extract_windows(series, win_len, stride.min(win_len));
    let mut rng = StdRng::seed_from_u64(shuffle_seed);
    windows.shuffle(&mut rng);
    tfmae_data::batch_windows(&windows, batch)
}

/// Scores a series with a per-batch closure producing `B * win_len`
/// per-observation scores, folding overlaps back onto the timeline.
pub fn score_windows(
    series: &TimeSeries,
    win_len: usize,
    batch: usize,
    mut f: impl FnMut(&[f32], usize) -> Vec<f32>,
) -> Vec<f32> {
    let windows = tfmae_data::extract_windows(series, win_len, win_len);
    let mut fold = ScoreAccumulator::new(series.len(), win_len);
    for (starts, values) in tfmae_data::batch_windows(&windows, batch) {
        let b = starts.len();
        let scores = f(&values, b);
        assert_eq!(scores.len(), b * win_len, "per-batch score size mismatch");
        for (&start, window) in starts.iter().zip(scores.chunks_exact(win_len)) {
            fold.add(start, window);
        }
    }
    fold.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfmae_data::{generate, DatasetKind};

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
    fn fit_deep_takes_one_step_per_batch_per_epoch() {
        use tfmae_nn::Linear;
        // 100 rows at stride 16 give six windows of 16 plus a tail-aligned
        // seventh: a batch of 4 and a batch of 3 per epoch.
        let train = TimeSeries::univariate((0..100).map(|t| (t as f32 * 0.3).sin()).collect());
        let p = DeepProtocol { win_len: 16, batch: 4, epochs: 3, train_stride: 16, ..DeepProtocol::tiny() };
        let mut calls = Vec::new();
        let fitted = fit_deep(
            &p,
            &train,
            |ps, rng, tn| Linear::new(ps, rng, "l", tn.dims(), 1),
            |f, ctx, values, b, epoch| {
                calls.push((epoch, b));
                let x = ctx.g.constant_from(values, vec![b * p.win_len, f.dims]);
                ctx.g.mse(f.net.forward(ctx, x), x)
            },
        );
        assert_eq!(calls, [(0, 4), (0, 3), (1, 4), (1, 3), (2, 4), (2, 3)]);
        let scores = score_deep(&p, Some(&fitted), &train, |f, ctx, values, b| {
            let x = ctx.g.constant_from(values, vec![b * p.win_len, f.dims]);
            ctx.g.value(f.net.forward(ctx, x))
        });
        assert_eq!(scores.len(), train.len());
        assert!(scores.iter().all(|s| s.is_finite()));
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
