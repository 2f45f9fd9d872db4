//! End-to-end TFMAE detector: normalization → windowing → training loop →
//! per-observation scoring (§IV-D).

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tfmae_data::{
    batch_windows, extract_windows, Detector, FitReport, ScoreAccumulator, TimeSeries, ZScore,
};
use tfmae_nn::{Adam, Ctx};
use tfmae_obs::{LazyCounter, LazyHistogram};
use tfmae_tensor::{ExecStats, Executor, Graph, Precision, QuantStore, Var};

use crate::adapt::{FINETUNE_BATCH, FINETUNE_STEPS};
use crate::config::TfmaeConfig;
use crate::model::{BatchInputs, TfmaeModel};
use crate::robust::{TrainGuard, TrainReport, MAX_RETRIES_PER_BATCH};

/// XOR salt that sets the scoring-time mask RNG apart from the training
/// streams seeded from the same `cfg.seed`.
const SCORE_MASK_SALT: u64 = 0x5c0e;

/// TFMAE wrapped as a [`Detector`] with the paper's training protocol.
pub struct TfmaeDetector {
    /// Hyper-parameters (frozen at `fit` time).
    pub cfg: TfmaeConfig,
    model: Option<TfmaeModel>,
    norm: Option<ZScore>,
    /// Quantized 2-D weight copies for low-precision serving (`None` = the
    /// f32 path). Set by [`TfmaeDetector::set_precision`], which also
    /// releases the f32 data of the quantized weights — a quantized
    /// detector is serve-only.
    quant: Option<QuantStore>,
    /// Execution backend: worker pool + recycled tape buffers, shared by
    /// every graph this detector builds (thread count honours
    /// [`tfmae_tensor::THREADS_ENV`]).
    exec: Arc<Executor>,
    /// Resource accounting from the last `fit` (Fig. 10).
    pub fit_report: FitReport,
    /// Guardrail outcome of the last `fit` (rollbacks, skipped batches,
    /// final learning rate).
    pub train_report: TrainReport,
    /// Per-step training losses from the last `fit` (diagnostics; only
    /// certified steps appear here).
    pub loss_curve: Vec<f32>,
}

impl TfmaeDetector {
    /// Creates an untrained detector.
    pub fn new(cfg: TfmaeConfig) -> Self {
        Self {
            cfg,
            model: None,
            norm: None,
            quant: None,
            exec: Arc::new(Executor::from_env()),
            fit_report: FitReport::default(),
            train_report: TrainReport::default(),
            loss_curve: Vec::new(),
        }
    }

    /// Replaces the execution backend (thread count / buffer pool). Useful
    /// for determinism tests that pin an explicit worker count instead of
    /// the environment default.
    pub fn set_executor(&mut self, exec: Arc<Executor>) {
        self.exec = exec;
    }

    /// The execution backend in use.
    pub fn executor(&self) -> &Arc<Executor> {
        &self.exec
    }

    /// Execution-layer counters (tasks dispatched, pool hit rate, bytes
    /// recycled) accumulated across everything this detector has run.
    pub fn exec_stats(&self) -> ExecStats {
        self.exec.stats()
    }

    /// Access to the trained model (after `fit`).
    pub fn model(&self) -> Option<&TfmaeModel> {
        self.model.as_ref()
    }

    /// Mutable model access for the serving-side adaptation loop (snapshot
    /// restore after a guard-band rollback).
    pub(crate) fn model_mut(&mut self) -> Option<&mut TfmaeModel> {
        self.model.as_mut()
    }

    /// Access to the fitted normalizer (after `fit`).
    pub fn norm(&self) -> Option<&ZScore> {
        self.norm.as_ref()
    }

    /// The serving precision: [`Precision::F32`] unless
    /// [`TfmaeDetector::set_precision`] installed quantized weights.
    pub fn precision(&self) -> Precision {
        self.quant.as_ref().map_or(Precision::F32, |q| q.precision())
    }

    /// The quantized weight store, when serving at reduced precision.
    pub fn quant(&self) -> Option<&QuantStore> {
        self.quant.as_ref()
    }

    /// The scoring pass's context on tape `g`: the fitted weights, read
    /// through their quantized copies when a serving precision is set.
    /// Offline scoring and the serving engine both score through it.
    pub(crate) fn eval_ctx<'a>(&'a self, g: &'a Graph) -> Ctx<'a> {
        let ps = &self.model.as_ref().expect("fit before score").ps;
        match &self.quant {
            Some(q) => Ctx::eval_quant(g, ps, q),
            None => Ctx::eval(g, ps),
        }
    }

    /// The RNG the random mask variants draw from at scoring time: seeded
    /// from `cfg.seed` and [`SCORE_MASK_SALT`], once per offline scoring
    /// call and once per window in the serving engine.
    pub(crate) fn score_mask_rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.cfg.seed ^ SCORE_MASK_SALT)
    }

    /// Switches the detector to a serving precision. `F32` is a no-op on an
    /// unquantized detector; `Bf16`/`Int8` quantize every 2-D weight (per
    /// [`QuantStore::from_params`], with per-layer parity bounds asserted)
    /// and **release the f32 copies** — the memory win this path exists
    /// for. A quantized detector is serve-only: it scores, but it cannot be
    /// re-quantized at another precision, fine-tuned, refitted in place or
    /// checkpointed (reload the f32 checkpoint for any of those).
    pub fn set_precision(&mut self, precision: Precision) -> Result<(), String> {
        if precision == self.precision() {
            return Ok(());
        }
        if self.quant.is_some() {
            return Err(format!(
                "detector already quantized to {}; the f32 weights were released — \
                 reload the checkpoint to change precision",
                self.precision()
            ));
        }
        let model = self.model.as_mut().ok_or("fit or load before set_precision")?;
        if !model.ps.values_finite() {
            return Err("model has non-finite weights; refusing to quantize".into());
        }
        let quant = QuantStore::from_params(&model.ps, precision);
        static QUANT_SAVED: tfmae_obs::LazyGauge =
            tfmae_obs::LazyGauge::new("serve.quant_bytes_saved");
        // data + grad of every quantized weight go, replaced by the packed
        // copy; 1-D parameters (biases, norms, mask tokens) stay f32.
        let mut released = 0usize;
        for (id, _) in quant.params() {
            let p = model.ps.get_mut(id);
            released += (p.data.len() + p.grad.len()) * std::mem::size_of::<f32>();
            p.data = Vec::new();
            p.grad = Vec::new();
        }
        QUANT_SAVED.set(released.saturating_sub(quant.bytes()) as i64);
        self.quant = Some(quant);
        Ok(())
    }

    /// The adaptation loop's fixed number of guarded optimizer steps
    /// (`FINETUNE_STEPS`, each on `FINETUNE_BATCH` windows) on
    /// already-normalized `[win_len × dims]` windows — the background
    /// fine-tune of the serving adaptation loop (see [`crate::adapt`]), at [`TfmaeConfig::finetune_lr`] through
    /// `fit`'s guarded step under a fresh guard. Its last update is not
    /// re-inspected: the serving guard band judges it. `salt` decorrelates
    /// the mask/shuffle RNG across successive updates (deterministic per
    /// `(seed, salt)`).
    ///
    /// Returns the guard's [`TrainReport`]; a default (all-zero) report is
    /// returned when the detector is unfitted, quantized (the f32 weights
    /// gradient descent needs were released) or `windows` is empty.
    pub fn finetune(&mut self, windows: &[Vec<f32>], salt: u64) -> TrainReport {
        let cfg = self.cfg.clone();
        let exec = self.exec.clone();
        if self.quant.is_some() {
            return TrainReport::default();
        }
        let Some(model) = self.model.as_mut() else { return TrainReport::default() };
        if windows.is_empty() {
            return TrainReport::default();
        }
        let row = cfg.win_len * model.dims();
        debug_assert!(windows.iter().all(|w| w.len() == row), "window shape mismatch");
        static TUNE_SPAN: LazyHistogram = LazyHistogram::new("serve.finetune_ns");
        let _tune_span = TUNE_SPAN.enter();

        let mut opt = Adam::new(&model.ps, cfg.finetune_lr());
        let mut guard = TrainGuard::new(&model.ps, &opt);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xf17e ^ salt.rotate_left(17));
        let g = Graph::with_executor(exec);
        let mut order: Vec<usize> = (0..windows.len()).collect();
        let mut steps_done: u64 = 0;
        let mut aborted = false;
        for step in 0..FINETUNE_STEPS {
            order.shuffle(&mut rng);
            let b = FINETUNE_BATCH.min(windows.len());
            let mut values = Vec::with_capacity(b * row);
            for &wi in order.iter().take(b) {
                values.extend_from_slice(&windows[wi]);
            }
            let batch = model.prepare_batch(values, b, &mut rng);
            let seed = cfg.seed ^ salt ^ step as u64;
            match guarded_step(&g, model, &mut opt, &mut guard, &batch, seed, None) {
                StepOutcome::Applied(_) => steps_done += 1,
                StepOutcome::Skipped => {}
                StepOutcome::Aborted => {
                    aborted = true;
                    break;
                }
            }
        }
        guard.finish(steps_done, aborted, opt.lr)
    }

    /// Reassembles a detector from checkpoint parts (see
    /// [`crate::checkpoint`]).
    pub fn from_parts(cfg: TfmaeConfig, model: TfmaeModel, norm: ZScore) -> Self {
        Self {
            cfg,
            model: Some(model),
            norm: Some(norm),
            quant: None,
            exec: Arc::new(Executor::from_env()),
            fit_report: FitReport::default(),
            train_report: TrainReport::default(),
            loss_curve: Vec::new(),
        }
    }

    /// Per-observation score components `(latent KL, dual-recon)` for a
    /// series, each folded onto the timeline but **not** combined — used by
    /// callers that need to freeze normalization constants (online scoring,
    /// see [`ServingEngine::calibrate`](crate::ServingEngine::calibrate)).
    pub fn score_components(&self, series: &TimeSeries) -> (Vec<f32>, Vec<f32>) {
        let model = self.model.as_ref().expect("fit before score");
        let norm = self.norm.as_ref().expect("fit before score");
        self.components_normalized(model, &norm.transform(series))
    }

    fn score_normalized(&self, model: &TfmaeModel, series: &TimeSeries) -> Vec<f32> {
        let (kl, dual) = self.components_normalized(model, series);
        crate::model::combine_scores(&kl, &dual)
    }

    fn components_normalized(
        &self,
        model: &TfmaeModel,
        series: &TimeSeries,
    ) -> (Vec<f32>, Vec<f32>) {
        let t = self.cfg.win_len;
        let windows = extract_windows(series, t, t);
        let mut rng = self.score_mask_rng();
        // Fold each component straight out of the batch output buffers;
        // `score_normalized` combines them with *series-global* means so
        // batch boundaries leave no seams.
        let mut kl_fold = ScoreAccumulator::new(series.len(), t);
        let mut dual_fold = ScoreAccumulator::new(series.len(), t);
        // One tape for every batch: `reset` drains the nodes back into the
        // executor's buffer pool so steady-state scoring allocates nothing.
        let g = Graph::with_executor(self.exec.clone());
        for (starts, values) in batch_windows(&windows, self.cfg.batch) {
            g.reset();
            let b = starts.len();
            let batch = model.prepare_batch(values, b, &mut rng);
            let ctx = self.eval_ctx(&g);
            let out = model.forward(&ctx, &batch);
            let (kl, dual) = model.anomaly_score_components(&ctx, &out);
            for (wi, &start) in starts.iter().enumerate() {
                kl_fold.add(start, &kl[wi * t..(wi + 1) * t]);
                dual_fold.add(start, &dual[wi * t..(wi + 1) * t]);
            }
        }
        (kl_fold.finish(), dual_fold.finish())
    }
}

/// How one [`guarded_step`] ended: applied (with its loss), skipped after
/// its retries, or aborted on an exhausted rollback budget (the model holds
/// the last certified parameters).
enum StepOutcome {
    Applied(f32),
    Skipped,
    Aborted,
}

/// Train-mode forward and Eq. 15 loss of `batch` on the reset tape `g`.
fn batch_loss(g: &Graph, model: &TfmaeModel, batch: &BatchInputs, seed: u64) -> (Var, f32) {
    g.reset();
    let ctx = Ctx::train(g, &model.ps, seed);
    let out = model.forward(&ctx, batch);
    let loss = model.training_loss(&ctx, &out);
    (loss, g.scalar_value(loss))
}

/// One guarded optimizer step, shared by `fit` and `finetune`: forward,
/// loss and backward, then inspect. A clean step is certified and applied.
/// A faulty one (non-finite loss or gradients, or a diverged loss) is rolled
/// back to the last certified state and retried at the backed-off learning
/// rate, and the batch is skipped after `MAX_RETRIES_PER_BATCH` retries.
/// `span`, when given, times every attempt.
fn guarded_step(
    g: &Graph,
    model: &mut TfmaeModel,
    opt: &mut Adam,
    guard: &mut TrainGuard,
    batch: &BatchInputs,
    seed: u64,
    span: Option<&LazyHistogram>,
) -> StepOutcome {
    let mut retries = 0u32;
    loop {
        let _span = span.map(LazyHistogram::enter);
        let (loss, loss_val) = batch_loss(g, model, batch, seed);
        g.backward_params_pooled(loss, &mut model.ps);
        if guard.inspect(loss_val, &model.ps).is_none() {
            guard.certify(loss_val, &model.ps, opt);
            opt.step(&mut model.ps);
            return StepOutcome::Applied(loss_val);
        }
        model.ps.zero_grads();
        if !guard.rollback(&mut model.ps, opt) {
            return StepOutcome::Aborted;
        }
        retries += 1;
        if retries > MAX_RETRIES_PER_BATCH {
            guard.report.skipped_batches += 1;
            return StepOutcome::Skipped;
        }
    }
}

impl Detector for TfmaeDetector {
    fn name(&self) -> String {
        "TFMAE".to_string()
    }

    fn fit(&mut self, train: &TimeSeries, _val: &TimeSeries) {
        let cfg = self.cfg.clone();
        cfg.validate().expect("invalid TfmaeConfig");
        static FIT_SPAN: LazyHistogram = LazyHistogram::new("train.fit_ns");
        let _fit_span = FIT_SPAN.enter();
        let start = Instant::now();

        let norm = ZScore::fit(train);
        let train_n = norm.transform(train);
        let mut model = TfmaeModel::new(cfg.clone(), train.dims());
        let mut opt = Adam::new(&model.ps, cfg.lr);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xf17);

        let windows = extract_windows(&train_n, cfg.win_len, cfg.train_stride.min(cfg.win_len));
        // Masks depend only on window contents (Eq. 2/8), so compute them
        // once per window, on all cores, and reuse across epochs. Each
        // window writes only its own slot. The non-Random kinds draw no
        // random numbers: every chunk masks with a copy of `rng` and asserts
        // the copy comes back unadvanced, so the epoch shuffles see the
        // stream they always did. The Random mask variants intentionally
        // redraw every epoch instead.
        let reuse_masks = cfg.temporal_mask != crate::config::TemporalMaskKind::Random
            && cfg.freq_mask != crate::config::FreqMaskKind::Random;
        let mut mask_cache: Vec<(crate::masking::temporal::TemporalMask, crate::masking::frequency::FrequencyMaskData)> =
            if reuse_masks {
                static MASK_SPAN: LazyHistogram = LazyHistogram::new("train.mask_precompute_ns");
                let _mask_span = MASK_SPAN.enter();
                let slots: Vec<OnceLock<_>> = windows.iter().map(|_| OnceLock::new()).collect();
                self.exec.parallel_for(windows.len(), 1, &|w0, w1| {
                    let mut copy = rng.clone();
                    for (slot, w) in slots[w0..w1].iter().zip(&windows[w0..w1]) {
                        let _ = slot.set(model.window_masks(&w.values, &mut copy));
                    }
                    assert!(copy == rng, "a non-Random mask kind drew from the training RNG");
                });
                slots.into_iter().map(|s| s.into_inner().expect("every window was masked")).collect()
            } else {
                Vec::new()
            };

        let mut guard = TrainGuard::new(&model.ps, &opt);
        let mut aborted = false;

        let mut losses = Vec::new();
        let mut max_activation = 0usize;
        let mut step: u64 = 0;
        let mut last_batch: Option<BatchInputs> = None;
        let mut order: Vec<usize> = (0..windows.len()).collect();
        // One persistent tape for the whole fit: `reset` returns every node
        // buffer to the executor's pool, so after the first batch warms it
        // up the training loop performs zero per-step tape allocations.
        let g = Graph::with_executor(self.exec.clone());
        static STEP_SPAN: LazyHistogram = LazyHistogram::new("train.step_ns");
        'epochs: for _epoch in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(cfg.batch) {
                let b = chunk.len();
                let mut values = Vec::with_capacity(b * cfg.win_len * train.dims());
                for &wi in chunk {
                    values.extend_from_slice(&windows[wi].values);
                }
                let batch = if reuse_masks {
                    BatchInputs {
                        values,
                        b,
                        masks_t: chunk.iter().map(|&wi| mask_cache[wi].0.clone()).collect(),
                        masks_f: chunk.iter().map(|&wi| mask_cache[wi].1.clone()).collect(),
                    }
                } else {
                    model.prepare_batch(values, b, &mut rng)
                };
                let seed = cfg.seed ^ step;
                // Only an applied final step needs the validation below.
                last_batch = None;
                let span = Some(&STEP_SPAN);
                match guarded_step(&g, &mut model, &mut opt, &mut guard, &batch, seed, span) {
                    StepOutcome::Applied(loss_val) => {
                        max_activation = max_activation.max(g.activation_bytes());
                        losses.push(loss_val);
                        step += 1;
                        static STEPS: LazyCounter = LazyCounter::new("train.steps");
                        STEPS.inc();
                        last_batch = Some(batch);
                    }
                    StepOutcome::Skipped => {
                        static SKIPPED: LazyCounter = LazyCounter::new("train.skipped_batches");
                        SKIPPED.inc();
                    }
                    StepOutcome::Aborted => {
                        aborted = true;
                        break 'epochs;
                    }
                }
            }
        }
        mask_cache.clear();

        // The guard certifies parameters *before* each update, so the very
        // last optimizer step is never covered by an in-loop check. Validate
        // it with one extra forward pass and roll back if it poisoned the
        // model (e.g. a huge-LR blow-up on the final batch).
        if let Some(batch) = last_batch.take() {
            let (_, loss_val) = batch_loss(&g, &model, &batch, cfg.seed ^ step);
            if !model.ps.values_finite() || guard.inspect(loss_val, &model.ps).is_some() {
                guard.rollback(&mut model.ps, &mut opt);
            }
        }

        self.fit_report = FitReport {
            seconds: start.elapsed().as_secs_f64(),
            bytes: model.ps.bytes() + max_activation,
            steps: step,
            final_loss: losses.last().copied().unwrap_or(0.0) as f64,
        };
        self.train_report = guard.finish(step, aborted, opt.lr);
        self.train_report.exec = self.exec.stats();
        self.loss_curve = losses;
        self.model = Some(model);
        self.norm = Some(norm);
        // A refit always lands in f32: the fresh weights supersede any
        // quantized copies of the old ones.
        self.quant = None;
    }

    fn score(&self, series: &TimeSeries) -> Vec<f32> {
        let model = self.model.as_ref().expect("fit before score");
        let norm = self.norm.as_ref().expect("fit before score");
        self.score_normalized(model, &norm.transform(series))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfmae_data::{Component, render};

    fn tiny_series(len: usize, seed: u64) -> TimeSeries {
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

    #[test]
    fn fit_and_score_end_to_end() {
        let train = tiny_series(256, 1);
        let val = tiny_series(64, 2);
        let mut det = TfmaeDetector::new(TfmaeConfig::tiny());
        det.fit(&train, &val);
        assert!(det.fit_report.steps > 0);
        assert!(det.fit_report.seconds > 0.0);
        assert!(det.fit_report.bytes > 0);
        assert!(det.loss_curve.iter().all(|l| l.is_finite()));

        let test = tiny_series(128, 3);
        let scores = det.score(&test);
        assert_eq!(scores.len(), 128);
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn set_precision_releases_f32_and_enforces_serve_only() {
        let train = tiny_series(256, 40);
        let mut det = TfmaeDetector::new(TfmaeConfig::tiny());
        det.fit(&train, &train);
        let test = tiny_series(128, 41);
        let want = det.score(&test);

        assert_eq!(det.precision(), Precision::F32);
        det.set_precision(Precision::F32).unwrap(); // no-op
        assert!(det.quant().is_none());

        det.set_precision(Precision::Bf16).unwrap();
        assert_eq!(det.precision(), Precision::Bf16);
        let model = det.model().unwrap();
        for p in model.ps.params() {
            if p.shape.len() == 2 {
                assert!(p.data.is_empty() && p.grad.is_empty(), "{} not released", p.name);
            } else {
                assert_eq!(p.data.len(), p.shape.iter().product::<usize>(), "{}", p.name);
            }
        }
        let got = det.score(&test);
        for (a, b) in got.iter().zip(want.iter()) {
            assert!((a - b).abs() <= 0.05 * (1.0 + b.abs()), "bf16 {a} vs f32 {b}");
        }

        // Serve-only: the released f32 weights rule out everything below.
        assert!(det.set_precision(Precision::Int8).is_err());
        assert!(det.set_precision(Precision::F32).is_err());
        det.set_precision(Precision::Bf16).unwrap(); // same precision: fine
        let windows = vec![vec![0.0; det.cfg.win_len]];
        assert_eq!(det.finetune(&windows, 0).steps, 0, "no fine-tune when quantized");

        // A refit replaces the weights and lands back in f32.
        det.fit(&train, &train);
        assert_eq!(det.precision(), Precision::F32);
        assert!(det.score(&test).iter().all(|s| s.is_finite()));
    }

    #[test]
    fn spike_scores_above_median() {
        let train = tiny_series(512, 4);
        let val = tiny_series(64, 5);
        let mut cfg = TfmaeConfig::tiny();
        cfg.epochs = 4;
        let mut det = TfmaeDetector::new(cfg);
        det.fit(&train, &val);

        let mut test = tiny_series(160, 6);
        let spike_t = 80;
        test.set(spike_t, 0, 12.0);
        let scores = det.score(&test);
        let mut sorted = scores.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[scores.len() / 2];
        let local_max =
            (spike_t.saturating_sub(2)..=(spike_t + 2)).map(|t| scores[t]).fold(f32::MIN, f32::max);
        assert!(
            local_max > median,
            "spike region should outscore the median: {local_max} vs {median}"
        );
    }

    #[test]
    #[should_panic(expected = "fit before score")]
    fn scoring_before_fit_panics() {
        let det = TfmaeDetector::new(TfmaeConfig::tiny());
        det.score(&tiny_series(64, 0));
    }

    #[test]
    fn nan_training_data_recovers_with_rollbacks() {
        // Poison a stretch of the training series with NaNs: the guard must
        // record the faults and still hand back a usable (finite) model.
        let mut train = tiny_series(256, 10);
        for t in 100..110 {
            train.set(t, 0, f32::NAN);
        }
        let val = tiny_series(64, 11);
        let mut det = TfmaeDetector::new(TfmaeConfig::tiny());
        det.fit(&train, &val);
        let report = det.train_report.clone();
        assert!(
            report.rollbacks > 0 || report.skipped_batches > 0,
            "NaN batches should trip the guard: {report:?}"
        );
        assert!(det.loss_curve.iter().all(|l| l.is_finite()));
        let scores = det.score(&tiny_series(96, 12));
        assert!(scores.iter().all(|s| s.is_finite()), "scores must stay finite");
    }

    #[test]
    fn clean_data_trains_without_guard_faults() {
        let mut det = TfmaeDetector::new(TfmaeConfig::tiny());
        det.fit(&tiny_series(256, 13), &tiny_series(64, 14));
        let report = &det.train_report;
        assert_eq!(report.rollbacks, 0);
        assert_eq!(report.skipped_batches, 0);
        assert!(!report.aborted);
    }

    #[test]
    fn deterministic_given_seed() {
        let train = tiny_series(256, 7);
        let val = tiny_series(64, 8);
        let test = tiny_series(96, 9);
        let run = || {
            let mut det = TfmaeDetector::new(TfmaeConfig::tiny());
            det.fit(&train, &val);
            det.score(&test)
        };
        assert_eq!(run(), run());
    }
}
