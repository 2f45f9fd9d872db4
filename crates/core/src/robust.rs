//! Training guardrails: divergence detection, parameter rollback and
//! learning-rate backoff for [`TfmaeDetector::fit`](crate::TfmaeDetector)
//! and the serving-side fine-tune, which share one guarded step.
//!
//! Live telemetry is exactly the setting where training data contains the
//! pathologies the detector exists to find — NaN sensor readings, huge
//! spikes, dead channels. Without guardrails a single non-finite loss
//! silently poisons every parameter through Adam's moment estimates. The
//! `TrainGuard` certifies each step *before* the optimizer applies it: the
//! last certified parameters and optimizer moments are kept as a snapshot,
//! and any step whose loss or gradients are non-finite — or whose loss
//! explodes past a fixed multiple of the best certified loss — is rolled
//! back and retried at a reduced learning rate, under one fixed policy (the
//! constants below). Outcomes land in a structured [`TrainReport`].

use tfmae_nn::Adam;
use tfmae_tensor::{ExecStats, ParamSnapshot, ParamStore};

/// Multiplied into the learning rate after every rollback.
const LR_BACKOFF: f32 = 0.5;
/// Total rollback budget for one guarded run; once exhausted training
/// aborts with the last certified parameters ([`TrainReport::aborted`]). A
/// persistently bad batch burns `MAX_RETRIES_PER_BATCH + 1` rollbacks
/// before it is skipped, so this is a healthy multiple of that.
const MAX_ROLLBACKS: u32 = 32;
/// How often one batch is retried after a rollback before it is skipped (a
/// batch that keeps producing non-finite losses is data-poisoned, not a
/// transient divergence).
pub(crate) const MAX_RETRIES_PER_BATCH: u32 = 2;
/// A *finite* loss exceeding `DIVERGENCE_FACTOR ×` the best certified loss
/// counts as divergence. Large so healthy training never trips it.
const DIVERGENCE_FACTOR: f32 = 1e3;

/// Structured outcome of one guarded `fit` or fine-tune (all zeros on a
/// clean run).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrainReport {
    /// Optimizer steps successfully applied.
    pub steps: u64,
    /// Rollbacks to the last certified snapshot.
    pub rollbacks: u32,
    /// Batches abandoned after exhausting their retry budget.
    pub skipped_batches: u64,
    /// Learning rate in effect when training finished.
    pub final_lr: f32,
    /// Whether the rollback budget ran out and training stopped early (the
    /// model holds the last certified parameters).
    pub aborted: bool,
    /// Execution-layer counters from the detector's [`Executor`]
    /// (worker threads, dispatched tasks, buffer-pool hit rate, recycled
    /// bytes) sampled when `fit` finished.
    ///
    /// [`Executor`]: tfmae_tensor::Executor
    pub exec: ExecStats,
}

/// Why a step was rejected (see [`TrainGuard::inspect`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum StepFault {
    /// The batch loss was NaN or ±Inf.
    NonFiniteLoss,
    /// Backpropagation produced a NaN or ±Inf gradient.
    NonFiniteGrad,
    /// The loss was finite but exploded past `DIVERGENCE_FACTOR ×` the best
    /// certified loss.
    Diverged,
}

/// The guard itself: owns the last certified snapshot and the report.
pub(crate) struct TrainGuard {
    snapshot: ParamSnapshot,
    opt_snapshot: Adam,
    current_lr: f32,
    best_loss: f64,
    /// Running outcome; copied into the detector after `fit`.
    pub(crate) report: TrainReport,
}

impl TrainGuard {
    /// Starts guarding: the initial parameters and optimizer state are the
    /// first certified snapshot.
    pub(crate) fn new(ps: &ParamStore, opt: &Adam) -> Self {
        Self {
            snapshot: ps.snapshot(),
            opt_snapshot: opt.clone(),
            current_lr: opt.lr,
            best_loss: f64::INFINITY,
            report: TrainReport::default(),
        }
    }

    /// Inspects a just-computed step (loss and accumulated gradients,
    /// *before* the optimizer update). `None` means the step is safe.
    pub(crate) fn inspect(&self, loss: f32, ps: &ParamStore) -> Option<StepFault> {
        if !loss.is_finite() {
            return Some(StepFault::NonFiniteLoss);
        }
        if self.best_loss.is_finite()
            && (loss as f64) > DIVERGENCE_FACTOR as f64 * (self.best_loss + 1e-9)
        {
            return Some(StepFault::Diverged);
        }
        if !ps.grads_finite() {
            return Some(StepFault::NonFiniteGrad);
        }
        None
    }

    /// Certifies the *current* (pre-update) state as good: it becomes the
    /// rollback target. Call right before `opt.step`.
    pub(crate) fn certify(&mut self, loss: f32, ps: &ParamStore, opt: &Adam) {
        self.best_loss = self.best_loss.min(loss as f64);
        self.snapshot = ps.snapshot();
        self.opt_snapshot = opt.clone();
    }

    /// Rolls parameters and optimizer back to the last certified snapshot
    /// and cuts the learning rate. Returns `false` once the rollback budget
    /// is exhausted (training should abort; the model already holds the
    /// last certified parameters).
    pub(crate) fn rollback(&mut self, ps: &mut ParamStore, opt: &mut Adam) -> bool {
        self.report.rollbacks += 1;
        static ROLLBACKS: tfmae_obs::LazyCounter = tfmae_obs::LazyCounter::new("train.rollbacks");
        ROLLBACKS.inc();
        ps.restore(&self.snapshot);
        *opt = self.opt_snapshot.clone();
        self.current_lr *= LR_BACKOFF;
        opt.lr = self.current_lr;
        self.report.rollbacks <= MAX_ROLLBACKS
    }

    /// Finalizes the report after training.
    pub(crate) fn finish(mut self, steps: u64, aborted: bool, final_lr: f32) -> TrainReport {
        self.report.steps = steps;
        self.report.aborted = aborted;
        self.report.final_lr = final_lr;
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> (ParamStore, Adam) {
        let mut ps = ParamStore::new();
        ps.add("w", vec![1.0, -2.0], vec![2]);
        let opt = Adam::new(&ps, 0.1);
        (ps, opt)
    }

    #[test]
    fn clean_steps_pass_inspection() {
        let (ps, opt) = store();
        let guard = TrainGuard::new(&ps, &opt);
        assert_eq!(guard.inspect(0.5, &ps), None);
    }

    #[test]
    fn non_finite_loss_is_flagged() {
        let (ps, opt) = store();
        let guard = TrainGuard::new(&ps, &opt);
        assert_eq!(guard.inspect(f32::NAN, &ps), Some(StepFault::NonFiniteLoss));
        assert_eq!(guard.inspect(f32::INFINITY, &ps), Some(StepFault::NonFiniteLoss));
    }

    #[test]
    fn non_finite_grad_is_flagged() {
        let (mut ps, opt) = store();
        let guard = TrainGuard::new(&ps, &opt);
        let id = tfmae_tensor::ParamId(0);
        ps.accumulate_grad(id, &[f32::NAN, 0.0]);
        assert_eq!(guard.inspect(0.5, &ps), Some(StepFault::NonFiniteGrad));
    }

    #[test]
    fn divergence_past_factor_is_flagged() {
        let (ps, opt) = store();
        let mut guard = TrainGuard::new(&ps, &opt);
        guard.certify(1.0, &ps, &opt);
        assert_eq!(guard.inspect(2.0, &ps), None, "small fluctuation is fine");
        assert_eq!(guard.inspect(2000.0, &ps), Some(StepFault::Diverged));
    }

    #[test]
    fn rollback_restores_params_and_cuts_lr() {
        let (mut ps, mut opt) = store();
        let mut guard = TrainGuard::new(&ps, &opt);
        guard.certify(1.0, &ps, &opt);
        let id = tfmae_tensor::ParamId(0);
        ps.get_mut(id).data[0] = f32::NAN;
        assert!(guard.rollback(&mut ps, &mut opt));
        assert_eq!(ps.get(id).data, vec![1.0, -2.0]);
        assert!((opt.lr - 0.05).abs() < 1e-9, "lr halved, got {}", opt.lr);
        assert_eq!(guard.report.rollbacks, 1);
    }

    #[test]
    fn rollback_budget_is_bounded() {
        let (mut ps, mut opt) = store();
        let mut guard = TrainGuard::new(&ps, &opt);
        for _ in 0..MAX_ROLLBACKS {
            assert!(guard.rollback(&mut ps, &mut opt));
        }
        assert!(!guard.rollback(&mut ps, &mut opt), "one rollback past the budget aborts");
    }
}
