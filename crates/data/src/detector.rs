//! The common interface every anomaly detector in this workspace implements
//! (TFMAE and all 12 baselines), so the experiment harness can run them
//! under one identical protocol (§V-A5: "for a fair comparison").

use crate::series::TimeSeries;

/// An unsupervised time-series anomaly detector.
pub trait Detector {
    /// Human-readable method name (Table III row label).
    fn name(&self) -> String;

    /// Trains on the (unlabeled, possibly contaminated) training split.
    /// `val` is available for early decisions but carries no labels.
    fn fit(&mut self, train: &TimeSeries, val: &TimeSeries);

    /// Produces one anomaly score per observation (higher = more anomalous).
    fn score(&self, series: &TimeSeries) -> Vec<f32>;
}

/// Fit-time resource report used by the efficiency study (Fig. 10).
#[derive(Clone, Copy, Debug, Default)]
pub struct FitReport {
    /// Wall-clock training time in seconds.
    pub seconds: f64,
    /// Peak accounted memory (parameters + activations) in bytes.
    pub bytes: usize,
    /// Optimizer steps taken.
    pub steps: u64,
    /// Final training loss (diagnostic).
    pub final_loss: f64,
}
