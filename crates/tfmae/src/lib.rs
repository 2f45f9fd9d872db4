//! # tfmae
//!
//! Facade crate for the full TFMAE reproduction (Fang et al., *Temporal-
//! Frequency Masked Autoencoders for Time Series Anomaly Detection*, ICDE
//! 2024): one `use tfmae::prelude::*` pulls in the model, the benchmark
//! simulators, the evaluation protocol and the baseline roster.
//!
//! ```
//! use tfmae::prelude::*;
//!
//! let bench = generate(DatasetKind::NipsTsGlobal, 7, 800);
//! let mut det = TfmaeDetector::new(TfmaeConfig::tiny());
//! let prf = evaluate(&mut det, &bench, 0.05);
//! assert!(prf.f1 >= 0.0 && prf.f1 <= 100.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tfmae_baselines as baselines;
pub use tfmae_core as core;
pub use tfmae_data as data;
pub use tfmae_fft as fft;
pub use tfmae_metrics as metrics;
pub use tfmae_nn as nn;
pub use tfmae_obs as obs;
pub use tfmae_tensor as tensor;

/// Everything needed for the common train → score → evaluate flow.
pub mod prelude {
    pub use tfmae_baselines::{evaluate, evaluate_fitted, table3_roster, DeepProtocol};
    pub use tfmae_core::{
        AdversarialMode, FreqMaskKind, MaskAblation, ModelAblation, TemporalMaskKind, TfmaeConfig,
        TfmaeDetector, TfmaeModel,
    };
    pub use tfmae_data::{
        generate, Benchmark, DatasetKind, Detector, FitReport, TimeSeries, ZScore,
    };
    pub use tfmae_metrics::{
        apply_threshold, best_f1_threshold, point_adjust, pr_auc, roc_auc, threshold_for_ratio,
        EmpiricalCdf, Prf,
    };
}
