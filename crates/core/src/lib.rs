//! # tfmae-core
//!
//! The paper's primary contribution: **Temporal-Frequency Masked
//! AutoEncoders** for time-series anomaly detection (Fang et al., ICDE
//! 2024), implemented from scratch on the workspace's own tensor, NN and
//! FFT substrates.
//!
//! Pipeline (Fig. 2): window-based temporal masking (coefficient of
//! variation, FFT-accelerated — Eq. 1–5) and amplitude-based frequency
//! masking (Eq. 6–10) produce two purified views; two Transformer
//! autoencoders encode them (Fig. 5); the adversarial contrastive objective
//! (Eq. 14–15) aligns/repels the views with stop-gradients; the
//! per-observation symmetric KL divergence (Eq. 16), plus a dual-view
//! reconstruction discrepancy, is the anomaly score, thresholded at a
//! validation quantile (Eq. 17).
//!
//! ```
//! use tfmae_core::{TfmaeConfig, TfmaeDetector};
//! use tfmae_data::{generate, DatasetKind, Detector};
//! use tfmae_metrics::{apply_threshold, point_adjust, threshold_for_ratio, Prf};
//!
//! let bench = generate(DatasetKind::NipsTsGlobal, 7, 800);
//! let mut cfg = TfmaeConfig::tiny();
//! cfg.epochs = 1;
//! let mut det = TfmaeDetector::new(cfg);
//! det.fit(&bench.train, &bench.val);
//!
//! let delta = threshold_for_ratio(&det.score(&bench.val), 0.05);
//! let pred = apply_threshold(&det.score(&bench.test), delta);
//! let prf = Prf::from_predictions(&point_adjust(&pred, &bench.test_labels), &bench.test_labels);
//! assert!(prf.f1 >= 0.0); // full protocol runs end to end
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod ablation;
pub mod adapt;
pub mod checkpoint;
pub mod config;
pub mod detector;
pub mod masking;
pub mod model;
pub mod robust;
pub mod serving;

pub use ablation::{MaskAblation, ModelAblation};
pub use adapt::{param_hash, AdaptationConfig, AdaptationStats, AdaptiveSnapshot};
pub use checkpoint::{
    inspect_checkpoint, Checkpoint, CheckpointError, CheckpointInfo, QuantMeta,
    QuantParamMeta, CHECKPOINT_VERSION,
};
pub use config::{AdversarialMode, FreqMaskKind, TemporalMaskKind, TfmaeConfig};
pub use detector::TfmaeDetector;
pub use masking::frequency::{frequency_mask, frequency_mask_from_spectra, FrequencyMaskData};
pub use masking::temporal::{
    fold_stat_to_patches, temporal_mask_from_stat, temporal_mask_patched, temporal_statistic,
    TemporalMask,
};
pub use model::{combine_scores, BatchInputs, BranchOutputs, TfmaeModel};
pub use robust::TrainReport;
pub use serving::{
    DataQuality, RejectReason, RowRejection, ServingConfig, ServingEngine, ServingVerdict,
    StreamHealth, StreamMode, StreamVerdict, TickReport,
};
/// Re-exported so downstream crates can pick a serving precision (and
/// inspect quantized weight panels) without a direct tensor dependency.
pub use tfmae_tensor::{Precision, QuantStore};
