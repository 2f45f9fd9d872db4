//! # tfmae-metrics
//!
//! Evaluation protocol of the TFMAE paper: precision/recall/F1 with **point
//! adjustment** (§V-A2), ratio-based thresholding on validation scores
//! (Eq. 17, §V-A4), plus threshold-free AUCs and the empirical score CDFs
//! used in Figs. 1 and 9.
//!
//! ```
//! use tfmae_metrics::{threshold_for_ratio, apply_threshold, point_adjust, Prf};
//!
//! let val_scores = vec![0.1, 0.2, 0.15, 0.12, 0.9];
//! let test_scores = vec![0.1, 0.95, 0.97, 0.2, 0.11];
//! let truth = vec![0, 1, 1, 0, 0];
//!
//! let delta = threshold_for_ratio(&val_scores, 0.2);
//! let pred = apply_threshold(&test_scores, delta);
//! let adjusted = point_adjust(&pred, &truth);
//! let prf = Prf::from_predictions(&adjusted, &truth);
//! assert_eq!(prf.f1, 100.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adjust;
pub mod auc;
pub mod cdf;
pub mod prf;
pub mod threshold;

pub use adjust::{point_adjust, segments};
pub use auc::{pr_auc, roc_auc};
pub use cdf::{ks_distance, EmpiricalCdf};
pub use prf::{Confusion, Prf};
pub use threshold::{apply_threshold, best_f1_threshold, threshold_for_ratio};
