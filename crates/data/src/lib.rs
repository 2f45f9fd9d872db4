//! # tfmae-data
//!
//! Time-series data substrate for the TFMAE reproduction: the
//! [`TimeSeries`] container, z-score normalization, window extraction and
//! score folding, synthetic signal generators, anomaly injectors, and the
//! seven benchmark **simulators** of Table II (MSL, PSM, SMD, SWaT, SMAP,
//! NIPS-TS-Global, NIPS-TS-Seasonal).
//!
//! The real datasets are proprietary or unavailable offline; the simulators
//! match their published dimensionality, split proportions, anomaly ratio
//! and qualitative character — see `DESIGN.md` §4 for the substitution
//! rationale.
//!
//! ```
//! use tfmae_data::{generate, DatasetKind, ZScore, extract_windows};
//!
//! let bench = generate(DatasetKind::Smd, 7, 400);
//! let norm = ZScore::fit(&bench.train);
//! let train = norm.transform(&bench.train);
//! let windows = extract_windows(&train, 100, 100);
//! assert!(!windows.is_empty());
//! assert_eq!(bench.test_labels.len(), bench.test.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anomaly;
pub mod csv;
pub mod detector;
pub mod datasets;
pub mod normalize;
pub mod series;
pub mod synth;
pub mod window;

pub use anomaly::{inject, AnomalyKind, InjectionPlan};
pub use csv::{
    parse_csv, parse_csv_lenient, read_csv, read_csv_lenient, to_csv, write_csv, CsvData,
    CsvError, CsvWarning,
};
pub use detector::{Detector, FitReport};
pub use datasets::{generate, Benchmark, DatasetKind, DatasetSpec, PaperHparams};
pub use normalize::{ZScore, MIN_STD};
pub use series::TimeSeries;
pub use synth::{apply_regime_shift, render, render_correlated, Component, RegimeShift};
pub use window::{batch_windows, extract_windows, ScoreAccumulator, Window};
