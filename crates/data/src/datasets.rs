//! The seven benchmark simulators (Table II).
//!
//! The paper evaluates on five real datasets (MSL, PSM, SMD, SWaT, SMAP) and
//! two synthetic ones (NIPS-TS-Global/Seasonal). The real datasets are not
//! redistributable/downloadable offline, so each is **simulated**: the
//! generator matches the published dimensionality, train/val/test length
//! ratios (scaled down by a configurable divisor), anomaly ratio, and the
//! qualitative character of the source system (see DESIGN.md §4). The two
//! NIPS-TS sets follow the generation taxonomy of Lai et al. directly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::anomaly::{inject, AnomalyKind, InjectionPlan};
use crate::series::TimeSeries;
use crate::synth::{render, render_correlated, Component};

/// Identifies one of the seven benchmarks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Mars Science Laboratory rover telemetry (NASA).
    Msl,
    /// Pooled Server Metrics (eBay).
    Psm,
    /// Server Machine Dataset.
    Smd,
    /// Secure Water Treatment testbed.
    Swat,
    /// Soil Moisture Active Passive satellite telemetry (NASA).
    Smap,
    /// Synthetic univariate benchmark with global observation anomalies.
    NipsTsGlobal,
    /// Synthetic univariate benchmark with seasonal anomalies.
    NipsTsSeasonal,
}

impl DatasetKind {
    /// All seven benchmarks in Table II order.
    pub fn all() -> [DatasetKind; 7] {
        [
            DatasetKind::Msl,
            DatasetKind::Psm,
            DatasetKind::Smd,
            DatasetKind::Swat,
            DatasetKind::Smap,
            DatasetKind::NipsTsGlobal,
            DatasetKind::NipsTsSeasonal,
        ]
    }

    /// The five multivariate sets used in Tables III–V.
    pub fn main_five() -> [DatasetKind; 5] {
        [DatasetKind::Swat, DatasetKind::Psm, DatasetKind::Smd, DatasetKind::Msl, DatasetKind::Smap]
    }

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::Msl => "MSL",
            DatasetKind::Psm => "PSM",
            DatasetKind::Smd => "SMD",
            DatasetKind::Swat => "SWaT",
            DatasetKind::Smap => "SMAP",
            DatasetKind::NipsTsGlobal => "NIPS-TS-Global",
            DatasetKind::NipsTsSeasonal => "NIPS-TS-Seasonal",
        }
    }

    /// Published statistics (source, type, dims, full split sizes, AR%).
    pub fn spec(&self) -> DatasetSpec {
        match self {
            DatasetKind::Msl => DatasetSpec {
                source: "NASA Space",
                multivariate: true,
                dims: 55,
                train: 46_653,
                val: 11_664,
                test: 73_729,
                anomaly_ratio: 0.105,
            },
            DatasetKind::Psm => DatasetSpec {
                source: "eBay Server",
                multivariate: true,
                dims: 25,
                train: 105_984,
                val: 26_497,
                test: 87_841,
                anomaly_ratio: 0.278,
            },
            DatasetKind::Smd => DatasetSpec {
                source: "Internet Server",
                multivariate: true,
                dims: 38,
                train: 566_724,
                val: 141_681,
                test: 708_420,
                anomaly_ratio: 0.042,
            },
            DatasetKind::Swat => DatasetSpec {
                source: "Water Treatment",
                multivariate: true,
                dims: 51,
                train: 396_000,
                val: 99_000,
                test: 449_919,
                anomaly_ratio: 0.121,
            },
            DatasetKind::Smap => DatasetSpec {
                source: "NASA Space",
                multivariate: true,
                dims: 25,
                train: 108_146,
                val: 27_037,
                test: 427_617,
                anomaly_ratio: 0.128,
            },
            DatasetKind::NipsTsGlobal => DatasetSpec {
                source: "Synthetic",
                multivariate: false,
                dims: 1,
                train: 40_000,
                val: 10_000,
                test: 50_000,
                anomaly_ratio: 0.05,
            },
            DatasetKind::NipsTsSeasonal => DatasetSpec {
                source: "Synthetic",
                multivariate: false,
                dims: 1,
                train: 40_000,
                val: 10_000,
                test: 50_000,
                anomaly_ratio: 0.05,
            },
        }
    }

    /// The paper's per-dataset hyper-parameters: threshold ratio `r` (§V-A4)
    /// and the Fig. 6 optimal temporal/frequency masking ratios.
    pub fn paper_hparams(&self) -> PaperHparams {
        match self {
            DatasetKind::Msl => PaperHparams { r: 0.009, r_t: 0.55, r_f: 0.40 },
            DatasetKind::Psm => PaperHparams { r: 0.009, r_t: 0.65, r_f: 0.10 },
            DatasetKind::Smd => PaperHparams { r: 0.0045, r_t: 0.05, r_f: 0.20 },
            DatasetKind::Swat => PaperHparams { r: 0.003, r_t: 0.25, r_f: 0.40 },
            DatasetKind::Smap => PaperHparams { r: 0.0075, r_t: 0.65, r_f: 0.30 },
            DatasetKind::NipsTsGlobal => PaperHparams { r: 0.05, r_t: 0.25, r_f: 0.20 },
            DatasetKind::NipsTsSeasonal => PaperHparams { r: 0.05, r_t: 0.25, r_f: 0.20 },
        }
    }
}

/// Published dataset statistics (Table II row).
#[derive(Clone, Copy, Debug)]
pub struct DatasetSpec {
    /// Data source description.
    pub source: &'static str,
    /// Multivariate flag.
    pub multivariate: bool,
    /// Feature count.
    pub dims: usize,
    /// Full training length.
    pub train: usize,
    /// Full validation length.
    pub val: usize,
    /// Full test length.
    pub test: usize,
    /// Fraction of anomalous test observations.
    pub anomaly_ratio: f64,
}

/// Paper hyper-parameters tied to a dataset.
#[derive(Clone, Copy, Debug)]
pub struct PaperHparams {
    /// Threshold ratio `r` — fraction of validation scores above δ (Eq. 17).
    pub r: f64,
    /// Temporal masking ratio `r_T` (Fig. 6 optimum).
    pub r_t: f64,
    /// Frequency masking ratio `r_F` (Fig. 6 optimum).
    pub r_f: f64,
}

/// A generated benchmark: raw splits plus ground truth and metadata.
#[derive(Clone, Debug)]
pub struct Benchmark {
    /// Which dataset this simulates.
    pub kind: DatasetKind,
    /// Training split (contains unlabeled contamination, per Challenge I).
    pub train: TimeSeries,
    /// Validation split (used only for thresholding).
    pub val: TimeSeries,
    /// Test split.
    pub test: TimeSeries,
    /// Ground-truth test labels (1 = anomaly).
    pub test_labels: Vec<u8>,
    /// Dominant seasonal period of the generator (samples).
    pub base_period: f64,
}

impl Benchmark {
    /// Realized anomaly ratio of the test split.
    pub fn realized_anomaly_ratio(&self) -> f64 {
        if self.test_labels.is_empty() {
            return 0.0;
        }
        self.test_labels.iter().filter(|&&l| l == 1).count() as f64 / self.test_labels.len() as f64
    }
}

/// Generates a benchmark with full lengths divided by `divisor` (≥ 1).
/// `seed` controls all randomness; identical inputs give identical outputs.
pub fn generate(kind: DatasetKind, seed: u64, divisor: usize) -> Benchmark {
    assert!(divisor >= 1, "divisor must be >= 1");
    let spec = kind.spec();
    let train_len = (spec.train / divisor).max(300);
    let val_len = (spec.val / divisor).max(150);
    let test_len = (spec.test / divisor).max(300);
    let total = train_len + val_len + test_len;
    let mut rng = StdRng::seed_from_u64(seed ^ dataset_salt(kind));

    let (mut series, base_period) = base_series(kind, total, spec.dims, &mut rng);

    // Mild covariate shift on the test region for the telemetry/server
    // simulators — this is the distribution-shift phenomenon of Fig. 1/9.
    if matches!(kind, DatasetKind::Smap | DatasetKind::Msl | DatasetKind::Psm | DatasetKind::Smd) {
        apply_shift(&mut series, train_len + val_len, &mut rng);
    }

    let mut train = series.slice(0..train_len);
    let val = series.slice(train_len..train_len + val_len);
    let mut test = series.slice(train_len + val_len..total);

    // Test anomalies at the published ratio.
    let mut plan = injection_plan(kind, spec.anomaly_ratio, base_period);
    let test_labels = inject(&mut test, &plan, &mut rng);

    // Unlabeled training contamination (Challenge I: "the input time series
    // is not pristine during the training phase").
    plan.target_ratio = spec.anomaly_ratio / 5.0;
    let _ = inject(&mut train, &plan, &mut rng);

    Benchmark { kind, train, val, test, test_labels, base_period }
}

fn dataset_salt(kind: DatasetKind) -> u64 {
    match kind {
        DatasetKind::Msl => 0x4d53_4c00,
        DatasetKind::Psm => 0x5053_4d00,
        DatasetKind::Smd => 0x534d_4400,
        DatasetKind::Swat => 0x5357_4154,
        DatasetKind::Smap => 0x534d_4150,
        DatasetKind::NipsTsGlobal => 0x4e54_4700,
        DatasetKind::NipsTsSeasonal => 0x4e54_5300,
    }
}

fn apply_shift(series: &mut TimeSeries, from: usize, rng: &mut StdRng) {
    let stds = series.channel_stds();
    for (n, std) in stds.into_iter().enumerate() {
        let offset = 0.4 * std.max(0.2) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        let gain: f32 = rng.gen_range(0.9..1.15);
        for t in from..series.len() {
            let v = series.get(t, n);
            series.set(t, n, v * gain + offset);
        }
    }
}

fn injection_plan(kind: DatasetKind, ratio: f64, base_period: f64) -> InjectionPlan {
    let mut plan = InjectionPlan::balanced(ratio, base_period);
    match kind {
        DatasetKind::Msl | DatasetKind::Smap => {
            plan.kind_weights = vec![
                (AnomalyKind::GlobalPoint, 2.0),
                (AnomalyKind::ContextualPoint, 2.0),
                (AnomalyKind::Shapelet, 1.0),
                (AnomalyKind::Trend, 0.5),
                (AnomalyKind::Seasonal, 0.5),
            ];
            plan.segment_len = (6, 30);
        }
        DatasetKind::Psm => {
            plan.kind_weights = vec![
                (AnomalyKind::GlobalPoint, 1.5),
                (AnomalyKind::ContextualPoint, 1.5),
                (AnomalyKind::Trend, 1.0),
                (AnomalyKind::Seasonal, 0.5),
                (AnomalyKind::Shapelet, 0.5),
            ];
            plan.segment_len = (10, 60);
        }
        DatasetKind::Smd => {
            plan.segment_len = (6, 40);
        }
        DatasetKind::Swat => {
            // Long contiguous attack segments on the actuator cycles.
            plan.kind_weights = vec![
                (AnomalyKind::Shapelet, 2.0),
                (AnomalyKind::Trend, 1.0),
                (AnomalyKind::ContextualPoint, 1.0),
                (AnomalyKind::Seasonal, 0.5),
            ];
            plan.segment_len = (30, 120);
        }
        DatasetKind::NipsTsGlobal => {
            plan.kind_weights = vec![(AnomalyKind::GlobalPoint, 1.0)];
            plan.segment_len = (1, 2);
        }
        DatasetKind::NipsTsSeasonal => {
            plan.kind_weights = vec![(AnomalyKind::Seasonal, 1.0)];
            plan.segment_len = (20, 60);
        }
    }
    plan
}

fn base_series(
    kind: DatasetKind,
    total: usize,
    dims: usize,
    rng: &mut StdRng,
) -> (TimeSeries, f64) {
    match kind {
        DatasetKind::Msl | DatasetKind::Smap => (telemetry_series(total, dims, rng), 50.0),
        DatasetKind::Psm | DatasetKind::Smd => (server_series(total, dims, rng), 100.0),
        DatasetKind::Swat => (actuator_series(total, dims, rng), 200.0),
        DatasetKind::NipsTsGlobal | DatasetKind::NipsTsSeasonal => {
            (nips_series(total, rng), 50.0)
        }
    }
}

/// Spacecraft telemetry: a mixture of command-like square channels, smooth
/// periodic sensor channels, and low-noise housekeeping channels.
fn telemetry_series(total: usize, dims: usize, rng: &mut StdRng) -> TimeSeries {
    let mut channels = Vec::with_capacity(dims);
    for n in 0..dims {
        let comps = match n % 3 {
            0 => vec![
                Component::Square {
                    period: rng.gen_range(40..120),
                    amp: rng.gen_range(0.5..1.5),
                    duty: rng.gen_range(0.2..0.8),
                },
                Component::Noise { sigma: 0.05 },
            ],
            1 => vec![
                Component::Sine {
                    period: rng.gen_range(30.0..80.0),
                    amp: rng.gen_range(0.5..1.5),
                    phase: rng.gen_range(0.0..std::f64::consts::TAU),
                },
                Component::Noise { sigma: 0.08 },
            ],
            _ => vec![
                Component::Level { value: rng.gen_range(-1.0..1.0) },
                Component::Ar1 { phi: 0.9, sigma: 0.08 },
            ],
        };
        channels.push(render(&comps, total, rng));
    }
    TimeSeries::from_channels(&channels)
}

/// Server metrics: channels co-move through shared load factors with daily
/// periodicity plus AR noise.
fn server_series(total: usize, dims: usize, rng: &mut StdRng) -> TimeSeries {
    let load = render(
        &[
            Component::Sine { period: 100.0, amp: 1.0, phase: 0.0 },
            Component::Sine { period: 700.0, amp: 0.5, phase: 1.0 },
            Component::Ar1 { phi: 0.95, sigma: 0.05 },
        ],
        total,
        rng,
    );
    let mut channels = Vec::with_capacity(dims);
    for n in 0..dims {
        let mix = rng.gen_range(0.3..1.0);
        let own = vec![
            Component::Level { value: rng.gen_range(-0.5..0.5) },
            Component::Sine {
                period: rng.gen_range(50.0..150.0),
                amp: rng.gen_range(0.1..0.4),
                phase: rng.gen_range(0.0..std::f64::consts::TAU),
            },
            Component::Ar1 { phi: 0.8, sigma: 0.1 },
        ];
        let _ = n;
        channels.push(render_correlated(&own, &load, mix, total, rng));
    }
    TimeSeries::from_channels(&channels)
}

/// Industrial control: slow actuator cycles (saw/square) with low noise.
fn actuator_series(total: usize, dims: usize, rng: &mut StdRng) -> TimeSeries {
    let mut channels = Vec::with_capacity(dims);
    for n in 0..dims {
        let comps = match n % 2 {
            0 => vec![
                Component::Saw { period: rng.gen_range(150..300), amp: rng.gen_range(1.0..2.0) },
                Component::Noise { sigma: 0.03 },
            ],
            _ => vec![
                Component::Square {
                    period: rng.gen_range(100..400),
                    amp: rng.gen_range(0.5..1.0),
                    duty: 0.5,
                },
                Component::Noise { sigma: 0.02 },
            ],
        };
        channels.push(render(&comps, total, rng));
    }
    TimeSeries::from_channels(&channels)
}

/// NIPS-TS base: clean univariate seasonal signal.
fn nips_series(total: usize, rng: &mut StdRng) -> TimeSeries {
    let ch = render(
        &[
            Component::Sine { period: 50.0, amp: 1.0, phase: 0.0 },
            Component::Sine { period: 12.5, amp: 0.3, phase: 0.7 },
            Component::Noise { sigma: 0.05 },
        ],
        total,
        rng,
    );
    TimeSeries::from_channels(&[ch])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_generate_with_correct_dims() {
        for kind in DatasetKind::all() {
            let b = generate(kind, 7, 200);
            let spec = kind.spec();
            assert_eq!(b.train.dims(), spec.dims, "{}", kind.name());
            assert_eq!(b.val.dims(), spec.dims);
            assert_eq!(b.test.dims(), spec.dims);
            assert_eq!(b.test_labels.len(), b.test.len());
            assert!(b.train.data().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn split_proportions_follow_table_ii() {
        let b = generate(DatasetKind::Psm, 7, 100);
        let spec = DatasetKind::Psm.spec();
        let ratio_full = spec.train as f64 / spec.test as f64;
        let ratio_sim = b.train.len() as f64 / b.test.len() as f64;
        assert!((ratio_full - ratio_sim).abs() / ratio_full < 0.05);
    }

    #[test]
    fn anomaly_ratio_close_to_published() {
        for kind in [DatasetKind::Swat, DatasetKind::Smd, DatasetKind::NipsTsGlobal] {
            let b = generate(kind, 3, 100);
            let want = kind.spec().anomaly_ratio;
            let got = b.realized_anomaly_ratio();
            assert!(
                got >= want * 0.8 && got <= want * 1.6,
                "{}: wanted ~{want}, got {got}",
                kind.name()
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate(DatasetKind::Msl, 11, 300);
        let b = generate(DatasetKind::Msl, 11, 300);
        assert_eq!(a.test.data(), b.test.data());
        assert_eq!(a.test_labels, b.test_labels);
        let c = generate(DatasetKind::Msl, 12, 300);
        assert_ne!(a.test.data(), c.test.data());
    }

    #[test]
    fn nips_global_has_point_anomalies_only() {
        let b = generate(DatasetKind::NipsTsGlobal, 5, 100);
        // Label runs should be short (points, not segments).
        let mut max_run = 0;
        let mut run = 0;
        for &l in &b.test_labels {
            if l == 1 {
                run += 1;
                max_run = max_run.max(run);
            } else {
                run = 0;
            }
        }
        assert!(max_run <= 4, "global benchmark should not have long segments, saw {max_run}");
    }

    #[test]
    fn nips_seasonal_has_segments() {
        let b = generate(DatasetKind::NipsTsSeasonal, 5, 100);
        let mut max_run = 0;
        let mut run = 0;
        for &l in &b.test_labels {
            if l == 1 {
                run += 1;
                max_run = max_run.max(run);
            } else {
                run = 0;
            }
        }
        assert!(max_run >= 15, "seasonal benchmark should have segments, saw {max_run}");
    }

    #[test]
    fn paper_hparams_are_in_range() {
        for kind in DatasetKind::all() {
            let h = kind.paper_hparams();
            assert!(h.r > 0.0 && h.r < 0.2);
            assert!(h.r_t > 0.0 && h.r_t < 1.0);
            assert!(h.r_f > 0.0 && h.r_f < 1.0);
        }
    }
}
