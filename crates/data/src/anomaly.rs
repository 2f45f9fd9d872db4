//! Anomaly injectors.
//!
//! The paper distinguishes *observation* anomalies (global & contextual
//! points, handled by temporal masking) and *pattern* anomalies (seasonal,
//! trend, shapelet segments, handled by frequency masking). Each injector
//! mutates a series in place and flips the matching label entries.

use rand::rngs::StdRng;
use rand::Rng;

use crate::series::TimeSeries;

/// Kinds of injected anomalies (taxonomy of Lai et al., NeurIPS 2021, which
/// the NIPS-TS benchmarks follow and the paper adopts in §I/§IV-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnomalyKind {
    /// Global observation outlier: extreme spike on one or more channels.
    GlobalPoint,
    /// Contextual observation outlier: offset that is only abnormal locally.
    ContextualPoint,
    /// Seasonal pattern change: frequency is altered over a segment.
    Seasonal,
    /// Trend anomaly: an added ramp over a segment.
    Trend,
    /// Shapelet anomaly: the segment's waveform is replaced (e.g. flatline).
    Shapelet,
}

/// Injects a point anomaly at `t` on `n_channels` random channels.
pub fn inject_global_point(
    s: &mut TimeSeries,
    labels: &mut [u8],
    t: usize,
    magnitude: f32,
    n_channels: usize,
    rng: &mut StdRng,
) {
    let dims = s.dims();
    let stds = s.channel_stds();
    for _ in 0..n_channels.min(dims) {
        let n = rng.gen_range(0..dims);
        let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        let scale = stds[n].max(0.5);
        s.set(t, n, s.get(t, n) + sign * magnitude * scale);
    }
    labels[t] = 1;
}

/// Injects a contextual offset over `[t, t+len)` on one channel: values stay
/// inside the global range but break the local context.
pub fn inject_contextual(
    s: &mut TimeSeries,
    labels: &mut [u8],
    t: usize,
    len: usize,
    rng: &mut StdRng,
) {
    let dims = s.dims();
    let n = rng.gen_range(0..dims);
    let stds = s.channel_stds();
    let offset = 1.5 * stds[n].max(0.5) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
    let end = (t + len).min(s.len());
    for (k, label) in (t..end).zip(&mut labels[t..end]) {
        s.set(k, n, s.get(k, n) + offset);
        *label = 1;
    }
}

/// Replaces `[t, t+len)` of channel `n` with a sine of a different period
/// (seasonal anomaly).
pub fn inject_seasonal(
    s: &mut TimeSeries,
    labels: &mut [u8],
    t: usize,
    len: usize,
    base_period: f64,
    rng: &mut StdRng,
) {
    let dims = s.dims();
    let n = rng.gen_range(0..dims);
    let std = s.channel_stds()[n].max(0.5);
    // Halve or third the period: clearly visible in the amplitude spectrum.
    let factor = if rng.gen_bool(0.5) { 0.5 } else { 1.0 / 3.0 };
    let period = (base_period * factor).max(2.0);
    let end = (t + len).min(s.len());
    for (k, label) in (t..end).zip(&mut labels[t..end]) {
        let v = (2.0 * std::f64::consts::PI * k as f64 / period).sin() as f32 * 1.5 * std;
        s.set(k, n, v);
        *label = 1;
    }
}

/// Adds a linear ramp over `[t, t+len)` (trend anomaly).
pub fn inject_trend(
    s: &mut TimeSeries,
    labels: &mut [u8],
    t: usize,
    len: usize,
    rng: &mut StdRng,
) {
    let dims = s.dims();
    let n = rng.gen_range(0..dims);
    let std = s.channel_stds()[n].max(0.5);
    let slope = 3.0 * std / len.max(1) as f32 * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
    let end = (t + len).min(s.len());
    for (k, label) in (t..end).zip(&mut labels[t..end]) {
        s.set(k, n, s.get(k, n) + slope * (k - t) as f32);
        *label = 1;
    }
}

/// Replaces `[t, t+len)` of a channel with a stuck (flatline) value —
/// shapelet anomaly, typical of SWaT sensor attacks.
pub fn inject_shapelet(
    s: &mut TimeSeries,
    labels: &mut [u8],
    t: usize,
    len: usize,
    rng: &mut StdRng,
) {
    let dims = s.dims();
    let n = rng.gen_range(0..dims);
    let stuck = s.get(t, n);
    let end = (t + len).min(s.len());
    for (k, label) in (t..end).zip(&mut labels[t..end]) {
        s.set(k, n, stuck);
        *label = 1;
    }
}

/// Plan describing how many anomalies of each kind to inject.
#[derive(Clone, Debug)]
pub struct InjectionPlan {
    /// Target fraction of anomalous observations (0..1).
    pub target_ratio: f64,
    /// Relative weights over kinds (need not sum to 1).
    pub kind_weights: Vec<(AnomalyKind, f64)>,
    /// Segment length range for segment-type anomalies.
    pub segment_len: (usize, usize),
    /// Base seasonal period of the series (for [`AnomalyKind::Seasonal`]).
    pub base_period: f64,
}

impl InjectionPlan {
    /// A balanced plan over all five kinds.
    pub fn balanced(target_ratio: f64, base_period: f64) -> Self {
        Self {
            target_ratio,
            kind_weights: vec![
                (AnomalyKind::GlobalPoint, 1.0),
                (AnomalyKind::ContextualPoint, 1.0),
                (AnomalyKind::Seasonal, 1.0),
                (AnomalyKind::Trend, 1.0),
                (AnomalyKind::Shapelet, 1.0),
            ],
            segment_len: (8, 40),
            base_period: base_period.max(4.0),
        }
    }

    fn sample_kind(&self, rng: &mut StdRng) -> AnomalyKind {
        let total: f64 = self.kind_weights.iter().map(|(_, w)| w).sum();
        let mut pick = rng.gen_range(0.0..total);
        for (k, w) in &self.kind_weights {
            if pick < *w {
                return *k;
            }
            pick -= w;
        }
        self.kind_weights.last().expect("non-empty weights").0
    }
}

/// Injects anomalies until roughly `plan.target_ratio` of the observations
/// are labeled anomalous. Returns the label vector.
pub fn inject(s: &mut TimeSeries, plan: &InjectionPlan, rng: &mut StdRng) -> Vec<u8> {
    let n = s.len();
    let mut labels = vec![0u8; n];
    if n == 0 || plan.target_ratio <= 0.0 {
        return labels;
    }
    let target = ((n as f64) * plan.target_ratio).round() as usize;
    let mut guard = 0;
    while labels.iter().filter(|&&l| l == 1).count() < target && guard < 10_000 {
        guard += 1;
        let kind = plan.sample_kind(rng);
        let seg = rng.gen_range(plan.segment_len.0..=plan.segment_len.1);
        // Leave a margin at the series head so trailing windows see context.
        let t = rng.gen_range(n.min(20)..n.saturating_sub(seg).max(n.min(20) + 1));
        match kind {
            AnomalyKind::GlobalPoint => {
                let mag = rng.gen_range(5.0..9.0);
                inject_global_point(s, &mut labels, t, mag, 1 + s.dims() / 8, rng);
            }
            AnomalyKind::ContextualPoint => inject_contextual(s, &mut labels, t, seg.min(6), rng),
            AnomalyKind::Seasonal => inject_seasonal(s, &mut labels, t, seg, plan.base_period, rng),
            AnomalyKind::Trend => inject_trend(s, &mut labels, t, seg, rng),
            AnomalyKind::Shapelet => inject_shapelet(s, &mut labels, t, seg, rng),
        }
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{render, Component};
    use rand::SeedableRng;

    fn base(len: usize) -> TimeSeries {
        let mut rng = StdRng::seed_from_u64(1);
        let ch = render(
            &[
                Component::Sine { period: 24.0, amp: 1.0, phase: 0.0 },
                Component::Noise { sigma: 0.1 },
            ],
            len,
            &mut rng,
        );
        TimeSeries::from_channels(&[ch])
    }

    #[test]
    fn global_point_creates_extreme_value() {
        let mut s = base(100);
        let mut labels = vec![0u8; 100];
        let before = s.get(50, 0);
        let mut rng = StdRng::seed_from_u64(2);
        inject_global_point(&mut s, &mut labels, 50, 8.0, 1, &mut rng);
        assert!((s.get(50, 0) - before).abs() > 3.0);
        assert_eq!(labels[50], 1);
        assert_eq!(labels.iter().map(|&l| l as usize).sum::<usize>(), 1);
    }

    #[test]
    fn segment_injectors_label_whole_segment() {
        let mut s = base(200);
        let mut labels = vec![0u8; 200];
        let mut rng = StdRng::seed_from_u64(3);
        inject_seasonal(&mut s, &mut labels, 60, 30, 24.0, &mut rng);
        assert_eq!(labels[60..90].iter().map(|&l| l as usize).sum::<usize>(), 30);
        assert_eq!(labels[..60].iter().map(|&l| l as usize).sum::<usize>(), 0);
    }

    #[test]
    fn shapelet_flatlines() {
        let mut s = base(150);
        let mut labels = vec![0u8; 150];
        let mut rng = StdRng::seed_from_u64(4);
        inject_shapelet(&mut s, &mut labels, 40, 20, &mut rng);
        let stuck = s.get(40, 0);
        for k in 40..60 {
            assert_eq!(s.get(k, 0), stuck);
        }
    }

    #[test]
    fn plan_hits_target_ratio_approximately() {
        let mut s = base(4000);
        let plan = InjectionPlan::balanced(0.05, 24.0);
        let mut rng = StdRng::seed_from_u64(5);
        let labels = inject(&mut s, &plan, &mut rng);
        let ratio = labels.iter().filter(|&&l| l == 1).count() as f64 / 4000.0;
        assert!((0.045..=0.08).contains(&ratio), "ratio was {ratio}");
    }

    #[test]
    fn zero_ratio_injects_nothing() {
        let mut s = base(100);
        let orig = s.clone();
        let plan = InjectionPlan::balanced(0.0, 24.0);
        let mut rng = StdRng::seed_from_u64(6);
        let labels = inject(&mut s, &plan, &mut rng);
        assert_eq!(s, orig);
        assert!(labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut s = base(500);
            let plan = InjectionPlan::balanced(0.05, 24.0);
            let mut rng = StdRng::seed_from_u64(9);
            let labels = inject(&mut s, &plan, &mut rng);
            (s, labels)
        };
        let (a, la) = run();
        let (b, lb) = run();
        assert_eq!(a, b);
        assert_eq!(la, lb);
    }
}
