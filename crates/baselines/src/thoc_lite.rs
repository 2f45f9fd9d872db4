//! THOC-lite (Shen et al., NeurIPS 2020) — temporal hierarchical one-class
//! detection, the paper's second clustering baseline.
//!
//! Mechanism kept from the original: a *dilated* RNN produces
//! representations at several temporal scales; each scale owns a set of
//! learnable hypersphere centers; training minimizes the distance of every
//! representation to its nearest center (multi-scale one-class objective);
//! the anomaly score is the scale-summed nearest-center distance.
//!
//! Simplifications (DESIGN.md §5): two scales instead of three, hard
//! nearest-center assignment instead of the original's soft fuzzy
//! clustering, and no self-supervised TSS auxiliary task.

use tfmae_data::{Detector, TimeSeries};
use tfmae_nn::{Ctx, Gru};
use tfmae_tensor::{Graph, ParamId, ParamStore, Var};

use crate::common::{fit_deep, score_deep, DeepProtocol, Fitted};

/// THOC-lite detector.
pub struct ThocLite {
    /// Protocol.
    pub proto: DeepProtocol,
    /// Hidden width per scale.
    pub hidden: usize,
    /// Clusters per scale.
    pub clusters: usize,
    state: Option<Fitted<Net>>,
}

struct Net {
    scales: Vec<Gru>,
    centers: Vec<ParamId>, // one [K, hidden] per scale
}

impl Net {
    /// Soft-min center distance at scale `si` of each of the `rows`
    /// observations of `x [B, T, dims]`, each scale representing them with
    /// `hidden` features.
    fn distance(&self, ctx: &Ctx, x: Var, si: usize, rows: usize, hidden: usize) -> Var {
        let g = ctx.g;
        let reps = g.reshape(self.scales[si].forward(ctx, x), &[rows, hidden]);
        let centers = g.param(ctx.ps, self.centers[si]);
        soft_min_distance(g, reps, centers)
    }
}

/// Nearest-center squared distance for every `[rows, hidden]` row against
/// a `[K, hidden]` center matrix, computed with a soft-min so gradients
/// reach both representations and centers.
///
/// `softmin_τ(d_1..d_K) = Σ_k softmax(−d/τ)_k · d_k` with τ = 0.5.
fn soft_min_distance(g: &Graph, reps: Var, centers: Var) -> Var {
    // dists[r, c] = ||rep_r − center_c||²
    //            = ||rep||² − 2·rep·centerᵀ + ||center||²
    let rep_sq = g.sum_last(g.square(reps), true); // [rows, 1]
    let cen_sq = g.sum_last(g.square(centers), false); // [K]
    let cross = g.matmul(reps, g.transpose_last(centers)); // [rows, K]
    let dists = g.add(g.add(g.scale(cross, -2.0), rep_sq), cen_sq);
    let weights = g.softmax_last(g.scale(dists, -2.0)); // softmin weights, τ = 0.5
    g.sum_last(g.mul(weights, dists), false) // [rows]
}

impl ThocLite {
    /// Creates an untrained THOC-lite.
    pub fn new(proto: DeepProtocol, hidden: usize, clusters: usize) -> Self {
        assert!(clusters >= 1);
        Self { proto, hidden, clusters, state: None }
    }
}

impl Detector for ThocLite {
    fn name(&self) -> String {
        "THOC".to_string()
    }

    fn fit(&mut self, train: &TimeSeries, _val: &TimeSeries) {
        let (p, hidden, clusters) = (self.proto, self.hidden, self.clusters);
        let build = |ps: &mut ParamStore, rng: &mut _, tn: &TimeSeries| {
            let scales = vec![
                Gru::new(ps, rng, "thoc.s1", tn.dims(), hidden, 1),
                Gru::new(ps, rng, "thoc.s2", tn.dims(), hidden, 4),
            ];
            let centers = (0..scales.len())
                .map(|si| {
                    ps.add(
                        format!("thoc.centers{si}"),
                        tfmae_nn::init::uniform(rng, clusters * hidden, 0.5),
                        vec![clusters, hidden],
                    )
                })
                .collect();
            Net { scales, centers }
        };
        self.state = Some(fit_deep(&p, train, build, |f, ctx, values, b, _| {
            let g = ctx.g;
            let rows = b * p.win_len;
            let x = g.constant_from(values, vec![b, p.win_len, f.dims]);
            (0..f.net.scales.len()).fold(g.scalar(0.0), |loss, si| {
                g.add(loss, g.mean_all(f.net.distance(ctx, x, si, rows, hidden)))
            })
        }));
    }

    fn score(&self, series: &TimeSeries) -> Vec<f32> {
        let p = self.proto;
        score_deep(&p, self.state.as_ref(), series, |f, ctx, values, b| {
            let rows = b * p.win_len;
            let x = ctx.g.constant_from(values, vec![b, p.win_len, f.dims]);
            let mut total = vec![0.0f32; rows];
            for si in 0..f.net.scales.len() {
                let d = f.net.distance(ctx, x, si, rows, self.hidden);
                for (acc, v) in total.iter_mut().zip(ctx.g.value(d)) {
                    *acc += v;
                }
            }
            total
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tfmae_data::{render, Component};

    fn series(len: usize, seed: u64) -> TimeSeries {
        let mut rng = StdRng::seed_from_u64(seed);
        let ch = render(
            &[Component::Sine { period: 8.0, amp: 1.0, phase: 0.0 }, Component::Noise { sigma: 0.05 }],
            len,
            &mut rng,
        );
        TimeSeries::from_channels(&[ch])
    }

    fn tiny_proto() -> DeepProtocol {
        DeepProtocol { win_len: 16, batch: 8, epochs: 4, d_model: 8, train_stride: 8, ..DeepProtocol::default() }
    }

    #[test]
    fn training_shrinks_one_class_distances() {
        let train = series(256, 1);
        let test = series(64, 2);
        let mut short = ThocLite::new(DeepProtocol { epochs: 1, ..tiny_proto() }, 6, 3);
        short.fit(&train, &train);
        let before: f32 = short.score(&test).iter().sum();
        let mut long = ThocLite::new(DeepProtocol { epochs: 12, ..tiny_proto() }, 6, 3);
        long.fit(&train, &train);
        let after: f32 = long.score(&test).iter().sum();
        assert!(after < before, "training must shrink distances: {after} vs {before}");
    }

    #[test]
    fn outlier_scores_above_median() {
        let train = series(256, 3);
        let mut det = ThocLite::new(DeepProtocol { epochs: 8, ..tiny_proto() }, 6, 3);
        det.fit(&train, &train);
        let mut test = series(64, 4);
        test.set(30, 0, 10.0);
        let scores = det.score(&test);
        let mut sorted = scores.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(scores[30] > sorted[32], "outlier {} vs median {}", scores[30], sorted[32]);
    }

    #[test]
    fn scores_are_finite_and_sized() {
        let train = series(128, 5);
        let mut det = ThocLite::new(tiny_proto(), 4, 2);
        det.fit(&train, &train);
        let scores = det.score(&series(48, 6));
        assert_eq!(scores.len(), 48);
        assert!(scores.iter().all(|s| s.is_finite() && *s >= -1e-4));
    }
}
