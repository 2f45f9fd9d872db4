//! DAGMM (Zong et al., ICLR 2018) — deep autoencoding Gaussian mixture
//! model, the paper's learned density baseline.
//!
//! A pointwise autoencoder produces a low-dimensional code plus
//! reconstruction features; a Gaussian mixture is fitted on
//! `[code, recon_error]` by EM (the estimation network of the original is
//! replaced by classic EM — the density criterion is what the comparison
//! exercises); the anomaly score is the negative log-likelihood ("energy").

use rand::rngs::StdRng;
use rand::SeedableRng;
use tfmae_data::{Detector, TimeSeries};
use tfmae_nn::{Ctx, Linear};
use tfmae_tensor::{Graph, Var};

use crate::common::{fit_deep, score_deep, DeepProtocol, Fitted};

/// Diagonal-covariance Gaussian mixture fitted by EM.
#[derive(Clone, Debug)]
pub struct GaussianMixture {
    /// Mixture weights.
    pub weights: Vec<f64>,
    /// Component means `[k][d]`.
    pub means: Vec<Vec<f64>>,
    /// Component diagonal variances `[k][d]`.
    pub vars: Vec<Vec<f64>>,
}

impl GaussianMixture {
    /// Fits `k` components on row-major `points` (`rows × d`) with EM.
    pub fn fit(points: &[f64], rows: usize, d: usize, k: usize, iters: usize, seed: u64) -> Self {
        assert!(rows >= k && k >= 1);
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        // Farthest-point init: the first mean is a random point, each
        // subsequent mean is the point maximising its distance to the means
        // chosen so far. Purely random init can drop every mean into one
        // cluster, from which EM with shared responsibilities never escapes.
        let mut means: Vec<Vec<f64>> = Vec::with_capacity(k);
        let first = rng.gen_range(0..rows);
        means.push(points[first * d..(first + 1) * d].to_vec());
        while means.len() < k {
            let (mut best_r, mut best_dist) = (0, f64::NEG_INFINITY);
            for r in 0..rows {
                let x = &points[r * d..(r + 1) * d];
                let nearest = means
                    .iter()
                    .map(|m| x.iter().zip(m).map(|(a, b)| (a - b) * (a - b)).sum::<f64>())
                    .fold(f64::INFINITY, f64::min);
                if nearest > best_dist {
                    best_dist = nearest;
                    best_r = r;
                }
            }
            means.push(points[best_r * d..(best_r + 1) * d].to_vec());
        }
        let mut gm = GaussianMixture {
            weights: vec![1.0 / k as f64; k],
            means,
            vars: vec![vec![1.0; d]; k],
        };
        let mut resp = vec![0.0f64; rows * k];
        for _ in 0..iters {
            // E-step.
            for r in 0..rows {
                let x = &points[r * d..(r + 1) * d];
                let mut total = 0.0;
                for c in 0..k {
                    let p = gm.weights[c] * gm.component_density(c, x);
                    resp[r * k + c] = p;
                    total += p;
                }
                let total = total.max(1e-300);
                for c in 0..k {
                    resp[r * k + c] /= total;
                }
            }
            // M-step.
            for c in 0..k {
                let nk: f64 = (0..rows).map(|r| resp[r * k + c]).sum();
                let nk = nk.max(1e-9);
                gm.weights[c] = nk / rows as f64;
                for j in 0..d {
                    let mean: f64 =
                        (0..rows).map(|r| resp[r * k + c] * points[r * d + j]).sum::<f64>() / nk;
                    gm.means[c][j] = mean;
                }
                for j in 0..d {
                    let var: f64 = (0..rows)
                        .map(|r| {
                            let dv = points[r * d + j] - gm.means[c][j];
                            resp[r * k + c] * dv * dv
                        })
                        .sum::<f64>()
                        / nk;
                    gm.vars[c][j] = var.max(1e-6);
                }
            }
        }
        gm
    }

    fn component_density(&self, c: usize, x: &[f64]) -> f64 {
        let mut log_p = 0.0;
        for ((&xj, &v), &m) in x.iter().zip(&self.vars[c]).zip(&self.means[c]) {
            let d = xj - m;
            log_p += -0.5 * (d * d / v + v.ln() + (2.0 * std::f64::consts::PI).ln());
        }
        log_p.exp()
    }

    /// Sample energy `−log Σ_c w_c N(x; μ_c, Σ_c)` — higher = more anomalous.
    pub fn energy(&self, x: &[f64]) -> f64 {
        let p: f64 =
            (0..self.weights.len()).map(|c| self.weights[c] * self.component_density(c, x)).sum();
        -(p.max(1e-300)).ln()
    }
}

/// DAGMM detector.
pub struct Dagmm {
    /// Protocol.
    pub proto: DeepProtocol,
    /// Autoencoder code width.
    pub code: usize,
    /// Mixture components.
    pub components: usize,
    state: Option<Fitted<Net>>,
}

struct Net {
    enc: Linear,
    enc2: Linear,
    dec: Linear,
    dec2: Linear,
    gmm: GaussianMixture,
}

impl Net {
    /// Code and reconstruction of the `[rows, dims]` observations in `values`.
    fn forward(&self, ctx: &Ctx, values: &[f32], dims: usize) -> (Var, Var) {
        let g = ctx.g;
        let x = g.constant_from(values, vec![values.len() / dims, dims]);
        let z = self.enc2.forward(ctx, g.relu(self.enc.forward(ctx, x)));
        let rec = self.dec2.forward(ctx, g.relu(self.dec.forward(ctx, z)));
        (z, rec)
    }

    /// `[code..., recon_error]` feature rows for the GMM.
    fn features(&self, ctx: &Ctx, values: &[f32], dims: usize) -> Vec<f64> {
        let g = ctx.g;
        let rows = values.len() / dims;
        let (z, rec) = self.forward(ctx, values, dims);
        let x = g.constant_from(values, vec![rows, dims]);
        let err = g.mean_last(g.square(g.sub(rec, x)), false);
        let zv = g.value(z);
        let ev = g.value(err);
        let code = self.enc2.out_dim;
        let mut out = Vec::with_capacity(rows * (code + 1));
        for (zr, &e) in zv.chunks_exact(code).zip(&ev) {
            out.extend(zr.iter().map(|&v| v as f64));
            out.push((e as f64).ln_1p());
        }
        out
    }
}

impl Dagmm {
    /// Creates an untrained DAGMM.
    pub fn new(proto: DeepProtocol, code: usize, components: usize) -> Self {
        Self { proto, code, components, state: None }
    }
}

impl Detector for Dagmm {
    fn name(&self) -> String {
        "DAGMM".to_string()
    }

    fn fit(&mut self, train: &TimeSeries, _val: &TimeSeries) {
        let (p, code) = (self.proto, self.code);
        // Phase 1: autoencoder training.
        let build = |ps: &mut _, rng: &mut _, tn: &TimeSeries| {
            let dims = tn.dims();
            Net {
                enc: Linear::new(ps, rng, "dagmm.enc", dims, p.d_model),
                enc2: Linear::new(ps, rng, "dagmm.enc2", p.d_model, code),
                dec: Linear::new(ps, rng, "dagmm.dec", code, p.d_model),
                dec2: Linear::new(ps, rng, "dagmm.dec2", p.d_model, dims),
                gmm: GaussianMixture { weights: vec![], means: vec![], vars: vec![] },
            }
        };
        let mut fitted = fit_deep(&p, train, build, |f, ctx, values, _, _| {
            let (_, rec) = f.net.forward(ctx, values, f.dims);
            let x = ctx.g.constant_from(values, vec![values.len() / f.dims, f.dims]);
            ctx.g.mse(rec, x)
        });

        // Phase 2: GMM on [code, recon-error] features of (subsampled) train.
        let tn = fitted.norm.transform(train);
        let rows = tn.len().min(4096);
        let g = Graph::from_env();
        let ctx = Ctx::eval(&g, &fitted.ps);
        let feats = fitted.net.features(&ctx, &tn.data()[..rows * fitted.dims], fitted.dims);
        fitted.net.gmm = GaussianMixture::fit(&feats, rows, code + 1, self.components, 30, p.seed);
        self.state = Some(fitted);
    }

    fn score(&self, series: &TimeSeries) -> Vec<f32> {
        score_deep(&self.proto, self.state.as_ref(), series, |f, ctx, values, _| {
            let feats = f.net.features(ctx, values, f.dims);
            feats.chunks_exact(self.code + 1).map(|x| f.net.gmm.energy(x) as f32).collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gmm_recovers_two_clusters() {
        // Two 1-D clusters at 0 and 10.
        let mut pts = Vec::new();
        for i in 0..200 {
            let base = if i % 2 == 0 { 0.0 } else { 10.0 };
            pts.push(base + ((i * 31) % 7) as f64 / 7.0 - 0.5);
        }
        let gm = GaussianMixture::fit(&pts, 200, 1, 2, 50, 1);
        let mut means: Vec<f64> = gm.means.iter().map(|m| m[0]).collect();
        means.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((means[0] - 0.0).abs() < 1.0, "means: {means:?}");
        assert!((means[1] - 10.0).abs() < 1.0, "means: {means:?}");
    }

    #[test]
    fn energy_is_low_inside_clusters_high_outside() {
        let pts: Vec<f64> = (0..100).map(|i| ((i * 17) % 11) as f64 / 11.0).collect();
        let gm = GaussianMixture::fit(&pts, 100, 1, 1, 20, 2);
        assert!(gm.energy(&[0.5]) < gm.energy(&[50.0]));
    }

    #[test]
    fn dagmm_end_to_end_flags_outlier() {
        use tfmae_data::{render, Component};
        let mut rng = StdRng::seed_from_u64(5);
        let ch = render(
            &[Component::Sine { period: 16.0, amp: 1.0, phase: 0.0 }, Component::Noise { sigma: 0.1 }],
            512,
            &mut rng,
        );
        let train = TimeSeries::from_channels(&[ch]);
        let mut det = Dagmm::new(DeepProtocol { epochs: 3, ..DeepProtocol::tiny() }, 2, 2);
        det.fit(&train, &train);

        let ch2 = render(
            &[Component::Sine { period: 16.0, amp: 1.0, phase: 0.0 }, Component::Noise { sigma: 0.1 }],
            96,
            &mut rng,
        );
        let mut test = TimeSeries::from_channels(&[ch2]);
        test.set(40, 0, 12.0);
        let scores = det.score(&test);
        let mean: f32 = scores.iter().sum::<f32>() / scores.len() as f32;
        assert!(scores[40] > mean, "outlier energy {} vs mean {}", scores[40], mean);
    }
}
