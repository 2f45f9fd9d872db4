//! Deep SVDD (Ruff et al., ICML 2018) — the paper's deep one-class
//! clustering baseline.
//!
//! A pointwise MLP encoder maps each observation into a latent space; the
//! hypersphere center is the mean embedding of the training data after an
//! initial pass; training minimizes the mean squared distance to the
//! center; the anomaly score is that distance.

use tfmae_data::{Detector, TimeSeries};
use tfmae_nn::{Ctx, Linear};
use tfmae_tensor::{Graph, Var};

use crate::common::{fit_deep, score_deep, DeepProtocol, Fitted};

/// Deep support vector data description over observations.
pub struct DeepSvdd {
    /// Protocol.
    pub proto: DeepProtocol,
    /// Latent width.
    pub latent: usize,
    state: Option<Fitted<Net>>,
}

struct Net {
    l1: Linear,
    l2: Linear,
    center: Vec<f32>,
}

impl Net {
    /// Embeds the `[rows, dims]` observations in `values`.
    fn embed(&self, ctx: &Ctx, values: &[f32], dims: usize) -> Var {
        let g = ctx.g;
        let x = g.constant(values.to_vec(), vec![values.len() / dims, dims]);
        let h = g.relu(self.l1.forward(ctx, x));
        self.l2.forward(ctx, h)
    }

    /// Squared distance of every observation's embedding to the center.
    fn distances(&self, ctx: &Ctx, values: &[f32], dims: usize) -> Var {
        let g = ctx.g;
        let z = self.embed(ctx, values, dims);
        let c = g.constant(self.center.clone(), vec![self.center.len()]);
        g.sum_last(g.square(g.sub(z, c)), false)
    }
}

impl DeepSvdd {
    /// Creates an untrained DeepSVDD.
    pub fn new(proto: DeepProtocol, latent: usize) -> Self {
        Self { proto, latent, state: None }
    }
}

impl Detector for DeepSvdd {
    fn name(&self) -> String {
        "DSVDD".to_string()
    }

    fn fit(&mut self, train: &TimeSeries, _val: &TimeSeries) {
        let (p, latent) = (self.proto, self.latent);
        let build = |ps: &mut _, rng: &mut _, tn: &TimeSeries| {
            let dims = tn.dims();
            let mut net = Net {
                l1: Linear::new(ps, rng, "dsvdd.l1", dims, p.d_model),
                l2: Linear::with_bias(ps, rng, "dsvdd.l2", p.d_model, latent, false),
                center: vec![0.0; latent],
            };
            // Initialize the center as the mean embedding (standard DeepSVDD
            // warm start; keeps the trivial-solution collapse away from zero).
            let g = Graph::new();
            let ctx = Ctx::eval(&g, ps);
            let rows = tn.len().min(2048);
            let zv = g.value(net.embed(&ctx, &tn.data()[..rows * dims], dims));
            for row in zv.chunks(latent) {
                for (c, v) in net.center.iter_mut().zip(row.iter()) {
                    *c += v;
                }
            }
            for c in net.center.iter_mut() {
                *c /= rows as f32;
                // Standard trick: push tiny coordinates away from zero.
                if c.abs() < 0.01 {
                    *c = if *c < 0.0 { -0.01 } else { 0.01 };
                }
            }
            net
        };
        self.state = Some(fit_deep(&p, train, build, |f, ctx, values, _, _| {
            ctx.g.mean_all(f.net.distances(ctx, values, f.dims))
        }));
    }

    fn score(&self, series: &TimeSeries) -> Vec<f32> {
        score_deep(&self.proto, self.state.as_ref(), series, |f, ctx, values, _| {
            ctx.g.value(f.net.distances(ctx, values, f.dims))
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
        let a = render(
            &[Component::Sine { period: 20.0, amp: 1.0, phase: 0.0 }, Component::Noise { sigma: 0.1 }],
            len,
            &mut rng,
        );
        TimeSeries::from_channels(&[a])
    }

    #[test]
    fn training_shrinks_distances() {
        let train = series(512, 1);
        let mut det = DeepSvdd::new(DeepProtocol { epochs: 1, ..DeepProtocol::tiny() }, 4);
        det.fit(&train, &train);
        let before: f32 = det.score(&series(128, 2)).iter().sum();

        let mut det2 = DeepSvdd::new(DeepProtocol { epochs: 10, ..DeepProtocol::tiny() }, 4);
        det2.fit(&train, &train);
        let after: f32 = det2.score(&series(128, 2)).iter().sum();
        assert!(after < before, "more training should shrink normal distances: {after} vs {before}");
    }

    #[test]
    fn outlier_scores_above_normal() {
        let train = series(512, 3);
        let mut det = DeepSvdd::new(DeepProtocol { epochs: 6, ..DeepProtocol::tiny() }, 4);
        det.fit(&train, &train);
        let mut test = series(96, 4);
        test.set(50, 0, 15.0);
        let scores = det.score(&test);
        let mean: f32 = scores.iter().sum::<f32>() / scores.len() as f32;
        assert!(scores[50] > mean, "outlier {} vs mean {}", scores[50], mean);
    }
}
