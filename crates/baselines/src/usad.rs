//! USAD (Audibert et al., KDD 2020) — unsupervised adversarially-trained
//! autoencoder, the paper's fast adversarial-reconstruction baseline.
//!
//! One shared encoder `E` and two decoders `D1`, `D2` over flattened
//! windows. Two-phase objective per epoch `n` (following the original's
//! schedule weights `1/n` and `1 − 1/n`):
//!
//! * `L1 = (1/n)·||w − D1(E(w))|| + (1 − 1/n)·||w − D2(E(D1(E(w))))||`
//! * `L2 = (1/n)·||w − D2(E(w))|| − (1 − 1/n)·||w − D2(E(D1(E(w))))||`
//!
//! Score: `α·||w − D1(E(w))|| + β·||w − D2(E(D1(E(w))))||` per observation.

use tfmae_data::{Detector, TimeSeries};
use tfmae_nn::{Ctx, Linear};
use tfmae_tensor::Var;

use crate::common::{fit_deep, score_deep, DeepProtocol, Fitted};

/// USAD detector.
pub struct Usad {
    /// Protocol.
    pub proto: DeepProtocol,
    /// Bottleneck width.
    pub latent: usize,
    /// Score mixing weight α (β = 1 − α).
    pub alpha: f32,
    state: Option<Fitted<Net>>,
}

struct Net {
    enc: Linear,
    enc2: Linear,
    d1a: Linear,
    d1b: Linear,
    d2a: Linear,
    d2b: Linear,
}

impl Net {
    fn encode(&self, ctx: &Ctx, x: Var) -> Var {
        self.enc2.forward(ctx, ctx.g.relu(self.enc.forward(ctx, x)))
    }

    fn dec1(&self, ctx: &Ctx, z: Var) -> Var {
        self.d1b.forward(ctx, ctx.g.relu(self.d1a.forward(ctx, z)))
    }

    fn dec2(&self, ctx: &Ctx, z: Var) -> Var {
        self.d2b.forward(ctx, ctx.g.relu(self.d2a.forward(ctx, z)))
    }
}

impl Usad {
    /// Creates an untrained USAD.
    pub fn new(proto: DeepProtocol, latent: usize) -> Self {
        Self { proto, latent, alpha: 0.5, state: None }
    }
}

impl Detector for Usad {
    fn name(&self) -> String {
        "USAD".to_string()
    }

    fn fit(&mut self, train: &TimeSeries, _val: &TimeSeries) {
        let (p, latent) = (self.proto, self.latent);
        let build = |ps: &mut _, rng: &mut _, tn: &TimeSeries| {
            let in_dim = p.win_len * tn.dims();
            let hidden = p.d_model;
            Net {
                enc: Linear::new(ps, rng, "usad.enc", in_dim, hidden),
                enc2: Linear::new(ps, rng, "usad.enc2", hidden, latent),
                d1a: Linear::new(ps, rng, "usad.d1a", latent, hidden),
                d1b: Linear::new(ps, rng, "usad.d1b", hidden, in_dim),
                d2a: Linear::new(ps, rng, "usad.d2a", latent, hidden),
                d2b: Linear::new(ps, rng, "usad.d2b", hidden, in_dim),
            }
        };
        self.state = Some(fit_deep(&p, train, build, |f, ctx, values, b, epoch| {
            let (g, net) = (ctx.g, &f.net);
            let n = (epoch + 1) as f32;
            let (w1, w2) = (1.0 / n, 1.0 - 1.0 / n);
            let x = g.constant_from(values, vec![b, p.win_len * f.dims]);
            let z = net.encode(ctx, x);
            let r1 = net.dec1(ctx, z);
            let r2 = net.dec2(ctx, z);

            // AE1's phase: e12 through the live r1 (gradient reaches
            // encoder + dec1 + dec2; dec1 learns to make its output
            // reconstructable by AE2 — the original's L1).
            let z2 = net.encode(ctx, r1);
            let r12 = net.dec2(ctx, z2);
            let e12 = g.mse(r12, x);

            // AE2's adversarial phase: maximize the error on AE1's
            // *frozen* output (the original trains AE2 with a separate
            // optimizer; the stop-gradient reproduces that routing —
            // without it the +w2/−w2 terms on one node cancel exactly).
            let z2f = net.encode(ctx, g.detach(r1));
            let r12f = net.dec2(ctx, z2f);
            let e12f = g.mse(r12f, x);

            let e1 = g.mse(r1, x);
            let e2 = g.mse(r2, x);
            let l1 = g.add(g.scale(e1, w1), g.scale(e12, w2));
            let l2 = g.sub(g.scale(e2, w1), g.scale(e12f, w2));
            g.add(l1, l2)
        }));
    }

    fn score(&self, series: &TimeSeries) -> Vec<f32> {
        let p = self.proto;
        score_deep(&p, self.state.as_ref(), series, |f, ctx, values, b| {
            let (g, net) = (ctx.g, &f.net);
            let x = g.constant_from(values, vec![b, p.win_len * f.dims]);
            let z = net.encode(ctx, x);
            let r1 = net.dec1(ctx, z);
            let z2 = net.encode(ctx, r1);
            let r12 = net.dec2(ctx, z2);

            let e1 = g.reshape(g.square(g.sub(r1, x)), &[b, p.win_len, f.dims]);
            let e12 = g.reshape(g.square(g.sub(r12, x)), &[b, p.win_len, f.dims]);
            let per_t = g.add(
                g.scale(g.mean_last(e1, false), self.alpha),
                g.scale(g.mean_last(e12, false), 1.0 - self.alpha),
            );
            g.value(per_t)
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
            &[Component::Sine { period: 16.0, amp: 1.0, phase: 0.0 }, Component::Noise { sigma: 0.05 }],
            len,
            &mut rng,
        );
        TimeSeries::from_channels(&[ch])
    }

    #[test]
    fn usad_trains_and_flags_spike() {
        let train = series(512, 1);
        let mut det = Usad::new(DeepProtocol { epochs: 6, ..DeepProtocol::tiny() }, 8);
        det.fit(&train, &train);
        let mut test = series(96, 2);
        test.set(30, 0, 10.0);
        let scores = det.score(&test);
        assert_eq!(scores.len(), 96);
        let mut sorted = scores.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(scores[30] > sorted[48], "spike must beat median");
    }

    #[test]
    fn scores_are_deterministic() {
        let train = series(256, 3);
        let test = series(64, 4);
        let run = || {
            let mut det = Usad::new(DeepProtocol::tiny(), 4);
            det.fit(&train, &train);
            det.score(&test)
        };
        assert_eq!(run(), run());
    }
}
