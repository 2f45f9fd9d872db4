//! TranAD-lite (Tuli et al., VLDB 2022) — Transformer encoder with two
//! decoders and a self-conditioned adversarial second phase.
//!
//! Faithful-at-scale simplification: the encoder is a bidirectional
//! Transformer stack; phase 1 reconstructs the window through decoder 1;
//! phase 2 feeds the *focus score* (the detached phase-1 error) back as an
//! extra input channel and reconstructs through decoder 2, with decoder 2's
//! error adversarially weighted as in the original's ε-schedule.

use tfmae_data::{Detector, TimeSeries};
use tfmae_nn::{Activation, Ctx, Linear, TransformerConfig, TransformerStack};
use tfmae_tensor::Var;

use crate::common::{fit_deep, score_deep, DeepProtocol, Fitted};

/// TranAD-lite detector.
pub struct TranAdLite {
    /// Protocol.
    pub proto: DeepProtocol,
    /// Transformer layers.
    pub layers: usize,
    state: Option<Fitted<Net>>,
}

struct Net {
    proj: Linear,
    focus_proj: Linear,
    stack: TransformerStack,
    dec1: Linear,
    dec2: Linear,
    posenc: Vec<f32>,
}

impl Net {
    /// Encodes `x [B,T,N]` (+ optional focus channel) and returns both
    /// decoder outputs.
    fn forward(&self, ctx: &Ctx, x: Var, focus: Option<Var>, t: usize) -> (Var, Var) {
        let g = ctx.g;
        let mut h = self.proj.forward(ctx, x);
        if let Some(f) = focus {
            h = g.add(h, self.focus_proj.forward(ctx, f));
        }
        let h = g.add(h, g.constant_from(&self.posenc, vec![t, self.proj.out_dim]));
        let h = self.stack.forward(ctx, h);
        (self.dec1.forward(ctx, h), self.dec2.forward(ctx, h))
    }
}

impl TranAdLite {
    /// Creates an untrained TranAD-lite.
    pub fn new(proto: DeepProtocol, layers: usize) -> Self {
        Self { proto, layers, state: None }
    }
}

impl Detector for TranAdLite {
    fn name(&self) -> String {
        "TranAD".to_string()
    }

    fn fit(&mut self, train: &TimeSeries, _val: &TimeSeries) {
        let p = self.proto;
        let tc = TransformerConfig {
            d_model: p.d_model,
            heads: 4.min(p.d_model),
            d_ff: p.d_model * 2,
            layers: self.layers,
            activation: Activation::Gelu,
        };
        let build = |ps: &mut _, rng: &mut _, tn: &TimeSeries| {
            let dims = tn.dims();
            Net {
                proj: Linear::new(ps, rng, "tranad.proj", dims, p.d_model),
                focus_proj: Linear::with_bias(ps, rng, "tranad.focus", dims, p.d_model, false),
                stack: TransformerStack::new(ps, rng, "tranad.enc", &tc),
                dec1: Linear::new(ps, rng, "tranad.dec1", p.d_model, dims),
                dec2: Linear::new(ps, rng, "tranad.dec2", p.d_model, dims),
                posenc: tfmae_nn::encoding_table(p.win_len, p.d_model),
            }
        };
        self.state = Some(fit_deep(&p, train, build, |f, ctx, values, b, epoch| {
            let g = ctx.g;
            let n = (epoch + 1) as f32;
            let (w1, w2) = (1.0 / n, 1.0 - 1.0 / n);
            let x = g.constant_from(values, vec![b, p.win_len, f.dims]);

            // Phase 1: no focus.
            let (o1, _) = f.net.forward(ctx, x, None, p.win_len);
            let e1 = g.mse(o1, x);

            // Phase 2: self-conditioning on the detached phase-1 error.
            let focus = g.detach(g.square(g.sub(o1, x)));
            let (_, o2) = f.net.forward(ctx, x, Some(focus), p.win_len);
            let e2 = g.mse(o2, x);

            // Original schedule: the plain phase-1 term decays (ε^{-n})
            // while the self-conditioned phase-2 term grows (1 − ε^{-n}).
            g.add(g.scale(e1, w1), g.scale(e2, w2.max(w1)))
        }));
    }

    fn score(&self, series: &TimeSeries) -> Vec<f32> {
        let p = self.proto;
        score_deep(&p, self.state.as_ref(), series, |f, ctx, values, b| {
            let g = ctx.g;
            let x = g.constant_from(values, vec![b, p.win_len, f.dims]);
            let (o1, _) = f.net.forward(ctx, x, None, p.win_len);
            let focus = g.square(g.sub(o1, x));
            let (_, o2) = f.net.forward(ctx, x, Some(focus), p.win_len);
            // Score = ½(e1 + e2) per observation, as in the original.
            let e1 = g.mean_last(g.square(g.sub(o1, x)), false);
            let e2 = g.mean_last(g.square(g.sub(o2, x)), false);
            g.value(g.scale(g.add(e1, e2), 0.5))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tfmae_data::{render, Component};
    use tfmae_tensor::Graph;

    fn series(len: usize, seed: u64) -> TimeSeries {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = render(
            &[Component::Sine { period: 16.0, amp: 1.0, phase: 0.0 }, Component::Noise { sigma: 0.05 }],
            len,
            &mut rng,
        );
        let b = render(
            &[Component::Square { period: 20, amp: 0.5, duty: 0.5 }, Component::Noise { sigma: 0.05 }],
            len,
            &mut rng,
        );
        TimeSeries::from_channels(&[a, b])
    }

    #[test]
    fn trains_and_scores() {
        let train = series(320, 1);
        let mut det = TranAdLite::new(DeepProtocol { epochs: 3, ..DeepProtocol::tiny() }, 1);
        det.fit(&train, &train);
        let mut test = series(96, 2);
        test.set(60, 0, 9.0);
        let scores = det.score(&test);
        assert_eq!(scores.len(), 96);
        assert!(scores.iter().all(|s| s.is_finite()));
        let mut sorted = scores.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(scores[60] > sorted[48], "spike should beat the median");
    }

    #[test]
    fn phase2_conditioning_changes_output() {
        let train = series(256, 3);
        let mut det = TranAdLite::new(DeepProtocol::tiny(), 1);
        det.fit(&train, &train);
        let state = det.state.as_ref().unwrap();
        let p = det.proto;
        let s = state.norm.transform(&series(p.win_len, 4));
        let g = Graph::new();
        let ctx = Ctx::eval(&g, &state.ps);
        let x = g.constant(s.data().to_vec(), vec![1, p.win_len, 2]);
        let (o1, _) = state.net.forward(&ctx, x, None, p.win_len);
        let focus = g.square(g.sub(o1, x));
        let (_, with_focus) = state.net.forward(&ctx, x, Some(focus), p.win_len);
        let (_, without) = state.net.forward(&ctx, x, None, p.win_len);
        assert_ne!(g.value(with_focus), g.value(without));
    }
}
