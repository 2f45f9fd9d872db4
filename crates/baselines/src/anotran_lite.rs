//! AnomalyTransformer-lite (Xu et al., ICLR 2022) — association-discrepancy
//! contrastive baseline.
//!
//! Mechanism kept from the original: a Transformer whose *series
//! association* (self-attention rows) is compared against a *prior
//! association* (a Gaussian kernel over temporal distance); anomalies have
//! adjacent-concentrated associations, so their discrepancy to the smooth
//! prior is small and the composite score
//! `softmax(−AssocDis) ⊙ recon_error` spikes on them.
//!
//! Simplification vs the original (documented in DESIGN.md §5): the prior's
//! σ is fixed rather than learned and the two-phase minimax is folded into
//! one regularized objective — the scoring mechanism (association
//! discrepancy reweighting) is preserved exactly.

use tfmae_data::{Detector, TimeSeries};
use tfmae_nn::{Activation, Ctx, Linear, MultiHeadSelfAttention, TransformerConfig, TransformerStack};
use tfmae_tensor::{Graph, Var};

use crate::common::{fit_deep, score_deep, DeepProtocol, Fitted};

/// AnomalyTransformer-lite detector.
pub struct AnomalyTransformerLite {
    /// Protocol.
    pub proto: DeepProtocol,
    /// Prior-association kernel width.
    pub sigma: f32,
    /// Weight of the association regularizer.
    pub lambda: f32,
    state: Option<Fitted<Net>>,
}

struct Net {
    proj: Linear,
    attn: MultiHeadSelfAttention,
    stack: TransformerStack,
    head: Linear,
    posenc: Vec<f32>,
    prior: Vec<f32>,
    heads: usize,
}

/// Row-normalized Gaussian prior over |i − j| (the original's prior
/// association with fixed σ).
pub fn gaussian_prior(t: usize, sigma: f32) -> Vec<f32> {
    let mut out = vec![0.0f32; t * t];
    for i in 0..t {
        let mut sum = 0.0f32;
        for j in 0..t {
            let d = i as f32 - j as f32;
            let v = (-d * d / (2.0 * sigma * sigma)).exp();
            out[i * t + j] = v;
            sum += v;
        }
        for j in 0..t {
            out[i * t + j] /= sum;
        }
    }
    out
}

impl Net {
    /// Returns `(recon, series_association [B*H, T, T])` for a batch.
    fn forward(&self, ctx: &Ctx, x: Var, t: usize) -> (Var, Var) {
        let g = ctx.g;
        let h = self.proj.forward(ctx, x);
        let h = g.add(h, g.constant_from(&self.posenc, vec![t, self.proj.out_dim]));
        let assoc = self.attn.attention_weights(ctx, h);
        let h = self.stack.forward(ctx, h);
        let rec = self.head.forward(ctx, h);
        (rec, assoc)
    }

    /// Per-observation association discrepancy, `[B, T]` flattened: the
    /// head-averaged symmetric KL between prior and series association rows.
    fn assoc_discrepancy(&self, g: &Graph, assoc: Var, b: usize, t: usize) -> Var {
        let prior = {
            let mut data = Vec::with_capacity(b * self.heads * t * t);
            for _ in 0..b * self.heads {
                data.extend_from_slice(&self.prior);
            }
            g.constant(data, vec![b * self.heads, t, t])
        };
        let kl = g.sym_kl_last(prior, assoc); // [B*H, T]
        // Average over heads: reshape to [B, H, T] → permute → mean.
        let kl = g.reshape(kl, &[b, self.heads, t]);
        let kl = g.permute(kl, &[0, 2, 1]);
        g.mean_last(kl, false) // [B, T]
    }
}

impl AnomalyTransformerLite {
    /// Creates an untrained AnomalyTransformer-lite.
    pub fn new(proto: DeepProtocol) -> Self {
        Self { proto, sigma: 5.0, lambda: 0.1, state: None }
    }
}

impl Detector for AnomalyTransformerLite {
    fn name(&self) -> String {
        "AnoTran".to_string()
    }

    fn fit(&mut self, train: &TimeSeries, _val: &TimeSeries) {
        let (p, sigma, lambda) = (self.proto, self.sigma, self.lambda);
        let heads = 4.min(p.d_model);
        let tc = TransformerConfig {
            d_model: p.d_model,
            heads,
            d_ff: p.d_model * 2,
            layers: 1,
            activation: Activation::Gelu,
        };
        let build = |ps: &mut _, rng: &mut _, tn: &TimeSeries| Net {
            proj: Linear::new(ps, rng, "anotran.proj", tn.dims(), p.d_model),
            attn: MultiHeadSelfAttention::new(ps, rng, "anotran.assoc", p.d_model, heads),
            stack: TransformerStack::new(ps, rng, "anotran.enc", &tc),
            head: Linear::new(ps, rng, "anotran.head", p.d_model, tn.dims()),
            posenc: tfmae_nn::encoding_table(p.win_len, p.d_model),
            prior: gaussian_prior(p.win_len, sigma),
            heads,
        };
        self.state = Some(fit_deep(&p, train, build, |f, ctx, values, b, _| {
            let g = ctx.g;
            let x = g.constant_from(values, vec![b, p.win_len, f.dims]);
            let (rec, assoc) = f.net.forward(ctx, x, p.win_len);
            let mse = g.mse(rec, x);
            let dis = g.mean_all(f.net.assoc_discrepancy(g, assoc, b, p.win_len));
            g.add(mse, g.scale(dis, lambda))
        }));
    }

    fn score(&self, series: &TimeSeries) -> Vec<f32> {
        let p = self.proto;
        score_deep(&p, self.state.as_ref(), series, |f, ctx, values, b| {
            let g = ctx.g;
            let x = g.constant_from(values, vec![b, p.win_len, f.dims]);
            let (rec, assoc) = f.net.forward(ctx, x, p.win_len);
            let err = g.value(g.mean_last(g.square(g.sub(rec, x)), false)); // [B, T]
            let dis = g.value(f.net.assoc_discrepancy(g, assoc, b, p.win_len)); // [B, T]
            // Original criterion: reconstruction error reweighted by the
            // (negated) association discrepancy. The original's window
            // softmax is winner-takes-all; the lite uses the smooth
            // equivalent exp(−standardized dis) so several points per
            // window can stay elevated.
            let t = p.win_len;
            let mut out = Vec::with_capacity(err.len());
            for w in 0..b {
                let dwin = &dis[w * t..(w + 1) * t];
                let mean: f32 = dwin.iter().sum::<f32>() / t as f32;
                let std: f32 = (dwin.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>()
                    / t as f32)
                    .sqrt()
                    .max(1e-6);
                for i in 0..t {
                    let z = (dwin[i] - mean) / std;
                    out.push(err[w * t + i] * (-z).exp().min(10.0));
                }
            }
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tfmae_data::{render, Component};

    #[test]
    fn prior_rows_are_stochastic_and_peaked_on_diagonal() {
        let t = 16;
        let prior = gaussian_prior(t, 3.0);
        for i in 0..t {
            let row = &prior[i * t..(i + 1) * t];
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            let argmax = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            assert_eq!(argmax, i);
        }
    }

    #[test]
    fn trains_and_scores_spike() {
        let mut rng = StdRng::seed_from_u64(1);
        let ch = render(
            &[Component::Sine { period: 16.0, amp: 1.0, phase: 0.0 }, Component::Noise { sigma: 0.05 }],
            384,
            &mut rng,
        );
        let train = TimeSeries::from_channels(&[ch]);
        let mut det = AnomalyTransformerLite::new(DeepProtocol { epochs: 3, ..DeepProtocol::tiny() });
        det.fit(&train, &train);

        let ch2 = render(
            &[Component::Sine { period: 16.0, amp: 1.0, phase: 0.0 }, Component::Noise { sigma: 0.05 }],
            96,
            &mut rng,
        );
        let mut test = TimeSeries::from_channels(&[ch2]);
        test.set(40, 0, 10.0);
        let scores = det.score(&test);
        assert_eq!(scores.len(), 96);
        assert!(scores.iter().all(|s| s.is_finite() && *s >= 0.0));
        let mut sorted = scores.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(scores[40] > sorted[48]);
    }
}
