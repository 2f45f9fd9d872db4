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

use rand::rngs::StdRng;
use rand::SeedableRng;
use tfmae_data::{Detector, TimeSeries, ZScore};
use tfmae_nn::{Activation, Adam, Ctx, Linear, MultiHeadSelfAttention, TransformerConfig, TransformerStack};
use tfmae_tensor::{Graph, ParamStore, Var};

use crate::common::{score_windows, training_batches_strided, DeepProtocol};

/// AnomalyTransformer-lite detector.
pub struct AnomalyTransformerLite {
    /// Protocol.
    pub proto: DeepProtocol,
    /// Prior-association kernel width.
    pub sigma: f32,
    /// Weight of the association regularizer.
    pub lambda: f32,
    state: Option<State>,
}

struct State {
    ps: ParamStore,
    proj: Linear,
    attn: MultiHeadSelfAttention,
    stack: TransformerStack,
    head: Linear,
    posenc: Vec<f32>,
    prior: Vec<f32>,
    norm: ZScore,
    dims: usize,
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

impl AnomalyTransformerLite {
    /// Creates an untrained AnomalyTransformer-lite.
    pub fn new(proto: DeepProtocol) -> Self {
        Self { proto, sigma: 5.0, lambda: 0.1, state: None }
    }

    /// Returns `(recon, series_association [B*H, T, T], hidden)` for a batch.
    fn forward(state: &State, ctx: &Ctx, x: Var, b: usize, t: usize) -> (Var, Var) {
        let g = ctx.g;
        let d = state.proj.out_dim;
        let h = state.proj.forward(ctx, x);
        let mut pe = Vec::with_capacity(b * t * d);
        for _ in 0..b {
            pe.extend_from_slice(&state.posenc);
        }
        let h = g.add(h, g.constant(pe, vec![b, t, d]));
        let assoc = state.attn.attention_weights(ctx, h);
        let h = state.stack.forward(ctx, h);
        let rec = state.head.forward(ctx, h);
        (rec, assoc)
    }

    /// Per-observation association discrepancy, `[B, T]` flattened: the
    /// head-averaged symmetric KL between prior and series association rows.
    fn assoc_discrepancy(state: &State, g: &Graph, assoc: Var, b: usize, t: usize) -> Var {
        let prior = {
            let mut data = Vec::with_capacity(b * state.heads * t * t);
            for _ in 0..b * state.heads {
                data.extend_from_slice(&state.prior);
            }
            g.constant(data, vec![b * state.heads, t, t])
        };
        let kl = g.sym_kl_last(prior, assoc); // [B*H, T]
        // Average over heads: reshape to [B, H, T] → permute → mean.
        let kl = g.reshape(kl, &[b, state.heads, t]);
        let kl = g.permute(kl, &[0, 2, 1]);
        g.mean_last(kl, false) // [B, T]
    }
}

impl Detector for AnomalyTransformerLite {
    fn name(&self) -> String {
        "AnoTran".to_string()
    }

    fn fit(&mut self, train: &TimeSeries, _val: &TimeSeries) {
        let p = self.proto;
        let norm = ZScore::fit(train);
        let tn = norm.transform(train);
        let dims = train.dims();
        let heads = 4.min(p.d_model);
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(p.seed);
        let tc = TransformerConfig {
            d_model: p.d_model,
            heads,
            d_ff: p.d_model * 2,
            layers: 1,
            activation: Activation::Gelu,
        };
        let mut state = State {
            proj: Linear::new(&mut ps, &mut rng, "anotran.proj", dims, p.d_model),
            attn: MultiHeadSelfAttention::new(&mut ps, &mut rng, "anotran.assoc", p.d_model, heads),
            stack: TransformerStack::new(&mut ps, &mut rng, "anotran.enc", &tc),
            head: Linear::new(&mut ps, &mut rng, "anotran.head", p.d_model, dims),
            posenc: tfmae_nn::encoding_table(p.win_len, p.d_model),
            prior: gaussian_prior(p.win_len, self.sigma),
            ps,
            norm,
            dims,
            heads,
        };
        let mut opt = Adam::new(&state.ps, p.lr);
        let g = Graph::from_env();
        for epoch in 0..p.epochs {
            for (starts, values) in training_batches_strided(&tn, p.win_len, p.train_stride, p.batch, p.seed ^ epoch as u64) {
                let b = starts.len();
                g.reset();
                let ctx = Ctx::train(&g, &state.ps, p.seed ^ epoch as u64);
                let x = g.constant_from(&values, vec![b, p.win_len, dims]);
                let (rec, assoc) = Self::forward(&state, &ctx, x, b, p.win_len);
                let mse = g.mse(rec, x);
                let dis = g.mean_all(Self::assoc_discrepancy(&state, &g, assoc, b, p.win_len));
                let loss = g.add(mse, g.scale(dis, self.lambda));
                g.backward_params_pooled(loss, &mut state.ps);
                opt.step(&mut state.ps);
            }
        }
        self.state = Some(state);
    }

    fn score(&self, series: &TimeSeries) -> Vec<f32> {
        let state = self.state.as_ref().expect("fit before score");
        let p = self.proto;
        let s = state.norm.transform(series);
        let g = Graph::from_env();
        score_windows(&s, p.win_len, p.batch, |values, b| {
            g.reset();
            let ctx = Ctx::eval(&g, &state.ps);
            let x = g.constant_from(values, vec![b, p.win_len, state.dims]);
            let (rec, assoc) = Self::forward(state, &ctx, x, b, p.win_len);
            let err = g.value(g.mean_last(g.square(g.sub(rec, x)), false)); // [B, T]
            let dis =
                g.value(Self::assoc_discrepancy(state, &g, assoc, b, p.win_len)); // [B, T]
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
