//! Plain reconstruction baselines.
//!
//! * [`DenseAutoencoder`] — window-flattening MLP autoencoder; the stand-in
//!   for OmniAnomaly's reconstruction criterion (its stochastic RNN is
//!   replaced by a deterministic bottleneck — what Table III credits it for
//!   is the reconstruction-error criterion itself).
//! * [`TransformerRecon`] — a temporal-only Transformer that reconstructs
//!   its input; tagged `GPT4TS*` in the harness as the proxy for the
//!   pretrained-LM baseline (temporal features + reconstruction criterion,
//!   see DESIGN.md §4).

use rand::rngs::StdRng;
use rand::SeedableRng;
use tfmae_data::{Detector, TimeSeries, ZScore};
use tfmae_nn::{Activation, Adam, Ctx, Linear, TransformerConfig, TransformerStack};
use tfmae_tensor::{Graph, ParamStore};

use crate::common::{score_windows, training_batches_strided, DeepProtocol};

/// MLP autoencoder over flattened windows.
pub struct DenseAutoencoder {
    /// Protocol (window length, epochs, ...).
    pub proto: DeepProtocol,
    /// Bottleneck width.
    pub latent: usize,
    display_name: String,
    state: Option<DenseState>,
}

struct DenseState {
    ps: ParamStore,
    enc1: Linear,
    enc2: Linear,
    dec1: Linear,
    dec2: Linear,
    norm: ZScore,
    dims: usize,
}

impl DenseAutoencoder {
    /// New dense AE with the given display name (e.g. "OmniAno*").
    pub fn new(display_name: &str, proto: DeepProtocol, latent: usize) -> Self {
        Self { proto, latent, display_name: display_name.to_string(), state: None }
    }

    fn forward(state: &DenseState, ctx: &Ctx, values: &[f32], b: usize, t: usize) -> tfmae_tensor::Var {
        let g = ctx.g;
        let n = state.dims;
        let x = g.constant_from(values, vec![b, t * n]);
        let h = g.relu(state.enc1.forward(ctx, x));
        let z = state.enc2.forward(ctx, h);
        let h = g.relu(state.dec1.forward(ctx, z));
        state.dec2.forward(ctx, h)
    }
}

impl Detector for DenseAutoencoder {
    fn name(&self) -> String {
        self.display_name.clone()
    }

    fn fit(&mut self, train: &TimeSeries, _val: &TimeSeries) {
        let p = self.proto;
        let norm = ZScore::fit(train);
        let tn = norm.transform(train);
        let dims = train.dims();
        let in_dim = p.win_len * dims;
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(p.seed);
        let hidden = p.d_model.max(self.latent * 2);
        let state = DenseState {
            enc1: Linear::new(&mut ps, &mut rng, "ae.enc1", in_dim, hidden),
            enc2: Linear::new(&mut ps, &mut rng, "ae.enc2", hidden, self.latent),
            dec1: Linear::new(&mut ps, &mut rng, "ae.dec1", self.latent, hidden),
            dec2: Linear::new(&mut ps, &mut rng, "ae.dec2", hidden, in_dim),
            ps,
            norm,
            dims,
        };
        let mut state = state;
        let mut opt = Adam::new(&state.ps, p.lr);
        let g = Graph::from_env();
        for epoch in 0..p.epochs {
            for (bi, (starts, values)) in
                training_batches_strided(&tn, p.win_len, p.train_stride, p.batch, p.seed ^ epoch as u64).into_iter().enumerate()
            {
                let b = starts.len();
                g.reset();
                let ctx = Ctx::train(&g, &state.ps, p.seed ^ (epoch * 1000 + bi) as u64);
                let rec = Self::forward(&state, &ctx, &values, b, p.win_len);
                let x = g.constant_from(&values, vec![b, p.win_len * state.dims]);
                let loss = g.mse(rec, x);
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
            let rec = Self::forward(state, &ctx, values, b, p.win_len);
            let x = g.constant_from(values, vec![b, p.win_len * state.dims]);
            let err3 = g.reshape(g.square(g.sub(rec, x)), &[b, p.win_len, state.dims]);
            g.value(g.mean_last(err3, false))
        })
    }
}

/// Temporal-only Transformer reconstruction (the GPT4TS proxy).
pub struct TransformerRecon {
    /// Protocol.
    pub proto: DeepProtocol,
    /// Transformer layers.
    pub layers: usize,
    display_name: String,
    state: Option<TransState>,
}

struct TransState {
    ps: ParamStore,
    proj: Linear,
    stack: TransformerStack,
    head: Linear,
    posenc: Vec<f32>,
    norm: ZScore,
    dims: usize,
}

impl TransformerRecon {
    /// New Transformer reconstructor with the given display name.
    pub fn new(display_name: &str, proto: DeepProtocol, layers: usize) -> Self {
        Self { proto, layers, display_name: display_name.to_string(), state: None }
    }

    fn forward(state: &TransState, ctx: &Ctx, values: &[f32], b: usize, t: usize) -> tfmae_tensor::Var {
        let g = ctx.g;
        let n = state.dims;
        let d = state.proj.out_dim;
        let x = g.constant_from(values, vec![b, t, n]);
        let h = state.proj.forward(ctx, x);
        let mut pe = Vec::with_capacity(b * t * d);
        for _ in 0..b {
            pe.extend_from_slice(&state.posenc);
        }
        let h = g.add(h, g.constant(pe, vec![b, t, d]));
        let h = state.stack.forward(ctx, h);
        state.head.forward(ctx, h)
    }
}

impl Detector for TransformerRecon {
    fn name(&self) -> String {
        self.display_name.clone()
    }

    fn fit(&mut self, train: &TimeSeries, _val: &TimeSeries) {
        let p = self.proto;
        let norm = ZScore::fit(train);
        let tn = norm.transform(train);
        let dims = train.dims();
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(p.seed);
        let tc = TransformerConfig {
            d_model: p.d_model,
            heads: 4.min(p.d_model),
            d_ff: p.d_model * 2,
            layers: self.layers,
            activation: Activation::Gelu,
        };
        let mut state = TransState {
            proj: Linear::new(&mut ps, &mut rng, "tr.proj", dims, p.d_model),
            stack: TransformerStack::new(&mut ps, &mut rng, "tr.stack", &tc),
            head: Linear::new(&mut ps, &mut rng, "tr.head", p.d_model, dims),
            posenc: tfmae_nn::encoding_table(p.win_len, p.d_model),
            ps,
            norm,
            dims,
        };
        let mut opt = Adam::new(&state.ps, p.lr);
        let g = Graph::from_env();
        for epoch in 0..p.epochs {
            for (bi, (starts, values)) in
                training_batches_strided(&tn, p.win_len, p.train_stride, p.batch, p.seed ^ epoch as u64).into_iter().enumerate()
            {
                let b = starts.len();
                g.reset();
                let ctx = Ctx::train(&g, &state.ps, p.seed ^ (epoch * 977 + bi) as u64);
                let rec = Self::forward(&state, &ctx, &values, b, p.win_len);
                let x = g.constant_from(&values, vec![b, p.win_len, state.dims]);
                let loss = g.mse(rec, x);
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
            let rec = Self::forward(state, &ctx, values, b, p.win_len);
            let x = g.constant_from(values, vec![b, p.win_len, state.dims]);
            let err = g.square(g.sub(rec, x));
            g.value(g.mean_last(err, false))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfmae_data::{render, Component};

    fn wave_series(len: usize, seed: u64) -> TimeSeries {
        let mut rng = StdRng::seed_from_u64(seed);
        let ch = render(
            &[Component::Sine { period: 16.0, amp: 1.0, phase: 0.0 }, Component::Noise { sigma: 0.05 }],
            len,
            &mut rng,
        );
        TimeSeries::from_channels(&[ch])
    }

    #[test]
    fn dense_ae_learns_to_reconstruct() {
        let train = wave_series(512, 1);
        let mut ae = DenseAutoencoder::new("AE", DeepProtocol { epochs: 8, ..DeepProtocol::tiny() }, 8);
        ae.fit(&train, &train);
        let clean_scores = ae.score(&wave_series(128, 2));
        let mean_clean: f32 = clean_scores.iter().sum::<f32>() / clean_scores.len() as f32;

        let mut spiky = wave_series(128, 2);
        spiky.set(64, 0, 10.0);
        let spike_scores = ae.score(&spiky);
        assert!(
            spike_scores[64] > mean_clean * 3.0,
            "spike {} vs clean mean {}",
            spike_scores[64],
            mean_clean
        );
    }

    #[test]
    fn transformer_recon_runs_and_scores_spike() {
        let train = wave_series(320, 3);
        let mut tr =
            TransformerRecon::new("GPT4TS*", DeepProtocol { epochs: 4, ..DeepProtocol::tiny() }, 1);
        tr.fit(&train, &train);
        let mut test = wave_series(96, 4);
        test.set(48, 0, 8.0);
        let scores = tr.score(&test);
        assert_eq!(scores.len(), 96);
        let median = {
            let mut s = scores.clone();
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            s[48]
        };
        assert!(scores[48] > median, "spike should outscore median");
    }

    #[test]
    fn names_are_displayed() {
        let ae = DenseAutoencoder::new("OmniAno*", DeepProtocol::tiny(), 8);
        assert_eq!(ae.name(), "OmniAno*");
        let tr = TransformerRecon::new("GPT4TS*", DeepProtocol::tiny(), 1);
        assert_eq!(tr.name(), "GPT4TS*");
    }
}
