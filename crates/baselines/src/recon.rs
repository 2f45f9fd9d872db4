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

use tfmae_data::{Detector, TimeSeries};
use tfmae_nn::{Activation, Ctx, Linear, TransformerConfig, TransformerStack};
use tfmae_tensor::Var;

use crate::common::{fit_deep, score_deep, DeepProtocol, Fitted};

/// MLP autoencoder over flattened windows.
pub struct DenseAutoencoder {
    /// Protocol (window length, epochs, ...).
    pub proto: DeepProtocol,
    /// Bottleneck width.
    pub latent: usize,
    display_name: String,
    state: Option<Fitted<DenseNet>>,
}

struct DenseNet {
    enc1: Linear,
    enc2: Linear,
    dec1: Linear,
    dec2: Linear,
}

impl DenseNet {
    /// Reconstructs flattened `[B, win_len * dims]` windows.
    fn forward(&self, ctx: &Ctx, x: Var) -> Var {
        let g = ctx.g;
        let h = g.relu(self.enc1.forward(ctx, x));
        let z = self.enc2.forward(ctx, h);
        let h = g.relu(self.dec1.forward(ctx, z));
        self.dec2.forward(ctx, h)
    }
}

impl DenseAutoencoder {
    /// New dense AE with the given display name (e.g. "OmniAno*").
    pub fn new(display_name: &str, proto: DeepProtocol, latent: usize) -> Self {
        Self { proto, latent, display_name: display_name.to_string(), state: None }
    }
}

impl Detector for DenseAutoencoder {
    fn name(&self) -> String {
        self.display_name.clone()
    }

    fn fit(&mut self, train: &TimeSeries, _val: &TimeSeries) {
        let (p, latent) = (self.proto, self.latent);
        let build = |ps: &mut _, rng: &mut _, tn: &TimeSeries| {
            let in_dim = p.win_len * tn.dims();
            let hidden = p.d_model.max(latent * 2);
            DenseNet {
                enc1: Linear::new(ps, rng, "ae.enc1", in_dim, hidden),
                enc2: Linear::new(ps, rng, "ae.enc2", hidden, latent),
                dec1: Linear::new(ps, rng, "ae.dec1", latent, hidden),
                dec2: Linear::new(ps, rng, "ae.dec2", hidden, in_dim),
            }
        };
        self.state = Some(fit_deep(&p, train, build, |f, ctx, values, b, _| {
            let x = ctx.g.constant_from(values, vec![b, p.win_len * f.dims]);
            ctx.g.mse(f.net.forward(ctx, x), x)
        }));
    }

    fn score(&self, series: &TimeSeries) -> Vec<f32> {
        let p = self.proto;
        score_deep(&p, self.state.as_ref(), series, |f, ctx, values, b| {
            let g = ctx.g;
            let x = g.constant_from(values, vec![b, p.win_len * f.dims]);
            let rec = f.net.forward(ctx, x);
            let err3 = g.reshape(g.square(g.sub(rec, x)), &[b, p.win_len, f.dims]);
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
    state: Option<Fitted<TransNet>>,
}

struct TransNet {
    proj: Linear,
    stack: TransformerStack,
    head: Linear,
    posenc: Vec<f32>,
}

impl TransNet {
    /// Reconstructs `[B, t, dims]` windows.
    fn forward(&self, ctx: &Ctx, x: Var, t: usize) -> Var {
        let g = ctx.g;
        let h = self.proj.forward(ctx, x);
        let h = g.add(h, g.constant_from(&self.posenc, vec![t, self.proj.out_dim]));
        let h = self.stack.forward(ctx, h);
        self.head.forward(ctx, h)
    }
}

impl TransformerRecon {
    /// New Transformer reconstructor with the given display name.
    pub fn new(display_name: &str, proto: DeepProtocol, layers: usize) -> Self {
        Self { proto, layers, display_name: display_name.to_string(), state: None }
    }
}

impl Detector for TransformerRecon {
    fn name(&self) -> String {
        self.display_name.clone()
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
        let build = |ps: &mut _, rng: &mut _, tn: &TimeSeries| TransNet {
            proj: Linear::new(ps, rng, "tr.proj", tn.dims(), p.d_model),
            stack: TransformerStack::new(ps, rng, "tr.stack", &tc),
            head: Linear::new(ps, rng, "tr.head", p.d_model, tn.dims()),
            posenc: tfmae_nn::encoding_table(p.win_len, p.d_model),
        };
        self.state = Some(fit_deep(&p, train, build, |f, ctx, values, b, _| {
            let x = ctx.g.constant_from(values, vec![b, p.win_len, f.dims]);
            ctx.g.mse(f.net.forward(ctx, x, p.win_len), x)
        }));
    }

    fn score(&self, series: &TimeSeries) -> Vec<f32> {
        let p = self.proto;
        score_deep(&p, self.state.as_ref(), series, |f, ctx, values, b| {
            let g = ctx.g;
            let x = g.constant_from(values, vec![b, p.win_len, f.dims]);
            let rec = f.net.forward(ctx, x, p.win_len);
            g.value(g.mean_last(g.square(g.sub(rec, x)), false))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
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
