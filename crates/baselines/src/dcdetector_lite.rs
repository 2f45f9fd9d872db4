//! DCdetector-lite (Yang et al., KDD 2023) — dual-attention contrastive
//! baseline.
//!
//! Mechanism kept from the original: two representations of the same window
//! built at *different patch granularities* are pulled together with a
//! positive-pair KL (dual-sided stop-gradient); the anomaly score is the
//! per-observation discrepancy between the two views — no reconstruction
//! anywhere, exactly the property Table III credits DCdetector for.

use tfmae_data::{Detector, TimeSeries};
use tfmae_nn::{Activation, Ctx, Linear, TransformerConfig, TransformerStack};
use tfmae_tensor::Var;

use crate::common::{fit_deep, score_deep, DeepProtocol, Fitted};

/// DCdetector-lite detector.
pub struct DcDetectorLite {
    /// Protocol.
    pub proto: DeepProtocol,
    /// Patch size of the first (patch-wise) view.
    pub patch: usize,
    state: Option<Fitted<Net>>,
}

struct Net {
    proj: Linear,
    view_point: TransformerStack,
    view_patch: TransformerStack,
    posenc: Vec<f32>,
    patch: usize,
}

impl Net {
    /// Builds both softmax-normalized views for a batch of `b` windows.
    fn views(&self, ctx: &Ctx, values: &[f32], b: usize, t: usize, dims: usize) -> (Var, Var) {
        let g = ctx.g;
        let x = g.constant_from(values, vec![b, t, dims]);
        let h = self.proj.forward(ctx, x);
        let h = g.add(h, g.constant_from(&self.posenc, vec![t, self.proj.out_dim]));
        let point = self.view_point.forward(ctx, h);
        let patch = self.patch_view(ctx, h, b, t);
        (g.softmax_last(point), g.softmax_last(patch))
    }

    /// Average-pools `[B, T, D]` into `[B, T/patch, D]` patch tokens, runs
    /// the patch view, and broadcasts patch outputs back to `[B, T, D]`.
    fn patch_view(&self, ctx: &Ctx, h: Var, b: usize, t: usize) -> Var {
        let g = ctx.g;
        let d = self.proj.out_dim;
        let p = self.patch.min(t);
        let np = t / p; // truncate the ragged tail patch for pooling
        // Pool: reshape [B, np, p, D] → mean over p.
        let usable = g.gather_rows(h, &pool_indices(b, np * p), np * p);
        let folded = g.reshape(usable, &[b * np, p, d]);
        let pooled = {
            // mean over the patch axis: transpose to put p last, then mean.
            let tr = g.permute(folded, &[0, 2, 1]); // [B*np, D, p]
            let m = g.mean_last(tr, false); // [B*np, D]
            g.reshape(m, &[b, np, d])
        };
        let out = self.view_patch.forward(ctx, pooled); // [B, np, D]
        // Broadcast each patch token back over its span (tail reuses the
        // last patch token).
        let mut idx = Vec::with_capacity(b * t);
        for _ in 0..b {
            for ti in 0..t {
                idx.push((ti / p).min(np - 1));
            }
        }
        g.gather_rows(out, &idx, t)
    }
}

impl DcDetectorLite {
    /// Creates an untrained DCdetector-lite with the given patch size.
    pub fn new(proto: DeepProtocol, patch: usize) -> Self {
        assert!(patch >= 1);
        Self { proto, patch, state: None }
    }
}

/// Identity gather indices for the pooled prefix, per batch element.
fn pool_indices(b: usize, k: usize) -> Vec<usize> {
    let mut idx = Vec::with_capacity(b * k);
    for _ in 0..b {
        idx.extend(0..k);
    }
    idx
}

impl Detector for DcDetectorLite {
    fn name(&self) -> String {
        "DCdetector".to_string()
    }

    fn fit(&mut self, train: &TimeSeries, _val: &TimeSeries) {
        let (p, patch) = (self.proto, self.patch);
        let tc = TransformerConfig {
            d_model: p.d_model,
            heads: 4.min(p.d_model),
            d_ff: p.d_model * 2,
            layers: 1,
            activation: Activation::Gelu,
        };
        let build = |ps: &mut _, rng: &mut _, tn: &TimeSeries| Net {
            proj: Linear::new(ps, rng, "dc.proj", tn.dims(), p.d_model),
            view_point: TransformerStack::new(ps, rng, "dc.point", &tc),
            view_patch: TransformerStack::new(ps, rng, "dc.patch", &tc),
            posenc: tfmae_nn::encoding_table(p.win_len, p.d_model),
            patch,
        };
        self.state = Some(fit_deep(&p, train, build, |f, ctx, values, b, _| {
            let g = ctx.g;
            let (v1, v2) = f.net.views(ctx, values, b, p.win_len, f.dims);
            // Dual-sided stop-gradient positive-pair loss (original's
            // Eq.: L = KL(sg(v1), v2) + KL(sg(v2), v1)).
            let a = g.mean_all(g.sym_kl_last(g.detach(v1), v2));
            let c = g.mean_all(g.sym_kl_last(g.detach(v2), v1));
            g.add(a, c)
        }));
    }

    fn score(&self, series: &TimeSeries) -> Vec<f32> {
        let p = self.proto;
        score_deep(&p, self.state.as_ref(), series, |f, ctx, values, b| {
            let (v1, v2) = f.net.views(ctx, values, b, p.win_len, f.dims);
            ctx.g.value(ctx.g.sym_kl_last(v1, v2))
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
    fn training_reduces_view_discrepancy() {
        let train = series(512, 1);
        let test = series(96, 2);
        let mut short = DcDetectorLite::new(DeepProtocol { epochs: 1, ..DeepProtocol::tiny() }, 4);
        short.fit(&train, &train);
        let before: f32 = short.score(&test).iter().sum();
        let mut long = DcDetectorLite::new(DeepProtocol { epochs: 10, ..DeepProtocol::tiny() }, 4);
        long.fit(&train, &train);
        let after: f32 = long.score(&test).iter().sum();
        assert!(after < before, "contrastive training must align the views: {after} vs {before}");
    }

    #[test]
    fn scores_are_nonnegative_and_sized() {
        let train = series(256, 3);
        let mut det = DcDetectorLite::new(DeepProtocol::tiny(), 4);
        det.fit(&train, &train);
        let scores = det.score(&series(80, 4));
        assert_eq!(scores.len(), 80);
        assert!(scores.iter().all(|&s| s >= -1e-6 && s.is_finite()));
    }

    #[test]
    fn pool_indices_tile_per_batch() {
        assert_eq!(pool_indices(2, 3), vec![0, 1, 2, 0, 1, 2]);
    }
}
