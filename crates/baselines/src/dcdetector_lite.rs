//! DCdetector-lite (Yang et al., KDD 2023) — dual-attention contrastive
//! baseline.
//!
//! Mechanism kept from the original: two representations of the same window
//! built at *different patch granularities* are pulled together with a
//! positive-pair KL (dual-sided stop-gradient); the anomaly score is the
//! per-observation discrepancy between the two views — no reconstruction
//! anywhere, exactly the property Table III credits DCdetector for.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tfmae_data::{Detector, TimeSeries, ZScore};
use tfmae_nn::{Activation, Adam, Ctx, Linear, TransformerConfig, TransformerStack};
use tfmae_tensor::{Graph, ParamStore, Var};

use crate::common::{score_windows, training_batches_strided, DeepProtocol};

/// DCdetector-lite detector.
pub struct DcDetectorLite {
    /// Protocol.
    pub proto: DeepProtocol,
    /// Patch size of the first (patch-wise) view.
    pub patch: usize,
    state: Option<State>,
}

struct State {
    ps: ParamStore,
    proj: Linear,
    view_point: TransformerStack,
    view_patch: TransformerStack,
    posenc: Vec<f32>,
    norm: ZScore,
    dims: usize,
    patch: usize,
}

impl DcDetectorLite {
    /// Creates an untrained DCdetector-lite with the given patch size.
    pub fn new(proto: DeepProtocol, patch: usize) -> Self {
        assert!(patch >= 1);
        Self { proto, patch, state: None }
    }

    /// Average-pools `[B, T, D]` into `[B, T/patch, D]` patch tokens, runs
    /// the patch view, and broadcasts patch outputs back to `[B, T, D]`.
    fn patch_view(state: &State, ctx: &Ctx, h: Var, b: usize, t: usize) -> Var {
        let g = ctx.g;
        let d = state.proj.out_dim;
        let p = state.patch.min(t);
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
        let out = state.view_patch.forward(ctx, pooled); // [B, np, D]
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
            layers: 1,
            activation: Activation::Gelu,
        };
        let mut state = State {
            proj: Linear::new(&mut ps, &mut rng, "dc.proj", dims, p.d_model),
            view_point: TransformerStack::new(&mut ps, &mut rng, "dc.point", &tc),
            view_patch: TransformerStack::new(&mut ps, &mut rng, "dc.patch", &tc),
            posenc: tfmae_nn::encoding_table(p.win_len, p.d_model),
            ps,
            norm,
            dims,
            patch: self.patch,
        };
        let mut opt = Adam::new(&state.ps, p.lr);
        let g = Graph::from_env();
        for epoch in 0..p.epochs {
            for (starts, values) in training_batches_strided(&tn, p.win_len, p.train_stride, p.batch, p.seed ^ epoch as u64) {
                let b = starts.len();
                g.reset();
                let ctx = Ctx::train(&g, &state.ps, p.seed ^ epoch as u64);
                let (v1, v2) = views(&state, &ctx, &values, b, p.win_len);
                // Dual-sided stop-gradient positive-pair loss (original's
                // Eq.: L = KL(sg(v1), v2) + KL(sg(v2), v1)).
                let a = g.mean_all(g.sym_kl_last(g.detach(v1), v2));
                let c = g.mean_all(g.sym_kl_last(g.detach(v2), v1));
                let loss = g.add(a, c);
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
            let (v1, v2) = views(state, &ctx, values, b, p.win_len);
            g.value(g.sym_kl_last(v1, v2))
        })
    }
}

/// Builds both softmax-normalized views for a batch.
fn views(state: &State, ctx: &Ctx, values: &[f32], b: usize, t: usize) -> (Var, Var) {
    let g = ctx.g;
    let d = state.proj.out_dim;
    let x = g.constant_from(values, vec![b, t, state.dims]);
    let h = state.proj.forward(ctx, x);
    let mut pe = Vec::with_capacity(b * t * d);
    for _ in 0..b {
        pe.extend_from_slice(&state.posenc);
    }
    let h = g.add(h, g.constant(pe, vec![b, t, d]));
    let point = state.view_point.forward(ctx, h);
    let patch = DcDetectorLite::patch_view(state, ctx, h, b, t);
    (g.softmax_last(point), g.softmax_last(patch))
}

#[cfg(test)]
mod tests {
    use super::*;
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
