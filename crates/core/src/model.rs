//! The TFMAE network (Fig. 2/5): dual Transformer autoencoders over
//! temporal- and frequency-masked views, trained with the adversarial
//! contrastive objective (Eq. 14–15) and scored by per-observation
//! symmetric KL divergence (Eq. 16).

use rand::rngs::StdRng;
use rand::SeedableRng;
use tfmae_nn::{
    encoding_table, Activation, Ctx, Linear, PatchEmbed, TransformerConfig, TransformerStack,
};
use tfmae_tensor::{Graph, ParamId, ParamStore, Var};

use crate::config::{AdversarialMode, TfmaeConfig};
use crate::masking::frequency::{frequency_mask, FrequencyMaskData};
use crate::masking::temporal::{temporal_mask_patched, TemporalMask};

/// Preprocessed inputs for one batch of windows.
pub struct BatchInputs {
    /// Row-major `[B, win_len, dims]` values.
    pub values: Vec<f32>,
    /// Batch size.
    pub b: usize,
    /// Per-window temporal masks, at patch-token granularity: indices
    /// partition the `win_len / patch_len` tokens (= the raw time steps
    /// when `patch_len = 1`).
    pub masks_t: Vec<TemporalMask>,
    /// Per-window frequency-mask constants.
    pub masks_f: Vec<FrequencyMaskData>,
}

/// Final representations of the two branches (either may be disabled by an
/// ablation).
pub struct BranchOutputs {
    /// Temporal-view representation `P^(L)` at *row* resolution, shape
    /// `[B, T, D]`. With `patch_len > 1` each token's representation is
    /// replicated across its `P` rows so the contrastive objective and the
    /// Eq. 16 score keep their per-observation shapes; at `patch_len = 1`
    /// this is [`BranchOutputs::p_tokens`] itself.
    pub p: Option<Var>,
    /// Temporal-view representation at *token* resolution, shape
    /// `[B, T/P, D]` — the decoder's direct output, fed to the per-patch
    /// reconstruction head.
    pub p_tokens: Option<Var>,
    /// Frequency-view representation `F^(L)`, shape `[B, T, D]`.
    pub f: Option<Var>,
    /// The frequency-masked time-domain signal (Eq. 9–10 output before
    /// projection), shape `[B, T, N]`. Retains observation anomalies and
    /// removes pattern anomalies *by construction*.
    pub f_time: Option<Var>,
    /// The raw input leaf (used by reconstruction fallbacks).
    pub x: Var,
}

/// The TFMAE model: all parameters plus the forward wiring.
pub struct TfmaeModel {
    /// Hyper-parameters.
    pub cfg: TfmaeConfig,
    /// All trainable parameters.
    pub ps: ParamStore,
    dims: usize,
    patch: PatchEmbed,
    f_proj: Linear,
    mask_token: ParamId,
    m_re: ParamId,
    m_im: ParamId,
    t_encoder: TransformerStack,
    t_decoder: TransformerStack,
    f_decoder: TransformerStack,
    recon_f: Linear,
    posenc: Vec<f32>,
    posenc_t: Vec<f32>,
}

impl TfmaeModel {
    /// Builds and initializes the model for `dims`-dimensional inputs.
    pub fn new(cfg: TfmaeConfig, dims: usize) -> Self {
        cfg.validate().expect("invalid TfmaeConfig");
        assert!(dims >= 1, "dims must be >= 1");
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let tc = TransformerConfig {
            d_model: cfg.d_model,
            heads: cfg.heads,
            d_ff: cfg.d_ff,
            layers: cfg.layers,
            activation: Activation::Gelu,
        };
        // Parameter registration order is load-bearing: it fixes both the
        // RNG draw sequence (bitwise `patch_len = 1` parity with the
        // pre-patch model) and the checkpoint layout. The patch-embed
        // pieces are therefore registered in the legacy positions and
        // assembled via `PatchEmbed::from_parts` afterwards. At
        // `patch_len = 1` every shape below matches the unpatched model, so
        // the Xavier/uniform draws are identical.
        let p = cfg.patch_len;
        let t_proj = Linear::new(&mut ps, &mut rng, "temporal.proj", dims * p, cfg.d_model);
        let f_proj = Linear::new(&mut ps, &mut rng, "frequency.proj", dims, cfg.d_model);
        let mask_token =
            ps.add("temporal.mask_token", tfmae_nn::init::uniform(&mut rng, cfg.d_model, 0.02), vec![cfg.d_model]);
        let m_re = ps.add("frequency.m_re", tfmae_nn::init::uniform(&mut rng, dims, 0.02), vec![dims]);
        let m_im = ps.add("frequency.m_im", tfmae_nn::init::uniform(&mut rng, dims, 0.02), vec![dims]);
        let t_encoder = TransformerStack::new(&mut ps, &mut rng, "temporal.enc", &tc);
        let t_decoder = TransformerStack::new(&mut ps, &mut rng, "temporal.dec", &tc);
        let f_decoder = TransformerStack::new(&mut ps, &mut rng, "frequency.dec", &tc);
        let recon_t = Linear::new(&mut ps, &mut rng, "temporal.recon", cfg.d_model, dims * p);
        let recon_f = Linear::new(&mut ps, &mut rng, "frequency.recon", cfg.d_model, dims);
        let posenc = encoding_table(cfg.win_len, cfg.d_model);
        // Temporal positional table over *token* positions; the frequency
        // branch keeps full row resolution. Same table when P = 1.
        let posenc_t = if p == 1 {
            posenc.clone()
        } else {
            encoding_table(cfg.win_len / p, cfg.d_model)
        };
        let patch = PatchEmbed::from_parts(t_proj, mask_token, recon_t, p, dims, cfg.d_model);
        Self {
            cfg,
            ps,
            dims,
            patch,
            f_proj,
            mask_token,
            m_re,
            m_im,
            t_encoder,
            t_decoder,
            f_decoder,
            recon_f,
            posenc,
            posenc_t,
        }
    }

    /// `(tensors, scalars)` that [`TfmaeModel::new`] registers for `cfg`
    /// and `dims`, computed without building anything; `None` when a count
    /// overflows `usize`. The checkpoint loader compares it with the stored
    /// parameters before it builds a model from an untrusted config.
    pub fn param_count(cfg: &TfmaeConfig, dims: usize) -> Option<(usize, usize)> {
        let sum = |parts: &[Option<usize>]| parts.iter().try_fold(0usize, |acc, &n| acc.checked_add(n?));
        let linear = |i: usize, o: usize| i.checked_mul(o)?.checked_add(o);
        let (d, dp) = (cfg.d_model, dims.checked_mul(cfg.patch_len)?);
        // One transformer layer: four d×d attention projections, the two
        // MLP projections and two layer norms (gain and bias each).
        let layer = sum(&[
            linear(d, d)?.checked_mul(4),
            linear(d, cfg.d_ff),
            linear(cfg.d_ff, d),
            d.checked_mul(4),
        ])?;
        let scalars = sum(&[
            linear(dp, d),
            linear(dims, d),
            Some(d),
            dims.checked_mul(2),
            layer.checked_mul(cfg.layers)?.checked_mul(3),
            linear(d, dp),
            linear(d, dims),
        ])?;
        // 16 tensors per layer in each of the three stacks; 11 outside them.
        let tensors = cfg.layers.checked_mul(3 * 16)?.checked_add(11)?;
        Some((tensors, scalars))
    }

    /// Input feature count `N`.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Computes the two masks for a batch of windows (`values` is
    /// `[B, win_len, dims]` row-major). `rng` drives the Random mask
    /// variants only.
    pub fn prepare_batch(&self, values: Vec<f32>, b: usize, rng: &mut StdRng) -> BatchInputs {
        let t = self.cfg.win_len;
        let n = self.dims;
        assert_eq!(values.len(), b * t * n, "batch value size mismatch");
        let mut masks_t = Vec::with_capacity(b);
        let mut masks_f = Vec::with_capacity(b);
        for w in 0..b {
            let (mt, mf) = self.window_masks(&values[w * t * n..(w + 1) * t * n], rng);
            masks_t.push(mt);
            masks_f.push(mf);
        }
        BatchInputs { values, b, masks_t, masks_f }
    }

    /// Computes the two masks for a single window (Eq. 2 and Eq. 8). Masks
    /// depend only on the window contents (plus `rng` for the Random
    /// variants), so they can be cached across epochs. The temporal mask is
    /// at patch-token granularity (= raw time steps when `patch_len = 1`).
    pub fn window_masks(&self, win: &[f32], rng: &mut StdRng) -> (TemporalMask, FrequencyMaskData) {
        let t = self.cfg.win_len;
        let n = self.dims;
        assert_eq!(win.len(), t * n, "window size mismatch");
        let mt = temporal_mask_patched(
            win,
            t,
            n,
            self.cfg.patch_len,
            self.cfg.masked_tokens(),
            self.cfg.cv_window,
            self.cfg.temporal_mask,
            self.cfg.use_fft_cv,
            rng,
        );
        let mf = frequency_mask(win, t, n, self.cfg.masked_freq_bins(), self.cfg.freq_mask, rng);
        (mt, mf)
    }

    /// Runs both branches (subject to ablation switches) on a prepared batch.
    pub fn forward(&self, ctx: &Ctx, batch: &BatchInputs) -> BranchOutputs {
        let g = ctx.g;
        let t = self.cfg.win_len;
        let n = self.dims;
        let b = batch.b;
        let x = g.constant(batch.values.clone(), vec![b, t, n]);

        let p_tokens = self.cfg.use_temporal_branch.then(|| self.temporal_branch(ctx, x, batch));
        let p = p_tokens.map(|tok| self.expand_tokens_to_rows(ctx, tok, b));
        let ff = self.cfg.use_frequency_branch.then(|| self.frequency_branch(ctx, batch));
        let (f, f_time) = match ff {
            Some((f, ft)) => (Some(f), Some(ft)),
            None => (None, None),
        };
        BranchOutputs { p, p_tokens, f, f_time, x }
    }

    /// `[B, T/P, D] → [B, T, D]`: replicates each token representation
    /// across its `P` member rows (row `t` reads token `t / P`), so the
    /// contrastive objective and Eq. 16 stay per-observation. Identity at
    /// `patch_len = 1` — no tape node is added, preserving the legacy op
    /// sequence bitwise. Gradients scatter-add back, so each token
    /// accumulates its rows' contributions exactly.
    fn expand_tokens_to_rows(&self, ctx: &Ctx, tokens: Var, b: usize) -> Var {
        let p = self.cfg.patch_len;
        if p == 1 {
            return tokens;
        }
        let t = self.cfg.win_len;
        let mut idx = Vec::with_capacity(b * t);
        for _ in 0..b {
            idx.extend((0..t).map(|row| row / p));
        }
        ctx.g.gather_rows(tokens, &idx, t)
    }

    fn posenc_for(&self, g: &Graph, b: usize, positions_per_window: &[Vec<usize>], d: usize) -> Var {
        let k = positions_per_window[0].len();
        let mut data = Vec::with_capacity(b * k * d);
        for pos in positions_per_window {
            debug_assert_eq!(pos.len(), k);
            // Gather rows from the precomputed `self.posenc_t` token table
            // (identical values to `encoding_for_positions`, without
            // re-deriving the powf/sin/cos per element on every batch).
            for &t in pos {
                data.extend_from_slice(&self.posenc_t[t * d..(t + 1) * d]);
            }
        }
        g.constant(data, vec![b, k, d])
    }

    /// Full positional table over the temporal branch's `T/P` token
    /// positions (equals [`TfmaeModel::full_posenc`] when `patch_len = 1`).
    fn full_posenc_t(&self, g: &Graph, b: usize) -> Var {
        let tokens = self.cfg.num_patch_tokens();
        let d = self.cfg.d_model;
        let mut data = Vec::with_capacity(b * tokens * d);
        for _ in 0..b {
            data.extend_from_slice(&self.posenc_t);
        }
        g.constant(data, vec![b, tokens, d])
    }

    fn full_posenc(&self, g: &Graph, b: usize) -> Var {
        let t = self.cfg.win_len;
        let d = self.cfg.d_model;
        let mut data = Vec::with_capacity(b * t * d);
        for _ in 0..b {
            data.extend_from_slice(&self.posenc);
        }
        g.constant(data, vec![b, t, d])
    }

    /// The temporal masked autoencoder (right of Fig. 5): patchify, encode
    /// unmasked patch tokens, re-insert learnable mask tokens at their
    /// original token positions, decode the full token sequence. Returns
    /// `[B, T/P, D]`; at `patch_len = 1` the op sequence is exactly the
    /// pre-patch row-level branch (patchify is a no-op and `T/P = T`).
    fn temporal_branch(&self, ctx: &Ctx, x: Var, batch: &BatchInputs) -> Var {
        let g = ctx.g;
        let t = self.cfg.num_patch_tokens();
        let d = self.cfg.d_model;
        let b = batch.b;
        let i_t = batch.masks_t[0].masked.len();
        let x = self.patch.patchify(ctx, x);

        if i_t == 0 {
            // No masking: the branch degenerates to a plain encoder-decoder.
            let u = self.patch.proj.forward(ctx, x);
            let u = g.add(u, self.full_posenc_t(g, b));
            let enc = if self.cfg.temporal_encoder { self.t_encoder.forward(ctx, u) } else { u };
            return if self.cfg.temporal_decoder { self.t_decoder.forward(ctx, enc) } else { enc };
        }

        let k_un = t - i_t;
        let mut un_idx = Vec::with_capacity(b * k_un);
        let mut m_idx = Vec::with_capacity(b * i_t);
        let mut un_pos = Vec::with_capacity(b);
        let mut m_pos = Vec::with_capacity(b);
        for mask in &batch.masks_t {
            debug_assert_eq!(mask.masked.len(), i_t, "uneven mask sizes in batch");
            un_idx.extend_from_slice(&mask.unmasked);
            m_idx.extend_from_slice(&mask.masked);
            un_pos.push(mask.unmasked.clone());
            m_pos.push(mask.masked.clone());
        }

        // Unmasked path: gather → project → +PE → encoder (Eq. 3 top).
        let u_raw = g.gather_rows(x, &un_idx, k_un);
        let u = self.patch.proj.forward(ctx, u_raw);
        let u = g.add(u, self.posenc_for(g, b, &un_pos, d));
        let enc = if self.cfg.temporal_encoder { self.t_encoder.forward(ctx, u) } else { u };

        // Masked path: learnable token + PE at original positions (Eq. 3
        // bottom + §IV-B2 "Decoder").
        let token = g.param(ctx.ps, self.mask_token);
        let tokens = g.broadcast_to(token, &[b, i_t, d]);
        let tokens = g.add(tokens, self.posenc_for(g, b, &m_pos, d));

        // Interleave both back onto the token timeline and decode.
        let full = g.add(g.scatter_rows(enc, &un_idx, t), g.scatter_rows(tokens, &m_idx, t));
        if self.cfg.temporal_decoder {
            self.t_decoder.forward(ctx, full)
        } else {
            full
        }
    }

    /// The frequency masked autoencoder (left of Fig. 5): masked spectrum →
    /// learnable replacement → IDFT → projection → decoder-only stack.
    fn frequency_branch(&self, ctx: &Ctx, batch: &BatchInputs) -> (Var, Var) {
        let g = ctx.g;
        let t = self.cfg.win_len;
        let n = self.dims;
        let b = batch.b;

        let mut base = Vec::with_capacity(b * t * n);
        let mut ca = Vec::with_capacity(b * t * n);
        let mut cb = Vec::with_capacity(b * t * n);
        for m in &batch.masks_f {
            base.extend_from_slice(&m.base);
            ca.extend_from_slice(&m.a);
            cb.extend_from_slice(&m.b);
        }
        let base = g.constant(base, vec![b, t, n]);
        let ca = g.constant(ca, vec![b, t, n]);
        let cb = g.constant(cb, vec![b, t, n]);
        let m_re = g.param(ctx.ps, self.m_re);
        let m_im = g.param(ctx.ps, self.m_im);
        // f_time = base + A·Re(m) + B·Im(m)  (exactly Eq. 9 + Eq. 10's IDFT,
        // reparameterized linearly — see masking::frequency).
        let f_time = g.add(base, g.add(g.mul(ca, m_re), g.mul(cb, m_im)));

        let f = self.f_proj.forward(ctx, f_time);
        let f = g.add(f, self.full_posenc(g, b));
        let repr = if self.cfg.frequency_decoder { self.f_decoder.forward(ctx, f) } else { f };
        (repr, f_time)
    }

    /// Relative weight of Eq. 15's max-phase (repel) term. The paper trains
    /// a single epoch at lr 1e-4, which implicitly keeps the max phase from
    /// dominating; the longer schedules on the scaled simulators need an
    /// explicit weight (DESIGN.md §3).
    pub const ADV_WEIGHT: f32 = 0.05;

    /// The training objective for one batch (Eq. 14/15 or the
    /// reconstruction fallback when a branch is ablated). Returns a scalar:
    /// `recon_weight · grounding + contrastive`, where Eq. 15's max-phase
    /// term enters at [`Self::ADV_WEIGHT`].
    pub fn training_loss(&self, ctx: &Ctx, out: &BranchOutputs) -> Var {
        let g = ctx.g;
        match (out.p, out.f) {
            (Some(p), Some(f)) => {
                // Masked-reconstruction grounding: both autoencoders must
                // *recover* the input from their purified views (the
                // "recovering masked observations/patterns" of Fig. 5).
                // Without this term Eq. 15 is degenerate — nothing ties the
                // representations to the data (DESIGN.md §3). The temporal
                // head reconstructs raw patch content from token
                // representations (`[B,T/P,D] → [B,T,N]`), so the MSE is
                // against the same `[B,T,N]` target at every patch_len.
                let p_tok = out.p_tokens.expect("p_tokens accompanies p");
                let rec_t = g.mse(self.patch.reconstruct(ctx, p_tok), out.x);
                let rec_f = g.mse(self.recon_f.forward(ctx, f), out.x);
                let ground = g.scale(g.add(rec_t, rec_f), self.cfg.recon_weight);

                let ps_ = g.softmax_last(p);
                let fs = g.softmax_last(f);
                let contrastive = match self.cfg.adversarial {
                    AdversarialMode::Full => {
                        // min_F: align frequency view to frozen temporal view;
                        // max_P: push temporal view away from frozen frequency view.
                        let align = g.mean_all(g.sym_kl_last(g.detach(ps_), fs));
                        let repel = g.mean_all(g.sym_kl_last(ps_, g.detach(fs)));
                        g.sub(align, g.scale(repel, Self::ADV_WEIGHT))
                    }
                    AdversarialMode::NoAdversarial => {
                        g.mean_all(g.sym_kl_last(g.detach(ps_), fs))
                    }
                    AdversarialMode::Reversed => {
                        let align = g.mean_all(g.sym_kl_last(g.detach(fs), ps_));
                        let repel = g.mean_all(g.sym_kl_last(fs, g.detach(ps_)));
                        g.sub(align, g.scale(repel, Self::ADV_WEIGHT))
                    }
                };
                g.add(ground, contrastive)
            }
            // Single-view ablations fall back to masked reconstruction.
            (Some(_), None) => {
                let p_tok = out.p_tokens.expect("p_tokens accompanies p");
                let rec = self.patch.reconstruct(ctx, p_tok);
                g.mse(rec, out.x)
            }
            (None, Some(f)) => {
                let rec = self.recon_f.forward(ctx, f);
                g.mse(rec, out.x)
            }
            (None, None) => unreachable!("config validation requires one branch"),
        }
    }

    /// Per-observation anomaly-score *components* for one batch, both
    /// `[B * T]` row-major:
    /// * `.0` — the Eq. 16 symmetric KL between the softmax-normalized
    ///   latent views;
    /// * `.1` — the dual-reconstruction discrepancy in data space.
    ///
    /// For single-view ablations both components equal the plain
    /// reconstruction error of the remaining view. Combination into one
    /// score happens at series level (see
    /// [`TfmaeDetector`](crate::TfmaeDetector)) so normalization uses
    /// global statistics rather than per-batch ones.
    pub fn anomaly_score_components(&self, ctx: &Ctx, out: &BranchOutputs) -> (Vec<f32>, Vec<f32>) {
        let g = ctx.g;
        match (out.p, out.f) {
            (Some(p), Some(f)) => {
                let ps_ = g.softmax_last(p);
                let fs = g.softmax_last(f);
                let kl = g.value(g.sym_kl_last(ps_, fs));
                // Dual-view discrepancy in data space: the temporal
                // branch's *recovery* vs the frequency-masked signal
                // itself. The latter retains observation anomalies and
                // drops pattern anomalies by construction, so disagreement
                // marks exactly the paper's "normal-recovered vs
                // original-abnormal" pairs. The per-patch head folds token
                // representations back to `[B,T,N]` rows, so the score
                // stays per-observation at every patch_len (Eq. 17
                // calibration unchanged).
                let p_tok = out.p_tokens.expect("p_tokens accompanies p");
                let rt = self.patch.reconstruct(ctx, p_tok);
                let target = out.f_time.expect("frequency branch provides f_time");
                // Max over channels rather than mean: a single-channel
                // anomaly must not be diluted by N−1 well-aligned channels
                // (MSL/SMAP have N = 55/25 with few affected channels).
                let sq = g.value(g.square(g.sub(rt, target)));
                let n = self.dims;
                let dual = sq
                    .chunks(n)
                    .map(|row| row.iter().fold(0.0f32, |a, &b| a.max(b)))
                    .collect();
                (kl, dual)
            }
            (Some(_), None) => {
                let p_tok = out.p_tokens.expect("p_tokens accompanies p");
                let rec = self.patch.reconstruct(ctx, p_tok);
                let err = g.square(g.sub(rec, out.x));
                let e = g.value(g.mean_last(err, false));
                (e.clone(), e)
            }
            (None, Some(f)) => {
                let rec = self.recon_f.forward(ctx, f);
                let err = g.square(g.sub(rec, out.x));
                let e = g.value(g.mean_last(err, false));
                (e.clone(), e)
            }
            (None, None) => unreachable!(),
        }
    }

    /// Per-observation anomaly scores for one batch, `[B * T]` row-major,
    /// combined by [`combine_scores`] with *batch-local* normalization.
    /// Prefer the detector's series-level scoring, which normalizes
    /// globally.
    pub fn anomaly_scores(&self, ctx: &Ctx, out: &BranchOutputs) -> Vec<f32> {
        let (kl, dual) = self.anomaly_score_components(ctx, out);
        combine_scores(&kl, &dual)
    }
}

/// The anomaly score: the Eq. 16 latent KL plus the dual-view
/// reconstruction discrepancy, each normalized by its mean over the
/// provided span so neither scale dominates (DESIGN.md §3).
pub fn combine_scores(kl: &[f32], dual: &[f32]) -> Vec<f32> {
    combine_scores_with(kl, dual, component_means(kl, dual))
}

/// The two components' means over a span: [`combine_scores`]'s
/// normalizers, which serving freezes per calibrated stream.
pub(crate) fn component_means(kl: &[f32], dual: &[f32]) -> (f32, f32) {
    let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len().max(1) as f32;
    (mean(kl), mean(dual))
}

/// [`combine_scores`] at given normalizers `(ma, mb)`.
pub(crate) fn combine_scores_with(kl: &[f32], dual: &[f32], (ma, mb): (f32, f32)) -> Vec<f32> {
    kl.iter().zip(dual.iter()).map(|(x, y)| x / (ma + 1e-12) + y / (mb + 1e-12)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_batch(model: &TfmaeModel, b: usize, seed: u64) -> BatchInputs {
        let t = model.cfg.win_len;
        let n = model.dims();
        let values: Vec<f32> = (0..b * t * n)
            .map(|i| ((i as f32 * 0.37).sin() + (i as f32 * 0.011).cos()) * 0.5)
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        model.prepare_batch(values, b, &mut rng)
    }

    fn tiny_model() -> TfmaeModel {
        TfmaeModel::new(TfmaeConfig::tiny(), 3)
    }

    #[test]
    fn param_count_matches_the_built_model() {
        let tiny = TfmaeConfig { win_len: 40, ..TfmaeConfig::tiny() };
        for base in [tiny, TfmaeConfig::default(), TfmaeConfig::paper()] {
            for patch_len in [1, 5] {
                let cfg = TfmaeConfig { patch_len, ..base.clone() };
                let m = TfmaeModel::new(cfg.clone(), 3);
                assert_eq!(TfmaeModel::param_count(&cfg, 3), Some((m.ps.len(), m.ps.num_scalars())));
            }
        }
        let huge = TfmaeConfig { d_model: usize::MAX / 2, ..TfmaeConfig::tiny() };
        assert_eq!(TfmaeModel::param_count(&huge, 3), None, "overflow is None, not a wrap");
    }

    #[test]
    fn forward_shapes() {
        let m = tiny_model();
        let batch = toy_batch(&m, 2, 0);
        let g = Graph::new();
        let ctx = Ctx::eval(&g, &m.ps);
        let out = m.forward(&ctx, &batch);
        let p = out.p.unwrap();
        let f = out.f.unwrap();
        assert_eq!(g.shape(p), vec![2, 32, 16]);
        assert_eq!(g.shape(f), vec![2, 32, 16]);
    }

    #[test]
    fn loss_is_finite_and_backpropagates() {
        let mut m = tiny_model();
        let batch = toy_batch(&m, 2, 1);
        let g = Graph::new();
        let ctx = Ctx::train(&g, &m.ps, 0);
        let out = m.forward(&ctx, &batch);
        let loss = m.training_loss(&ctx, &out);
        assert!(g.scalar_value(loss).is_finite());
        g.backward_params(loss, &mut m.ps);
        assert!(m.ps.grad_norm() > 0.0, "some parameter must receive gradient");
        assert!(m.ps.grad_norm().is_finite());
    }

    #[test]
    fn adversarial_stop_gradients_route_correctly() {
        // Under Full mode, the align term updates only the frequency branch
        // and the repel term only the temporal branch. The frequency mask
        // params m_re/m_im belong to the frequency branch; the temporal
        // mask token belongs to the temporal branch. Both must receive
        // gradient under Full, and the temporal token must receive none
        // under NoAdversarial (where P is detached).
        let mut m = tiny_model();
        let batch = toy_batch(&m, 2, 2);
        let g = Graph::new();
        let ctx = Ctx::train(&g, &m.ps, 0);
        let out = m.forward(&ctx, &batch);
        let loss = m.training_loss(&ctx, &out);
        g.backward_params(loss, &mut m.ps);
        let token_grad: f32 = m.ps.get(m.mask_token).grad.iter().map(|v| v.abs()).sum();
        assert!(token_grad > 0.0, "Full mode must update the temporal branch");

        // Disable the reconstruction grounding so only the contrastive
        // gradient routing is observed.
        let mut m2 = TfmaeModel::new(
            TfmaeConfig {
                adversarial: AdversarialMode::NoAdversarial,
                recon_weight: 0.0,
                ..TfmaeConfig::tiny()
            },
            3,
        );
        let batch = toy_batch(&m2, 2, 2);
        let g = Graph::new();
        let ctx = Ctx::train(&g, &m2.ps, 0);
        let out = m2.forward(&ctx, &batch);
        let loss = m2.training_loss(&ctx, &out);
        g.backward_params(loss, &mut m2.ps);
        let token_grad: f32 = m2.ps.get(m2.mask_token).grad.iter().map(|v| v.abs()).sum();
        assert_eq!(token_grad, 0.0, "Eq. 14 halts the temporal gradient");
        let mre_grad: f32 = m2.ps.get(m2.m_re).grad.iter().map(|v| v.abs()).sum();
        assert!(mre_grad > 0.0, "frequency branch must still learn");
    }

    #[test]
    fn scores_have_one_value_per_observation() {
        let m = tiny_model();
        let batch = toy_batch(&m, 3, 3);
        let g = Graph::new();
        let ctx = Ctx::eval(&g, &m.ps);
        let out = m.forward(&ctx, &batch);
        let scores = m.anomaly_scores(&ctx, &out);
        assert_eq!(scores.len(), 3 * 32);
        assert!(scores.iter().all(|s| s.is_finite() && *s >= -1e-6));
    }

    #[test]
    fn single_branch_ablations_run() {
        for (tem, fre) in [(true, false), (false, true)] {
            let cfg = TfmaeConfig {
                use_temporal_branch: tem,
                use_frequency_branch: fre,
                ..TfmaeConfig::tiny()
            };
            let mut m = TfmaeModel::new(cfg, 2);
            let batch = toy_batch(&m, 2, 4);
            let g = Graph::new();
            let ctx = Ctx::train(&g, &m.ps, 0);
            let out = m.forward(&ctx, &batch);
            let loss = m.training_loss(&ctx, &out);
            assert!(g.scalar_value(loss).is_finite());
            let scores = m.anomaly_scores(&ctx, &out);
            assert_eq!(scores.len(), 2 * 32);
            g.backward_params(loss, &mut m.ps);
        }
    }

    #[test]
    fn component_ablations_run() {
        for (te, td, fd) in [(false, true, true), (true, false, true), (true, true, false)] {
            let cfg = TfmaeConfig {
                temporal_encoder: te,
                temporal_decoder: td,
                frequency_decoder: fd,
                ..TfmaeConfig::tiny()
            };
            let m = TfmaeModel::new(cfg, 2);
            let batch = toy_batch(&m, 1, 5);
            let g = Graph::new();
            let ctx = Ctx::eval(&g, &m.ps);
            let out = m.forward(&ctx, &batch);
            assert_eq!(g.shape(out.p.unwrap()), vec![1, 32, 16]);
        }
    }

    #[test]
    fn patched_forward_keeps_row_level_scores() {
        // P = 4 on the tiny config: 8 tokens, but p/f/scores stay [B, T, ·].
        let cfg = TfmaeConfig { patch_len: 4, ..TfmaeConfig::tiny() };
        let mut m = TfmaeModel::new(cfg, 3);
        let batch = toy_batch(&m, 2, 9);
        assert!(batch.masks_t[0].masked.iter().all(|&i| i < 8), "token-level mask");
        assert_eq!(batch.masks_t[0].masked.len(), 2); // ⌊8 · 0.25⌋
        let g = Graph::new();
        let ctx = Ctx::train(&g, &m.ps, 0);
        let out = m.forward(&ctx, &batch);
        assert_eq!(g.shape(out.p_tokens.unwrap()), vec![2, 8, 16]);
        assert_eq!(g.shape(out.p.unwrap()), vec![2, 32, 16]);
        assert_eq!(g.shape(out.f.unwrap()), vec![2, 32, 16]);
        let scores = m.anomaly_scores(&ctx, &out);
        assert_eq!(scores.len(), 2 * 32);
        assert!(scores.iter().all(|s| s.is_finite()));
        let loss = m.training_loss(&ctx, &out);
        assert!(g.scalar_value(loss).is_finite());
        g.backward_params(loss, &mut m.ps);
        assert!(m.ps.grad_norm() > 0.0 && m.ps.grad_norm().is_finite());
        // The patch projection must have patched shapes registered.
        assert_eq!(m.ps.get(m.patch.proj.w).shape, vec![3 * 4, 16]);
        assert_eq!(m.ps.get(m.patch.recon.w).shape, vec![16, 3 * 4]);
    }

    #[test]
    fn patched_single_branch_ablations_run() {
        for (tem, fre) in [(true, false), (false, true)] {
            let cfg = TfmaeConfig {
                patch_len: 8,
                use_temporal_branch: tem,
                use_frequency_branch: fre,
                ..TfmaeConfig::tiny()
            };
            let mut m = TfmaeModel::new(cfg, 2);
            let batch = toy_batch(&m, 2, 10);
            let g = Graph::new();
            let ctx = Ctx::train(&g, &m.ps, 0);
            let out = m.forward(&ctx, &batch);
            let loss = m.training_loss(&ctx, &out);
            assert!(g.scalar_value(loss).is_finite());
            assert_eq!(m.anomaly_scores(&ctx, &out).len(), 2 * 32);
            g.backward_params(loss, &mut m.ps);
        }
    }

    #[test]
    fn zero_temporal_ratio_runs_unmasked_path() {
        let cfg = TfmaeConfig { r_temporal: 0.0, ..TfmaeConfig::tiny() };
        let m = TfmaeModel::new(cfg, 2);
        let batch = toy_batch(&m, 2, 6);
        assert!(batch.masks_t[0].masked.is_empty());
        let g = Graph::new();
        let ctx = Ctx::eval(&g, &m.ps);
        let out = m.forward(&ctx, &batch);
        assert_eq!(g.shape(out.p.unwrap()), vec![2, 32, 16]);
    }
}
