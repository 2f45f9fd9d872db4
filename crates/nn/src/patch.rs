//! Ti-MAE-style patch tokenization for the temporal branch.
//!
//! Folds `patch_len` consecutive time steps into one token: a strided
//! linear patch embedding (`[B, T, N] → [B, T/P, P·N] → [B, T/P, D]`), a
//! learnable mask token inserted at masked token positions, and a per-patch
//! output projection back to raw patch content
//! (`[B, T/P, D] → [B, T/P, P·N] → [B, T, N]`). With the tape's row-major
//! layout the patchify/unpatch steps are pure reshapes, so the only real
//! kernels are the two linear projections — attention then runs over `T/P`
//! tokens instead of `T` rows, cutting its FLOPs ~`P²`x. `patch_len = 1`
//! degenerates to the unpatched model exactly (both projections keep their
//! legacy `[N → D]` / `[D → N]` shapes and patchify/unpatch are no-ops).

use rand::rngs::StdRng;
use tfmae_tensor::{ParamId, ParamStore, Var};

use crate::ctx::Ctx;
use crate::init;
use crate::linear::Linear;

/// Patch embedding, learnable mask token and per-patch reconstruction head.
#[derive(Clone, Debug)]
pub struct PatchEmbed {
    /// Patch projection `[P·N, D]` (the strided embedding: each output
    /// token sees exactly one length-`P` slice of the input).
    pub proj: Linear,
    /// Learnable mask token, shape `[D]`, substituted at masked token
    /// positions before the decoder.
    pub mask_token: ParamId,
    /// Per-patch reconstruction head `[D, P·N]`.
    pub recon: Linear,
    /// Patch length `P`.
    pub patch_len: usize,
    /// Raw channel count `N`.
    pub dims: usize,
    /// Token width `D`.
    pub d_model: usize,
}

impl PatchEmbed {
    /// Registers a self-contained patch-embed block (projection, mask
    /// token, reconstruction head — in that order) under `prefix`.
    ///
    /// `TfmaeModel` does **not** use this constructor: its three pieces are
    /// interleaved with other parameters in the legacy registration order
    /// (`temporal.proj`, … `temporal.mask_token`, … `temporal.recon`), which
    /// fixes both the RNG draw sequence and the checkpoint parameter layout.
    /// It assembles the block with [`PatchEmbed::from_parts`] instead. This
    /// constructor exists for standalone use and unit tests.
    pub fn new(
        ps: &mut ParamStore,
        rng: &mut StdRng,
        prefix: &str,
        dims: usize,
        patch_len: usize,
        d_model: usize,
    ) -> Self {
        assert!(patch_len >= 1, "patch_len must be >= 1");
        let proj = Linear::new(ps, rng, &format!("{prefix}.proj"), dims * patch_len, d_model);
        let mask_token = ps.add(
            format!("{prefix}.mask_token"),
            init::uniform(rng, d_model, 0.02),
            vec![d_model],
        );
        let recon = Linear::new(ps, rng, &format!("{prefix}.recon"), d_model, dims * patch_len);
        Self::from_parts(proj, mask_token, recon, patch_len, dims, d_model)
    }

    /// Assembles a block from already-registered pieces (see
    /// [`PatchEmbed::new`] for why the model constructs them separately).
    pub fn from_parts(
        proj: Linear,
        mask_token: ParamId,
        recon: Linear,
        patch_len: usize,
        dims: usize,
        d_model: usize,
    ) -> Self {
        assert_eq!(proj.in_dim, dims * patch_len, "proj input must be P·N");
        assert_eq!(proj.out_dim, d_model);
        assert_eq!(recon.in_dim, d_model);
        assert_eq!(recon.out_dim, dims * patch_len, "recon output must be P·N");
        Self { proj, mask_token, recon, patch_len, dims, d_model }
    }

    /// `[B, T, N] → [B, T/P, P·N]`: groups `P` consecutive rows into one
    /// token. Row-major layout makes this a pure reshape; a no-op at `P = 1`
    /// (no tape node is added, preserving the legacy op sequence bitwise).
    pub fn patchify(&self, ctx: &Ctx, x: Var) -> Var {
        if self.patch_len == 1 {
            return x;
        }
        let g = ctx.g;
        let shape = g.shape(x);
        assert_eq!(shape.len(), 3, "patchify expects [B,T,N]");
        let (b, t, n) = (shape[0], shape[1], shape[2]);
        assert_eq!(n, self.dims);
        g.reshape(x, &[b, t / self.patch_len, self.patch_len * n])
    }

    /// `[B, T/P, P·N] → [B, T, N]`: splits each reconstructed patch back
    /// into its `P` raw rows. Inverse of [`PatchEmbed::patchify`]; a no-op
    /// at `P = 1`.
    pub fn unpatch(&self, ctx: &Ctx, x: Var) -> Var {
        if self.patch_len == 1 {
            return x;
        }
        let g = ctx.g;
        let shape = g.shape(x);
        assert_eq!(shape.len(), 3, "unpatch expects [B,T/P,P·N]");
        let (b, tok, pn) = (shape[0], shape[1], shape[2]);
        assert_eq!(pn, self.patch_len * self.dims);
        g.reshape(x, &[b, tok * self.patch_len, self.dims])
    }

    /// Full embedding: patchify then project, `[B, T, N] → [B, T/P, D]`.
    pub fn embed(&self, ctx: &Ctx, x: Var) -> Var {
        self.proj.forward(ctx, self.patchify(ctx, x))
    }

    /// Full reconstruction: per-patch head then unpatch,
    /// `[B, T/P, D] → [B, T, N]`.
    pub fn reconstruct(&self, ctx: &Ctx, tokens: Var) -> Var {
        self.unpatch(ctx, self.recon.forward(ctx, tokens))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tfmae_tensor::check::assert_grads_close;
    use tfmae_tensor::Graph;

    fn input(b: usize, t: usize, n: usize) -> Vec<f32> {
        (0..b * t * n).map(|i| (i as f32 * 0.31).sin()).collect()
    }

    #[test]
    fn shapes_round_trip() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let pe = PatchEmbed::new(&mut ps, &mut rng, "pe", 3, 4, 8);
        let g = Graph::new();
        let ctx = Ctx::eval(&g, &ps);
        let x = g.constant(input(2, 12, 3), vec![2, 12, 3]);
        let tokens = pe.embed(&ctx, x);
        assert_eq!(g.shape(tokens), vec![2, 3, 8]); // 12 rows / P=4 = 3 tokens
        let rec = pe.reconstruct(&ctx, tokens);
        assert_eq!(g.shape(rec), vec![2, 12, 3]);
    }

    #[test]
    fn patchify_groups_consecutive_rows() {
        // Patch k of batch b must contain rows k·P .. k·P+P in order —
        // i.e. the reshape really is the strided patchify, not a shuffle.
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(6);
        let pe = PatchEmbed::new(&mut ps, &mut rng, "pe", 2, 3, 4);
        let g = Graph::new();
        let ctx = Ctx::eval(&g, &ps);
        let data: Vec<f32> = (0..12).map(|i| i as f32).collect(); // [1, 6, 2]
        let x = g.constant(data, vec![1, 6, 2]);
        let patched = pe.patchify(&ctx, x);
        assert_eq!(g.shape(patched), vec![1, 2, 6]);
        assert_eq!(g.value(patched), (0..12).map(|i| i as f32).collect::<Vec<_>>());
        let back = pe.unpatch(&ctx, patched);
        assert_eq!(g.shape(back), vec![1, 6, 2]);
    }

    #[test]
    fn patch_len_one_is_identity() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(7);
        let pe = PatchEmbed::new(&mut ps, &mut rng, "pe", 3, 1, 8);
        let g = Graph::new();
        let ctx = Ctx::eval(&g, &ps);
        let x = g.constant(input(1, 5, 3), vec![1, 5, 3]);
        // No tape node is added: the returned Var is the input itself.
        let before = g.len();
        let p = pe.patchify(&ctx, x);
        let u = pe.unpatch(&ctx, x);
        assert_eq!(g.len(), before, "P = 1 must not grow the tape");
        assert_eq!(g.shape(p), vec![1, 5, 3]);
        assert_eq!(g.shape(u), vec![1, 5, 3]);
    }

    #[test]
    fn gradients_check_out_through_embed_and_reconstruct() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(8);
        let pe = PatchEmbed::new(&mut ps, &mut rng, "pe", 2, 4, 6);
        assert_grads_close(&mut ps, 1e-2, 2e-2, |g, ps| {
            let ctx = Ctx::eval(g, ps);
            let x = g.constant(input(2, 8, 2), vec![2, 8, 2]);
            let tokens = pe.embed(&ctx, x);
            // Route the mask token through the loss too: add it to every
            // token before reconstruction (broadcast over [B, T/P, D]).
            let tok = g.param(ps, pe.mask_token);
            let shape = g.shape(tokens);
            let full = g.add(tokens, g.broadcast_to(tok, &shape));
            let rec = pe.reconstruct(&ctx, full);
            g.mean_all(g.square(rec))
        });
    }
}
