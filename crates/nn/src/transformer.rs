//! Post-LN Transformer blocks and stacks (Eq. 12–13, Fig. 5).
//!
//! The paper's encoders and decoders are both *bidirectional self-attention*
//! stacks — the "decoder-only" frequency branch and the temporal
//! encoder/decoder differ in what they are fed, not in the layer math — so a
//! single [`TransformerStack`] serves all four roles.

use rand::rngs::StdRng;
use tfmae_tensor::{ParamStore, Var};

use crate::attention::MultiHeadSelfAttention;
use crate::ctx::Ctx;
use crate::feedforward::{Activation, FeedForward};
use crate::norm::LayerNorm;

/// One post-LN encoder layer: `x̄ = LN(x + Attn(x)); y = LN(x̄ + MLP(x̄))`.
#[derive(Clone, Debug)]
pub struct TransformerLayer {
    /// Self-attention sublayer.
    pub attn: MultiHeadSelfAttention,
    /// Position-wise MLP sublayer.
    pub ffn: FeedForward,
    ln1: LayerNorm,
    ln2: LayerNorm,
}

impl TransformerLayer {
    /// Registers one layer's parameters.
    pub fn new(ps: &mut ParamStore, rng: &mut StdRng, name: &str, cfg: &TransformerConfig) -> Self {
        Self {
            attn: MultiHeadSelfAttention::new(ps, rng, &format!("{name}.attn"), cfg.d_model, cfg.heads),
            ffn: FeedForward::new(
                ps,
                rng,
                &format!("{name}.ffn"),
                cfg.d_model,
                cfg.d_ff,
                cfg.activation,
            ),
            ln1: LayerNorm::new(ps, rng, &format!("{name}.ln1"), cfg.d_model),
            ln2: LayerNorm::new(ps, rng, &format!("{name}.ln2"), cfg.d_model),
        }
    }

    /// Applies the layer to `[B, T, D]`.
    pub fn forward(&self, ctx: &Ctx, x: Var) -> Var {
        let g = ctx.g;
        let a = self.attn.forward(ctx, x);
        let x1 = self.ln1.forward(ctx, g.add(x, a));
        let f = self.ffn.forward(ctx, x1);
        self.ln2.forward(ctx, g.add(x1, f))
    }
}

/// Hyper-parameters of a stack.
#[derive(Clone, Copy, Debug)]
pub struct TransformerConfig {
    /// Model width `D`.
    pub d_model: usize,
    /// Attention heads.
    pub heads: usize,
    /// MLP hidden width.
    pub d_ff: usize,
    /// Layer count `L`.
    pub layers: usize,
    /// MLP nonlinearity.
    pub activation: Activation,
}

impl Default for TransformerConfig {
    fn default() -> Self {
        Self { d_model: 128, heads: 4, d_ff: 256, layers: 3, activation: Activation::Gelu }
    }
}

/// An `L`-layer stack of [`TransformerLayer`]s.
#[derive(Clone, Debug)]
pub struct TransformerStack {
    /// The layers, applied in order.
    pub layers: Vec<TransformerLayer>,
}

impl TransformerStack {
    /// Registers `cfg.layers` layers under `name.<i>`.
    pub fn new(ps: &mut ParamStore, rng: &mut StdRng, name: &str, cfg: &TransformerConfig) -> Self {
        let layers =
            (0..cfg.layers).map(|i| TransformerLayer::new(ps, rng, &format!("{name}.{i}"), cfg)).collect();
        Self { layers }
    }

    /// Applies all layers to `[B, T, D]`.
    pub fn forward(&self, ctx: &Ctx, mut x: Var) -> Var {
        for layer in &self.layers {
            x = layer.forward(ctx, x);
        }
        x
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tfmae_tensor::check::assert_grads_close;
    use tfmae_tensor::Graph;

    fn tiny_cfg() -> TransformerConfig {
        TransformerConfig { d_model: 4, heads: 2, d_ff: 8, layers: 2, activation: Activation::Gelu }
    }

    #[test]
    fn stack_preserves_shape_and_depth() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let stack = TransformerStack::new(&mut ps, &mut rng, "enc", &tiny_cfg());
        assert_eq!(stack.depth(), 2);
        let g = Graph::new();
        let ctx = Ctx::eval(&g, &ps);
        let x = g.constant(vec![0.1; 2 * 5 * 4], vec![2, 5, 4]);
        assert_eq!(g.shape(stack.forward(&ctx, x)), vec![2, 5, 4]);
    }

    #[test]
    fn outputs_are_finite_after_many_layers() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = TransformerConfig { layers: 5, ..tiny_cfg() };
        let stack = TransformerStack::new(&mut ps, &mut rng, "enc", &cfg);
        let g = Graph::new();
        let ctx = Ctx::eval(&g, &ps);
        let data: Vec<f32> = (0..2 * 8 * 4).map(|i| ((i * 37) % 11) as f32 - 5.0).collect();
        let x = g.constant(data, vec![2, 8, 4]);
        let y = g.value(stack.forward(&ctx, x));
        assert!(y.iter().all(|v| v.is_finite()));
        // Post-LN keeps activations standardized (bounded scale).
        assert!(y.iter().all(|v| v.abs() < 20.0));
    }

    #[test]
    fn single_layer_gradients_check_out() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = TransformerConfig { layers: 1, d_model: 2, heads: 1, d_ff: 3, ..tiny_cfg() };
        let layer = TransformerLayer::new(&mut ps, &mut rng, "l", &cfg);
        assert_grads_close(&mut ps, 1e-2, 5e-2, |g, ps| {
            let ctx = Ctx::eval(g, ps);
            let x = g.constant(vec![0.5, -0.3, 0.8, 0.1, -0.6, 0.9, 0.2, -0.1], vec![1, 4, 2]);
            let y = layer.forward(&ctx, x);
            let t = g.constant(vec![0.25; 8], vec![1, 4, 2]);
            g.mse(y, t)
        });
    }

    #[test]
    fn deterministic_given_seed() {
        let build = || {
            let mut ps = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(9);
            let stack = TransformerStack::new(&mut ps, &mut rng, "e", &tiny_cfg());
            let g = Graph::new();
            let ctx = Ctx::eval(&g, &ps);
            let x = g.constant(vec![0.3; 4 * 4], vec![1, 4, 4]);
            g.value(stack.forward(&ctx, x))
        };
        assert_eq!(build(), build());
    }
}
