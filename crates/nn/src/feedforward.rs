//! Position-wise feed-forward network (the `MLP(·)` of Eq. 13).

use rand::rngs::StdRng;
use tfmae_tensor::{ParamStore, Var};

use crate::ctx::Ctx;
use crate::linear::Linear;

/// Nonlinearity used between the two projections.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Gaussian error linear unit (tanh approximation).
    Gelu,
}

/// Two-layer position-wise MLP.
#[derive(Clone, Debug)]
pub struct FeedForward {
    l1: Linear,
    l2: Linear,
    act: Activation,
}

impl FeedForward {
    /// Registers a `d_model → d_ff → d_model` MLP.
    pub fn new(
        ps: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        d_model: usize,
        d_ff: usize,
        act: Activation,
    ) -> Self {
        Self {
            l1: Linear::new(ps, rng, &format!("{name}.l1"), d_model, d_ff),
            l2: Linear::new(ps, rng, &format!("{name}.l2"), d_ff, d_model),
            act,
        }
    }

    /// `[B, T, D] → [B, T, D]`.
    pub fn forward(&self, ctx: &Ctx, x: Var) -> Var {
        // Bias add and activation fuse into one tape node (Linear::forward_act).
        let kind = match self.act {
            Activation::Relu => tfmae_tensor::ActKind::Relu,
            Activation::Gelu => tfmae_tensor::ActKind::Gelu,
        };
        let h = self.l1.forward_act(ctx, x, kind);
        self.l2.forward(ctx, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tfmae_tensor::check::assert_grads_close;
    use tfmae_tensor::Graph;

    #[test]
    fn shape_roundtrip() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let ffn = FeedForward::new(&mut ps, &mut rng, "f", 6, 12, Activation::Gelu);
        let g = Graph::new();
        let ctx = Ctx::eval(&g, &ps);
        let x = g.constant(vec![0.1; 2 * 3 * 6], vec![2, 3, 6]);
        assert_eq!(g.shape(ffn.forward(&ctx, x)), vec![2, 3, 6]);
    }

    #[test]
    fn gradients_check_out() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let ffn = FeedForward::new(&mut ps, &mut rng, "f", 3, 5, Activation::Relu);
        assert_grads_close(&mut ps, 1e-2, 3e-2, |g, ps| {
            let ctx = Ctx::eval(g, ps);
            let data: Vec<f32> = (0..6).map(|i| 0.5 + i as f32 * 0.2).collect();
            let x = g.constant(data, vec![1, 2, 3]);
            g.mean_all(g.square(ffn.forward(&ctx, x)))
        });
    }

    #[test]
    fn gelu_and_relu_differ() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let f1 = FeedForward::new(&mut ps, &mut rng, "a", 2, 4, Activation::Relu);
        // Same weights, different activation.
        let f2 = FeedForward { act: Activation::Gelu, ..f1.clone() };
        let g = Graph::new();
        let ctx = Ctx::eval(&g, &ps);
        let x = g.constant(vec![-0.5, 0.5, 1.0, -1.0], vec![1, 2, 2]);
        let y1 = g.value(f1.forward(&ctx, x));
        let y2 = g.value(f2.forward(&ctx, x));
        assert!(y1.iter().zip(y2.iter()).any(|(a, b)| (a - b).abs() > 1e-6));
    }
}
