//! Forward-pass context threading the tape and weights through layers.

use std::cell::RefCell;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tfmae_tensor::{Executor, Graph, ParamStore, QuantStore};

/// Everything a layer needs during one forward pass.
pub struct Ctx<'a> {
    /// The autograd tape being built.
    pub g: &'a Graph,
    /// The parameter store the layers read their weights from.
    pub ps: &'a ParamStore,
    /// Per-pass RNG, seeded deterministically per step. No layer draws
    /// from it; it is a seeded RNG source for callers that build masks
    /// around a pass.
    pub rng: RefCell<StdRng>,
    /// The execution backend (worker pool + buffer pool) the graph runs on.
    pub exec: &'a Executor,
    /// Quantized weight copies for the low-precision serving path. When
    /// set, [`crate::Linear`] reads 2-D weights from here (forward-only,
    /// f32 accumulation) instead of leafing the f32 parameter into the
    /// tape; 1-D parameters always come from `ps`. `None` (every
    /// constructor except [`Ctx::eval_quant`]) is the bitwise-unchanged
    /// f32 path.
    pub quant: Option<&'a QuantStore>,
}

impl<'a> Ctx<'a> {
    /// Training-step context whose RNG is seeded from `seed`. The forward
    /// pass itself is the same as under [`Ctx::eval`].
    pub fn train(g: &'a Graph, ps: &'a ParamStore, seed: u64) -> Self {
        Self {
            g,
            ps,
            rng: RefCell::new(StdRng::seed_from_u64(seed)),
            exec: g.executor(),
            quant: None,
        }
    }

    /// Inference context with a fixed-seed RNG.
    pub fn eval(g: &'a Graph, ps: &'a ParamStore) -> Self {
        Self {
            g,
            ps,
            rng: RefCell::new(StdRng::seed_from_u64(0)),
            exec: g.executor(),
            quant: None,
        }
    }

    /// Inference-mode context scoring through quantized weights (the
    /// bf16/int8 serving path). Layers fall back to `ps` for any parameter
    /// the store has no quantized copy of.
    pub fn eval_quant(g: &'a Graph, ps: &'a ParamStore, quant: &'a QuantStore) -> Self {
        Self {
            quant: Some(quant),
            ..Self::eval(g, ps)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes() {
        use rand::Rng;
        let g = Graph::new();
        let ps = ParamStore::new();
        let draw = |ctx: Ctx| ctx.rng.into_inner().gen::<f32>();
        assert_eq!(draw(Ctx::train(&g, &ps, 3)), draw(Ctx::train(&g, &ps, 3)));
        assert_eq!(draw(Ctx::eval(&g, &ps)), draw(Ctx::train(&g, &ps, 0)));
        assert!(Ctx::eval(&g, &ps).quant.is_none());
    }
}
