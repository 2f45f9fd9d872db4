//! # tfmae-nn
//!
//! Neural-network building blocks on top of [`tfmae_tensor`]: linear layers,
//! layer norm, multi-head self-attention, position-wise MLPs, post-LN
//! Transformer stacks (Eq. 12–13 of the TFMAE paper), sinusoidal positional
//! encoding (Eq. 11), and the Adam optimizer (§V-A4).
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use tfmae_nn::{Adam, Ctx, TransformerConfig, TransformerStack};
//! use tfmae_tensor::{Graph, ParamStore};
//!
//! let mut ps = ParamStore::new();
//! let mut rng = StdRng::seed_from_u64(7);
//! let cfg = TransformerConfig { d_model: 8, heads: 2, d_ff: 16, layers: 2, ..Default::default() };
//! let encoder = TransformerStack::new(&mut ps, &mut rng, "enc", &cfg);
//! let mut opt = Adam::new(&ps, 1e-4);
//!
//! let g = Graph::new();
//! let ctx = Ctx::train(&g, &ps, 0);
//! let x = g.constant(vec![0.1; 1 * 4 * 8], vec![1, 4, 8]);
//! let y = encoder.forward(&ctx, x);
//! let loss = g.mean_all(g.square(y));
//! g.backward_params(loss, &mut ps);
//! opt.step(&mut ps);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adam;
pub mod attention;
pub mod ctx;
pub mod feedforward;
pub mod gru;
pub mod init;
pub mod linear;
pub mod norm;
pub mod patch;
pub mod positional;
pub mod transformer;

pub use adam::Adam;
pub use attention::MultiHeadSelfAttention;
pub use ctx::Ctx;
pub use feedforward::{Activation, FeedForward};
pub use gru::Gru;
pub use linear::Linear;
pub use norm::LayerNorm;
pub use patch::PatchEmbed;
pub use positional::{encoding_at, encoding_for_positions, encoding_table};
pub use transformer::{TransformerConfig, TransformerLayer, TransformerStack};
