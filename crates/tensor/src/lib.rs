//! # tfmae-tensor
//!
//! A from-scratch dense-tensor engine with reverse-mode autodiff — the
//! compute substrate under the TFMAE reproduction (Fang et al., ICDE 2024).
//!
//! Design (see `DESIGN.md` §7):
//! * row-major `f32` values on an append-only tape ([`Graph`]);
//! * [`Var`] handles are `Copy` indices into the tape;
//! * trainable weights live in a [`ParamStore`] and are leafed into a fresh
//!   graph each step via [`Graph::param`];
//! * [`Graph::detach`] implements the paper's stop-gradient (Eq. 15);
//! * [`check`] provides finite-difference oracles used by every layer test.
//!
//! ```
//! use tfmae_tensor::{Graph, ParamStore};
//!
//! let mut store = ParamStore::new();
//! let w = store.add("w", vec![0.5, -0.5], vec![2]);
//!
//! let g = Graph::new();
//! let wv = g.param(&store, w);
//! let target = g.constant(vec![1.0, 1.0], vec![2]);
//! let loss = g.mse(wv, target);
//! g.backward_params(loss, &mut store);
//!
//! // d/dw mean((w-t)²) = 2(w-t)/n
//! assert!((store.get(w).grad[0] - (-0.5)).abs() < 1e-6);
//! assert!((store.get(w).grad[1] - (-1.5)).abs() < 1e-6);
//! ```

#![warn(missing_docs)]

pub mod backward;
pub mod check;
pub mod exec;
pub mod graph;
pub mod kernels;
pub mod quant;
pub mod shape;
pub mod store;

pub use backward::Gradients;
pub use exec::{gated_min_chunk, ExecStats, Executor, THREADS_ENV};
pub use graph::{Graph, Var, LN_EPS};
pub use kernels::{kernel_isa, ActKind};
pub use quant::{bf16_to_f32, f32_to_bf16, Precision, QuantData, QuantParam, QuantStore};
pub use store::{Param, ParamId, ParamSnapshot, ParamStore};
