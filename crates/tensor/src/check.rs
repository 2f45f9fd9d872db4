//! Finite-difference gradient checking.
//!
//! Exposed as a regular module (not `#[cfg(test)]`) so downstream crates
//! (`tfmae-nn`, `tfmae-core`) can verify the gradients of composite layers
//! against the same oracle.

use std::sync::Arc;

use crate::exec::Executor;
use crate::graph::{Graph, Var};
use crate::store::ParamStore;

/// Central-difference gradients of a scalar loss w.r.t. every parameter.
///
/// `build` must construct the full forward pass on the provided graph from
/// the *current* store contents and return the scalar loss node. It is
/// invoked `2 × num_scalars` times, so keep the model tiny.
pub fn numeric_param_grads(
    store: &mut ParamStore,
    eps: f32,
    build: impl Fn(&Graph, &ParamStore) -> Var,
) -> Vec<Vec<f32>> {
    let mut out = Vec::with_capacity(store.len());
    for pi in 0..store.len() {
        let n = store.params()[pi].data.len();
        let mut grads = vec![0.0f32; n];
        for (i, grad) in grads.iter_mut().enumerate() {
            let orig = store.params()[pi].data[i];
            store.params_mut()[pi].data[i] = orig + eps;
            let g = Graph::new();
            let up = g.scalar_value(build(&g, store));
            store.params_mut()[pi].data[i] = orig - eps;
            let g = Graph::new();
            let down = g.scalar_value(build(&g, store));
            store.params_mut()[pi].data[i] = orig;
            *grad = (up - down) / (2.0 * eps);
        }
        out.push(grads);
    }
    out
}

/// Analytic gradients of a scalar loss w.r.t. every parameter (one backward
/// pass; the store's accumulators are zeroed first).
pub fn analytic_param_grads(
    store: &mut ParamStore,
    build: impl Fn(&Graph, &ParamStore) -> Var,
) -> Vec<Vec<f32>> {
    store.zero_grads();
    let g = Graph::new();
    let loss = build(&g, store);
    g.backward_params(loss, store);
    store.params().iter().map(|p| p.grad.clone()).collect()
}

/// Analytic gradients through the pooled execution path: one persistent
/// graph, [`Graph::reset`] between passes, an executor with `threads`
/// workers, and pool-recycled gradient buffers. Runs `passes` times so the
/// later passes exercise a warm pool (pure buffer reuse).
pub fn analytic_param_grads_pooled(
    store: &mut ParamStore,
    threads: usize,
    passes: usize,
    build: impl Fn(&Graph, &ParamStore) -> Var,
) -> Vec<Vec<f32>> {
    let g = Graph::with_executor(Arc::new(Executor::with_threads(threads)));
    for _ in 0..passes.max(1) {
        g.reset();
        store.zero_grads();
        let loss = build(&g, store);
        g.backward_params_pooled(loss, store);
    }
    store.params().iter().map(|p| p.grad.clone()).collect()
}

/// Asserts that analytic and numeric gradients agree within `tol`
/// (relative-plus-absolute), and that the pooled path (graph reuse via
/// `reset`, recycled buffers, 1 and 4 worker threads) reproduces the
/// fresh-graph analytic gradients **bitwise**. Panics with a diagnostic on
/// the first mismatch.
pub fn assert_grads_close(
    store: &mut ParamStore,
    eps: f32,
    tol: f32,
    build: impl Fn(&Graph, &ParamStore) -> Var,
) {
    let analytic = analytic_param_grads(store, &build);
    for threads in [1usize, 4] {
        let pooled = analytic_param_grads_pooled(store, threads, 3, &build);
        assert_eq!(
            analytic, pooled,
            "pooled/parallel gradients diverged from fresh-graph serial (threads={threads})"
        );
    }
    let numeric = numeric_param_grads(store, eps, &build);
    for (pi, (a, n)) in analytic.iter().zip(numeric.iter()).enumerate() {
        for (i, (&ga, &gn)) in a.iter().zip(n.iter()).enumerate() {
            let err = (ga - gn).abs();
            let scale = 1.0 + ga.abs().max(gn.abs());
            assert!(
                err <= tol * scale,
                "gradient mismatch at param {} ({}) index {i}: analytic {ga}, numeric {gn}",
                pi,
                store.params()[pi].name,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadratic_gradient() {
        // loss = mean((w - 3)²) → d/dw = 2(w-3)/n.
        let mut ps = ParamStore::new();
        let id = ps.add("w", vec![1.0, 5.0], vec![2]);
        assert_grads_close(&mut ps, 1e-3, 1e-3, |g, ps| {
            let w = g.param(ps, id);
            let t = g.constant(vec![3.0, 3.0], vec![2]);
            g.mse(w, t)
        });
        let grads = analytic_param_grads(&mut ps, |g, ps| {
            let w = g.param(ps, id);
            let t = g.constant(vec![3.0, 3.0], vec![2]);
            g.mse(w, t)
        });
        assert!((grads[0][0] - (-2.0)).abs() < 1e-5);
        assert!((grads[0][1] - 2.0).abs() < 1e-5);
    }
}
