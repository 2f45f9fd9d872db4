//! Reverse-mode differentiation over the tape.
//!
//! Gradient buffers come from the graph executor's buffer pool and the
//! heavy backward kernels (matmul family, bmm, softmax) dispatch row-sharded
//! to its worker pool — bitwise identical to serial at any thread count.
//! Every other gradient rule feeds its per-element contributions through
//! [`add_at`], which writes a slot's first contribution instead of adding
//! it to a zero fill (the first-write rule, DESIGN.md §12).

use std::time::Instant;

use crate::exec::Executor;
use crate::graph::{lhs_rows_cols, permute_runs, Graph, Node, Op, Var, LN_EPS};
use crate::kernels::{self, Heads, Mkn};
use crate::shape::{broadcast_strides, numel, StridedIter};
use crate::store::ParamStore;

/// Per-node gradients produced by [`Graph::backward`].
pub struct Gradients {
    pub(crate) grads: Vec<Option<Vec<f32>>>,
}

impl Gradients {
    /// Gradient of the loss w.r.t. the parameter leaf `v` (a
    /// [`Graph::param`] node that participated in the loss). The sweep
    /// recycles every other gradient as soon as it has been propagated, so
    /// this is `None` for intermediate and constant nodes.
    pub fn grad(&self, v: Var) -> Option<&[f32]> {
        self.grads.get(v.id).and_then(|g| g.as_deref())
    }

    /// Routes parameter-leaf gradients into the store's accumulators.
    pub fn accumulate_into(&self, graph: &Graph, store: &mut ParamStore) {
        let nodes = graph.nodes.borrow();
        for (id, node) in nodes.iter().enumerate() {
            if let Op::Param(pid) = node.op {
                if let Some(g) = self.grads[id].as_ref() {
                    store.accumulate_grad(pid, g);
                }
            }
        }
    }
}

/// Node `id`'s gradient slot. A fresh slot is an empty pooled buffer with
/// room for the node's `len` elements, which [`add_at`] grows.
fn grad_slot<'g>(
    exec: &Executor,
    grads: &'g mut [Option<Vec<f32>>],
    id: usize,
    len: usize,
) -> &'g mut Vec<f32> {
    grads[id].get_or_insert_with(|| exec.alloc_empty(len))
}

/// Node `id`'s gradient slot as `len` elements, zero-filled where nothing
/// was written yet: for the kernels that accumulate into their output
/// (matmul family, bmm, softmax).
fn zeroed_slot<'g>(
    exec: &Executor,
    grads: &'g mut [Option<Vec<f32>>],
    id: usize,
    len: usize,
) -> &'g mut [f32] {
    let g = grad_slot(exec, grads, id, len);
    g.resize(len, 0.0);
    g
}

/// Adds the contributions `src` into the gradient slot `g` at elements
/// `off..off + src.len()` by the first-write rule. A slot's elements below
/// `g.len()` hold exactly what a zero-filled slot would after the same
/// additions, so they get `+= p`; elements past the end have had no
/// contribution yet, so a gap before `off` is filled with `0.0` and new
/// elements are written `p + 0.0`. IEEE addition is commutative bit for
/// bit, signed zeros and NaN payloads included, so `p + 0.0` is the
/// `0.0 + p` a zero fill would have computed (and turns `-0.0` into
/// `+0.0`, as that did). A run that starts inside the written prefix and
/// ends past it zero-fills its tail first. The sweep pads a slot to full
/// length with zeros before it reads it as a node's upstream gradient.
fn add_at(g: &mut Vec<f32>, off: usize, src: impl ExactSizeIterator<Item = f32>) {
    let end = off + src.len();
    if off >= g.len() {
        g.resize(off, 0.0);
        g.extend(src.map(|p| p + 0.0));
    } else {
        if end > g.len() {
            g.resize(end, 0.0);
        }
        for (s, p) in g[off..end].iter_mut().zip(src) {
            *s += p;
        }
    }
}

impl Graph {
    /// Runs reverse-mode autodiff from the scalar `loss`.
    ///
    /// The returned per-node gradient buffers are pool-allocated; hand them
    /// back with [`Graph::recycle_gradients`] (or use
    /// [`Graph::backward_params_pooled`]) to keep steady-state training
    /// allocation-free.
    ///
    /// # Panics
    /// Panics if `loss` is not a single-element tensor.
    pub fn backward(&self, loss: Var) -> Gradients {
        let nodes = self.nodes.borrow();
        let mut grads: Vec<Option<Vec<f32>>> = (0..nodes.len()).map(|_| None).collect();
        assert_eq!(nodes[loss.id].value.len(), 1, "backward requires a scalar loss");
        let mut seed = self.exec.alloc_empty(1);
        seed.push(1.0);
        grads[loss.id] = Some(seed);

        for id in (0..=loss.id).rev() {
            let node = &nodes[id];
            if !node.needs_grad {
                if let Some(buf) = grads[id].take() {
                    self.exec.recycle(buf);
                }
                continue;
            }
            let Some(mut gout) = grads[id].take() else { continue };
            // Elements no contribution reached are zero.
            gout.resize(node.value.len(), 0.0);
            let t0 = tfmae_obs::enabled().then(Instant::now);
            if let Op::Param(_) = node.op {
                // Leaf: retain the gradient for accumulate_into.
                grads[id] = Some(gout);
            } else {
                self.backward_node(&nodes, &mut grads, node, &gout);
                // The upstream gradient is consumed; pool it for the next node.
                self.exec.recycle(gout);
            }
            if let Some(t0) = t0 {
                Graph::record_op_backward(&node.op, t0);
            }
        }
        Gradients { grads }
    }

    /// Propagates the upstream gradient `gout` of `node` into its inputs'
    /// gradient slots.
    fn backward_node(
        &self,
        nodes: &[Node],
        grads: &mut [Option<Vec<f32>>],
        node: &Node,
        gout: &[f32],
    ) {
        let exec = &*self.exec;
        match &node.op {
            Op::Const | Op::Param(_) => {}
            Op::Add(a, b) => {
                self.binary_backward(nodes, grads, [*a, *b], &node.shape, gout, |g, _, _| (g, g));
            }
            Op::Sub(a, b) => {
                self.binary_backward(nodes, grads, [*a, *b], &node.shape, gout, |g, _, _| (g, -g));
            }
            Op::Mul(a, b) => {
                self.binary_backward(nodes, grads, [*a, *b], &node.shape, gout, |g, x, y| {
                    (g * y, g * x)
                });
            }
            Op::Div(a, b) => {
                self.binary_backward(nodes, grads, [*a, *b], &node.shape, gout, |g, x, y| {
                    (g / y, -g * x / (y * y))
                });
            }
            // `s − g` is the IEEE operation `s + (−g)`.
            Op::Neg(a) => self.unary_backward(nodes, grads, *a, gout, |g, _x, _y| -g, &node.value),
            Op::Exp(a) => self.unary_backward(nodes, grads, *a, gout, |g, _x, y| g * y, &node.value),
            Op::LnEps(a) => {
                self.unary_backward(nodes, grads, *a, gout, |g, x, _y| g / (x + LN_EPS), &node.value)
            }
            Op::Sqrt(a) => self.unary_backward(nodes, grads, *a, gout, |g, _x, y| {
                if y > 0.0 { g * 0.5 / y } else { 0.0 }
            }, &node.value),
            Op::Relu(a) => {
                self.unary_backward(nodes, grads, *a, gout, |g, x, _y| if x > 0.0 { g } else { 0.0 }, &node.value)
            }
            Op::Gelu(a) => {
                self.unary_backward(nodes, grads, *a, gout, |g, x, _y| g * kernels::gelu_grad(x), &node.value)
            }
            Op::Sigmoid(a) => {
                self.unary_backward(nodes, grads, *a, gout, |g, _x, y| g * y * (1.0 - y), &node.value)
            }
            Op::Tanh(a) => {
                self.unary_backward(nodes, grads, *a, gout, |g, _x, y| g * (1.0 - y * y), &node.value)
            }
            Op::Square(a) => {
                self.unary_backward(nodes, grads, *a, gout, |g, x, _y| g * 2.0 * x, &node.value)
            }
            Op::Scale(a, c) => {
                let c = *c;
                self.unary_backward(nodes, grads, *a, gout, move |g, _x, _y| g * c, &node.value)
            }
            Op::AddScalar(a, _) => {
                self.unary_backward(nodes, grads, *a, gout, |g, _x, _y| g, &node.value)
            }
            Op::Matmul(a, b) | Op::Bmm(a, b) => {
                // The 2-D matmul (leading axes folded into rows) is one batch.
                let (bsz, m, k, n) = if let Op::Bmm(..) = &node.op {
                    let sa = &nodes[*a].shape;
                    (sa[0], sa[1], sa[2], nodes[*b].shape[2])
                } else {
                    let (m, k) = lhs_rows_cols(&nodes[*a].shape);
                    (1, m, k, nodes[*b].shape[1])
                };
                if nodes[*a].needs_grad {
                    // dA += dC·Bᵀ
                    let bval = &nodes[*b].value;
                    let ga = zeroed_slot(exec, grads, *a, bsz * m * k);
                    kernels::par_bmm::<false, true>(exec, gout, bval, bsz, Mkn { m, k: n, n: k }, ga);
                }
                if nodes[*b].needs_grad {
                    // dB += Aᵀ·dC
                    let aval = &nodes[*a].value;
                    let gb = zeroed_slot(exec, grads, *b, bsz * k * n);
                    kernels::par_bmm::<true, false>(exec, aval, gout, bsz, Mkn { m: k, k: m, n }, gb);
                }
            }
            Op::TransposeLast(a) => {
                if nodes[*a].needs_grad {
                    let in_shape = &nodes[*a].shape;
                    let (bsz, m, n) = if in_shape.len() == 2 {
                        (1, in_shape[0], in_shape[1])
                    } else {
                        (in_shape[0], in_shape[1], in_shape[2])
                    };
                    let ga = grad_slot(exec, grads, *a, bsz * m * n);
                    // in[b][i][j] receives out[b][j][i].
                    for (bi, go) in gout.chunks_exact((m * n).max(1)).enumerate() {
                        for i in 0..m {
                            add_at(ga, (bi * m + i) * n, (0..n).map(|j| go[j * m + i]));
                        }
                    }
                }
            }
            Op::Permute { src, view, axes } => {
                if nodes[*src].needs_grad {
                    // Walk the source in order: the inverse permute of the
                    // output view visits the output offset of each run.
                    let out_view: Vec<usize> = axes.iter().map(|&ax| view[ax]).collect();
                    let mut inv = vec![0; axes.len()];
                    for (i, &ax) in axes.iter().enumerate() {
                        inv[ax] = i;
                    }
                    let ga = grad_slot(exec, grads, *src, numel(view));
                    let mut pos = 0;
                    permute_runs(&out_view, &inv, |off, len| {
                        add_at(ga, pos, gout[off..off + len].iter().copied());
                        pos += len;
                    });
                }
            }
            Op::Reshape(a) => {
                if nodes[*a].needs_grad {
                    let ga = grad_slot(exec, grads, *a, gout.len());
                    add_at(ga, 0, gout.iter().copied());
                }
            }
            Op::BroadcastTo(a) => {
                if nodes[*a].needs_grad {
                    let in_shape = &nodes[*a].shape;
                    let out_shape = &node.shape;
                    // The trailing axes the broadcast keeps are one
                    // contiguous run in both tensors.
                    let kept = in_shape
                        .iter()
                        .rev()
                        .zip(out_shape.iter().rev())
                        .take_while(|(i, o)| i == o)
                        .count();
                    let lead = out_shape.len() - kept;
                    let run = numel(&out_shape[lead..]);
                    let vs = broadcast_strides(in_shape, out_shape);
                    let ga = grad_slot(exec, grads, *a, numel(in_shape));
                    let runs = StridedIter::new(&out_shape[..lead], &vs[..lead]);
                    for (off, go) in runs.zip(gout.chunks_exact(run.max(1))) {
                        add_at(ga, off, go.iter().copied());
                    }
                }
            }
            Op::SoftmaxLast(a) => {
                if nodes[*a].needs_grad {
                    let d = *node.shape.last().unwrap();
                    let y = &node.value;
                    let ga = zeroed_slot(exec, grads, *a, y.len());
                    kernels::par_softmax_rows_backward(exec, y, gout, d, ga);
                }
            }
            Op::SumLast(a, _) | Op::MeanLast(a, _) => {
                if nodes[*a].needs_grad {
                    let d = *nodes[*a].shape.last().unwrap();
                    let scale = if matches!(node.op, Op::MeanLast(_, _)) { 1.0 / d as f32 } else { 1.0 };
                    let ga = grad_slot(exec, grads, *a, nodes[*a].value.len());
                    for (r, &g) in gout.iter().enumerate() {
                        let gr = g * scale;
                        add_at(ga, r * d, (0..d).map(|_| gr));
                    }
                }
            }
            Op::SumAll(a) | Op::MeanAll(a) => {
                if nodes[*a].needs_grad {
                    let in_len = nodes[*a].value.len();
                    let scale = if matches!(node.op, Op::MeanAll(_)) {
                        1.0 / in_len.max(1) as f32
                    } else {
                        1.0
                    };
                    let g = gout[0] * scale;
                    let ga = grad_slot(exec, grads, *a, in_len);
                    add_at(ga, 0, (0..in_len).map(|_| g));
                }
            }
            Op::GatherRows { src, idx, k } => {
                if nodes[*src].needs_grad {
                    let (t, d) = (nodes[*src].shape[1], nodes[*src].shape[2]);
                    let ga = grad_slot(exec, grads, *src, nodes[*src].value.len());
                    // Output row `b·k + ki` came from source row `idx[b·k + ki]`.
                    for (r, (&row, go)) in idx.iter().zip(gout.chunks_exact(d.max(1))).enumerate() {
                        add_at(ga, (r / k * t + row) * d, go.iter().copied());
                    }
                }
            }
            Op::ScatterRows { src, idx, out_t } => {
                if nodes[*src].needs_grad {
                    let (k, d) = (nodes[*src].shape[1], nodes[*src].shape[2]);
                    let ga = grad_slot(exec, grads, *src, nodes[*src].value.len());
                    for (r, &row) in idx.iter().enumerate() {
                        let off = (r / k * out_t + row) * d;
                        add_at(ga, r * d, gout[off..off + d].iter().copied());
                    }
                }
            }
            Op::Attention { q, k, v, scale } => {
                let (q, k, v, scale) = (*q, *k, *v, *scale);
                if nodes[q].needs_grad || nodes[k].needs_grad || nodes[v].needs_grad {
                    let (bsz, tq, d) = (nodes[q].shape[0], nodes[q].shape[1], nodes[q].shape[2]);
                    let tk = nodes[k].shape[1];
                    // The kernel fills three private accumulators which
                    // are then folded sequentially into the gradient slots —
                    // q/k/v may alias the same node (self-attention on a
                    // shared projection), so folding must not assume
                    // three distinct gradient slots.
                    let mut dq = exec.alloc_zeroed(bsz * tq * d);
                    let mut dk = exec.alloc_zeroed(bsz * tk * d);
                    let mut dv = exec.alloc_zeroed(bsz * tk * d);
                    kernels::par_attention_backward(
                        exec,
                        [&nodes[q].value, &nodes[k].value, &nodes[v].value],
                        gout,
                        Heads { bsz, tq, tk, d, scale },
                        [&mut dq, &mut dk, &mut dv],
                    );
                    for (id, tmp) in [(q, &dq), (k, &dk), (v, &dv)] {
                        if nodes[id].needs_grad {
                            add_at(grad_slot(exec, grads, id, tmp.len()), 0, tmp.iter().copied());
                        }
                    }
                    exec.recycle(dq);
                    exec.recycle(dk);
                    exec.recycle(dv);
                }
            }
            Op::BiasAct { x, bias, kind } => {
                let (x, bias, kind) = (*x, *bias, *kind);
                let need_x = nodes[x].needs_grad;
                let need_b = nodes[bias].needs_grad;
                if need_x || need_b {
                    let xv = &nodes[x].value;
                    let bv = &nodes[bias].value;
                    let m = bv.len().max(1);
                    // One pass: recompute the pre-activation x + b (it is
                    // not stored on the tape), form p = gout · act'(x + b)
                    // once per element, and feed the row to gx and gb.
                    let mut prow = exec.alloc_zeroed(m);
                    for (r, (go, xr)) in gout.chunks_exact(m).zip(xv.chunks_exact(m)).enumerate() {
                        for (((p, &g), &x), &b) in prow.iter_mut().zip(go).zip(xr).zip(bv) {
                            *p = g * kernels::act_grad(kind, x + b);
                        }
                        if need_x {
                            let gx = grad_slot(exec, grads, x, xv.len());
                            add_at(gx, r * m, prow.iter().copied());
                        }
                        if need_b {
                            add_at(grad_slot(exec, grads, bias, m), 0, prow.iter().copied());
                        }
                    }
                    exec.recycle(prow);
                }
            }
            Op::MulAdd { a, b, c } => {
                let (a, b, c) = (*a, *b, *c);
                let av = &nodes[a].value;
                let bv = &nodes[b].value;
                let m = bv.len().max(1);
                if nodes[a].needs_grad {
                    let ga = grad_slot(exec, grads, a, av.len());
                    for (r, go) in gout.chunks_exact(m).enumerate() {
                        add_at(ga, r * m, go.iter().zip(bv).map(|(&g, &y)| g * y));
                    }
                }
                if nodes[b].needs_grad {
                    let gb = grad_slot(exec, grads, b, m);
                    for (go, ar) in gout.chunks_exact(m).zip(av.chunks_exact(m)) {
                        add_at(gb, 0, go.iter().zip(ar).map(|(&g, &x)| g * x));
                    }
                }
                if nodes[c].needs_grad {
                    let gc = grad_slot(exec, grads, c, m);
                    for go in gout.chunks_exact(m) {
                        add_at(gc, 0, go.iter().copied());
                    }
                }
            }
        }
    }

    /// Backward pass that also routes parameter gradients into `store`.
    pub fn backward_params(&self, loss: Var, store: &mut ParamStore) -> Gradients {
        let grads = self.backward(loss);
        grads.accumulate_into(self, store);
        grads
    }

    /// Backward pass that routes parameter gradients into `store` and then
    /// returns every gradient buffer to the executor's pool. The
    /// allocation-free training-loop variant of [`Graph::backward_params`].
    pub fn backward_params_pooled(&self, loss: Var, store: &mut ParamStore) {
        let grads = self.backward(loss);
        grads.accumulate_into(self, store);
        self.recycle_gradients(grads);
    }

    /// Returns the gradient buffers of a finished backward pass to the pool.
    pub fn recycle_gradients(&self, grads: Gradients) {
        for g in grads.grads.into_iter().flatten() {
            self.exec.recycle(g);
        }
    }

    fn unary_backward(
        &self,
        nodes: &[Node],
        grads: &mut [Option<Vec<f32>>],
        a: usize,
        gout: &[f32],
        f: impl Fn(f32, f32, f32) -> f32,
        out_value: &[f32],
    ) {
        if !nodes[a].needs_grad {
            return;
        }
        let xs = &nodes[a].value;
        let ga = grad_slot(&self.exec, grads, a, xs.len());
        add_at(ga, 0, gout.iter().zip(xs).zip(out_value).map(|((&g, &x), &y)| f(g, x, y)));
    }

    /// Shared backward for broadcasting binary ops on the operand nodes
    /// `[a, b]`. `f(g, x, y)` returns the per-element `(dL/dx, dL/dy)`
    /// contributions.
    fn binary_backward(
        &self,
        nodes: &[Node],
        grads: &mut [Option<Vec<f32>>],
        [a, b]: [usize; 2],
        out_shape: &[usize],
        gout: &[f32],
        f: impl Fn(f32, f32, f32) -> (f32, f32),
    ) {
        let need_a = nodes[a].needs_grad;
        let need_b = nodes[b].needs_grad;
        if !need_a && !need_b {
            return;
        }
        let exec = &*self.exec;
        let av = &nodes[a].value;
        let bv = &nodes[b].value;
        let same = nodes[a].shape == nodes[b].shape;

        if same {
            let elems = || gout.iter().zip(av).zip(bv).map(|((&g, &x), &y)| f(g, x, y));
            if need_a {
                add_at(grad_slot(exec, grads, a, av.len()), 0, elems().map(|d| d.0));
            }
            if need_b {
                add_at(grad_slot(exec, grads, b, bv.len()), 0, elems().map(|d| d.1));
            }
            return;
        }

        // Hot path: `[..., D] ⊕ [D]` (bias/gain) — chunked accumulation.
        if out_shape == nodes[a].shape
            && nodes[b].shape.len() <= nodes[a].shape.len()
            && !nodes[b].shape.is_empty()
            && nodes[a].shape[nodes[a].shape.len() - nodes[b].shape.len()..] == nodes[b].shape[..]
        {
            let m = bv.len().max(1);
            let rows = || gout.chunks_exact(m).zip(av.chunks_exact(m));
            if need_a {
                let ga = grad_slot(exec, grads, a, av.len());
                for (r, (go, ar)) in rows().enumerate() {
                    add_at(ga, r * m, go.iter().zip(ar).zip(bv).map(|((&g, &x), &y)| f(g, x, y).0));
                }
            }
            if need_b {
                let gb = grad_slot(exec, grads, b, m);
                for (go, ar) in rows() {
                    add_at(gb, 0, go.iter().zip(ar).zip(bv).map(|((&g, &x), &y)| f(g, x, y).1));
                }
            }
            return;
        }
        // Hot path: `[..., D] ⊕ [..., 1]` (keepdim row scalar, LayerNorm).
        if out_shape == nodes[a].shape
            && nodes[b].shape.len() == nodes[a].shape.len()
            && !nodes[a].shape.is_empty()
            && nodes[b].shape[..nodes[b].shape.len() - 1]
                == nodes[a].shape[..nodes[a].shape.len() - 1]
            && *nodes[b].shape.last().unwrap() == 1
        {
            let d = (*nodes[a].shape.last().unwrap()).max(1);
            let rows = || gout.chunks_exact(d).zip(av.chunks_exact(d)).zip(bv);
            if need_a {
                let ga = grad_slot(exec, grads, a, av.len());
                for (r, ((go, ar), &y)) in rows().enumerate() {
                    add_at(ga, r * d, go.iter().zip(ar).map(|(&g, &x)| f(g, x, y).0));
                }
            }
            if need_b {
                // Each row's contribution is summed from zero first.
                let row_sums = rows().map(|((go, ar), &y)| {
                    go.iter().zip(ar).fold(0.0f32, |acc, (&g, &x)| acc + f(g, x, y).1)
                });
                add_at(grad_slot(exec, grads, b, bv.len()), 0, row_sums);
            }
            return;
        }

        let sa = broadcast_strides(&nodes[a].shape, out_shape);
        let sb = broadcast_strides(&nodes[b].shape, out_shape);
        let ia = StridedIter::new(out_shape, &sa);
        let ib = StridedIter::new(out_shape, &sb);
        // Two temporary accumulators so one strided sweep feeds both inputs.
        let mut ta = if need_a { Some(exec.alloc_zeroed(av.len())) } else { None };
        let mut tb = if need_b { Some(exec.alloc_zeroed(bv.len())) } else { None };
        for (pos, (oa, ob)) in ia.zip(ib).enumerate() {
            let (da, db) = f(gout[pos], av[oa], bv[ob]);
            if let Some(t) = ta.as_mut() {
                t[oa] += da;
            }
            if let Some(t) = tb.as_mut() {
                t[ob] += db;
            }
        }
        for (id, t) in [(a, ta), (b, tb)] {
            if let Some(t) = t {
                add_at(grad_slot(exec, grads, id, t.len()), 0, t.iter().copied());
                exec.recycle(t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_parameter_leaves_keep_a_gradient() {
        let mut ps = ParamStore::new();
        let w = ps.add("w", vec![0.5, -1.5, 2.0], vec![3]);
        let g = Graph::new();
        let leaf = g.param(&ps, w);
        let hidden = g.exp(leaf);
        let c = g.constant_from(&[1.0, 2.0, 3.0], vec![3]);
        let loss = g.sum_all(g.mul(hidden, c));
        let grads = g.backward(loss);
        assert!(grads.grad(leaf).is_some(), "a parameter leaf keeps its gradient");
        assert_eq!(grads.grad(hidden), None, "an intermediate node's gradient is recycled");
        assert_eq!(grads.grad(c), None, "a constant has no gradient");
    }

    #[test]
    fn add_at_follows_the_first_write_rule() {
        let mut g = Vec::with_capacity(6);
        add_at(&mut g, 2, [-0.0, 1.5].into_iter());
        assert_eq!(g, [0.0, 0.0, 0.0, 1.5]);
        assert_eq!(g[2].to_bits(), 0.0f32.to_bits(), "a first write of -0.0 is +0.0");
        // Straddles the written prefix: adds to index 3, writes 4 and 5.
        add_at(&mut g, 3, [1.0, -0.0, 2.0].into_iter());
        assert_eq!(g, [0.0, 0.0, 0.0, 2.5, 0.0, 2.0]);
        assert_eq!(g[4].to_bits(), 0.0f32.to_bits());
        add_at(&mut g, 0, [-0.0; 6].into_iter());
        assert_eq!(g[0].to_bits(), 0.0f32.to_bits(), "+0.0 + -0.0 is +0.0");
    }
}
