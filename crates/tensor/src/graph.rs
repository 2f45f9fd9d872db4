//! The autograd tape.
//!
//! A [`Graph`] is an append-only arena of [`Node`]s; every operation pushes
//! one node holding its forward value, its operand ids, and enough metadata
//! for the backward pass. [`Var`] is a copyable handle into the arena.
//! Parameters live in a [`ParamStore`](crate::ParamStore) outside the graph
//! and are *leafed in* per forward pass with [`Graph::param`]; this is what
//! lets one weight set drive a fresh tape every training step, and it makes
//! the paper's stop-gradient (`detach`) trivial — a detached value is just a
//! fresh constant leaf.

use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::Instant;

use tfmae_obs::LazyCounter;

use crate::exec::Executor;
use crate::kernels::{self, Heads, Mkn};
use crate::quant::QuantParam;
use crate::shape::{
    broadcast_shapes, broadcast_strides, broadcastable_to, fmt_shape, numel, strides, StridedIter,
};
use crate::store::{ParamId, ParamStore};

/// Whether `b` equals the trailing axes of `a` (right-aligned exact match).
fn is_suffix(b: &[usize], a: &[usize]) -> bool {
    b.len() <= a.len() && !b.is_empty() && a[a.len() - b.len()..] == *b
}

/// Whether `b` is `a` with the trailing axis replaced by 1 (keepdim shape).
fn is_row_scalar(b: &[usize], a: &[usize]) -> bool {
    !a.is_empty()
        && b.len() == a.len()
        && b[..b.len() - 1] == a[..a.len() - 1]
        && *b.last().unwrap() == 1
}

/// `(rows, k)` of a rank ≥ 2 matmul left operand: the trailing axis is
/// the inner dimension and the leading axes fold into rows.
pub(crate) fn lhs_rows_cols(shape: &[usize]) -> (usize, usize) {
    let (k, lead) = shape.split_last().expect("matmul lhs needs rank >= 2");
    (numel(lead), *k)
}

/// The output shape of a matmul: the left operand's leading axes, then `n`.
fn matmul_out_shape(lhs: &[usize], n: usize) -> Vec<usize> {
    let mut out = lhs.to_vec();
    *out.last_mut().unwrap() = n;
    out
}

/// Visits the source of the permute of a row-major `view` by `axes` in
/// output order, as runs: `f(offset, len)` names the next `len` contiguous
/// source elements. When the trailing axis stays in place (the
/// `[0, 2, 1, 3]` head split and merge) each run is a whole trailing row;
/// otherwise runs are single elements.
pub(crate) fn permute_runs(view: &[usize], axes: &[usize], mut f: impl FnMut(usize, usize)) {
    let st = strides(view);
    let (lead, run) = match axes.split_last() {
        Some((&last, lead)) if last == axes.len() - 1 => (lead, view[last]),
        _ => (axes, 1),
    };
    let shape: Vec<usize> = lead.iter().map(|&ax| view[ax]).collect();
    let lead_strides: Vec<usize> = lead.iter().map(|&ax| st[ax]).collect();
    for off in StridedIter::new(&shape, &lead_strides) {
        f(off, run);
    }
}

/// Epsilon used inside [`Graph::ln_eps`] (KL-divergence stability).
pub const LN_EPS: f32 = 1e-12;

/// Handle to a node in a [`Graph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var {
    pub(crate) id: usize,
}

#[derive(Debug)]
#[allow(dead_code)] // payloads like keepdim flags are kept for tape debuggability
pub(crate) enum Op {
    Const,
    Param(ParamId),
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    Div(usize, usize),
    Neg(usize),
    Exp(usize),
    LnEps(usize),
    Sqrt(usize),
    Relu(usize),
    Gelu(usize),
    Sigmoid(usize),
    Tanh(usize),
    Square(usize),
    Scale(usize, f32),
    AddScalar(usize, f32),
    Matmul(usize, usize),
    Bmm(usize, usize),
    TransposeLast(usize),
    /// Axis permutation of `src` read as the row-major `view` shape (equal
    /// to the source shape, or a same-size regrouping of it); the result is
    /// the permuted view, stored under the node's own shape.
    Permute { src: usize, view: Vec<usize>, axes: Vec<usize> },
    Reshape(usize),
    SoftmaxLast(usize),
    SumLast(usize, bool),
    MeanLast(usize, bool),
    SumAll(usize),
    MeanAll(usize),
    BroadcastTo(usize),
    /// Gather rows along axis 1 of a `[B, T, D]` tensor; `idx` holds `B*K`
    /// row indices (`K` per batch element).
    GatherRows { src: usize, idx: Vec<usize>, k: usize },
    /// Scatter rows along axis 1 into a zeroed `[B, T, D]` output; inverse
    /// access pattern of `GatherRows`. Duplicate indices accumulate.
    ScatterRows { src: usize, idx: Vec<usize>, out_t: usize },
    /// Fused scaled-dot-product attention `softmax(Q·Kᵀ·scale)·V` over
    /// `[B,Tq,D]`/`[B,Tk,D]`/`[B,Tk,D]`; no `Tq×Tk` score node is ever
    /// materialized — backward recomputes the row weights.
    Attention { q: usize, k: usize, v: usize, scale: f32 },
    /// Fused `act(x + bias)` where `bias` is a trailing-axes suffix of `x`.
    BiasAct { x: usize, bias: usize, kind: kernels::ActKind },
    /// Fused `a ⊙ b + c` where `b` and `c` share a trailing-axes suffix
    /// shape of `a` (LayerNorm's `normed·gain + bias` in one node).
    MulAdd { a: usize, b: usize, c: usize },
}

/// Declares the per-variant metric names once: `OP_NAMES[k]` names the
/// variant with [`Op::kind`] `k`, `OP_CALLS[k]` / `OP_NS[k]` are its
/// forward `tensor.op.<name>.calls` / `.ns` counters and `OP_BWD_CALLS[k]`
/// / `OP_BWD_NS[k]` its backward `.bwd_calls` / `.bwd_ns` counters.
macro_rules! op_table {
    ($($name:literal),* $(,)?) => {
        const OP_NAMES: &[&str] = &[$($name),*];
        static OP_CALLS: [LazyCounter; OP_NAMES.len()] =
            [$(LazyCounter::new(concat!("tensor.op.", $name, ".calls"))),*];
        static OP_NS: [LazyCounter; OP_NAMES.len()] =
            [$(LazyCounter::new(concat!("tensor.op.", $name, ".ns"))),*];
        static OP_BWD_CALLS: [LazyCounter; OP_NAMES.len()] =
            [$(LazyCounter::new(concat!("tensor.op.", $name, ".bwd_calls"))),*];
        static OP_BWD_NS: [LazyCounter; OP_NAMES.len()] =
            [$(LazyCounter::new(concat!("tensor.op.", $name, ".bwd_ns"))),*];
    };
}

op_table!(
    "const", "param", "add", "sub", "mul", "div", "neg", "exp", "ln_eps", "sqrt", "relu", "gelu",
    "sigmoid", "tanh", "square", "scale", "add_scalar", "matmul", "bmm", "transpose_last",
    "permute", "reshape", "softmax_last", "sum_last", "mean_last", "sum_all", "mean_all",
    "broadcast_to", "gather_rows", "scatter_rows", "attention", "bias_act", "mul_add",
);

impl Op {
    /// Index of this variant in `OP_NAMES` (declaration order).
    fn kind(&self) -> usize {
        match self {
            Op::Const => 0,
            Op::Param(_) => 1,
            Op::Add(..) => 2,
            Op::Sub(..) => 3,
            Op::Mul(..) => 4,
            Op::Div(..) => 5,
            Op::Neg(_) => 6,
            Op::Exp(_) => 7,
            Op::LnEps(_) => 8,
            Op::Sqrt(_) => 9,
            Op::Relu(_) => 10,
            Op::Gelu(_) => 11,
            Op::Sigmoid(_) => 12,
            Op::Tanh(_) => 13,
            Op::Square(_) => 14,
            Op::Scale(..) => 15,
            Op::AddScalar(..) => 16,
            Op::Matmul(..) => 17,
            Op::Bmm(..) => 18,
            Op::TransposeLast(_) => 19,
            Op::Permute { .. } => 20,
            Op::Reshape(_) => 21,
            Op::SoftmaxLast(_) => 22,
            Op::SumLast(..) => 23,
            Op::MeanLast(..) => 24,
            Op::SumAll(_) => 25,
            Op::MeanAll(_) => 26,
            Op::BroadcastTo(_) => 27,
            Op::GatherRows { .. } => 28,
            Op::ScatterRows { .. } => 29,
            Op::Attention { .. } => 30,
            Op::BiasAct { .. } => 31,
            Op::MulAdd { .. } => 32,
        }
    }
}

pub(crate) struct Node {
    pub value: Vec<f32>,
    pub shape: Vec<usize>,
    pub op: Op,
    pub needs_grad: bool,
}

/// Minimum elements before an elementwise/reduction op fans out to the
/// worker pool. These ops are memory-bound — a few tenths of a ns per
/// element — so the 4096-element gate this shipped with fanned out work
/// that costs ~1µs serial against a multi-µs wake round-trip; tiny-model
/// training measured 0.65–0.89x at 2–4 threads from exactly that. Fan-out
/// starts at `2 ×` this (≥ 128 Ki elements, ~512 KiB of traffic), where
/// the copy is long enough to amortize the wake even on modest hosts.
const MIN_PAR_ELEMS: usize = 64 * 1024;

/// Append-only autograd tape.
///
/// Node-value buffers come from (and return to) the buffer pool of the
/// graph's [`Executor`]; [`Graph::reset`] clears the tape for the next step
/// while keeping the arena warm, so steady-state training allocates no new
/// node buffers (see [`Executor::stats`]).
pub struct Graph {
    pub(crate) nodes: RefCell<Vec<Node>>,
    pub(crate) exec: Arc<Executor>,
    /// When the previous node was pushed while recording was on (the start
    /// of the next node's interval in the per-op breakdown).
    last_push: Cell<Option<Instant>>,
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Graph {
    fn drop(&mut self) {
        // Hand the node buffers back so per-call graphs sharing an executor
        // (e.g. scoring inside a streaming detector) still recycle.
        self.reset();
    }
}

impl Graph {
    /// Creates an empty tape with a private serial executor (no threads).
    pub fn new() -> Self {
        Self::with_executor(Arc::new(Executor::serial()))
    }

    /// Creates an empty tape backed by a shared executor: kernels dispatch
    /// to its worker pool and node buffers recycle through its buffer pool.
    pub fn with_executor(exec: Arc<Executor>) -> Self {
        Self { nodes: RefCell::new(Vec::with_capacity(256)), exec, last_push: Cell::new(None) }
    }

    /// Creates an empty tape with a private executor sized from the
    /// environment ([`crate::exec::THREADS_ENV`], falling back to the
    /// machine's parallelism). Use with [`Graph::reset`] for long-lived
    /// training/scoring loops.
    pub fn from_env() -> Self {
        Self::with_executor(Arc::new(Executor::from_env()))
    }

    /// The executor backing this graph.
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    /// Clears the tape, returning every node-value buffer to the executor's
    /// pool. The next step reuses the same arena instead of allocating.
    pub fn reset(&self) {
        let mut nodes = self.nodes.borrow_mut();
        for node in nodes.drain(..) {
            self.exec.recycle(node.value);
        }
        self.last_push.set(None);
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.borrow().is_empty()
    }

    /// Total activation bytes held by the tape (Fig. 10 memory accounting).
    pub fn activation_bytes(&self) -> usize {
        self.nodes.borrow().iter().map(|n| n.value.len() * std::mem::size_of::<f32>()).sum()
    }

    /// Node counts per op variant, named as in the `tensor.op.<name>.*`
    /// metrics, in declaration order; variants absent from the tape are
    /// omitted.
    pub fn op_counts(&self) -> Vec<(&'static str, usize)> {
        let mut counts = [0usize; OP_NAMES.len()];
        for node in self.nodes.borrow().iter() {
            counts[node.op.kind()] += 1;
        }
        OP_NAMES.iter().zip(counts).filter(|(_, c)| *c > 0).map(|(n, c)| (*n, c)).collect()
    }

    fn push(&self, value: Vec<f32>, shape: Vec<usize>, op: Op, needs_grad: bool) -> Var {
        debug_assert_eq!(value.len(), numel(&shape), "node value/shape mismatch");
        if tfmae_obs::enabled() {
            self.record_op(&op);
        }
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node { value, shape, op, needs_grad });
        Var { id: nodes.len() - 1 }
    }

    /// The per-op breakdown (DESIGN.md §12): one `tensor.op.<name>.calls`
    /// per node, and `tensor.op.<name>.ns` charged the wall time since the
    /// previous recorded push on this tape — the op's own kernel plus any
    /// caller code between the two ops (e.g. building a constant's data).
    /// The first node after [`Graph::new`] or [`Graph::reset`] is charged
    /// nothing.
    fn record_op(&self, op: &Op) {
        let now = Instant::now();
        let since =
            self.last_push.replace(Some(now)).map_or(0, |prev| now.duration_since(prev).as_nanos());
        let kind = op.kind();
        OP_CALLS[kind].inc();
        OP_NS[kind].add(since as u64);
    }

    /// The backward half of the per-op breakdown: one
    /// `tensor.op.<name>.bwd_calls` per node the backward sweep visits,
    /// and `.bwd_ns` charged the time since `t0`, taken just before the
    /// node's gradient rule ran.
    pub(crate) fn record_op_backward(op: &Op, t0: Instant) {
        let kind = op.kind();
        OP_BWD_CALLS[kind].inc();
        OP_BWD_NS[kind].add(t0.elapsed().as_nanos() as u64);
    }

    /// A fresh `rows × width` buffer filled by `body(dst, r0)`, which
    /// writes the rows `[r0, r0 + dst.len() / width)` into `dst`. Each row
    /// costs `row_work` element reads; big enough ops fan out over
    /// contiguous row ranges, small ones make one call over the whole
    /// buffer. `body` must compute each element from its row alone, so
    /// every partition gives bit-identical output.
    fn fill_rows(
        &self,
        rows: usize,
        width: usize,
        row_work: usize,
        body: impl Fn(&mut [f32], usize) + Sync,
    ) -> Vec<f32> {
        let mut out = self.exec.alloc_zeroed(rows * width);
        if row_work > 0 && self.exec.parallel_beneficial(rows * row_work, MIN_PAR_ELEMS) {
            let min_rows = (MIN_PAR_ELEMS / row_work).max(1);
            kernels::par_rows(&self.exec, &mut out, rows, width, min_rows, usize::MAX, &|r0, _, dst| {
                body(dst, r0)
            });
        } else {
            body(&mut out, 0);
        }
        out
    }

    /// The forward value of `v` (cloned out of the tape).
    pub fn value(&self, v: Var) -> Vec<f32> {
        self.nodes.borrow()[v.id].value.clone()
    }

    /// The shape of `v`.
    pub fn shape(&self, v: Var) -> Vec<usize> {
        self.nodes.borrow()[v.id].shape.clone()
    }

    /// The scalar value of a one-element node.
    ///
    /// # Panics
    /// Panics if `v` has more than one element.
    pub fn scalar_value(&self, v: Var) -> f32 {
        let nodes = self.nodes.borrow();
        let n = &nodes[v.id];
        assert_eq!(n.value.len(), 1, "scalar_value on non-scalar {}", fmt_shape(&n.shape));
        n.value[0]
    }

    // ---------------------------------------------------------------- leaves

    /// A constant (non-trainable) leaf taking ownership of `data`. Prefer
    /// [`Graph::constant_from`] in steady-state loops so the buffer comes
    /// from the pool.
    pub fn constant(&self, data: Vec<f32>, shape: Vec<usize>) -> Var {
        assert_eq!(data.len(), numel(&shape), "constant data/shape mismatch");
        self.push(data, shape, Op::Const, false)
    }

    /// A constant leaf copied from a slice through the buffer pool — the
    /// allocation-free alternative to `constant(data.to_vec(), ..)` once
    /// the pool is warm.
    pub fn constant_from(&self, data: &[f32], shape: Vec<usize>) -> Var {
        assert_eq!(data.len(), numel(&shape), "constant data/shape mismatch");
        let mut value = self.exec.alloc_empty(data.len());
        value.extend_from_slice(data);
        self.push(value, shape, Op::Const, false)
    }

    /// A scalar constant leaf (shape `[]`).
    pub fn scalar(&self, v: f32) -> Var {
        let mut value = self.exec.alloc_empty(1);
        value.push(v);
        self.push(value, vec![], Op::Const, false)
    }

    /// Leafs a trainable parameter into the graph; gradients flow back into
    /// the store on [`Graph::backward`](crate::Gradients).
    pub fn param(&self, store: &ParamStore, id: ParamId) -> Var {
        let p = store.get(id);
        let mut value = self.exec.alloc_empty(p.data.len());
        value.extend_from_slice(&p.data);
        self.push(value, p.shape.clone(), Op::Param(id), true)
    }

    /// Stop-gradient: a constant copy of `v` (the paper's `sg`, Eq. 15).
    pub fn detach(&self, v: Var) -> Var {
        let (value, shape) = {
            let nodes = self.nodes.borrow();
            let n = &nodes[v.id];
            let mut value = self.exec.alloc_empty(n.value.len());
            value.extend_from_slice(&n.value);
            (value, n.shape.clone())
        };
        self.push(value, shape, Op::Const, false)
    }

    // ------------------------------------------------------- elementwise ops

    fn broadcast_binary(
        &self,
        a: Var,
        b: Var,
        f: impl Fn(f32, f32) -> f32 + Sync,
        make_op: impl Fn(usize, usize) -> Op,
        name: &str,
    ) -> Var {
        let (value, out_shape, needs) = {
            let nodes = self.nodes.borrow();
            let na = &nodes[a.id];
            let nb = &nodes[b.id];
            let out_shape = broadcast_shapes(&na.shape, &nb.shape).unwrap_or_else(|| {
                panic!("{name}: shapes {} and {} do not broadcast", fmt_shape(&na.shape), fmt_shape(&nb.shape))
            });
            let n = numel(&out_shape);
            let (av, bv) = (&na.value, &nb.value);
            let value = if na.shape == nb.shape {
                self.fill_rows(n, 1, 1, |dst, s| {
                    for ((o, x), y) in dst.iter_mut().zip(&av[s..]).zip(&bv[s..]) {
                        *o = f(*x, *y);
                    }
                })
            } else if out_shape == na.shape && is_suffix(&nb.shape, &na.shape) {
                // Hot path: bias/gain broadcast `[..., D] ⊕ [D]`.
                self.suffix_map(av, bv, &f)
            } else if n > 0 && out_shape == na.shape && is_row_scalar(&nb.shape, &na.shape) {
                // Hot path: per-row scalar `[..., D] ⊕ [..., 1]` (LayerNorm).
                let d = *na.shape.last().unwrap();
                self.fill_rows(bv.len(), d, d, |dst, r0| {
                    for ((chunk, src), y) in
                        dst.chunks_exact_mut(d).zip(av[r0 * d..].chunks_exact(d)).zip(&bv[r0..])
                    {
                        for (o, x) in chunk.iter_mut().zip(src) {
                            *o = f(*x, *y);
                        }
                    }
                })
            } else {
                let sa = broadcast_strides(&na.shape, &out_shape);
                let sb = broadcast_strides(&nb.shape, &out_shape);
                let ia = StridedIter::new(&out_shape, &sa);
                let ib = StridedIter::new(&out_shape, &sb);
                let mut out = self.exec.alloc_empty(n);
                out.extend(ia.zip(ib).map(|(oa, ob)| f(av[oa], bv[ob])));
                out
            };
            (value, out_shape, na.needs_grad || nb.needs_grad)
        };
        self.push(value, out_shape, make_op(a.id, b.id), needs)
    }

    /// `f(a, b)` elementwise where `b` is a trailing-axes suffix of `a`,
    /// repeated over every `b.len()`-element row of `a`.
    fn suffix_map(&self, a: &[f32], b: &[f32], f: impl Fn(f32, f32) -> f32 + Sync) -> Vec<f32> {
        let m = b.len().max(1);
        self.fill_rows(a.len() / m, m, m, |dst, r0| {
            for (chunk, src) in dst.chunks_exact_mut(m).zip(a[r0 * m..].chunks_exact(m)) {
                for ((o, x), y) in chunk.iter_mut().zip(src).zip(b) {
                    *o = f(*x, *y);
                }
            }
        })
    }

    /// Elementwise addition with broadcasting.
    pub fn add(&self, a: Var, b: Var) -> Var {
        self.broadcast_binary(a, b, |x, y| x + y, Op::Add, "add")
    }

    /// Elementwise subtraction with broadcasting.
    pub fn sub(&self, a: Var, b: Var) -> Var {
        self.broadcast_binary(a, b, |x, y| x - y, Op::Sub, "sub")
    }

    /// Elementwise multiplication with broadcasting.
    pub fn mul(&self, a: Var, b: Var) -> Var {
        self.broadcast_binary(a, b, |x, y| x * y, Op::Mul, "mul")
    }

    /// Elementwise division with broadcasting.
    pub fn div(&self, a: Var, b: Var) -> Var {
        self.broadcast_binary(a, b, |x, y| x / y, Op::Div, "div")
    }

    fn unary(&self, a: Var, f: impl Fn(f32) -> f32 + Sync, op: Op) -> Var {
        let (value, shape, needs) = {
            let nodes = self.nodes.borrow();
            let na = &nodes[a.id];
            let src = &na.value;
            let value = self.fill_rows(src.len(), 1, 1, |dst, s| {
                for (o, &x) in dst.iter_mut().zip(&src[s..]) {
                    *o = f(x);
                }
            });
            (value, na.shape.clone(), na.needs_grad)
        };
        self.push(value, shape, op, needs)
    }

    /// Elementwise negation.
    pub fn neg(&self, a: Var) -> Var {
        self.unary(a, |x| -x, Op::Neg(a.id))
    }

    /// Elementwise `exp`.
    pub fn exp(&self, a: Var) -> Var {
        self.unary(a, f32::exp, Op::Exp(a.id))
    }

    /// Elementwise `ln(x + ε)` with ε = [`LN_EPS`] (safe log for KL terms).
    pub fn ln_eps(&self, a: Var) -> Var {
        self.unary(a, |x| (x + LN_EPS).ln(), Op::LnEps(a.id))
    }

    /// Elementwise `sqrt(max(x, 0))`.
    pub fn sqrt(&self, a: Var) -> Var {
        self.unary(a, |x| x.max(0.0).sqrt(), Op::Sqrt(a.id))
    }

    /// Elementwise ReLU.
    pub fn relu(&self, a: Var) -> Var {
        self.unary(a, |x| x.max(0.0), Op::Relu(a.id))
    }

    /// Elementwise GELU (tanh approximation).
    pub fn gelu(&self, a: Var) -> Var {
        self.unary(a, kernels::gelu, Op::Gelu(a.id))
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&self, a: Var) -> Var {
        self.unary(a, |x| 1.0 / (1.0 + (-x).exp()), Op::Sigmoid(a.id))
    }

    /// Elementwise `tanh`.
    pub fn tanh(&self, a: Var) -> Var {
        self.unary(a, f32::tanh, Op::Tanh(a.id))
    }

    /// Elementwise square.
    pub fn square(&self, a: Var) -> Var {
        self.unary(a, |x| x * x, Op::Square(a.id))
    }

    /// Multiplies by a compile-time scalar.
    pub fn scale(&self, a: Var, c: f32) -> Var {
        self.unary(a, |x| x * c, Op::Scale(a.id, c))
    }

    /// Adds a compile-time scalar.
    pub fn add_scalar(&self, a: Var, c: f32) -> Var {
        self.unary(a, |x| x + c, Op::AddScalar(a.id, c))
    }

    // --------------------------------------------------------- linear algebra

    /// Matrix product `[.., k] × [k, n] → [.., n]`: the left operand has
    /// rank ≥ 2 and every leading axis folds into rows, so a Linear layer
    /// applies along the trailing axis of a `[B, T, k]` input without
    /// reshape copies.
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        let (value, out_shape, needs) = {
            let nodes = self.nodes.borrow();
            let na = &nodes[a.id];
            let nb = &nodes[b.id];
            assert!(na.shape.len() >= 2, "matmul lhs must have rank >= 2, got {}", fmt_shape(&na.shape));
            assert_eq!(nb.shape.len(), 2, "matmul rhs must be 2-D, got {}", fmt_shape(&nb.shape));
            let (m, k) = lhs_rows_cols(&na.shape);
            let (k2, n) = (nb.shape[0], nb.shape[1]);
            assert_eq!(k, k2, "matmul inner dims: {} vs {}", fmt_shape(&na.shape), fmt_shape(&nb.shape));
            let mut value = self.exec.alloc_zeroed(m * n);
            kernels::par_matmul(&self.exec, &na.value, &nb.value, Mkn { m, k, n }, &mut value);
            (value, matmul_out_shape(&na.shape, n), na.needs_grad || nb.needs_grad)
        };
        self.push(value, out_shape, Op::Matmul(a.id, b.id), needs)
    }

    /// Forward-only product against a *quantized* weight: `A·W_q` where `A`
    /// is f32 of rank ≥ 2 (leading axes fold into rows, as in
    /// [`Graph::matmul`]) and `W_q` a [`QuantParam`] (bf16 or int8 +
    /// per-row scales). Panels are dequantized straight into the blocked
    /// kernel's pack buffer with f32 accumulation (see
    /// `kernels::matmul_quant`). The result is pushed as a constant leaf —
    /// quantized weights never receive gradient, so this is a serving-path
    /// op only.
    pub fn matmul_quant(&self, a: Var, w: &QuantParam) -> Var {
        static QUANT_MATMULS: LazyCounter = LazyCounter::new("tensor.quant.matmuls");
        QUANT_MATMULS.inc();
        let (value, out_shape) = {
            let nodes = self.nodes.borrow();
            let na = &nodes[a.id];
            assert!(
                na.shape.len() >= 2,
                "matmul_quant lhs must have rank >= 2, got {}",
                fmt_shape(&na.shape)
            );
            let (m, k) = lhs_rows_cols(&na.shape);
            assert_eq!(
                k, w.shape[0],
                "matmul_quant inner dims: {} vs quantized '{}' {}",
                fmt_shape(&na.shape),
                w.name,
                fmt_shape(&w.shape)
            );
            let n = w.shape[1];
            let mut value = self.exec.alloc_zeroed(m * n);
            kernels::matmul_quant(&self.exec, &na.value, &w.data, Mkn { m, k, n }, &mut value);
            (value, matmul_out_shape(&na.shape, n))
        };
        self.push(value, out_shape, Op::Const, false)
    }

    /// Batched 3-D matrix product `[B,m,k] × [B,k,n] → [B,m,n]`.
    pub fn bmm(&self, a: Var, b: Var) -> Var {
        let (value, out_shape, needs) = {
            let nodes = self.nodes.borrow();
            let na = &nodes[a.id];
            let nb = &nodes[b.id];
            assert_eq!(na.shape.len(), 3, "bmm lhs must be 3-D, got {}", fmt_shape(&na.shape));
            assert_eq!(nb.shape.len(), 3, "bmm rhs must be 3-D, got {}", fmt_shape(&nb.shape));
            let (bsz, m, k) = (na.shape[0], na.shape[1], na.shape[2]);
            let (b2, k2, n) = (nb.shape[0], nb.shape[1], nb.shape[2]);
            assert!(bsz == b2 && k == k2, "bmm shapes: {} vs {}", fmt_shape(&na.shape), fmt_shape(&nb.shape));
            let mut value = self.exec.alloc_zeroed(bsz * m * n);
            kernels::par_bmm::<false, false>(&self.exec, &na.value, &nb.value, bsz, Mkn { m, k, n }, &mut value);
            (value, vec![bsz, m, n], na.needs_grad || nb.needs_grad)
        };
        self.push(value, out_shape, Op::Bmm(a.id, b.id), needs)
    }

    /// Fused scaled-dot-product attention `softmax(Q·Kᵀ·scale)·V` with
    /// `q: [B,Tq,D]`, `k: [B,Tk,D]`, `v: [B,Tk,D] → [B,Tq,D]`.
    ///
    /// Equivalent to the unfused
    /// `bmm(softmax_last(scale(bmm(q, transpose_last(k)), scale)), v)` chain
    /// but computed per query row without materializing the `Tq×Tk` score
    /// tensor on the tape — the tape holds only this one `[B,Tq,D]` node,
    /// and backward recomputes the softmax weights row by row.
    pub fn attention(&self, q: Var, k: Var, v: Var, scale: f32) -> Var {
        let (value, out_shape, needs) = {
            let nodes = self.nodes.borrow();
            let nq = &nodes[q.id];
            let nk = &nodes[k.id];
            let nv = &nodes[v.id];
            assert_eq!(nq.shape.len(), 3, "attention q must be 3-D, got {}", fmt_shape(&nq.shape));
            assert_eq!(nk.shape.len(), 3, "attention k must be 3-D, got {}", fmt_shape(&nk.shape));
            assert_eq!(nv.shape.len(), 3, "attention v must be 3-D, got {}", fmt_shape(&nv.shape));
            let (bsz, tq, d) = (nq.shape[0], nq.shape[1], nq.shape[2]);
            let tk = nk.shape[1];
            assert!(
                nk.shape[0] == bsz && nk.shape[2] == d,
                "attention q/k shapes: {} vs {}",
                fmt_shape(&nq.shape),
                fmt_shape(&nk.shape)
            );
            assert!(
                nv.shape == nk.shape,
                "attention k/v shapes: {} vs {}",
                fmt_shape(&nk.shape),
                fmt_shape(&nv.shape)
            );
            let mut value = self.exec.alloc_zeroed(bsz * tq * d);
            let heads = Heads { bsz, tq, tk, d, scale };
            kernels::par_attention(&self.exec, [&nq.value, &nk.value, &nv.value], heads, &mut value);
            (value, vec![bsz, tq, d], nq.needs_grad || nk.needs_grad || nv.needs_grad)
        };
        static FUSED_ATTENTION: LazyCounter = LazyCounter::new("tensor.fused.attention");
        // Query rows per dispatch: with patch tokenization the sequence
        // length shrinks by patch_len, so rows/dispatches in /metrics shows
        // the token-count reduction directly.
        static FUSED_ATTENTION_ROWS: LazyCounter = LazyCounter::new("tensor.fused.attention_rows");
        FUSED_ATTENTION.inc();
        FUSED_ATTENTION_ROWS.add((out_shape[0] * out_shape[1]) as u64);
        self.push(value, out_shape, Op::Attention { q: q.id, k: k.id, v: v.id, scale }, needs)
    }

    /// Fused `act(x + bias)` where `bias` is a trailing-axes suffix of `x`
    /// (the Linear-then-activation idiom): one tape node instead of two,
    /// with backward recomputing the pre-activation instead of storing it.
    pub fn bias_act(&self, x: Var, bias: Var, kind: kernels::ActKind) -> Var {
        let (value, shape, needs) = {
            let nodes = self.nodes.borrow();
            let nx = &nodes[x.id];
            let nb = &nodes[bias.id];
            assert!(
                is_suffix(&nb.shape, &nx.shape),
                "bias_act: bias {} must be a suffix of x {}",
                fmt_shape(&nb.shape),
                fmt_shape(&nx.shape)
            );
            let (xv, bv) = (&nx.value, &nb.value);
            // One monomorphic loop per activation, so neither re-matches
            // `kind` per element.
            let value = match kind {
                kernels::ActKind::Relu => self.suffix_map(xv, bv, |x, y| {
                    kernels::act_apply(kernels::ActKind::Relu, x + y)
                }),
                kernels::ActKind::Gelu => self.suffix_map(xv, bv, |x, y| {
                    kernels::act_apply(kernels::ActKind::Gelu, x + y)
                }),
            };
            (value, nx.shape.clone(), nx.needs_grad || nb.needs_grad)
        };
        static FUSED_BIAS_ACT: LazyCounter = LazyCounter::new("tensor.fused.bias_act");
        FUSED_BIAS_ACT.inc();
        self.push(value, shape, Op::BiasAct { x: x.id, bias: bias.id, kind }, needs)
    }

    /// Fused `a ⊙ b + c` where `b` and `c` are same-shaped trailing-axes
    /// suffixes of `a` — LayerNorm's `normed·gain + bias` as one tape node
    /// instead of a `Mul` and an `Add`.
    pub fn mul_add(&self, a: Var, b: Var, c: Var) -> Var {
        let (value, shape, needs) = {
            let nodes = self.nodes.borrow();
            let na = &nodes[a.id];
            let nb = &nodes[b.id];
            let nc = &nodes[c.id];
            assert!(
                nb.shape == nc.shape && is_suffix(&nb.shape, &na.shape),
                "mul_add: b {} / c {} must be equal suffixes of a {}",
                fmt_shape(&nb.shape),
                fmt_shape(&nc.shape),
                fmt_shape(&na.shape)
            );
            let m = nb.value.len().max(1);
            let (av, bv, cv) = (&na.value, &nb.value, &nc.value);
            let value = self.fill_rows(av.len() / m, m, m, |dst, r0| {
                for (chunk, src) in dst.chunks_exact_mut(m).zip(av[r0 * m..].chunks_exact(m)) {
                    for (((o, x), y), z) in chunk.iter_mut().zip(src).zip(bv).zip(cv) {
                        *o = x * y + z;
                    }
                }
            });
            (value, na.shape.clone(), na.needs_grad || nb.needs_grad || nc.needs_grad)
        };
        static FUSED_MUL_ADD: LazyCounter = LazyCounter::new("tensor.fused.mul_add");
        FUSED_MUL_ADD.inc();
        self.push(value, shape, Op::MulAdd { a: a.id, b: b.id, c: c.id }, needs)
    }

    /// Swaps the last two axes of a 2-D or 3-D tensor.
    pub fn transpose_last(&self, a: Var) -> Var {
        let (value, out_shape, needs) = {
            let nodes = self.nodes.borrow();
            let na = &nodes[a.id];
            let r = na.shape.len();
            assert!(r == 2 || r == 3, "transpose_last needs rank 2/3, got {}", fmt_shape(&na.shape));
            let (bsz, m, n) = if r == 2 {
                (1, na.shape[0], na.shape[1])
            } else {
                (na.shape[0], na.shape[1], na.shape[2])
            };
            let mut value = self.exec.alloc_zeroed(bsz * m * n);
            kernels::par_transpose(&self.exec, &na.value, bsz, m, n, &mut value);
            let out_shape =
                if r == 2 { vec![n, m] } else { vec![bsz, n, m] };
            (value, out_shape, na.needs_grad)
        };
        self.push(value, out_shape, Op::TransposeLast(a.id), needs)
    }

    /// General axis permutation with data movement.
    pub fn permute(&self, a: Var, axes: &[usize]) -> Var {
        let view = self.shape(a);
        assert_eq!(axes.len(), view.len(), "permute axes rank mismatch");
        let mut seen = vec![false; axes.len()];
        for &ax in axes {
            assert!(ax < axes.len() && !seen[ax], "permute axes must be a permutation");
            seen[ax] = true;
        }
        let out_shape = axes.iter().map(|&ax| view[ax]).collect();
        self.permute_view(a, &view, axes, out_shape)
    }

    /// Splits `[B, T, H·Dh]` into per-head sequences `[B·H, T, Dh]` in one
    /// node: the `[0, 2, 1, 3]` permute of the `[B, T, H, Dh]` view.
    pub fn split_heads(&self, a: Var, heads: usize) -> Var {
        let shape = self.shape(a);
        assert_eq!(shape.len(), 3, "split_heads expects [B,T,D], got {}", fmt_shape(&shape));
        let (b, t, d) = (shape[0], shape[1], shape[2]);
        assert!(heads >= 1 && d % heads == 0, "split_heads: {d} does not divide into {heads} heads");
        let dh = d / heads;
        self.permute_view(a, &[b, t, heads, dh], &[0, 2, 1, 3], vec![b * heads, t, dh])
    }

    /// Inverse of [`Graph::split_heads`]: `[B·H, T, Dh] → [B, T, H·Dh]` in
    /// one node, the `[0, 2, 1, 3]` permute of the `[B, H, T, Dh]` view.
    pub fn merge_heads(&self, a: Var, heads: usize) -> Var {
        let shape = self.shape(a);
        assert_eq!(shape.len(), 3, "merge_heads expects [B*H,T,Dh], got {}", fmt_shape(&shape));
        let (bh, t, dh) = (shape[0], shape[1], shape[2]);
        assert!(heads >= 1 && bh % heads == 0, "merge_heads: {bh} rows do not divide into {heads} heads");
        let b = bh / heads;
        self.permute_view(a, &[b, heads, t, dh], &[0, 2, 1, 3], vec![b, t, heads * dh])
    }

    /// Permutes `a` read as the same-size shape `view` by `axes`, storing
    /// the result under `out_shape` (same size again).
    fn permute_view(&self, a: Var, view: &[usize], axes: &[usize], out_shape: Vec<usize>) -> Var {
        let (value, needs) = {
            let nodes = self.nodes.borrow();
            let na = &nodes[a.id];
            debug_assert_eq!(numel(view), na.value.len(), "permute view changes element count");
            let mut value = self.exec.alloc_empty(na.value.len());
            permute_runs(view, axes, |off, len| value.extend_from_slice(&na.value[off..off + len]));
            (value, na.needs_grad)
        };
        let op = Op::Permute { src: a.id, view: view.to_vec(), axes: axes.to_vec() };
        self.push(value, out_shape, op, needs)
    }

    /// Reinterprets the (contiguous) data with a new shape of equal size.
    pub fn reshape(&self, a: Var, shape: &[usize]) -> Var {
        let (value, needs) = {
            let nodes = self.nodes.borrow();
            let na = &nodes[a.id];
            assert_eq!(
                numel(&na.shape),
                numel(shape),
                "reshape {} -> {} changes element count",
                fmt_shape(&na.shape),
                fmt_shape(shape)
            );
            let mut value = self.exec.alloc_empty(na.value.len());
            value.extend_from_slice(&na.value);
            (value, na.needs_grad)
        };
        self.push(value, shape.to_vec(), Op::Reshape(a.id), needs)
    }

    /// Explicitly broadcasts `a` to `shape` (right-aligned).
    pub fn broadcast_to(&self, a: Var, shape: &[usize]) -> Var {
        let (value, needs) = {
            let nodes = self.nodes.borrow();
            let na = &nodes[a.id];
            assert!(
                broadcastable_to(&na.shape, shape),
                "cannot broadcast {} to {}",
                fmt_shape(&na.shape),
                fmt_shape(shape)
            );
            let vs = broadcast_strides(&na.shape, shape);
            let mut value = self.exec.alloc_empty(numel(shape));
            for off in StridedIter::new(shape, &vs) {
                value.push(na.value[off]);
            }
            (value, na.needs_grad)
        };
        self.push(value, shape.to_vec(), Op::BroadcastTo(a.id), needs)
    }

    // ------------------------------------------------------------ reductions

    /// Softmax over the trailing axis.
    pub fn softmax_last(&self, a: Var) -> Var {
        let (value, shape, needs) = {
            let nodes = self.nodes.borrow();
            let na = &nodes[a.id];
            let d = *na.shape.last().expect("softmax_last needs rank >= 1");
            let mut value = self.exec.alloc_empty(na.value.len());
            value.extend_from_slice(&na.value);
            kernels::par_softmax_rows(&self.exec, &mut value, d);
            (value, na.shape.clone(), na.needs_grad)
        };
        self.push(value, shape, Op::SoftmaxLast(a.id), needs)
    }

    fn reduce_last(&self, a: Var, keepdim: bool, mean: bool) -> Var {
        let (value, out_shape, needs) = {
            let nodes = self.nodes.borrow();
            let na = &nodes[a.id];
            let d = *na.shape.last().expect("reduce over trailing axis needs rank >= 1");
            let rows = na.value.len() / d.max(1);
            let scale = if mean { 1.0 / d as f32 } else { 1.0 };
            let src = &na.value;
            let value = self.fill_rows(rows, 1, d, |dst, r0| {
                for (o, row) in dst.iter_mut().zip(src[r0 * d..].chunks_exact(d)) {
                    *o = row.iter().sum::<f32>() * scale;
                }
            });
            let mut out_shape = na.shape.clone();
            if keepdim {
                *out_shape.last_mut().unwrap() = 1;
            } else {
                out_shape.pop();
            }
            (value, out_shape, na.needs_grad)
        };
        let op = if mean { Op::MeanLast(a.id, keepdim) } else { Op::SumLast(a.id, keepdim) };
        self.push(value, out_shape, op, needs)
    }

    /// Sum over the trailing axis.
    pub fn sum_last(&self, a: Var, keepdim: bool) -> Var {
        self.reduce_last(a, keepdim, false)
    }

    /// Mean over the trailing axis.
    pub fn mean_last(&self, a: Var, keepdim: bool) -> Var {
        self.reduce_last(a, keepdim, true)
    }

    /// Sum of all elements (scalar output).
    pub fn sum_all(&self, a: Var) -> Var {
        let (value, needs) = {
            let nodes = self.nodes.borrow();
            let na = &nodes[a.id];
            let mut value = self.exec.alloc_empty(1);
            value.push(na.value.iter().sum::<f32>());
            (value, na.needs_grad)
        };
        self.push(value, vec![], Op::SumAll(a.id), needs)
    }

    /// Mean of all elements (scalar output).
    pub fn mean_all(&self, a: Var) -> Var {
        let (value, needs) = {
            let nodes = self.nodes.borrow();
            let na = &nodes[a.id];
            let n = na.value.len().max(1);
            let mut value = self.exec.alloc_empty(1);
            value.push(na.value.iter().sum::<f32>() / n as f32);
            (value, na.needs_grad)
        };
        self.push(value, vec![], Op::MeanAll(a.id), needs)
    }

    // --------------------------------------------------------- gather/scatter

    /// Gathers rows along axis 1 of a `[B, T, D]` tensor. `idx` is flattened
    /// `[B, K]` (row indices per batch element); output is `[B, K, D]`.
    pub fn gather_rows(&self, a: Var, idx: &[usize], k: usize) -> Var {
        let (value, out_shape, needs) = {
            let nodes = self.nodes.borrow();
            let na = &nodes[a.id];
            assert_eq!(na.shape.len(), 3, "gather_rows needs [B,T,D], got {}", fmt_shape(&na.shape));
            let (bsz, t, d) = (na.shape[0], na.shape[1], na.shape[2]);
            assert_eq!(idx.len(), bsz * k, "gather_rows index count mismatch");
            let mut value = self.exec.alloc_empty(bsz * k * d);
            for b in 0..bsz {
                for ki in 0..k {
                    let row = idx[b * k + ki];
                    assert!(row < t, "gather_rows index {row} out of range (T={t})");
                    let base = (b * t + row) * d;
                    value.extend_from_slice(&na.value[base..base + d]);
                }
            }
            (value, vec![bsz, k, d], na.needs_grad)
        };
        self.push(value, out_shape, Op::GatherRows { src: a.id, idx: idx.to_vec(), k }, needs)
    }

    /// Scatters rows of a `[B, K, D]` tensor into a zeroed `[B, T, D]`
    /// output along axis 1. Duplicate indices accumulate.
    pub fn scatter_rows(&self, a: Var, idx: &[usize], out_t: usize) -> Var {
        let (value, out_shape, needs) = {
            let nodes = self.nodes.borrow();
            let na = &nodes[a.id];
            assert_eq!(na.shape.len(), 3, "scatter_rows needs [B,K,D], got {}", fmt_shape(&na.shape));
            let (bsz, k, d) = (na.shape[0], na.shape[1], na.shape[2]);
            assert_eq!(idx.len(), bsz * k, "scatter_rows index count mismatch");
            // Serial: duplicate indices may target the same output row, so
            // row-sharding over the *source* would race.
            let mut value = self.exec.alloc_zeroed(bsz * out_t * d);
            for b in 0..bsz {
                for ki in 0..k {
                    let row = idx[b * k + ki];
                    assert!(row < out_t, "scatter_rows index {row} out of range (T={out_t})");
                    let src = (b * k + ki) * d;
                    let dst = (b * out_t + row) * d;
                    for j in 0..d {
                        value[dst + j] += na.value[src + j];
                    }
                }
            }
            (value, vec![bsz, out_t, d], na.needs_grad)
        };
        self.push(value, out_shape, Op::ScatterRows { src: a.id, idx: idx.to_vec(), out_t }, needs)
    }

    // -------------------------------------------------------------- composites

    /// Row-stochastic symmetric KL divergence over the trailing axis:
    /// `Σ_d p·(ln p − ln q) + q·(ln q − ln p)`, reduced over the last dim.
    ///
    /// Inputs must already lie on the simplex (e.g. via
    /// [`Graph::softmax_last`]). Output drops the trailing axis. This is the
    /// contrastive discrepancy of Eq. 14/16.
    pub fn sym_kl_last(&self, p: Var, q: Var) -> Var {
        let lp = self.ln_eps(p);
        let lq = self.ln_eps(q);
        let diff = self.sub(lp, lq);
        let kl_pq = self.sum_last(self.mul(p, diff), false);
        let diff_qp = self.neg(diff);
        let kl_qp = self.sum_last(self.mul(q, diff_qp), false);
        self.add(kl_pq, kl_qp)
    }

    /// Mean squared error between two same-shaped tensors (scalar output).
    pub fn mse(&self, a: Var, b: Var) -> Var {
        let d = self.sub(a, b);
        self.mean_all(self.square(d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_and_scalar_leaves() {
        let g = Graph::new();
        let c = g.constant(vec![1.0, 2.0], vec![2]);
        assert_eq!(g.value(c), vec![1.0, 2.0]);
        assert_eq!(g.shape(c), vec![2]);
        let s = g.scalar(3.5);
        assert_eq!(g.scalar_value(s), 3.5);
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn broadcast_add_bias() {
        let g = Graph::new();
        let x = g.constant(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], vec![2, 3]);
        let b = g.constant(vec![10.0, 20.0, 30.0], vec![3]);
        let y = g.add(x, b);
        assert_eq!(g.value(y), vec![11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn matmul_2d() {
        let g = Graph::new();
        let a = g.constant(vec![1.0, 2.0, 3.0, 4.0], vec![2, 2]);
        let b = g.constant(vec![5.0, 6.0, 7.0, 8.0], vec![2, 2]);
        let c = g.matmul(a, b);
        assert_eq!(g.value(c), vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn bmm_batches_independently() {
        let g = Graph::new();
        let a = g.constant(vec![1.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 2.0], vec![2, 2, 2]);
        let b = g.constant(vec![1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0], vec![2, 2, 2]);
        let c = g.bmm(a, b);
        assert_eq!(g.value(c), vec![1.0, 2.0, 3.0, 4.0, 2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn permute_and_transpose_agree_on_3d() {
        let g = Graph::new();
        let data: Vec<f32> = (0..24).map(|v| v as f32).collect();
        let x = g.constant(data, vec![2, 3, 4]);
        let a = g.transpose_last(x);
        let b = g.permute(x, &[0, 2, 1]);
        assert_eq!(g.value(a), g.value(b));
        assert_eq!(g.shape(a), vec![2, 4, 3]);
    }

    #[test]
    fn softmax_rows_on_tensor() {
        let g = Graph::new();
        let x = g.constant(vec![0.0, 0.0, 1.0, 1.0], vec![2, 2]);
        let y = g.softmax_last(x);
        let v = g.value(y);
        assert!((v[0] - 0.5).abs() < 1e-6 && (v[3] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn reductions() {
        let g = Graph::new();
        let x = g.constant(vec![1.0, 2.0, 3.0, 4.0], vec![2, 2]);
        assert_eq!(g.value(g.sum_last(x, false)), vec![3.0, 7.0]);
        assert_eq!(g.value(g.mean_last(x, true)), vec![1.5, 3.5]);
        assert_eq!(g.shape(g.mean_last(x, true)), vec![2, 1]);
        assert_eq!(g.scalar_value(g.sum_all(x)), 10.0);
        assert_eq!(g.scalar_value(g.mean_all(x)), 2.5);
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let g = Graph::new();
        let data: Vec<f32> = (0..12).map(|v| v as f32).collect();
        let x = g.constant(data.clone(), vec![1, 4, 3]);
        let gathered = g.gather_rows(x, &[1, 3], 2);
        assert_eq!(g.value(gathered), vec![3.0, 4.0, 5.0, 9.0, 10.0, 11.0]);
        let scattered = g.scatter_rows(gathered, &[1, 3], 4);
        let v = g.value(scattered);
        assert_eq!(&v[3..6], &data[3..6]);
        assert_eq!(&v[9..12], &data[9..12]);
        assert!(v[0..3].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn sym_kl_zero_for_identical_distributions() {
        let g = Graph::new();
        let x = g.constant(vec![0.2, 0.8, 0.5, 0.5], vec![2, 2]);
        let kl = g.sym_kl_last(x, x);
        for v in g.value(kl) {
            assert!(v.abs() < 1e-6);
        }
    }

    #[test]
    fn sym_kl_positive_and_symmetric() {
        let g = Graph::new();
        let p = g.constant(vec![0.9, 0.1], vec![1, 2]);
        let q = g.constant(vec![0.1, 0.9], vec![1, 2]);
        let a = g.scalar_value(g.sum_all(g.sym_kl_last(p, q)));
        let b = g.scalar_value(g.sum_all(g.sym_kl_last(q, p)));
        assert!(a > 0.1);
        assert!((a - b).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "broadcast")]
    fn incompatible_broadcast_panics() {
        let g = Graph::new();
        let a = g.constant(vec![0.0; 2], vec![2]);
        let b = g.constant(vec![0.0; 3], vec![3]);
        g.add(a, b);
    }

    #[test]
    fn detach_copies_value() {
        let g = Graph::new();
        let x = g.constant(vec![1.0, 2.0], vec![2]);
        let d = g.detach(x);
        assert_eq!(g.value(d), vec![1.0, 2.0]);
    }

    #[test]
    fn reset_clears_tape_and_reuses_buffers() {
        let g = Graph::new();
        let run = |g: &Graph| {
            let a = g.constant_from(&[1.0, 2.0, 3.0, 4.0], vec![2, 2]);
            let b = g.constant_from(&[5.0, 6.0, 7.0, 8.0], vec![2, 2]);
            g.value(g.matmul(a, b))
        };
        let first = run(&g);
        let misses = g.executor().stats().pool_misses;
        g.reset();
        assert!(g.is_empty());
        // Identical tape after reset: same values, zero new allocations.
        let second = run(&g);
        assert_eq!(first, second);
        let st = g.executor().stats();
        assert_eq!(st.pool_misses, misses, "steady state must be allocation-free");
        assert!(st.pool_hits >= 3);
    }

    #[test]
    fn graphs_sharing_an_executor_share_the_pool() {
        let ex = std::sync::Arc::new(crate::exec::Executor::serial());
        {
            let g1 = Graph::with_executor(ex.clone());
            g1.constant_from(&[0.0; 100], vec![100]);
        } // dropped: buffer returns to the pool
        let g2 = Graph::with_executor(ex.clone());
        g2.constant_from(&[1.0; 100], vec![100]);
        let st = ex.stats();
        assert_eq!(st.pool_misses, 1);
        assert_eq!(st.pool_hits, 1);
    }

    #[test]
    fn parallel_graph_matches_serial_bitwise() {
        let serial = Graph::new();
        let par = Graph::with_executor(std::sync::Arc::new(crate::exec::Executor::with_threads(4)));
        let data: Vec<f32> = (0..6000).map(|i| (i as f32 * 0.37).sin()).collect();
        let run = |g: &Graph| {
            let x = g.constant_from(&data, vec![30, 200]);
            let y = g.gelu(x);
            let s = g.softmax_last(y);
            let m = g.mean_last(s, true);
            let c = g.sub(s, m);
            g.value(g.sum_last(c, false))
        };
        assert_eq!(run(&serial), run(&par));
    }
}
