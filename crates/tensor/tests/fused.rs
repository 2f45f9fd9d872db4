//! Fused-kernel acceptance tests: every fused op must (a) match its unfused
//! graph chain within 1e-5 in the forward pass and (b) pass the
//! finite-difference gradient oracle in `check.rs` — which also verifies the
//! pooled/parallel backward reproduces the serial gradients bitwise.

use tfmae_tensor::check::assert_grads_close;
use tfmae_tensor::{ActKind, Graph, ParamStore};

fn rndvec(n: usize, seed: u32) -> Vec<f32> {
    (0..n).map(|i| ((i as f32 * 12.9898 + seed as f32).sin() * 43758.547).fract() - 0.5).collect()
}

fn assert_parity(fused: &[f32], unfused: &[f32], what: &str) {
    assert_eq!(fused.len(), unfused.len(), "{what}: length");
    for (i, (a, b)) in fused.iter().zip(unfused.iter()).enumerate() {
        assert!((a - b).abs() < 1e-5, "{what}[{i}]: fused {a} vs unfused {b}");
    }
}

#[test]
fn fused_attention_forward_matches_unfused_chain() {
    let g = Graph::new();
    let (bsz, tq, tk, d) = (3usize, 7, 5, 8);
    let scale = 1.0 / (d as f32).sqrt();
    let q = g.constant(rndvec(bsz * tq * d, 1), vec![bsz, tq, d]);
    let k = g.constant(rndvec(bsz * tk * d, 2), vec![bsz, tk, d]);
    let v = g.constant(rndvec(bsz * tk * d, 3), vec![bsz, tk, d]);
    let fused = g.value(g.attention(q, k, v, scale));
    let kt = g.transpose_last(k);
    let weights = g.softmax_last(g.scale(g.bmm(q, kt), scale));
    let unfused = g.value(g.bmm(weights, v));
    assert_parity(&fused, &unfused, "attention");
}

#[test]
fn fused_attention_gradients_check_out() {
    let mut ps = ParamStore::new();
    let (bsz, t, d) = (2usize, 4, 6);
    let qid = ps.add("q", rndvec(bsz * t * d, 11), vec![bsz, t, d]);
    let kid = ps.add("k", rndvec(bsz * t * d, 12), vec![bsz, t, d]);
    let vid = ps.add("v", rndvec(bsz * t * d, 13), vec![bsz, t, d]);
    assert_grads_close(&mut ps, 1e-2, 3e-2, |g, ps| {
        let q = g.param(ps, qid);
        let k = g.param(ps, kid);
        let v = g.param(ps, vid);
        let y = g.attention(q, k, v, 1.0 / (d as f32).sqrt());
        g.mean_all(g.square(y))
    });
}

#[test]
fn fused_attention_gradients_with_aliased_qkv() {
    // q = k = v = the same node: the backward fold must accumulate all
    // three contributions into one gradient slot.
    let mut ps = ParamStore::new();
    let (bsz, t, d) = (1usize, 5, 4);
    let xid = ps.add("x", rndvec(bsz * t * d, 21), vec![bsz, t, d]);
    assert_grads_close(&mut ps, 1e-2, 3e-2, |g, ps| {
        let x = g.param(ps, xid);
        let y = g.attention(x, x, x, 0.5);
        g.mean_all(g.square(y))
    });
}

#[test]
fn bias_act_forward_matches_unfused_chain() {
    let g = Graph::new();
    let x = g.constant(rndvec(6 * 5, 31), vec![6, 5]);
    let b = g.constant(rndvec(5, 32), vec![5]);
    assert_parity(
        &g.value(g.bias_act(x, b, ActKind::Gelu)),
        &g.value(g.gelu(g.add(x, b))),
        "bias_gelu",
    );
    assert_parity(
        &g.value(g.bias_act(x, b, ActKind::Relu)),
        &g.value(g.relu(g.add(x, b))),
        "bias_relu",
    );
}

#[test]
fn bias_act_gradients_check_out() {
    let mut ps = ParamStore::new();
    let xid = ps.add("x", rndvec(4 * 3, 41), vec![4, 3]);
    let bid = ps.add("b", rndvec(3, 42), vec![3]);
    for kind in [ActKind::Gelu, ActKind::Relu] {
        assert_grads_close(&mut ps, 1e-2, 3e-2, |g, ps| {
            let x = g.param(ps, xid);
            let b = g.param(ps, bid);
            g.mean_all(g.square(g.bias_act(x, b, kind)))
        });
    }
}

#[test]
fn mul_add_forward_matches_unfused_chain() {
    let g = Graph::new();
    let a = g.constant(rndvec(2 * 7 * 4, 51), vec![2, 7, 4]);
    let b = g.constant(rndvec(4, 52), vec![4]);
    let c = g.constant(rndvec(4, 53), vec![4]);
    assert_parity(
        &g.value(g.mul_add(a, b, c)),
        &g.value(g.add(g.mul(a, b), c)),
        "mul_add",
    );
}

#[test]
fn mul_add_gradients_check_out() {
    let mut ps = ParamStore::new();
    let aid = ps.add("a", rndvec(3 * 4, 61), vec![3, 4]);
    let bid = ps.add("b", rndvec(4, 62), vec![4]);
    let cid = ps.add("c", rndvec(4, 63), vec![4]);
    assert_grads_close(&mut ps, 1e-2, 2e-2, |g, ps| {
        let a = g.param(ps, aid);
        let b = g.param(ps, bid);
        let c = g.param(ps, cid);
        g.mean_all(g.square(g.mul_add(a, b, c)))
    });
}

#[test]
fn blocked_matmul_backward_gradients_check_out() {
    // 16×32×48 = 24576 multiply-adds with every dimension ≥ the panel
    // width: comfortably above the blocked-kernel threshold, so forward *and*
    // both backward accumulations (acc_nt, acc_tn) run through the packed
    // micro-kernel.
    let mut ps = ParamStore::new();
    let (m, k, n) = (16usize, 32, 48);
    let aid = ps.add("a", rndvec(m * k, 71), vec![m, k]);
    let bid = ps.add("b", rndvec(k * n, 72), vec![k, n]);
    assert_grads_close(&mut ps, 1e-2, 2e-2, |g, ps| {
        let a = g.param(ps, aid);
        let b = g.param(ps, bid);
        g.mean_all(g.square(g.matmul(a, b)))
    });
}
