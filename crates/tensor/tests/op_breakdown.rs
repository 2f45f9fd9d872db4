//! The per-op breakdown: with recording on, `tensor.op.<name>.calls`
//! equals the tape's node count per op variant and `.ns` accumulates time;
//! the backward sweep counts `.bwd_calls` once per node it visits and
//! accumulates `.bwd_ns`; with recording off nothing is registered or
//! counted. One test in its own binary, because the switch and the
//! registry are process-global.

use tfmae_obs::Instrument;
use tfmae_tensor::{ActKind, Graph, ParamId, ParamStore};

/// Every `tensor.op.*` counter in the global registry.
fn op_counters() -> Vec<(&'static str, u64)> {
    tfmae_obs::global()
        .instruments()
        .into_iter()
        .filter(|(name, _)| name.starts_with("tensor.op."))
        .map(|(name, inst)| match inst {
            Instrument::Counter(c) => (name, c.get()),
            _ => panic!("{name} is not a counter"),
        })
        .collect()
}

fn build(g: &Graph) {
    let x = g.constant_from(&[0.5, -1.0, 2.0, 0.25, 1.5, -0.75], vec![2, 3]);
    let w = g.constant_from(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], vec![3, 2]);
    let b = g.constant_from(&[0.1, -0.1], vec![2]);
    let y = g.bias_act(g.matmul(x, w), b, ActKind::Gelu);
    let m = g.mean_last(y, true);
    g.sum_all(g.sub(y, m));
}

/// The same tape with `w` and `b` as parameters, differentiated. Every
/// node but the constant `x` needs a gradient and is on the loss's path.
fn build_and_backward(g: &Graph, ps: &ParamStore) {
    let x = g.constant_from(&[0.5, -1.0, 2.0, 0.25, 1.5, -0.75], vec![2, 3]);
    let (w, b) = (g.param(ps, ParamId(0)), g.param(ps, ParamId(1)));
    let y = g.bias_act(g.matmul(x, w), b, ActKind::Gelu);
    let m = g.mean_last(y, true);
    let loss = g.sum_all(g.sub(y, m));
    g.recycle_gradients(g.backward(loss));
}

/// Backward visits per variant of one [`build_and_backward`].
const SWEPT: &[(&str, u64)] =
    &[("param", 2), ("matmul", 1), ("bias_act", 1), ("mean_last", 1), ("sub", 1), ("sum_all", 1)];

#[test]
fn per_op_counters_follow_the_obs_switch() {
    let mut ps = ParamStore::new();
    ps.add("w", vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], vec![3, 2]);
    ps.add("b", vec![0.1, -0.1], vec![2]);

    tfmae_obs::set_enabled(false);
    let g = Graph::new();
    build(&g);
    build_and_backward(&Graph::new(), &ps);
    assert!(op_counters().is_empty(), "recorded while disabled: {:?}", op_counters());

    // One tape: each sweep visits only its own loss's nodes, since the
    // earlier ones receive no gradient from it.
    tfmae_obs::set_enabled(true);
    let g = Graph::new();
    build(&g);
    build(&g);
    build_and_backward(&g, &ps);
    build_and_backward(&g, &ps);
    tfmae_obs::set_enabled(false);

    let tape = g.op_counts();
    let recorded = op_counters();
    let get = |name: &str| recorded.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
    for (name, count) in &tape {
        let calls = format!("tensor.op.{name}.calls");
        assert_eq!(get(&calls), Some(*count as u64), "{calls}");
    }
    let forward: Vec<_> =
        recorded.iter().filter(|(n, _)| n.ends_with(".calls") || n.ends_with(".ns")).collect();
    // Only variants on the tape appear, each with a calls and an ns counter.
    assert_eq!(forward.len(), 2 * tape.len(), "{recorded:?}");
    let total_ns: u64 = recorded.iter().filter(|(n, _)| n.ends_with(".ns")).map(|(_, v)| v).sum();
    assert!(total_ns > 0, "no time recorded");

    // Backward: one call per swept node, over the two sweeps.
    for (name, count) in SWEPT {
        let calls = format!("tensor.op.{name}.bwd_calls");
        assert_eq!(get(&calls), Some(2 * count), "{calls}");
    }
    let backward: Vec<_> = recorded.iter().filter(|(n, _)| n.contains(".bwd_")).collect();
    assert_eq!(backward.len(), 2 * SWEPT.len(), "only swept variants appear: {backward:?}");
    let bwd_ns: u64 = backward.iter().filter(|(n, _)| n.ends_with(".bwd_ns")).map(|(_, v)| v).sum();
    assert!(bwd_ns > 0, "no backward time recorded");

    // Disabled again: a further tape and sweep change nothing.
    build(&Graph::new());
    build_and_backward(&Graph::new(), &ps);
    assert_eq!(op_counters(), recorded);
}
