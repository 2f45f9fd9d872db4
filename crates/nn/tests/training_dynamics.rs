//! Training-dynamics integration tests for the NN substrate: real
//! optimization problems solved end-to-end through the tape.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tfmae_nn::{Activation, Adam, Ctx, FeedForward, Linear, TransformerConfig, TransformerStack};
use tfmae_tensor::{Graph, ParamStore};

#[test]
fn linear_regression_recovers_weights() {
    // y = 2x₀ − 3x₁ + 0.5
    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(1);
    let lin = Linear::new(&mut ps, &mut rng, "l", 2, 1);
    let mut opt = Adam::new(&ps, 0.05);

    for _ in 0..400 {
        let xs: Vec<f32> = (0..16).flat_map(|_| {
            let a: f32 = rng.gen_range(-1.0..1.0);
            let b: f32 = rng.gen_range(-1.0..1.0);
            [a, b]
        }).collect();
        let ys: Vec<f32> = xs.chunks(2).map(|p| 2.0 * p[0] - 3.0 * p[1] + 0.5).collect();
        let g = Graph::new();
        let ctx = Ctx::train(&g, &ps, 0);
        let x = g.constant(xs, vec![16, 2]);
        let y = g.constant(ys, vec![16, 1]);
        let pred = lin.forward(&ctx, x);
        let loss = g.mse(pred, y);
        g.backward_params(loss, &mut ps);
        opt.step(&mut ps);
    }
    let w = &ps.get(lin.w).data;
    let b = &ps.get(lin.b.unwrap()).data;
    assert!((w[0] - 2.0).abs() < 0.05, "w0={}", w[0]);
    assert!((w[1] + 3.0).abs() < 0.05, "w1={}", w[1]);
    assert!((b[0] - 0.5).abs() < 0.05, "b={}", b[0]);
}

#[test]
fn mlp_fits_nonlinear_function() {
    // y = sin(3x): a ReLU MLP should fit on [-1, 1].
    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(2);
    let ffn = FeedForward::new(&mut ps, &mut rng, "f", 1, 32, Activation::Relu);
    let head = Linear::new(&mut ps, &mut rng, "h", 1, 1);
    let mut opt = Adam::new(&ps, 0.01);

    let mut final_loss = f32::MAX;
    for _ in 0..600 {
        let xs: Vec<f32> = (0..64).map(|i| -1.0 + 2.0 * i as f32 / 63.0).collect();
        let ys: Vec<f32> = xs.iter().map(|&x| (3.0 * x).sin()).collect();
        let g = Graph::new();
        let ctx = Ctx::train(&g, &ps, 0);
        let x = g.constant(xs, vec![1, 64, 1]);
        let y = g.constant(ys, vec![1, 64, 1]);
        let h = ffn.forward(&ctx, x);
        let h2 = g.reshape(h, &[64, 1]);
        let pred = g.reshape(head.forward(&ctx, h2), &[1, 64, 1]);
        // Residual connection so identity information survives.
        let pred = g.add(pred, x);
        let loss = g.mse(pred, y);
        final_loss = g.scalar_value(loss);
        g.backward_params(loss, &mut ps);
        opt.step(&mut ps);
    }
    assert!(final_loss < 0.01, "MLP failed to fit sin(3x): loss={final_loss}");
}

#[test]
fn transformer_learns_sequence_reconstruction() {
    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(3);
    let cfg = TransformerConfig {
        d_model: 16,
        heads: 2,
        d_ff: 32,
        layers: 1,
        activation: Activation::Gelu,
    };
    let proj = Linear::new(&mut ps, &mut rng, "in", 1, 16);
    let stack = TransformerStack::new(&mut ps, &mut rng, "enc", &cfg);
    let head = Linear::new(&mut ps, &mut rng, "out", 16, 1);
    let mut opt = Adam::new(&ps, 3e-3);

    let make = |rng: &mut StdRng| -> Vec<f32> {
        let phase: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
        (0..24).map(|t| (t as f32 * 0.5 + phase).sin()).collect()
    };
    let mut losses = Vec::new();
    for _ in 0..200 {
        let xs: Vec<f32> = (0..4).flat_map(|_| make(&mut rng)).collect();
        let g = Graph::new();
        let ctx = Ctx::train(&g, &ps, 0);
        let x = g.constant(xs.clone(), vec![4, 24, 1]);
        let h = proj.forward(&ctx, x);
        let h = stack.forward(&ctx, h);
        let pred = head.forward(&ctx, h);
        let loss = g.mse(pred, x);
        losses.push(g.scalar_value(loss));
        g.backward_params(loss, &mut ps);
        opt.step(&mut ps);
    }
    let early: f32 = losses[..10].iter().sum::<f32>() / 10.0;
    let late: f32 = losses[losses.len() - 10..].iter().sum::<f32>() / 10.0;
    assert!(late < early * 0.2, "transformer did not learn: {early} -> {late}");
}

#[test]
fn train_and_eval_forwards_are_identical() {
    // No layer draws randomness, so a training step's forward is the
    // inference forward at every seed.
    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(4);
    let cfg = TransformerConfig { d_model: 8, heads: 2, d_ff: 16, layers: 1, activation: Activation::Gelu };
    let stack = TransformerStack::new(&mut ps, &mut rng, "enc", &cfg);
    let data: Vec<f32> = (0..2 * 6 * 8).map(|i| (i as f32 * 0.1).sin()).collect();

    let run = |training: bool, seed: u64| {
        let g = Graph::new();
        let ctx = if training { Ctx::train(&g, &ps, seed) } else { Ctx::eval(&g, &ps) };
        let x = g.constant(data.clone(), vec![2, 6, 8]);
        g.value(stack.forward(&ctx, x))
    };
    let eval = run(false, 0);
    assert_eq!(run(true, 1), eval, "train-mode forward must equal eval");
    assert_eq!(run(true, 2), eval, "train-mode forward must not depend on the seed");
}
