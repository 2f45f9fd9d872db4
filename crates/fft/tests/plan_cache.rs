//! Plan-cache acceptance tests: exhaustive agreement with the naive DFT
//! oracle over every length the detector can issue in a 256-sample window,
//! plan-object identity for repeated same-length calls, and the planned
//! roundtrip.

use std::sync::Arc;

use tfmae_fft::dft::{dft, idft};
use tfmae_fft::{plan_for_len, Complex64, Direction};

fn sig(n: usize, seed: u64) -> Vec<Complex64> {
    // Deterministic pseudo-random complex samples (no RNG dependency).
    (0..n)
        .map(|t| {
            let a = (t as f64 * 0.737 + seed as f64 * 1.13).sin();
            let b = (t as f64 * 1.291 + seed as f64 * 0.71).cos();
            Complex64::new(a + 0.25 * b, b - 0.5 * a)
        })
        .collect()
}

fn max_err(a: &[Complex64], b: &[Complex64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (*x - *y).abs()).fold(0.0, f64::max)
}

#[test]
fn planned_forward_matches_naive_dft_for_all_lengths_up_to_256() {
    for n in 1..=256usize {
        let x = sig(n, n as u64);
        let want = dft(&x);
        let got = plan_for_len(n).process(&x, Direction::Forward);
        let scale = 1.0 + want.iter().map(|z| z.abs()).fold(0.0, f64::max);
        assert!(max_err(&want, &got) < 1e-8 * scale, "forward n={n}");
    }
}

#[test]
fn planned_inverse_matches_naive_idft_for_all_lengths_up_to_256() {
    for n in 1..=256usize {
        let x = sig(n, 1000 + n as u64);
        let want = idft(&x);
        let got = plan_for_len(n).process(&x, Direction::Inverse);
        let scale = 1.0 + want.iter().map(|z| z.abs()).fold(0.0, f64::max);
        assert!(max_err(&want, &got) < 1e-8 * scale, "inverse n={n}");
    }
}

#[test]
fn repeated_same_length_calls_share_one_plan_object() {
    for &n in &[7usize, 64, 100, 256] {
        let first = plan_for_len(n);
        for _ in 0..10 {
            assert!(Arc::ptr_eq(&first, &plan_for_len(n)), "n={n} must reuse its cached plan");
        }
    }
}

#[test]
fn roundtrip_through_plans_is_identity() {
    for n in 1..=64usize {
        let x = sig(n, 77 + n as u64);
        let plan = plan_for_len(n);
        let back = plan.process(&plan.process(&x, Direction::Forward), Direction::Inverse);
        assert!(max_err(&x, &back) < 1e-9 * (1.0 + n as f64), "roundtrip n={n}");
    }
}
