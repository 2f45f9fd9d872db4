//! Convolution via FFT.
//!
//! Eq. 5 of the paper rewrites the sliding-window statistics of temporal
//! masking as convolutions with a ones kernel evaluated by FFT
//! (Wiener–Khinchin). This module provides the generic machinery; the
//! masking-specific statistics live in [`crate::stats`].

use std::sync::Arc;

use crate::complex::Complex64;
use crate::fft::Direction;
use crate::plan::{plan_for_len, FftPlan};

/// Full linear convolution of two real sequences (`len = a.len()+b.len()-1`),
/// computed by zero-padded power-of-two FFTs in O((n+m) log(n+m)).
///
/// All three transforms share one cached [plan](crate::plan::plan_for_len),
/// so the sliding statistics that call this at a fixed padded length pay for
/// twiddle construction exactly once.
pub fn convolve_full(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let out_len = a.len() + b.len() - 1;
    let plan = plan_for_len(out_len.next_power_of_two());
    let fb = padded_spectrum(&plan, b);
    convolve_with_spectrum(&plan, a, &fb, out_len)
}

/// Forward transform of `x` zero-padded to the plan's length.
fn padded_spectrum(plan: &FftPlan, x: &[f64]) -> Vec<Complex64> {
    let mut fx = vec![Complex64::ZERO; plan.len()];
    for (slot, &v) in fx.iter_mut().zip(x.iter()) {
        *slot = Complex64::from_re(v);
    }
    plan.process_in_place(&mut fx, Direction::Forward);
    fx
}

/// The first `out_len` samples of `a ∗ b`, given `fb`, the
/// [`padded_spectrum`] of `b` on the same plan.
fn convolve_with_spectrum(plan: &FftPlan, a: &[f64], fb: &[Complex64], out_len: usize) -> Vec<f64> {
    let mut fa = padded_spectrum(plan, a);
    for (x, y) in fa.iter_mut().zip(fb.iter()) {
        *x *= *y;
    }
    plan.process_in_place(&mut fa, Direction::Inverse);
    fa[..out_len].iter().map(|z| z.re).collect()
}

/// The trailing-window sliding sum of [`sliding_sum_fft`] for inputs of one
/// length, with the spectrum of the ones kernel `1^w` computed once and
/// reused for every input (the mean and the mean of squares of Eq. 5).
pub(crate) struct SlidingSumFft {
    w: usize,
    len: usize,
    plan: Arc<FftPlan>,
    ones: Vec<Complex64>,
}

impl SlidingSumFft {
    /// Sliding sums of width `w` (>= 1) over inputs of length `len` (>= 1).
    pub(crate) fn new(len: usize, w: usize) -> Self {
        assert!(w >= 1, "window must be >= 1");
        assert!(len >= 1, "input must be non-empty");
        // The edge-padded input is `len + w − 1` long, its full convolution
        // with the kernel `len + 2(w − 1)`.
        let plan = plan_for_len((len + 2 * (w - 1)).next_power_of_two());
        let ones = padded_spectrum(&plan, &vec![1.0; w]);
        Self { w, len, plan, ones }
    }

    /// `out[t] = Σ_{k=t-w+1..=t} x[k]`, the head edge-padded with `x[0]`.
    pub(crate) fn apply(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.len, "input length mismatch");
        let w = self.w;
        let mut padded = Vec::with_capacity(x.len() + w - 1);
        padded.extend(std::iter::repeat_n(x[0], w - 1));
        padded.extend_from_slice(x);
        let full = convolve_with_spectrum(&self.plan, &padded, &self.ones, padded.len() + w - 1);
        // Alignment: full[i] = Σ_j padded[i-j]·1 covers padded[i-w+1..=i]; the
        // trailing window ending at original index t is at full[t + (w-1)*2 - (w-1)] = full[t + w - 1].
        full[w - 1..w - 1 + x.len()].to_vec()
    }
}

/// Direct O(n·m) convolution — ground truth for tests and the `w/o FFT`
/// ablation path.
pub fn convolve_naive(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0.0; a.len() + b.len() - 1];
    for (i, &x) in a.iter().enumerate() {
        for (j, &y) in b.iter().enumerate() {
            out[i + j] += x * y;
        }
    }
    out
}

/// Trailing-window sliding sum: `out[t] = Σ_{k=t-w+1..=t} x[k]`, with the
/// head edge-padded by repeating `x[0]` (so every window has exactly `w`
/// terms). This is the `F⁻¹(F(s) ⊙ F(θ))` piece of Eq. 5 with θ = 1^w.
pub fn sliding_sum_fft(x: &[f64], w: usize) -> Vec<f64> {
    assert!(w >= 1, "window must be >= 1");
    if x.is_empty() {
        return Vec::new();
    }
    SlidingSumFft::new(x.len(), w).apply(x)
}

/// Same sliding sum computed with explicit loops (O(n·w)).
pub fn sliding_sum_naive(x: &[f64], w: usize) -> Vec<f64> {
    assert!(w >= 1, "window must be >= 1");
    (0..x.len())
        .map(|t| {
            let mut acc = 0.0;
            for k in 0..w {
                let idx = t as isize - k as isize;
                acc += if idx < 0 { x[0] } else { x[idx as usize] };
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_convolution_matches_naive() {
        let a: Vec<f64> = (0..37).map(|t| (t as f64 * 0.3).sin()).collect();
        let b: Vec<f64> = (0..9).map(|t| (t as f64 * 0.9).cos()).collect();
        let fast = convolve_full(&a, &b);
        let slow = convolve_naive(&a, &b);
        assert_eq!(fast.len(), slow.len());
        for (x, y) in fast.iter().zip(slow.iter()) {
            assert!((x - y).abs() < 1e-8);
        }
    }

    #[test]
    fn convolution_with_delta_is_identity() {
        let a = vec![1.0, -2.0, 3.0, 0.5];
        let out = convolve_full(&a, &[1.0]);
        for (x, y) in a.iter().zip(out.iter()) {
            assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn sliding_sum_agreement() {
        let x: Vec<f64> = (0..200).map(|t| (t as f64 * 0.11).sin() * 3.0 + 1.0).collect();
        for &w in &[1usize, 2, 5, 10, 33] {
            let fast = sliding_sum_fft(&x, w);
            let slow = sliding_sum_naive(&x, w);
            assert_eq!(fast.len(), x.len());
            for (a, b) in fast.iter().zip(slow.iter()) {
                assert!((a - b).abs() < 1e-7, "w={w}");
            }
        }
    }

    #[test]
    fn sliding_sum_window_one_is_identity() {
        let x = vec![3.0, 1.0, 4.0, 1.0, 5.0];
        let out = sliding_sum_fft(&x, 1);
        for (a, b) in x.iter().zip(out.iter()) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn sliding_sum_of_constant() {
        let x = vec![2.0; 50];
        let out = sliding_sum_fft(&x, 10);
        assert!(out.iter().all(|&v| (v - 20.0).abs() < 1e-8));
    }

    #[test]
    fn empty_inputs() {
        assert!(convolve_full(&[], &[1.0]).is_empty());
        assert!(convolve_full(&[1.0], &[]).is_empty());
        assert!(sliding_sum_fft(&[], 3).is_empty());
    }
}
