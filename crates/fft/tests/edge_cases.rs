//! Edge-case tests for the FFT substrate.

use tfmae_fft::{
    bottom_k_indices, fft, ifft, irfft, rfft, rfft_len, sliding_cv_fft, sliding_mean_fft,
    top_k_indices, Complex64,
};

#[test]
fn single_sample_transforms() {
    let x = [Complex64::new(3.0, -1.0)];
    assert_eq!(fft(&x), vec![Complex64::new(3.0, -1.0)]);
    assert_eq!(ifft(&x), vec![Complex64::new(3.0, -1.0)]);
    let r = rfft(&[5.0]);
    assert_eq!(r.len(), 1);
    assert_eq!(irfft(&r, 1), vec![5.0]);
}

#[test]
fn prime_lengths_roundtrip() {
    for &n in &[2usize, 3, 5, 7, 11, 13, 17, 97, 101, 251] {
        let x: Vec<f64> = (0..n).map(|t| (t as f64 * 0.83).sin() + 0.1).collect();
        let back = irfft(&rfft(&x), n);
        for (a, b) in x.iter().zip(back.iter()) {
            assert!((a - b).abs() < 1e-7, "n={n}");
        }
    }
}

#[test]
fn large_power_of_two_roundtrip() {
    let n = 1 << 14;
    let x: Vec<Complex64> =
        (0..n).map(|t| Complex64::new((t as f64 * 0.001).sin(), (t as f64 * 0.002).cos())).collect();
    let back = ifft(&fft(&x));
    let err = x.iter().zip(back.iter()).map(|(a, b)| (*a - *b).abs()).fold(0.0, f64::max);
    assert!(err < 1e-7, "max err {err}");
}

#[test]
fn constant_signal_cv_is_zero_even_with_negative_mean() {
    let x = vec![-4.0; 64];
    let cv = sliding_cv_fft(&x, 10);
    assert!(cv.iter().all(|&v| v.abs() < 1e-6));
}

#[test]
fn sliding_mean_of_linear_ramp() {
    let x: Vec<f64> = (0..50).map(|t| t as f64).collect();
    let m = sliding_mean_fft(&x, 5);
    // Interior trailing window mean of a ramp is t − 2.
    for (t, &v) in m.iter().enumerate().skip(10) {
        assert!((v - (t as f64 - 2.0)).abs() < 1e-6, "t={t}");
    }
}

#[test]
fn top_bottom_k_are_complementary_on_distinct_values() {
    let v: Vec<f64> = (0..10).map(|i| ((i * 7) % 10) as f64).collect();
    let top = top_k_indices(&v, 10);
    let bottom = bottom_k_indices(&v, 10);
    let rev: Vec<usize> = bottom.into_iter().rev().collect();
    assert_eq!(top, rev);
}

#[test]
fn rfft_len_edge() {
    assert_eq!(rfft_len(1), 1);
    assert_eq!(rfft_len(2), 2);
    assert_eq!(rfft_len(3), 2);
}

#[test]
fn nyquist_tone_survives_roundtrip() {
    // Alternating ±1 = pure Nyquist for even n.
    let n = 32;
    let x: Vec<f64> = (0..n).map(|t| if t % 2 == 0 { 1.0 } else { -1.0 }).collect();
    let spec = rfft(&x);
    assert!((spec[n / 2].re - n as f64).abs() < 1e-8);
    let back = irfft(&spec, n);
    for (a, b) in x.iter().zip(back.iter()) {
        assert!((a - b).abs() < 1e-8);
    }
}

#[test]
fn cv_handles_very_long_series() {
    let n = 100_000;
    let x: Vec<f64> = (0..n).map(|t| (t as f64 * 0.01).sin() + 2.0).collect();
    let cv = sliding_cv_fft(&x, 10);
    assert_eq!(cv.len(), n);
    assert!(cv.iter().all(|v| v.is_finite()));
}
