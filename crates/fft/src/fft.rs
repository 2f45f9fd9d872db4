//! Fast Fourier transform entry points. Every transform runs through a
//! cached [`FftPlan`](crate::plan::FftPlan): iterative radix-2 Cooley–Tukey
//! for power-of-two lengths and Bluestein's chirp-z algorithm for everything
//! else.
//!
//! These transforms power three parts of the reproduction:
//! * Eq. 6 — the DFT behind amplitude-based frequency masking;
//! * Eq. 5 — the Wiener–Khinchin acceleration of sliding statistics;
//! * the `w/o FFT` ablation of Fig. 10 (which falls back to [`crate::dft::dft`]).

use crate::complex::Complex64;

/// Direction of a transform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// `X_k = Σ_t x_t e^{-2πi kt/n}` (no scaling).
    Forward,
    /// `x_t = (1/n) Σ_k X_k e^{+2πi kt/n}` (scaled by `1/n`).
    Inverse,
}

/// Forward FFT of arbitrary length (allocating).
pub fn fft(input: &[Complex64]) -> Vec<Complex64> {
    transform(input, Direction::Forward)
}

/// Inverse FFT of arbitrary length (allocating, scaled by `1/n`).
pub fn ifft(input: &[Complex64]) -> Vec<Complex64> {
    transform(input, Direction::Inverse)
}

/// Forward/inverse FFT dispatching on the length.
///
/// Runs through the process-wide [plan cache](crate::plan::plan_for_len):
/// twiddle factors and bit-reversal tables are computed once per length and
/// reused by every subsequent same-length call.
pub fn transform(input: &[Complex64], dir: Direction) -> Vec<Complex64> {
    crate::plan::plan_for_len(input.len()).process(input, dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::{dft, idft};

    fn max_err(a: &[Complex64], b: &[Complex64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (*x - *y).abs()).fold(0.0, f64::max)
    }

    fn ramp(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|t| Complex64::new((t as f64 * 0.37).sin() + 0.1 * t as f64, (t as f64 * 0.21).cos()))
            .collect()
    }

    #[test]
    fn pow2_matches_naive_dft() {
        for &n in &[1usize, 2, 4, 8, 16, 64, 256] {
            let x = ramp(n);
            let expected = dft(&x);
            let got = fft(&x);
            assert!(max_err(&expected, &got) < 1e-8, "n={n}");
        }
    }

    #[test]
    fn bluestein_matches_naive_dft() {
        for &n in &[3usize, 5, 6, 7, 10, 12, 25, 100, 101] {
            let x = ramp(n);
            let expected = dft(&x);
            let got = fft(&x);
            assert!(max_err(&expected, &got) < 1e-7, "n={n}");
        }
    }

    #[test]
    fn roundtrip_identity() {
        for &n in &[1usize, 2, 7, 16, 100, 127, 128] {
            let x = ramp(n);
            let back = ifft(&fft(&x));
            assert!(max_err(&x, &back) < 1e-8, "n={n}");
        }
    }

    #[test]
    fn inverse_matches_naive_idft() {
        for &n in &[4usize, 9, 100] {
            let x = ramp(n);
            let expected = idft(&x);
            let got = ifft(&x);
            assert!(max_err(&expected, &got) < 1e-8, "n={n}");
        }
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut x = vec![Complex64::ZERO; 32];
        x[0] = Complex64::ONE;
        for z in fft(&x) {
            assert!((z - Complex64::ONE).abs() < 1e-10);
        }
    }

    #[test]
    fn constant_concentrates_at_dc() {
        let x = vec![Complex64::from_re(2.5); 30];
        let spec = fft(&x);
        assert!((spec[0].re - 75.0).abs() < 1e-8);
        for z in &spec[1..] {
            assert!(z.abs() < 1e-8);
        }
    }

    #[test]
    fn empty_input_is_empty() {
        assert!(fft(&[]).is_empty());
        assert!(ifft(&[]).is_empty());
    }

    #[test]
    fn parseval_energy_conservation() {
        let x = ramp(100);
        let spec = fft(&x);
        let et: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let ef: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / 100.0;
        assert!((et - ef).abs() < 1e-6 * et.max(1.0));
    }
}
