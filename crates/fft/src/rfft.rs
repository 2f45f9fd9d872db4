//! Real-input FFT and its inverse.
//!
//! The frequency-masking branch of TFMAE (Eq. 6–10) transforms each real
//! feature channel, manipulates the half-spectrum, and synthesizes a real
//! signal back. Working on the half-spectrum (`n/2 + 1` bins) keeps the
//! conjugate-symmetry constraint explicit: whatever the model writes into a
//! bin is mirrored into its conjugate twin on synthesis, so the inverse is
//! always real-valued.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::complex::Complex64;
use crate::fft::{fft, ifft};

/// Number of half-spectrum bins for a real signal of length `n`.
#[inline]
pub fn rfft_len(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n / 2 + 1
    }
}

/// Forward real FFT: returns the first `n/2 + 1` bins of the full DFT.
pub fn rfft(input: &[f64]) -> Vec<Complex64> {
    let buf: Vec<Complex64> = input.iter().map(|&x| Complex64::from_re(x)).collect();
    let full = fft(&buf);
    full[..rfft_len(input.len())].to_vec()
}

/// Inverse real FFT: reconstructs a length-`n` real signal from `n/2 + 1`
/// half-spectrum bins, enforcing conjugate symmetry.
///
/// No serving or training path calls it: the frequency mask subtracts the
/// masked bins' synthesis from the window instead. It stays as the oracle
/// that masking tests compare against, as [`dft`](crate::dft::dft) does.
///
/// # Panics
/// Panics if `half.len() != rfft_len(n)`.
pub fn irfft(half: &[Complex64], n: usize) -> Vec<f64> {
    assert_eq!(half.len(), rfft_len(n), "half-spectrum length mismatch for n={n}");
    if n == 0 {
        return Vec::new();
    }
    let mut full = vec![Complex64::ZERO; n];
    full[..half.len()].copy_from_slice(half);
    for k in 1..n - half.len() + 1 {
        // Mirror bins (n-k) = conj(bin k); covers k in 1..ceil(n/2).
        full[n - k] = half[k].conj();
    }
    // DC must be real; for even n the Nyquist bin must be real too. Force
    // them so arbitrary learnable spectra still synthesize real signals.
    full[0].im = 0.0;
    if n.is_multiple_of(2) {
        full[n / 2].im = 0.0;
    }
    ifft(&full).into_iter().map(|z| z.re).collect()
}

/// Amplitudes `|X_k|` of the half-spectrum of a real signal (Eq. 7).
pub fn amplitude_spectrum(input: &[f64]) -> Vec<f64> {
    rfft(input).into_iter().map(|z| z.abs()).collect()
}

/// Incrementally maintained half-spectrum of the last `n` samples of a real
/// stream (the sliding-DFT recurrence).
///
/// When the length-`n` window advances by one sample, every bin updates as
///
/// ```text
/// X'_k = (X_k − x_old + x_new) · e^{+j·2πk/n}
/// ```
///
/// which is O(n) total per arriving sample over the `n/2 + 1` half-spectrum
/// bins — versus O(n log n) for a fresh [`rfft`] per hop. The recurrence
/// multiplies by a unit-magnitude twiddle every step, so rounding error
/// grows slowly with stream length; callers should re-seed with
/// [`SlidingDft::init`] on a periodic refresh cadence (the serving engine
/// defaults to every few dozen hops), which snaps the state back to an exact
/// [`rfft`] of the retained window.
///
/// The twiddles depend on `n` alone, so every sliding DFT of one length
/// shares one process-wide table: a stream of `D` channels holds `D`
/// spectra and no twiddles of its own.
#[derive(Clone, Debug)]
pub struct SlidingDft {
    n: usize,
    /// Half-spectrum bins, length `n/2 + 1`.
    spec: Vec<Complex64>,
    /// Per-bin advance twiddles `e^{+j·2πk/n}`, shared per length.
    twiddle: Arc<[Complex64]>,
    warm: bool,
}

/// The process-wide advance-twiddle table for window length `n`: repeated
/// calls with the same length return clones of the same `Arc`.
fn advance_twiddles(n: usize) -> Arc<[Complex64]> {
    static TABLES: OnceLock<Mutex<HashMap<usize, Arc<[Complex64]>>>> = OnceLock::new();
    let tables = TABLES.get_or_init(|| Mutex::new(HashMap::new()));
    let mut tables = tables.lock().expect("sliding-DFT twiddle cache poisoned");
    tables
        .entry(n)
        .or_insert_with(|| {
            (0..rfft_len(n))
                .map(|k| {
                    let w = 2.0 * std::f64::consts::PI * k as f64 / n as f64;
                    let (s, c) = w.sin_cos();
                    Complex64::new(c, s)
                })
                .collect()
        })
        .clone()
}

impl SlidingDft {
    /// Creates a cold sliding DFT for window length `n` (>= 1).
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "window length must be >= 1");
        Self { n, spec: vec![Complex64::ZERO; rfft_len(n)], twiddle: advance_twiddles(n), warm: false }
    }

    /// Window length `n`.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the window length is zero (never; kept for clippy symmetry).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Whether [`SlidingDft::init`] has seeded the spectrum.
    pub fn is_warm(&self) -> bool {
        self.warm
    }

    /// Heap bytes held by this window's spectrum (memory accounting). The
    /// shared twiddle table belongs to no one window and is not counted.
    pub fn heap_bytes(&self) -> usize {
        self.spec.capacity() * std::mem::size_of::<Complex64>()
    }

    /// Seeds (or re-seeds) the spectrum with an exact [`rfft`] of `window`.
    ///
    /// # Panics
    /// Panics if `window.len() != n`.
    pub fn init(&mut self, window: &[f64]) {
        assert_eq!(window.len(), self.n, "window length mismatch");
        self.spec = rfft(window);
        self.warm = true;
    }

    /// Advances the window by one sample: `x_old` leaves the head, `x_new`
    /// enters the tail. O(n/2 + 1).
    ///
    /// # Panics
    /// Panics if the spectrum has not been seeded with [`SlidingDft::init`].
    pub fn slide(&mut self, x_old: f64, x_new: f64) {
        assert!(self.warm, "init before slide");
        let delta = x_new - x_old;
        for (z, &t) in self.spec.iter_mut().zip(self.twiddle.iter()) {
            *z = (*z + Complex64::from_re(delta)) * t;
        }
    }

    /// The current half-spectrum (length `n/2 + 1`).
    pub fn spectrum(&self) -> &[Complex64] {
        &self.spec
    }

    /// Drops the seeded spectrum (stream quarantine / re-warm).
    pub fn reset(&mut self) {
        self.warm = false;
        for z in self.spec.iter_mut() {
            *z = Complex64::ZERO;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(n: usize) -> Vec<f64> {
        (0..n).map(|t| (t as f64 * 0.13).sin() + 0.5 * (t as f64 * 0.71).cos() + 0.2).collect()
    }

    #[test]
    fn roundtrip_even_and_odd_lengths() {
        for &n in &[1usize, 2, 3, 4, 5, 16, 99, 100] {
            let x = sig(n);
            let back = irfft(&rfft(&x), n);
            for (a, b) in x.iter().zip(back.iter()) {
                assert!((a - b).abs() < 1e-8, "n={n}");
            }
        }
    }

    #[test]
    fn rfft_len_formula() {
        assert_eq!(rfft_len(0), 0);
        assert_eq!(rfft_len(1), 1);
        assert_eq!(rfft_len(2), 2);
        assert_eq!(rfft_len(100), 51);
        assert_eq!(rfft_len(101), 51);
    }

    #[test]
    fn irfft_of_modified_spectrum_is_real_and_finite() {
        let x = sig(100);
        let mut spec = rfft(&x);
        // Stomp arbitrary complex values into several bins, as the learnable
        // frequency mask does (Eq. 9), and check synthesis stays well-formed.
        spec[0] = Complex64::new(3.0, 9.0);
        spec[10] = Complex64::new(-1.0, 2.0);
        spec[50] = Complex64::new(0.5, -0.5);
        let y = irfft(&spec, 100);
        assert_eq!(y.len(), 100);
        assert!(y.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn amplitude_of_pure_tone_peaks_at_its_bin() {
        let n = 64;
        let f = 5;
        let x: Vec<f64> =
            (0..n).map(|t| (2.0 * std::f64::consts::PI * f as f64 * t as f64 / n as f64).sin()).collect();
        let amp = amplitude_spectrum(&x);
        let argmax = amp
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        assert_eq!(argmax, f);
    }

    #[test]
    fn sliding_dft_tracks_fresh_rfft() {
        for &n in &[16usize, 32, 100, 101] {
            let stream: Vec<f64> = (0..n + 300)
                .map(|t| (t as f64 * 0.17).sin() + 0.4 * (t as f64 * 0.59).cos() + 0.1)
                .collect();
            let mut sd = SlidingDft::new(n);
            sd.init(&stream[..n]);
            for s in 0..300 {
                sd.slide(stream[s], stream[s + n]);
                let fresh = rfft(&stream[s + 1..s + 1 + n]);
                for (a, b) in sd.spectrum().iter().zip(fresh.iter()) {
                    assert!(
                        (a.re - b.re).abs() < 1e-8 && (a.im - b.im).abs() < 1e-8,
                        "n={n} slide={s}: {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn sliding_dft_init_is_exact_and_reset_cools() {
        let n = 64;
        let x = sig(n);
        let mut sd = SlidingDft::new(n);
        assert!(!sd.is_warm());
        sd.init(&x);
        assert!(sd.is_warm());
        let fresh = rfft(&x);
        for (a, b) in sd.spectrum().iter().zip(fresh.iter()) {
            // Re-seeding IS a fresh rfft: bitwise equal.
            assert_eq!(a.re, b.re);
            assert_eq!(a.im, b.im);
        }
        sd.reset();
        assert!(!sd.is_warm());
    }

    #[test]
    fn sliding_dfts_of_one_length_share_one_twiddle_table() {
        let (a, b) = (SlidingDft::new(100), SlidingDft::new(100));
        assert!(Arc::ptr_eq(&a.twiddle, &b.twiddle));
        assert!(!Arc::ptr_eq(&a.twiddle, &SlidingDft::new(101).twiddle));
        // Only the spectrum is per-window memory.
        assert_eq!(a.heap_bytes(), rfft_len(100) * std::mem::size_of::<Complex64>());
    }

    #[test]
    fn shared_twiddles_slide_bitwise_like_a_local_table() {
        for &n in &[7usize, 64, 100] {
            let stream: Vec<f64> = (0..n + 5000).map(|t| (t as f64 * 0.29).sin() * 4.0 + (t % 13) as f64).collect();
            let local: Vec<Complex64> = (0..rfft_len(n))
                .map(|k| {
                    let w = 2.0 * std::f64::consts::PI * k as f64 / n as f64;
                    let (s, c) = w.sin_cos();
                    Complex64::new(c, s)
                })
                .collect();
            let mut sd = SlidingDft::new(n);
            sd.init(&stream[..n]);
            let mut want = rfft(&stream[..n]);
            for s in 0..5000 {
                sd.slide(stream[s], stream[s + n]);
                let delta = stream[s + n] - stream[s];
                for (z, &t) in want.iter_mut().zip(&local) {
                    *z = (*z + Complex64::from_re(delta)) * t;
                }
            }
            for (k, (a, b)) in sd.spectrum().iter().zip(&want).enumerate() {
                assert_eq!((a.re.to_bits(), a.im.to_bits()), (b.re.to_bits(), b.im.to_bits()), "n={n} bin {k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "init before slide")]
    fn sliding_dft_rejects_cold_slides() {
        SlidingDft::new(8).slide(0.0, 1.0);
    }

    #[test]
    fn dc_only_signal() {
        let x = vec![4.0; 10];
        let amp = amplitude_spectrum(&x);
        assert!((amp[0] - 40.0).abs() < 1e-9);
        assert!(amp[1..].iter().all(|&a| a < 1e-9));
    }
}
