//! # tfmae-fft
//!
//! Fourier substrate for the TFMAE reproduction: complex arithmetic,
//! power-of-two and arbitrary-length FFTs, real FFTs, FFT convolution, and
//! the Wiener–Khinchin sliding-window statistics that accelerate the paper's
//! window-based temporal masking (Eq. 1–5 of Fang et al., ICDE 2024).
//!
//! Everything is implemented from scratch (no BLAS/FFTW bindings) so that
//! the `w/o FFT` ablation of Fig. 10 compares two code paths of this same
//! crate.
//!
//! ```
//! use tfmae_fft::{rfft, irfft, sliding_cv_fft, sliding_cv_naive};
//!
//! let x: Vec<f64> = (0..100).map(|t| (t as f64 * 0.2).sin()).collect();
//! let spectrum = rfft(&x);
//! assert_eq!(spectrum.len(), 51);
//! let back = irfft(&spectrum, 100);
//! assert!((back[7] - x[7]).abs() < 1e-9);
//!
//! let fast = sliding_cv_fft(&x, 10);
//! let slow = sliding_cv_naive(&x, 10);
//! assert!((fast[42] - slow[42]).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod complex;
pub mod conv;
pub mod dft;
pub mod fft;
pub mod plan;
pub mod rfft;
pub mod stats;

pub use complex::Complex64;
pub use conv::{convolve_full, convolve_naive, sliding_sum_fft, sliding_sum_naive};
pub use dft::{dft, dft_real, idft};
pub use fft::{
    fft, fft_bluestein, fft_pow2_in_place, ifft, is_power_of_two, next_power_of_two, Direction,
};
pub use plan::{plan_for_len, FftPlan};
pub use rfft::{amplitude_spectrum, irfft, rfft, rfft_len, SlidingDft};
pub use stats::{
    bottom_k_indices, multivariate_cv, sliding_cv_fft, sliding_cv_naive, sliding_mean_fft,
    sliding_mean_naive, sliding_var_fft, sliding_var_naive, top_k_indices, RollingStats, CV_EPS,
};
