//! Amplitude-based frequency masking (§IV-A2, Eq. 6–10, Fig. 4).
//!
//! Each feature channel of a window is transformed with a real FFT; the
//! `r_F%` of bins with the *smallest amplitude* are replaced by a learnable
//! complex scalar `m^(F) ∈ C^N` (Eq. 9) and the spectrum is inverted back
//! (Eq. 10).
//!
//! Because the inverse rFFT is linear in the spectrum, the masked
//! reconstruction decomposes as
//!
//! ```text
//! f[t, n] = base[t, n] + Re(m^n)·A[t, n] + Im(m^n)·B[t, n]
//! ```
//!
//! where `base` is the signal with the masked bins removed and `A`/`B`
//! collect the cosine/sine synthesis coefficients of the masked bins.
//! `base`, `A`, `B` are precomputed constants per window, so exact gradients
//! reach `m^(F)` through ordinary broadcast multiply/add — no custom autograd
//! kernel is needed (DESIGN.md §3). The coefficients depend only on the
//! window length and bin, so all three are sums of rows of a per-length
//! synthesis basis built once per process, and a mask runs no inverse
//! transform and no trigonometry: Eq. 9–10 change only the masked bins, so
//! `base` is the window minus those bins' synthesis,
//!
//! ```text
//! base[t, n] = x[t, n] − Σ_{i masked} (Re X_i·cos_i[t] + Im X_i·sin_i[t])
//! ```
//!
//! accumulated in f64 and rounded to f32 once.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use tfmae_fft::stats::bottom_k_indices;
use tfmae_fft::{rfft, rfft_len, Complex64};

use crate::config::FreqMaskKind;

/// Precomputed constants of the linear-in-`m` masked reconstruction for one
/// window (all row-major `[win_len, dims]`).
#[derive(Clone, Debug)]
pub struct FrequencyMaskData {
    /// The window with the masked bins' synthesis subtracted: the inverse
    /// transform of the spectrum with those bins zeroed.
    pub base: Vec<f32>,
    /// `∂f/∂Re(m^n)` synthesis coefficients.
    pub a: Vec<f32>,
    /// `∂f/∂Im(m^n)` synthesis coefficients.
    pub b: Vec<f32>,
    /// Masked bin indices per channel (the `idx^(F)` of Eq. 8).
    pub masked_bins: Vec<Vec<usize>>,
}

/// Computes the frequency mask for one window.
///
/// * `values` — row-major `[win_len, dims]`;
/// * `i_f` — bins to mask per channel (`I_F` of Eq. 8);
/// * `rng` — consumed only by [`FreqMaskKind::Random`].
pub fn frequency_mask(
    values: &[f32],
    win_len: usize,
    dims: usize,
    i_f: usize,
    kind: FreqMaskKind,
    rng: &mut StdRng,
) -> FrequencyMaskData {
    assert_eq!(values.len(), win_len * dims, "window size mismatch");
    let spectra: Vec<Vec<Complex64>> = (0..dims)
        .map(|n| {
            let ch: Vec<f64> = (0..win_len).map(|t| values[t * dims + n] as f64).collect();
            rfft(&ch)
        })
        .collect();
    frequency_mask_from_spectra(&spectra, values, win_len, i_f, kind, rng)
}

/// Computes the frequency mask from precomputed per-channel half-spectra
/// (one `rfft_len(win_len)`-long spectrum per channel) of `values`
/// (row-major `[win_len, dims]`, `dims = spectra.len()`).
///
/// This is [`frequency_mask`] minus the forward transforms, split out so
/// streaming callers can supply spectra maintained by the sliding-DFT
/// recurrence (borrowed slices) instead of paying a fresh O(L log L) rfft
/// per channel per hop.
///
/// # Panics
/// Panics if any spectrum's length differs from `rfft_len(win_len)` or
/// `values` is not `win_len · spectra.len()` long.
pub fn frequency_mask_from_spectra<S: AsRef<[Complex64]>>(
    spectra: &[S],
    values: &[f32],
    win_len: usize,
    i_f: usize,
    kind: FreqMaskKind,
    rng: &mut StdRng,
) -> FrequencyMaskData {
    let dims = spectra.len();
    assert_eq!(values.len(), win_len * dims, "window size mismatch");
    let bins = rfft_len(win_len);
    let i_f = i_f.min(bins.saturating_sub(1));
    let mut base = vec![0.0f32; win_len * dims];
    let mut a = vec![0.0f32; win_len * dims];
    let mut b = vec![0.0f32; win_len * dims];
    let mut masked_bins = Vec::with_capacity(dims);
    let basis = synthesis_basis(win_len);
    let mut a_ch = vec![0.0f32; win_len];
    let mut b_ch = vec![0.0f32; win_len];
    let mut synth = vec![0.0f64; win_len];

    for (n, chan_spec) in spectra.iter().enumerate() {
        let spec = chan_spec.as_ref();
        assert_eq!(spec.len(), bins, "spectrum length mismatch for channel {n}");
        let masked: Vec<usize> = if i_f == 0 || kind == FreqMaskKind::None {
            Vec::new()
        } else {
            match kind {
                FreqMaskKind::Amplitude => {
                    // |X|² ranks like |X| without a hypot per bin.
                    let power: Vec<f64> = spec.iter().map(|z| z.norm_sqr()).collect();
                    let mut idx = bottom_k_indices(&power, i_f);
                    idx.sort_unstable();
                    idx
                }
                FreqMaskKind::HighFreq => ((bins - i_f)..bins).collect(),
                FreqMaskKind::Random => {
                    let mut idx: Vec<usize> = (0..bins).collect();
                    idx.shuffle(rng);
                    let mut idx = idx[..i_f].to_vec();
                    idx.sort_unstable();
                    idx
                }
                FreqMaskKind::None => unreachable!(),
            }
        };

        // One pass over the masked bins, in ascending order: A/B sum their
        // basis rows rounded to f32 into contiguous per-channel scratch, and
        // `synth` sums their f64 synthesis, which `base` subtracts from the
        // window.
        a_ch.fill(0.0);
        b_ch.fill(0.0);
        synth.fill(0.0);
        for &i in &masked {
            let z = spec[i];
            let cos = basis.cos_row(i);
            if dc_or_nyquist(win_len, i) {
                for (t, (a_t, s_t)) in a_ch.iter_mut().zip(synth.iter_mut()).enumerate() {
                    *a_t += cos[t] as f32;
                    *s_t += z.re * cos[t];
                }
            } else {
                let sin = basis.sin_row(i);
                let acc = a_ch.iter_mut().zip(b_ch.iter_mut()).zip(synth.iter_mut());
                for (t, ((a_t, b_t), s_t)) in acc.enumerate() {
                    *a_t += cos[t] as f32;
                    *b_t += sin[t] as f32;
                    *s_t += z.re * cos[t] + z.im * sin[t];
                }
            }
        }
        for t in 0..win_len {
            let k = t * dims + n;
            base[k] = (values[k] as f64 - synth[t]) as f32;
            a[k] = a_ch[t];
            b[k] = b_ch[t];
        }
        masked_bins.push(masked);
    }

    FrequencyMaskData { base, a, b, masked_bins }
}

/// The rFFT synthesis coefficients of every bin of one window length: what
/// the inverse transform turns a unit (`1` or `j`) written into bin `i` into,
/// at every time step. Depends on `win_len` alone, so one table per distinct
/// length is shared process-wide through [`synthesis_basis`].
struct SynthesisBasis {
    win_len: usize,
    /// `[bins, win_len]`: `c·cos(w_i·t)/L`.
    cos: Vec<f64>,
    /// `[bins, win_len]`: `−c·sin(w_i·t)/L`.
    sin: Vec<f64>,
}

impl SynthesisBasis {
    fn build(win_len: usize) -> Self {
        let bins = rfft_len(win_len);
        let mut cos = Vec::with_capacity(bins * win_len);
        let mut sin = Vec::with_capacity(bins * win_len);
        for i in 0..bins {
            // Mirror bins double all but DC and (even-n) Nyquist; the
            // imaginary part of DC/Nyquist cancels under conjugate symmetry,
            // so their sine row is never read.
            let c = if dc_or_nyquist(win_len, i) { 1.0 } else { 2.0 };
            let w = 2.0 * std::f64::consts::PI * i as f64 / win_len as f64;
            for t in 0..win_len {
                let (s, co) = (w * t as f64).sin_cos();
                cos.push(c * co / win_len as f64);
                sin.push(-c * s / win_len as f64);
            }
        }
        SynthesisBasis { win_len, cos, sin }
    }

    fn cos_row(&self, i: usize) -> &[f64] {
        &self.cos[i * self.win_len..(i + 1) * self.win_len]
    }

    fn sin_row(&self, i: usize) -> &[f64] {
        &self.sin[i * self.win_len..(i + 1) * self.win_len]
    }
}

/// Whether bin `i` is DC or (for even `win_len`) Nyquist: its own mirror, so
/// it has no doubled partner and no imaginary synthesis term.
fn dc_or_nyquist(win_len: usize, i: usize) -> bool {
    i == 0 || (win_len.is_multiple_of(2) && i == win_len / 2)
}

/// The process-wide synthesis basis for window length `win_len`. Repeated
/// calls with the same length return clones of the same `Arc`; the first call
/// per length pays the `sin_cos` table (about 8·L² bytes).
fn synthesis_basis(win_len: usize) -> Arc<SynthesisBasis> {
    static BASES: OnceLock<Mutex<HashMap<usize, Arc<SynthesisBasis>>>> = OnceLock::new();
    let cache = BASES.get_or_init(|| Mutex::new(HashMap::new()));
    let mut cache = cache.lock().expect("synthesis basis cache poisoned");
    cache.entry(win_len).or_insert_with(|| Arc::new(SynthesisBasis::build(win_len))).clone()
}

/// Reference reconstruction `f = base + re·A + im·B` evaluated on the CPU —
/// used by tests to validate the linear decomposition against a direct
/// masked-irfft.
pub fn reconstruct(data: &FrequencyMaskData, re: &[f32], im: &[f32], win_len: usize, dims: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; win_len * dims];
    for t in 0..win_len {
        for n in 0..dims {
            let idx = t * dims + n;
            out[idx] = data.base[idx] + re[n] * data.a[idx] + im[n] * data.b[idx];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tfmae_fft::irfft;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    fn tone_plus_noise(len: usize) -> Vec<f32> {
        (0..len)
            .map(|t| {
                (2.0 * std::f32::consts::PI * 5.0 * t as f32 / len as f32).sin()
                    + 0.01 * ((t * 7919) % 13) as f32
            })
            .collect()
    }

    #[test]
    fn amplitude_masking_keeps_the_dominant_tone() {
        let len = 64;
        let vals = tone_plus_noise(len);
        let data = frequency_mask(&vals, len, 1, 20, FreqMaskKind::Amplitude, &mut rng());
        assert!(!data.masked_bins[0].contains(&5), "dominant bin must survive");
        assert_eq!(data.masked_bins[0].len(), 20);
    }

    #[test]
    fn high_freq_masking_takes_the_top_bins() {
        let len = 64;
        let vals = tone_plus_noise(len);
        let data = frequency_mask(&vals, len, 1, 4, FreqMaskKind::HighFreq, &mut rng());
        assert_eq!(data.masked_bins[0], vec![29, 30, 31, 32]);
    }

    #[test]
    fn linear_decomposition_matches_direct_masked_irfft() {
        // Write an arbitrary complex m into the masked bins directly and
        // compare with base + re·A + im·B.
        let len = 50;
        let vals = tone_plus_noise(len);
        let data = frequency_mask(&vals, len, 1, 10, FreqMaskKind::Amplitude, &mut rng());
        let (re, im) = (0.7f32, -0.3f32);

        let ch: Vec<f64> = vals.iter().map(|&v| v as f64).collect();
        let mut spec = rfft(&ch);
        for &i in &data.masked_bins[0] {
            spec[i] = Complex64::new(re as f64, im as f64);
        }
        let direct = irfft(&spec, len);
        let fast = reconstruct(&data, &[re], &[im], len, 1);
        for (d, f) in direct.iter().zip(fast.iter()) {
            assert!((*d as f32 - *f).abs() < 1e-4, "{d} vs {f}");
        }
    }

    #[test]
    fn zero_m_reproduces_base() {
        let len = 40;
        let vals = tone_plus_noise(len);
        let data = frequency_mask(&vals, len, 1, 8, FreqMaskKind::Amplitude, &mut rng());
        let rec = reconstruct(&data, &[0.0], &[0.0], len, 1);
        assert_eq!(rec, data.base);
    }

    #[test]
    fn none_kind_reproduces_input() {
        let len = 32;
        let vals = tone_plus_noise(len);
        let data = frequency_mask(&vals, len, 1, 8, FreqMaskKind::None, &mut rng());
        // Nothing masked, nothing subtracted: the window itself, bit for bit.
        assert!(vals.iter().zip(&data.base).all(|(x, y)| x.to_bits() == y.to_bits()));
        assert!(data.masked_bins[0].is_empty());
        assert!(data.a.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn multichannel_masks_are_per_channel() {
        let len = 48;
        let mut vals = vec![0.0f32; len * 2];
        for t in 0..len {
            vals[t * 2] = (2.0 * std::f32::consts::PI * 3.0 * t as f32 / len as f32).sin();
            vals[t * 2 + 1] = (2.0 * std::f32::consts::PI * 9.0 * t as f32 / len as f32).sin();
        }
        let data = frequency_mask(&vals, len, 2, 5, FreqMaskKind::Amplitude, &mut rng());
        assert!(!data.masked_bins[0].contains(&3));
        assert!(!data.masked_bins[1].contains(&9));
        // Channel 1's dominant bin (9) is maskable on channel 0 where it's quiet.
        assert_eq!(data.masked_bins.len(), 2);
    }

    #[test]
    fn from_spectra_entry_point_matches_full_path() {
        let len = 48;
        let dims = 2;
        let mut vals = vec![0.0f32; len * dims];
        for t in 0..len {
            vals[t * dims] = (t as f32 * 0.31).sin() + 0.02 * t as f32;
            vals[t * dims + 1] = (t as f32 * 0.11).cos();
        }
        let full = frequency_mask(&vals, len, dims, 9, FreqMaskKind::Amplitude, &mut rng());
        let spectra: Vec<Vec<Complex64>> = (0..dims)
            .map(|n| {
                let ch: Vec<f64> = (0..len).map(|t| vals[t * dims + n] as f64).collect();
                rfft(&ch)
            })
            .collect();
        let split = frequency_mask_from_spectra(&spectra, &vals, len, 9, FreqMaskKind::Amplitude, &mut rng());
        assert_eq!(full.base, split.base);
        assert_eq!(full.a, split.a);
        assert_eq!(full.b, split.b);
        assert_eq!(full.masked_bins, split.masked_bins);
    }

    #[test]
    fn synthesis_basis_is_cached_per_length() {
        for len in [7usize, 64, 100] {
            let first = synthesis_basis(len);
            assert!(Arc::ptr_eq(&first, &synthesis_basis(len)), "len={len} must reuse its basis");
            assert_eq!(first.cos.len(), rfft_len(len) * len);
            assert_eq!(first.sin.len(), rfft_len(len) * len);
        }
        assert!(!Arc::ptr_eq(&synthesis_basis(64), &synthesis_basis(65)));
    }

    #[test]
    fn racing_first_use_yields_one_identical_basis() {
        // A length no other test in this binary asks for, so all four
        // threads race on the first build.
        let len = 173;
        let barrier = std::sync::Barrier::new(4);
        let got: Vec<Arc<SynthesisBasis>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        synthesis_basis(len)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let fresh = SynthesisBasis::build(len);
        for b in &got {
            assert!(Arc::ptr_eq(b, &got[0]));
            assert_eq!(b.win_len, len);
            assert_eq!((b.cos.len(), b.sin.len()), (fresh.cos.len(), fresh.sin.len()));
            assert!(b.cos.iter().zip(&fresh.cos).all(|(x, y)| x.to_bits() == y.to_bits()));
            assert!(b.sin.iter().zip(&fresh.sin).all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }

    #[test]
    fn mask_count_clamped() {
        let len = 16;
        let vals = tone_plus_noise(len);
        let data = frequency_mask(&vals, len, 1, 999, FreqMaskKind::Amplitude, &mut rng());
        assert_eq!(data.masked_bins[0].len(), rfft_len(len) - 1);
    }
}
