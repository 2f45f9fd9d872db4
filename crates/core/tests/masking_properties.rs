//! Property-based tests for the two masking strategies.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use tfmae_core::{
    frequency_mask, frequency_mask_from_spectra, temporal_mask_patched, FreqMaskKind, FrequencyMaskData, TemporalMaskKind,
};
use tfmae_fft::stats::bottom_k_indices;
use tfmae_fft::{irfft, rfft, rfft_len, Complex64};

/// Seeded cases per property: case `c` draws its inputs from
/// `StdRng::seed_from_u64(c)`, and every assert names `c`.
const CASES: u64 = 48;

fn window(rng: &mut StdRng, len: usize, dims: usize) -> Vec<f32> {
    (0..len * dims).map(|_| rng.gen_range(-50.0f32..50.0)).collect()
}

#[test]
fn temporal_mask_partitions_indices() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let vals = window(&mut rng, 40, 2);
        let i_t = rng.gen_range(0usize..39);
        let mut mask_rng = StdRng::seed_from_u64(rng.gen_range(0u64..100));
        use TemporalMaskKind as T;
        for kind in [T::Cv, T::Std, T::Random, T::None] {
            let m = temporal_mask_patched(&vals, 40, 2, 1, i_t, 10, kind, true, &mut mask_rng);
            let mut all: Vec<usize> = m.masked.iter().chain(m.unmasked.iter()).copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..40).collect::<Vec<_>>(), "case {case}: {kind:?}");
            if kind != T::None {
                assert_eq!(m.masked.len(), i_t.min(39), "case {case}: {kind:?}");
            }
            // Sorted ascending (the model relies on it for PE lookup).
            assert!(m.masked.windows(2).all(|w| w[0] < w[1]), "case {case}: {kind:?}");
            assert!(m.unmasked.windows(2).all(|w| w[0] < w[1]), "case {case}: {kind:?}");
        }
    }
}

#[test]
fn cv_fft_and_loop_paths_pick_same_mask() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let vals = window(&mut rng, 64, 1);
        let i_t = rng.gen_range(1usize..30);
        let mut r1 = StdRng::seed_from_u64(0);
        let mut r2 = StdRng::seed_from_u64(0);
        let a = temporal_mask_patched(&vals, 64, 1, 1, i_t, 10, TemporalMaskKind::Cv, true, &mut r1);
        let b = temporal_mask_patched(&vals, 64, 1, 1, i_t, 10, TemporalMaskKind::Cv, false, &mut r2);
        // Allow tie-induced differences of at most one index.
        let overlap = a.masked.iter().filter(|i| b.masked.contains(i)).count();
        assert!(overlap + 1 >= a.masked.len(), "case {case}: {:?} vs {:?}", a.masked, b.masked);
    }
}

#[test]
fn frequency_mask_base_never_contains_masked_energy() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let vals = window(&mut rng, 48, 1);
        let i_f = rng.gen_range(1usize..20);
        let mut mask_rng = StdRng::seed_from_u64(3);
        let data = frequency_mask(&vals, 48, 1, i_f, FreqMaskKind::Amplitude, &mut mask_rng);
        // rFFT of base must be (near) zero at every masked bin.
        let base64: Vec<f64> = (0..48).map(|t| data.base[t] as f64).collect();
        let spec = rfft(&base64);
        for &i in &data.masked_bins[0] {
            assert!(spec[i].abs() < 1e-3, "case {case}: bin {i} retains {:?}", spec[i]);
        }
    }
}

#[test]
fn frequency_linearity_holds_for_random_m() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let vals = window(&mut rng, 40, 1);
        let re = rng.gen_range(-3.0f32..3.0);
        let im = rng.gen_range(-3.0f32..3.0);
        let mut mask_rng = StdRng::seed_from_u64(4);
        let data = frequency_mask(&vals, 40, 1, 8, FreqMaskKind::Amplitude, &mut mask_rng);
        // Direct: write m into the masked bins and invert.
        let ch: Vec<f64> = vals.iter().map(|&v| v as f64).collect();
        let mut spec = rfft(&ch);
        for &i in &data.masked_bins[0] {
            spec[i] = Complex64::new(re as f64, im as f64);
        }
        let direct = irfft(&spec, 40);
        for (t, &d) in direct.iter().enumerate() {
            let fast = data.base[t] + re * data.a[t] + im * data.b[t];
            assert!((d as f32 - fast).abs() < 1e-3, "case {case}: t={t}: {d} vs {fast}");
        }
    }
}

#[test]
fn mask_kinds_mask_expected_bin_counts() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let vals = window(&mut rng, 32, 3);
        let i_f = rng.gen_range(0usize..15);
        let mut mask_rng = StdRng::seed_from_u64(5);
        for kind in [FreqMaskKind::Amplitude, FreqMaskKind::HighFreq, FreqMaskKind::Random] {
            let data = frequency_mask(&vals, 32, 3, i_f, kind, &mut mask_rng);
            for bins in &data.masked_bins {
                assert_eq!(bins.len(), i_f.min(rfft_len(32) - 1), "case {case}: {kind:?}");
                assert!(bins.windows(2).all(|w| w[0] < w[1]), "case {case}: {kind:?} unsorted");
                let in_range = bins.iter().all(|&b| b < rfft_len(32));
                assert!(in_range, "case {case}: {kind:?} out of range");
            }
        }
    }
}

/// The frequency mask computed the direct way: one `sin_cos` per masked bin,
/// time step and channel, accumulated straight into the strided `[win_len,
/// dims]` outputs. The library reads the same coefficients from a cached
/// per-length basis; this is the reference it must match bit for bit.
fn reference_frequency_mask(
    values: &[f32],
    win_len: usize,
    dims: usize,
    i_f: usize,
    kind: FreqMaskKind,
    rng: &mut StdRng,
) -> FrequencyMaskData {
    let bins = rfft_len(win_len);
    let i_f = i_f.min(bins.saturating_sub(1));
    let mut base = vec![0.0f32; win_len * dims];
    let mut a = vec![0.0f32; win_len * dims];
    let mut b = vec![0.0f32; win_len * dims];
    let mut masked_bins = Vec::with_capacity(dims);
    for n in 0..dims {
        let ch: Vec<f64> = (0..win_len).map(|t| values[t * dims + n] as f64).collect();
        let mut spec = rfft(&ch);
        let masked: Vec<usize> = if i_f == 0 || kind == FreqMaskKind::None {
            Vec::new()
        } else {
            match kind {
                FreqMaskKind::Amplitude => {
                    let amp: Vec<f64> = spec.iter().map(|z| z.abs()).collect();
                    let mut idx = bottom_k_indices(&amp, i_f);
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
        for &i in &masked {
            spec[i] = Complex64::ZERO;
        }
        for (t, &v) in irfft(&spec, win_len).iter().enumerate() {
            base[t * dims + n] = v as f32;
        }
        for &i in &masked {
            let dc_or_nyquist = i == 0 || (win_len.is_multiple_of(2) && i == win_len / 2);
            let c = if dc_or_nyquist { 1.0 } else { 2.0 };
            let w = 2.0 * std::f64::consts::PI * i as f64 / win_len as f64;
            for t in 0..win_len {
                let (s, co) = (w * t as f64).sin_cos();
                a[t * dims + n] += (c * co / win_len as f64) as f32;
                if !dc_or_nyquist {
                    b[t * dims + n] += (-c * s / win_len as f64) as f32;
                }
            }
        }
        masked_bins.push(masked);
    }
    FrequencyMaskData { base, a, b, masked_bins }
}

fn assert_bitwise(got: &FrequencyMaskData, want: &FrequencyMaskData, case: &str) {
    for (name, g, w) in [("base", &got.base, &want.base), ("a", &got.a, &want.a), ("b", &got.b, &want.b)] {
        assert_eq!(g.len(), w.len(), "{case}: {name} length");
        if let Some(k) = g.iter().zip(w.iter()).position(|(x, y)| x.to_bits() != y.to_bits()) {
            panic!("{case}: {name}[{k}] = {} vs reference {}", g[k], w[k]);
        }
    }
    assert_eq!(got.masked_bins, want.masked_bins, "{case}: masked bins");
}

#[test]
fn cached_basis_matches_per_call_trigonometry_bitwise() {
    let kinds = [FreqMaskKind::Amplitude, FreqMaskKind::HighFreq, FreqMaskKind::Random, FreqMaskKind::None];
    // Odd lengths, even lengths with a Nyquist bin, powers of two and
    // Bluestein lengths.
    for win_len in [4usize, 5, 7, 16, 33, 64, 99, 100, 128, 257] {
        for dims in [1usize, 3, 38] {
            let values: Vec<f32> = (0..win_len * dims)
                .map(|k| {
                    let x = k as f32;
                    (x * 0.37).sin() * 3.0 + (x * 0.071).cos() + 0.01 * ((k * 7919) % 17) as f32
                })
                .collect();
            for i_f in [0usize, 1, 12, rfft_len(win_len) + 3] {
                for kind in kinds {
                    let case = format!("win_len={win_len} dims={dims} i_f={i_f} kind={kind:?}");
                    let seed = (win_len * 1000 + dims * 10 + i_f) as u64;
                    let want =
                        reference_frequency_mask(&values, win_len, dims, i_f, kind, &mut StdRng::seed_from_u64(seed));
                    let got = frequency_mask(&values, win_len, dims, i_f, kind, &mut StdRng::seed_from_u64(seed));
                    assert_bitwise(&got, &want, &case);

                    // The borrowed-spectra entry point the serving engine uses.
                    let spectra: Vec<Vec<Complex64>> = (0..dims)
                        .map(|n| rfft(&(0..win_len).map(|t| values[t * dims + n] as f64).collect::<Vec<_>>()))
                        .collect();
                    let borrowed: Vec<&[Complex64]> = spectra.iter().map(Vec::as_slice).collect();
                    let split =
                        frequency_mask_from_spectra(&borrowed, win_len, i_f, kind, &mut StdRng::seed_from_u64(seed));
                    assert_bitwise(&split, &want, &format!("{case} (from spectra)"));
                }
            }
        }
    }
}
