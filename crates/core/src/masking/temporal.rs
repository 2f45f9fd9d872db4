//! Window-based temporal masking (§IV-A1, Eq. 1–5, Fig. 3).
//!
//! For each model window, a statistic is computed per observation (the
//! coefficient of variation over a trailing sub-sequence of length `W`),
//! and the `r_T%` observations with the largest statistic are masked. The
//! statistic is computed either with explicit loops (Eq. 1) or with FFT
//! convolutions (Eq. 4–5) — both paths live in `tfmae-fft` and agree to
//! numerical tolerance.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use tfmae_fft::stats::{
    sliding_cv_fft, sliding_cv_naive, sliding_var_fft, sliding_var_naive, top_k_indices,
};

use crate::config::TemporalMaskKind;

/// The split of one window's time indices into masked and unmasked sets,
/// both sorted ascending.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TemporalMask {
    /// Indices selected as candidate anomalies (the `idx^(T)` of Eq. 2).
    pub masked: Vec<usize>,
    /// The complement.
    pub unmasked: Vec<usize>,
}

/// The selection half of [`temporal_mask_patched`]: masks the `i_t` indices
/// with the largest statistic (deterministic tie-break of `top_k_indices`).
///
/// Split out so streaming callers can supply an incrementally maintained
/// statistic (rolling CV over a ring buffer) instead of recomputing Eq. 1/5
/// over the whole window on every hop.
pub fn temporal_mask_from_stat(stat: &[f64], i_t: usize) -> TemporalMask {
    let win_len = stat.len();
    let i_t = i_t.min(win_len.saturating_sub(1));
    partition(win_len, sorted(top_k_indices(stat, i_t)))
}

fn partition(win_len: usize, masked: Vec<usize>) -> TemporalMask {
    let mut is_masked = vec![false; win_len];
    for &i in &masked {
        is_masked[i] = true;
    }
    let unmasked = (0..win_len).filter(|&i| !is_masked[i]).collect();
    TemporalMask { masked, unmasked }
}

fn sorted(mut v: Vec<usize>) -> Vec<usize> {
    v.sort_unstable();
    v
}

/// Folds a per-row statistic `[win_len]` to a per-patch-token statistic
/// `[win_len / P]` by summing the `P` row values inside each patch. Summing
/// (not max) keeps the token statistic monotone in every member row's
/// volatility, so a patch containing a spike outranks its calm neighbours
/// the same way the spiked row outranks calm rows at `P = 1`.
pub fn fold_stat_to_patches(stat: &[f64], patch_len: usize) -> Vec<f64> {
    debug_assert!(patch_len >= 1 && stat.len().is_multiple_of(patch_len));
    if patch_len == 1 {
        return stat.to_vec();
    }
    stat.chunks_exact(patch_len).map(|chunk| chunk.iter().sum()).collect()
}

/// Computes the temporal mask for one window at patch-token granularity: the
/// returned index sets partition the `win_len / patch_len` tokens, masking
/// the `i_tok` tokens with the largest summed statistic. At `patch_len = 1`
/// every row is a token.
///
/// * `values` — row-major `[win_len, dims]` window;
/// * `i_tok` — number of tokens to mask (`I_T` of Eq. 2);
/// * `cv_window` — trailing-statistic window `W`;
/// * `use_fft` — Eq. 5 fast path vs Eq. 1 loops (`w/o FFT` ablation);
/// * `rng` — consumed only by [`TemporalMaskKind::Random`].
#[allow(clippy::too_many_arguments)]
pub fn temporal_mask_patched(
    values: &[f32],
    win_len: usize,
    dims: usize,
    patch_len: usize,
    i_tok: usize,
    cv_window: usize,
    kind: TemporalMaskKind,
    use_fft: bool,
    rng: &mut StdRng,
) -> TemporalMask {
    assert_eq!(values.len(), win_len * dims, "window size mismatch");
    assert_eq!(win_len % patch_len, 0, "patch_len must divide win_len");
    let tokens = win_len / patch_len;
    let i_tok = i_tok.min(tokens.saturating_sub(1));
    match kind {
        TemporalMaskKind::None => partition(tokens, Vec::new()),
        _ if i_tok == 0 => partition(tokens, Vec::new()),
        TemporalMaskKind::Cv | TemporalMaskKind::Std => {
            let stat = temporal_statistic(values, win_len, dims, cv_window, kind, use_fft);
            temporal_mask_from_stat(&fold_stat_to_patches(&stat, patch_len), i_tok)
        }
        TemporalMaskKind::Random => {
            let mut idx: Vec<usize> = (0..tokens).collect();
            idx.shuffle(rng);
            partition(tokens, sorted(idx[..i_tok].to_vec()))
        }
    }
}

/// The per-row statistic `V ∈ R^{win_len}` that [`TemporalMaskKind::Cv`]
/// and [`TemporalMaskKind::Std`] rank: the sum over channels of each
/// channel's trailing coefficient of variation (Eq. 1/5), or of its trailing
/// standard deviation (`w/ SMT`).
///
/// # Panics
/// Panics for the kinds that rank no statistic (`Random`, `None`).
pub fn temporal_statistic(
    values: &[f32],
    win_len: usize,
    dims: usize,
    cv_window: usize,
    kind: TemporalMaskKind,
    use_fft: bool,
) -> Vec<f64> {
    let per_channel: fn(&[f64], usize) -> Vec<f64> = match (kind, use_fft) {
        (TemporalMaskKind::Cv, true) => sliding_cv_fft,
        (TemporalMaskKind::Cv, false) => sliding_cv_naive,
        (TemporalMaskKind::Std, true) => sliding_var_fft,
        (TemporalMaskKind::Std, false) => sliding_var_naive,
        (TemporalMaskKind::Random | TemporalMaskKind::None, _) => {
            panic!("{kind:?} temporal masking ranks no statistic")
        }
    };
    let is_std = kind == TemporalMaskKind::Std;
    let mut total = vec![0.0f64; win_len];
    let mut ch = vec![0.0f64; win_len];
    for n in 0..dims {
        for (t, c) in ch.iter_mut().enumerate() {
            *c = values[t * dims + n] as f64;
        }
        for (acc, v) in total.iter_mut().zip(per_channel(&ch, cv_window)) {
            *acc += if is_std { v.max(0.0).sqrt() } else { v };
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    fn window_with_spike(len: usize, spike_at: usize) -> Vec<f32> {
        let mut v: Vec<f32> =
            (0..len).map(|t| 1.0 + 0.1 * (t as f32 * 0.3).sin()).collect();
        v[spike_at] = 15.0;
        v
    }

    #[test]
    fn cv_mask_targets_the_spike() {
        let len = 64;
        let vals = window_with_spike(len, 30);
        let m = temporal_mask_patched(&vals, len, 1, 1, 8, 10, TemporalMaskKind::Cv, true, &mut rng());
        // Trailing windows containing the spike are t = 30..40; all masked
        // indices must fall in that band.
        assert!(
            m.masked.iter().all(|&i| (30..40).contains(&i)),
            "mask leaked outside the spike band: {:?}",
            m.masked
        );
        assert_eq!(m.masked.len(), 8);
        assert_eq!(m.unmasked.len(), len - 8);
    }

    #[test]
    fn fft_and_loop_paths_select_same_indices() {
        let len = 100;
        let vals: Vec<f32> = (0..len).map(|t| (t as f32 * 0.17).sin() + 0.01 * t as f32).collect();
        let a = temporal_mask_patched(&vals, len, 1, 1, 25, 10, TemporalMaskKind::Cv, true, &mut rng());
        let b = temporal_mask_patched(&vals, len, 1, 1, 25, 10, TemporalMaskKind::Cv, false, &mut rng());
        assert_eq!(a, b);
    }

    #[test]
    fn masked_and_unmasked_partition_the_window() {
        let len = 50;
        let vals = window_with_spike(len, 10);
        for kind in [TemporalMaskKind::Cv, TemporalMaskKind::Std, TemporalMaskKind::Random] {
            let m = temporal_mask_patched(&vals, len, 1, 1, 12, 10, kind, true, &mut rng());
            let mut all: Vec<usize> = m.masked.iter().chain(m.unmasked.iter()).copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..len).collect::<Vec<_>>(), "{kind:?}");
        }
    }

    #[test]
    fn none_and_zero_count_disable_masking() {
        let vals = window_with_spike(20, 5);
        let m = temporal_mask_patched(&vals, 20, 1, 1, 0, 10, TemporalMaskKind::Cv, true, &mut rng());
        assert!(m.masked.is_empty());
        let m = temporal_mask_patched(&vals, 20, 1, 1, 5, 10, TemporalMaskKind::None, true, &mut rng());
        assert!(m.masked.is_empty());
        assert_eq!(m.unmasked.len(), 20);
    }

    #[test]
    fn mask_count_clamped_below_window_length() {
        let vals = window_with_spike(10, 3);
        let m = temporal_mask_patched(&vals, 10, 1, 1, 99, 5, TemporalMaskKind::Cv, true, &mut rng());
        assert_eq!(m.masked.len(), 9, "must leave at least one unmasked token");
    }

    #[test]
    fn random_masks_differ_across_draws() {
        let vals = window_with_spike(60, 7);
        let mut r = rng();
        let a = temporal_mask_patched(&vals, 60, 1, 1, 15, 10, TemporalMaskKind::Random, true, &mut r);
        let b = temporal_mask_patched(&vals, 60, 1, 1, 15, 10, TemporalMaskKind::Random, true, &mut r);
        assert_ne!(a.masked, b.masked);
    }

    #[test]
    fn from_stat_entry_point_matches_full_path() {
        let len = 80;
        let dims = 2;
        let vals: Vec<f32> =
            (0..len * dims).map(|i| (i as f32 * 0.23).sin() + 0.002 * i as f32).collect();
        let full = temporal_mask_patched(&vals, len, dims, 1, 12, 10, TemporalMaskKind::Cv, true, &mut rng());
        let stat = temporal_statistic(&vals, len, dims, 10, TemporalMaskKind::Cv, true);
        let split = temporal_mask_from_stat(&stat, 12);
        assert_eq!(full, split);
    }

    #[test]
    fn patched_mask_at_patch_len_one_is_bitwise_identical() {
        // At patch_len = 1 every row is a token: Cv/Std select straight from
        // the row statistic, and Random draws a plain shuffle of the rows.
        let len = 60;
        let dims = 2;
        let vals: Vec<f32> =
            (0..len * dims).map(|i| (i as f32 * 0.19).sin() + 0.003 * i as f32).collect();
        for use_fft in [true, false] {
            for kind in [TemporalMaskKind::Cv, TemporalMaskKind::Std] {
                let stat = temporal_statistic(&vals, len, dims, 10, kind, use_fft);
                let patched =
                    temporal_mask_patched(&vals, len, dims, 1, 14, 10, kind, use_fft, &mut rng());
                assert_eq!(patched, temporal_mask_from_stat(&stat, 14), "{kind:?} fft={use_fft}");
            }
        }
        let mut r = rng();
        let patched =
            temporal_mask_patched(&vals, len, dims, 1, 14, 10, TemporalMaskKind::Random, true, &mut r);
        let mut plain = rng();
        let mut idx: Vec<usize> = (0..len).collect();
        idx.shuffle(&mut plain);
        assert_eq!(patched, partition(len, sorted(idx[..14].to_vec())));
        assert_eq!(r.next_u64(), plain.next_u64(), "RNG left in a different state");
    }

    #[test]
    fn temporal_statistic_matches_channel_sums_bitwise() {
        let len = 70;
        for dims in [1usize, 3] {
            let vals: Vec<f32> =
                (0..len * dims).map(|i| 1.5 + (i as f32 * 0.29).sin() + 0.01 * i as f32).collect();
            for use_fft in [true, false] {
                let mut cv = vec![0.0f64; len];
                let mut sd = vec![0.0f64; len];
                for n in 0..dims {
                    let ch: Vec<f64> = (0..len).map(|t| vals[t * dims + n] as f64).collect();
                    let (c, var) = if use_fft {
                        (sliding_cv_fft(&ch, 10), sliding_var_fft(&ch, 10))
                    } else {
                        (sliding_cv_naive(&ch, 10), sliding_var_naive(&ch, 10))
                    };
                    for (t, (&c, &v)) in c.iter().zip(&var).enumerate() {
                        cv[t] += c;
                        sd[t] += v.max(0.0).sqrt();
                    }
                }
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let got = |kind| bits(&temporal_statistic(&vals, len, dims, 10, kind, use_fft));
                assert_eq!(got(TemporalMaskKind::Cv), bits(&cv), "Cv dims={dims} fft={use_fft}");
                assert_eq!(got(TemporalMaskKind::Std), bits(&sd), "Std dims={dims} fft={use_fft}");
            }
        }
    }

    #[test]
    fn patched_mask_partitions_tokens_and_finds_the_spiked_patch() {
        let len = 60;
        let p = 5;
        let vals = window_with_spike(len, 32); // spike lands in token 32/5 = 6
        let m = temporal_mask_patched(&vals, len, 1, p, 3, 10, TemporalMaskKind::Cv, true, &mut rng());
        let tokens = len / p;
        let mut all: Vec<usize> = m.masked.iter().chain(m.unmasked.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..tokens).collect::<Vec<_>>());
        // The trailing CV window (rows 32..42) smears the spike over tokens
        // 6, 7 and 8; the masked set must stay inside that band and cover
        // the spike token itself.
        assert!(m.masked.contains(&6), "spiked patch not masked: {:?}", m.masked);
        assert!(m.masked.iter().all(|&i| (6..=8).contains(&i)), "{:?}", m.masked);
    }

    #[test]
    fn fold_stat_sums_patch_members() {
        let stat = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        assert_eq!(fold_stat_to_patches(&stat, 1), stat);
        assert_eq!(fold_stat_to_patches(&stat, 2), vec![3.0, 7.0, 11.0]);
        assert_eq!(fold_stat_to_patches(&stat, 3), vec![6.0, 15.0]);
    }

    #[test]
    fn patched_mask_count_clamped_below_token_count() {
        let vals = window_with_spike(20, 3);
        let m = temporal_mask_patched(&vals, 20, 1, 5, 99, 5, TemporalMaskKind::Cv, true, &mut rng());
        assert_eq!(m.masked.len(), 3, "must leave at least one unmasked token");
        assert_eq!(m.unmasked.len(), 1);
    }

    #[test]
    fn multivariate_spike_on_one_channel_is_found() {
        let len = 40;
        let dims = 3;
        let mut vals = vec![1.0f32; len * dims];
        for t in 0..len {
            vals[t * dims] = (t as f32 * 0.2).sin();
            vals[t * dims + 1] = 1.0;
        }
        vals[25 * dims + 2] = 30.0; // spike on channel 2
        let m = temporal_mask_patched(&vals, len, dims, 1, 6, 10, TemporalMaskKind::Cv, true, &mut rng());
        assert!(m.masked.contains(&25));
    }
}
