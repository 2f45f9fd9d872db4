//! Sliding-window statistics for window-based temporal masking (Eq. 1–5).
//!
//! The paper scores every observation by the *coefficient of variation* of
//! its trailing sub-sequence, then masks the top `r_T%`. Two equivalent
//! implementations are provided:
//!
//! * [`sliding_cv_naive`] — the double loop of Eq. 1, O(|S|·W);
//! * [`sliding_cv_fft`] — the Wiener–Khinchin form of Eq. 4–5, where both
//!   `μ_t` and `μ⁽²⁾_t` come from FFT convolutions with a ones kernel,
//!   O(|S| log |S|).
//!
//! Notes on fidelity:
//! * Eq. 4 in the paper prints `μ⁽²⁾ + μ²`; the correct expectation identity
//!   (and what makes Eq. 4 equal Eq. 1) is `var = μ⁽²⁾ − μ²`, which is what
//!   we implement. Both paths use the same definition so they agree exactly.
//! * The denominator uses `|μ_t| + ε`: the paper divides by the raw mean,
//!   which is undefined at zero-mean windows (common after z-scoring). Note
//!   that Eq. 1's statistic is variance/mean, so it scales *linearly* with
//!   a uniform rescaling `c·s` — uniform scaling therefore preserves the
//!   TopIndex ranking (what masking consumes), and differing per-channel
//!   scales are neutralized by the z-score normalization the detector
//!   applies before masking. The paper's §IV-A1 scale-robustness claim
//!   holds in that ranking sense, not as `cv(c·s) = cv(s)` pointwise.

use crate::conv::{sliding_sum_fft, sliding_sum_naive, SlidingSumFft};

/// Stabilizer for the mean denominator of the coefficient of variation.
pub const CV_EPS: f64 = 1e-4;

/// Trailing-window mean with head edge-padding, computed by FFT convolution.
pub fn sliding_mean_fft(x: &[f64], w: usize) -> Vec<f64> {
    let mut out = sliding_sum_fft(x, w);
    let inv = 1.0 / w as f64;
    for v in out.iter_mut() {
        *v *= inv;
    }
    out
}

/// Trailing-window mean with head edge-padding, computed by loops.
pub fn sliding_mean_naive(x: &[f64], w: usize) -> Vec<f64> {
    let mut out = sliding_sum_naive(x, w);
    let inv = 1.0 / w as f64;
    for v in out.iter_mut() {
        *v *= inv;
    }
    out
}

/// Trailing-window population variance via the FFT path of Eq. 5:
/// `var_t = μ⁽²⁾_t − μ_t²`, clamped at zero against rounding.
pub fn sliding_var_fft(x: &[f64], w: usize) -> Vec<f64> {
    mean_var_fft(x, w).1
}

/// Trailing-window population variance with explicit loops (Eq. 1's inner sum
/// normalized by `W`).
pub fn sliding_var_naive(x: &[f64], w: usize) -> Vec<f64> {
    mean_var_naive(x, w).1
}

/// Per-channel coefficient of variation `v̄_t = var_t / (|μ_t| + ε)` via FFT.
pub fn sliding_cv_fft(x: &[f64], w: usize) -> Vec<f64> {
    let (mu, var) = mean_var_fft(x, w);
    cv_from(&mu, var)
}

/// Per-channel coefficient of variation via the looped reference path.
pub fn sliding_cv_naive(x: &[f64], w: usize) -> Vec<f64> {
    let (mu, var) = mean_var_naive(x, w);
    cv_from(&mu, var)
}

/// The trailing mean and the variance built on it (FFT path), so the CV
/// computes its mean once. `x` and `x²` share one transform of the ones
/// kernel.
fn mean_var_fft(x: &[f64], w: usize) -> (Vec<f64>, Vec<f64>) {
    if x.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let sums = SlidingSumFft::new(x.len(), w);
    let inv = 1.0 / w as f64;
    let sq: Vec<f64> = x.iter().map(|&v| v * v).collect();
    let mu: Vec<f64> = sums.apply(x).into_iter().map(|v| v * inv).collect();
    let mut var = sums.apply(&sq);
    for (v, &m) in var.iter_mut().zip(&mu) {
        *v = (*v * inv - m * m).max(0.0);
    }
    (mu, var)
}

/// The trailing mean and the two-pass variance around it (looped path).
fn mean_var_naive(x: &[f64], w: usize) -> (Vec<f64>, Vec<f64>) {
    let mu = sliding_mean_naive(x, w);
    let var = mu
        .iter()
        .enumerate()
        .map(|(t, &m)| {
            let mut acc = 0.0;
            for k in 0..w {
                let idx = t as isize - k as isize;
                let v = if idx < 0 { x[0] } else { x[idx as usize] };
                let d = v - m;
                acc += d * d;
            }
            acc / w as f64
        })
        .collect();
    (mu, var)
}

/// `var / (|μ| + ε)`, in place over `var`.
fn cv_from(mu: &[f64], mut var: Vec<f64>) -> Vec<f64> {
    for (v, &m) in var.iter_mut().zip(mu) {
        *v /= m.abs() + CV_EPS;
    }
    var
}

/// Selects the `k` top indices under `cmp` via a partial selection: an O(n)
/// `select_nth_unstable_by` partition followed by a sort of only the selected
/// prefix, instead of sorting the whole index range. The comparator is total
/// and includes the index tie-break, so the selected *set* and its order both
/// match a full sort exactly.
fn select_k_by(len: usize, k: usize, cmp: impl Fn(&usize, &usize) -> std::cmp::Ordering) -> Vec<usize> {
    let k = k.min(len);
    let mut idx: Vec<usize> = (0..len).collect();
    if k == 0 {
        return Vec::new();
    }
    if k < len {
        idx.select_nth_unstable_by(k - 1, &cmp);
        idx.truncate(k);
    }
    idx.sort_unstable_by(cmp);
    idx
}

/// Indices of the `k` largest values (the paper's `TopIndex`, Eq. 2), in
/// descending value order. Ties break toward the earlier index so results are
/// deterministic.
pub fn top_k_indices(values: &[f64], k: usize) -> Vec<usize> {
    select_k_by(values.len(), k, |&a, &b| {
        values[b].partial_cmp(&values[a]).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
    })
}

/// Indices of the `k` smallest values (used by amplitude masking, Eq. 8).
pub fn bottom_k_indices(values: &[f64], k: usize) -> Vec<usize> {
    select_k_by(values.len(), k, |&a, &b| {
        values[a].partial_cmp(&values[b]).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
    })
}

/// O(1)-per-sample trailing-window statistics for one channel: the rolling
/// sum and sum-of-squares over the last `w` samples, from which the
/// mean/variance/CV of Eq. 1–5 follow directly. This is the incremental
/// counterpart of [`sliding_cv_fft`]: a serving stream updates one of these
/// per channel per arriving observation instead of re-convolving the whole
/// window every hop.
///
/// Rolling add/subtract accumulates floating-point drift over long streams;
/// call [`RollingStats::refresh`] periodically (the serving engine does so
/// on its drift-refresh cadence) to recompute both accumulators exactly from
/// the retained samples.
#[derive(Clone, Debug)]
pub struct RollingStats {
    w: usize,
    ring: Vec<f64>,
    pos: usize,
    len: usize,
    sum: f64,
    sumsq: f64,
}

impl RollingStats {
    /// Creates an empty window of length `w` (>= 1).
    pub fn new(w: usize) -> Self {
        assert!(w >= 1, "window must be >= 1");
        Self { w, ring: vec![0.0; w], pos: 0, len: 0, sum: 0.0, sumsq: 0.0 }
    }

    /// Pushes one sample, evicting the sample `w` steps back once full.
    pub fn push(&mut self, x: f64) {
        if self.len == self.w {
            let old = self.ring[self.pos];
            self.sum -= old;
            self.sumsq -= old * old;
        } else {
            self.len += 1;
        }
        self.ring[self.pos] = x;
        self.sum += x;
        self.sumsq += x * x;
        self.pos = (self.pos + 1) % self.w;
    }

    /// Whether `w` samples have been seen (mean/var are over a full window).
    pub fn is_full(&self) -> bool {
        self.len == self.w
    }

    /// Heap bytes held by the sample ring (memory accounting).
    pub fn heap_bytes(&self) -> usize {
        self.ring.capacity() * std::mem::size_of::<f64>()
    }

    /// Trailing-window mean `μ_t` over the samples seen (at most `w`).
    pub fn mean(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.sum / self.len as f64
        }
    }

    /// Trailing-window population variance `μ⁽²⁾_t − μ_t²`, clamped at zero
    /// against rounding — the same definition as [`sliding_var_fft`].
    pub fn var(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let m = self.mean();
        (self.sumsq / self.len as f64 - m * m).max(0.0)
    }

    /// Coefficient of variation `var / (|μ| + ε)` with the shared [`CV_EPS`].
    pub fn cv(&self) -> f64 {
        self.var() / (self.mean().abs() + CV_EPS)
    }

    /// Recomputes `sum`/`sumsq` exactly from the retained samples, zeroing
    /// any drift the rolling add/subtract updates accumulated.
    pub fn refresh(&mut self) {
        self.sum = 0.0;
        self.sumsq = 0.0;
        for &x in &self.ring[..self.len] {
            self.sum += x;
            self.sumsq += x * x;
        }
    }

    /// Drops all samples (stream quarantine / re-warm).
    pub fn reset(&mut self) {
        self.len = 0;
        self.pos = 0;
        self.sum = 0.0;
        self.sumsq = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(n: usize) -> Vec<f64> {
        (0..n).map(|t| 2.0 + (t as f64 * 0.21).sin() + 0.3 * (t as f64 * 1.7).cos()).collect()
    }

    #[test]
    fn fft_and_naive_cv_agree() {
        let x = wave(300);
        for &w in &[2usize, 5, 10, 20] {
            let fast = sliding_cv_fft(&x, w);
            let slow = sliding_cv_naive(&x, w);
            for (a, b) in fast.iter().zip(slow.iter()) {
                assert!((a - b).abs() < 1e-6, "w={w}");
            }
        }
    }

    #[test]
    fn constant_signal_has_zero_cv() {
        let x = vec![5.0; 100];
        let cv = sliding_cv_fft(&x, 10);
        assert!(cv.iter().all(|&v| v.abs() < 1e-8));
    }

    #[test]
    fn spike_raises_cv_locally() {
        let mut x = vec![1.0; 200];
        x[100] = 25.0;
        let cv = sliding_cv_fft(&x, 10);
        let baseline = cv[50];
        assert!(cv[100] > baseline + 1.0, "spike not reflected: {} vs {}", cv[100], baseline);
        // The elevated region is confined to the trailing windows that
        // contain the spike (indices 100..110).
        assert!(cv[130] < cv[100] / 10.0);
    }

    #[test]
    fn cv_is_scale_invariant() {
        // §IV-A1: "our masking strategy is not affected by changes in the
        // scale of the data". var scales with c², mean with c, so var/|mean|
        // scales with c — but the *ranking* (what TopIndex consumes) is
        // preserved; and for the normalized statistic the top indices match.
        let x = wave(200);
        let scaled: Vec<f64> = x.iter().map(|v| v * 37.0).collect();
        let a = sliding_cv_fft(&x, 10);
        let b = sliding_cv_fft(&scaled, 10);
        assert_eq!(top_k_indices(&a, 20), top_k_indices(&b, 20));
    }

    #[test]
    fn cv_is_variance_over_abs_mean_bitwise() {
        let x = wave(150);
        for &w in &[1usize, 2, 10, 33] {
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            let compose = |mu: Vec<f64>, var: Vec<f64>| {
                bits(var.iter().zip(&mu).map(|(&v, &m)| v / (m.abs() + CV_EPS)).collect())
            };
            let fft = compose(sliding_mean_fft(&x, w), sliding_var_fft(&x, w));
            assert_eq!(bits(sliding_cv_fft(&x, w)), fft, "fft w={w}");
            let naive = compose(sliding_mean_naive(&x, w), sliding_var_naive(&x, w));
            assert_eq!(bits(sliding_cv_naive(&x, w)), naive, "naive w={w}");
        }
    }

    #[test]
    fn top_and_bottom_k() {
        let v = [1.0, 9.0, 3.0, 9.0, 0.5];
        assert_eq!(top_k_indices(&v, 2), vec![1, 3]);
        assert_eq!(bottom_k_indices(&v, 2), vec![4, 0]);
        assert_eq!(top_k_indices(&v, 99).len(), 5);
        assert!(top_k_indices(&v, 0).is_empty());
    }

    /// The pre-selection reference implementation: full sort + truncate.
    fn top_k_reference(values: &[f64], k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..values.len()).collect();
        idx.sort_by(|&a, &b| {
            values[b].partial_cmp(&values[a]).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
        });
        idx.truncate(k.min(values.len()));
        idx
    }

    fn bottom_k_reference(values: &[f64], k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..values.len()).collect();
        idx.sort_by(|&a, &b| {
            values[a].partial_cmp(&values[b]).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
        });
        idx.truncate(k.min(values.len()));
        idx
    }

    /// Deterministic pseudo-random values without a rand dependency.
    fn lcg_values(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            })
            .collect()
    }

    #[test]
    fn selection_matches_full_sort_on_random_inputs() {
        for seed in 0..8u64 {
            let v = lcg_values(97, seed);
            for &k in &[0usize, 1, 5, 48, 96, 97, 200] {
                assert_eq!(top_k_indices(&v, k), top_k_reference(&v, k), "top k={k} seed={seed}");
                assert_eq!(
                    bottom_k_indices(&v, k),
                    bottom_k_reference(&v, k),
                    "bottom k={k} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn selection_matches_full_sort_on_all_ties() {
        // All equal values: the documented tie-break (earlier index first)
        // must survive the unstable partition.
        let v = vec![2.5; 64];
        for &k in &[1usize, 7, 63, 64] {
            assert_eq!(top_k_indices(&v, k), (0..k).collect::<Vec<_>>());
            assert_eq!(bottom_k_indices(&v, k), (0..k).collect::<Vec<_>>());
            assert_eq!(top_k_indices(&v, k), top_k_reference(&v, k));
            assert_eq!(bottom_k_indices(&v, k), bottom_k_reference(&v, k));
        }
        // Blocks of ties mixed with distinct values.
        let mut v = lcg_values(60, 3);
        for x in v.iter_mut().step_by(3) {
            *x = 0.5;
        }
        for &k in &[4usize, 20, 21, 59] {
            assert_eq!(top_k_indices(&v, k), top_k_reference(&v, k), "tie blocks k={k}");
            assert_eq!(bottom_k_indices(&v, k), bottom_k_reference(&v, k), "tie blocks k={k}");
        }
    }

    #[test]
    fn rolling_stats_match_batch_sliding_statistics() {
        let x = wave(200);
        let w = 10;
        let mu = sliding_mean_naive(&x, w);
        let var = sliding_var_fft(&x, w);
        let cv = sliding_cv_naive(&x, w);
        let mut r = RollingStats::new(w);
        for (t, &v) in x.iter().enumerate() {
            r.push(v);
            if t >= w - 1 {
                // Past the head, the trailing window holds real samples and
                // the rolling accumulators must agree with the batch paths.
                assert!(r.is_full());
                assert!((r.mean() - mu[t]).abs() < 1e-9, "mean t={t}");
                assert!((r.var() - var[t]).abs() < 1e-9, "var t={t}");
                assert!((r.cv() - cv[t]).abs() < 1e-9, "cv t={t}");
            }
        }
    }

    #[test]
    fn rolling_refresh_removes_drift_and_reset_empties() {
        let mut r = RollingStats::new(8);
        // A long stream with large magnitudes to provoke cancellation drift.
        for t in 0..200_000 {
            r.push(1e6 + (t as f64 * 0.37).sin());
        }
        let before = (r.sum, r.sumsq);
        r.refresh();
        // Refresh recomputes exactly from the retained 8 samples.
        let exact_sum: f64 = r.ring.iter().sum();
        assert_eq!(r.sum, exact_sum);
        assert!((before.0 - r.sum).abs() < 1.0, "drift should be small but nonzero-able");
        r.reset();
        assert!(!r.is_full());
        assert_eq!(r.mean(), 0.0);
        r.push(3.0);
        assert!((r.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn variance_matches_two_pass_definition() {
        let x = wave(64);
        let var = sliding_var_naive(&x, 8);
        // Spot-check a window interior point against a direct computation.
        let t = 40;
        let win: Vec<f64> = (0..8).map(|k| x[t - k]).collect();
        let mu: f64 = win.iter().sum::<f64>() / 8.0;
        let v: f64 = win.iter().map(|x| (x - mu) * (x - mu)).sum::<f64>() / 8.0;
        assert!((var[t] - v).abs() < 1e-10);
    }
}
