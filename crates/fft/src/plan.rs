//! Cached FFT plans: precomputed twiddle factors and bit-reversal tables
//! keyed by transform length.
//!
//! The detector issues thousands of identical-length transforms — the
//! sliding-CV statistics of temporal masking (Eq. 4–5) transform every
//! channel at the same padded length, and the frequency-mask DFT/IDFT
//! (Eq. 6–10) runs at the window length for every window. Recomputing
//! `cis(θ)` per butterfly dominated those transforms; a [`FftPlan`] does all
//! trigonometry once per length and the per-call work becomes pure
//! butterflies over table lookups.
//!
//! Plans live in a process-wide cache ([`plan_for_len`]) behind `Arc`, so
//! repeated same-length calls share one immutable plan across threads.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::complex::Complex64;
use crate::fft::Direction;

/// A precomputed transform plan for one length. Obtain via [`plan_for_len`];
/// execute with [`FftPlan::process`].
#[derive(Debug)]
pub struct FftPlan {
    n: usize,
    kind: PlanKind,
}

#[derive(Debug)]
enum PlanKind {
    /// Lengths 0 and 1: the transform is the identity.
    Tiny,
    Pow2(Pow2Tables),
    Bluestein(Box<BluesteinTables>),
}

/// Tables for the iterative radix-2 Cooley–Tukey kernel.
#[derive(Debug)]
struct Pow2Tables {
    /// `bitrev[i]` = index `i` with its `log2(n)` bits reversed.
    bitrev: Vec<u32>,
    /// Forward twiddles of every stage, concatenated: the stage with
    /// butterfly span `half = len/2` stores `w^k = cis(-2πk/len)` for
    /// `k in 0..half` at offset `half - 1` (total `n - 1` entries).
    tw_fwd: Vec<Complex64>,
    /// Conjugate (inverse-direction) twiddles, same layout. Stored rather
    /// than conjugated per butterfly so the hot loop is branch-free.
    tw_inv: Vec<Complex64>,
}

/// Tables for Bluestein's chirp-z algorithm (arbitrary lengths).
#[derive(Debug)]
struct BluesteinTables {
    /// Forward-direction chirp `c_k = e^{-iπk²/n}` (k² taken mod 2n).
    chirp_fwd: Vec<Complex64>,
    /// Inverse-direction chirp (conjugate of `chirp_fwd`).
    chirp_inv: Vec<Complex64>,
    /// `FFT(b)` where `b` is the circularly wrapped conjugate chirp, for
    /// each direction — the fixed factor of the convolution.
    bfft_fwd: Vec<Complex64>,
    bfft_inv: Vec<Complex64>,
    /// Power-of-two plan for the length-`conv_len` convolution FFTs.
    conv: Arc<FftPlan>,
}

impl FftPlan {
    /// Builds a plan for length `n` without touching the cache.
    fn build(n: usize) -> FftPlan {
        let kind = if n <= 1 {
            PlanKind::Tiny
        } else if n.is_power_of_two() {
            PlanKind::Pow2(Pow2Tables::build(n))
        } else {
            PlanKind::Bluestein(Box::new(BluesteinTables::build(n)))
        };
        FftPlan { n, kind }
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether this is the length-0 plan.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Executes the planned transform. Matches
    /// [`transform`](crate::fft::transform) semantics: forward is unscaled,
    /// inverse is scaled by `1/n`.
    ///
    /// # Panics
    /// Panics if `input.len()` differs from the planned length.
    pub fn process(&self, input: &[Complex64], dir: Direction) -> Vec<Complex64> {
        assert_eq!(input.len(), self.n, "plan built for length {}, got {}", self.n, input.len());
        match &self.kind {
            PlanKind::Tiny => input.to_vec(),
            PlanKind::Pow2(t) => {
                let mut buf = input.to_vec();
                t.run(&mut buf, dir);
                buf
            }
            PlanKind::Bluestein(t) => t.run(input, dir, self.n),
        }
    }

    /// In-place variant for power-of-two plans (the convolution fast path).
    ///
    /// # Panics
    /// Panics if the plan is not power-of-two sized or the buffer length
    /// differs from the planned length.
    pub fn process_in_place(&self, buf: &mut [Complex64], dir: Direction) {
        assert_eq!(buf.len(), self.n, "plan built for length {}, got {}", self.n, buf.len());
        match &self.kind {
            PlanKind::Tiny => {}
            PlanKind::Pow2(t) => t.run(buf, dir),
            PlanKind::Bluestein(_) => {
                panic!("process_in_place requires a power-of-two plan (len {})", self.n)
            }
        }
    }
}

impl Pow2Tables {
    fn build(n: usize) -> Pow2Tables {
        let bits = n.trailing_zeros();
        let bitrev = (0..n as u32).map(|i| i.reverse_bits() >> (32 - bits)).collect();
        let mut tw_fwd = Vec::with_capacity(n - 1);
        let mut len = 2usize;
        while len <= n {
            let half = len / 2;
            debug_assert_eq!(tw_fwd.len(), half - 1);
            for k in 0..half {
                let ang = -2.0 * std::f64::consts::PI * k as f64 / len as f64;
                tw_fwd.push(Complex64::cis(ang));
            }
            len <<= 1;
        }
        let tw_inv = tw_fwd.iter().map(|w| w.conj()).collect();
        Pow2Tables { bitrev, tw_fwd, tw_inv }
    }

    fn run(&self, buf: &mut [Complex64], dir: Direction) {
        let n = buf.len();
        for i in 0..n {
            let j = self.bitrev[i] as usize;
            if i < j {
                buf.swap(i, j);
            }
        }
        let tw = match dir {
            Direction::Forward => &self.tw_fwd,
            Direction::Inverse => &self.tw_inv,
        };
        let mut len = 2usize;
        while len <= n {
            let half = len / 2;
            let stage = &tw[half - 1..half - 1 + half];
            for block in buf.chunks_exact_mut(len) {
                let (lo, hi) = block.split_at_mut(half);
                for ((u, h), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(stage.iter()) {
                    let v = *h * w;
                    let t = *u;
                    *u = t + v;
                    *h = t - v;
                }
            }
            len <<= 1;
        }
        if dir == Direction::Inverse {
            let inv = 1.0 / n as f64;
            for z in buf.iter_mut() {
                *z = z.scale(inv);
            }
        }
    }
}

impl BluesteinTables {
    fn build(n: usize) -> BluesteinTables {
        // Chirp c_k = e^{-iπk²/n}; k² taken mod 2n since πk²/n is periodic
        // in k² with period 2n (precision guard for large k).
        let m2 = 2 * n;
        let mut chirp_fwd = Vec::with_capacity(n);
        for k in 0..n {
            let k2 = (k * k) % m2;
            chirp_fwd.push(Complex64::cis(-std::f64::consts::PI * k2 as f64 / n as f64));
        }
        let chirp_inv: Vec<Complex64> = chirp_fwd.iter().map(|c| c.conj()).collect();

        let conv_len = (2 * n - 1).next_power_of_two();
        let conv = plan_for_len(conv_len);
        let bfft = |chirp: &[Complex64]| {
            let mut b = vec![Complex64::ZERO; conv_len];
            b[0] = chirp[0].conj();
            for k in 1..n {
                let c = chirp[k].conj();
                b[k] = c;
                b[conv_len - k] = c;
            }
            conv.process_in_place(&mut b, Direction::Forward);
            b
        };
        let bfft_fwd = bfft(&chirp_fwd);
        let bfft_inv = bfft(&chirp_inv);
        BluesteinTables { chirp_fwd, chirp_inv, bfft_fwd, bfft_inv, conv }
    }

    fn run(&self, input: &[Complex64], dir: Direction, n: usize) -> Vec<Complex64> {
        let (chirp, bfft) = match dir {
            Direction::Forward => (&self.chirp_fwd, &self.bfft_fwd),
            Direction::Inverse => (&self.chirp_inv, &self.bfft_inv),
        };
        let conv_len = bfft.len();
        let mut a = vec![Complex64::ZERO; conv_len];
        for k in 0..n {
            a[k] = input[k] * chirp[k];
        }
        self.conv.process_in_place(&mut a, Direction::Forward);
        for (x, y) in a.iter_mut().zip(bfft.iter()) {
            *x *= *y;
        }
        self.conv.process_in_place(&mut a, Direction::Inverse);
        let mut out = Vec::with_capacity(n);
        for k in 0..n {
            out.push(a[k] * chirp[k]);
        }
        if dir == Direction::Inverse {
            let inv = 1.0 / n as f64;
            for z in out.iter_mut() {
                *z = z.scale(inv);
            }
        }
        out
    }
}

/// The process-wide plan for transform length `n`. Repeated calls with the
/// same length return clones of the same `Arc` (cheap, lock-bounded by a
/// `HashMap` probe); the first call per length pays the table construction.
pub fn plan_for_len(n: usize) -> Arc<FftPlan> {
    static PLANS: OnceLock<Mutex<HashMap<usize, Arc<FftPlan>>>> = OnceLock::new();
    static CACHE_HITS: tfmae_obs::LazyCounter = tfmae_obs::LazyCounter::new("fft.plan_cache.hits");
    static CACHE_MISSES: tfmae_obs::LazyCounter =
        tfmae_obs::LazyCounter::new("fft.plan_cache.misses");
    let cache = PLANS.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(plan) = cache.lock().expect("plan cache poisoned").get(&n) {
        CACHE_HITS.inc();
        return plan.clone();
    }
    CACHE_MISSES.inc();
    // Build outside the lock: a Bluestein plan recursively requests its
    // power-of-two convolution plan, and std's Mutex is not reentrant. A
    // concurrent duplicate build is harmless — first insert wins.
    let built = Arc::new(FftPlan::build(n));
    let mut cache = cache.lock().expect("plan cache poisoned");
    cache.entry(n).or_insert(built).clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::{dft, idft};

    fn ramp(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|t| Complex64::new((t as f64 * 0.37).sin() + 0.1 * t as f64, (t as f64 * 0.21).cos()))
            .collect()
    }

    fn max_err(a: &[Complex64], b: &[Complex64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (*x - *y).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn cache_returns_the_same_plan_object() {
        let a = plan_for_len(96);
        let b = plan_for_len(96);
        assert!(Arc::ptr_eq(&a, &b), "same length must share one plan");
        let c = plan_for_len(97);
        assert!(!Arc::ptr_eq(&a, &c), "different lengths get different plans");
        assert_eq!(a.len(), 96);
        assert_eq!(c.len(), 97);
    }

    #[test]
    fn planned_pow2_matches_unplanned_kernel_exactly_in_structure() {
        // Planned twiddles come from per-k cis() rather than iterated
        // multiplication, so compare against the DFT oracle with the same
        // tolerance as the kernel tests.
        for &n in &[2usize, 8, 64, 256] {
            let x = ramp(n);
            let got = plan_for_len(n).process(&x, Direction::Forward);
            assert!(max_err(&dft(&x), &got) < 1e-8, "n={n}");
        }
    }

    #[test]
    fn planned_inverse_matches_naive_idft() {
        for &n in &[4usize, 9, 100, 128] {
            let x = ramp(n);
            let got = plan_for_len(n).process(&x, Direction::Inverse);
            assert!(max_err(&idft(&x), &got) < 1e-8, "n={n}");
        }
    }

    #[test]
    fn in_place_requires_pow2() {
        let plan = plan_for_len(12);
        let mut buf = ramp(12);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.process_in_place(&mut buf, Direction::Forward)
        }));
        assert!(err.is_err(), "Bluestein plan must reject in-place use");
    }
}
