//! Property tests on the benchmark simulators and windowing machinery:
//! each test draws its inputs from `StdRng::seed_from_u64(case)` for every
//! case in `0..CASES`, so a failure names the case that reproduces it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tfmae_data::{
    batch_windows, extract_windows, generate, DatasetKind, ScoreAccumulator, TimeSeries, ZScore,
};

const CASES: u64 = 40;

#[test]
fn windows_cover_every_observation() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let len = rng.gen_range(1usize..500);
        let win = rng.gen_range(1usize..120);
        let stride_frac = rng.gen_range(0.1f64..1.0);
        // Coverage is guaranteed for stride <= win (the detectors' regime).
        let stride = ((win as f64 * stride_frac) as usize).max(1);
        let s = TimeSeries::univariate((0..len).map(|v| v as f32).collect());
        let ws = extract_windows(&s, win, stride);
        let mut covered = vec![false; len];
        for w in &ws {
            for i in 0..win {
                if w.start + i < len {
                    covered[w.start + i] = true;
                }
            }
        }
        assert!(
            covered.iter().all(|&c| c),
            "case {case}: uncovered observations (len {len}, win {win}, stride {stride})"
        );
    }
}

#[test]
fn window_values_match_source() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let len = rng.gen_range(50usize..300);
        let stride = rng.gen_range(10usize..60);
        let s = TimeSeries::univariate((0..len).map(|v| (v as f32).sin()).collect());
        for w in extract_windows(&s, 40.min(len), stride) {
            for (i, &v) in w.values.iter().enumerate() {
                assert_eq!(v, s.get(w.start + i, 0), "case {case}: window at {}", w.start);
            }
        }
    }
}

#[test]
fn batching_preserves_window_contents() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let len = rng.gen_range(120usize..400);
        let batch = rng.gen_range(1usize..9);
        let s = TimeSeries::univariate((0..len).map(|v| v as f32 * 0.5).collect());
        let ws = extract_windows(&s, 30, 30);
        let batches = batch_windows(&ws, batch);
        let mut idx = 0;
        for (starts, values) in batches {
            for (wi, &start) in starts.iter().enumerate() {
                assert_eq!(start, ws[idx].start, "case {case}");
                assert_eq!(
                    &values[wi * 30..(wi + 1) * 30],
                    ws[idx].values.as_slice(),
                    "case {case}"
                );
                idx += 1;
            }
        }
        assert_eq!(idx, ws.len(), "case {case}");
    }
}

#[test]
fn fold_of_constant_scores_is_constant() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let len = rng.gen_range(50usize..300);
        let s = TimeSeries::univariate(vec![0.0; len]);
        let win = 25.min(len);
        let scores = vec![2.5; win];
        let mut folder = ScoreAccumulator::new(len, win);
        for w in extract_windows(&s, win, win) {
            folder.add(w.start, &scores);
        }
        let folded = folder.finish();
        assert!(folded.iter().all(|&v| (v - 2.5).abs() < 1e-6), "case {case}");
    }
}

#[test]
fn zscore_statistics_respect_training_split() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let seed = rng.gen_range(0u64..30);
        let b = generate(DatasetKind::Psm, seed, 3000);
        let z = ZScore::fit(&b.train);
        let tn = z.transform(&b.train);
        for n in 0..tn.dims() {
            let m = tn.channel_means()[n];
            assert!(m.abs() < 1e-3, "case {case}: channel {n} mean {m} (simulator seed {seed})");
        }
    }
}

#[test]
fn simulators_are_seed_deterministic_and_seed_sensitive() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let seed = rng.gen_range(0u64..20);
        let a = generate(DatasetKind::Swat, seed, 4000);
        let b = generate(DatasetKind::Swat, seed, 4000);
        assert_eq!(a.test.data(), b.test.data(), "case {case}: simulator seed {seed}");
        let c = generate(DatasetKind::Swat, seed + 1, 4000);
        assert_ne!(a.test.data(), c.test.data(), "case {case}: simulator seed {seed}");
    }
}

#[test]
fn anomalies_exist_and_are_bounded() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let seed = rng.gen_range(0u64..20);
        for kind in [DatasetKind::Msl, DatasetKind::NipsTsSeasonal] {
            let b = generate(kind, seed, 3000);
            let count = b.test_labels.iter().filter(|&&l| l == 1).count();
            let name = kind.name();
            assert!(count > 0, "case {case}: {name} produced no anomalies (seed {seed})");
            assert!(count < b.test.len() / 2, "case {case}: {name} over-injected (seed {seed})");
        }
    }
}
