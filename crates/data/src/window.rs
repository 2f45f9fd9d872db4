//! Sliding-window extraction and batching.
//!
//! The paper fixes the model input length to 100 (§V-B) and scores every
//! observation; windows tile the series (stride = window by default, as in
//! the AnomalyTransformer/DCdetector evaluation protocol the paper follows),
//! with a final overlapping window to cover the tail.

use crate::series::TimeSeries;

/// One extracted window: the time offset of its first observation plus its
/// row-major values (`win_len × dims`).
#[derive(Clone, Debug)]
pub struct Window {
    /// Index of the window's first observation in the source series.
    pub start: usize,
    /// Row-major values, `win_len * dims` long.
    pub values: Vec<f32>,
}

/// Extracts windows of `win_len` at the given `stride`, appending one final
/// tail-aligned window when the series length is not a multiple of the
/// stride. For `stride <= win_len` (the only regime the detectors use)
/// every observation is covered by at least one window.
///
/// Series shorter than `win_len` yield a single zero-padded window (padding
/// repeats the last observation).
pub fn extract_windows(s: &TimeSeries, win_len: usize, stride: usize) -> Vec<Window> {
    assert!(win_len >= 1 && stride >= 1, "window/stride must be positive");
    let n = s.len();
    let d = s.dims();
    if n == 0 {
        return Vec::new();
    }
    if n < win_len {
        // Edge-pad by repeating the final row.
        let mut values = s.data().to_vec();
        let last = s.row(n - 1).to_vec();
        for _ in n..win_len {
            values.extend_from_slice(&last);
        }
        return vec![Window { start: 0, values }];
    }
    let mut out = Vec::new();
    let mut start = 0;
    while start + win_len <= n {
        out.push(Window { start, values: s.data()[start * d..(start + win_len) * d].to_vec() });
        start += stride;
    }
    let covered = out.last().map(|w| w.start + win_len).unwrap_or(0);
    if covered < n {
        let start = n - win_len;
        out.push(Window { start, values: s.data()[start * d..].to_vec() });
    }
    out
}

/// Groups windows into batches of at most `batch` windows each, producing
/// `(starts, values)` with values shaped `[B, win_len, dims]` row-major.
pub fn batch_windows(windows: &[Window], batch: usize) -> Vec<(Vec<usize>, Vec<f32>)> {
    assert!(batch >= 1);
    windows
        .chunks(batch)
        .map(|chunk| {
            let starts = chunk.iter().map(|w| w.start).collect();
            let mut values = Vec::with_capacity(chunk.len() * chunk[0].values.len());
            for w in chunk {
                values.extend_from_slice(&w.values);
            }
            (starts, values)
        })
        .collect()
}

/// Streaming fold of per-window scores onto the series timeline: windows are
/// added one slice at a time, straight out of a scoring loop's batch output
/// buffers; overlapping windows average their contributions and uncovered
/// positions finish at zero (every observation is covered by construction of
/// [`extract_windows`]).
pub struct ScoreAccumulator {
    win_len: usize,
    acc: Vec<f64>,
    cnt: Vec<u32>,
}

impl ScoreAccumulator {
    /// An empty fold over `series_len` observations of `win_len`-long windows.
    pub fn new(series_len: usize, win_len: usize) -> Self {
        Self { win_len, acc: vec![0.0f64; series_len], cnt: vec![0u32; series_len] }
    }

    /// Adds one window's per-timestep scores at offset `start`.
    ///
    /// # Panics
    /// Panics if `scores.len() != win_len`.
    pub fn add(&mut self, start: usize, scores: &[f32]) {
        assert_eq!(scores.len(), self.win_len, "per-window score length mismatch");
        for (i, &v) in scores.iter().enumerate() {
            let t = start + i;
            if t < self.acc.len() {
                self.acc[t] += v as f64;
                self.cnt[t] += 1;
            }
        }
    }

    /// Averages the accumulated contributions into per-observation scores.
    pub fn finish(self) -> Vec<f32> {
        self.acc
            .iter()
            .zip(self.cnt.iter())
            .map(|(&a, &c)| if c > 0 { (a / c as f64) as f32 } else { 0.0 })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> TimeSeries {
        TimeSeries::univariate((0..n).map(|v| v as f32).collect())
    }

    #[test]
    fn exact_tiling() {
        let s = ramp(10);
        let ws = extract_windows(&s, 5, 5);
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].start, 0);
        assert_eq!(ws[1].start, 5);
        assert_eq!(ws[1].values, vec![5.0, 6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn tail_window_covers_remainder() {
        let s = ramp(12);
        let ws = extract_windows(&s, 5, 5);
        assert_eq!(ws.len(), 3);
        assert_eq!(ws[2].start, 7);
        // Every index covered.
        let mut covered = [false; 12];
        for w in &ws {
            for i in 0..5 {
                covered[w.start + i] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn short_series_pads() {
        let s = ramp(3);
        let ws = extract_windows(&s, 5, 5);
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].values, vec![0.0, 1.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn overlapping_stride() {
        let s = ramp(10);
        let ws = extract_windows(&s, 4, 2);
        assert_eq!(ws.iter().map(|w| w.start).collect::<Vec<_>>(), vec![0, 2, 4, 6]);
    }

    #[test]
    fn batching_shapes() {
        let s = ramp(20);
        let ws = extract_windows(&s, 5, 5);
        let batches = batch_windows(&ws, 3);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].0.len(), 3);
        assert_eq!(batches[0].1.len(), 3 * 5);
        assert_eq!(batches[1].0.len(), 1);
    }

    #[test]
    fn fold_averages_overlaps() {
        // Two windows overlap on index 2..4.
        let mut folder = ScoreAccumulator::new(6, 4);
        folder.add(0, &[1.0; 4]);
        folder.add(2, &[3.0; 4]);
        assert_eq!(folder.finish(), vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
    }

    #[test]
    fn fold_roundtrips_extract() {
        let s = ramp(13);
        let mut folder = ScoreAccumulator::new(13, 5);
        for w in extract_windows(&s, 5, 5) {
            folder.add(w.start, &w.values);
        }
        let folded = folder.finish();
        // Univariate identity scores reproduce the ramp where unambiguous.
        for (t, v) in folded.iter().enumerate() {
            assert!((v - t as f32).abs() < 1e-6);
        }
    }
}
