//! Multivariate time-series container (the `S ∈ R^{|S|×N}` of §III).

/// A dense, row-major multivariate time series: `data[t * dims + n]` is
/// feature `n` at time `t`.
#[derive(Clone, Debug, PartialEq)]
pub struct TimeSeries {
    data: Vec<f32>,
    len: usize,
    dims: usize,
}

impl TimeSeries {
    /// Wraps row-major values.
    ///
    /// # Panics
    /// Panics if `data.len() != len * dims`.
    pub fn new(data: Vec<f32>, len: usize, dims: usize) -> Self {
        assert_eq!(data.len(), len * dims, "TimeSeries data length mismatch");
        Self { data, len, dims }
    }

    /// A zero-filled series.
    pub fn zeros(len: usize, dims: usize) -> Self {
        Self { data: vec![0.0; len * dims], len, dims }
    }

    /// Builds a series from per-channel columns of equal length.
    pub fn from_channels(channels: &[Vec<f32>]) -> Self {
        let dims = channels.len();
        assert!(dims > 0, "from_channels needs at least one channel");
        let len = channels[0].len();
        assert!(channels.iter().all(|c| c.len() == len), "channel lengths differ");
        let mut data = Vec::with_capacity(len * dims);
        for t in 0..len {
            for ch in channels {
                data.push(ch[t]);
            }
        }
        Self { data, len, dims }
    }

    /// A univariate series from one column.
    pub fn univariate(values: Vec<f32>) -> Self {
        let len = values.len();
        Self { data: values, len, dims: 1 }
    }

    /// Time length `|S|`.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the series has zero observations.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Feature count `N`.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Raw row-major values.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw values.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Value of feature `n` at time `t`.
    #[inline]
    pub fn get(&self, t: usize, n: usize) -> f32 {
        debug_assert!(t < self.len && n < self.dims);
        self.data[t * self.dims + n]
    }

    /// Sets feature `n` at time `t`.
    #[inline]
    pub fn set(&mut self, t: usize, n: usize, v: f32) {
        debug_assert!(t < self.len && n < self.dims);
        self.data[t * self.dims + n] = v;
    }

    /// The observation row at time `t`.
    pub fn row(&self, t: usize) -> &[f32] {
        &self.data[t * self.dims..(t + 1) * self.dims]
    }

    /// Copies channel `n` out as `f64` (FFT interface).
    pub fn channel_f64(&self, n: usize) -> Vec<f64> {
        (0..self.len).map(|t| self.get(t, n) as f64).collect()
    }

    /// Copies channel `n` out as `f32`.
    pub fn channel(&self, n: usize) -> Vec<f32> {
        (0..self.len).map(|t| self.get(t, n)).collect()
    }

    /// The sub-series covering `range` (half-open, in time steps).
    pub fn slice(&self, range: std::ops::Range<usize>) -> TimeSeries {
        assert!(range.end <= self.len, "slice out of range");
        let data = self.data[range.start * self.dims..range.end * self.dims].to_vec();
        TimeSeries::new(data, range.len(), self.dims)
    }

    /// Concatenates `other` after `self` (same dims).
    pub fn concat(&self, other: &TimeSeries) -> TimeSeries {
        assert_eq!(self.dims, other.dims, "concat dims mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        TimeSeries::new(data, self.len + other.len, self.dims)
    }

    /// Per-channel mean.
    pub fn channel_means(&self) -> Vec<f32> {
        let mut m = vec![0.0f64; self.dims];
        for t in 0..self.len {
            for (n, acc) in m.iter_mut().enumerate() {
                *acc += self.get(t, n) as f64;
            }
        }
        m.iter().map(|&v| (v / self.len.max(1) as f64) as f32).collect()
    }

    /// Per-channel population standard deviation.
    pub fn channel_stds(&self) -> Vec<f32> {
        let means = self.channel_means();
        let mut v = vec![0.0f64; self.dims];
        for t in 0..self.len {
            for n in 0..self.dims {
                let d = self.get(t, n) as f64 - means[n] as f64;
                v[n] += d * d;
            }
        }
        v.iter().map(|&x| ((x / self.len.max(1) as f64).sqrt()) as f32).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let ts = TimeSeries::new(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3, 2);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.dims(), 2);
        assert_eq!(ts.get(0, 0), 1.0);
        assert_eq!(ts.get(2, 1), 6.0);
        assert_eq!(ts.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn from_channels_interleaves() {
        let ts = TimeSeries::from_channels(&[vec![1.0, 2.0], vec![10.0, 20.0]]);
        assert_eq!(ts.data(), &[1.0, 10.0, 2.0, 20.0]);
        assert_eq!(ts.channel(1), vec![10.0, 20.0]);
        assert_eq!(ts.channel_f64(0), vec![1.0, 2.0]);
    }

    #[test]
    fn slice_and_concat_roundtrip() {
        let ts = TimeSeries::from_channels(&[(0..10).map(|v| v as f32).collect()]);
        let a = ts.slice(0..4);
        let b = ts.slice(4..10);
        assert_eq!(a.concat(&b), ts);
    }

    #[test]
    fn stats() {
        let ts = TimeSeries::from_channels(&[vec![1.0, 3.0], vec![0.0, 0.0]]);
        assert_eq!(ts.channel_means(), vec![2.0, 0.0]);
        assert_eq!(ts.channel_stds(), vec![1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn bad_length_panics() {
        TimeSeries::new(vec![1.0; 5], 2, 2);
    }

    #[test]
    fn univariate_helper() {
        let ts = TimeSeries::univariate(vec![1.0, 2.0, 3.0]);
        assert_eq!(ts.dims(), 1);
        assert_eq!(ts.len(), 3);
    }
}
