//! Sinusoidal positional encoding (Eq. 11).

/// Positional encoding value for position `t`, channel `i`, width `d`.
///
/// `c_t^i = sin(t / 10000^{i/d})` for even `i`, `cos(t / 10000^{(i-1)/d})`
/// for odd `i` — exactly Eq. 11 of the paper.
#[inline]
pub fn encoding_at(t: usize, i: usize, d: usize) -> f32 {
    let exponent = if i.is_multiple_of(2) { i as f32 } else { (i - 1) as f32 } / d as f32;
    let angle = t as f32 / 10000f32.powf(exponent);
    if i.is_multiple_of(2) {
        angle.sin()
    } else {
        angle.cos()
    }
}

/// Dense `[len, d]` row-major positional-encoding table for positions
/// `0..len`.
pub fn encoding_table(len: usize, d: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(len * d);
    for t in 0..len {
        for i in 0..d {
            out.push(encoding_at(t, i, d));
        }
    }
    out
}

/// Encoding rows for an explicit list of (possibly non-contiguous)
/// positions — used when masked tokens are re-inserted at their original
/// offsets in the temporal decoder (§IV-B2).
pub fn encoding_for_positions(positions: &[usize], d: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(positions.len() * d);
    for &t in positions {
        for i in 0..d {
            out.push(encoding_at(t, i, d));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn position_zero_alternates_zero_one() {
        let d = 8;
        let table = encoding_table(1, d);
        for (i, v) in table.iter().enumerate() {
            let expect = if i % 2 == 0 { 0.0 } else { 1.0 };
            assert!((v - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn values_are_bounded() {
        let table = encoding_table(200, 16);
        assert!(table.iter().all(|v| (-1.0..=1.0).contains(v)));
    }

    #[test]
    fn rows_are_distinct_for_distinct_positions() {
        let d = 16;
        let a = encoding_for_positions(&[3], d);
        let b = encoding_for_positions(&[57], d);
        let dist: f32 = a.iter().zip(b.iter()).map(|(x, y)| (x - y).abs()).sum();
        assert!(dist > 0.5);
    }

    #[test]
    fn explicit_positions_match_table_rows() {
        let d = 8;
        let table = encoding_table(10, d);
        let picked = encoding_for_positions(&[2, 7], d);
        assert_eq!(&picked[..d], &table[2 * d..3 * d]);
        assert_eq!(&picked[d..], &table[7 * d..8 * d]);
    }

    #[test]
    fn wavelengths_grow_with_channel() {
        // Higher channels oscillate slower: over positions 0..10 the first
        // channel varies more than the last even channel.
        let d = 32;
        let var_of = |i: usize| {
            let vals: Vec<f32> = (0..10).map(|t| encoding_at(t, i, d)).collect();
            let m: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            vals.iter().map(|v| (v - m) * (v - m)).sum::<f32>()
        };
        assert!(var_of(0) > var_of(30));
    }
}
