//! Median and quartiles over a handful of repeats.

/// Median, quartiles and sample count of one metric.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Samples.
    pub n: usize,
}

/// Linear-interpolated quantile of a sorted slice (`p` in `0..=1`).
fn quantile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = p * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Summarizes `values` (any order).
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Summary {
        median: quantile(&v, 0.5),
        q1: quantile(&v, 0.25),
        q3: quantile(&v, 0.75),
        n: v.len(),
    }
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// FNV-1a fold, for fingerprints that must repeat exactly.
pub fn fold(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01B3)
}

/// FNV-1a offset basis.
pub const FOLD_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// splitmix64: derives independent sub-seeds from `--seed`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_of_small_samples() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        assert_eq!(summarize(&[7.0]).median, 7.0);
        assert_eq!(summarize(&[]).n, 0);
    }

    #[test]
    fn mix_separates_streams() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(9, 3), mix(9, 3));
    }
}
