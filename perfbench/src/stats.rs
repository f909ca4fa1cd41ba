//! The arithmetic the report is built from: medians, the tail percentile
//! rule, and throughput units.

/// Bytes in one MB. Throughputs are decimal MB (10^6 bytes) per second.
pub const MB: f64 = 1e6;

/// Throughput in MB/s of `bytes` processed in `secs` seconds.
pub fn mb_per_s(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / MB / secs
}

/// Median of `xs`: the middle value, or the mean of the two middle values
/// for an even count. `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Samples a reported percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the tail rule chooses from, in permille, highest first
/// (integers, so ranks are exact).
const PERMILLES: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `95.0`.
    pub pct: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
    /// Samples in all.
    pub n: usize,
}

/// The highest of the standard percentiles that still has at least
/// [`MIN_BEYOND`] samples beyond it, by the nearest-rank definition (the
/// `p`-th percentile of `n` sorted samples is the one at rank
/// `ceil(p/100 · n)`). `None` when even the median lacks that support.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    PERMILLES.iter().find_map(|&pm| {
        let rank = (pm * n).div_ceil(1000).max(1);
        let beyond = n.checked_sub(rank)?;
        (beyond >= MIN_BEYOND).then(|| Tail {
            pct: pm as f64 / 10.0,
            value: v[rank - 1],
            beyond,
            n,
        })
    })
}

/// `num / den`, or 0 when the denominator is 0 (a layer the workload does
/// not exercise).
pub fn ratio_or_zero(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn megabytes_are_decimal() {
        assert_eq!(mb_per_s(1_000_000, 1.0), 1.0);
        assert_eq!(mb_per_s(8 << 20, 0.5), 16.777216);
        assert_eq!(mb_per_s(79_000_000, 2.0), 39.5);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        // p99 of 200 is rank 198 with 2 beyond; p95 is rank 190 with 10.
        let t = tail(&xs).unwrap();
        assert_eq!((t.pct, t.value, t.beyond, t.n), (95.0, 190.0, 10, 200));

        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));

        // 20 samples support only the median (rank 10, 10 beyond).
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (50.0, 10.0, 10));

        // 19 samples support no percentile at all.
        assert_eq!(tail(&xs[..19]), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        xs.reverse();
        let t = tail(&xs).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 90.0, 10));
    }

    #[test]
    fn ratio_of_an_unexercised_layer_is_zero() {
        assert_eq!(ratio_or_zero(5.0, 0.0), 0.0);
        assert_eq!(ratio_or_zero(5.0, 2.0), 2.5);
    }
}
