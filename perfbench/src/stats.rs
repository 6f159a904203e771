//! Order statistics for benchmark samples.
//!
//! Quartiles follow Python's `statistics.quantiles(data, n=4)` (the
//! default "exclusive" method), so a quartile printed here is the number a
//! script computing the spread of the same samples gets.

/// Sorted copy of `xs` (NaN-free by construction of every caller).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of `xs`; `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Smallest of `xs`; `None` when empty.
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().reduce(f64::min)
}

/// First quartile, median and third quartile of `xs`, by Python's
/// exclusive method; a single sample is its own three quartiles. `None`
/// when empty.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let ld = v.len();
    match ld {
        0 => None,
        1 => Some([v[0]; 3]),
        _ => {
            let m = ld + 1;
            let mut out = [0.0; 3];
            for (i, q) in (1..4).zip(out.iter_mut()) {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
            }
            Some(out)
        }
    }
}

/// Geometric mean of `xs`; `None` when empty or when any value is not
/// strictly positive (a geomean of timings has no meaning there).
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// The percentile ladder a tail is reported on.
const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` of `xs`, together with the number of
/// samples ranked beyond it; `None` when empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<(f64, usize)> {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Some((v[rank - 1], n - rank))
}

/// The highest percentile of the ladder with at least
/// [`TAIL_MIN_BEYOND`] samples ranked beyond it, as `(percentile, value)`;
/// `None` when even the median does not qualify.
pub fn reportable_tail(xs: &[f64]) -> Option<(f64, f64)> {
    TAIL_LADDER
        .iter()
        .rev()
        .find_map(|&p| match percentile(xs, p)? {
            (value, beyond) if beyond >= TAIL_MIN_BEYOND => Some((p, value)),
            _ => None,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_degenerate_and_even_inputs() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[3.0, 3.0, 3.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn min_handles_degenerate_inputs() {
        assert_eq!(min(&[]), None);
        assert_eq!(min(&[7.0]), Some(7.0));
        assert_eq!(min(&[3.0; 5]), Some(3.0));
        assert_eq!(min(&[4.0, 1.5, 3.0, 2.0]), Some(1.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        assert_eq!(quartiles(&[]), None);
        assert_eq!(quartiles(&[5.0]), Some([5.0; 3]));
        assert_eq!(quartiles(&[2.0; 6]), Some([2.0; 3]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
    }

    #[test]
    fn quartile_median_agrees_with_median() {
        for n in 1..40 {
            let xs: Vec<f64> = (0..n).map(|i| ((i * 37) % 11) as f64).collect();
            assert_eq!(quartiles(&xs).map(|q| q[1]), median(&xs), "n = {n}");
        }
    }

    #[test]
    fn geomean_is_scale_invariant_and_rejects_degenerate_input() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[0.0, 4.0]), None);
        assert_eq!(geomean(&[-1.0]), None);
        assert!((geomean(&[9.0]).unwrap() - 9.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0; 7]).unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[3.0], 99.0), Some((3.0, 0)));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some((50.0, 50)));
        assert_eq!(percentile(&xs, 99.0), Some((99.0, 1)));
        assert_eq!(percentile(&xs, 100.0), Some((100.0, 0)));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(reportable_tail(&[]), None);
        assert_eq!(reportable_tail(&[1.0]), None);
        // 19 samples: the median has only 9 beyond it.
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(reportable_tail(&xs), None);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(reportable_tail(&xs), Some((50.0, 10.0)));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(reportable_tail(&xs), Some((90.0, 90.0)));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(reportable_tail(&xs), Some((99.0, 990.0)));
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(reportable_tail(&xs), Some((95.0, 950.0)));
        // All-equal samples: ranks, not values, decide what lies beyond.
        assert_eq!(reportable_tail(&[4.0; 1000]), Some((99.0, 4.0)));
    }
}
