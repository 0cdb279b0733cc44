//! Sample summaries: fastest, median, quartiles.

/// Smallest sample (the pass the scheduler disturbed least).
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Largest sample; 0 when empty.
pub fn slowest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(0.0, f64::max)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the "exclusive" method), so spreads printed here are the
/// ones the acceptance protocol measures. Fewer than two samples have no
/// spread: both quartiles are the sample itself.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        // `delta` is negative when the clamp moved `j` up (extrapolation),
        // exactly as in the Python reference.
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles.
pub fn iqr(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    q3 - q1
}

/// How far `estimate` moves between the even-numbered and the odd-numbered
/// samples, as a share of its value on all of them (0 below two samples).
pub fn halves_disagree(samples: &[f64], estimate: fn(&[f64]) -> f64) -> f64 {
    let whole = estimate(samples);
    if samples.len() < 2 || whole == 0.0 {
        return 0.0;
    }
    let half = |odd: usize| -> Vec<f64> { samples.iter().copied().skip(odd).step_by(2).collect() };
    ((estimate(&half(0)) - estimate(&half(1))) / whole).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_median_and_iqr_selection() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(fastest(&s), 1.0);
        assert_eq!(median(&s), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&s), (1.5, 4.5));
        assert_eq!(iqr(&s), 3.0);
        assert_eq!(slowest(&s), 5.0);
        // Even-numbered samples 5, 4, 3 against odd-numbered 1, 2.
        assert_eq!(halves_disagree(&s, fastest), 2.0);
        assert_eq!(halves_disagree(&s, median), 2.5 / 3.0);
        assert_eq!(halves_disagree(&[4.0], median), 0.0);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }
}
