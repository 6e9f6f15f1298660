//! Order statistics for the run record.

/// The median (mean of the two middle values for an even count); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Quartiles by the same rule as Python's `statistics.quantiles(xs,
/// n=4)` (the "exclusive" method), for slices of at least two values.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let at = |p: f64| {
        let pos = p * (n as f64 + 1.0);
        let j = (pos.floor() as usize).clamp(1, n - 1);
        s[j - 1] + (pos - j as f64) * (s[j] - s[j - 1])
    };
    (at(0.25), at(0.75))
}

/// Quartile spread `(Q3 − Q1) / median`.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    if m > 0.0 {
        (q3 - q1) / m
    } else {
        0.0
    }
}

/// The tail of a latency sample: the highest rank that still has ten
/// samples beyond it. Returns `(value, percentile, samples_beyond)`;
/// with ten samples or fewer it falls back to the maximum.
pub fn tail(xs: &[f64]) -> (f64, f64, usize) {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    if n <= 10 {
        return (s[n - 1], 100.0, 0);
    }
    let k = n - 10;
    (s[k - 1], 100.0 * k as f64 / n as f64, n - k)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(median(&xs), 5.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&xs), (30.0, 75.0, 10));
        assert_eq!(tail(&xs[..5]).0, 5.0);
    }
}
