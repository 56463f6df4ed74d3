//! Order statistics for benchmark samples.

/// Ascending copy of `values` (samples are finite by construction).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The median; `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method) — the same cut points the driver uses for spreads. With fewer
/// than two samples every quartile is the single value (or `NaN`).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return [x; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median — the spread the driver
/// holds against a metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percentile, value)`; `None` with ten samples or fewer.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n <= 10 {
        return None;
    }
    let k = n - 11; // exactly ten samples rank above index k
    Some((100.0 * (k + 1) as f64 / n as f64, v[k]))
}

/// Five-number summary plus sample count, for the printed tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let v = sorted(values);
        let [q1, _, q3] = quartiles(values);
        Summary {
            n: v.len(),
            min: v.first().copied().unwrap_or(f64::NAN),
            q1,
            median: median(values),
            q3,
            max: v.last().copied().unwrap_or(f64::NAN),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(&[1.0; 10]), None);
        let v: Vec<f64> = (1..=31).map(f64::from).collect();
        let (p, x) = tail_percentile(&v).unwrap();
        assert_eq!(x, 21.0);
        assert_eq!(v.iter().filter(|&&s| s > x).count(), 10);
        assert!((p - 100.0 * 21.0 / 31.0).abs() < 1e-12);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&big).unwrap(), (99.0, 990.0));
    }

    #[test]
    fn summary_orders_its_fields() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (5, 1.0, 3.0, 5.0));
        assert!(s.q1 <= s.median && s.median <= s.q3);
    }
}
