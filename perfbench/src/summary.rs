//! Order statistics and the binomial confidence limit the report uses.

/// The `p`-quantile (`0 < p <= 1`) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (the mean of the middle two for an even count);
/// 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The tail percentile a sample supports: p99, or the highest percentile
/// with at least ten samples beyond it (the median when none has), as
/// `(p, value)`.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let p = (1.0 - 10.0 / values.len().max(1) as f64).clamp(0.5, 0.99);
    if p <= 0.5 {
        (p, median(values))
    } else {
        (p, quantile(values, p))
    }
}

/// `P(X >= hits)` for `X ~ Binomial(n, p)`, summed in log space from
/// `hits` upward; `ln_choose` is `ln C(n, hits)`.
fn upper_tail(hits: u64, n: u64, p: f64, ln_choose: f64) -> f64 {
    if hits == 0 {
        return 1.0;
    }
    if p <= 0.0 {
        return 0.0;
    }
    let (ln_p, ln_q) = (p.ln(), (-p).ln_1p());
    let mut term = (ln_choose + hits as f64 * ln_p + (n - hits) as f64 * ln_q).exp();
    let mut sum = 0.0;
    let mut k = hits;
    while term > 0.0 {
        sum += term;
        if k == n || term < sum * 1e-17 {
            break;
        }
        term *= (n - k) as f64 / (k + 1) as f64 * (p / (1.0 - p));
        k += 1;
    }
    sum.min(1.0)
}

/// The one-sided exact (Clopper–Pearson) lower confidence limit of a
/// binomial proportion `hits / n`: the smallest `p` under which seeing
/// `hits` or more has probability at least `alpha`. It lies above a bound
/// exactly when the binomial test rejects the bound at level `alpha`.
pub fn binomial_lower(hits: u64, n: u64, alpha: f64) -> f64 {
    if hits == 0 || n == 0 {
        return 0.0;
    }
    let ln_choose: f64 = (1..=hits)
        .map(|i| ((n - hits + i) as f64 / i as f64).ln())
        .sum();
    let (mut lo, mut hi) = (0.0, hits as f64 / n as f64);
    for _ in 0..100 {
        let mid = (lo + hi) / 2.0;
        if upper_tail(hits, n, mid, ln_choose) < alpha {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.5);
        assert_eq!(median(&v[..7]), 4.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(tail(&v), (0.9, 90.0));
        assert_eq!(tail(&v[..8]), (0.5, 4.5));
        let many: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(tail(&many), (0.99, 4950.0));
    }

    #[test]
    fn binomial_lower_limit_matches_the_exact_tail() {
        // 3 successes in 625 at p = 5/16384: P(X >= 3) is about 1e-3, so
        // a limit at 1e-6 stays below that p, and one at 1e-2 lies above.
        let p = 5.0 / 16384.0;
        assert!(binomial_lower(3, 625, 1e-6) < p);
        assert!(binomial_lower(3, 625, 1e-2) > p);
        // 809 of 400 000 at the 3-sigma level sits near the normal limit,
        // 2.0225e-3 - 3 * 7.11e-5 = 1.809e-3.
        let lo = binomial_lower(809, 400_000, 0.00135);
        assert!(lo > 0.0018 && lo < 0.00184, "{lo}");
        assert_eq!(binomial_lower(0, 1000, 1e-6), 0.0);
        // Every trial a success: the limit is alpha^(1/n).
        let all = binomial_lower(10, 10, 1e-3);
        assert!((all - 1e-3f64.powf(0.1)).abs() < 1e-9, "{all}");
    }
}
