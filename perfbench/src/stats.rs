//! Order statistics over timing samples.

/// Median of `samples` (mean of the middle pair for an even count);
/// `None` when there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank `q`-quantile of `samples`, refused unless at least
/// [`TAIL_SAMPLES`] samples lie beyond it (so p90 needs 100 samples).
pub fn tail_percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n == 0 || n - rank.min(n) < TAIL_SAMPLES {
        return Err(format!(
            "p{:.0} needs {TAIL_SAMPLES} samples beyond it; a run of {n} ticks has {}",
            q * 100.0,
            n.saturating_sub(rank)
        ));
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Ok(s[rank - 1])
}

/// Arithmetic mean; `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_is_rejected_below_one_hundred_ticks() {
        let ninety_nine: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(tail_percentile(&ninety_nine, 0.9).is_err());
        assert!(tail_percentile(&[], 0.9).is_err());
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred, 0.9), Ok(90.0));
    }
}
