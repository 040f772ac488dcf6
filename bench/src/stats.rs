//! Order statistics over the samples one run collects.

/// Median and quartiles of one metric's samples within a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Quantile `p` of `sorted` by linear interpolation between closest ranks.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Summary of `samples`; all-zero for an empty slice.
pub fn summarize(samples: &[f64]) -> Summary {
    if samples.is_empty() {
        return Summary {
            median: 0.0,
            q1: 0.0,
            q3: 0.0,
            n: 0,
        };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        median: quantile(&sorted, 0.5),
        q1: quantile(&sorted, 0.25),
        q3: quantile(&sorted, 0.75),
        n: sorted.len(),
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// Percentile `p` (0–100) of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, p / 100.0)
}

/// Operations per second of each batch: `ops[i] / seconds[i]`.
pub fn batch_rates(ops: &[u64], seconds: &[f64]) -> Vec<f64> {
    ops.iter()
        .zip(seconds)
        .map(|(&n, &s)| if s > 0.0 { n as f64 / s } else { 0.0 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.n, 4);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.q1, 1.75);
        assert_eq!(s.q3, 3.25);
        assert_eq!(median(&[5.0, 1.0, 9.0]), 5.0);
    }

    #[test]
    fn one_sample_and_none() {
        assert_eq!(summarize(&[]).n, 0);
        let s = summarize(&[7.0]);
        assert_eq!((s.median, s.q1, s.q3, s.n), (7.0, 7.0, 7.0, 1));
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn percentile_reaches_the_tail() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 51.0);
        assert_eq!(percentile(&v, 99.0), 100.0);
        assert_eq!(percentile(&v, 100.0), 101.0);
    }

    #[test]
    fn batch_rates_divide_per_batch() {
        assert_eq!(
            batch_rates(&[100, 50, 10], &[2.0, 0.5, 0.0]),
            vec![50.0, 100.0, 0.0]
        );
    }
}
