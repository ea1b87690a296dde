//! Order statistics the benchmark reports, and the rules that keep them
//! honest: a percentile is refused unless at least ten samples lie beyond
//! it, a percentile never exceeds the maximum, and failures are counted
//! against attempts.
//!
//! Owns: medians, nearest-rank percentiles, Python-compatible quartiles,
//! the latency summary of a window.
//! Does not own: what is measured (see `measure`) or metric names.

/// Samples that must lie beyond a percentile for it to be reported
/// (choosing-metrics: "the highest percentile that has at least ten
/// samples beyond it").
pub const MIN_BEYOND: usize = 10;

#[derive(Clone, Debug, PartialEq)]
pub enum StatsError {
    Empty,
    /// `beyond` samples lie above the asked percentile; fewer than
    /// [`MIN_BEYOND`].
    TooFewBeyond {
        p: f64,
        samples: usize,
        beyond: usize,
    },
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::Empty => write!(f, "no samples"),
            StatsError::TooFewBeyond { p, samples, beyond } => write!(
                f,
                "p{:.0} of {samples} samples has only {beyond} beyond it (need {MIN_BEYOND})",
                p * 100.0
            ),
        }
    }
}

pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Median of an unsorted slice (mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs.to_vec());
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` in `(0, 1)` of an ascending slice. The
/// result is always one of the samples, so it cannot exceed the maximum.
/// Refused when fewer than [`MIN_BEYOND`] samples lie strictly beyond the
/// chosen rank.
pub fn percentile(sorted: &[f64], p: f64) -> Result<f64, StatsError> {
    let n = sorted.len();
    if n == 0 {
        return Err(StatsError::Empty);
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return Err(StatsError::TooFewBeyond {
            p,
            samples: n,
            beyond,
        });
    }
    Ok(sorted[rank - 1])
}

/// `statistics.quantiles(values, n=4)` of Python (the default "exclusive"
/// method): the three cut points of an unsorted slice of at least two
/// values.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(xs.to_vec());
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the driver holds every end-to-end metric to.
pub fn iqr_share(xs: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(xs)?;
    Some((q3 - q1) / q2)
}

/// Failed ops over attempted ops; 0 attempts is a total failure, not 0/0.
pub fn fail_share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Latency statistics of one window.
#[derive(Clone, Debug)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    /// Refused when fewer than ten samples lie beyond it.
    pub p90: Result<f64, StatsError>,
    /// p99 where the window holds at least 1000 samples (information only).
    pub p99: Option<f64>,
    pub mean: f64,
}

pub fn summarize(secs: &[f64]) -> Result<Summary, StatsError> {
    let s = sorted(secs.to_vec());
    Ok(Summary {
        count: s.len(),
        p50: percentile(&s, 0.5)?,
        p90: percentile(&s, 0.9),
        p99: if s.len() >= 1000 {
            percentile(&s, 0.99).ok()
        } else {
            None
        },
        mean: s.iter().sum::<f64>() / s.len() as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_never_exceeds_max() {
        let xs = sorted((1..=500).map(|k| (k * 7 % 501) as f64).collect());
        let max = *xs.last().unwrap();
        for p in [0.5, 0.9, 0.95, 0.98] {
            let v = percentile(&xs, p).unwrap();
            assert!(v <= max, "p{p} = {v} > max {max}");
            assert!(xs.contains(&v), "nearest rank returns a sample");
        }
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        let xs = sorted((0..99).map(f64::from).collect());
        // p90 of 99 samples: rank 90, 9 beyond.
        assert_eq!(
            percentile(&xs, 0.9),
            Err(StatsError::TooFewBeyond {
                p: 0.9,
                samples: 99,
                beyond: 9
            })
        );
        let xs = sorted((0..100).map(f64::from).collect());
        assert_eq!(percentile(&xs, 0.9), Ok(89.0));
        assert!(percentile(&xs, 0.99).is_err());
        assert_eq!(percentile(&[], 0.5), Err(StatsError::Empty));
    }

    #[test]
    fn median_of_rounds() {
        // Five rounds, one of them in a slow phase: the median ignores it.
        assert_eq!(median(&[4.1, 4.0, 9.0, 4.2, 3.9]), 4.1);
        assert_eq!(median(&[2.0, 1.0, 4.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(iqr_share(&xs), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn fail_share_arithmetic() {
        assert_eq!(fail_share(0, 100), 0.0);
        assert_eq!(fail_share(5, 100), 0.05);
        assert_eq!(fail_share(100, 100), 1.0);
        assert_eq!(fail_share(0, 0), 1.0, "nothing attempted is a failure");
    }

    #[test]
    fn summary_reports_what_the_sample_count_supports() {
        let secs: Vec<f64> = (1..=1000).map(|k| k as f64 * 1e-3).collect();
        let s = summarize(&secs).unwrap();
        assert_eq!((s.count, s.p50, s.p90.clone()), (1000, 0.5, Ok(0.9)));
        assert_eq!(s.p99, Some(0.99));
        assert!((s.mean - 0.5005).abs() < 1e-12);
        // 50 samples: a median, but no p90 (5 beyond) and no p99.
        let s = summarize(&secs[..50]).unwrap();
        assert!(s.p90.is_err() && s.p99.is_none());
        // 15 samples leave 7 beyond the median: nothing is reported.
        assert!(summarize(&secs[..15]).is_err());
    }
}
