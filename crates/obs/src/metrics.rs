//! Named counters and log2-bucketed latency histograms.
//!
//! Counters and histograms are lock-free once created (`AtomicU64`
//! throughout); the registry itself is a mutexed map consulted only on
//! first use of a name — hot paths hold an `Arc` handle. Histograms
//! bucket by the value's bit length (bucket `b` holds `[2^(b-1), 2^b)`),
//! which is exact enough for latency percentiles across nine decades
//! while costing one `leading_zeros` per observation.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Buckets: index 0 holds the value 0, index `b` holds `[2^(b-1), 2^b)`.
/// `u64::MAX` lands in bucket 64.
const BUCKETS: usize = 65;

/// A monotonically increasing named counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log2-bucketed histogram of `u64` observations (typically latencies
/// in nanoseconds).
pub struct LogHistogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: Vec<AtomicU64>,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// The representative value reported for a bucket: its inclusive upper
/// bound, so percentiles are conservative (never under-report).
fn bucket_value(b: usize) -> f64 {
    if b == 0 {
        0.0
    } else {
        (1u64 << (b - 1).min(63)) as f64 * 2.0 - 1.0
    }
}

impl LogHistogram {
    pub fn observe(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A plain, clonable copy of the raw state.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(b, c)| {
                    let c = c.load(Ordering::Relaxed);
                    (c > 0).then_some((b as u8, c))
                })
                .collect(),
        }
    }

    /// The value at quantile `q` in `[0, 1]` (see [`HistSnapshot::quantile`]).
    pub fn quantile(&self, q: f64) -> f64 {
        self.snapshot().quantile(q)
    }

    pub fn summarize(&self) -> HistSummary {
        self.snapshot().summarize()
    }
}

/// A point-in-time summary of one histogram, in the histogram's units.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistSummary {
    pub count: u64,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    pub mean: f64,
    pub max: f64,
}

impl HistSummary {
    /// The same summary with every value scaled by `s` (e.g. `1e-3` for
    /// nanoseconds -> microseconds). `count` is unscaled.
    pub fn scaled(&self, s: f64) -> HistSummary {
        HistSummary {
            count: self.count,
            p50: self.p50 * s,
            p95: self.p95 * s,
            p99: self.p99 * s,
            mean: self.mean * s,
            max: self.max * s,
        }
    }
}

/// A plain, clonable copy of one [`LogHistogram`]'s raw state: total
/// count/sum/max plus the *sparse* bucket array (only non-empty buckets,
/// sorted by index). Quantiles are computed here; the Chrome-trace
/// validator also builds one per event category from a trace file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    /// `(bucket index, observation count)`, non-empty buckets only,
    /// ascending by index.
    pub buckets: Vec<(u8, u64)>,
}

impl HistSnapshot {
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Record one observation (mirrors [`LogHistogram::observe`],
    /// including its wrapping sum).
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.max = self.max.max(v);
        let b = bucket_index(v) as u8;
        match self.buckets.binary_search_by_key(&b, |&(i, _)| i) {
            Ok(k) => self.buckets[k].1 += 1,
            Err(k) => self.buckets.insert(k, (b, 1)),
        }
    }

    /// The value at quantile `q` in `[0, 1]`, resolved to its bucket's
    /// upper bound clamped to the observed maximum (the top bucket's bound
    /// can lie past every observation). 0.0 on an empty snapshot — never
    /// NaN.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for &(b, c) in &self.buckets {
            cum += c;
            if cum >= target {
                return bucket_value(b as usize).min(self.max as f64);
            }
        }
        self.max as f64
    }

    /// The percentile summary of everything observed so far.
    pub fn summarize(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            mean: if self.count == 0 {
                0.0
            } else {
                self.sum as f64 / self.count as f64
            },
            max: self.max as f64,
        }
    }
}

/// Named counters and histograms, created on first use.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<LogHistogram>>>,
}

impl MetricsRegistry {
    /// The counter named `name` (created zeroed on first use). Hot paths
    /// should hold the returned handle instead of re-looking-up.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut guard = self.counters.lock().unwrap();
        match guard.get(name) {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(Counter::default());
                guard.insert(name.to_string(), Arc::clone(&c));
                c
            }
        }
    }

    /// The histogram named `name` (created empty on first use).
    pub fn histogram(&self, name: &str) -> Arc<LogHistogram> {
        let mut guard = self.histograms.lock().unwrap();
        match guard.get(name) {
            Some(h) => Arc::clone(h),
            None => {
                let h = Arc::new(LogHistogram::default());
                guard.insert(name.to_string(), Arc::clone(&h));
                h
            }
        }
    }

    pub fn add(&self, name: &str, v: u64) {
        self.counter(name).add(v);
    }

    pub fn observe(&self, name: &str, v: u64) {
        self.histogram(name).observe(v);
    }

    /// Sorted snapshot of every counter value.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        self.counters
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Sorted snapshot of every histogram's summary.
    pub fn histogram_summaries(&self) -> Vec<(String, HistSummary)> {
        self.histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.summarize()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_name() {
        let m = MetricsRegistry::default();
        m.add("steals", 2);
        m.add("steals", 3);
        m.add("flushes", 1);
        assert_eq!(
            m.counter_values(),
            vec![("flushes".to_string(), 1), ("steals".to_string(), 5)]
        );
    }

    #[test]
    fn empty_histogram_summarizes_to_zeros() {
        let h = LogHistogram::default();
        let s = h.summarize();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50, 0.0);
        assert_eq!(s.p99, 0.0);
        assert_eq!(s.mean, 0.0);
        assert!(s.p50.is_finite() && s.mean.is_finite());
    }

    #[test]
    fn quantiles_are_ordered_and_bucket_conservative() {
        let h = LogHistogram::default();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let s = h.summarize();
        assert_eq!(s.count, 1000);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        // p50 of 1..=1000 is 500, bucketed to its power-of-two upper bound.
        assert!(s.p50 >= 500.0 && s.p50 <= 1023.0, "p50 = {}", s.p50);
        assert!(s.p99 >= 990.0, "p99 = {}", s.p99);
        assert_eq!(s.max, 1000.0);
        assert!((s.mean - 500.5).abs() < 1e-9);
    }

    #[test]
    fn quantiles_never_exceed_the_observed_max() {
        // 17 lands in bucket [16, 31]; the bucket's upper bound must not
        // leak into the summary.
        let h = LogHistogram::default();
        h.observe(17);
        let s = h.summarize();
        assert_eq!((s.p50, s.p95, s.p99, s.max), (17.0, 17.0, 17.0, 17.0));
        assert_eq!(h.snapshot().summarize(), s);
    }

    #[test]
    fn zero_and_extreme_observations_are_bucketed() {
        let h = LogHistogram::default();
        h.observe(0);
        h.observe(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.0), 0.0);
        assert!(h.quantile(1.0).is_finite());
    }

    #[test]
    fn summary_scaling_converts_units() {
        let h = LogHistogram::default();
        h.observe(4000);
        let us = h.summarize().scaled(1e-3);
        assert_eq!(us.count, 1);
        assert!((us.max - 4.0).abs() < 1e-12);
    }
}
