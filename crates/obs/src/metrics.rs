//! Lock-free metric primitives: monotonic counters, gauges, and fixed-bucket
//! log-scale histograms with quantile extraction.
//!
//! Histograms bucket `u64` samples (typically nanoseconds) on a log scale
//! with four sub-buckets per octave — relative quantile error is bounded by
//! ~12.5% anywhere in the 64-bit range, with 252 fixed buckets and no
//! allocation on the record path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    #[inline]
    pub fn inc(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-value-wins gauge (stored as `f64` bits).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge { bits: AtomicU64::new(0f64.to_bits()) }
    }
}

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    pub(crate) fn reset(&self) {
        self.set(0.0);
    }
}

/// Number of histogram buckets: values 0–3 exactly, then 4 sub-buckets per
/// power-of-two octave up to `u64::MAX`.
pub const NUM_BUCKETS: usize = 252;

/// Bucket index of a sample.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < 4 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros() as u64; // >= 2
    let sub = (v >> (octave - 2)) & 3;
    ((octave - 1) * 4 + sub) as usize
}

/// Inclusive lower bound of bucket `i`.
pub fn bucket_lower(i: usize) -> u64 {
    if i < 4 {
        return i as u64;
    }
    let octave = i as u64 / 4 + 1;
    let sub = i as u64 % 4;
    (4 + sub) << (octave - 2)
}

/// Exclusive upper bound of bucket `i`.
pub fn bucket_upper(i: usize) -> u64 {
    if i + 1 >= NUM_BUCKETS {
        u64::MAX
    } else {
        bucket_lower(i + 1)
    }
}

/// Re-reads of `count` a snapshot makes before settling for the latest
/// `(count, sum)` pair.
const SNAPSHOT_RETRIES: usize = 64;

/// Fixed-bucket log-scale histogram: relaxed atomics, except that `count`
/// is published last (Release) so snapshots can pair it with `sum`.
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample. `count` is bumped last, with Release, so a
    /// reader that Acquire-loads `count == c` also sees the other fields of
    /// those `c` records.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Release);
    }

    /// Record a duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// A copy of the current state with `count` and `sum` read together:
    /// `count` is re-read around `sum` until both reads agree (bounded
    /// retry), so `sum` covers exactly the `count` finished records plus
    /// at most one in-flight record per writer. A reader descheduled
    /// between the two loads no longer tears the pair.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut count = self.count.load(Ordering::Acquire);
        let mut sum = self.sum.load(Ordering::Acquire);
        for _ in 0..SNAPSHOT_RETRIES {
            let again = self.count.load(Ordering::Acquire);
            if again == count {
                break;
            }
            count = again;
            sum = self.sum.load(Ordering::Acquire);
        }
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count,
            sum,
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Immutable view of a histogram at one point in time.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    pub buckets: [u64; NUM_BUCKETS],
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`0.0..=1.0`) as the midpoint of the bucket holding
    /// the target rank, clamped to the observed `[min, max]`. Returns 0 for
    /// an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                let lo = bucket_lower(i) as f64;
                let hi = bucket_upper(i) as f64;
                let mid = lo + (hi - lo) / 2.0;
                return mid.clamp(self.min as f64, self.max as f64);
            }
        }
        self.max as f64
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_tile_the_u64_range() {
        // Small values get exact buckets.
        for v in 0..4u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower(v as usize), v);
        }
        // Buckets are contiguous: upper(i) == lower(i+1), and each value
        // lands inside its bucket's [lower, upper) range.
        for i in 0..NUM_BUCKETS - 1 {
            assert_eq!(bucket_upper(i), bucket_lower(i + 1), "bucket {i}");
        }
        for v in [0, 1, 3, 4, 5, 7, 8, 15, 16, 1000, 1 << 20, u64::MAX / 2, u64::MAX] {
            let i = bucket_index(v);
            assert!(bucket_lower(i) <= v, "v={v} bucket {i}");
            if i + 1 < NUM_BUCKETS {
                assert!(v < bucket_upper(i), "v={v} bucket {i}");
            }
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_resolution_is_within_an_eighth() {
        // Sub-bucketing keeps the relative width of every bucket ≤ 1/4 of
        // its lower bound (12.5% max midpoint error).
        for i in 8..NUM_BUCKETS - 1 {
            let lo = bucket_lower(i);
            let hi = bucket_upper(i);
            assert!(hi - lo <= lo / 4, "bucket {i}: [{lo},{hi})");
        }
    }
}
