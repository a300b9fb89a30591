//! Fixed-bucket latency histograms.
//!
//! Buckets are powers of two over **microseconds**: bucket 0 counts
//! samples `< 1 µs`, bucket `i ≥ 1` counts samples in
//! `[2^(i−1), 2^i) µs`, and the last bucket is unbounded. 28 buckets
//! therefore span sub-microsecond to ~67 s — the full latency range of
//! anything in this pipeline — with a fixed 28-word footprint and a
//! branch-free bucket index (`log2` via `leading_zeros`). Two quantile
//! readbacks exist on [`crate::HistogramSnapshot`]: `quantile_us` (the
//! upper bound of the bucket where the cumulative count crosses the
//! rank — conservative, at most 2× relative error) and
//! `quantile_interp_us` (linear interpolation inside that bucket under
//! a uniform-within-bucket assumption — what the renderers and
//! perfbench report).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Number of buckets (sub-µs, then 2^0..2^26 µs, then overflow).
pub const N_BUCKETS: usize = 28;

/// The atomic storage behind a [`Histogram`] handle.
#[derive(Debug)]
pub(crate) struct HistogramCore {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> HistogramCore {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

/// Bucket index of a microsecond sample: 0 for sub-µs, else
/// `floor(log2(us)) + 1`, capped at the overflow bucket.
#[inline]
fn bucket_of(us: u64) -> usize {
    if us == 0 {
        0
    } else {
        ((64 - us.leading_zeros()) as usize).min(N_BUCKETS - 1)
    }
}

/// Upper bound (µs) of bucket `i`; `u64::MAX` for the overflow bucket.
pub(crate) fn bucket_upper_us(i: usize) -> u64 {
    if i + 1 >= N_BUCKETS {
        u64::MAX
    } else {
        1u64 << i
    }
}

/// Inclusive lower bound (µs) of bucket `i`: 0 for the sub-µs bucket,
/// `2^(i−1)` otherwise.
pub(crate) fn bucket_lower_us(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

impl HistogramCore {
    fn record_us(&self, us: u64) {
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    pub(crate) fn read(&self) -> ([u64; N_BUCKETS], u64, u64, u64) {
        (
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            self.count.load(Ordering::Relaxed),
            self.sum_us.load(Ordering::Relaxed),
            self.max_us.load(Ordering::Relaxed),
        )
    }
}

/// A latency histogram handle. Recording is two relaxed atomic adds +
/// a max; the disabled arm is a single branch.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    pub(crate) fn new(core: Option<Arc<HistogramCore>>) -> Histogram {
        Histogram(core)
    }

    /// An inert histogram — what disabled registries vend.
    pub fn noop() -> Histogram {
        Histogram(None)
    }

    /// Record one sample, in microseconds.
    #[inline]
    pub fn record_us(&self, us: u64) {
        if let Some(c) = &self.0 {
            c.record_us(us);
        }
    }

    /// Record one unitless sample (the buckets are just powers of two —
    /// a histogram of task counts or sizes works the same way; name
    /// such histograms without the `_us` suffix).
    #[inline]
    pub fn record(&self, value: u64) {
        self.record_us(value);
    }

    /// Record one duration sample.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        if let Some(c) = &self.0 {
            c.record_us(d.as_micros().min(u128::from(u64::MAX)) as u64);
        }
    }

    /// Start a timer whose [`HistTimer::stop`] (or drop) records the
    /// elapsed time into this histogram. Disabled handles never read
    /// the clock.
    #[inline]
    pub fn start(&self) -> HistTimer {
        HistTimer {
            core: self.0.clone(),
            start: self.0.as_ref().map(|_| Instant::now()),
        }
    }
}

/// A scoped latency timer vended by [`Histogram::start`]. Records once,
/// on [`HistTimer::stop`] or on drop, whichever comes first.
#[derive(Debug)]
pub struct HistTimer {
    core: Option<Arc<HistogramCore>>,
    start: Option<Instant>,
}

impl HistTimer {
    /// Record now and consume the timer.
    pub fn stop(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        if let (Some(core), Some(start)) = (self.core.take(), self.start.take()) {
            core.record_us(start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        }
    }
}

impl Drop for HistTimer {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1 << 25), 26);
        assert_eq!(bucket_of(u64::MAX), N_BUCKETS - 1);
        assert_eq!(bucket_upper_us(0), 1);
        assert_eq!(bucket_upper_us(1), 2);
        assert_eq!(bucket_upper_us(N_BUCKETS - 1), u64::MAX);
        assert_eq!(bucket_lower_us(0), 0);
        assert_eq!(bucket_lower_us(1), 1);
        assert_eq!(bucket_lower_us(7), 64);
        for i in 0..N_BUCKETS - 1 {
            assert_eq!(bucket_lower_us(i + 1), bucket_upper_us(i));
        }
    }

    #[test]
    fn recording_tracks_count_sum_max() {
        let core = HistogramCore::default();
        for us in [0, 1, 3, 500, 4096] {
            core.record_us(us);
        }
        let (buckets, count, sum, max) = core.read();
        assert_eq!(count, 5);
        assert_eq!(sum, 4600);
        assert_eq!(max, 4096);
        assert_eq!(buckets.iter().sum::<u64>(), 5);
    }

    #[test]
    fn noop_histogram_and_timer() {
        let h = Histogram::noop();
        h.record_us(10);
        h.record_duration(Duration::from_millis(5));
        let t = h.start();
        assert!(t.start.is_none(), "disabled timer must not read the clock");
        t.stop();
    }

    #[test]
    fn timer_records_once() {
        let core = Arc::new(HistogramCore::default());
        let h = Histogram::new(Some(Arc::clone(&core)));
        h.start().stop();
        drop(h.start()); // drop path
        let (_, count, _, _) = core.read();
        assert_eq!(count, 2);
    }
}
