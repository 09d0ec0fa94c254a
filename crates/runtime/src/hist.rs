//! Fixed-bucket log-scale histograms for serving-latency observability.
//!
//! The serving tier records a queue-wait and an execute duration for every
//! request it answers, plus the size of every batch it drains. Those
//! recordings happen on the worker hot path, so the data structure is a
//! fixed array of counters — **no allocation, ever**: recording is one
//! bucket-index computation (a couple of shifts) and three integer updates.
//!
//! # Bucketing
//!
//! Values 0–3 get exact buckets. From 4 upward each power-of-two octave is
//! split into [`SUB_BUCKETS`] sub-buckets, i.e. the bucket of `v` is derived
//! from its floor-log2 plus the next two significant bits. That keeps the
//! relative quantile error under 25% across the whole `u64` range while the
//! table stays [`BUCKETS`] counters (2 KiB) — the classic HdrHistogram
//! trade, sized for nanosecond latencies from tens of nanoseconds to
//! minutes.
//!
//! Bucket boundaries are exact at powers of two, [`Histogram::quantile`]
//! interpolates linearly inside a bucket, and [`Histogram::merge`] is a
//! plain counter sum — associative and commutative, which lets each worker
//! keep its own histogram (uncontended) and the stats path fold them.

/// Sub-buckets per power-of-two octave.
pub const SUB_BUCKETS: usize = 4;

/// Total number of counters in a [`Histogram`].
///
/// Index 0–3 are the exact buckets for values 0–3; the remaining octaves
/// (`log2(v)` from 2 to 63) contribute [`SUB_BUCKETS`] buckets each:
/// `4 + 62 * 4 = 252`, rounded up to a power of two for the array.
pub const BUCKETS: usize = 256;

/// A fixed-size log-scale histogram of `u64` samples (typically
/// nanoseconds, or batch sizes).
///
/// Recording never allocates; merging is associative; quantiles are
/// deterministic functions of the recorded multiset (up to bucket
/// resolution). The exact minimum, maximum, count and sum are tracked next
/// to the buckets, so `min()`/`max()`/`mean()` are precise even though
/// quantiles are bucketed.
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("p50", &self.quantile(0.50))
            .field("p99", &self.quantile(0.99))
            .finish_non_exhaustive()
    }
}

/// Bucket index of `v`: exact below 4, then `SUB_BUCKETS` per octave.
fn bucket_of(v: u64) -> usize {
    if v < 4 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros() as usize; // floor(log2 v) >= 2
    let sub = ((v >> (exp - 2)) & 0b11) as usize; // next two significant bits
    let idx = (exp - 1) * SUB_BUCKETS + sub;
    idx.min(BUCKETS - 1)
}

/// Inclusive lower bound of bucket `idx` (the smallest value that maps to
/// it) — the inverse of [`bucket_of`] at bucket granularity.
fn bucket_low(idx: usize) -> u64 {
    if idx < 4 {
        return idx as u64;
    }
    let exp = idx / SUB_BUCKETS + 1;
    if exp >= 64 {
        // Buckets past the top octave are unreachable ([`bucket_of`] maps
        // every u64 below them); their bound saturates instead of shifting
        // out of range.
        return u64::MAX;
    }
    let sub = (idx % SUB_BUCKETS) as u64;
    (4 + sub) << (exp - 2)
}

/// Exclusive upper bound of bucket `idx` (saturating at `u64::MAX` for the
/// last bucket).
fn bucket_high(idx: usize) -> u64 {
    if idx + 1 >= BUCKETS {
        u64::MAX
    } else {
        bucket_low(idx + 1)
    }
}

/// Sentinel returned by [`Histogram::quantile`] (and `p50`/`p99`/`p999`) on
/// an **empty** histogram.
///
/// An empty distribution has no quantiles; returning 0 — a legal latency —
/// would let a counter that never fired render as "p99 = 0 ns", which reads
/// as *excellent* rather than *absent*. `u64::MAX` is unreachable as a real
/// sample quantile in practice (it would mean every recorded nanosecond
/// latency saturated), so display paths can (and do) test for it and render
/// "n/a".
pub const EMPTY_QUANTILE: u64 = u64::MAX;

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample. Constant time, no allocation.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact arithmetic mean of the recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) of the recorded samples, linearly
    /// interpolated inside the bucket the quantile rank lands in and clamped
    /// to the exact observed `[min, max]`. Returns [`EMPTY_QUANTILE`]
    /// (`u64::MAX`) for an empty histogram — an empty distribution has no
    /// quantiles, and 0 would read as a (suspiciously perfect) latency.
    ///
    /// Deterministic: the result depends only on the recorded multiset (and
    /// the fixed bucket layout), never on recording order.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return EMPTY_QUANTILE;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the sample the quantile asks for, 1-based: ceil(q * count),
        // at least 1 — p0 is the minimum, p100 the maximum.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        // The extreme ranks are tracked exactly — p0 is the observed
        // minimum, p100 the observed maximum — so return them directly
        // instead of through bucket interpolation.
        if rank == 1 {
            return self.min;
        }
        if rank >= self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                // Interpolate the rank's 0-based position (in [0, 1)) across
                // the bucket span; a bucket holding one distinct value (all
                // buckets below 8, e.g. batch sizes) yields it exactly.
                let into = (rank - seen - 1) as f64 / c as f64;
                let low = bucket_low(idx);
                let high = bucket_high(idx).min(self.max.saturating_add(1));
                let span = high.saturating_sub(low);
                let v = low + (span as f64 * into) as u64;
                return v.clamp(self.min, self.max);
            }
            seen += c;
        }
        self.max
    }

    /// Median (`quantile(0.50)`).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile (`quantile(0.99)`).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile (`quantile(0.999)`).
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Fold `other` into `self`: the result is the histogram of the combined
    /// sample multiset. Associative and commutative, so per-worker
    /// histograms can be merged in any order (or grouping) and agree.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0..4u64 {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_low(v as usize), v);
        }
        // 4..8 is still exact: one sub-bucket per value.
        for v in 4..8u64 {
            assert_eq!(bucket_low(bucket_of(v)), v);
        }
    }

    #[test]
    fn bucket_boundaries_are_exact_at_powers_of_two() {
        for exp in 2..62 {
            let v = 1u64 << exp;
            let idx = bucket_of(v);
            assert_eq!(bucket_low(idx), v, "2^{exp} must start its own bucket");
            // The value just below a power of two lands in the previous
            // bucket; the value itself opens a new one.
            assert_eq!(bucket_of(v - 1) + 1, idx, "2^{exp}-1 sits one bucket lower");
        }
    }

    #[test]
    fn bucketing_is_monotone_and_bounded() {
        let samples = [
            0u64,
            1,
            2,
            3,
            4,
            5,
            7,
            8,
            15,
            16,
            100,
            1_000,
            1_000_000,
            u64::MAX / 2,
            u64::MAX,
        ];
        let mut last = 0usize;
        for &v in &samples {
            let idx = bucket_of(v);
            assert!(idx >= last, "bucket_of must be monotone (at {v})");
            assert!(idx < BUCKETS);
            assert!(bucket_low(idx) <= v, "lower bound exceeds value at {v}");
            assert!(v < bucket_high(idx) || bucket_high(idx) == u64::MAX);
            last = idx;
        }
    }

    #[test]
    fn exact_stats_track_min_max_sum_mean() {
        let mut h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 60);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 30);
        assert!((h.mean() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_of_uniform_ramp_interpolate_within_buckets() {
        // 1..=1000: p50 must land near 500, p99 near 990, p999 near 999 —
        // within one bucket's relative resolution (25%).
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let close = |got: u64, want: u64| {
            let tol = (want / 4).max(2);
            assert!(
                got >= want.saturating_sub(tol) && got <= want + tol,
                "quantile {got} too far from {want}"
            );
        };
        close(h.p50(), 500);
        close(h.p99(), 990);
        close(h.p999(), 999);
        // Extremes are exact (clamped to observed min/max).
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn quantiles_of_exact_small_values_are_exact() {
        // Everything below 8 has an exact bucket, so quantiles are exact.
        let mut h = Histogram::new();
        for (v, n) in [(1u64, 50), (2, 30), (4, 15), (7, 5)] {
            for _ in 0..n {
                h.record(v);
            }
        }
        assert_eq!(h.p50(), 1);
        assert_eq!(h.quantile(0.60), 2);
        assert_eq!(h.quantile(0.90), 4);
        assert_eq!(h.p99(), 7);
        assert_eq!(h.p999(), 7);
    }

    #[test]
    fn merge_is_associative_and_matches_combined_recording() {
        let samples_a = [3u64, 17, 900, 4096];
        let samples_b = [1u64, 1, 250_000];
        let samples_c = [64u64, 65_536, 12];
        let record = |vals: &[u64]| {
            let mut h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let (a, b, c) = (record(&samples_a), record(&samples_b), record(&samples_c));

        // (a + b) + c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a + (b + c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "merge must be associative");

        // Both equal recording everything into one histogram.
        let mut all = Histogram::new();
        for &v in samples_a.iter().chain(&samples_b).chain(&samples_c) {
            all.record(v);
        }
        assert_eq!(left, all, "merge must equal combined recording");
        assert_eq!(all.count(), 10);
        assert_eq!(all.min(), 1);
        assert_eq!(all.max(), 250_000);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut h = Histogram::new();
        h.record(42);
        let before = h.clone();
        h.merge(&Histogram::new());
        assert_eq!(h, before);
        let mut empty = Histogram::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn empty_quantiles_return_the_sentinel_not_zero() {
        let h = Histogram::new();
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), EMPTY_QUANTILE, "empty quantile({q})");
        }
        assert_eq!(h.p50(), EMPTY_QUANTILE);
        assert_eq!(h.p99(), EMPTY_QUANTILE);
        assert_eq!(h.p999(), EMPTY_QUANTILE);
        // One sample is enough to leave sentinel territory at every rank.
        let mut h = h;
        h.record(0);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), 0, "single-sample quantile({q})");
        }
    }
}
