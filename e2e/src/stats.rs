//! Order statistics for benchmark samples: floors, medians, quartiles,
//! percentiles.
//!
//! A timed phase is cut into small **units** (one module's compile stage,
//! one deployment, one kernel run, one group of served requests) and every
//! round adds one sample per unit ([`Units`]). On the shared host this
//! benchmark was sized on, interference is one-sided — a neighbour can only
//! make a unit slower — and lasts for seconds, so the median of a phase moves
//! by tens of percent between identical runs while each unit's **floor** (its
//! best sample) repeats within a few percent. The end-to-end timing metrics
//! are therefore sums of unit floors; the sum of unit medians is printed
//! beside each, so the host's interference is visible rather than hidden.
//! Latency tails use the nearest-rank percentile, and only the highest
//! percentile that still has at least ten samples beyond it is resolvable.

/// Samples kept per unit for the quantiles, drawn evenly from the whole run
/// (reservoir sampling); the floor and the count cover every sample. Bounded
/// so that a faster host, which fits more rounds into a run, does not show up
/// as a higher peak RSS.
const KEEP_PER_UNIT: usize = 256;

#[derive(Debug, Clone, Default)]
struct Unit {
    floor: f64,
    count: usize,
    kept: Vec<f64>,
}

impl Unit {
    fn record(&mut self, value: f64) {
        self.floor = if self.count == 0 {
            value
        } else {
            self.floor.min(value)
        };
        self.count += 1;
        if self.kept.len() < KEEP_PER_UNIT {
            self.kept.push(value);
            return;
        }
        // Algorithm R: sample number `count` replaces a kept one with
        // probability KEEP / count. Which one is drawn from a hash of the
        // count (SplitMix64's finalizer): the run must not depend on a
        // random source.
        let mut z = (self.count as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let slot = ((z ^ (z >> 31)) % self.count as u64) as usize;
        if slot < KEEP_PER_UNIT {
            self.kept[slot] = value;
        }
    }
}

/// Which statistic of a unit's samples to take.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stat {
    /// The best sample: what the unit costs when the host does not interfere.
    Floor,
    /// The `q`-quantile of the kept samples.
    Quantile(f64),
}

impl Unit {
    fn value(&self, stat: Stat) -> f64 {
        match stat {
            Stat::Floor => self.floor,
            Stat::Quantile(q) => {
                let mut sorted = self.kept.clone();
                sorted.sort_by(f64::total_cmp);
                quantile_sorted(&sorted, q)
            }
        }
    }
}

/// Per-unit samples of one timed phase.
#[derive(Debug, Clone, Default)]
pub struct Units {
    units: Vec<Unit>,
}

impl Units {
    /// Add one sample of `unit`.
    pub fn record(&mut self, unit: usize, value: f64) {
        if self.units.len() <= unit {
            self.units.resize_with(unit + 1, Unit::default);
        }
        self.units[unit].record(value);
    }

    /// Units that have at least one sample.
    fn sampled(&self) -> impl Iterator<Item = &Unit> {
        self.units.iter().filter(|u| u.count > 0)
    }

    /// Add every `(unit, value)` of one block.
    pub fn record_all(&mut self, block: &[(usize, f64)]) {
        for &(unit, value) in block {
            self.record(unit, value);
        }
    }

    /// `stat` of `unit`'s samples, if it has any.
    pub fn value(&self, unit: usize, stat: Stat) -> Option<f64> {
        self.units
            .get(unit)
            .filter(|u| u.count > 0)
            .map(|u| u.value(stat))
    }

    /// Sum over the sampled units of each unit's `stat`.
    pub fn sum(&self, stat: Stat) -> f64 {
        self.sampled().map(|u| u.value(stat)).sum()
    }

    /// Units that have at least one sample.
    pub fn len(&self) -> usize {
        self.sampled().count()
    }

    /// Samples of the least-sampled unit: how many rounds covered it all.
    pub fn rounds(&self) -> usize {
        self.sampled().map(|u| u.count).min().unwrap_or(0)
    }
}

/// Linearly interpolated quantile (`q` in `[0, 1]`) of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample set");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `samples` in any order (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, 0.5)
}

/// Nearest-rank percentile (`p` in `(0, 100]`) of an ascending slice: the
/// smallest sample with at least `p` percent of the samples at or below it
/// (0 when empty).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentile ladder tails are reported from, each with the share of
/// samples beyond it in parts per 10 000 (integers, so the ten-sample rule
/// is decided exactly).
const LADDER: [(f64, u64); 5] = [
    (50.0, 5000),
    (90.0, 1000),
    (99.0, 100),
    (99.9, 10),
    (99.99, 1),
];

/// Highest percentile of [`LADDER`] that still has at least ten of `n`
/// samples beyond it; `None` when even the median has fewer than ten.
pub fn highest_resolvable_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .filter(|(_, beyond)| n as u64 * beyond >= 10 * 10_000)
        .map(|(p, _)| *p)
        .next_back()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_sum_floors_and_medians_per_unit() {
        let mut u = Units::default();
        assert_eq!((u.rounds(), u.len(), u.sum(Stat::Floor)), (0, 0, 0.0));
        u.record_all(&[
            (0, 5.0),
            (2, 30.0),
            (0, 3.0),
            (2, 10.0),
            (0, 4.0),
            (2, 20.0),
        ]);
        // Unit 1 never ran: it counts for nothing, not for zero rounds.
        assert_eq!(u.rounds(), 3);
        assert_eq!(u.len(), 2);
        assert_eq!(u.value(0, Stat::Floor), Some(3.0));
        assert_eq!(u.value(1, Stat::Floor), None);
        assert_eq!(u.value(2, Stat::Quantile(0.5)), Some(20.0));
        assert_eq!(u.sum(Stat::Floor), 13.0);
        assert_eq!(u.sum(Stat::Quantile(0.5)), 24.0);
        u.record(2, 40.0);
        assert_eq!(u.rounds(), 3, "the least-sampled unit counts");
    }

    #[test]
    fn a_unit_keeps_its_floor_and_an_even_sample_beyond_its_capacity() {
        let mut u = Units::default();
        let n = 20 * KEEP_PER_UNIT;
        for i in 0..n {
            u.record(0, (n - i) as f64);
        }
        assert_eq!(u.rounds(), n);
        assert_eq!(u.sum(Stat::Floor), 1.0);
        // The kept samples are spread over the whole run: their median is
        // near the run's, not near that of the first KEEP_PER_UNIT samples.
        let kept_median = u.sum(Stat::Quantile(0.5));
        let run_median = n as f64 / 2.0;
        assert!(
            (kept_median - run_median).abs() < 0.15 * n as f64,
            "{kept_median}"
        );
    }

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 9.0]), 5.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&sorted, 0.25), 1.75);
        assert_eq!(quantile_sorted(&sorted, 0.75), 3.25);
        assert_eq!(quantile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 4.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.001), 1.0);
        assert_eq!(percentile_sorted(&[3.0], 99.0), 3.0);
        assert_eq!(percentile_sorted(&[], 99.0), 0.0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_resolvable_percentile(0), None);
        assert_eq!(highest_resolvable_percentile(19), None);
        assert_eq!(highest_resolvable_percentile(20), Some(50.0));
        assert_eq!(highest_resolvable_percentile(99), Some(50.0));
        assert_eq!(highest_resolvable_percentile(100), Some(90.0));
        assert_eq!(highest_resolvable_percentile(999), Some(90.0));
        assert_eq!(highest_resolvable_percentile(1000), Some(99.0));
        assert_eq!(highest_resolvable_percentile(10_000), Some(99.9));
        assert_eq!(highest_resolvable_percentile(1_000_000), Some(99.99));
    }
}
