//! Seeded load generation: a small PRNG, the Zipf sampler behind the skewed
//! request mix, and the open-loop arrival schedule with its intended-time
//! bookkeeping. Everything here is a pure function of the seed, so the same
//! `--seed` always produces the same request stream.

/// SplitMix64: tiny, fast, and good enough to draw request mixes from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Derive an independent stream seed for one purpose (`salt`) from the run
/// seed, so data generation, request order and arrival times never share
/// draws.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// Zipf distribution over ranks `0..k` with exponent `s`: rank `r` is drawn
/// with probability proportional to `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// # Panics
    ///
    /// Panics when `k` is 0.
    pub fn new(k: usize, s: f64) -> Zipf {
        assert!(k > 0, "a Zipf distribution needs at least one rank");
        let weights: Vec<f64> = (1..=k).map(|r| (r as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Intended send times (nanoseconds from the start of the run) of a Poisson
/// arrival process at `rate_rps`, lasting `duration_s`.
pub fn poisson_schedule(rng: &mut Rng, rate_rps: f64, duration_s: f64) -> Vec<u64> {
    let mut at = 0.0;
    let mut out = Vec::with_capacity((rate_rps * duration_s * 1.1) as usize + 16);
    loop {
        // 1 - u is in (0, 1], so the logarithm is finite.
        at += -(1.0 - rng.next_f64()).ln() / rate_rps;
        if at >= duration_s {
            return out;
        }
        out.push((at * 1e9) as u64);
    }
}

/// Open-loop bookkeeping: hands out the requests that are due and measures
/// every latency from the **intended** send time, so a generator stall is
/// charged to the requests it delayed instead of silently thinning the load
/// (no coordinated omission). How late each send actually went out is kept
/// separately as the generator's lag.
#[derive(Debug)]
pub struct Pacer<'s> {
    schedule: &'s [u64],
    next: usize,
    pub lag_ns: Vec<u64>,
    pub latency_ns: Vec<u64>,
}

impl<'s> Pacer<'s> {
    pub fn new(schedule: &'s [u64]) -> Pacer<'s> {
        Pacer {
            schedule,
            next: 0,
            lag_ns: Vec::with_capacity(schedule.len()),
            latency_ns: Vec::with_capacity(schedule.len()),
        }
    }

    /// Intended send time of the next request, if any is left.
    pub fn next_due(&self) -> Option<u64> {
        self.schedule.get(self.next).copied()
    }

    /// If a request is due at `now_ns`, take it: returns its index and
    /// intended time and records how late it is being sent.
    pub fn take_due(&mut self, now_ns: u64) -> Option<(usize, u64)> {
        let intended = self.next_due().filter(|&t| t <= now_ns)?;
        let index = self.next;
        self.next += 1;
        self.lag_ns.push(now_ns - intended);
        Some((index, intended))
    }

    /// Record that request `index` was observed complete at `now_ns`.
    pub fn complete(&mut self, index: usize, now_ns: u64) {
        self.latency_ns
            .push(now_ns.saturating_sub(self.schedule[index]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_zipf_sequence_and_another_seed_differs() {
        let zipf = Zipf::new(54, 1.1);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..256).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        assert!(draw(3).iter().all(|&r| r < 54));
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let zipf = Zipf::new(54, 1.1);
        let mut rng = Rng::new(9);
        let mut counts = [0u32; 54];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // P(rank 0) = 1 / H(54, 1.1) ~ 0.27; rank 1 is 2^-1.1 of that.
        let p0 = f64::from(counts[0]) / 100_000.0;
        assert!((0.25..0.30).contains(&p0), "p0 = {p0}");
        let ratio = f64::from(counts[1]) / f64::from(counts[0]);
        assert!((ratio - 2f64.powf(-1.1)).abs() < 0.03, "ratio = {ratio}");
        assert!(counts[53] > 0 && counts[53] < counts[5]);
    }

    #[test]
    fn a_single_rank_zipf_always_draws_it() {
        let zipf = Zipf::new(1, 1.1);
        let mut rng = Rng::new(0);
        assert!((0..32).all(|_| zipf.sample(&mut rng) == 0));
    }

    #[test]
    fn poisson_schedule_is_seeded_ascending_and_hits_its_rate() {
        let a = poisson_schedule(&mut Rng::new(5), 10_000.0, 1.0);
        let b = poisson_schedule(&mut Rng::new(5), 10_000.0, 1.0);
        let c = poisson_schedule(&mut Rng::new(6), 10_000.0, 1.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 1_000_000_000);
        assert!((9_500..10_500).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn a_stalled_generator_is_charged_to_the_requests_it_delayed() {
        let schedule = [0, 10, 20, 30, 100];
        let mut pacer = Pacer::new(&schedule);
        assert_eq!(pacer.take_due(0), Some((0, 0)));
        assert_eq!(pacer.take_due(5), None, "nothing is due before its time");
        // The generator stalls until t = 35: three sends go out late, back
        // to back, each still stamped with its own intended time.
        assert_eq!(pacer.take_due(35), Some((1, 10)));
        assert_eq!(pacer.take_due(35), Some((2, 20)));
        assert_eq!(pacer.take_due(36), Some((3, 30)));
        assert_eq!(pacer.take_due(36), None);
        assert_eq!(pacer.next_due(), Some(100));
        assert_eq!(pacer.lag_ns, vec![0, 25, 15, 6]);
        // All three complete at t = 40: latency counts from the intended
        // send, so the stall shows up as 30 / 20 / 10, not 5 / 5 / 4.
        for i in 1..=3 {
            pacer.complete(i, 40);
        }
        assert_eq!(pacer.latency_ns, vec![30, 20, 10]);
        assert_eq!(pacer.take_due(100), Some((4, 100)));
        assert_eq!(pacer.next_due(), None);
        assert_eq!(pacer.take_due(1_000), None);
    }
}
