//! Deterministic, seeded input-data generators for the experiments.
//!
//! The paper's evaluation ran on fixed input arrays; here every generator is
//! seeded so that repeated benchmark runs (and the differential tests between
//! the interpreter and the simulated targets) see exactly the same data.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Default element count used by the Table 1 reproduction.
pub const DEFAULT_N: usize = 4096;

/// A seeded generator of kernel input arrays.
#[derive(Debug)]
pub struct DataGen {
    rng: StdRng,
}

impl DataGen {
    /// Create a generator with the given seed.
    pub fn new(seed: u64) -> Self {
        DataGen {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// `n` single-precision values in `[-range, range)`.
    pub fn f32s(&mut self, n: usize, range: f32) -> Vec<f32> {
        (0..n).map(|_| self.rng.gen_range(-range..range)).collect()
    }

    /// `n` bytes spanning the full `u8` range.
    pub fn u8s(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.rng.gen()).collect()
    }

    /// `n` unsigned 16-bit values spanning the full range.
    pub fn u16s(&mut self, n: usize) -> Vec<u16> {
        (0..n).map(|_| self.rng.gen()).collect()
    }

    /// `n` signed 16-bit values spanning the full range.
    pub fn i16s(&mut self, n: usize) -> Vec<i16> {
        (0..n).map(|_| self.rng.gen()).collect()
    }

    /// `n` signed 32-bit values in `[-bound, bound)`.
    pub fn i32s(&mut self, n: usize, bound: i32) -> Vec<i32> {
        (0..n).map(|_| self.rng.gen_range(-bound..bound)).collect()
    }
}

impl Default for DataGen {
    fn default() -> Self {
        DataGen::new(0x5011c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_data() {
        let mut a = DataGen::new(42);
        let mut b = DataGen::new(42);
        assert_eq!(a.f32s(100, 10.0), b.f32s(100, 10.0));
        assert_eq!(a.u8s(100), b.u8s(100));
        assert_eq!(a.u16s(16), b.u16s(16));
        assert_eq!(a.i16s(16), b.i16s(16));
        assert_eq!(a.i32s(16, 1000), b.i32s(16, 1000));
    }

    #[test]
    fn different_seeds_differ_and_ranges_hold() {
        let mut a = DataGen::new(1);
        let mut b = DataGen::new(2);
        assert_ne!(a.u8s(64), b.u8s(64));
        let xs = a.f32s(1000, 2.0);
        assert!(xs.iter().all(|x| (-2.0..2.0).contains(x)));
        let ys = a.i32s(1000, 50);
        assert!(ys.iter().all(|y| (-50..50).contains(y)));
    }

    #[test]
    fn default_generator_is_usable() {
        let mut g = DataGen::default();
        assert_eq!(g.u8s(DEFAULT_N).len(), DEFAULT_N);
    }
}
