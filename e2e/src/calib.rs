//! A host-speed probe that runs no code of the repository.
//!
//! Beyond stalls and cache contention, which a unit's best sample escapes,
//! the shared host has slow *states* that last longer than a run: the
//! physical core's other hardware thread is busy, or the core's clock is
//! down, and then even the best sample of every unit is slower by the same
//! tens of percent. The probe is a fixed piece of work with the character of
//! the code under test — several independent integer chains, loads and stores
//! in a table that stays in the first-level cache, data-dependent branches —
//! whose best time over a run tracks that state. Timing metrics are reported
//! scaled to the probe time of an undisturbed host, [`REFERENCE_NS`], and the
//! raw value is printed beside each.

use std::hint::black_box;
use std::time::Instant;

/// The probe's best time on the host the benchmark was sized on, when that
/// host is undisturbed. Frozen: it only fixes the scale of the scaled values.
pub const REFERENCE_NS: f64 = 14_400.0;

const TABLE: usize = 1024;
const STEPS: u32 = 8192;

/// The probe and its best time so far.
pub struct Calib {
    table: [u32; TABLE],
    floor_ns: f64,
    probes: usize,
}

impl Calib {
    pub fn new() -> Calib {
        Calib {
            table: [0; TABLE],
            floor_ns: f64::INFINITY,
            probes: 0,
        }
    }

    /// Run the probe `times` times and keep the best time.
    pub fn probe(&mut self, times: usize) {
        for _ in 0..times {
            // The same table every time, so that every probe is the same work.
            let mut x = 0x2545_F491u32;
            for slot in &mut self.table {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                *slot = x;
            }
            let started = Instant::now();
            let (mut a, mut b, mut c, mut d) = (1u32, 0x9E37_79B9u32, 7u32, 0u32);
            for _ in 0..STEPS {
                a = a
                    .wrapping_mul(1_664_525)
                    .wrapping_add(self.table[(a >> 22) as usize]);
                b ^= b << 13;
                b ^= b >> 17;
                b ^= b << 5;
                c = c.rotate_left(5).wrapping_add(b);
                if c & 1 == 1 {
                    d = d.wrapping_add(a);
                } else {
                    d ^= b;
                }
                self.table[(d >> 22) as usize] = c;
            }
            black_box((a, b, c, d));
            self.floor_ns = self.floor_ns.min(started.elapsed().as_nanos() as f64);
            self.probes += 1;
        }
    }

    /// Best probe time so far, nanoseconds.
    pub fn floor_ns(&self) -> f64 {
        self.floor_ns
    }

    /// How fast the host ran at its best during the run, relative to the
    /// reference host: below 1 on a slower host or in a slow state.
    pub fn host_speed(&self) -> f64 {
        REFERENCE_NS / self.floor_ns
    }

    pub fn probes(&self) -> usize {
        self.probes
    }
}
