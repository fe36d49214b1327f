//! Machine-speed reference: a fixed loop in the benchmark's own code,
//! timed right before each measured block or pass, that every reported
//! time and rate is scaled by.
//!
//! On the shared 2-vCPU hosts this benchmark was built on, throughput-
//! bound code slows by up to 1.5× for seconds at a time while another
//! tenant keeps the core's SMT sibling busy; a latency-bound loop and
//! a DRAM-bound loop barely notice. Per-block engine throughput swung
//! between 3.7e7 and 6.1e7 ant-rounds/s within one run, and run medians
//! by ±15%, with no change in the code or the seed. This loop has the
//! engine kernels' character (four independent RNG streams, compares,
//! updates of an L2-sized table) and tracked the engine's per-block
//! rate with correlations of 0.7–0.95, so dividing by its rate removes
//! most of the contention. Figures are reported as if the loop had run
//! at [`REFERENCE_RATE`]: a change to the library moves them, a busy
//! neighbour mostly does not. The loop itself must never change, or
//! figures before and after stop being comparable.

use std::hint::black_box;
use std::time::Instant;

/// Reference-loop iterations per second the reported figures are
/// scaled to: about the loop's uncontended rate on the host the bounds
/// in `BENCHMARK.json` were set on.
pub const REFERENCE_RATE: f64 = 4.0e8;

/// Table entries: 512 KiB of `u64`, resident in L2.
const TABLE: usize = 1 << 16;

/// Iterations per measurement (about 2.5 ms uncontended).
const ITERS: usize = 1 << 20;

pub struct Calibrator {
    table: Vec<u64>,
    streams: [u64; 4],
}

impl Calibrator {
    pub fn new() -> Self {
        Self {
            table: (0..TABLE as u64).collect(),
            streams: [
                0x9E37_79B9_7F4A_7C15,
                0xBF58_476D_1CE4_E5B9,
                0x94D0_49BB_1331_11EB,
                0x2545_F491_4F6C_DD1D,
            ],
        }
    }

    /// Runs the loop once and returns the factor that scales a duration
    /// measured now to the reference speed: multiply times by it,
    /// divide rates by it.
    pub fn time_scale(&mut self) -> f64 {
        let start = Instant::now();
        for _ in 0..ITERS / 4 {
            for s in &mut self.streams {
                *s ^= *s << 13;
                *s ^= *s >> 7;
                *s ^= *s << 17;
                let i = (*s >> 20) as usize % TABLE;
                let lack = (*s >> 11) < self.table[i].wrapping_mul(0x2545_F491);
                self.table[i] = self.table[i].wrapping_add(u64::from(lack));
            }
        }
        black_box(&self.table);
        ITERS as f64 / start.elapsed().as_secs_f64() / REFERENCE_RATE
    }
}
