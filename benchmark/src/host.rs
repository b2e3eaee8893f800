//! Host speed. On a shared virtual machine the vCPU's speed drifts over
//! minutes, in CPU time as well as wall time, as neighbours load the
//! host: by 10–20% when they compete for cores, by 2x when they also
//! saturate memory. Each run therefore times a fixed probe while the
//! servers are idle. Reported times are scaled by the ratio of the
//! reference probe time to the probe time around them: the mean of the
//! probes just before and just after a cold sweep, and the run's median
//! probe otherwise. Runs on the same host thus compare at the same
//! speed, and a burst that slows one sweep is charged to the host, not
//! to the sweep's tail. The probe is the benchmark's own code: a faster
//! or slower program under test moves the scaled times as much as the
//! raw ones.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Steps of the dependent multiply-xor chain: about 80% of a probe on a
/// quiet host.
const CHAIN_STEPS: u64 = 8_000_000;
/// Random read-modify-writes into an 8 MiB table: about 20%. A cold sweep
/// slows like this mix, between a pure compute loop (1.4x under memory
/// contention) and a pure memory walk (3.3x).
const TABLE_STEPS: u64 = 800_000;
const TABLE_WORDS: usize = 1 << 20;
/// The probe's median time on the reference host (a 2-vCPU cloud VM,
/// measured while the host was quiet). Scaled times are in this host's
/// milliseconds.
pub const REFERENCE_PROBE_MS: f64 = 18.5;

/// The probe times of one run, and the probe's table.
#[derive(Debug)]
pub struct Speed {
    table: Vec<u64>,
    probes: Vec<f64>,
}

impl Speed {
    pub fn new() -> Speed {
        Speed { table: (0..TABLE_WORDS as u64).collect(), probes: Vec::new() }
    }

    /// Times `n` probes back to back.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            self.probe();
        }
    }

    /// Times one probe and returns its time, in milliseconds.
    pub fn probe(&mut self) -> f64 {
        let ms = probe_ms(&mut self.table);
        self.probes.push(ms);
        ms
    }

    /// The run's median probe time, in milliseconds.
    pub fn probe_ms(&self) -> f64 {
        median(&self.probes)
    }

    /// The factor that turns this run's times into reference-host times.
    pub fn scale(&self) -> f64 {
        scale_for(self.probe_ms())
    }
}

/// The factor that turns times taken while the probe took `probe_ms`
/// into reference-host times.
pub fn scale_for(probe_ms: f64) -> f64 {
    REFERENCE_PROBE_MS / probe_ms
}

/// CPU time the hypervisor gave to other guests while this one was
/// ready to run, since boot, in clock ticks: the `steal` column of
/// `/proc/stat`. Zero where the kernel does not report it.
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpu = stat.lines().next().unwrap_or_default();
    cpu.split_whitespace().nth(8).and_then(|t| t.parse().ok()).unwrap_or(0)
}

/// Times one probe, in milliseconds.
fn probe_ms(table: &mut [u64]) -> f64 {
    let start = Instant::now();
    let mut x = 1u64;
    for i in 0..black_box(CHAIN_STEPS) {
        x = x.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(i) ^ (x >> 29);
    }
    let mask = table.len() - 1;
    let mut acc = x;
    for _ in 0..black_box(TABLE_STEPS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut table[x as usize & mask];
        acc = acc.wrapping_add(*slot).rotate_left(5) ^ x;
        *slot = acc;
    }
    black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_work_is_not_optimised_away() {
        let mut speed = Speed::new();
        speed.sample(3);
        // Millions of dependent steps take milliseconds on any host.
        assert!(speed.probe_ms() > 1.0, "{} ms", speed.probe_ms());
        assert!(speed.scale().is_finite() && speed.scale() > 0.0);
    }
}
