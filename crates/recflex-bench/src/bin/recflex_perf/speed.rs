//! Host speed, measured beside the passes so host times can be stated at
//! a fixed reference speed.
//!
//! On shared virtual machines the speed of a vCPU drifts with what the
//! other tenants of the physical host do: on the 2-vCPU machine this
//! benchmark was built on, the same pass ran 20–40 % slower for minutes at
//! a time, in CPU time as much as in wall-clock. Two probes slowed with
//! it: a latency-bound multiply–xor chain, which follows the core's speed,
//! and random row reads from a 64 MB table, which follow the memory
//! system's; memory-bound workloads tracked the second, the serving loop
//! the first more closely. A run therefore times both probes on both pool
//! threads before its first pass and after each pass, and takes the host
//! speed as the geometric mean of the two probes' speeds relative to the
//! reference host. The probes are timed in CPU time, which time the
//! hypervisor gives to other guests does not inflate. They are this
//! benchmark's own code, so no change to the library can move them.

use crate::stats::median;
use crate::trace::process_cpu_s;

/// Steps of the chain each pool thread runs per timing.
const CHAIN_STEPS: u64 = 25_000_000;
/// Rows of the gather table: 2^18 rows of 64 `f32`, 64 MB.
const GATHER_ROWS: usize = 1 << 18;
const GATHER_DIM: usize = 64;
/// Rows each pool thread reads per timing.
const GATHER_READS: usize = 1_500_000;
/// Timings per probe in one sample; the sample is their median.
const REPS: usize = 3;
/// CPU seconds per thread one timing of each probe takes on the reference
/// host, the 2-vCPU x86-64 virtual machine of README.md's baseline, at its
/// median speed.
pub const REFERENCE_CHAIN_S: f64 = 0.042;
pub const REFERENCE_GATHER_S: f64 = 0.036;

/// A latency-bound chain of `steps` dependent multiply–add–xor steps: the
/// compiler can neither vectorize nor shorten it.
fn chain(steps: u64) -> u64 {
    let mut x = std::hint::black_box(1u64);
    for _ in 0..steps {
        x = x
            .wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(0x1405_7B7E_F767_814F)
            ^ (x >> 13);
    }
    x
}

/// Sum `reads` pseudo-random rows of `table`, as an embedding bag pools
/// them; `seed` picks the rows.
fn gather(table: &[f32], reads: usize, seed: u64) -> f32 {
    let rows = table.len() / GATHER_DIM;
    let mut x = seed;
    let mut acc = [0f32; GATHER_DIM];
    for _ in 0..reads {
        x = x
            .wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(0x1405_7B7E_F767_814F);
        let row = (x >> 33) as usize % rows * GATHER_DIM;
        for (a, v) in acc.iter_mut().zip(&table[row..row + GATHER_DIM]) {
            *a += v;
        }
    }
    acc.iter().sum()
}

/// Median CPU seconds per pool thread of [`REPS`] timings of `probe`,
/// which keeps both threads busy.
fn time(probe: impl Fn()) -> f64 {
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = process_cpu_s();
            probe();
            (process_cpu_s() - t) / 2.0
        })
        .collect();
    median(&reps)
}

/// One sample: the host's speed relative to the reference host, from both
/// probes run on both threads of the current pool at once. Above 1 on a
/// faster host; a host time multiplied by it is stated at reference
/// speed. The gather table lives only for the sample, so it adds nothing
/// to the passes' resident set.
pub fn sample() -> f64 {
    let chain_s = time(|| {
        let (a, b) = rayon::join(|| chain(CHAIN_STEPS), || chain(CHAIN_STEPS));
        std::hint::black_box(a ^ b);
    });
    let table: Vec<f32> = (0..GATHER_ROWS * GATHER_DIM)
        .map(|i| (i % 97) as f32)
        .collect();
    let gather_s = time(|| {
        let (a, b) = rayon::join(
            || gather(&table, GATHER_READS, 1),
            || gather(&table, GATHER_READS, 2),
        );
        std::hint::black_box(a + b);
    });
    (REFERENCE_CHAIN_S / chain_s * (REFERENCE_GATHER_S / gather_s)).sqrt()
}

/// The host speed of each pass from the samples taken around the passes
/// (one before the first pass, one after each): the geometric mean of the
/// samples on either side. Over eight runs of each workload, scaling each
/// pass by its own neighbours spread the end-to-end times less than
/// scaling a whole run by its median sample.
pub fn per_pass(samples: &[f64]) -> Vec<f64> {
    samples.windows(2).map(|w| (w[0] * w[1]).sqrt()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probes_do_the_work_they_are_given() {
        assert_eq!(chain(0), 1);
        assert_ne!(chain(1), chain(2));
        let table = vec![1.0; 4 * GATHER_DIM];
        assert_eq!(gather(&table, 3, 7), (3 * GATHER_DIM) as f32);
        assert_eq!(per_pass(&[1.0, 4.0, 1.0]), vec![2.0, 2.0]);
    }
}
