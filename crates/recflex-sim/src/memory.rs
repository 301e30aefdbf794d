//! Memory-system model: L2 working-set behaviour and average access latency.
//!
//! Embedding lookups are the textbook memory-bound irregular workload: a
//! batch touches a set of *unique* table rows once (compulsory DRAM traffic)
//! and re-touches popular rows many times. Whether the re-touches hit in L2
//! depends on how much distinct data the *whole grid* streams concurrently —
//! this is exactly the grid-level interference the paper's padding blocks
//! simulate during local tuning (Section IV-A2).
//!
//! The model: given the grid-wide unique footprint `U` and the L2 capacity
//! `C`, a re-access hits with probability `min(1, C / U)`. Misses and
//! first-touches go to DRAM. The resulting DRAM-byte counts feed bandwidth
//! sharing and the hit/miss blend feeds the average latency used for
//! latency-bound blocks.

use crate::arch::GpuArch;
use crate::profile::BlockProfile;

/// Grid-level memory behaviour derived from all block profiles of a launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemorySystem {
    /// Probability that a reuse access hits in L2.
    pub l2_hit_rate: f64,
    /// Average latency of one memory access in cycles (L2/DRAM blend).
    pub avg_latency: f64,
    /// Fraction of requested bytes served by DRAM.
    pub dram_fraction: f64,
}

impl MemorySystem {
    /// Build the model from the grid's aggregate traffic.
    pub fn from_traffic(arch: &GpuArch, total_bytes: u64, unique_bytes: u64) -> Self {
        let unique = unique_bytes.min(total_bytes);
        let reuse = total_bytes - unique;
        let footprint = unique.max(1);
        let l2_hit_rate = (arch.l2_size as f64 / footprint as f64).min(1.0);

        let dram_bytes = unique as f64 + reuse as f64 * (1.0 - l2_hit_rate);
        let dram_fraction = if total_bytes == 0 {
            0.0
        } else {
            dram_bytes / total_bytes as f64
        };
        let avg_latency =
            dram_fraction * arch.dram_latency + (1.0 - dram_fraction) * arch.l2_latency;

        MemorySystem {
            l2_hit_rate,
            avg_latency,
            dram_fraction,
        }
    }

    /// DRAM bytes a block with profile `p` actually moves, given this
    /// grid-level hit behaviour.
    pub fn dram_bytes(&self, p: &BlockProfile) -> f64 {
        let reuse = p.bytes_accessed.saturating_sub(p.unique_bytes) as f64;
        p.unique_bytes as f64 + reuse * (1.0 - self.l2_hit_rate) + p.bytes_written as f64
    }

    /// Bytes served from L2 for a block with profile `p`.
    pub fn l2_bytes(&self, p: &BlockProfile) -> f64 {
        let reuse = p.bytes_accessed.saturating_sub(p.unique_bytes) as f64;
        reuse * self.l2_hit_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v100() -> GpuArch {
        GpuArch::v100()
    }

    #[test]
    fn small_footprint_all_hits() {
        // 1 MiB unique fits V100's 6 MiB L2 entirely.
        let m = MemorySystem::from_traffic(&v100(), 10 << 20, 1 << 20);
        assert!((m.l2_hit_rate - 1.0).abs() < 1e-12);
        // Only the unique 1/10th goes to DRAM.
        assert!((m.dram_fraction - 0.1).abs() < 1e-9);
    }

    #[test]
    fn huge_footprint_mostly_misses() {
        // 600 MiB unique vs 6 MiB L2 → 1% hit rate.
        let m = MemorySystem::from_traffic(&v100(), 1200 << 20, 600 << 20);
        assert!((m.l2_hit_rate - 0.01).abs() < 1e-3);
        assert!(m.avg_latency > 0.9 * v100().dram_latency);
    }

    #[test]
    fn block_dram_bytes_include_writes() {
        let m = MemorySystem {
            l2_hit_rate: 1.0,
            avg_latency: 200.0,
            dram_fraction: 0.5,
        };
        let p = BlockProfile {
            bytes_accessed: 1000,
            unique_bytes: 400,
            bytes_written: 100,
            ..Default::default()
        };
        // Perfect hits: DRAM = unique reads + writes.
        assert!((m.dram_bytes(&p) - 500.0).abs() < 1e-12);
        assert!((m.l2_bytes(&p) - 600.0).abs() < 1e-12);
    }

    #[test]
    fn latency_bounded_by_endpoints() {
        let arch = v100();
        for (t, u) in [
            (1u64 << 20, 1u64 << 18),
            (1 << 28, 1 << 27),
            (1 << 31, 1 << 30),
        ] {
            let m = MemorySystem::from_traffic(&arch, t, u);
            assert!(m.avg_latency >= arch.l2_latency - 1e-9);
            assert!(m.avg_latency <= arch.dram_latency + 1e-9);
        }
    }

    #[test]
    fn zero_traffic_is_sane() {
        let m = MemorySystem::from_traffic(&v100(), 0, 0);
        assert_eq!(m.dram_fraction, 0.0);
        assert!(m.avg_latency.is_finite());
    }
}
