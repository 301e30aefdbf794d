//! Measured per-feature costs for multi-GPU table placement (paper
//! Section VII, "Larger model sizes").
//!
//! When embedding tables exceed one GPU's memory, the paper proposes
//! placing tables on multiple GPUs "through heuristics" and then using
//! RecFlex to optimize the embedding operations *on each GPU*. The
//! heuristic here is LPT ([`Placement::balance_by_cost`]) over the
//! per-feature device-time estimates this module measures on the tuning
//! history; the sharded serving tier (`recflex_serve::ShardedServeRuntime`)
//! then serves one tuned engine per device, gating each chunk on the
//! slowest shard plus a ring all-gather of the pooled outputs.
//!
//! [`Placement::balance_by_cost`]: recflex_data::Placement::balance_by_cost

use recflex_data::{Dataset, ModelConfig};
use recflex_embedding::analyze_batch;
use recflex_sim::GpuArch;

/// Per-feature device-time estimates (µs per tuning batch), measured on
/// the historical dataset rather than read off the feature specs.
///
/// The embedding stage is bandwidth-bound, so a feature's cost is its
/// memory time under the architecture's roofline: first-touch rows stream
/// from DRAM, re-referenced rows hit L2, and the pooled output writes
/// back. Unlike the spec-derived expected-bytes weight this reflects what
/// the traffic *actually* does — realized pooling factors, coverage, and
/// the hot-row reuse that makes a skewed feature far cheaper than its raw
/// lookup count suggests.
pub fn feature_cost_estimates(model: &ModelConfig, dataset: &Dataset, arch: &GpuArch) -> Vec<f64> {
    let mut costs = vec![0.0f64; model.features.len()];
    let batches = dataset.batches();
    if batches.is_empty() {
        return costs;
    }
    for batch in batches {
        for w in analyze_batch(model, batch) {
            let dram_bytes = (w.unique_bytes() + w.bytes_written()) as f64;
            let l2_bytes = (w.bytes_read() - w.unique_bytes()) as f64;
            let us = dram_bytes / (arch.dram_bw_gbps * 1e9) * 1e6
                + l2_bytes / (arch.l2_bw_gbps * 1e9) * 1e6;
            costs[w.feature_idx] += us;
        }
    }
    for c in &mut costs {
        *c /= batches.len() as f64;
    }
    costs
}

#[cfg(test)]
mod tests {
    use super::*;
    use recflex_data::{ModelPreset, Placement};

    #[test]
    fn cost_driven_placement_beats_round_robin_on_measured_costs() {
        let m = ModelPreset::C.scaled(0.05);
        let ds = Dataset::synthesize(&m, 2, 64, 5);
        let arch = GpuArch::v100();
        let costs = feature_cost_estimates(&m, &ds, &arch);
        assert_eq!(costs.len(), m.features.len());
        assert!(costs.iter().all(|&c| c >= 0.0));
        assert!(costs.iter().sum::<f64>() > 0.0, "history implies work");
        let by_cost = Placement::balance_by_cost(4, &costs);
        let naive = Placement::round_robin(&m, 4);
        assert!(
            by_cost.imbalance(&costs) <= naive.imbalance(&costs) + 1e-9,
            "LPT {} vs round-robin {}",
            by_cost.imbalance(&costs),
            naive.imbalance(&costs)
        );
    }
}
