//! Feature-to-device placement for model-parallel sharding.
//!
//! When embedding tables exceed one GPU's memory, the paper places tables
//! on multiple GPUs "through heuristics" and optimizes each GPU's share
//! independently (Section VII). The placement itself is a pure partition
//! of the model's feature list, so it lives here in the data layer where
//! both the per-feature cost estimates (`recflex-core::sharding`) and the
//! serving tier (`recflex-serve::sharded`) can reach it.
//!
//! Three policies, from naive to informed:
//!
//! * [`Placement::round_robin`] — feature `f` goes to device `f mod N`;
//!   ignores weight entirely (the strawman baseline),
//! * [`Placement::balance`] — greedy longest-processing-time over each
//!   feature's *expected traffic* (expected lookups/sample × row bytes),
//! * [`Placement::balance_by_cost`] — the same LPT greedy over arbitrary
//!   caller-supplied per-feature costs, e.g. tuned per-feature latency
//!   estimates. Traffic is a proxy; measured device time is the quantity
//!   the slowest shard actually gates on.

use serde::{Deserialize, Serialize};

use crate::batch::Batch;
use crate::feature::{FeatureSpec, ModelConfig};

/// Assignment of model features to devices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    /// `feature_idx → device` in model order.
    pub device_of: Vec<usize>,
    /// Number of devices.
    pub num_devices: usize,
}

impl Placement {
    /// Naive striping: feature `f` lands on device `f mod num_devices`.
    pub fn round_robin(model: &ModelConfig, num_devices: usize) -> Self {
        assert!(num_devices >= 1);
        Placement {
            device_of: (0..model.features.len()).map(|f| f % num_devices).collect(),
            num_devices,
        }
    }

    /// Greedy LPT placement: features sorted by expected per-batch bytes,
    /// each assigned to the currently lightest device.
    pub fn balance(model: &ModelConfig, num_devices: usize) -> Self {
        let weight = |f: &FeatureSpec| f.expected_lookups_per_sample() * f.row_bytes() as f64;
        let costs: Vec<f64> = model.features.iter().map(weight).collect();
        Self::balance_by_cost(num_devices, &costs)
    }

    /// Greedy LPT placement over explicit per-feature costs (any
    /// nonnegative unit — bytes, µs of tuned latency, …). Costs are
    /// clamped to a small positive floor so zero-cost features still
    /// spread across devices instead of piling onto one.
    pub fn balance_by_cost(num_devices: usize, costs: &[f64]) -> Self {
        assert!(num_devices >= 1);
        let mut order: Vec<usize> = (0..costs.len()).collect();
        // Sort by descending cost; ties broken by feature index so the
        // placement is a pure function of its inputs.
        order.sort_by(|&a, &b| costs[b].total_cmp(&costs[a]).then(a.cmp(&b)));
        let mut load = vec![0.0f64; num_devices];
        let mut device_of = vec![0usize; costs.len()];
        for f in order {
            let dev = load
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .expect("num_devices >= 1");
            device_of[f] = dev;
            load[dev] += costs[f].max(1.0);
        }
        Placement {
            device_of,
            num_devices,
        }
    }

    /// Feature indices on one device, in model order.
    pub fn features_on(&self, device: usize) -> Vec<usize> {
        self.device_of
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d == device)
            .map(|(f, _)| f)
            .collect()
    }

    /// The sub-model a device serves: `model`'s features on `device`, in
    /// model order, named `{model}@shard{device}`. A single-device
    /// placement keeps the parent name so its tables (seeded from the
    /// model name) stay identical to the unsharded deployment.
    pub fn sub_model(&self, model: &ModelConfig, device: usize) -> ModelConfig {
        let name = if self.num_devices == 1 {
            model.name.clone()
        } else {
            format!("{}@shard{device}", model.name)
        };
        ModelConfig {
            name,
            features: self
                .features_on(device)
                .iter()
                .map(|&f| model.features[f].clone())
                .collect(),
        }
    }

    /// Project a batch onto one device's features (same sample axis,
    /// device-local feature order).
    pub fn project_batch(&self, batch: &Batch, device: usize) -> Batch {
        Batch {
            batch_size: batch.batch_size,
            features: self
                .features_on(device)
                .iter()
                .map(|&f| batch.features[f].clone())
                .collect(),
        }
    }

    /// Load imbalance: max device weight / mean device weight under the
    /// given per-feature weights.
    pub fn imbalance(&self, weights: &[f64]) -> f64 {
        let mut load = vec![0.0f64; self.num_devices];
        for (f, &d) in self.device_of.iter().enumerate() {
            load[d] += weights[f];
        }
        let max = load.iter().copied().fold(0.0f64, f64::max);
        let mean = load.iter().sum::<f64>() / self.num_devices as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Assignment of whole *models* to device classes — the fleet-level
/// analogue of [`Placement`]. Where `Placement` splits one model's
/// features across homogeneous shards, `FleetAssignment` decides which
/// device *class* (V100-pool, A100-pool, edge-pool, …) each model's
/// sharded runtime runs on, subject to per-class device capacity.
///
/// Three strategies mirror the single-model policies:
///
/// * [`FleetAssignment::round_robin`] — capacity-aware striping, blind to
///   cost (the strawman the experiment binary gates against),
/// * [`FleetAssignment::homogeneous`] — everything on one class (the
///   "just buy more of the same GPU" baseline),
/// * [`FleetAssignment::cheapest_fit`] — heterogeneity-aware: each model
///   goes to the class where its *measured tuned-schedule cost* is lowest
///   (Hercules-style), processed in descending regret order so the models
///   with the most to lose from a wrong class pick first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetAssignment {
    /// `model_idx → device class` in fleet order.
    pub class_of: Vec<usize>,
    /// Number of device classes in the pool.
    pub num_classes: usize,
}

impl FleetAssignment {
    /// Capacity-aware striping: model `m` tries class `m mod C`, then
    /// cycles forward to the next class with room. If no class has room
    /// for the model's demand, it lands on its home stripe anyway (the
    /// pool is oversubscribed; someone has to absorb it).
    pub fn round_robin(demand: &[usize], capacity: &[usize]) -> Self {
        let num_classes = capacity.len();
        assert!(num_classes >= 1);
        let mut free: Vec<isize> = capacity.iter().map(|&c| c as isize).collect();
        let mut class_of = Vec::with_capacity(demand.len());
        for (m, &d) in demand.iter().enumerate() {
            let home = m % num_classes;
            let chosen = (0..num_classes)
                .map(|k| (home + k) % num_classes)
                .find(|&c| free[c] >= d as isize)
                .unwrap_or(home);
            free[chosen] -= d as isize;
            class_of.push(chosen);
        }
        FleetAssignment {
            class_of,
            num_classes,
        }
    }

    /// Everything on one class — the homogeneous-pool baseline.
    pub fn homogeneous(num_models: usize, class: usize, num_classes: usize) -> Self {
        assert!(class < num_classes);
        FleetAssignment {
            class_of: vec![class; num_models],
            num_classes,
        }
    }

    /// Heterogeneity-aware placement over a measured cost matrix:
    /// `costs[m][c]` is model `m`'s per-sample cost on class `c` (tuned
    /// schedule, measured — not a proxy). Models are processed in
    /// descending *regret* (second-cheapest minus cheapest class, ties by
    /// model index), so the model that loses the most from missing its
    /// best class claims capacity first. Each model takes the cheapest
    /// class with `demand[m]` devices still free; if none has room it
    /// takes its cheapest class regardless (documented oversubscription —
    /// capacity then gates throughput, not placement).
    pub fn cheapest_fit(costs: &[Vec<f64>], demand: &[usize], capacity: &[usize]) -> Self {
        let num_classes = capacity.len();
        assert!(num_classes >= 1);
        assert_eq!(costs.len(), demand.len());
        assert!(costs.iter().all(|row| row.len() == num_classes));
        // Per-model class preference, ascending cost, ties by class index.
        let prefs: Vec<Vec<usize>> = costs
            .iter()
            .map(|row| {
                let mut order: Vec<usize> = (0..num_classes).collect();
                order.sort_by(|&a, &b| row[a].total_cmp(&row[b]).then(a.cmp(&b)));
                order
            })
            .collect();
        let regret = |m: usize| -> f64 {
            if num_classes < 2 {
                return 0.0;
            }
            costs[m][prefs[m][1]] - costs[m][prefs[m][0]]
        };
        let mut order: Vec<usize> = (0..costs.len()).collect();
        order.sort_by(|&a, &b| regret(b).total_cmp(&regret(a)).then(a.cmp(&b)));
        let mut free: Vec<isize> = capacity.iter().map(|&c| c as isize).collect();
        let mut class_of = vec![0usize; costs.len()];
        for m in order {
            let chosen = prefs[m]
                .iter()
                .copied()
                .find(|&c| free[c] >= demand[m] as isize)
                .unwrap_or(prefs[m][0]);
            free[chosen] -= demand[m] as isize;
            class_of[m] = chosen;
        }
        FleetAssignment {
            class_of,
            num_classes,
        }
    }

    /// Re-place one drained model against *residual* capacity: the
    /// elasticity move [`cheapest_fit`](Self::cheapest_fit) solves at
    /// fleet-build time, re-solved mid-run for a single member. `costs`
    /// is the model's per-sample cost row across classes, `residual`
    /// the free devices per class right now, `banned` the classes the
    /// controller refuses (the member's failing current class, classes
    /// inside an outage window). Returns the cheapest admissible class
    /// (ties toward the lower class index), or `None` when no class can
    /// absorb `demand` — unlike `cheapest_fit` there is *no*
    /// oversubscription fallback: a migration that cannot land whole is
    /// aborted, not forced.
    pub fn rehome(
        costs: &[f64],
        demand: usize,
        residual: &[isize],
        banned: &[bool],
    ) -> Option<usize> {
        assert_eq!(costs.len(), residual.len());
        assert_eq!(costs.len(), banned.len());
        (0..costs.len())
            .filter(|&c| !banned[c] && residual[c] >= demand as isize)
            .min_by(|&a, &b| costs[a].total_cmp(&costs[b]).then(a.cmp(&b)))
    }

    /// Model indices assigned to one class, in fleet order.
    pub fn models_on(&self, class: usize) -> Vec<usize> {
        self.class_of
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c == class)
            .map(|(m, _)| m)
            .collect()
    }

    /// Devices consumed per class under the given per-model demand.
    pub fn devices_used(&self, demand: &[usize]) -> Vec<usize> {
        let mut used = vec![0usize; self.num_classes];
        for (m, &c) in self.class_of.iter().enumerate() {
            used[c] += demand[m];
        }
        used
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelPreset;
    use proptest::prelude::*;

    #[test]
    fn round_robin_stripes() {
        let m = ModelPreset::A.scaled(0.01);
        let p = Placement::round_robin(&m, 3);
        for (f, &d) in p.device_of.iter().enumerate() {
            assert_eq!(d, f % 3);
        }
    }

    #[test]
    fn balance_by_cost_puts_heavy_features_apart() {
        let costs = [100.0, 90.0, 1.0, 1.0];
        let p = Placement::balance_by_cost(2, &costs);
        assert_ne!(
            p.device_of[0], p.device_of[1],
            "the two heavy features must land on different devices"
        );
        assert!(
            p.imbalance(&costs) < 1.2,
            "imbalance {}",
            p.imbalance(&costs)
        );
    }

    #[test]
    fn balance_is_deterministic_under_ties() {
        let costs = [5.0; 8];
        let a = Placement::balance_by_cost(4, &costs);
        let b = Placement::balance_by_cost(4, &costs);
        assert_eq!(a, b);
    }

    #[test]
    fn single_device_sub_model_keeps_parent_name() {
        let m = ModelPreset::A.scaled(0.01);
        let p = Placement::balance(&m, 1);
        let sub = p.sub_model(&m, 0);
        assert_eq!(sub.name, m.name);
        assert_eq!(sub.features, m.features);
        let p4 = Placement::balance(&m, 4);
        assert!(p4.sub_model(&m, 2).name.ends_with("@shard2"));
    }

    #[test]
    fn placement_covers_all_features_once() {
        let m = ModelPreset::A.scaled(0.02);
        let p = Placement::balance(&m, 4);
        assert_eq!(p.device_of.len(), m.features.len());
        let total: usize = (0..4).map(|d| p.features_on(d).len()).sum();
        assert_eq!(total, m.features.len());
    }

    #[test]
    fn lpt_balances_traffic() {
        let m = ModelPreset::C.scaled(0.05);
        let p = Placement::balance(&m, 4);
        let weights: Vec<f64> = m
            .features
            .iter()
            .map(|f| f.expected_lookups_per_sample() * f.row_bytes() as f64)
            .collect();
        assert!(
            p.imbalance(&weights) < 1.3,
            "LPT imbalance {}",
            p.imbalance(&weights)
        );
        // A single device is trivially balanced.
        assert_eq!(Placement::balance(&m, 1).imbalance(&weights), 1.0);
    }

    #[test]
    fn project_batch_keeps_sample_axis() {
        let m = ModelPreset::A.scaled(0.01);
        let p = Placement::balance(&m, 3);
        let b = Batch::generate(&m, 16, 7);
        for d in 0..3 {
            let sub = p.project_batch(&b, d);
            assert_eq!(sub.batch_size, 16);
            assert_eq!(sub.features.len(), p.features_on(d).len());
        }
    }

    proptest! {
        /// Every policy yields an exhaustive, disjoint partition: each
        /// feature appears on exactly one device and device ids are in
        /// range, for arbitrary feature/device counts.
        #[test]
        fn partitions_are_exhaustive_and_disjoint(
            num_features in 0usize..64,
            num_devices in 1usize..9,
            seed in 0u64..1000,
        ) {
            let costs: Vec<f64> = (0..num_features)
                .map(|f| ((seed.wrapping_mul(0x9E37_79B9).wrapping_add(f as u64)) % 997) as f64)
                .collect();
            for p in [
                Placement::balance_by_cost(num_devices, &costs),
                {
                    // round_robin needs a model; synthesize device_of directly.
                    Placement {
                        device_of: (0..num_features).map(|f| f % num_devices).collect(),
                        num_devices,
                    }
                },
            ] {
                prop_assert_eq!(p.device_of.len(), num_features);
                prop_assert!(p.device_of.iter().all(|&d| d < num_devices));
                // Exhaustive + disjoint: the per-device feature lists tile
                // 0..num_features exactly once, in order.
                let mut seen = vec![0u32; num_features];
                for d in 0..num_devices {
                    for f in p.features_on(d) {
                        seen[f] += 1;
                    }
                }
                prop_assert!(seen.iter().all(|&c| c == 1));
            }
        }

        /// LPT never does worse than the trivial bound: max load <= total.
        #[test]
        fn lpt_imbalance_is_bounded(
            num_features in 1usize..40,
            num_devices in 1usize..6,
            seed in 0u64..1000,
        ) {
            let costs: Vec<f64> = (0..num_features)
                .map(|f| ((seed.wrapping_mul(0x517C_C1B7).wrapping_add(f as u64 * 31)) % 1000) as f64)
                .collect();
            let p = Placement::balance_by_cost(num_devices, &costs);
            let imb = p.imbalance(&costs);
            prop_assert!(imb >= 1.0 - 1e-9);
            prop_assert!(imb <= num_devices as f64 + 1e-9);
        }
    }

    #[test]
    fn cheapest_fit_sends_each_model_to_its_best_class() {
        // Two models, two classes, ample capacity: each gets its argmin.
        let costs = vec![vec![1.0, 5.0], vec![8.0, 2.0]];
        let a = FleetAssignment::cheapest_fit(&costs, &[1, 1], &[4, 4]);
        assert_eq!(a.class_of, vec![0, 1]);
        assert_eq!(a.devices_used(&[1, 1]), vec![1, 1]);
    }

    #[test]
    fn cheapest_fit_high_regret_model_claims_capacity_first() {
        // Class 0 has room for one device. Model 1 barely cares
        // (regret 0.1) while model 0 loses 10.0 off its best class — so
        // model 0 must get the contended slot even though model 1 has the
        // lower index.
        let costs = vec![vec![1.0, 11.0], vec![1.0, 1.1]];
        let a = FleetAssignment::cheapest_fit(&costs, &[1, 1], &[1, 4]);
        assert_eq!(a.class_of[0], 0);
        assert_eq!(a.class_of[1], 1);
    }

    #[test]
    fn cheapest_fit_overflows_to_cheapest_when_nothing_fits() {
        // Demand 3 exceeds every class's capacity: the model still lands
        // on its cheapest class rather than panicking.
        let costs = vec![vec![4.0, 2.0]];
        let a = FleetAssignment::cheapest_fit(&costs, &[3], &[1, 1]);
        assert_eq!(a.class_of, vec![1]);
    }

    #[test]
    fn rehome_picks_cheapest_admissible_class() {
        let costs = vec![4.0, 1.0, 2.0];
        // Cheapest class 1 is banned (say, it is the failing class);
        // class 2 is next-cheapest with room.
        assert_eq!(
            FleetAssignment::rehome(&costs, 2, &[3, 3, 3], &[false, true, false]),
            Some(2)
        );
        // With nothing banned the global argmin wins.
        assert_eq!(
            FleetAssignment::rehome(&costs, 2, &[3, 3, 3], &[false; 3]),
            Some(1)
        );
        // Cost ties break toward the lower class index.
        assert_eq!(
            FleetAssignment::rehome(&[1.0, 1.0], 1, &[2, 2], &[false, false]),
            Some(0)
        );
    }

    #[test]
    fn rehome_refuses_to_oversubscribe() {
        // Unlike cheapest_fit there is no overflow fallback: demand 2
        // against residuals [1, 0] must abort the migration.
        assert_eq!(
            FleetAssignment::rehome(&[1.0, 2.0], 2, &[1, 0], &[false, false]),
            None
        );
        // All classes banned likewise aborts.
        assert_eq!(
            FleetAssignment::rehome(&[1.0, 2.0], 1, &[4, 4], &[true, true]),
            None
        );
    }

    #[test]
    fn fleet_round_robin_stripes_and_respects_capacity() {
        // Four 1-device models over three classes with capacity [1,1,4]:
        // model 0 → 0, model 1 → 1, model 2 → 2, model 3 wants 0 (full)
        // and cycles forward to 1 (full) then 2.
        let a = FleetAssignment::round_robin(&[1, 1, 1, 1], &[1, 1, 4]);
        assert_eq!(a.class_of, vec![0, 1, 2, 2]);
        assert_eq!(a.models_on(2), vec![2, 3]);
    }

    #[test]
    fn homogeneous_puts_everything_on_one_class() {
        let a = FleetAssignment::homogeneous(5, 1, 3);
        assert!(a.class_of.iter().all(|&c| c == 1));
        assert_eq!(a.devices_used(&[1, 2, 1, 1, 2]), vec![0, 7, 0]);
    }

    proptest! {
        /// All three fleet strategies produce in-range classes, cover
        /// every model exactly once, and are deterministic.
        #[test]
        fn fleet_assignments_are_valid_and_deterministic(
            num_models in 1usize..10,
            num_classes in 1usize..5,
            seed in 0u64..500,
        ) {
            let costs: Vec<Vec<f64>> = (0..num_models)
                .map(|m| (0..num_classes)
                    .map(|c| ((seed
                        .wrapping_mul(0x9E37_79B9)
                        .wrapping_add((m * 7 + c * 13) as u64)) % 997 + 1) as f64)
                    .collect())
                .collect();
            let demand = vec![1usize; num_models];
            let capacity = vec![num_models; num_classes];
            for a in [
                FleetAssignment::cheapest_fit(&costs, &demand, &capacity),
                FleetAssignment::round_robin(&demand, &capacity),
                FleetAssignment::homogeneous(num_models, 0, num_classes),
            ] {
                prop_assert_eq!(a.class_of.len(), num_models);
                prop_assert!(a.class_of.iter().all(|&c| c < num_classes));
                let mut seen = vec![0u32; num_models];
                for c in 0..num_classes {
                    for m in a.models_on(c) {
                        seen[m] += 1;
                    }
                }
                prop_assert!(seen.iter().all(|&n| n == 1));
                prop_assert_eq!(
                    a.devices_used(&demand).iter().sum::<usize>(),
                    num_models
                );
            }
            let a1 = FleetAssignment::cheapest_fit(&costs, &demand, &capacity);
            let a2 = FleetAssignment::cheapest_fit(&costs, &demand, &capacity);
            prop_assert_eq!(a1, a2);
        }
    }
}
