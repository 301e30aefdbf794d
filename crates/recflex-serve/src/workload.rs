//! Fleet-scale workload composition.
//!
//! A fleet serves several model scenarios at once, each with its own
//! traffic shape: production recommendation traffic follows a diurnal
//! curve (DeepRecSys observes ~2× peak-to-trough swings over a day) and
//! is punctuated by flash crowds. This module composes per-scenario
//! request streams — each a time-shaped variant of the Poisson process in
//! [`WorkloadSpec`] — into one merged,
//! deterministic arrival trace for the fleet event loop.
//!
//! Determinism contract: every scenario stream is a pure function of
//! `(fleet seed, scenario index, spec)`, and the merge orders events by
//! `(arrival_us, scenario index, request id)` — the fleet tie-break
//! documented in DESIGN.md §8g. A scenario with a flat
//! [`TrafficShape`] reproduces `WorkloadSpec::stream` byte for byte
//! (the shaping divides each gap by a multiplier of exactly 1.0, an IEEE
//! identity), so the degenerate one-scenario fleet inherits the serving
//! stack's bit-identity guarantees.

use recflex_data::ModelConfig;

use crate::request::{Request, WorkloadSpec};

/// A seeded diurnal traffic curve: a sinusoid with mean multiplier 1, so
/// shaping changes *when* requests land, not how many there are.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalCurve {
    /// Length of one traffic "day" in simulated µs.
    pub period_us: f64,
    /// Peak rate divided by trough rate (> 1; DeepRecSys-style diurnal
    /// swing is ~2).
    pub peak_to_trough: f64,
    /// Phase offset in periods (`0.25` starts the scenario at peak) —
    /// staggering phases across scenarios models fleets spanning time
    /// zones.
    pub phase: f64,
}

impl DiurnalCurve {
    /// Instantaneous rate multiplier at time `t`. With peak/trough ratio
    /// `r` the curve is `1 + a·sin(2π(t/T + φ))` with `a = (r−1)/(r+1)`,
    /// which has mean 1 and max/min exactly `r`.
    pub fn multiplier(&self, t_us: f64) -> f64 {
        let a = (self.peak_to_trough - 1.0) / (self.peak_to_trough + 1.0);
        1.0 + a * (std::f64::consts::TAU * (t_us / self.period_us + self.phase)).sin()
    }
}

/// A flash crowd: the arrival rate jumps by `multiplier` over a window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowd {
    /// Window start, µs.
    pub start_us: f64,
    /// Window length, µs.
    pub duration_us: f64,
    /// Rate multiplier inside the window (> 1 for a crowd; < 1 models a
    /// partial upstream outage).
    pub multiplier: f64,
}

impl FlashCrowd {
    /// Instantaneous rate multiplier at time `t`.
    pub fn multiplier(&self, t_us: f64) -> f64 {
        if self.start_us <= t_us && t_us < self.start_us + self.duration_us {
            self.multiplier
        } else {
            1.0
        }
    }
}

/// The composed time-shaping of one scenario's arrival process: the
/// product of an optional diurnal curve and any number of flash crowds,
/// clamped to a small positive floor so a pathological composition can
/// never stall the stream.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrafficShape {
    /// The diurnal baseline, if any.
    pub diurnal: Option<DiurnalCurve>,
    /// Flash-crowd windows layered on top.
    pub flash_crowds: Vec<FlashCrowd>,
}

impl TrafficShape {
    /// A flat shape: multiplier 1.0 everywhere. Streams shaped by it are
    /// byte-identical to unshaped [`WorkloadSpec::stream`] output.
    pub fn flat() -> Self {
        TrafficShape::default()
    }

    /// The composed rate multiplier at time `t`.
    pub fn multiplier(&self, t_us: f64) -> f64 {
        let mut m = self.diurnal.map_or(1.0, |d| d.multiplier(t_us));
        for fc in &self.flash_crowds {
            m *= fc.multiplier(t_us);
        }
        m.max(1e-3)
    }
}

/// One model scenario in the fleet: its traffic statistics, its time
/// shape, and how many requests it contributes to the run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (usually the model name), for reports.
    pub name: String,
    /// Per-request statistics: mean gap, size distribution, size unit.
    pub workload: WorkloadSpec,
    /// Time-of-day shaping applied to the arrival rate.
    pub shape: TrafficShape,
    /// Requests this scenario contributes.
    pub requests: usize,
}

/// One arrival in the merged fleet trace.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetArrival {
    /// Index of the scenario (model) this request belongs to.
    pub scenario: usize,
    /// The request itself (ids are scenario-local).
    pub request: Request,
}

/// The fleet's composed workload: several scenarios, one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetWorkload {
    /// The scenarios, in fleet order (index = scenario id everywhere).
    pub scenarios: Vec<ScenarioSpec>,
    /// Root seed; per-scenario seeds derive from it.
    pub seed: u64,
}

impl FleetWorkload {
    /// The seed scenario `idx` streams from. Scenario 0 keeps the root
    /// seed itself, so a one-scenario fleet is byte-identical to calling
    /// [`WorkloadSpec::stream`] with the fleet seed — the degenerate
    /// identity the tests gate on.
    pub fn scenario_seed(&self, idx: usize) -> u64 {
        self.seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Synthesize scenario `idx`'s stream against `model`:
    /// [`WorkloadSpec::stream`] from [`Self::scenario_seed`], with each
    /// exponential gap divided by the shape's rate multiplier at the
    /// current time. A flat shape divides by exactly 1.0, leaving every
    /// bit unchanged.
    pub fn scenario_stream(&self, idx: usize, model: &ModelConfig) -> Vec<Request> {
        let sc = &self.scenarios[idx];
        sc.workload
            .shaped_stream(model, sc.requests, self.scenario_seed(idx), |t| {
                sc.shape.multiplier(t)
            })
    }

    /// Compose every scenario's stream into one merged arrival trace.
    /// `models[idx]` is the model scenario `idx` generates batches for.
    /// The merge is a stable sort by `(arrival_us, scenario, id)` — the
    /// fleet event tie-break — so the trace is a pure function of
    /// `(self, models)`.
    pub fn merged(&self, models: &[&ModelConfig]) -> Vec<FleetArrival> {
        assert_eq!(models.len(), self.scenarios.len());
        let mut all: Vec<FleetArrival> = Vec::new();
        for (idx, model) in models.iter().enumerate() {
            all.extend(
                self.scenario_stream(idx, model)
                    .into_iter()
                    .map(|request| FleetArrival {
                        scenario: idx,
                        request,
                    }),
            );
        }
        all.sort_by(|a, b| {
            a.request
                .arrival_us
                .total_cmp(&b.request.arrival_us)
                .then(a.scenario.cmp(&b.scenario))
                .then(a.request.id.cmp(&b.request.id))
        });
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use recflex_data::ModelPreset;

    fn scenario(name: &str, gap: f64, shape: TrafficShape, n: usize) -> ScenarioSpec {
        ScenarioSpec {
            name: name.to_string(),
            workload: WorkloadSpec::long_tail(gap),
            shape,
            requests: n,
        }
    }

    fn spicy_shape(period: f64) -> TrafficShape {
        TrafficShape {
            diurnal: Some(DiurnalCurve {
                period_us: period,
                peak_to_trough: 2.0,
                phase: 0.25,
            }),
            flash_crowds: vec![FlashCrowd {
                start_us: period * 0.4,
                duration_us: period * 0.1,
                multiplier: 3.0,
            }],
        }
    }

    #[test]
    fn diurnal_curve_has_unit_mean_and_exact_ratio() {
        let d = DiurnalCurve {
            period_us: 10_000.0,
            peak_to_trough: 2.0,
            phase: 0.0,
        };
        let samples: Vec<f64> = (0..10_000).map(|i| d.multiplier(i as f64 * 1.0)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 1.0).abs() < 1e-3, "mean multiplier {mean}");
        let max = samples.iter().copied().fold(f64::MIN, f64::max);
        let min = samples.iter().copied().fold(f64::MAX, f64::min);
        assert!((max / min - 2.0).abs() < 1e-2, "ratio {}", max / min);
    }

    #[test]
    fn flat_shape_reproduces_workload_spec_stream_byte_for_byte() {
        let m = ModelPreset::A.scaled(0.01);
        let fleet = FleetWorkload {
            scenarios: vec![scenario("a", 300.0, TrafficShape::flat(), 40)],
            seed: 42,
        };
        let shaped = fleet.scenario_stream(0, &m);
        let plain = WorkloadSpec::long_tail(300.0).stream(&m, 40, 42);
        assert_eq!(shaped, plain, "flat shaping must be the identity");
    }

    #[test]
    fn flash_crowd_compresses_gaps_inside_its_window() {
        let m = ModelPreset::A.scaled(0.01);
        let crowd = FlashCrowd {
            start_us: 0.0,
            duration_us: 1e12,
            multiplier: 4.0,
        };
        let flat = FleetWorkload {
            scenarios: vec![scenario("a", 300.0, TrafficShape::flat(), 60)],
            seed: 9,
        };
        let crowded = FleetWorkload {
            scenarios: vec![scenario(
                "a",
                300.0,
                TrafficShape {
                    diurnal: None,
                    flash_crowds: vec![crowd],
                },
                60,
            )],
            seed: 9,
        };
        let a = flat.scenario_stream(0, &m);
        let b = crowded.scenario_stream(0, &m);
        // Same draws, 4× the rate: every arrival lands at exactly a
        // quarter of the flat timestamp.
        for (x, y) in a.iter().zip(&b) {
            assert!((y.arrival_us - x.arrival_us / 4.0).abs() < 1e-9);
            assert_eq!(x.batch, y.batch, "shaping must not touch payloads");
        }
    }

    #[test]
    fn merged_trace_is_sorted_by_the_fleet_tie_break() {
        let (ma, mb) = (ModelPreset::A.scaled(0.01), ModelPreset::B.scaled(0.01));
        let fleet = FleetWorkload {
            scenarios: vec![
                scenario("a", 200.0, spicy_shape(8_000.0), 30),
                scenario("b", 350.0, TrafficShape::flat(), 20),
            ],
            seed: 7,
        };
        let merged = fleet.merged(&[&ma, &mb]);
        assert_eq!(merged.len(), 50);
        for w in merged.windows(2) {
            let (x, y) = (&w[0], &w[1]);
            let key = |e: &FleetArrival| (e.request.arrival_us, e.scenario, e.request.id);
            assert!(
                key(x).0 < key(y).0
                    || (key(x).0 == key(y).0 && (key(x).1, key(x).2) <= (key(y).1, key(y).2)),
                "merge order violated"
            );
        }
    }

    proptest! {
        /// Same seed + spec ⇒ identical merged arrival trace; a
        /// different seed changes it.
        #[test]
        fn merged_traces_are_deterministic(seed in 0u64..1000) {
            let (ma, mb) = (ModelPreset::A.scaled(0.01), ModelPreset::C.scaled(0.01));
            let mk = |seed| FleetWorkload {
                scenarios: vec![
                    scenario("a", 250.0, spicy_shape(6_000.0), 16),
                    scenario("c", 400.0, TrafficShape::flat(), 12),
                ],
                seed,
            };
            let a = mk(seed).merged(&[&ma, &mb]);
            let b = mk(seed).merged(&[&ma, &mb]);
            prop_assert_eq!(&a, &b);
            let c = mk(seed ^ 0xDEAD_BEEF).merged(&[&ma, &mb]);
            prop_assert!(a != c, "different seeds must change the trace");
        }

        /// Diurnal/flash-crowd composition moves arrivals in time but
        /// never creates or destroys them: filtering the merged trace by
        /// scenario recovers each scenario's own stream exactly.
        #[test]
        fn composition_preserves_per_scenario_arrival_counts(
            seed in 0u64..1000,
            n_a in 1usize..24,
            n_b in 1usize..24,
        ) {
            let (ma, mb) = (ModelPreset::A.scaled(0.01), ModelPreset::D.scaled(0.01));
            let fleet = FleetWorkload {
                scenarios: vec![
                    scenario("a", 300.0, spicy_shape(5_000.0), n_a),
                    scenario("d", 200.0, spicy_shape(9_000.0), n_b),
                ],
                seed,
            };
            let merged = fleet.merged(&[&ma, &mb]);
            prop_assert_eq!(merged.len(), n_a + n_b);
            for (idx, model, n) in [(0usize, &ma, n_a), (1, &mb, n_b)] {
                let got: Vec<Request> = merged
                    .iter()
                    .filter(|e| e.scenario == idx)
                    .map(|e| e.request.clone())
                    .collect();
                prop_assert_eq!(&got, &fleet.scenario_stream(idx, model));
                prop_assert_eq!(got.len(), n);
            }
        }
    }
}
