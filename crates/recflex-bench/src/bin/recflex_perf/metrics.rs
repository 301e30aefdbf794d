//! The metric dictionary and how each metric is computed from passes.
//!
//! BENCHMARK.json at the repository root states the same end-to-end and
//! per-layer definitions; README.md in this directory explains them.

use crate::stats::{median, nearest_rank};
use crate::workloads::Pass;

/// One end-to-end metric. Lower is better for every one of them.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Simulated metrics repeat exactly for a seed; `compare` requires
    /// equality for them.
    pub exact: bool,
}

const fn def(name: &'static str, unit: &'static str, bound: f64, exact: bool) -> Def {
    Def {
        name,
        unit,
        bound,
        exact,
    }
}

/// End-to-end metrics, reported by every workload. Host times are medians
/// of wall-clock seconds over the run's passes, stated at the reference
/// host speed (see `speed`). Their bounds are the largest allowed: even
/// scaled to the reference speed, ten runs of a workload spread by up to
/// 14 % on the shared virtual machine the benchmark was built on.
pub const END_TO_END: [Def; 6] = [
    def("setup_s", "s", 0.25, false),
    def("main_s", "s", 0.25, false),
    def("peak_rss_mb", "MB", 0.10, false),
    def("sim_p50_us", "us", 0.25, true),
    def("sim_p95_us", "us", 0.25, true),
    def("sim_mean_us", "us", 0.25, true),
];

/// Per-layer metrics `(name, unit)`, from the traced pass. A metric of a
/// layer the workload does not use reads 0.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("host.speed", "ratio"),
    ("host.raw_setup_s", "s"),
    ("host.raw_main_s", "s"),
    ("host.parallelism", "ratio"),
    ("host.ops_per_s", "op/s"),
    ("host.tune_s", "s"),
    ("serve.cpu_s", "s"),
    ("serve.self_s", "s"),
    ("serve.self_us_per_req", "us"),
    ("serve.sim_queue_us_mean", "us"),
    ("serve.sim_device_us_p50", "us"),
    ("serve.sim_gather_us_mean", "us"),
    ("serve.sim_utilization", "frac"),
    ("serve.chunks_per_req", "count"),
    ("serve.shed_rate", "frac"),
    ("serve.slo_attainment", "frac"),
    ("serve.availability", "frac"),
    ("serve.pipeline.amplification", "ratio"),
    ("serve.pipeline.useful_frac", "frac"),
    ("serve.pipeline.retries", "count"),
    ("serve.pipeline.retries_denied", "count"),
    ("serve.pipeline.fallbacks", "count"),
    ("serve.pipeline.breaker_trips", "count"),
    ("core.backend_calls", "count"),
    ("core.samples_per_call", "count"),
    ("core.backend_run_s", "s"),
    ("core.backend_run_us_p50", "us"),
    ("core.backend_run_us_p99", "us"),
    ("compiler.execute_s", "s"),
    ("compiler.execute_share", "frac"),
    ("compiler.execute_mlookups_per_s", "Mlookup/s"),
    ("compiler.task_map_s", "s"),
    ("embedding.analyze_s", "s"),
    ("embedding.analyze_us_per_call", "us"),
    ("embedding.tables_s", "s"),
    ("sim.launch_s", "s"),
    ("sim.launch_us_per_call", "us"),
    ("tuner.context_s", "s"),
    ("tuner.local_s", "s"),
    ("tuner.global_s", "s"),
    ("tuner.evaluations", "count"),
    ("tuner.evals_per_s", "1/s"),
    ("data.stream_gen_s", "s"),
    ("trace.coverage_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// The unit of any metric in either list.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|d| d.name == name)
        .map(|d| d.unit)
        .or_else(|| PER_LAYER.iter().find(|(n, _)| *n == name).map(|(_, u)| *u))
        .unwrap_or("")
}

/// Median over `passes` of a host time, each pass's scaled by its host
/// speed in `speeds` to the reference speed.
fn at_reference(passes: &[Pass], speeds: &[f64], f: impl Fn(&Pass) -> f64) -> f64 {
    let scaled: Vec<f64> = passes.iter().zip(speeds).map(|(p, s)| f(p) * s).collect();
    median(&scaled)
}

/// End-to-end values, in [`END_TO_END`] order, from untraced passes and
/// the host speed of each (`speed::per_pass`).
pub fn end_to_end(passes: &[Pass], speeds: &[f64], peak_rss_mb: f64) -> Vec<(&'static str, f64)> {
    let sim = &passes[0].sim;
    vec![
        ("setup_s", at_reference(passes, speeds, |p| p.setup_s)),
        ("main_s", at_reference(passes, speeds, |p| p.main_s)),
        ("peak_rss_mb", peak_rss_mb),
        ("sim_p50_us", sim.p50_us),
        ("sim_p95_us", sim.p95_us),
        ("sim_mean_us", sim.mean_us),
    ]
}

/// Per-layer values, in [`PER_LAYER`] order, from the traced pass and the
/// untraced passes it is compared with, whose host speeds are `speeds`;
/// `host_speed` is the run's. Only `host.ops_per_s` is stated at reference
/// speed; every other time is as measured.
pub fn per_layer(
    traced: &Pass,
    untraced: &[Pass],
    speeds: &[f64],
    host_speed: f64,
    serves: bool,
) -> Vec<(&'static str, f64)> {
    let t = traced
        .traced
        .as_ref()
        .expect("a traced pass carries its calls");
    let r = &t.replay;
    let s = &traced.sim;
    let tot = &traced.totals;
    let mut durs: Vec<f64> = t.calls.iter().map(|c| c.cpu_us).collect();
    durs.sort_by(f64::total_cmp);
    let calls = t.calls.len() as f64;
    let per_call = |secs: f64| if calls > 0.0 { secs * 1e6 / calls } else { 0.0 };
    let backend_s = durs.iter().sum::<f64>() / 1e6;
    let copy_s = t.calls.iter().map(|c| c.copy_us).sum::<f64>() / 1e6;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let (serve_s, self_s) = if serves {
        (traced.main_cpu_s, traced.main_cpu_s - backend_s - copy_s)
    } else {
        (0.0, 0.0)
    };
    let host_median =
        |f: &dyn Fn(&Pass) -> f64| median(&untraced.iter().map(f).collect::<Vec<_>>());
    let pc = s.pipeline.clone().unwrap_or_default();
    let tier = s.tier.clone().unwrap_or_default();
    // A chunk fans out to every shard, so shard 0 sees each chunk once.
    let chunks = if serves {
        t.calls.iter().filter(|c| c.shard == 0).count() as f64
    } else {
        0.0
    };
    let tuner_s = tot.tuner_context_s + tot.tuner_local_s + tot.tuner_global_s;
    let samples: u64 = t.calls.iter().map(|c| u64::from(c.chunk.batch_size)).sum();
    let sublayers = r.analyze_s + r.task_map_s + r.launch_s + r.execute_s;
    vec![
        ("host.speed", host_speed),
        ("host.raw_setup_s", host_median(&|p| p.setup_s)),
        ("host.raw_main_s", host_median(&|p| p.main_s)),
        (
            "host.parallelism",
            host_median(&|p| p.main_cpu_s / p.main_s),
        ),
        (
            "host.ops_per_s",
            at_reference(untraced, speeds, |p| p.main_s / p.ops as f64).recip(),
        ),
        ("host.tune_s", host_median(&|p| p.totals.tune_s)),
        ("serve.cpu_s", serve_s),
        ("serve.self_s", self_s),
        (
            "serve.self_us_per_req",
            ratio(self_s * 1e6, traced.ops as f64),
        ),
        ("serve.sim_queue_us_mean", tier.queue_us_mean),
        ("serve.sim_device_us_p50", tier.device_us_p50),
        ("serve.sim_gather_us_mean", tier.gather_us_mean),
        ("serve.sim_utilization", tier.utilization),
        ("serve.chunks_per_req", ratio(chunks, traced.ops as f64)),
        ("serve.shed_rate", s.shed_rate),
        ("serve.slo_attainment", s.slo_attainment),
        ("serve.availability", s.availability),
        ("serve.pipeline.amplification", pc.amplification),
        ("serve.pipeline.useful_frac", pc.useful_frac),
        ("serve.pipeline.retries", pc.retries as f64),
        ("serve.pipeline.retries_denied", pc.retries_denied as f64),
        ("serve.pipeline.fallbacks", pc.fallbacks as f64),
        ("serve.pipeline.breaker_trips", pc.breaker_trips as f64),
        ("core.backend_calls", calls),
        ("core.samples_per_call", ratio(samples as f64, calls)),
        ("core.backend_run_s", backend_s),
        ("core.backend_run_us_p50", nearest_rank(&durs, 0.5)),
        ("core.backend_run_us_p99", nearest_rank(&durs, 0.99)),
        ("compiler.execute_s", r.execute_s),
        ("compiler.execute_share", ratio(r.execute_s, backend_s)),
        (
            "compiler.execute_mlookups_per_s",
            ratio(r.lookups as f64 / 1e6, r.execute_s),
        ),
        ("compiler.task_map_s", r.task_map_s),
        ("embedding.analyze_s", r.analyze_s),
        ("embedding.analyze_us_per_call", per_call(r.analyze_s)),
        ("embedding.tables_s", tot.tables_s),
        ("sim.launch_s", r.launch_s),
        ("sim.launch_us_per_call", per_call(r.launch_s)),
        ("tuner.context_s", tot.tuner_context_s),
        ("tuner.local_s", tot.tuner_local_s),
        ("tuner.global_s", tot.tuner_global_s),
        ("tuner.evaluations", tot.tuner_evaluations as f64),
        (
            "tuner.evals_per_s",
            ratio(tot.tuner_evaluations as f64, tuner_s),
        ),
        ("data.stream_gen_s", tot.stream_gen_s),
        ("trace.coverage_frac", ratio(sublayers, backend_s)),
        (
            "trace.overhead_frac",
            ratio(traced.main_cpu_s, host_median(&|p| p.main_cpu_s)) - 1.0,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;

    #[test]
    fn every_name_and_unit_is_valid_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|d| d.name)
            .chain(PER_LAYER.iter().map(|(n, _)| *n))
            .collect();
        for (i, n) in names.iter().enumerate() {
            assert!(valid_name(n), "{n}");
            assert!(!names[..i].contains(n), "{n} twice");
            let unit = unit_of(n);
            assert!(
                (1..=16).contains(&unit.len())
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{n}: unit `{unit}`"
            );
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn the_benchmark_definition_matches_this_dictionary() {
        use crate::workloads::Workload;
        use serde_json::Value;

        let json: Value = serde_json::from_str(include_str!("../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let list = |key: &str| match json.field(key) {
            Ok(Value::Arr(items)) => items.clone(),
            _ => panic!("BENCHMARK.json has no `{key}` list"),
        };
        let text = |v: &Value, key: &str| match v.field(key) {
            Ok(Value::Str(s)) => s.clone(),
            _ => panic!("an entry has no `{key}` string"),
        };
        let names: Vec<String> = list("workloads").iter().map(|v| text(v, "name")).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (v, d) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(
                (text(v, "name"), text(v, "unit"), text(v, "better")),
                (d.name.to_string(), d.unit.to_string(), "lower".to_string())
            );
            assert!(matches!(v.field("bound"), Ok(Value::Float(b)) if *b == d.bound));
        }
        let layers: Vec<(String, String)> = list("per_layer")
            .iter()
            .map(|v| (text(v, "name"), text(v, "unit")))
            .collect();
        let ours: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(layers, ours);
    }
}
