//! Figure 9: embedding-kernel performance of RecFlex vs TensorFlow, RECom,
//! HugeCTR and TorchRec on V100 and A100.
//!
//! Prints one normalized-performance table per (architecture, model) — the
//! bars of Figures 9(a)/9(b) — and the pooled average speedups the paper
//! headline cites (35.40×/11.31×/20.77×/2.64×).
//!
//! `--json <path>` writes every table plus the pooled speedups as a JSON
//! report for CI artifact upload. `--check` arms two gates:
//!
//! * perf: the fused RecFlex kernel must be at least as fast as the
//!   *slowest* baseline on every (architecture, model) cell — a
//!   deliberately loose floor that still catches a regression that wrecks
//!   the fused schedule, while staying meaningful at CI smoke scale;
//! * correctness: on every cell, each supported backend's pooled output
//!   on the first eval batch is bit-identical to the scalar reference.
//!   Latencies come from the timing-only `Backend::cost`, so this is where
//!   the functional path is exercised.
//!
//! A backend error (as opposed to an unsupported model) exits non-zero.

use std::process::ExitCode;

use recflex_baselines::{Backend, BackendError};
use recflex_bench::{
    both_archs, geomean, print_average_speedups, print_normalized, CliOpts, Fixture, Row, Scale,
};
use recflex_data::ModelPreset;
use serde::Serialize;
use std::collections::BTreeMap;

#[derive(Serialize)]
struct KernelCell {
    arch: String,
    model: String,
    batch_size: u32,
    /// `(system, total latency over the eval set in µs)` rows,
    /// RecFlex first.
    rows: Vec<(String, f64)>,
}

#[derive(Serialize)]
struct KernelReport {
    cells: Vec<KernelCell>,
    /// Geometric-mean speedup of RecFlex over each baseline, pooled
    /// across every cell the baseline supports.
    average_speedups: Vec<(String, f64)>,
}

fn main() -> Result<ExitCode, BackendError> {
    let opts = CliOpts::from_args();
    let scale = Scale::from_env();
    let mut pools: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut cells = Vec::new();
    let mut outputs_exact = true;

    for arch in both_archs() {
        println!("\n#### {} ####", arch.name);
        for preset in ModelPreset::TABLE1 {
            let fixture = Fixture::prepare(preset, &arch, &scale);
            let engine = fixture.tune_recflex(&scale);
            let baselines = fixture.baselines();

            let mut rows = Vec::new();
            let ours = fixture
                .total_latency(&engine)?
                .expect("RecFlex always supports the model");
            rows.push(Row {
                name: "RecFlex".into(),
                latency_us: ours,
            });
            for b in &baselines {
                if let Some(lat) = fixture.total_latency(b.as_ref())? {
                    pools
                        .entry(b.name().to_string())
                        .or_default()
                        .push(lat / ours);
                    rows.push(Row {
                        name: b.name().to_string(),
                        latency_us: lat,
                    });
                }
            }
            print_normalized(
                &format!(
                    "Fig.9 {} / model {} (batch {})",
                    arch.name,
                    preset.name(),
                    scale.batch_size
                ),
                &rows,
            );
            cells.push(KernelCell {
                arch: arch.name.to_string(),
                model: preset.name().to_string(),
                batch_size: scale.batch_size,
                rows: rows.into_iter().map(|r| (r.name, r.latency_us)).collect(),
            });
            if opts.check {
                let systems = std::iter::once(&engine as &dyn Backend)
                    .chain(baselines.iter().map(|b| b.as_ref()))
                    .filter(|b| b.supports(&fixture.model));
                for b in systems {
                    if !fixture.output_is_bit_exact(b)? {
                        eprintln!(
                            "check FAILED: {} output differs from the reference on {} / model {}",
                            b.name(),
                            arch.name,
                            preset.name()
                        );
                        outputs_exact = false;
                    }
                }
            }
        }
    }

    let pooled: Vec<(String, Vec<f64>)> = pools.into_iter().collect();
    print_average_speedups("RecFlex (kernel)", &pooled);
    println!("\nPaper reference: 35.40x over TensorFlow, 11.31x over RECom,");
    println!("20.77x over HugeCTR, 2.64x over TorchRec (two-platform averages).");

    let report = KernelReport {
        cells,
        average_speedups: pooled
            .iter()
            .map(|(name, ratios)| (name.clone(), geomean(ratios)))
            .collect(),
    };
    opts.write_json(&report);

    if opts.check {
        let perf_ok = perf_gate_holds(&report);
        if outputs_exact {
            println!(
                "check passed: every supported backend's output bit-exact on \
                 all {} cells",
                report.cells.len()
            );
        }
        if !(perf_ok && outputs_exact) {
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// The CI perf gate: in every cell, the fused kernel must not be slower
/// than the slowest baseline that supports the model.
fn perf_gate_holds(report: &KernelReport) -> bool {
    let mut ok = true;
    for cell in &report.cells {
        let ours = cell.rows[0].1;
        let slowest = cell
            .rows
            .iter()
            .skip(1)
            .map(|(_, lat)| *lat)
            .fold(0.0f64, f64::max);
        if ours > slowest {
            eprintln!(
                "check FAILED: RecFlex {ours:.1} us slower than every baseline \
                 (slowest {slowest:.1} us) on {} / model {}",
                cell.arch, cell.model
            );
            ok = false;
        }
    }
    if ok {
        println!(
            "check passed: fused kernel at or below the slowest baseline on \
             all {} cells",
            report.cells.len()
        );
    }
    ok
}
