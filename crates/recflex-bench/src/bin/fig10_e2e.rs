//! Figure 10: end-to-end model performance (embedding + MLP 1024/256/128)
//! of RecFlex vs the baselines on V100 and A100.
//!
//! End-to-end speedups are smaller than the kernel speedups of Figure 9
//! because the DNN stage is identical across systems — the paper's
//! dilution effect (7.74×/2.69×/6.76×/1.85×).

use recflex_baselines::{Backend, BackendError};
use recflex_bench::{both_archs, print_average_speedups, print_normalized, Fixture, Row, Scale};
use recflex_core::EndToEndModel;
use recflex_data::ModelPreset;
use std::collections::BTreeMap;

fn main() -> Result<(), BackendError> {
    let scale = Scale::from_env();
    let mut pools: BTreeMap<String, Vec<f64>> = BTreeMap::new();

    for arch in both_archs() {
        println!("\n#### {} ####", arch.name);
        for preset in ModelPreset::TABLE1 {
            let fixture = Fixture::prepare(preset, &arch, &scale);
            let engine = fixture.tune_recflex(&scale);

            // `None` only for an unsupported model; a launch failure exits.
            let e2e_total = |backend: &dyn Backend| -> Result<Option<f64>, BackendError> {
                if !backend.supports(&fixture.model) {
                    return Ok(None);
                }
                let m = EndToEndModel::paper_config(backend, &fixture.model, &fixture.tables);
                let mut total = 0.0;
                for b in fixture.eval.batches() {
                    total += m.latency(b, &arch)?.total_us();
                }
                Ok(Some(total))
            };

            let ours = e2e_total(&engine)?.expect("RecFlex supports everything");
            let mut rows = vec![Row {
                name: "RecFlex".into(),
                latency_us: ours,
            }];
            for b in fixture.baselines() {
                if let Some(lat) = e2e_total(b.as_ref())? {
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
                &format!("Fig.10 {} / model {} end-to-end", arch.name, preset.name()),
                &rows,
            );
        }
    }

    let pooled: Vec<(String, Vec<f64>)> = pools.into_iter().collect();
    print_average_speedups("RecFlex (end-to-end)", &pooled);
    println!("\nPaper reference: 7.74x over TensorFlow, 2.69x over RECom,");
    println!("6.76x over HugeCTR, 1.85x over TorchRec (two-platform averages).");
    Ok(())
}
