//! Dataset and model-config (de)serialization.
//!
//! The paper's artifact ships a `data_synthesis` script whose outputs
//! (per-feature distribution configs + generated lookup indices) are read
//! by every experiment. This module is the equivalent: model configs and
//! datasets round-trip through JSON files, so experiments can be replayed
//! against identical inputs and configurations can be hand-edited.

use crate::batch::Batch;
use crate::dataset::Dataset;
use crate::feature::ModelConfig;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::Path;

/// Everything one experiment needs to replay: the model and its batches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetFile {
    /// Format version for forward compatibility.
    pub version: u32,
    /// The model configuration.
    pub model: ModelConfig,
    /// The generated batches.
    pub batches: Vec<Batch>,
}

/// Current file-format version.
pub const FORMAT_VERSION: u32 = 1;

/// Errors from dataset I/O.
#[derive(Debug)]
pub enum IoError {
    /// Filesystem failure.
    Io(io::Error),
    /// Malformed JSON or schema mismatch.
    Format(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io: {e}"),
            IoError::Format(m) => write!(f, "format: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Save a model + dataset to a JSON file.
pub fn save_dataset(path: &Path, model: &ModelConfig, dataset: &Dataset) -> Result<(), IoError> {
    let file = DatasetFile {
        version: FORMAT_VERSION,
        model: model.clone(),
        batches: dataset.batches().to_vec(),
    };
    let json = serde_json::to_string(&file).map_err(|e| IoError::Format(e.to_string()))?;
    fs::write(path, json)?;
    Ok(())
}

/// Load a model + dataset from a JSON file, validating the model
/// ([`load_model`]'s check) and every batch against it before returning.
pub fn load_dataset(path: &Path) -> Result<(ModelConfig, Dataset), IoError> {
    let json = fs::read_to_string(path)?;
    let file: DatasetFile =
        serde_json::from_str(&json).map_err(|e| IoError::Format(e.to_string()))?;
    if file.version != FORMAT_VERSION {
        return Err(IoError::Format(format!(
            "unsupported version {}",
            file.version
        )));
    }
    check_tables(&file.model)?;
    for (i, b) in file.batches.iter().enumerate() {
        b.validate(&file.model)
            .map_err(|e| IoError::Format(format!("batch {i}: {e}")))?;
    }
    Ok((file.model, Dataset::from_batches(file.batches)))
}

/// Save just a model configuration (the hand-editable experiment input).
pub fn save_model(path: &Path, model: &ModelConfig) -> Result<(), IoError> {
    let json = serde_json::to_string_pretty(model).map_err(|e| IoError::Format(e.to_string()))?;
    fs::write(path, json)?;
    Ok(())
}

/// Load a model configuration, rejecting a feature whose table has no
/// rows: nothing could be looked up in it, and generating its batches
/// would panic.
pub fn load_model(path: &Path) -> Result<ModelConfig, IoError> {
    let json = fs::read_to_string(path)?;
    let model = serde_json::from_str(&json).map_err(|e| IoError::Format(e.to_string()))?;
    check_tables(&model)?;
    Ok(model)
}

/// [`IoError::Format`] naming the first feature with `table_rows == 0`.
fn check_tables(model: &ModelConfig) -> Result<(), IoError> {
    for (i, f) in model.features.iter().enumerate() {
        if f.table_rows == 0 {
            return Err(IoError::Format(format!(
                "feature {i} (`{}`): table has 0 rows",
                f.name
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::FeatureBatch;
    use crate::models::ModelPreset;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("recflex_io_{name}_{}", std::process::id()))
    }

    /// Structural equality with float tolerance (JSON text round-trips
    /// floats to the last ulp or two, which is irrelevant semantically).
    fn assert_models_equivalent(a: &ModelConfig, b: &ModelConfig) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.features.len(), b.features.len());
        for (x, y) in a.features.iter().zip(&b.features) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.table_rows, y.table_rows);
            assert_eq!(x.emb_dim, y.emb_dim);
            assert!((x.coverage - y.coverage).abs() < 1e-9);
            assert!((x.row_skew - y.row_skew).abs() < 1e-9);
        }
    }

    #[test]
    fn dataset_roundtrip() {
        let m = ModelPreset::A.scaled(0.005);
        let ds = Dataset::synthesize(&m, 2, 24, 7);
        let path = tmp("roundtrip.json");
        save_dataset(&path, &m, &ds).unwrap();
        let (m2, ds2) = load_dataset(&path).unwrap();
        assert_models_equivalent(&m, &m2);
        // The CSR data is integral and must round-trip exactly.
        assert_eq!(ds, ds2);
        let _ = fs::remove_file(path);
    }

    #[test]
    fn model_roundtrip() {
        let m = ModelPreset::D.scaled(0.01);
        let path = tmp("model.json");
        save_model(&path, &m).unwrap();
        let m2 = load_model(&path).unwrap();
        assert_models_equivalent(&m, &m2);
        let _ = fs::remove_file(path);
    }

    #[test]
    fn load_rejects_corrupt_batches() {
        let m = ModelPreset::A.scaled(0.005);
        let ds = Dataset::synthesize(&m, 1, 8, 3);
        let mut file = DatasetFile {
            version: FORMAT_VERSION,
            model: m,
            batches: ds.batches().to_vec(),
        };
        file.batches[0].features[0].indices[0] = u32::MAX; // out of range
        let path = tmp("corrupt.json");
        fs::write(&path, serde_json::to_string(&file).unwrap()).unwrap();
        assert!(matches!(load_dataset(&path), Err(IoError::Format(_))));
        let _ = fs::remove_file(path);
    }

    #[test]
    fn load_rejects_wrong_version() {
        let m = ModelPreset::A.scaled(0.005);
        let file = DatasetFile {
            version: 99,
            model: m,
            batches: vec![],
        };
        let path = tmp("version.json");
        fs::write(&path, serde_json::to_string(&file).unwrap()).unwrap();
        assert!(matches!(load_dataset(&path), Err(IoError::Format(_))));
        let _ = fs::remove_file(path);
    }

    /// `model` with feature 1's table emptied.
    fn without_rows(mut model: ModelConfig) -> ModelConfig {
        model.features[1].table_rows = 0;
        model
    }

    fn assert_names_feature_1<T>(result: Result<T, IoError>) {
        match result {
            Err(IoError::Format(m)) => assert!(m.starts_with("feature 1 (`f"), "{m}"),
            Err(e) => panic!("expected a format error, got {e}"),
            Ok(_) => panic!("expected a format error, the file loaded"),
        }
    }

    #[test]
    fn load_model_rejects_a_table_without_rows() {
        let m = without_rows(ModelPreset::D.scaled(0.01));
        let path = tmp("zero_rows_model.json");
        fs::write(&path, serde_json::to_string(&m).unwrap()).unwrap();
        assert_names_feature_1(load_model(&path));
        let _ = fs::remove_file(path);
    }

    #[test]
    fn load_dataset_rejects_a_table_without_rows() {
        let m = ModelPreset::A.scaled(0.005);
        let ds = Dataset::synthesize(&m, 1, 8, 3);
        let mut file = DatasetFile {
            version: FORMAT_VERSION,
            model: without_rows(m),
            batches: ds.batches().to_vec(),
        };
        // Empty CSRs pass the batch checks: only the model is at fault.
        file.batches[0].features[1] = FeatureBatch::empty(8);
        file.batches[0].validate(&file.model).unwrap();
        let path = tmp("zero_rows_dataset.json");
        fs::write(&path, serde_json::to_string(&file).unwrap()).unwrap();
        assert_names_feature_1(load_dataset(&path));
        let _ = fs::remove_file(path);
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            load_dataset(Path::new("/nonexistent/recflex.json")),
            Err(IoError::Io(_))
        ));
    }
}
