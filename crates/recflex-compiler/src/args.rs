//! Argument packing for the fused kernel.
//!
//! CUDA limits the parameter bytes of a single kernel, so a fused kernel
//! over thousands of features cannot take per-feature pointers directly.
//! RecFlex "passes an array of pointers on the GPU to the fused kernel,
//! which points to the real required arguments so that the schedules can
//! use specific indices to access their arguments" (paper Section IV-B).
//! This module builds that indirection: one contiguous device buffer with
//! an offset table, validated so every schedule's argument pack is aligned
//! and within bounds.

use recflex_data::ModelConfig;

/// CUDA's kernel-parameter byte limit (4 KiB since CUDA 12, 256 B before;
/// we keep the conservative classic limit to justify the indirection).
pub const KERNEL_PARAM_LIMIT: usize = 4096;

/// One feature's argument pack, as laid out on the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArgEntry {
    /// Byte offset of the pack within the argument buffer.
    pub offset: usize,
    /// Byte length of the pack.
    pub len: usize,
}

/// The packed argument buffer of one fused launch: per-feature CSR
/// pointers, table pointers and sizes flattened into one allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ArgPack {
    /// Per-feature entries (`arg_offsets` of Figure 8).
    pub entries: Vec<ArgEntry>,
    /// Total buffer bytes.
    pub total_bytes: usize,
}

/// Alignment of every argument pack (pointer alignment on the device).
pub const ARG_ALIGN: usize = 16;

/// Fields per feature pack: offsets ptr, indices ptr, table ptr, out ptr,
/// batch_size, emb_dim, table_rows, padding — 8 × 8 bytes.
const PACK_BYTES: usize = 64;

impl ArgPack {
    /// Lay out the argument packs for a model (one pack per feature).
    pub fn build(model: &ModelConfig) -> Self {
        let mut entries = Vec::with_capacity(model.features.len());
        let mut cursor = 0usize;
        for _ in &model.features {
            debug_assert_eq!(cursor % ARG_ALIGN, 0);
            entries.push(ArgEntry {
                offset: cursor,
                len: PACK_BYTES,
            });
            cursor += PACK_BYTES.next_multiple_of(ARG_ALIGN);
        }
        ArgPack {
            entries,
            total_bytes: cursor,
        }
    }

    /// Validate the layout: aligned, in-bounds, non-overlapping, ordered.
    pub fn validate(&self) -> Result<(), String> {
        let mut prev_end = 0usize;
        for (i, e) in self.entries.iter().enumerate() {
            if e.offset % ARG_ALIGN != 0 {
                return Err(format!("entry {i} misaligned at {}", e.offset));
            }
            if e.offset < prev_end {
                return Err(format!("entry {i} overlaps its predecessor"));
            }
            if e.offset + e.len > self.total_bytes {
                return Err(format!("entry {i} out of bounds"));
            }
            prev_end = e.offset + e.len;
        }
        Ok(())
    }

    /// Whether passing the packs *directly* as kernel parameters would
    /// exceed the CUDA limit — the reason the indirection exists.
    pub fn needs_indirection(&self) -> bool {
        self.total_bytes > KERNEL_PARAM_LIMIT
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recflex_data::ModelPreset;

    #[test]
    fn layout_is_valid_for_all_presets() {
        for preset in ModelPreset::TABLE1 {
            let m = preset.scaled(0.02);
            let pack = ArgPack::build(&m);
            pack.validate().unwrap();
            assert_eq!(pack.entries.len(), m.features.len());
        }
    }

    #[test]
    fn thousand_feature_model_needs_indirection() {
        let m = ModelPreset::A.build();
        let pack = ArgPack::build(&m);
        assert!(
            pack.needs_indirection(),
            "1000 × 64B packs exceed the param limit"
        );
        // A small model would fit as direct parameters.
        let small = ModelPreset::A.scaled(0.004);
        assert!(!ArgPack::build(&small).needs_indirection());
    }

    #[test]
    fn packs_are_dense_and_ordered() {
        let m = ModelPreset::C.scaled(0.02);
        let pack = ArgPack::build(&m);
        for w in pack.entries.windows(2) {
            assert!(w[0].offset < w[1].offset);
        }
        assert_eq!(pack.total_bytes, pack.entries.len() * 64);
    }

    #[test]
    fn validate_rejects_corruption() {
        let m = ModelPreset::A.scaled(0.01);
        let mut pack = ArgPack::build(&m);
        pack.entries[1].offset = 3; // misaligned
        assert!(pack.validate().is_err());
        let mut pack2 = ArgPack::build(&m);
        pack2.entries[0].len = pack2.total_bytes + 1;
        assert!(pack2.validate().is_err());
    }
}
