//! Concatenated embedding output layout.
//!
//! The pooled vectors of all features are concatenated per sample before
//! entering the DNN (paper Figure 1). We store the buffer feature-major —
//! feature `f` owns a contiguous `batch × dim_f` region — because that is
//! what the fused kernel's per-feature block groups write. Inside a
//! feature's region, each block's samples are contiguous too, so the
//! functional executor hands every block a disjoint `&mut [f32]`
//! ([`FusedOutput::split_blocks_mut`]) and runs blocks in parallel. That
//! split checks the blocks cover every (feature, sample) exactly once:
//! a sample no block writes, or one two blocks write, is a broken task map.

use std::ops::Range;

use recflex_data::ModelConfig;

/// Output buffer of one fused embedding launch.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedOutput {
    data: Vec<f32>,
    /// Per-feature start offsets into `data`; `offsets[f+1] - offsets[f] =
    /// batch × dim_f`. Length `num_features + 1`.
    offsets: Vec<usize>,
    dims: Vec<u32>,
    batch_size: u32,
}

impl FusedOutput {
    /// Allocate a zeroed output for `model` and `batch_size`.
    pub fn zeros(model: &ModelConfig, batch_size: u32) -> Self {
        let mut offsets = Vec::with_capacity(model.features.len() + 1);
        let mut dims = Vec::with_capacity(model.features.len());
        let mut acc = 0usize;
        offsets.push(0);
        for f in &model.features {
            acc += batch_size as usize * f.emb_dim as usize;
            offsets.push(acc);
            dims.push(f.emb_dim);
        }
        FusedOutput {
            data: vec![0.0; acc],
            offsets,
            dims,
            batch_size,
        }
    }

    /// Number of features.
    pub fn num_features(&self) -> usize {
        self.dims.len()
    }

    /// Batch size.
    pub fn batch_size(&self) -> u32 {
        self.batch_size
    }

    /// Feature `f`'s region: `batch × dim_f`, sample-row-major.
    pub fn feature(&self, f: usize) -> &[f32] {
        &self.data[self.offsets[f]..self.offsets[f + 1]]
    }

    /// Pooled vector of `(feature, sample)`.
    pub fn sample(&self, f: usize, s: u32) -> &[f32] {
        let dim = self.dims[f] as usize;
        let base = self.offsets[f] + s as usize * dim;
        &self.data[base..base + dim]
    }

    /// Split the buffer into one mutable region per feature, enabling
    /// data-race-free parallel execution across features.
    pub fn split_features_mut(&mut self) -> Vec<&mut [f32]> {
        let mut out = Vec::with_capacity(self.dims.len());
        let mut rest: &mut [f32] = &mut self.data;
        let mut prev = 0usize;
        for f in 0..self.dims.len() {
            let len = self.offsets[f + 1] - prev;
            let (head, tail) = rest.split_at_mut(len);
            out.push(head);
            rest = tail;
            prev = self.offsets[f + 1];
        }
        out
    }

    /// Split the buffer into one mutable region per block, enabling
    /// data-race-free parallel execution across blocks. `blocks` lists each
    /// block's feature and sample range in buffer order: by feature, then
    /// by first sample. Together they must cover every (feature, sample)
    /// exactly once.
    ///
    /// # Panics
    ///
    /// At the first (feature, sample) that no block covers or that two
    /// blocks cover, naming the pair, or if `blocks` leaves buffer order.
    pub fn split_blocks_mut(
        &mut self,
        blocks: impl IntoIterator<Item = (usize, Range<u32>)>,
    ) -> Vec<&mut [f32]> {
        let batch = self.batch_size;
        let mut blocks = blocks.into_iter().peekable();
        let mut out = Vec::new();
        let mut rest: &mut [f32] = &mut self.data;
        for (f, &dim) in self.dims.iter().enumerate() {
            // The feature's next sample to cover.
            let mut next = 0u32;
            while let Some((_, samples)) = blocks.next_if(|(bf, _)| *bf == f) {
                let (s0, s1) = (samples.start, samples.end);
                assert!(s0 >= next, "feature {f} sample {s0}: two blocks write it");
                assert!(s0 == next, "feature {f} sample {next}: no block writes it");
                assert!(
                    s0 < s1 && s1 <= batch,
                    "feature {f}: block samples {s0}..{s1} outside the batch of {batch}"
                );
                let len = (s1 - s0) as usize * dim as usize;
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(len);
                out.push(head);
                rest = tail;
                next = s1;
            }
            assert!(
                next >= batch,
                "feature {f} sample {next}: no block writes it"
            );
        }
        if let Some((f, _)) = blocks.next() {
            panic!("a block of feature {f} is out of buffer order");
        }
        out
    }

    /// Concatenated row of sample `s` across all features, in feature
    /// order — the DNN input row. Allocates; used at the embedding→DNN
    /// boundary and in tests.
    pub fn concat_sample(&self, s: u32) -> Vec<f32> {
        let mut row = Vec::with_capacity(
            self.offsets.last().copied().unwrap_or(0) / self.batch_size.max(1) as usize,
        );
        for f in 0..self.num_features() {
            row.extend_from_slice(self.sample(f, s));
        }
        row
    }

    /// Whether `other` has the same shape and the same bits in every
    /// element. Unlike `==` on floats, a NaN equals only the same NaN, and
    /// `-0.0` differs from `0.0`: this is what "bit-exact" means.
    pub fn bits_eq(&self, other: &FusedOutput) -> bool {
        self.batch_size == other.batch_size
            && self.dims == other.dims
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Raw data (read-only).
    pub fn data(&self) -> &[f32] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recflex_data::ModelPreset;

    #[test]
    fn layout_offsets_are_consistent() {
        let m = ModelPreset::A.scaled(0.01);
        let out = FusedOutput::zeros(&m, 32);
        assert_eq!(out.num_features(), m.features.len());
        let total: usize = m.features.iter().map(|f| 32 * f.emb_dim as usize).sum();
        assert_eq!(out.data().len(), total);
        for (f, spec) in m.features.iter().enumerate() {
            assert_eq!(out.feature(f).len(), 32 * spec.emb_dim as usize);
            assert_eq!(out.sample(f, 5).len(), spec.emb_dim as usize);
        }
    }

    #[test]
    fn split_features_mut_partitions_exactly() {
        let m = ModelPreset::B.scaled(0.005);
        let mut out = FusedOutput::zeros(&m, 16);
        let expected: Vec<usize> = m.features.iter().map(|f| 16 * f.emb_dim as usize).collect();
        let parts = out.split_features_mut();
        let got: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn writes_through_split_are_visible() {
        let m = ModelPreset::A.scaled(0.005);
        let mut out = FusedOutput::zeros(&m, 4);
        {
            let mut parts = out.split_features_mut();
            parts[1][0] = 42.0;
        }
        assert_eq!(out.feature(1)[0], 42.0);
        assert_eq!(out.feature(0).iter().copied().fold(0.0f32, f32::max), 0.0);
    }

    #[test]
    fn concat_sample_width_is_model_concat_dim() {
        let m = ModelPreset::C.scaled(0.01);
        let out = FusedOutput::zeros(&m, 8);
        assert_eq!(out.concat_sample(0).len(), m.concat_dim() as usize);
    }

    #[test]
    fn bitwise_equality_sees_nan_and_the_sign_of_zero() {
        let m = ModelPreset::A.scaled(0.005);
        let zeros = FusedOutput::zeros(&m, 8);
        assert!(zeros.bits_eq(&FusedOutput::zeros(&m, 8)));
        assert!(!zeros.bits_eq(&FusedOutput::zeros(&m, 4)), "shape differs");
        let with = |x: f32| {
            let mut out = FusedOutput::zeros(&m, 8);
            out.split_features_mut()[1][3] = x;
            out
        };
        let (nan, neg_zero) = (with(f32::NAN), with(-0.0));
        assert!(!zeros.bits_eq(&nan), "a NaN differs from 0.0");
        assert!(!nan.bits_eq(&with(1.0)), "a NaN differs from a number");
        assert!(
            nan.bits_eq(&with(f32::NAN)),
            "the same NaN is the same bits"
        );
        assert!(!zeros.bits_eq(&neg_zero), "-0.0 differs from 0.0");
        // `==` on floats would have passed both.
        assert_eq!(neg_zero.data(), zeros.data());
    }

    /// Blocks of `spb` samples per feature, in buffer order.
    fn tiles(out: &FusedOutput, spb: u32) -> Vec<(usize, Range<u32>)> {
        (0..out.num_features())
            .flat_map(|f| {
                (0..out.batch_size().div_ceil(spb))
                    .map(move |b| (f, b * spb..((b + 1) * spb).min(out.batch_size())))
            })
            .collect()
    }

    #[test]
    fn split_blocks_mut_tiles_the_buffer() {
        let m = ModelPreset::B.scaled(0.005);
        let mut out = FusedOutput::zeros(&m, 10);
        let blocks = tiles(&out, 4);
        let lens: Vec<usize> = out
            .split_blocks_mut(blocks.clone())
            .iter()
            .map(|r| r.len())
            .collect();
        let want: Vec<usize> = blocks
            .iter()
            .map(|(f, s)| s.len() * m.features[*f].emb_dim as usize)
            .collect();
        assert_eq!(lens, want);
        out.split_blocks_mut(blocks)[1][0] = 5.0;
        assert_eq!(
            out.sample(0, 4)[0],
            5.0,
            "block 1 of feature 0 starts at sample 4"
        );
    }

    #[test]
    #[should_panic(expected = "feature 1 sample 8: no block writes it")]
    fn split_blocks_mut_rejects_an_unwritten_sample() {
        let m = ModelPreset::B.scaled(0.005);
        let mut out = FusedOutput::zeros(&m, 10);
        let mut blocks = tiles(&out, 4);
        blocks.remove(5); // feature 1's last block, samples 8..10
        out.split_blocks_mut(blocks);
    }

    #[test]
    #[should_panic(expected = "feature 2 sample 4: two blocks write it")]
    fn split_blocks_mut_rejects_a_sample_written_twice() {
        let m = ModelPreset::B.scaled(0.005);
        let mut out = FusedOutput::zeros(&m, 10);
        let mut blocks = tiles(&out, 4);
        blocks.insert(8, blocks[7].clone()); // feature 2, samples 4..8
        out.split_blocks_mut(blocks);
    }
}
