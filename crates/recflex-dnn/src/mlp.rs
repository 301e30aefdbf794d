//! Dense layers and the paper's evaluation MLP.

use rayon::prelude::*;
use recflex_sim::{launch, GpuArch, LaunchConfig, LaunchReport};

use crate::gemm::GemmKernel;

/// One dense layer `y = relu?(x·W + b)` with hash-derived weights.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Input features.
    pub in_dim: u32,
    /// Output features.
    pub out_dim: u32,
    /// Apply ReLU after the affine transform.
    pub relu: bool,
    seed: u64,
}

impl Linear {
    /// Create a layer with weights derived from `seed`.
    pub fn new(in_dim: u32, out_dim: u32, relu: bool, seed: u64) -> Self {
        Linear {
            in_dim,
            out_dim,
            relu,
            seed,
        }
    }

    /// Deterministic weight `(i, j)` in `(-s, s)` with `s = 1/√in_dim`.
    pub fn weight(&self, i: u32, j: u32) -> f32 {
        let mut x = self.seed ^ ((i as u64) << 32) ^ j as u64;
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let u = ((x >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0;
        u / (self.in_dim as f32).sqrt()
    }

    /// Deterministic bias `j`.
    pub fn bias(&self, j: u32) -> f32 {
        self.weight(u32::MAX, j) * 0.1
    }

    /// Functional forward: `x` is `batch × in_dim` row-major; returns
    /// `batch × out_dim`. Parallel over samples.
    pub fn forward(&self, x: &[f32], batch: usize) -> Vec<f32> {
        assert_eq!(x.len(), batch * self.in_dim as usize);
        let mut y = vec![0.0f32; batch * self.out_dim as usize];
        y.par_chunks_mut(self.out_dim as usize)
            .zip(x.par_chunks(self.in_dim as usize))
            .for_each(|(yr, xr)| {
                for j in 0..self.out_dim {
                    let mut acc = self.bias(j);
                    for (i, &xi) in xr.iter().enumerate() {
                        acc += xi * self.weight(i as u32, j);
                    }
                    yr[j as usize] = if self.relu { acc.max(0.0) } else { acc };
                }
            });
        y
    }

    /// Simulated latency of this layer for `batch` samples.
    pub fn latency_us(&self, batch: u32, arch: &GpuArch) -> f64 {
        let g = GemmKernel {
            m: batch,
            k: self.in_dim,
            n: self.out_dim,
        };
        launch(&g, arch, &LaunchConfig::default())
            .map(|r: LaunchReport| r.latency_us)
            .unwrap_or(arch.kernel_launch_us)
    }
}

/// The evaluation MLP: hidden layers 1024 → 256 → 128 → a scalar
/// prediction (paper Section VI-C).
#[derive(Debug, Clone)]
pub struct Mlp {
    /// The stacked layers.
    pub layers: Vec<Linear>,
}

impl Mlp {
    /// The paper's configuration on top of a `concat_dim`-wide embedding.
    pub fn paper_config(concat_dim: u32) -> Self {
        Mlp {
            layers: vec![
                Linear::new(concat_dim, 1024, true, 101),
                Linear::new(1024, 256, true, 102),
                Linear::new(256, 128, true, 103),
                Linear::new(128, 1, false, 104),
            ],
        }
    }

    /// Functional forward pass; `x` is `batch × in_dim` row-major.
    pub fn forward(&self, x: &[f32], batch: usize) -> Vec<f32> {
        let mut cur = x.to_vec();
        for layer in &self.layers {
            cur = layer.forward(&cur, batch);
        }
        cur
    }

    /// Simulated latency of the whole stack, plus one elementwise concat
    /// kernel moving the embedding outputs into the GEMM layout.
    pub fn latency_us(&self, batch: u32, arch: &GpuArch) -> f64 {
        let concat_bytes = 2.0 * batch as f64 * self.layers[0].in_dim as f64 * 4.0;
        let concat_us = concat_bytes / (arch.dram_bw_gbps * 1e3) + arch.kernel_launch_us;
        concat_us
            + self
                .layers
                .iter()
                .map(|l| l.latency_us(batch, arch))
                .sum::<f64>()
    }

    /// Input width.
    pub fn in_dim(&self) -> u32 {
        self.layers[0].in_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes() {
        let mlp = Mlp::paper_config(64);
        let x = vec![0.1f32; 8 * 64];
        let y = mlp.forward(&x, 8);
        assert_eq!(y.len(), 8);
    }

    #[test]
    fn relu_clamps_hidden_layers() {
        let l = Linear::new(16, 8, true, 7);
        let x = vec![-10.0f32; 16];
        let y = l.forward(&x, 1);
        assert!(y.iter().all(|&v| v >= 0.0));
        let l2 = Linear::new(16, 8, false, 7);
        let y2 = l2.forward(&x, 1);
        assert!(
            y2.iter().any(|&v| v < 0.0),
            "linear head must pass negatives"
        );
    }

    #[test]
    fn forward_deterministic_and_input_sensitive() {
        let mlp = Mlp::paper_config(32);
        let x1 = vec![0.5f32; 4 * 32];
        let mut x2 = x1.clone();
        x2[0] = -0.5;
        assert_eq!(mlp.forward(&x1, 4), mlp.forward(&x1, 4));
        assert_ne!(mlp.forward(&x1, 4)[0], mlp.forward(&x2, 4)[0]);
    }

    #[test]
    fn paper_config_shapes() {
        let mlp = Mlp::paper_config(3000);
        let dims: Vec<(u32, u32)> = mlp.layers.iter().map(|l| (l.in_dim, l.out_dim)).collect();
        assert_eq!(dims, vec![(3000, 1024), (1024, 256), (256, 128), (128, 1)]);
    }

    #[test]
    fn latency_grows_with_batch_and_width() {
        let arch = recflex_sim::GpuArch::v100();
        let small = Mlp::paper_config(512).latency_us(64, &arch);
        let big = Mlp::paper_config(8192).latency_us(512, &arch);
        assert!(big > small);
        assert!(small > 0.0);
    }
}
