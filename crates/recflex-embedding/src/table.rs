//! Embedding tables.
//!
//! Production models hold hundreds of gigabytes of embedding weights; the
//! values themselves are irrelevant to kernel performance. [`VirtualTable`]
//! therefore derives every element deterministically from a hash of
//! `(table seed, row, dim)` — O(1) memory, yet every lookup is a concrete
//! reproducible `f32`, so functional correctness of schedules is fully
//! testable. [`DenseTable`] materializes real weights for small tests.
//!
//! Pooling reads each row whole and adds it straight into a sample's
//! output ([`EmbTable::add_row`]), so no row is copied anywhere first.
//! Hashing is the whole cost of a virtual lookup, so
//! [`VirtualTable::add_row`] hashes and adds a row in one branch-free loop
//! that the compiler vectorizes: built once for AVX-512DQ (64-bit lane
//! multiplies), once for AVX2, and once for the baseline target, with the
//! widest the running CPU supports chosen at run time. Each variant adds
//! exactly [`VirtualTable::value`]'s bits: the hash is integer arithmetic,
//! the float steps are exact or round once, the same way, and the one add
//! per element rounds as the scalar reference's `+=` does.

use recflex_data::ModelConfig;

/// Read-only embedding table.
pub trait EmbTable: Sync {
    /// Row vector length.
    fn dim(&self) -> u32;
    /// Number of rows.
    fn rows(&self) -> u32;
    /// Element at `(row, d)`. Callers guarantee `row < rows(), d < dim()`.
    fn value(&self, row: u32, d: u32) -> f32;

    /// Add row `row` into `acc` (length `dim()`): `acc[d] += value(row,
    /// d)`, element by element.
    fn add_row(&self, row: u32, acc: &mut [f32]) {
        debug_assert_eq!(acc.len(), self.dim() as usize);
        for (d, slot) in acc.iter_mut().enumerate() {
            *slot += self.value(row, d as u32);
        }
    }
}

/// splitmix64 — small, fast, well-distributed; the standard choice for
/// deriving deterministic pseudo-data.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hash-defined table: `value(row, d)` is a deterministic f32 in `(-1, 1)`.
#[derive(Debug, Clone)]
pub struct VirtualTable {
    seed: u64,
    rows: u32,
    dim: u32,
}

impl VirtualTable {
    /// Create a virtual table.
    pub fn new(seed: u64, rows: u32, dim: u32) -> Self {
        VirtualTable { seed, rows, dim }
    }

    /// The hash key of `(row, 0)`: element `d` hashes `row_key(row) ^ d`.
    fn row_key(&self, row: u32) -> u64 {
        self.seed ^ ((row as u64) << 32)
    }
}

/// Add elements `0..acc.len()` of the row whose hash key is `key` into
/// `acc`, bit-identical to `acc[d] += value(row, d)`. The top 24 hash bits
/// `k` convert to `f32` exactly, even through `i32`; `k · 2⁻²³` equals
/// [`VirtualTable::value`]'s `2 · (k / 2²⁴)` exactly, as both only scale
/// by powers of two; the subtraction of 1 is the one rounding step in
/// both, and the add into `acc` rounds once after it. Rust never fuses
/// the multiply, the subtraction or the add into an FMA.
///
/// Always inlined, so that each `#[target_feature]` wrapper below compiles
/// its own copy of the loop with that wrapper's instruction set.
#[inline(always)]
fn add_row(key: u64, acc: &mut [f32]) {
    for (d, slot) in acc.iter_mut().enumerate() {
        let k = (splitmix64(key ^ d as u64) >> 40) as i32;
        *slot += k as f32 * (1.0 / (1u32 << 23) as f32) - 1.0;
    }
}

/// [`add_row`] built for AVX-512F and AVX-512DQ, whose 64-bit lane
/// multiply vectorizes the hash eight lanes wide.
///
/// # Safety
///
/// The running CPU must support AVX-512F and AVX-512DQ.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn add_row_avx512dq(key: u64, acc: &mut [f32]) {
    add_row(key, acc)
}

/// [`add_row`] built for AVX2.
///
/// # Safety
///
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn add_row_avx2(key: u64, acc: &mut [f32]) {
    add_row(key, acc)
}

impl EmbTable for VirtualTable {
    fn dim(&self) -> u32 {
        self.dim
    }
    fn rows(&self) -> u32 {
        self.rows
    }
    #[inline]
    fn value(&self, row: u32, d: u32) -> f32 {
        debug_assert!(row < self.rows && d < self.dim);
        let h = splitmix64(self.seed ^ ((row as u64) << 32) ^ d as u64);
        // Map the top 24 bits to (-1, 1).
        let m = (h >> 40) as f32 / (1u64 << 24) as f32;
        2.0 * m - 1.0
    }

    /// The row added through the widest vector loop the running CPU
    /// supports.
    fn add_row(&self, row: u32, acc: &mut [f32]) {
        debug_assert!(row < self.rows);
        debug_assert_eq!(acc.len(), self.dim as usize);
        let key = self.row_key(row);
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq") {
                // SAFETY: `is_x86_feature_detected!` just found AVX-512F
                // and AVX-512DQ on this CPU.
                return unsafe { add_row_avx512dq(key, acc) };
            }
            if is_x86_feature_detected!("avx2") {
                // SAFETY: `is_x86_feature_detected!` just found AVX2 on
                // this CPU.
                return unsafe { add_row_avx2(key, acc) };
            }
        }
        add_row(key, acc)
    }
}

/// Materialized table backed by a `Vec<f32>` (row-major).
#[derive(Debug, Clone)]
pub struct DenseTable {
    data: Vec<f32>,
    rows: u32,
    dim: u32,
}

impl DenseTable {
    /// Create from row-major data; `data.len() == rows × dim`.
    pub fn new(data: Vec<f32>, rows: u32, dim: u32) -> Self {
        assert_eq!(data.len(), rows as usize * dim as usize);
        DenseTable { data, rows, dim }
    }

    /// Materialize a [`VirtualTable`] (small tables only — tests).
    pub fn from_virtual(v: &VirtualTable) -> Self {
        let mut data = Vec::with_capacity(v.rows() as usize * v.dim() as usize);
        for r in 0..v.rows() {
            for d in 0..v.dim() {
                data.push(v.value(r, d));
            }
        }
        DenseTable::new(data, v.rows(), v.dim())
    }
}

impl EmbTable for DenseTable {
    fn dim(&self) -> u32 {
        self.dim
    }
    fn rows(&self) -> u32 {
        self.rows
    }
    #[inline]
    fn value(&self, row: u32, d: u32) -> f32 {
        self.data[row as usize * self.dim as usize + d as usize]
    }
}

/// All embedding tables of one model, seeded from the model name so every
/// component (RecFlex, every baseline, the reference) reads identical
/// weights.
pub struct TableSet {
    tables: Vec<VirtualTable>,
}

impl TableSet {
    /// Build the tables for `model`.
    pub fn for_model(model: &ModelConfig) -> Self {
        let base = model.name.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x1000_0000_01B3)
        });
        let tables = model
            .features
            .iter()
            .enumerate()
            .map(|(i, f)| VirtualTable::new(splitmix64(base ^ i as u64), f.table_rows, f.emb_dim))
            .collect();
        TableSet { tables }
    }

    /// Table of feature `f`.
    pub fn table(&self, f: usize) -> &VirtualTable {
        &self.tables[f]
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recflex_data::ModelPreset;

    #[test]
    fn virtual_table_deterministic_and_in_range() {
        let t = VirtualTable::new(42, 100, 16);
        for r in (0..100).step_by(7) {
            for d in 0..16 {
                let v = t.value(r, d);
                assert_eq!(v, t.value(r, d));
                assert!((-1.0..1.0).contains(&v));
            }
        }
    }

    #[test]
    fn virtual_values_vary_by_row_and_dim() {
        let t = VirtualTable::new(42, 100, 16);
        assert_ne!(t.value(0, 0), t.value(1, 0));
        assert_ne!(t.value(0, 0), t.value(0, 1));
        let t2 = VirtualTable::new(43, 100, 16);
        assert_ne!(t.value(0, 0), t2.value(0, 0), "seed must matter");
    }

    #[test]
    fn dense_materialization_matches_virtual() {
        let v = VirtualTable::new(7, 50, 8);
        let d = DenseTable::from_virtual(&v);
        for r in 0..50 {
            for k in 0..8 {
                assert_eq!(v.value(r, k), d.value(r, k));
            }
        }
    }

    /// A starting accumulator of `dim` elements drawn from `seed`: sums
    /// like pooled ones, with -0.0, subnormals of both signs and the
    /// smallest normal mixed in.
    fn start_acc(seed: u64, dim: u32) -> Vec<f32> {
        (0..dim)
            .map(|d| {
                let h = splitmix64(seed ^ 0xACC0_0000 ^ u64::from(d));
                let subnormal = f32::from_bits((h >> 41) as u32 | 1);
                match h % 8 {
                    0 => -0.0,
                    1 => subnormal,
                    2 => -subnormal,
                    3 => f32::MIN_POSITIVE,
                    _ => ((h >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 64.0,
                }
            })
            .collect()
    }

    #[test]
    fn every_row_add_build_equals_adding_value_bitwise() {
        type Add = Box<dyn Fn(u64, &mut [f32])>;
        let mut builds: Vec<(&str, Add)> = vec![("portable", Box::new(add_row))];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                // SAFETY: `is_x86_feature_detected!` just found AVX2.
                builds.push(("avx2", Box::new(|k, a| unsafe { add_row_avx2(k, a) })));
            }
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq") {
                // SAFETY: `is_x86_feature_detected!` just found AVX-512F
                // and AVX-512DQ.
                builds.push((
                    "avx512dq",
                    Box::new(|k, a| unsafe { add_row_avx512dq(k, a) }),
                ));
            }
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let rows = 200;
        let (mut subnormals, mut negative_zeros) = (0, 0);
        for seed in [0, 42, u64::MAX] {
            for dim in 1..=130 {
                let t = VirtualTable::new(seed, rows, dim);
                // `DenseTable` pools through the trait's default method.
                let dense = DenseTable::from_virtual(&t);
                let start = start_acc(seed, dim);
                subnormals += start.iter().filter(|x| x.is_subnormal()).count();
                negative_zeros += start
                    .iter()
                    .filter(|x| x.to_bits() == (-0.0f32).to_bits())
                    .count();
                let random = (splitmix64(seed ^ dim as u64) % rows as u64) as u32;
                for row in [0, 1, rows - 1, random] {
                    let want: Vec<u32> = (0..dim)
                        .map(|d| (start[d as usize] + t.value(row, d)).to_bits())
                        .collect();
                    let mut acc = start.clone();
                    t.add_row(row, &mut acc);
                    assert_eq!(bits(&acc), want, "add_row seed {seed} dim {dim} row {row}");
                    acc.copy_from_slice(&start);
                    dense.add_row(row, &mut acc);
                    assert_eq!(bits(&acc), want, "dense seed {seed} dim {dim} row {row}");
                    for (name, add) in &builds {
                        acc.copy_from_slice(&start);
                        add(t.row_key(row), &mut acc);
                        assert_eq!(bits(&acc), want, "{name} seed {seed} dim {dim} row {row}");
                    }
                }
            }
        }
        assert!(subnormals > 0 && negative_zeros > 0);
    }

    #[test]
    fn table_set_matches_model_shapes() {
        let m = ModelPreset::A.scaled(0.01);
        let ts = TableSet::for_model(&m);
        assert_eq!(ts.len(), m.features.len());
        for (i, f) in m.features.iter().enumerate() {
            assert_eq!(ts.table(i).dim(), f.emb_dim);
            assert_eq!(ts.table(i).rows(), f.table_rows);
        }
    }

    #[test]
    fn table_set_reproducible_across_builds() {
        let m = ModelPreset::A.scaled(0.01);
        let a = TableSet::for_model(&m);
        let b = TableSet::for_model(&m);
        assert_eq!(a.table(0).value(5, 2), b.table(0).value(5, 2));
    }
}
