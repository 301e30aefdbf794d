//! The simulated-kernel abstraction.
//!
//! Anything that can be launched on the simulator — a single-feature
//! embedding kernel, the heterogeneous fused kernel, a tuner co-execution
//! kernel with padding blocks, a GEMM — implements [`SimKernel`]: it exposes
//! a grid size, a per-block resource footprint and a per-block analytic
//! [`BlockProfile`]. Profiling is pure and side-effect free, so the launch
//! pipeline evaluates blocks in parallel with rayon.
//!
//! Many blocks of a grid repeat another block exactly (every one-sample
//! block of one feature with the same pooling factor, say). A kernel that
//! knows which may say so through [`SimKernel::profile_grid`]: [`launch`]
//! then profiles and times one block per class of identical blocks.
//!
//! [`launch`]: crate::launch()

use rayon::prelude::*;

use crate::occupancy::BlockResources;
use crate::profile::BlockProfile;

/// Grids with fewer classes than this profile their representatives on
/// the calling thread, where dispatching them to a pool costs more than
/// profiling them. `sim/profile_blocks` in `recflex-bench`'s
/// micro-benchmarks (the grid profiling of tuned `serve-longtail` and
/// `serve-smallreq` shards and of `tune-kernel`'s 200-feature kernel,
/// 2-worker pool, 2-vCPU x86-64 VM, medians of three runs) puts the
/// crossover near 700 classes: time on the pool over time inline was 1.6
/// at 225 classes, 1.15 at 400, 0.99 at 678, 0.92 at 917, 0.85 at 1 143
/// and 0.76–0.79 from 3 540 classes up.
pub(crate) const INLINE_PROFILE_CLASSES: u32 = 768;

/// Context handed to kernels when profiling a block.
///
/// `reg_cap` carries the occupancy-control decision: if the launch capped
/// registers below the kernel's natural demand, the kernel must account the
/// resulting spill traffic itself (it knows its loop trip counts).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProfileCtx {
    /// Per-thread register budget enforced by occupancy control, if any.
    pub reg_cap: Option<u32>,
}

/// A kernel that can be launched on the simulated GPU.
///
/// Implementations must be `Sync`: blocks are profiled concurrently.
pub trait SimKernel: Sync {
    /// Kernel name for reports.
    fn name(&self) -> &str;

    /// Number of thread blocks in the grid.
    fn grid_blocks(&self) -> u32;

    /// Per-block resource footprint (natural demand, before occupancy
    /// control is applied by the launch).
    fn resources(&self) -> BlockResources;

    /// Analytic demands of block `block_idx` under `ctx`.
    fn profile_block(&self, block_idx: u32, ctx: &ProfileCtx) -> BlockProfile;

    /// Every block's profile under `ctx`, stored once per class of
    /// identical blocks. By default every block is a class of its own. A
    /// kernel that overrides this must put in one class only blocks whose
    /// [`Self::profile_block`] is equal, and should profile each class
    /// through [`GridProfile::of_classes`], so that `profile_block` stays
    /// the one implementation of its profile.
    fn profile_grid(&self, ctx: &ProfileCtx) -> GridProfile {
        GridProfile::of_classes(self, BlockClasses::singletons(self.grid_blocks()), ctx)
    }
}

/// A partition of a grid's blocks into classes of identical blocks, built
/// one block at a time in grid order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockClasses {
    /// Per class, its first block: the one profiled for the class.
    representatives: Vec<u32>,
    /// Per block so far, the index of its class.
    class_of: Vec<u32>,
}

impl BlockClasses {
    /// No blocks yet, with room for `blocks` blocks and classes.
    pub fn with_capacity(blocks: usize) -> Self {
        BlockClasses {
            representatives: Vec::with_capacity(blocks),
            class_of: Vec::with_capacity(blocks),
        }
    }

    /// Every block of a `grid`-block grid in a class of its own.
    pub fn singletons(grid: u32) -> Self {
        BlockClasses {
            representatives: (0..grid).collect(),
            class_of: (0..grid).collect(),
        }
    }

    /// Add the next block as a class of its own.
    pub fn push_own(&mut self) {
        let block = self.class_of.len() as u32;
        self.class_of.push(self.representatives.len() as u32);
        self.representatives.push(block);
    }

    /// Add the next block to the class `slot` holds; an empty slot gets a
    /// new class, which this block represents.
    pub fn push_into(&mut self, slot: &mut Option<u32>) {
        match *slot {
            Some(class) => self.class_of.push(class),
            None => {
                *slot = Some(self.representatives.len() as u32);
                self.push_own();
            }
        }
    }

    /// Add the next block to the class of `key` in `table`, which holds
    /// one class per key and grows to hold `key`.
    pub fn push_keyed(&mut self, table: &mut Vec<Option<u32>>, key: u32) {
        let key = key as usize;
        if key >= table.len() {
            table.resize(key + 1, None);
        }
        self.push_into(&mut table[key]);
    }

    /// Per class, the block profiled for it: its first block, so the
    /// representatives rise with the class index.
    pub fn representatives(&self) -> &[u32] {
        &self.representatives
    }

    /// Per block, the index of its class.
    pub fn class_of(&self) -> &[u32] {
        &self.class_of
    }
}

/// A grid's block profiles, stored once per class of identical blocks:
/// block `b`'s profile is `classes[class_of[b]]`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GridProfile {
    /// One profile per class, in the order of each class's first block.
    pub classes: Vec<BlockProfile>,
    /// Per block, in grid order, the index of its class in `classes`.
    pub class_of: Vec<u32>,
}

impl GridProfile {
    /// Profile `kernel`'s grid under `ctx` as `classes`: each class takes
    /// its representative's [`SimKernel::profile_block`]. The
    /// representatives are profiled on the calling thread when there are
    /// fewer than 768 of them and on the pool otherwise; profiling is
    /// pure, so either way gives the same bits.
    pub fn of_classes<K: SimKernel + ?Sized>(
        kernel: &K,
        classes: BlockClasses,
        ctx: &ProfileCtx,
    ) -> Self {
        let BlockClasses {
            representatives,
            class_of,
        } = classes;
        let profile = |&b: &u32| kernel.profile_block(b, ctx);
        let classes = if (representatives.len() as u64) < u64::from(INLINE_PROFILE_CLASSES) {
            representatives.iter().map(profile).collect()
        } else {
            representatives.par_iter().map(profile).collect()
        };
        GridProfile { classes, class_of }
    }
}

/// Blanket impl so `&K` and boxed kernels launch transparently, their
/// classes included.
impl<K: SimKernel + ?Sized> SimKernel for &K {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn grid_blocks(&self) -> u32 {
        (**self).grid_blocks()
    }
    fn resources(&self) -> BlockResources {
        (**self).resources()
    }
    fn profile_block(&self, block_idx: u32, ctx: &ProfileCtx) -> BlockProfile {
        (**self).profile_block(block_idx, ctx)
    }
    fn profile_grid(&self, ctx: &ProfileCtx) -> GridProfile {
        (**self).profile_grid(ctx)
    }
}

impl<K: SimKernel + ?Sized> SimKernel for Box<K> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn grid_blocks(&self) -> u32 {
        (**self).grid_blocks()
    }
    fn resources(&self) -> BlockResources {
        (**self).resources()
    }
    fn profile_block(&self, block_idx: u32, ctx: &ProfileCtx) -> BlockProfile {
        (**self).profile_block(block_idx, ctx)
    }
    fn profile_grid(&self, ctx: &ProfileCtx) -> GridProfile {
        (**self).profile_grid(ctx)
    }
}

/// A trivially uniform kernel for tests and micro-benchmarks: every block
/// has the same profile.
#[derive(Debug, Clone)]
pub struct UniformKernel {
    /// Kernel name.
    pub name: String,
    /// Grid size in blocks.
    pub blocks: u32,
    /// Per-block resources.
    pub res: BlockResources,
    /// The profile every block reports.
    pub profile: BlockProfile,
}

impl SimKernel for UniformKernel {
    fn name(&self) -> &str {
        &self.name
    }
    fn grid_blocks(&self) -> u32 {
        self.blocks
    }
    fn resources(&self) -> BlockResources {
        self.res
    }
    fn profile_block(&self, _block_idx: u32, ctx: &ProfileCtx) -> BlockProfile {
        let mut p = self.profile;
        if let Some(cap) = ctx.reg_cap {
            let natural = self.res.regs_per_thread;
            if cap < natural {
                p.add_spill(natural - cap, self.res.threads_per_block, 4);
            }
        }
        p
    }

    /// One class: every block reports the same profile.
    fn profile_grid(&self, ctx: &ProfileCtx) -> GridProfile {
        let mut classes = BlockClasses::with_capacity(self.blocks as usize);
        let mut slot = None;
        for _ in 0..self.blocks {
            classes.push_into(&mut slot);
        }
        GridProfile::of_classes(self, classes, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk() -> UniformKernel {
        UniformKernel {
            name: "uniform".into(),
            blocks: 10,
            res: BlockResources::new(128, 64, 0),
            profile: BlockProfile {
                issue_cycles: 50.0,
                mem_transactions: 16,
                bytes_accessed: 512,
                unique_bytes: 512,
                active_warps: 4,
                thread_active_sum: 128,
                thread_useful_sum: 128,
                thread_slot_sum: 128,
                mlp: 2.0,
                ..Default::default()
            },
        }
    }

    #[test]
    fn uniform_kernel_profiles_identically() {
        let k = mk();
        let ctx = ProfileCtx::default();
        let a = k.profile_block(0, &ctx);
        let b = k.profile_block(9, &ctx);
        assert_eq!(a, b);
    }

    #[test]
    fn reg_cap_inflates_traffic() {
        let k = mk();
        let free = k.profile_block(0, &ProfileCtx { reg_cap: None });
        let capped = k.profile_block(0, &ProfileCtx { reg_cap: Some(32) });
        assert!(capped.bytes_accessed > free.bytes_accessed);
    }

    #[test]
    fn classes_number_blocks_in_grid_order() {
        let mut classes = BlockClasses::with_capacity(6);
        let (mut even, mut odd) = (None, None);
        for b in 0..6 {
            match b {
                2 => classes.push_own(),
                b if b % 2 == 0 => classes.push_into(&mut even),
                _ => classes.push_into(&mut odd),
            }
        }
        assert_eq!(classes.class_of(), &[0, 1, 2, 1, 0, 1]);
        assert_eq!(classes.representatives(), &[0, 1, 2]);
        assert_eq!((even, odd), (Some(0), Some(1)));
        let alone = BlockClasses::singletons(3);
        assert_eq!(alone.class_of(), alone.representatives());
    }

    #[test]
    fn a_uniform_grid_is_one_class() {
        let k = mk();
        let ctx = ProfileCtx { reg_cap: Some(32) };
        let grid = k.profile_grid(&ctx);
        assert_eq!(grid.classes, vec![k.profile_block(0, &ctx)]);
        assert_eq!(grid.class_of, vec![0; 10]);
    }

    #[test]
    fn trait_objects_launchable() {
        let k = mk();
        let dynk: &dyn SimKernel = &k;
        assert_eq!(dynk.grid_blocks(), 10);
        let boxed: Box<dyn SimKernel> = Box::new(k);
        assert_eq!(boxed.grid_blocks(), 10);
    }
}
