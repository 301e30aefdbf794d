//! `recflex_sim::launch`'s aggregation before its one-pass rewrite, kept as
//! the oracle: every report `launch` gives must equal, field for field and
//! bit for bit, the one this multi-pass version gives. It lives here
//! rather than in `recflex-sim` because the kernels worth comparing on —
//! fused kernels of random schedules, UVM-bound ones among them — are
//! built in this crate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recflex_data::{Batch, Dataset, ModelConfig, ModelPreset};
use recflex_embedding::{CachePlan, TableSet};
use recflex_schedules::{enumerate_candidates, ScheduleInstance};
use recflex_sim::kernel::UniformKernel;
use recflex_sim::launch::{BoundBreakdown, LaunchError};
use recflex_sim::occupancy::{control_occupancy, occupancy};
use recflex_sim::{
    launch, BlockProfile, BlockResources, BlockTimer, GpuArch, KernelMetrics, LaunchConfig,
    LaunchReport, MemorySystem, Occupancy, ProfileCtx, SimKernel,
};

use crate::{DispatchMode, FusedKernelObject, FusedSpec};

/// `launch` as it was: profile every block, then one pass over the
/// profiles per sum, recomputing each block's DRAM and L2 bytes each time.
fn multi_pass_launch<K: SimKernel>(
    kernel: &K,
    arch: &GpuArch,
    cfg: &LaunchConfig,
) -> Result<LaunchReport, LaunchError> {
    let grid = kernel.grid_blocks();
    if grid == 0 {
        return Err(LaunchError::EmptyGrid);
    }

    let natural_res = kernel.resources();
    let (res, blocks_per_sm, reg_cap) = match cfg.occupancy_target {
        Some(target) => {
            let ctl =
                control_occupancy(&natural_res, arch, target).ok_or(LaunchError::Unlaunchable)?;
            (ctl.resources, ctl.blocks_per_sm, ctl.reg_cap)
        }
        None => {
            let occ = occupancy(&natural_res, arch);
            if occ.blocks_per_sm == 0 {
                return Err(LaunchError::Unlaunchable);
            }
            (natural_res, occ.blocks_per_sm, None)
        }
    };
    let warps_per_block = res.warps_per_block(arch.warp_size);
    let occ = Occupancy {
        blocks_per_sm,
        warps_per_sm: blocks_per_sm * warps_per_block,
        limiter: occupancy(&res, arch).limiter,
    };
    let ctx = ProfileCtx { reg_cap };
    let profiles: Vec<BlockProfile> = (0..grid).map(|b| kernel.profile_block(b, &ctx)).collect();

    let total_bytes: u64 = profiles.iter().map(|p| p.bytes_accessed).sum();
    let unique_bytes: u64 = profiles.iter().map(|p| p.unique_bytes).sum();
    let timer = BlockTimer::new(
        arch,
        cfg,
        blocks_per_sm,
        u64::from(grid),
        total_bytes,
        unique_bytes,
    );
    // The timer's environment, derived as `BlockTimer::new` derives it.
    let mem = MemorySystem::from_traffic(arch, total_bytes, unique_bytes);
    let b_eff = (blocks_per_sm as f64)
        .min((grid as f64 / arch.num_sms as f64).ceil())
        .max(1.0);
    let issue_mult = if cfg.issue_multiplier > 0.0 {
        cfg.issue_multiplier
    } else {
        1.0
    };

    let mut mem_bound_cycles = 0.0f64;
    let mut block_times = Vec::with_capacity(grid as usize);
    let mut block_solo_times = Vec::with_capacity(grid as usize);
    let mut straggler = 0.0f64;
    for p in &profiles {
        let t = timer.time(p);
        mem_bound_cycles += t.mem;
        block_times.push(t.steady);
        block_solo_times.push(t.solo);
        straggler = straggler.max(t.solo);
    }

    let slots = arch.num_sms * blocks_per_sm;
    let (dram_rate, l2_rate) = (arch.dram_bytes_per_sm_cycle(), arch.l2_bytes_per_sm_cycle());
    let total_shared: f64 = block_times.iter().sum();
    let throughput_bound = total_shared / slots as f64;
    let sms = arch.num_sms as f64;
    let dram_bound: f64 =
        profiles.iter().map(|p| mem.dram_bytes(p)).sum::<f64>() / (dram_rate * sms);
    let l2_bound: f64 = profiles.iter().map(|p| mem.l2_bytes(p)).sum::<f64>() / (l2_rate * sms);
    let issue_bound: f64 = profiles.iter().map(|p| p.issue_cycles).sum::<f64>() * issue_mult
        / (arch.warp_schedulers as f64 * sms);
    let lsu_bound: f64 =
        profiles.iter().map(|p| p.mem_transactions).sum::<u64>() as f64 / (arch.lsu_per_sm * sms);
    let membytes: f64 = profiles
        .iter()
        .map(|p| mem.dram_bytes(p) + mem.l2_bytes(p))
        .sum();
    let total_membytes = membytes.max(1e-9);
    let weighted_mlp: f64 = profiles
        .iter()
        .map(|p| (mem.dram_bytes(p) + mem.l2_bytes(p)) * p.mlp.max(1.0))
        .sum::<f64>()
        / total_membytes;
    let weighted_active_warps: f64 = profiles
        .iter()
        .map(|p| (mem.dram_bytes(p) + mem.l2_bytes(p)) * p.active_warps.max(1) as f64)
        .sum::<f64>()
        / total_membytes;
    let eff_warps_per_sm = (b_eff * weighted_active_warps)
        .min(occ.warps_per_sm as f64)
        .max(1.0);
    let supply_rate = eff_warps_per_sm * weighted_mlp * arch.sector_bytes as f64 / mem.avg_latency;
    let supply_bound = if membytes > 0.0 {
        total_membytes / (supply_rate * sms)
    } else {
        0.0
    };
    let host_rate = arch.host_link_gbps / arch.clock_ghz;
    let uvm_bound: f64 =
        profiles.iter().map(|p| p.uvm_bytes).sum::<u64>() as f64 / host_rate.max(1e-9);
    let tail = (1.0 - 1.0 / slots as f64) * straggler;
    let bounds = BoundBreakdown {
        slot_cycles: throughput_bound + tail,
        dram_cycles: dram_bound,
        l2_cycles: l2_bound,
        issue_cycles: issue_bound,
        lsu_cycles: lsu_bound,
        supply_cycles: supply_bound,
        uvm_cycles: uvm_bound,
        straggler_cycles: straggler,
    };
    let makespan = bounds.makespan();
    let utilization = if makespan > 0.0 {
        (throughput_bound.max(dram_bound)) / makespan
    } else {
        0.0
    };
    let latency_us = arch.cycles_to_us(makespan) + arch.kernel_launch_us;

    let time_s = arch.cycles_to_us(makespan).max(1e-9) * 1e-6;
    let dram_total: f64 = profiles.iter().map(|p| mem.dram_bytes(p)).sum();
    let l2_total: f64 = profiles.iter().map(|p| mem.l2_bytes(p)).sum();
    let trans_total: u64 = profiles.iter().map(|p| p.mem_transactions).sum();
    let active_sum: u64 = profiles.iter().map(|p| p.thread_active_sum).sum();
    let useful_sum: u64 = profiles.iter().map(|p| p.thread_useful_sum).sum();
    let slot_sum: u64 = profiles.iter().map(|p| p.thread_slot_sum).sum();
    let flops: u64 = profiles.iter().map(|p| p.flops).sum();

    let memory_throughput_gbps = dram_total / time_s / 1e9;
    let max_bandwidth_pct = 100.0 * memory_throughput_gbps / arch.dram_bw_gbps;
    let l2_throughput_pct = 100.0 * (l2_total / time_s / 1e9) / arch.l2_bw_gbps;
    let l1_throughput_pct =
        100.0 * trans_total as f64 / (makespan * arch.num_sms as f64 * arch.lsu_per_sm);
    let memory_busy_pct =
        100.0 * mem_bound_cycles / (slots as f64 * makespan.max(1e-9)) / b_eff.max(1.0)
            * blocks_per_sm as f64;

    let metrics = KernelMetrics {
        memory_throughput_gbps,
        max_bandwidth_pct: max_bandwidth_pct.min(100.0),
        memory_busy_pct: memory_busy_pct.min(100.0),
        l1_throughput_pct: l1_throughput_pct.min(100.0),
        l2_throughput_pct: l2_throughput_pct.min(100.0),
        avg_active_threads_per_warp: if slot_sum == 0 {
            0.0
        } else {
            32.0 * active_sum as f64 / slot_sum as f64
        },
        avg_not_pred_off_threads_per_warp: if slot_sum == 0 {
            0.0
        } else {
            32.0 * useful_sum as f64 / slot_sum as f64
        },
        achieved_warps_per_sm: occ.warps_per_sm,
        dram_bytes: dram_total,
        l2_bytes: l2_total,
        flops,
    };

    Ok(LaunchReport {
        name: kernel.name().to_string(),
        latency_us,
        makespan_cycles: makespan,
        block_times,
        block_solo_times,
        occupancy: occ,
        utilization,
        metrics,
        bounds,
    })
}

/// Every scalar field of a report, named, as bits.
fn fields(r: &LaunchReport) -> Vec<(&'static str, u64)> {
    let (b, m, o) = (&r.bounds, &r.metrics, &r.occupancy);
    vec![
        ("latency_us", r.latency_us.to_bits()),
        ("makespan_cycles", r.makespan_cycles.to_bits()),
        ("utilization", r.utilization.to_bits()),
        ("bounds.slot_cycles", b.slot_cycles.to_bits()),
        ("bounds.dram_cycles", b.dram_cycles.to_bits()),
        ("bounds.l2_cycles", b.l2_cycles.to_bits()),
        ("bounds.issue_cycles", b.issue_cycles.to_bits()),
        ("bounds.lsu_cycles", b.lsu_cycles.to_bits()),
        ("bounds.supply_cycles", b.supply_cycles.to_bits()),
        ("bounds.uvm_cycles", b.uvm_cycles.to_bits()),
        ("bounds.straggler_cycles", b.straggler_cycles.to_bits()),
        (
            "metrics.memory_throughput_gbps",
            m.memory_throughput_gbps.to_bits(),
        ),
        ("metrics.max_bandwidth_pct", m.max_bandwidth_pct.to_bits()),
        ("metrics.memory_busy_pct", m.memory_busy_pct.to_bits()),
        ("metrics.l1_throughput_pct", m.l1_throughput_pct.to_bits()),
        ("metrics.l2_throughput_pct", m.l2_throughput_pct.to_bits()),
        (
            "metrics.avg_active_threads_per_warp",
            m.avg_active_threads_per_warp.to_bits(),
        ),
        (
            "metrics.avg_not_pred_off_threads_per_warp",
            m.avg_not_pred_off_threads_per_warp.to_bits(),
        ),
        (
            "metrics.achieved_warps_per_sm",
            u64::from(m.achieved_warps_per_sm),
        ),
        ("metrics.dram_bytes", m.dram_bytes.to_bits()),
        ("metrics.l2_bytes", m.l2_bytes.to_bits()),
        ("metrics.flops", m.flops),
        ("occupancy.blocks_per_sm", u64::from(o.blocks_per_sm)),
        ("occupancy.warps_per_sm", u64::from(o.warps_per_sm)),
    ]
}

/// Launch `kernel` both ways and assert the results equal bit for bit;
/// returns the report, if the launch succeeded.
fn assert_matches_oracle<K: SimKernel>(
    kernel: &K,
    arch: &GpuArch,
    cfg: &LaunchConfig,
    case: &str,
) -> Option<LaunchReport> {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    match (
        launch(kernel, arch, cfg),
        multi_pass_launch(kernel, arch, cfg),
    ) {
        (Ok(got), Ok(want)) => {
            assert_eq!(got.name, want.name, "{case}");
            assert_eq!(got.occupancy.limiter, want.occupancy.limiter, "{case}");
            assert_eq!(fields(&got), fields(&want), "{case}");
            assert_eq!(bits(&got.block_times), bits(&want.block_times), "{case}");
            assert_eq!(
                bits(&got.block_solo_times),
                bits(&want.block_solo_times),
                "{case}"
            );
            Some(got)
        }
        (got, want) => {
            assert_eq!(got.err(), want.err(), "{case}");
            None
        }
    }
}

/// A launch config: natural occupancy (`level` 0) or controlled at `level`
/// blocks/SM, under one of three issue multipliers (0 means 1).
fn config(level: u32, issue: usize) -> LaunchConfig {
    LaunchConfig {
        occupancy_target: (level > 0).then_some(level),
        issue_multiplier: [0.0, 1.0, 1.45][issue],
    }
}

/// A random block profile: every counter drawn, some zero, and `mlp` and
/// `active_warps` sometimes below the floors the timing model clamps to.
fn arb_profile(rng: &mut StdRng) -> BlockProfile {
    let mut maybe = |hi: u64| {
        if rng.gen_range(0..4u32) == 0 {
            0
        } else {
            rng.gen_range(0..hi)
        }
    };
    BlockProfile {
        issue_cycles: maybe(60_000) as f64 * 0.37,
        mem_transactions: maybe(100_000),
        bytes_accessed: maybe(4_000_000),
        unique_bytes: maybe(4_000_000),
        bytes_written: maybe(200_000),
        active_warps: maybe(33) as u32,
        thread_active_sum: maybe(1_000_000),
        thread_useful_sum: maybe(1_000_000),
        thread_slot_sum: maybe(1_000_000),
        barriers: maybe(12) as u32,
        flops: maybe(5_000_000),
        mlp: maybe(64) as f64 * 0.25,
        critical_mem_chain: maybe(5_000),
        uvm_bytes: maybe(500_000),
        uvm_transactions: maybe(20_000),
    }
}

/// One schedule per feature of `m`, each drawn from its candidates.
fn random_schedules(m: &ModelConfig, rng: &mut StdRng) -> Vec<ScheduleInstance> {
    m.features
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let c = enumerate_candidates(i, f).unwrap().candidates;
            c[rng.gen_range(0..c.len())]
        })
        .collect()
}

const PRESETS: [ModelPreset; 6] = [
    ModelPreset::A,
    ModelPreset::B,
    ModelPreset::C,
    ModelPreset::D,
    ModelPreset::E,
    ModelPreset::MLPerfLike,
];

proptest! {
    #[test]
    fn uniform_kernels_report_what_the_multi_pass_oracle_does(
        seed in 0u64..u64::MAX,
        blocks in 1u32..3_000,
        level in 0u32..=16,
        issue in 0usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let threads = 32 * rng.gen_range(1..=32u32);
        let regs = rng.gen_range(16..=255u32);
        let smem = [0, 4_096, 49_152, 200_000][rng.gen_range(0..4usize)];
        let kernel = UniformKernel {
            name: "uniform".into(),
            blocks,
            res: BlockResources::new(threads, regs, smem),
            profile: arb_profile(&mut rng),
        };
        for arch in [GpuArch::v100(), GpuArch::a100()] {
            let case = format!("seed {seed} blocks {blocks} level {level} issue {issue}");
            assert_matches_oracle(&kernel, &arch, &config(level, issue), &case);
        }
    }

    #[test]
    fn fused_kernels_report_what_the_multi_pass_oracle_does(
        preset in 0usize..6,
        frac_permille in 3u32..=12,
        batch_size in 1u32..=300,
        picks in 0u64..u64::MAX,
        level in 0usize..6,
        fnptr in 0u32..2,
    ) {
        let m = PRESETS[preset].scaled(frac_permille as f64 / 1000.0);
        let tables = TableSet::for_model(&m);
        let mut rng = StdRng::seed_from_u64(picks);
        let mut spec = FusedSpec::new(random_schedules(&m, &mut rng));
        // Natural occupancy, or one of the tuner's controlled levels.
        spec.occupancy_target = [None, Some(1), Some(2), Some(4), Some(8), Some(16)][level];
        if fnptr == 1 {
            spec.dispatch = DispatchMode::FnPtrArray;
        }
        let obj = FusedKernelObject::compile(spec);
        let batch = Batch::generate(&m, batch_size, picks);
        let bound = obj.bind(&m, &tables, &batch);
        let case = format!(
            "{} at {frac_permille} permille, batch {batch_size}, picks {picks}, level {level}",
            m.name
        );
        for arch in [GpuArch::v100(), GpuArch::a100()] {
            assert_matches_oracle(&bound, &arch, &obj.launch_config(), &case);
        }
    }
}

#[test]
fn uvm_bindings_report_what_the_multi_pass_oracle_does() {
    let m = ModelPreset::A.scaled(0.02);
    let tables = TableSet::for_model(&m);
    let history = Dataset::synthesize(&m, 3, 128, 11);
    // Half the model's bytes fit on the device: hot rows hit, the rest
    // travel over the host link.
    let plan = CachePlan::plan(&m, history.batches(), CachePlan::full_model_bytes(&m) / 2);
    let mut rng = StdRng::seed_from_u64(3);
    let obj = FusedKernelObject::compile(FusedSpec::new(random_schedules(&m, &mut rng)));
    let mut uvm_bound = false;
    for (i, batch_size) in [1u32, 64, 256].into_iter().enumerate() {
        let batch = Batch::generate(&m, batch_size, 100 + i as u64);
        let bound = obj.bind_uvm(&m, &tables, &batch, &plan);
        for level in [0, 2, 8] {
            let case = format!("uvm batch {batch_size} level {level}");
            let report = assert_matches_oracle(&bound, &GpuArch::v100(), &config(level, 1), &case);
            uvm_bound |= report.is_some_and(|r| r.bounds.uvm_cycles > 0.0);
        }
    }
    assert!(uvm_bound, "some launch must move bytes over the host link");
}

#[test]
fn grids_that_move_no_memory_and_one_block_grids_report_what_the_oracle_does() {
    let arch = GpuArch::v100();
    let mut rng = StdRng::seed_from_u64(9);
    let mut unmoved = 0;
    let idle = BlockProfile {
        bytes_accessed: 0,
        unique_bytes: 0,
        bytes_written: 0,
        uvm_bytes: 0,
        ..arb_profile(&mut rng)
    };
    for (blocks, profile) in [
        (16, idle),
        (1, idle),
        (1, BlockProfile::idle()),
        (1, arb_profile(&mut rng)),
        (1, arb_profile(&mut rng)),
    ] {
        let kernel = UniformKernel {
            name: "edge".into(),
            blocks,
            res: BlockResources::new(128, 40, 0),
            profile,
        };
        // Level 16 caps the 40 registers to 32: the spill moves memory.
        for level in [0, 1, 16] {
            let case = format!("{blocks} blocks of {profile:?} at level {level}");
            let report = assert_matches_oracle(&kernel, &arch, &config(level, 1), &case)
                .expect("a 128-thread, 40-register block launches");
            if report.metrics.dram_bytes + report.metrics.l2_bytes == 0.0 {
                assert_eq!(report.bounds.supply_cycles, 0.0, "{case}");
                unmoved += 1;
            }
        }
    }
    assert!(unmoved >= 4, "{unmoved} launches moved no memory");
    // A fused kernel of one feature and one sample: a one-block grid; and
    // the same kernel on a batch without samples, which moves no memory.
    let mut m = ModelPreset::A.scaled(0.01);
    m.features.truncate(1);
    let tables = TableSet::for_model(&m);
    let obj = FusedKernelObject::compile(FusedSpec::new(random_schedules(&m, &mut rng)));
    for batch_size in [1, 0] {
        let batch = Batch::generate(&m, batch_size, 5);
        let bound = obj.bind(&m, &tables, &batch);
        let case = format!("one feature, batch {batch_size}");
        if batch_size == 1 {
            assert_eq!(bound.grid_blocks(), 1, "{case}");
        }
        assert_matches_oracle(&bound, &arch, &obj.launch_config(), &case);
    }
}
