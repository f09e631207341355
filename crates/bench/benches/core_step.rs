//! Per-record `step` cost of the two core timing models. The analytic
//! Approx model is the sweep default precisely because it is cheap; the
//! staged OutOfOrder pipeline buys fidelity with more bookkeeping (ROB
//! groups, LSQ scans, gshare lookups). These benches pin the price of that
//! trade on the two regimes that bracket it: a hit-heavy stream where the
//! step overhead *is* the simulation cost, and a miss-heavy stream where
//! hierarchy latency dominates and the models should converge.
//!
//! The `controller_demand` group times the prefetch path alone:
//! `PrefetchController::on_demand_access` (selector allocation, prefetcher
//! training, selection and filtering) over a fixed mixed demand stream,
//! with no memory hierarchy behind it.

use alecto_types::{hash::mix64, Addr, DemandAccess, MemoryRecord, Pc};
use cpu::{
    CompositeKind, CoreEngine, CoreModelKind, CoreTiming, PrefetchController, SelectionAlgorithm,
    SystemConfig,
};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use memsys::{Hierarchy, HierarchyParams};

/// A stream that stays resident in the L1: 16 hot lines revisited forever.
fn hit_heavy(n: u64) -> Vec<MemoryRecord> {
    (0..n)
        .map(|i| MemoryRecord::load(Pc::new(0x40), Addr::new(0x1_0000 + (i % 16) * 64), 6))
        .collect()
}

/// A stream that misses everywhere: a large-stride walk over a DRAM-sized
/// footprint, spread across channels and banks.
fn miss_heavy(n: u64) -> Vec<MemoryRecord> {
    (0..n)
        .map(|i| MemoryRecord::load(Pc::new(0x48), Addr::new(((i * 7919) % 200_000) * 64), 6))
        .collect()
}

/// A fixed mix of demands: one streaming PC, eight strided PCs, a pointer
/// chase over 300 lines, and 96 scattered PCs that overflow the 64-entry
/// PC tables.
fn mixed_demands(n: u64) -> Vec<DemandAccess> {
    let mut strides = [0u64; 8];
    (0..n)
        .map(|i| {
            let r = mix64(i);
            let (pc, line) = match i % 4 {
                0 => (0x400, 0x10_0000 + i),
                1 => {
                    let k = r % 8;
                    strides[k as usize] += 1;
                    (0x500 + k * 4, 0x100_0000 + k * 0x1_0000 + strides[k as usize] * (k + 2))
                }
                2 => (0x900, 0x500_0000 + mix64(i / 4 % 300) % (1 << 20)),
                _ => (0x1000 + r % 96 * 4, 0x400_0000 + (r >> 16) % 50_000),
            };
            DemandAccess::load(Pc::new(pc), Addr::new(line * 64))
        })
        .collect()
}

fn controller_demand(c: &mut Criterion) {
    let mut group = c.benchmark_group("controller_demand");
    group.sample_size(10);
    let demands = mixed_demands(4_000);
    for algo in [SelectionAlgorithm::Ipcp, SelectionAlgorithm::Bandit6, SelectionAlgorithm::Alecto]
    {
        group.bench_function(algo.label(), |b| {
            b.iter(|| {
                let mut controller = PrefetchController::new(CompositeKind::GsCsPmp, algo);
                let mut issued = 0;
                for d in &demands {
                    issued += controller.on_demand_access(d).len();
                }
                black_box(issued)
            });
        });
    }
    group.finish();
}

fn core_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("core_step");
    group.sample_size(10);
    for (regime, records) in [("hit_heavy", hit_heavy(4_000)), ("miss_heavy", miss_heavy(4_000))] {
        for kind in [CoreModelKind::Approx, CoreModelKind::OutOfOrder] {
            let label = match kind {
                CoreModelKind::Approx => format!("{regime}/approx"),
                CoreModelKind::OutOfOrder => format!("{regime}/ooo"),
            };
            group.bench_function(&label, |b| {
                let config = SystemConfig::skylake_like(1).with_core_model(kind);
                b.iter(|| {
                    let controller =
                        PrefetchController::new(CompositeKind::GsCsPmp, SelectionAlgorithm::Alecto);
                    let mut core = CoreEngine::new(0, &config, controller);
                    let mut hier = Hierarchy::new(HierarchyParams::skylake_like(1));
                    for r in &records {
                        core.step(r, &mut hier);
                    }
                    black_box(core.current_time())
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, core_step, controller_demand);
criterion_main!(benches);
