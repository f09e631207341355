//! Determinism lock-in for the parallel experiment engine: the `SpeedupGrid`
//! a sweep produces must be *exactly* equal — cell by cell, report by
//! report — whether the cells run serially (`jobs = 1`), across a worker
//! pool, or twice in a row. This is the contract that lets `--jobs N` be a
//! pure wall-clock knob and lets CI compare `BENCH_*.json` files across
//! machines.

use cpu::{CompositeKind, CoreModelKind, SelectionAlgorithm, SystemConfig};
use harness::runner::{run_multicore_mix, run_single_core_suite};
use harness::SpeedupGrid;

fn quick_suite_with_model(jobs: usize, core_model: CoreModelKind) -> SpeedupGrid {
    let sources = vec![
        traces::spec06::source("lbm", 800),
        traces::spec06::source("mcf", 800),
        traces::spec06::source("GemsFDTD", 800),
        traces::spec17::source("povray_17", 800),
    ];
    run_single_core_suite(
        &sources,
        &[SelectionAlgorithm::Ipcp, SelectionAlgorithm::Bandit6, SelectionAlgorithm::Alecto],
        CompositeKind::GsCsPmp,
        &SystemConfig::skylake_like(1).with_core_model(core_model),
        jobs,
    )
}

fn quick_suite(jobs: usize) -> SpeedupGrid {
    quick_suite_with_model(jobs, CoreModelKind::Approx)
}

fn assert_grids_identical(a: &SpeedupGrid, b: &SpeedupGrid) {
    // `assert_eq!` on the whole grid would suffice, but comparing cell by
    // cell first localises any regression to a benchmark × algorithm pair.
    assert_eq!(a.algorithm_labels, b.algorithm_labels);
    assert_eq!(a.benchmarks.len(), b.benchmarks.len());
    for (ba, bb) in a.benchmarks.iter().zip(&b.benchmarks) {
        assert_eq!(ba.benchmark, bb.benchmark);
        assert_eq!(ba.baseline, bb.baseline, "baseline of {} diverged", ba.benchmark);
        for (ra, rb) in ba.algorithms.iter().zip(&bb.algorithms) {
            assert_eq!(ra.algorithm, rb.algorithm);
            assert!(
                ra.speedup == rb.speedup,
                "{} × {}: {} vs {}",
                ba.benchmark,
                ra.algorithm,
                ra.speedup,
                rb.speedup
            );
            assert_eq!(ra.report, rb.report, "{} × {} report diverged", ba.benchmark, ra.algorithm);
        }
    }
    assert_eq!(a, b);
}

#[test]
fn serial_and_parallel_suites_are_cell_for_cell_identical() {
    let serial = quick_suite(1);
    let parallel = quick_suite(4);
    assert_grids_identical(&serial, &parallel);
}

#[test]
fn timing_fields_are_identical_across_worker_counts() {
    // The cycle-level timing model is pure bookkeeping over the same
    // deterministic access stream: total cycles, IPC and average
    // memory-access latency — the fields the alecto-bench-v2 report gates —
    // must be bit-identical at any worker count, not merely close.
    let serial = quick_suite(1);
    let parallel = quick_suite(4);
    let cells = |grid: &SpeedupGrid| harness::report::grid_cells(grid);
    let a = cells(&serial);
    let b = cells(&parallel);
    assert_eq!(a.len(), b.len());
    for (ca, cb) in a.iter().zip(&b) {
        assert_eq!(ca, cb, "v2 cell diverged: {} × {}", ca.benchmark, ca.algorithm);
        assert!(ca.cycles > 0, "{} × {} simulated no cycles", ca.benchmark, ca.algorithm);
        assert!(ca.instructions > 0);
        assert!(
            ca.avg_mem_latency > 0.0 && ca.avg_mem_latency.is_finite(),
            "{} × {} has no memory-latency signal",
            ca.benchmark,
            ca.algorithm
        );
        assert!(ca.ipc > 0.0 && ca.ipc.is_finite());
    }
    // The per-core breakdown underneath agrees too, including the stall
    // attribution (MSHR vs DRAM admission queue).
    for (ba, bb) in serial.benchmarks.iter().zip(&parallel.benchmarks) {
        for (ra, rb) in ba.algorithms.iter().zip(&bb.algorithms) {
            for (ca, cb) in ra.report.cores.iter().zip(&rb.report.cores) {
                assert_eq!(ca.timing, cb.timing, "per-core timing breakdown diverged");
                assert_eq!(ca.cycles, cb.cycles);
            }
        }
    }
}

#[test]
fn repeated_parallel_runs_are_identical() {
    let first = quick_suite(4);
    let second = quick_suite(4);
    assert_grids_identical(&first, &second);
}

#[test]
fn out_of_order_suite_is_identical_at_any_jobs() {
    // The staged pipeline core must honour the same contract as the analytic
    // model: the worker count is a pure wall-clock knob, and a rerun at the
    // same count repeats itself. Sweep it against the serial reference.
    let reference = quick_suite_with_model(1, CoreModelKind::OutOfOrder);
    for jobs in [1usize, 2, 4] {
        let grid = quick_suite_with_model(jobs, CoreModelKind::OutOfOrder);
        assert_grids_identical(&reference, &grid);
    }
    // And the pipeline metrics it adds actually reach the v2 cells.
    for cell in harness::report::grid_cells(&reference) {
        assert!(cell.branch_mpki.is_some(), "{} lost branch MPKI", cell.benchmark);
        assert!(cell.rob_occupancy.is_some(), "{} lost ROB occupancy", cell.benchmark);
        assert!(cell.ipc > 0.0 && cell.ipc.is_finite());
    }
}

#[test]
fn multicore_mix_is_identical_across_worker_counts() {
    let mk = |jobs: usize| {
        run_multicore_mix(
            "canneal-x4",
            &traces::parsec::per_core_sources("canneal", 500, 4),
            &[SelectionAlgorithm::Bandit6, SelectionAlgorithm::Alecto],
            CompositeKind::GsCsPmp,
            &SystemConfig::skylake_like(4),
            jobs,
        )
    };
    assert_grids_identical(&mk(1), &mk(3));
}

#[test]
fn determinism_holds_below_and_above_the_multicore_derivation_floor() {
    // `--accesses N` derives the multi-core per-core budget as
    // max(N / 3, 100): N = 90 floors at 100 (below the floor), N = 900
    // derives 300 (above it). Both regimes — including the tiny budget where
    // some cores exhaust their trace almost immediately — must stay
    // byte-identical across worker counts.
    for accesses in [90usize, 900] {
        let multicore = (accesses / 3).max(100);
        let mk = |jobs: usize| {
            run_multicore_mix(
                &format!("streamcluster-x4@{accesses}"),
                &traces::parsec::per_core_sources("streamcluster", multicore, 4),
                &[SelectionAlgorithm::Ipcp, SelectionAlgorithm::Alecto],
                CompositeKind::GsCsPmp,
                &SystemConfig::skylake_like(4),
                jobs,
            )
        };
        assert_grids_identical(&mk(1), &mk(4));
    }
}

#[test]
fn streamed_suite_matches_a_materialised_rerun() {
    // The streaming engine must reproduce what eagerly collected workloads
    // produce: collect each source into a Workload, wrap it back into a
    // (records-backed) source, and compare full grids.
    let names = ["lbm", "mcf"];
    let streamed: Vec<alecto_repro::types::TraceSource> =
        names.iter().map(|n| traces::spec06::source(n, 600)).collect();
    let collected: Vec<alecto_repro::types::TraceSource> = streamed
        .iter()
        .map(|s| alecto_repro::types::TraceSource::from_workload(s.collect()))
        .collect();
    let algorithms = [SelectionAlgorithm::Ipcp, SelectionAlgorithm::Alecto];
    let config = SystemConfig::skylake_like(1);
    let a = run_single_core_suite(&streamed, &algorithms, CompositeKind::GsCsPmp, &config, 2);
    let b = run_single_core_suite(&collected, &algorithms, CompositeKind::GsCsPmp, &config, 2);
    assert_grids_identical(&a, &b);
}
