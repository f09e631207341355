//! Cross-crate integration tests: exercise the full public API the way the
//! examples and the harness do — traces → system → selection → reports.

use alecto_repro::prelude::*;
use alecto_repro::types::TraceSource;

fn run(algorithm: SelectionAlgorithm, workload: &TraceSource) -> cpu::SystemReport {
    cpu::run_single_core(SystemConfig::skylake_like(1), algorithm, CompositeKind::GsCsPmp, workload)
}

/// Instructions one replay of `source` retires.
fn instructions(source: &TraceSource) -> u64 {
    source.records().map(|r| r.instructions()).sum()
}

#[test]
fn every_selection_algorithm_completes_a_spec_workload() {
    let workload = traces::spec06::source("GemsFDTD", 3_000);
    for algorithm in [
        SelectionAlgorithm::NoPrefetching,
        SelectionAlgorithm::Ipcp,
        SelectionAlgorithm::Dol,
        SelectionAlgorithm::Bandit3,
        SelectionAlgorithm::Bandit6,
        SelectionAlgorithm::BanditExtended,
        SelectionAlgorithm::Alecto,
        SelectionAlgorithm::AlectoFixedDegree(6),
        SelectionAlgorithm::PpfAggressive,
        SelectionAlgorithm::PpfConservative,
        SelectionAlgorithm::Triangel,
    ] {
        let report = run(algorithm, &workload);
        let core = &report.cores[0];
        assert!(core.ipc > 0.0 && core.ipc <= 4.0, "{algorithm:?}: IPC {} out of range", core.ipc);
        assert_eq!(core.instructions, instructions(&workload), "{algorithm:?}");
    }
}

#[test]
fn prefetching_helps_a_prefetch_friendly_benchmark() {
    let workload = traces::spec06::source("leslie3d", 8_000);
    let base = run(SelectionAlgorithm::NoPrefetching, &workload).cores[0].ipc;
    let alecto = run(SelectionAlgorithm::Alecto, &workload).cores[0].ipc;
    assert!(
        alecto > base * 1.05,
        "Alecto should speed up a streaming benchmark (got {alecto:.3} vs baseline {base:.3})"
    );
}

#[test]
fn prefetching_is_harmless_on_a_compute_bound_benchmark() {
    let workload = traces::spec06::source("povray", 6_000);
    let base = run(SelectionAlgorithm::NoPrefetching, &workload).cores[0].ipc;
    for algorithm in SelectionAlgorithm::main_comparison() {
        let ipc = run(algorithm, &workload).cores[0].ipc;
        assert!(
            ipc > base * 0.93,
            "{algorithm:?} must not slow down a cache-resident benchmark ({ipc:.3} vs {base:.3})"
        );
    }
}

#[test]
fn alecto_reduces_prefetcher_table_pressure_versus_ipcp() {
    // The Fig. 1 / Fig. 18 claim at integration level: with dynamic demand
    // request allocation the same composite prefetcher is trained far less.
    let mut ipcp_trainings = 0u64;
    let mut alecto_trainings = 0u64;
    for name in ["GemsFDTD", "mcf", "omnetpp", "soplex"] {
        let workload = traces::spec06::source(name, 5_000);
        ipcp_trainings += run(SelectionAlgorithm::Ipcp, &workload).cores[0].training_occurrences;
        alecto_trainings +=
            run(SelectionAlgorithm::Alecto, &workload).cores[0].training_occurrences;
    }
    assert!(
        (alecto_trainings as f64) < 0.8 * ipcp_trainings as f64,
        "Alecto should train the composite much less (alecto {alecto_trainings}, ipcp {ipcp_trainings})"
    );
}

#[test]
fn alecto_storage_matches_table3_and_beats_extended_bandit() {
    let alecto = cpu::build_selector(SelectionAlgorithm::Alecto, 3).unwrap();
    assert_eq!(alecto.storage_bits(), 5312 + 1792 * 3);
    let extended = cpu::build_selector(SelectionAlgorithm::BanditExtended, 3).unwrap();
    assert_eq!(extended.storage_bits(), 4 * 1024 * 8);
    assert!(extended.storage_bits() > 3 * alecto.storage_bits() / 2);
}

#[test]
fn eight_core_simulation_produces_consistent_reports() {
    let per_core = traces::parsec::per_core_sources("streamcluster", 1_200, 8);
    let mut system = cpu::System::new(
        SystemConfig::skylake_like(8),
        SelectionAlgorithm::Alecto,
        CompositeKind::GsCsPmp,
    );
    let report = system.run_sources(&per_core).expect("non-empty sources");
    assert_eq!(report.cores.len(), 8);
    assert!(report.geomean_ipc().unwrap() > 0.0);
    assert!(report.dram.accesses > 0);
    // Every core retired its whole trace.
    for (core, workload) in report.cores.iter().zip(&per_core) {
        assert_eq!(core.instructions, instructions(workload));
    }
}

#[test]
fn harness_quick_experiments_render() {
    let scale = harness::RunScale {
        accesses: 400,
        multicore_accesses: 200,
        ..harness::RunScale::default()
    };
    let fig19 = harness::figures::fig19(&scale);
    assert!(fig19.render().contains("Alecto"));
    let table3 = harness::figures::table3();
    assert_eq!(table3.table.cell("3", "Total (bytes)"), Some("1336"));
}

#[test]
fn alternate_composite_works_end_to_end() {
    let workload = traces::spec17::source("roms_17", 4_000);
    let report = cpu::run_single_core(
        SystemConfig::skylake_like(1),
        SelectionAlgorithm::Alecto,
        CompositeKind::GsBertiCplx,
        &workload,
    );
    assert_eq!(report.composite, "GS+Berti+CPLX");
    assert_eq!(report.cores[0].prefetchers.len(), 3);
    assert!(report.cores[0].prefetches_issued > 0);
}

#[test]
fn temporal_composite_trains_the_temporal_prefetcher() {
    let workload = traces::spec06::source("mcf", 6_000);
    let report = cpu::run_single_core(
        SystemConfig::skylake_like(1),
        SelectionAlgorithm::Triangel,
        CompositeKind::GsCsPmpTemporal { metadata_bytes: 256 * 1024 },
        &workload,
    );
    let tp = report.cores[0].prefetchers.iter().find(|p| p.name == "TP").expect("TP present");
    assert!(tp.stats.trainings > 0, "the temporal prefetcher must receive training");
}
