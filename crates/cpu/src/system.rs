//! The multi-core system driver: one [`CoreEngine`] per core (the timing
//! model [`SystemConfig::core_model`] selects, driven through the
//! [`CoreTiming`] trait), a shared [`memsys::Hierarchy`], and a
//! round-robin-by-time scheduler that keeps the cores in rough lockstep so
//! that shared-resource contention (L3, DRAM channels) is modelled
//! faithfully.
//!
//! # Record production
//!
//! Each core pulls its records on the simulating thread, in fixed batches of
//! [`DEFAULT_BATCH_RECORDS`] flattened back into one record stream, and the
//! serial min-time merge in `System::drive` decides the order they are
//! consumed in. Production never reorders the merge, so a streamed run and a
//! run over the materialised workloads yield byte-identical reports.

use std::fmt;

use alecto_types::{MemoryRecord, TraceSource, Workload};
use memsys::Hierarchy;
use prefetch::CompositeKind;

use crate::config::SystemConfig;
use crate::controller::PrefetchController;
use crate::core_timing::{CoreEngine, CoreTiming};
use crate::metrics::SystemReport;
use crate::selection::SelectionAlgorithm;

/// Records per batch each core pulls from its [`TraceSource`]: the drive
/// loop's fixed pull unit. Equals the `.altr` block size, so a batch of a
/// replayed trace is one decoded block.
pub const DEFAULT_BATCH_RECORDS: usize = 4096;

/// Validation error from [`System::run_sources`]: the run cannot start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunError {
    /// The source list was empty — there is nothing to assign to the cores.
    NoSources,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoSources => f.write_str("at least one workload is required"),
        }
    }
}

impl std::error::Error for RunError {}

/// A complete simulated system.
#[derive(Debug)]
pub struct System {
    config: SystemConfig,
    algorithm: SelectionAlgorithm,
    composite: CompositeKind,
    hierarchy: Hierarchy,
    cores: Vec<CoreEngine>,
}

impl System {
    /// Builds a system with `config`, running `algorithm` over `composite` on
    /// every core.
    #[must_use]
    pub fn new(
        config: SystemConfig,
        algorithm: SelectionAlgorithm,
        composite: CompositeKind,
    ) -> Self {
        let hierarchy = Hierarchy::new(config.hierarchy.clone());
        let cores = (0..config.cores)
            .map(|id| CoreEngine::new(id, &config, PrefetchController::new(composite, algorithm)))
            .collect();
        Self { config, algorithm, composite, hierarchy, cores }
    }

    /// Configuration in use.
    #[must_use]
    pub const fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The selection algorithm being simulated.
    #[must_use]
    pub const fn algorithm(&self) -> SelectionAlgorithm {
        self.algorithm
    }

    /// Runs the system to completion over one workload per core and returns
    /// the report. Workloads are assigned to cores in order; if fewer
    /// workloads than cores are provided, the assignment wraps around
    /// (homogeneous mixes simply pass a single workload).
    ///
    /// # Panics
    ///
    /// Panics if `workloads` is empty.
    pub fn run(&mut self, workloads: &[Workload]) -> SystemReport {
        assert!(!workloads.is_empty(), "at least one workload is required");
        let names: Vec<&str> =
            (0..self.cores.len()).map(|i| workloads[i % workloads.len()].name.as_str()).collect();
        let streams: Vec<RecordStream<'_>> = (0..self.cores.len())
            .map(|i| {
                Box::new(workloads[i % workloads.len()].records.iter().copied()) as RecordStream<'_>
            })
            .collect();
        self.drive(&names, streams)
    }

    /// Streaming counterpart of [`System::run`]: one lazy [`TraceSource`]
    /// per core (wrapping around like `run`), generating records on demand —
    /// O(1) trace memory however long the run. Produces exactly the report
    /// `run` would produce over the materialised workloads.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::NoSources`] if `sources` is empty.
    pub fn run_sources(&mut self, sources: &[TraceSource]) -> Result<SystemReport, RunError> {
        if sources.is_empty() {
            return Err(RunError::NoSources);
        }
        let names: Vec<&str> =
            (0..self.cores.len()).map(|i| sources[i % sources.len()].name()).collect();
        // Each core replays its own iterator, even when several cores share
        // one source (homogeneous mixes).
        let streams: Vec<RecordStream<'_>> = (0..self.cores.len())
            .map(|i| {
                Box::new(sources[i % sources.len()].record_batches(DEFAULT_BATCH_RECORDS).flatten())
                    as RecordStream<'_>
            })
            .collect();
        Ok(self.drive(&names, streams))
    }

    /// Advances the core with the smallest local time that still has trace
    /// left, so cores interleave their accesses to the shared levels in
    /// approximate timestamp order. Only one record per core is ever held in
    /// memory — the whole point of the streaming data path.
    fn drive(&mut self, names: &[&str], mut streams: Vec<RecordStream<'_>>) -> SystemReport {
        // Single-core fast path: with one stream the min-time merge always
        // selects core 0, so step straight through the records and skip the
        // per-record scan and pending-slot juggling entirely. Byte-identical
        // to the general loop below by construction.
        if self.cores.len() == 1 {
            let stream = streams.pop().expect("one stream per core");
            let core = &mut self.cores[0];
            for record in stream {
                core.step(&record, &mut self.hierarchy);
            }
            return self.assemble_report(names);
        }
        let mut pending: Vec<Option<MemoryRecord>> =
            streams.iter_mut().map(Iterator::next).collect();
        loop {
            let mut next: Option<usize> = None;
            let mut best_time = f64::INFINITY;
            for (i, core) in self.cores.iter().enumerate() {
                if pending[i].is_some() {
                    let t = core.current_time();
                    if t < best_time {
                        best_time = t;
                        next = Some(i);
                    }
                }
            }
            let Some(i) = next else { break };
            let record = pending[i].take().expect("selected core has a pending record");
            pending[i] = streams[i].next();
            self.cores[i].step(&record, &mut self.hierarchy);
        }
        self.assemble_report(names)
    }

    fn assemble_report(&self, names: &[&str]) -> SystemReport {
        SystemReport {
            selector: self.cores.first().map_or_else(
                || "NoPrefetch".to_string(),
                |c| c.controller().selector_name().to_string(),
            ),
            composite: self.composite.label(),
            cores: self
                .cores
                .iter()
                .enumerate()
                .map(|(i, core)| core.report(names[i], &self.hierarchy))
                .collect(),
            l3: *self.hierarchy.l3_stats(),
            dram: *self.hierarchy.dram_stats(),
            selector_storage_bits: self
                .cores
                .first()
                .map_or(0, |c| c.controller().selector_storage_bits()),
        }
    }
}

/// One core's record feed during a run (borrowed from the workload slice or
/// minted by a [`TraceSource`] factory).
type RecordStream<'a> = Box<dyn Iterator<Item = MemoryRecord> + 'a>;

// The parallel experiment engine builds a `System` from a shared
// `&SystemConfig` on a worker thread and sends the `SystemReport` back, so
// all three must be `Send` (and the inputs `Sync`). Asserting it here keeps
// the whole dependency tree honest: reintroducing an `Rc`, a raw pointer or
// a non-`Send` trait object anywhere below breaks the build, not the harness.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_sync<T: Sync>() {}
    assert_send::<System>();
    assert_send::<SystemConfig>();
    assert_sync::<SystemConfig>();
    assert_send::<SystemReport>();
    assert_sync::<SystemReport>();
    assert_send::<Workload>();
    assert_sync::<Workload>();
    assert_send::<TraceSource>();
    assert_sync::<TraceSource>();
};

/// Convenience helper: run `algorithm` on a single-core system over one
/// workload and return the report. Used heavily by the harness and tests.
#[must_use]
pub fn run_single_core(
    config: SystemConfig,
    algorithm: SelectionAlgorithm,
    composite: CompositeKind,
    workload: &Workload,
) -> SystemReport {
    let mut system = System::new(config, algorithm, composite);
    system.run(std::slice::from_ref(workload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use alecto_types::{Addr, MemoryRecord, Pc};

    fn stream_workload(n: u64, name: &str) -> Workload {
        let records = (0..n)
            .map(|i| MemoryRecord::load(Pc::new(0x400), Addr::new(0x40_0000 + i * 64), 6))
            .collect();
        Workload::new(name, records, true)
    }

    #[test]
    fn single_core_run_produces_report() {
        let report = run_single_core(
            SystemConfig::skylake_like(1),
            SelectionAlgorithm::Alecto,
            CompositeKind::GsCsPmp,
            &stream_workload(3_000, "stream"),
        );
        assert_eq!(report.cores.len(), 1);
        assert_eq!(report.selector, "Alecto");
        assert_eq!(report.composite, "GS+CS+PMP");
        assert!(report.cores[0].ipc > 0.0);
        assert!(report.dram.accesses > 0);
    }

    #[test]
    fn eight_core_homogeneous_run() {
        let mut system = System::new(
            SystemConfig::skylake_like(8),
            SelectionAlgorithm::Ipcp,
            CompositeKind::GsCsPmp,
        );
        let report = system.run(&[stream_workload(800, "stream")]);
        assert_eq!(report.cores.len(), 8);
        assert!(report.cores.iter().all(|c| c.instructions > 0));
        assert!(report.geomean_ipc().unwrap() > 0.0);
    }

    #[test]
    fn out_of_order_system_runs_and_reports_pipeline_metrics() {
        let config =
            SystemConfig::skylake_like(2).with_core_model(crate::config::CoreModelKind::OutOfOrder);
        let mut system = System::new(config, SelectionAlgorithm::Alecto, CompositeKind::GsCsPmp);
        let report = system.run(&[stream_workload(1_200, "stream")]);
        assert_eq!(report.cores.len(), 2);
        for core in &report.cores {
            assert!(core.ipc > 0.0 && core.ipc.is_finite());
            assert!(core.branch_mpki.is_some());
            assert!(core.rob_occupancy.is_some());
        }
        assert!(report.avg_branch_mpki().is_some());
        assert!(report.avg_rob_occupancy().is_some());
    }

    #[test]
    fn heterogeneous_assignment_wraps_workloads() {
        let mut system = System::new(
            SystemConfig::skylake_like(4),
            SelectionAlgorithm::NoPrefetching,
            CompositeKind::GsCsPmp,
        );
        let a = stream_workload(500, "a");
        let b = stream_workload(700, "b");
        let report = system.run(&[a, b]);
        assert_eq!(report.cores[0].workload, "a");
        assert_eq!(report.cores[1].workload, "b");
        assert_eq!(report.cores[2].workload, "a");
        assert_eq!(report.cores[3].workload, "b");
    }

    #[test]
    fn shared_dram_contention_lowers_multicore_ipc() {
        // The same DRAM-heavy workload run alone vs eight *distinct* copies
        // (each in its own address space, like SPEC-rate): per-core IPC must
        // drop when eight cores fight for the shared L3 and DRAM.
        let make = |core: u64| {
            let records: Vec<MemoryRecord> = (0..2_000)
                .map(|i| {
                    MemoryRecord::load(
                        Pc::new(0x90),
                        Addr::new((core + 1) * (1 << 36) + ((i * 7919) % 100_000) * 4096),
                        2,
                    )
                })
                .collect();
            Workload::new(format!("mem{core}"), records, true)
        };
        let single = run_single_core(
            SystemConfig::skylake_like(1),
            SelectionAlgorithm::NoPrefetching,
            CompositeKind::GsCsPmp,
            &make(0),
        );
        let mut multi = System::new(
            SystemConfig::skylake_like(8),
            SelectionAlgorithm::NoPrefetching,
            CompositeKind::GsCsPmp,
        );
        let copies: Vec<Workload> = (0..8).map(make).collect();
        let multi_report = multi.run(&copies);
        let avg_multi: f64 =
            multi_report.cores.iter().map(|c| c.ipc).sum::<f64>() / multi_report.cores.len() as f64;
        assert!(
            avg_multi < single.cores[0].ipc,
            "8-core contention should lower per-core IPC ({avg_multi} vs {})",
            single.cores[0].ipc
        );
    }

    #[test]
    fn streamed_run_matches_materialised_run() {
        // The same trace fed lazily (TraceSource) and eagerly (Workload)
        // must produce byte-identical reports — single and multi core, with
        // wrap-around assignment sharing one source between cores.
        let mk_source =
            |n: u64, name: &'static str| {
                TraceSource::new(name, true, usize::try_from(n).unwrap(), move || {
                    Box::new((0..n).map(|i| {
                        MemoryRecord::load(Pc::new(0x400), Addr::new(0x40_0000 + i * 64), 6)
                    }))
                })
            };
        for cores in [1usize, 4] {
            let sources = [mk_source(900, "s"), mk_source(500, "t")];
            let workloads: Vec<Workload> = sources.iter().map(TraceSource::collect).collect();
            let mut eager = System::new(
                SystemConfig::skylake_like(cores),
                SelectionAlgorithm::Alecto,
                CompositeKind::GsCsPmp,
            );
            let mut lazy = System::new(
                SystemConfig::skylake_like(cores),
                SelectionAlgorithm::Alecto,
                CompositeKind::GsCsPmp,
            );
            let a = eager.run(&workloads);
            let b = lazy.run_sources(&sources).expect("non-empty sources");
            assert_eq!(a, b, "streamed vs collected reports diverged at {cores} cores");
        }
    }

    #[test]
    fn empty_sources_is_a_validation_error() {
        let mut system = System::new(
            SystemConfig::skylake_like(1),
            SelectionAlgorithm::Alecto,
            CompositeKind::GsCsPmp,
        );
        let err = system.run_sources(&[]).unwrap_err();
        assert_eq!(err, RunError::NoSources);
        assert!(
            err.to_string().contains("at least one workload"),
            "error message should explain the validation failure"
        );
    }

    #[test]
    #[should_panic(expected = "at least one workload")]
    fn empty_workloads_panics() {
        let mut system = System::new(
            SystemConfig::skylake_like(1),
            SelectionAlgorithm::Alecto,
            CompositeKind::GsCsPmp,
        );
        let _ = system.run(&[]);
    }
}
