//! Generic experiment runner: sweeps selection algorithms over benchmark
//! sets and collects speedups against the no-prefetching baseline, the way
//! every speedup figure in the paper is constructed.
//!
//! # The parallel experiment engine
//!
//! Every benchmark × algorithm cell of a sweep — the baseline included — is
//! an *independent* simulation: it builds its own [`System`] from a shared
//! `&SystemConfig` and streams its records from a shared, immutable
//! [`TraceSource`] (each cell replays its own lazy iterator, so traces are
//! never materialised — a 10-million-access sweep holds one record batch
//! per core in memory). The engine fans the cells out across a [`std::thread::scope`]
//! worker pool (no external dependencies) and re-assembles the reports **in
//! job order**, so the resulting [`SpeedupGrid`] is byte-identical whatever
//! the worker count or the order in which workers finish. Determinism rests
//! on three guarantees, each enforced elsewhere in the workspace:
//!
//! 1. trace generation is seeded purely by benchmark name (and an optional
//!    job index — see [`traces::derive_seed`]), never by global state;
//! 2. the simulator contains no iteration over hash maps whose order could
//!    leak into results (ordered maps with explicit tie-breaks are used in
//!    the MSHR file, the temporal prefetcher and PPF);
//! 3. cells never share mutable state: `cpu` statically asserts that
//!    `System` construction is `Send`-clean.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use alecto_types::{fnv1a_64, geomean, TraceSource, FNV1A_OFFSET};
use cpu::{CompositeKind, SelectionAlgorithm, System, SystemConfig, SystemReport};

use crate::report::Table;

/// How large the generated traces are, how many worker threads execute the
/// sweep, and which machine description the sweep cells are configured
/// with. The defaults keep a full-suite sweep tractable in a release build;
/// the integration tests use smaller values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunScale {
    /// Memory accesses per single-core workload.
    pub accesses: usize,
    /// Memory accesses per core in multi-core runs.
    pub multicore_accesses: usize,
    /// Worker threads for the experiment engine; `0` means one per available
    /// hardware thread. The value never changes results, only wall-clock.
    pub jobs: usize,
    /// Core timing model every sweep cell is configured with (except cells an
    /// experiment pins explicitly, such as the `timing` figure's dedicated
    /// out-of-order regime). When a [`RunScale::machine`] is set this is
    /// initialised from the machine's `[core] model` and an explicit
    /// `--core-model` flag then overrides it.
    pub core_model: cpu::CoreModelKind,
    /// Machine description the sweep cells lower their [`SystemConfig`]s
    /// from (`--machine` / the sweep server's `"machine"` field). `None`
    /// means the anonymous Table-I defaults — the historical behaviour,
    /// byte-identical to before machines existed.
    pub machine: Option<machine::MachineSpec>,
}

impl Default for RunScale {
    fn default() -> Self {
        Self {
            accesses: 20_000,
            multicore_accesses: 6_000,
            jobs: 0,
            core_model: cpu::CoreModelKind::Approx,
            machine: None,
        }
    }
}

impl RunScale {
    /// A reduced scale for smoke tests and CI.
    #[must_use]
    pub fn quick() -> Self {
        Self { accesses: 4_000, multicore_accesses: 1_500, ..Self::default() }
    }

    /// A scale with explicit access budgets and the default (auto) worker
    /// count — the common constructor for tests and benches.
    #[must_use]
    pub fn with_accesses(accesses: usize, multicore_accesses: usize) -> Self {
        Self { accesses, multicore_accesses, ..Self::default() }
    }

    /// Same scale with an explicit worker count.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Same scale with an explicit core timing model.
    #[must_use]
    pub fn with_core_model(mut self, core_model: cpu::CoreModelKind) -> Self {
        self.core_model = core_model;
        self
    }

    /// Same scale running on the given machine description. The machine's
    /// core model becomes the sweep-wide model (a later
    /// [`RunScale::with_core_model`] still overrides it, mirroring how the
    /// CLI layers `--core-model` over `--machine`).
    #[must_use]
    pub fn with_machine(mut self, spec: machine::MachineSpec) -> Self {
        self.core_model = spec.core_model;
        self.machine = Some(spec);
        self
    }

    /// The machine spec experiments lower configs from at a given structural
    /// core count: the selected machine rescaled to `cores` (keeping its
    /// per-core geometry), or the anonymous Table-I machine when no machine
    /// was selected.
    #[must_use]
    pub fn machine_at(&self, cores: usize) -> machine::MachineSpec {
        match &self.machine {
            Some(spec) => spec.clone().with_cores(cores),
            None => machine::MachineSpec::table1(cores),
        }
    }

    /// The [`SystemConfig`] a sweep cell at `cores` cores runs under: the
    /// scale's machine lowered at that core count, with the scale's core
    /// model applied on top. This is the one funnel every figure builder
    /// goes through.
    #[must_use]
    pub fn base_config(&self, cores: usize) -> SystemConfig {
        SystemConfig::from_machine(&self.machine_at(cores)).with_core_model(self.core_model)
    }

    /// Structural core count for multi-core experiments: the machine's own
    /// core count when one is selected, otherwise the experiment's
    /// historical default.
    #[must_use]
    pub fn multicore_cores(&self, default: usize) -> usize {
        self.machine.as_ref().map_or(default, |spec| spec.cores)
    }

    /// The composite prefetcher stack experiment cells run: the machine's
    /// pinned `[prefetch]` stack when the selected machine has one,
    /// otherwise the experiment's own `default`. Figures whose *subject* is
    /// a composite comparison (Figs. 11–14) keep their explicit composites
    /// and do not consult this.
    #[must_use]
    pub fn composite(&self, default: CompositeKind) -> CompositeKind {
        match self.machine.as_ref().and_then(|spec| spec.prefetch) {
            Some(stack) => cpu::composite_from_stack(stack),
            None => default,
        }
    }

    /// Resolves a scale request the way the CLI documents, in order: the
    /// preset (`quick` or default), then `accesses` (which also derives the
    /// per-core multi-core budget as `max(accesses / 3, 100)`, mirroring the
    /// default scale's ratio), then an explicit `multicore_accesses`
    /// override, then the worker count. The sweep server resolves request
    /// bodies through this same function, so an HTTP sweep and a CLI run
    /// with equivalent parameters simulate the identical scale — a
    /// precondition for their reports being byte-identical.
    #[must_use]
    pub fn resolve(
        quick: bool,
        accesses: Option<usize>,
        multicore_accesses: Option<usize>,
        jobs: Option<usize>,
    ) -> Self {
        let mut scale = if quick { Self::quick() } else { Self::default() };
        if let Some(n) = accesses {
            scale.accesses = n;
            scale.multicore_accesses = (n / 3).max(100);
        }
        if let Some(n) = multicore_accesses {
            scale.multicore_accesses = n;
        }
        if let Some(n) = jobs {
            scale.jobs = n;
        }
        scale
    }
}

/// Resolves a requested worker count: `0` means one worker per available
/// hardware thread (falling back to 1 if that cannot be determined).
#[must_use]
pub fn effective_jobs(requested: usize) -> usize {
    if requested == 0 {
        thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        requested
    }
}

/// Worker threads actually spawned for `job_count` jobs under a requested
/// `--jobs` value: the resolved count clamped to the number of jobs, so
/// `--jobs 64` on a 6-cell grid spawns 6 workers, not 64 mostly-idle
/// threads (and never fewer than one).
#[must_use]
pub fn worker_count(requested: usize, job_count: usize) -> usize {
    effective_jobs(requested).min(job_count).max(1)
}

/// One independent simulation cell: one algorithm (or the baseline) over one
/// trace-source assignment under one system configuration. Sources are lazy:
/// the cell regenerates its records on its worker thread, so a sweep's
/// memory footprint is O(cells in flight), never O(trace length).
///
/// This is the unit of work the sweep server's cell cache memoizes:
/// [`CellJob::cache_key`] digests everything that determines the cell's
/// [`SystemReport`], so equal keys mean byte-identical results (the
/// determinism contract — see `docs/ARCHITECTURE.md`).
#[derive(Debug, Clone, Copy)]
pub struct CellJob<'a> {
    /// Selection algorithm of this cell ([`SelectionAlgorithm::NoPrefetching`]
    /// for the implicit baseline cell).
    pub algorithm: SelectionAlgorithm,
    /// Composite prefetcher configuration simulated under the algorithm.
    pub composite: CompositeKind,
    /// Shared system configuration (caches, timing, selector epochs).
    pub config: &'a SystemConfig,
    /// Trace assignment: core `i` replays `sources[i % sources.len()]`.
    pub sources: &'a [TraceSource],
}

impl CellJob<'_> {
    /// The cell's content-addressed cache key: a canonical FNV-1a64 digest of
    /// the algorithm, the composite, the full [`SystemConfig`] (its `Debug`
    /// rendering covers every field, [`memsys::TimingParams`] included) and each
    /// trace source's [`TraceSource::fingerprint`] (which folds in names,
    /// access budgets, generation seeds and `.altr` body checksums). Every
    /// input that can change the cell's report feeds the key, so two cells
    /// with equal keys produce byte-identical [`SystemReport`]s — the
    /// invariant `harness::cellcache` memoization rests on.
    #[must_use]
    pub fn cache_key(&self) -> u64 {
        let mut key = fnv1a_64(FNV1A_OFFSET, b"cell-v1|");
        key = fnv1a_64(key, self.algorithm.label().as_bytes());
        key = fnv1a_64(key, b"|");
        key = fnv1a_64(key, format!("{:?}", self.composite).as_bytes());
        key = fnv1a_64(key, b"|");
        key = fnv1a_64(key, format!("{:?}", self.config).as_bytes());
        key = fnv1a_64(key, &(self.sources.len() as u64).to_le_bytes());
        for source in self.sources {
            key = fnv1a_64(key, &source.fingerprint().to_le_bytes());
        }
        key
    }
}

/// Simulates one cell from scratch (no memoization): builds a fresh
/// [`System`] and streams the cell's sources through it. This is the ground
/// truth every [`CellExecutor`] must agree with on a cache miss.
#[must_use]
pub fn run_cell(cell: &CellJob<'_>) -> SystemReport {
    let mut system = System::new(cell.config.clone(), cell.algorithm, cell.composite);
    system.run_sources(cell.sources).expect("cells are validated to carry at least one source")
}

/// A pluggable cell-execution strategy, consulted for every cell the
/// experiment engine runs. Implementations must return exactly what
/// [`run_cell`] would (e.g. by memoizing it keyed on [`CellJob::cache_key`]);
/// the engine cannot tell a cached report from a fresh one — by design.
///
/// Executors are called concurrently from worker threads, hence the
/// `Send + Sync` bound.
pub trait CellExecutor: Send + Sync {
    /// Produces the report for `cell` — by simulation, from a cache, or both.
    fn execute(&self, cell: &CellJob<'_>) -> SystemReport;
}

thread_local! {
    /// The executor the *calling* thread has scoped in via
    /// [`with_cell_executor`]; `None` means plain [`run_cell`].
    static CELL_EXECUTOR: RefCell<Option<Arc<dyn CellExecutor>>> = const { RefCell::new(None) };
}

/// Runs `f` with `executor` installed as the current thread's cell executor:
/// every suite the closure runs (however deep in the figure builders) routes
/// its cells through `executor` instead of bare [`run_cell`]. The previous
/// executor is restored on exit, even on panic, and the installation is
/// thread-local, so parallel tests (and parallel server requests, each on
/// its own worker thread) cannot observe each other's executors.
pub fn with_cell_executor<R>(executor: Arc<dyn CellExecutor>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<dyn CellExecutor>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CELL_EXECUTOR.with(|slot| *slot.borrow_mut() = self.0.take());
        }
    }
    let _restore = Restore(CELL_EXECUTOR.with(|slot| slot.borrow_mut().replace(executor)));
    f()
}

/// Executes `jobs` across up to `requested_workers` scoped worker threads
/// (resolved via [`effective_jobs`]) and returns the reports **in job
/// order**, regardless of which worker ran which job or in what order they
/// finished. Workers pull jobs from a shared atomic counter, so long cells
/// do not leave threads idle behind a static partition.
///
/// The calling thread's [`with_cell_executor`] scope (if any) is captured
/// here — before the workers spawn — and shared with all of them, so a
/// memoizing executor applies to every cell of the sweep regardless of which
/// thread runs it.
///
/// # Panics
///
/// Panics if a worker thread panics (the cell's own panic is propagated).
fn execute_jobs(jobs: &[CellJob<'_>], requested_workers: usize) -> Vec<SystemReport> {
    let executor = CELL_EXECUTOR.with(|slot| slot.borrow().clone());
    let workers = worker_count(requested_workers, jobs.len());
    let run = |job: &CellJob<'_>| match &executor {
        Some(executor) => executor.execute(job),
        None => run_cell(job),
    };
    if workers == 1 {
        return jobs.iter().map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<SystemReport>> = (0..jobs.len()).map(|_| None).collect();
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut completed = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(idx) else { break };
                        completed.push((idx, run(job)));
                    }
                    completed
                })
            })
            .collect();
        for handle in handles {
            for (idx, report) in handle.join().expect("experiment worker panicked") {
                results[idx] = Some(report);
            }
        }
    });
    results.into_iter().map(|r| r.expect("every job executed exactly once")).collect()
}

/// Result of one benchmark under one selection algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct AlgoResult {
    /// Algorithm label.
    pub algorithm: String,
    /// Speedup of geomean IPC over the no-prefetching baseline.
    pub speedup: f64,
    /// Full system report for deeper metrics.
    pub report: SystemReport,
}

/// Result of one benchmark across all algorithms.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Whether the benchmark is memory intensive.
    pub memory_intensive: bool,
    /// No-prefetching baseline report.
    pub baseline: SystemReport,
    /// Per-algorithm results.
    pub algorithms: Vec<AlgoResult>,
}

/// A grid of speedups: benchmarks × algorithms.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupGrid {
    /// Algorithm labels, in run order.
    pub algorithm_labels: Vec<String>,
    /// Per-benchmark results.
    pub benchmarks: Vec<BenchResult>,
}

impl SpeedupGrid {
    /// Speedup of `algorithm` on `benchmark`, if present.
    #[must_use]
    pub fn speedup(&self, benchmark: &str, algorithm: &str) -> Option<f64> {
        self.benchmarks
            .iter()
            .find(|b| b.benchmark == benchmark)?
            .algorithms
            .iter()
            .find(|a| a.algorithm == algorithm)
            .map(|a| a.speedup)
    }

    /// Geomean speedup of `algorithm` over the selected benchmarks
    /// (`memory_intensive_only` restricts to the dotted-box subset).
    #[must_use]
    pub fn geomean_speedup(&self, algorithm: &str, memory_intensive_only: bool) -> Option<f64> {
        let values: Vec<f64> = self
            .benchmarks
            .iter()
            .filter(|b| !memory_intensive_only || b.memory_intensive)
            .filter_map(|b| {
                b.algorithms.iter().find(|a| a.algorithm == algorithm).map(|a| a.speedup)
            })
            .collect();
        geomean(&values)
    }

    /// Renders the grid as a speedup table with per-benchmark rows plus
    /// `Geomean-Mem` and `Geomean-All` summary rows (as in Figs. 8/9).
    #[must_use]
    pub fn to_table(&self) -> Table {
        let mut headers = vec!["benchmark".to_string()];
        headers.extend(self.algorithm_labels.clone());
        let mut table = Table::new(headers);
        for bench in &self.benchmarks {
            let mut row = vec![format!(
                "{}{}",
                bench.benchmark,
                if bench.memory_intensive { " *" } else { "" }
            )];
            for label in &self.algorithm_labels {
                let s = bench
                    .algorithms
                    .iter()
                    .find(|a| &a.algorithm == label)
                    .map_or(f64::NAN, |a| a.speedup);
                row.push(format!("{s:.3}"));
            }
            table.push_row(row);
        }
        for (label_row, mem_only) in [("Geomean-Mem", true), ("Geomean-All", false)] {
            let mut row = vec![label_row.to_string()];
            for label in &self.algorithm_labels {
                let g = self.geomean_speedup(label, mem_only).unwrap_or(f64::NAN);
                row.push(format!("{g:.3}"));
            }
            table.push_row(row);
        }
        table
    }
}

/// Assembles a [`BenchResult`] from a baseline report followed by one report
/// per algorithm, in `algorithms` order.
fn assemble_bench(
    benchmark: &str,
    memory_intensive: bool,
    algorithms: &[SelectionAlgorithm],
    reports: &mut impl Iterator<Item = SystemReport>,
) -> BenchResult {
    let baseline = reports.next().expect("baseline report for every benchmark");
    let base_ipc = baseline.geomean_ipc().unwrap_or(1e-9);
    let algo_results = algorithms
        .iter()
        .map(|algo| {
            let report = reports.next().expect("one report per algorithm");
            let ipc = report.geomean_ipc().unwrap_or(0.0);
            AlgoResult { algorithm: algo.label().to_string(), speedup: ipc / base_ipc, report }
        })
        .collect();
    BenchResult {
        benchmark: benchmark.to_string(),
        memory_intensive,
        baseline,
        algorithms: algo_results,
    }
}

/// Runs `algorithms` (plus the implicit no-prefetching baseline) on every
/// trace source, single-core, across `jobs` worker threads (`0` = auto), and
/// returns the speedup grid. The grid is identical for every `jobs` value.
/// Sources stream: however large the access budget, no cell ever
/// materialises its trace.
#[must_use]
pub fn run_single_core_suite(
    sources: &[TraceSource],
    algorithms: &[SelectionAlgorithm],
    composite: CompositeKind,
    config: &SystemConfig,
    jobs: usize,
) -> SpeedupGrid {
    let cells: Vec<CellJob<'_>> = sources
        .iter()
        .flat_map(|source| {
            std::iter::once(SelectionAlgorithm::NoPrefetching)
                .chain(algorithms.iter().copied())
                .map(move |algorithm| CellJob {
                    algorithm,
                    composite,
                    config,
                    sources: std::slice::from_ref(source),
                })
        })
        .collect();
    let mut reports = execute_jobs(&cells, jobs).into_iter();
    let benchmarks = sources
        .iter()
        .map(|s| assemble_bench(s.name(), s.memory_intensive(), algorithms, &mut reports))
        .collect();
    SpeedupGrid {
        algorithm_labels: algorithms.iter().map(|a| a.label().to_string()).collect(),
        benchmarks,
    }
}

/// Runs `algorithms` (plus the baseline) on a multi-core system where core
/// `i` streams `sources[i % sources.len()]`, one full-system simulation per
/// algorithm across `jobs` worker threads. The grid contains a single
/// "benchmark" entry named `mix_name`.
#[must_use]
pub fn run_multicore_mix(
    mix_name: &str,
    sources: &[TraceSource],
    algorithms: &[SelectionAlgorithm],
    composite: CompositeKind,
    config: &SystemConfig,
    jobs: usize,
) -> SpeedupGrid {
    let cells: Vec<CellJob<'_>> = std::iter::once(SelectionAlgorithm::NoPrefetching)
        .chain(algorithms.iter().copied())
        .map(|algorithm| CellJob { algorithm, composite, config, sources })
        .collect();
    let mut reports = execute_jobs(&cells, jobs).into_iter();
    let memory_intensive = sources.iter().any(TraceSource::memory_intensive);
    let bench = assemble_bench(mix_name, memory_intensive, algorithms, &mut reports);
    SpeedupGrid {
        algorithm_labels: algorithms.iter().map(|a| a.label().to_string()).collect(),
        benchmarks: vec![bench],
    }
}

/// Merges several grids that share the same algorithm labels (used to combine
/// the SPEC06 and SPEC17 halves of a figure).
///
/// # Panics
///
/// Panics if the grids disagree on algorithm labels.
#[must_use]
pub fn merge_grids(grids: Vec<SpeedupGrid>) -> SpeedupGrid {
    let mut iter = grids.into_iter();
    let mut first = iter.next().expect("at least one grid to merge");
    for grid in iter {
        assert_eq!(grid.algorithm_labels, first.algorithm_labels, "grids must share algorithms");
        first.benchmarks.extend(grid.benchmarks);
    }
    first
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_workloads() -> Vec<TraceSource> {
        vec![traces::spec06::source("lbm", 1_500), traces::spec06::source("povray", 1_500)]
    }

    #[test]
    fn grid_contains_all_benchmarks_and_algorithms() {
        let grid = run_single_core_suite(
            &tiny_workloads(),
            &[SelectionAlgorithm::Ipcp, SelectionAlgorithm::Alecto],
            CompositeKind::GsCsPmp,
            &SystemConfig::skylake_like(1),
            1,
        );
        assert_eq!(grid.benchmarks.len(), 2);
        assert_eq!(grid.algorithm_labels, vec!["IPCP", "Alecto"]);
        assert!(grid.speedup("lbm", "Alecto").unwrap() > 0.5);
        assert!(grid.geomean_speedup("IPCP", false).is_some());
        let table = grid.to_table();
        assert!(table.render().contains("Geomean-All"));
    }

    #[test]
    fn serial_and_parallel_grids_are_identical() {
        let workloads = tiny_workloads();
        let algorithms = [SelectionAlgorithm::Ipcp, SelectionAlgorithm::Alecto];
        let config = SystemConfig::skylake_like(1);
        let serial =
            run_single_core_suite(&workloads, &algorithms, CompositeKind::GsCsPmp, &config, 1);
        let parallel =
            run_single_core_suite(&workloads, &algorithms, CompositeKind::GsCsPmp, &config, 4);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn worker_count_exceeding_job_count_is_harmless() {
        let grid = run_single_core_suite(
            &[traces::spec06::source("lbm", 400)],
            &[SelectionAlgorithm::Ipcp],
            CompositeKind::GsCsPmp,
            &SystemConfig::skylake_like(1),
            64,
        );
        assert_eq!(grid.benchmarks.len(), 1);
        assert_eq!(grid.benchmarks[0].algorithms.len(), 1);
    }

    #[test]
    fn effective_jobs_resolves_auto() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(3), 3);
    }

    #[test]
    fn worker_count_is_clamped_to_the_job_count() {
        // --jobs 64 on a 6-cell grid spawns 6 workers, not 64 idle threads.
        assert_eq!(worker_count(64, 6), 6);
        assert_eq!(worker_count(4, 6), 4);
        // Degenerate grids still get one worker.
        assert_eq!(worker_count(8, 0), 1);
        // Auto resolution is clamped the same way.
        assert!(worker_count(0, 2) <= 2);
        assert!(worker_count(0, 1_000_000) >= 1);
    }

    #[test]
    fn memory_intensive_geomean_filters() {
        let grid = run_single_core_suite(
            &tiny_workloads(),
            &[SelectionAlgorithm::Ipcp],
            CompositeKind::GsCsPmp,
            &SystemConfig::skylake_like(1),
            2,
        );
        // Only lbm is memory intensive in the tiny set.
        let mem = grid.geomean_speedup("IPCP", true).unwrap();
        let lbm = grid.speedup("lbm", "IPCP").unwrap();
        assert!((mem - lbm).abs() < 1e-12);
    }

    #[test]
    fn multicore_mix_produces_single_entry() {
        let grid = run_multicore_mix(
            "homog-lbm",
            &traces::parsec::per_core_sources("streamcluster", 600, 2),
            &[SelectionAlgorithm::Ipcp],
            CompositeKind::GsCsPmp,
            &SystemConfig::skylake_like(2),
            2,
        );
        assert_eq!(grid.benchmarks.len(), 1);
        assert_eq!(grid.benchmarks[0].baseline.cores.len(), 2);
    }

    #[test]
    fn multicore_mix_is_deterministic_across_worker_counts() {
        let workloads = traces::parsec::per_core_sources("canneal", 400, 2);
        let algorithms = [SelectionAlgorithm::Ipcp, SelectionAlgorithm::Alecto];
        let config = SystemConfig::skylake_like(2);
        let serial =
            run_multicore_mix("mix", &workloads, &algorithms, CompositeKind::GsCsPmp, &config, 1);
        let parallel =
            run_multicore_mix("mix", &workloads, &algorithms, CompositeKind::GsCsPmp, &config, 3);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn merge_concatenates_benchmarks() {
        let a = run_single_core_suite(
            &[traces::spec06::source("lbm", 800)],
            &[SelectionAlgorithm::Ipcp],
            CompositeKind::GsCsPmp,
            &SystemConfig::skylake_like(1),
            1,
        );
        let b = run_single_core_suite(
            &[traces::spec17::source("lbm_17", 800)],
            &[SelectionAlgorithm::Ipcp],
            CompositeKind::GsCsPmp,
            &SystemConfig::skylake_like(1),
            2,
        );
        let merged = merge_grids(vec![a, b]);
        assert_eq!(merged.benchmarks.len(), 2);
    }

    #[test]
    fn scale_presets() {
        assert!(RunScale::default().accesses > RunScale::quick().accesses);
        assert_eq!(RunScale::with_accesses(100, 50).with_jobs(2).jobs, 2);
    }

    #[test]
    fn cache_key_covers_every_cell_input() {
        let sources = tiny_workloads();
        let config = SystemConfig::skylake_like(1);
        let base = CellJob {
            algorithm: SelectionAlgorithm::Alecto,
            composite: CompositeKind::GsCsPmp,
            config: &config,
            sources: &sources[..1],
        };
        assert_eq!(base.cache_key(), base.cache_key(), "key must be deterministic");
        assert_ne!(
            base.cache_key(),
            CellJob { algorithm: SelectionAlgorithm::Ipcp, ..base }.cache_key(),
            "algorithm"
        );
        assert_ne!(
            base.cache_key(),
            CellJob { composite: CompositeKind::PmpOnly, ..base }.cache_key(),
            "composite"
        );
        let other_config = SystemConfig::skylake_like(2);
        assert_ne!(
            base.cache_key(),
            CellJob { config: &other_config, ..base }.cache_key(),
            "system configuration"
        );
        let ooo_config =
            SystemConfig::skylake_like(1).with_core_model(cpu::CoreModelKind::OutOfOrder);
        assert_ne!(
            base.cache_key(),
            CellJob { config: &ooo_config, ..base }.cache_key(),
            "core timing model"
        );
        assert_ne!(
            base.cache_key(),
            CellJob { sources: &sources[1..], ..base }.cache_key(),
            "trace source"
        );
        assert_ne!(
            base.cache_key(),
            CellJob { sources: &sources, ..base }.cache_key(),
            "source count"
        );
        let resized = [traces::spec06::source("lbm", 1_600)];
        assert_ne!(
            base.cache_key(),
            CellJob { sources: &resized, ..base }.cache_key(),
            "access budget (same benchmark name)"
        );
    }

    #[test]
    fn scoped_executor_intercepts_every_cell_and_restores() {
        use std::sync::atomic::AtomicUsize;

        struct Counting(AtomicUsize);
        impl CellExecutor for Counting {
            fn execute(&self, cell: &CellJob<'_>) -> SystemReport {
                self.0.fetch_add(1, Ordering::Relaxed);
                run_cell(cell)
            }
        }

        let workloads = tiny_workloads();
        let algorithms = [SelectionAlgorithm::Ipcp];
        let config = SystemConfig::skylake_like(1);
        let plain =
            run_single_core_suite(&workloads, &algorithms, CompositeKind::GsCsPmp, &config, 1);
        let counter = Arc::new(Counting(AtomicUsize::new(0)));
        let via_executor =
            with_cell_executor(Arc::clone(&counter) as Arc<dyn CellExecutor>, || {
                // Parallel workers must all observe the caller's executor.
                run_single_core_suite(&workloads, &algorithms, CompositeKind::GsCsPmp, &config, 4)
            });
        // 2 benchmarks × (baseline + 1 algorithm) = 4 cells, all intercepted.
        assert_eq!(counter.0.load(Ordering::Relaxed), 4);
        assert_eq!(plain, via_executor, "a delegating executor must not change results");
        // The scope has ended: subsequent suites run uninstrumented.
        let _ = run_single_core_suite(&workloads, &algorithms, CompositeKind::GsCsPmp, &config, 1);
        assert_eq!(counter.0.load(Ordering::Relaxed), 4);
    }
}
