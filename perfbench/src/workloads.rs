//! The three workloads: how their inputs are made from the seed (set-up) and
//! how one timed pass runs them through the simulator's public entry points.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use alecto_types::{fnv1a_64, TraceSource};
use cpu::{CompositeKind, SelectionAlgorithm, System, SystemConfig, SystemReport};
use traces::Blend;

use crate::spans::Layer;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// DRAM-bound generator streams on one approx core.
    MemStream,
    /// Cache-resident traces replayed from `.altr` on one approx core.
    ResidentReplay,
    /// A four-benchmark mix on the eight-core out-of-order `server` machine.
    ServerMix,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 3] = [Kind::MemStream, Kind::ResidentReplay, Kind::ServerMix];

    /// The workload's command-line name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Kind::MemStream => "mem-stream",
            Kind::ResidentReplay => "resident-replay",
            Kind::ServerMix => "server-mix",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Benchmarks the workload draws its records from.
    #[must_use]
    pub const fn benchmarks(self) -> &'static [&'static str] {
        match self {
            Kind::MemStream => &["GemsFDTD", "lbm", "libquantum", "hash-join"],
            Kind::ResidentReplay => &["povray", "exchange2", "leela", "perlbench"],
            Kind::ServerMix => &["lbm", "mcf", "omnetpp", "web-cache"],
        }
    }

    /// Selection algorithms each benchmark (or the mix) runs under.
    #[must_use]
    pub const fn algorithms(self) -> &'static [SelectionAlgorithm] {
        match self {
            Kind::MemStream | Kind::ServerMix => &[
                SelectionAlgorithm::NoPrefetching,
                SelectionAlgorithm::Ipcp,
                SelectionAlgorithm::Bandit6,
                SelectionAlgorithm::Alecto,
            ],
            Kind::ResidentReplay => {
                &[SelectionAlgorithm::NoPrefetching, SelectionAlgorithm::Alecto]
            }
        }
    }
}

/// Records per cell (per core for the server mix) of each workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Records per mem-stream cell.
    pub mem_stream: usize,
    /// Records per resident-replay cell.
    pub resident_replay: usize,
    /// Records per core of each server-mix cell.
    pub server_mix: usize,
}

impl Scale {
    /// The benchmark's fixed size.
    pub const FULL: Scale =
        Scale { mem_stream: 100_000, resident_replay: 400_000, server_mix: 50_000 };

    /// A size small enough for the benchmark's own tests.
    pub const TINY: Scale = Scale { mem_stream: 3_000, resident_replay: 3_000, server_mix: 1_000 };

    /// Records per cell (per core) of `kind`.
    #[must_use]
    pub const fn records(self, kind: Kind) -> usize {
        match kind {
            Kind::MemStream => self.mem_stream,
            Kind::ResidentReplay => self.resident_replay,
            Kind::ServerMix => self.server_mix,
        }
    }
}

/// One simulation: an algorithm over a trace assignment.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The selection algorithm.
    pub algorithm: SelectionAlgorithm,
    /// Core `i` replays `sources[i % len]`.
    pub sources: Vec<TraceSource>,
    /// For replayed cells, the generator the recording was made from.
    pub generators: Option<Vec<TraceSource>>,
}

impl Cell {
    /// `benchmark/algorithm` label.
    #[must_use]
    pub fn label(&self) -> String {
        let names: Vec<&str> = self.sources.iter().map(TraceSource::name).collect();
        format!("{}/{}", names.join("+"), self.algorithm.label())
    }
}

/// A workload after set-up: its machine, its cells and the files it wrote.
#[derive(Debug)]
pub struct Prepared {
    /// The workload.
    pub kind: Kind,
    /// The lowered machine.
    pub config: SystemConfig,
    /// Composite prefetcher every cell runs.
    pub composite: CompositeKind,
    /// Cells, in pass order.
    pub cells: Vec<Cell>,
    /// The layer that produces the cells' records.
    pub producer: Layer,
    /// Size of the recorded `.altr` files in bytes (0 without recordings).
    pub recorded_bytes: u64,
}

impl Prepared {
    /// Records one pass simulates, over every cell and core.
    #[must_use]
    pub fn records_per_pass(&self) -> u64 {
        self.cells
            .iter()
            .flat_map(|cell| {
                (0..self.config.cores)
                    .map(|i| cell.sources[i % cell.sources.len()].memory_accesses())
            })
            .map(|n| n as u64)
            .sum()
    }

    /// Worker threads a pass runs its cells on.
    #[must_use]
    pub fn workers(&self) -> usize {
        match self.kind {
            Kind::ServerMix => harness::runner::worker_count(0, self.cells.len()),
            Kind::MemStream | Kind::ResidentReplay => 1,
        }
    }
}

/// The blend of `name` with the benchmark seed folded into its own seed.
fn seeded_blend(name: &str, seed: u64) -> Blend {
    let mut blend = match traces::Suite::of(name) {
        Some(traces::Suite::Spec06) => traces::spec06::blend(name),
        Some(traces::Suite::Spec17) => traces::spec17::blend(name),
        Some(traces::Suite::Database) => traces::db::blend(name),
        Some(traces::Suite::WebServe) => traces::web::blend(name),
        other => panic!("{name} ({other:?}) is not a blend-backed benchmark"),
    };
    blend.seed = fnv1a_64(blend.seed, &seed.to_le_bytes());
    blend
}

/// The generator source of `name` at `records` records under `seed`.
fn generator(name: &str, records: usize, seed: u64) -> TraceSource {
    seeded_blend(name, seed).source(records)
}

/// Makes the workload's inputs from `seed`: lowers the machine, builds the
/// generator sources and, for resident-replay, records them to `.altr`
/// files under `dir` (with `seed` in their headers) and opens the
/// recordings.
///
/// # Errors
///
/// Returns file errors from recording or opening the `.altr` files.
pub fn prepare(kind: Kind, seed: u64, scale: Scale, dir: &Path) -> io::Result<Prepared> {
    let records = scale.records(kind);
    let gens: Vec<TraceSource> =
        kind.benchmarks().iter().map(|name| generator(name, records, seed)).collect();
    match kind {
        Kind::MemStream => Ok(Prepared {
            kind,
            config: SystemConfig::skylake_like(1),
            composite: CompositeKind::GsCsPmp,
            cells: single_core_cells(kind, &gens, None),
            producer: Layer::Gen,
            recorded_bytes: 0,
        }),
        Kind::ResidentReplay => {
            let mut replays = Vec::with_capacity(gens.len());
            let mut recorded_bytes = 0;
            for source in &gens {
                let path: PathBuf = dir.join(format!("{}.altr", source.name()));
                traceio::record_source(source, seed, &path)?;
                recorded_bytes += std::fs::metadata(&path)?.len();
                replays.push(traceio::TraceReader::open(&path)?.source(None));
            }
            Ok(Prepared {
                kind,
                config: SystemConfig::skylake_like(1),
                composite: CompositeKind::GsCsPmp,
                cells: single_core_cells(kind, &replays, Some(&gens)),
                producer: Layer::Decode,
                recorded_bytes,
            })
        }
        Kind::ServerMix => {
            let spec = machine::builtin("server").expect("the server machine is built in");
            let composite = spec.prefetch.map_or(CompositeKind::GsCsPmp, cpu::composite_from_stack);
            let cells = kind
                .algorithms()
                .iter()
                .map(|&algorithm| Cell { algorithm, sources: gens.clone(), generators: None })
                .collect();
            Ok(Prepared {
                kind,
                config: SystemConfig::from_machine(&spec),
                composite,
                cells,
                producer: Layer::Gen,
                recorded_bytes: 0,
            })
        }
    }
}

fn single_core_cells(
    kind: Kind,
    sources: &[TraceSource],
    generators: Option<&[TraceSource]>,
) -> Vec<Cell> {
    sources
        .iter()
        .enumerate()
        .flat_map(|(i, source)| {
            kind.algorithms().iter().map(move |&algorithm| Cell {
                algorithm,
                sources: vec![source.clone()],
                generators: generators.map(|g| vec![g[i].clone()]),
            })
        })
        .collect()
}

/// Wall and CPU seconds of one timing unit: a cell of a serial workload,
/// or the whole pass of the server mix, whose cells run in parallel.
#[derive(Debug, Clone, Copy)]
pub struct UnitTime {
    /// Wall seconds.
    pub wall: f64,
    /// User+sys CPU seconds of the whole process.
    pub cpu: f64,
}

/// One untraced pass: a report per cell, and the time of each timing unit.
#[derive(Debug)]
pub struct Pass {
    /// One report per cell.
    pub reports: Vec<SystemReport>,
    /// Time of each timing unit.
    pub units: Vec<UnitTime>,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, UnitTime) {
    let cpu = crate::host::cpu_seconds();
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed().as_secs_f64();
    (out, UnitTime { wall, cpu: crate::host::cpu_seconds() - cpu })
}

/// Runs one pass over every cell, untraced, through the simulator's public
/// entry points: `System::run_sources` serially for the single-core
/// workloads, `harness::runner::run_multicore_mix` at one worker per
/// hardware thread for the server mix.
#[must_use]
pub fn run_pass(prep: &Prepared) -> Pass {
    match prep.kind {
        Kind::MemStream | Kind::ResidentReplay => {
            let (reports, units) =
                prep.cells.iter().map(|cell| timed(|| run_cell(prep, cell, &cell.sources))).unzip();
            Pass { reports, units }
        }
        Kind::ServerMix => {
            let (baseline, algorithms) =
                prep.kind.algorithms().split_first().expect("the mix has a baseline");
            assert_eq!(*baseline, SelectionAlgorithm::NoPrefetching);
            let (grid, unit) = timed(|| {
                harness::runner::run_multicore_mix(
                    prep.kind.name(),
                    &prep.cells[0].sources,
                    algorithms,
                    prep.composite,
                    &prep.config,
                    0,
                )
            });
            let bench = grid.benchmarks.into_iter().next().expect("one mix entry");
            let reports = std::iter::once(bench.baseline)
                .chain(bench.algorithms.into_iter().map(|a| a.report))
                .collect();
            Pass { reports, units: vec![unit] }
        }
    }
}

/// Runs `cell` on a fresh single system over `sources`.
#[must_use]
pub fn run_cell(prep: &Prepared, cell: &Cell, sources: &[TraceSource]) -> SystemReport {
    System::new(prep.config.clone(), cell.algorithm, prep.composite)
        .run_sources(sources)
        .expect("every cell has a source")
}

/// Digest of one report: FNV-1a64 over its `Debug` rendering, which covers
/// every simulated statistic.
fn digest(report: &SystemReport) -> u64 {
    fnv1a_64(alecto_types::FNV1A_OFFSET, format!("{report:?}").as_bytes())
}

/// Digest of a pass: the cell digests folded in order.
#[must_use]
pub fn pass_digest(reports: &[SystemReport]) -> u64 {
    reports
        .iter()
        .fold(alecto_types::FNV1A_OFFSET, |acc, r| fnv1a_64(acc, &digest(r).to_le_bytes()))
}
