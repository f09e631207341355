//! Host-time benchmark of the Alecto simulator.
//!
//! One run sets a named workload up from a seed, times untraced passes over
//! its cells through the simulator's public entry points, checks the
//! simulated outputs, and, when asked, re-drives the same cells through the
//! layers' public functions under sampled spans to split the time by layer.
//! See `README.md` beside this crate for the workloads, the metrics and what
//! each layer metric should move.

#![forbid(unsafe_code)]

pub mod host;
pub mod redrive;
pub mod spans;
pub mod workloads;

use std::collections::BTreeSet;
use std::hint::black_box;
use std::io::{self, Cursor};
use std::path::{Path, PathBuf};
use std::time::Instant;

use alecto_types::TraceSource;
use cpu::controller::ControllerStats;
use cpu::{CoreModelKind, SelectionAlgorithm, System, SystemReport};

use crate::host::Host;
use crate::redrive::{add_stats, redrive_approx, redrive_engine};
use crate::spans::{clock_read_ns, ratio, Layer, LayerTotals, Tracer};
use crate::workloads::{Kind, Prepared, Scale, UnitTime};

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// A seed kept out of tuning, to re-check a gain claimed on other seeds.
pub const HELD_OUT_SEED: u64 = 20_261_017;

/// Fewest set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// Shortest batch of back-to-back set-ups one repetition times.
const SETUP_BATCH_SECONDS: f64 = 0.01;

/// Untraced passes made even when the time is up (two, so pass-to-pass
/// determinism is always checked).
const MIN_PASSES: usize = 2;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub kind: Kind,
    /// Seed the inputs are made from.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Whether to make the traced run (per-layer metrics).
    pub trace: bool,
    /// Records per cell.
    pub scale: Scale,
    /// Directory for the `.altr` recordings; must exist.
    pub work_dir: PathBuf,
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The per-pass and per-set-up values behind the reported figures.
#[derive(Debug, Clone, Default)]
pub struct PassLog {
    /// Set-up seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Wall seconds of each untraced pass.
    pub wall_s: Vec<f64>,
    /// CPU seconds of each untraced pass.
    pub cpu_s: Vec<f64>,
    /// Wall seconds of each traced pass.
    pub traced_wall_s: Vec<f64>,
}

/// Everything one run measured and checked.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// End-to-end metrics (untraced), `fail_frac` included.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics of the traced run (empty without one).
    pub per_layer: Vec<Metric>,
    /// Self-time share of the traced wall-clock per layer (and, on the
    /// server mix, of the approx-core probe).
    pub shares: Vec<(String, f64)>,
    /// Cells attempted.
    pub attempted: u64,
    /// Cells that failed an output check.
    pub failed: u64,
    /// What failed, one line per failure.
    pub failures: Vec<String>,
    /// Digest of the simulated reports of one pass.
    pub digest: u64,
    /// Records one pass simulates.
    pub records_per_pass: u64,
    /// The per-pass values.
    pub passes: PassLog,
    /// The host.
    pub host: Host,
}

/// The output checks: which cells failed, and why.
///
/// Every check compares two runs of the same cell that the simulator's
/// contract says must agree exactly (two passes, a replay and its
/// generator, the traced re-drive and the untraced run, parallel and serial
/// cells), so a deliberate model change moves both sides and fails none.
#[derive(Debug, Default)]
pub struct Checks {
    failed: BTreeSet<usize>,
    failures: Vec<String>,
}

impl Checks {
    /// Marks cell `cell` failed.
    fn fail(&mut self, cell: usize, label: &str, what: &str) {
        self.failed.insert(cell);
        self.failures.push(format!("{label}: {what}"));
    }

    /// Marks every cell whose report in `other` differs from `reference`.
    pub fn compare(
        &mut self,
        prep: &Prepared,
        reference: &[SystemReport],
        other: &[SystemReport],
        what: &str,
    ) {
        for (i, cell) in prep.cells.iter().enumerate() {
            if reference.get(i) != other.get(i) {
                self.fail(i, &cell.label(), what);
            }
        }
    }

    /// Cells failed so far.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failed.len() as u64
    }

    /// Failed cells over `attempted` cells.
    #[must_use]
    pub fn fail_frac(&self, attempted: u64) -> f64 {
        ratio(self.failed() as f64, attempted as f64)
    }
}

fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Sets the workload up in `dir`, timing it into `log.setup_s`. A set-up of
/// a few µs is timed as the mean of a batch of back-to-back set-ups, so one
/// repetition is not a single clock read's worth of noise.
fn set_up(opts: &Options, dir: &Path, log: &mut PassLog) -> io::Result<Prepared> {
    let start = Instant::now();
    let mut n = 0u32;
    loop {
        let prep = workloads::prepare(opts.kind, opts.seed, opts.scale, dir)?;
        n += 1;
        if start.elapsed().as_secs_f64() >= SETUP_BATCH_SECONDS {
            log.setup_s.push(start.elapsed().as_secs_f64() / f64::from(n));
            return Ok(prep);
        }
    }
}

/// Runs the benchmark.
///
/// # Errors
///
/// Returns file errors from the `.altr` recordings or probes.
pub fn run(opts: &Options) -> io::Result<Outcome> {
    let host = Host::detect();
    let mut log = PassLog::default();
    let mut checks = Checks::default();

    let prep = set_up(opts, &opts.work_dir, &mut log)?;
    let records = prep.records_per_pass();
    // Further set-ups, one before each later pass, so `setup_s` samples the
    // host over the whole run like the passes do. Their recordings go to a
    // directory of their own, leaving the files the passes replay alone.
    let again = opts.work_dir.join("again");
    std::fs::create_dir_all(&again)?;

    // Untraced passes: the end-to-end measurement.
    let budget = if opts.trace { opts.seconds / 2.0 } else { opts.seconds };
    let timed = Instant::now();
    let mut reference: Vec<SystemReport> = Vec::new();
    let mut best = Vec::new();
    while log.wall_s.len() < MIN_PASSES || timed.elapsed().as_secs_f64() < budget {
        if !log.wall_s.is_empty() {
            set_up(opts, &again, &mut log)?;
        }
        let pass = workloads::run_pass(&prep);
        log.wall_s.push(pass.units.iter().map(|u| u.wall).sum());
        log.cpu_s.push(pass.units.iter().map(|u| u.cpu).sum());
        best.resize(pass.units.len(), UnitTime { wall: f64::INFINITY, cpu: f64::INFINITY });
        for (best, unit) in best.iter_mut().zip(&pass.units) {
            best.wall = best.wall.min(unit.wall);
            best.cpu = best.cpu.min(unit.cpu);
        }
        if reference.is_empty() {
            reference = pass.reports;
        } else {
            checks.compare(&prep, &reference, &pass.reports, "report differs from the first pass");
        }
    }

    while log.setup_s.len() < SETUP_REPS {
        set_up(opts, &again, &mut log)?;
    }

    // A replayed cell must equal the same cell run from its generator.
    for (i, cell) in prep.cells.iter().enumerate() {
        if let Some(generators) = &cell.generators {
            if workloads::run_cell(&prep, cell, generators) != reference[i] {
                checks.fail(i, &cell.label(), ".altr replay differs from its generator");
            }
        }
    }

    // Every pass does identical simulated work, so pass-to-pass variation
    // is host interference, which only ever slows the work down: the
    // fastest run of each timing unit is the steadiest estimate of the
    // code's own speed.
    let wall: f64 = best.iter().map(|u| u.wall).sum();
    let cpu: f64 = best.iter().map(|u| u.cpu).sum();
    let mrec_per_s = ratio(records as f64, wall) / 1e6;
    let attempted = prep.cells.len() as u64;

    let mut per_layer = Vec::new();
    let mut shares = Vec::new();
    if opts.trace {
        let traced = traced_run(opts, timed, &prep, &reference, &mut checks, &mut log)?;
        // Fastest untraced pass against fastest traced pass. The traced
        // re-drive is serial, so on the server mix the untraced side is the
        // pass's CPU time rather than its parallel wall time.
        let untraced = match prep.kind {
            Kind::ServerMix => cpu,
            Kind::MemStream | Kind::ResidentReplay => fastest(&log.wall_s),
        };
        let overhead_frac = 1.0 - ratio(untraced, fastest(&log.traced_wall_s));
        let eff: Vec<f64> = log
            .wall_s
            .iter()
            .zip(&log.cpu_s)
            .map(|(w, c)| ratio(*c, w * prep.workers() as f64))
            .collect();
        per_layer = traced.metrics(cpu, overhead_frac, median(&eff));
        shares = traced.shares();
    }

    let failed = checks.failed();
    let end_to_end = vec![
        Metric { name: "mrec_per_s", unit: "Mrec/s", value: mrec_per_s },
        Metric { name: "setup_s", unit: "s", value: median(&log.setup_s) },
        Metric { name: "peak_rss_mb", unit: "MiB", value: host::peak_rss_mb() },
        Metric { name: "fail_frac", unit: "frac", value: checks.fail_frac(attempted) },
    ];
    Ok(Outcome {
        end_to_end,
        per_layer,
        shares,
        attempted,
        failed,
        failures: checks.failures,
        digest: workloads::pass_digest(&reference),
        records_per_pass: records,
        passes: log,
        host,
    })
}

/// What the traced run measured.
#[derive(Debug, Default)]
struct Traced {
    /// Spans of the traced re-drive proper.
    main: LayerTotals,
    /// Spans of the approx-core probe (server mix only; its cells run the
    /// out-of-order core, which has no public seam inside a step).
    probe: Option<LayerTotals>,
    /// Reports of the first traced pass.
    reports: Vec<SystemReport>,
    /// Controller statistics of the first traced pass.
    controller: ControllerStats,
    /// Generator ns per record, when the cells replay files.
    gen_probe: Option<f64>,
    /// Decode ns and bytes per record, when the cells run generators.
    decode_probe: Option<(f64, f64)>,
    /// `.altr` bytes per record of the recordings.
    recorded_bytes_per_rec: Option<f64>,
    /// Cost of one clock read: the tracer's resolution.
    read_ns: f64,
}

/// Re-drives every cell under spans until `opts.seconds` have passed since
/// `timed` (the start of the untraced passes), so a traced run takes about
/// as long as an untraced one.
fn traced_run(
    opts: &Options,
    timed: Instant,
    prep: &Prepared,
    reference: &[SystemReport],
    checks: &mut Checks,
    log: &mut PassLog,
) -> io::Result<Traced> {
    let read_ns = clock_read_ns();
    let mut traced = Traced { read_ns, ..Traced::default() };
    let redrive = match prep.kind {
        Kind::ServerMix => redrive_engine,
        Kind::MemStream | Kind::ResidentReplay => redrive_approx,
    };
    while log.traced_wall_s.is_empty() || timed.elapsed().as_secs_f64() < opts.seconds {
        let start = Instant::now();
        let mut reports = Vec::with_capacity(prep.cells.len());
        let mut controller = ControllerStats::default();
        for cell in &prep.cells {
            let mut tracer = Tracer::new(read_ns);
            let redriven = redrive(
                &prep.config,
                cell.algorithm,
                prep.composite,
                &cell.sources,
                prep.producer,
                &mut tracer,
            );
            traced.main.merge(&tracer.finish());
            add_stats(&mut controller, &redriven.controller);
            reports.push(redriven.report);
        }
        log.traced_wall_s.push(start.elapsed().as_secs_f64());
        checks.compare(prep, reference, &reports, "traced re-drive differs from untraced run");
        if traced.reports.is_empty() {
            traced.reports = reports;
            traced.controller = controller;
        }
    }

    match prep.kind {
        Kind::ServerMix => {
            traced.probe = Some(approx_probe(prep, checks, read_ns));
            traced.decode_probe = Some(decode_probe(&distinct_sources(prep))?);
        }
        Kind::MemStream => traced.decode_probe = Some(decode_probe(&distinct_sources(prep))?),
        Kind::ResidentReplay => {
            let gens: Vec<TraceSource> = prep
                .cells
                .iter()
                .filter_map(|c| c.generators.as_ref())
                .flatten()
                .cloned()
                .collect();
            let gens = dedupe(gens);
            traced.gen_probe = Some(gen_probe(&gens));
            let recorded: u64 = gens.iter().map(|s| s.memory_accesses() as u64).sum();
            traced.recorded_bytes_per_rec =
                Some(ratio(prep.recorded_bytes as f64, recorded as f64));
        }
    }
    Ok(traced)
}

fn dedupe(sources: Vec<TraceSource>) -> Vec<TraceSource> {
    let mut seen = BTreeSet::new();
    sources.into_iter().filter(|s| seen.insert(s.name().to_string())).collect()
}

fn distinct_sources(prep: &Prepared) -> Vec<TraceSource> {
    dedupe(prep.cells.iter().flat_map(|c| c.sources.iter().cloned()).collect())
}

/// Re-drives the mix's Alecto cell on approx cores of the same machine,
/// checked against `System::run_sources` on that configuration, to split
/// the controller, selector, prefetcher and memsys time the out-of-order
/// step hides.
fn approx_probe(prep: &Prepared, checks: &mut Checks, read_ns: f64) -> LayerTotals {
    let config = prep.config.clone().with_core_model(CoreModelKind::Approx);
    let (i, cell) = prep
        .cells
        .iter()
        .enumerate()
        .find(|(_, c)| c.algorithm == SelectionAlgorithm::Alecto)
        .expect("the mix runs Alecto");
    let untraced = System::new(config.clone(), cell.algorithm, prep.composite)
        .run_sources(&cell.sources)
        .expect("the cell has sources");
    let mut tracer = Tracer::new(read_ns);
    let redriven = redrive_approx(
        &config,
        cell.algorithm,
        prep.composite,
        &cell.sources,
        prep.producer,
        &mut tracer,
    );
    if redriven.report != untraced {
        checks.fail(i, &cell.label(), "approx probe differs from untraced approx run");
    }
    tracer.finish()
}

/// Generator ns per record over full replays of `sources`, in batches as
/// the drive loop pulls them.
fn gen_probe(sources: &[TraceSource]) -> f64 {
    let start = Instant::now();
    let mut n = 0u64;
    for source in sources {
        for batch in source.record_batches(cpu::DEFAULT_BATCH_RECORDS) {
            n += black_box(batch).len() as u64;
        }
    }
    ratio(start.elapsed().as_nanos() as f64, n as f64)
}

/// Records `sources` into in-memory `.altr` documents and times decoding
/// them: (ns per record, bytes per record).
fn decode_probe(sources: &[TraceSource]) -> io::Result<(f64, f64)> {
    let (mut ns, mut bytes, mut n) = (0u128, 0u64, 0u64);
    for source in sources {
        let mut writer = traceio::TraceWriter::new(
            Cursor::new(Vec::new()),
            source.name(),
            source.memory_intensive(),
            0,
        )?;
        writer.write_all(source.records())?;
        let (_, sink) = writer.finish_into_inner()?;
        let doc = sink.into_inner();
        bytes += doc.len() as u64;
        let start = Instant::now();
        let mut cursor = Cursor::new(doc.as_slice());
        let header = traceio::TraceHeader::decode(&mut cursor)?;
        for record in traceio::RecordDecoder::new(cursor, header.record_count) {
            black_box(record?);
            n += 1;
        }
        ns += start.elapsed().as_nanos();
    }
    Ok((ratio(ns as f64, n as f64), ratio(bytes as f64, n as f64)))
}

impl Traced {
    /// The totals the approx-core layers are read from.
    fn approx(&self) -> &LayerTotals {
        self.probe.as_ref().unwrap_or(&self.main)
    }

    fn metrics(&self, cpu_s: f64, overhead_frac: f64, parallel_eff: f64) -> Vec<Metric> {
        let approx = self.approx();
        let gen = self.gen_probe.unwrap_or_else(|| self.main.ns_per_record(Layer::Gen));
        let (decode, bytes) = self.decode_probe.unwrap_or_else(|| {
            (self.main.ns_per_record(Layer::Decode), self.recorded_bytes_per_rec.unwrap_or(0.0))
        });

        let cores = || self.reports.iter().flat_map(|r| r.cores.iter());
        let sum = |f: &dyn Fn(&cpu::CoreReport) -> u64| cores().map(f).sum::<u64>() as f64;
        let useful = sum(&|c| c.quality.covered_timely + c.quality.covered_untimely);
        let issued = sum(&|c| c.prefetches_issued);
        let l3 = |f: &dyn Fn(&memsys::CacheStats) -> u64| {
            self.reports.iter().map(|r| f(&r.l3)).sum::<u64>() as f64
        };
        let ns = |name, value| Metric { name, unit: "ns", value };
        let frac = |name, value| Metric { name, unit: "frac", value };
        let count = |name, value| Metric { name, unit: "count", value };
        vec![
            ns("traces.gen_ns_per_rec", gen),
            ns("traceio.decode_ns_per_rec", decode),
            Metric { name: "traceio.bytes_per_rec", unit: "B", value: bytes },
            ns("cpu.core_ns_per_rec", approx.self_ns_per_record(Layer::Step)),
            ns("cpu.controller_ns_per_rec", approx.self_ns_per_record(Layer::Controller)),
            ns("selectors.allocate_ns_per_call", approx.ns_per_call(Layer::Allocate)),
            ns("selectors.select_ns_per_call", approx.ns_per_call(Layer::Select)),
            ns("prefetch.train_ns_per_call", approx.ns_per_call(Layer::Train)),
            ns("memsys.demand_ns_per_call", approx.ns_per_call(Layer::Demand)),
            ns("memsys.prefetch_issue_ns_per_call", approx.ns_per_call(Layer::PrefetchIssue)),
            ns("memsys.feedback_ns_per_rec", approx.ns_per_record(Layer::Feedback)),
            ns("cpu.step_ns_per_rec", self.main.ns_per_record(Layer::Step)),
            ns("cpu.sched_ns_per_rec", self.main.ns_per_record(Layer::Sched)),
            Metric { name: "cpu_s", unit: "s", value: cpu_s },
            frac("harness.parallel_eff", parallel_eff),
            count("memsys.l1_misses", sum(&|c| c.l1.demand_misses)),
            count("memsys.l2_misses", sum(&|c| c.l2.demand_misses)),
            count("memsys.l3_misses", l3(&|s| s.demand_misses)),
            count(
                "memsys.mshr_merges",
                sum(&|c| c.l1.demand_mshr_merges + c.l2.demand_mshr_merges)
                    + l3(&|s| s.demand_mshr_merges),
            ),
            count("memsys.mshr_stall_cycles", sum(&|c| c.timing.mshr_stall_cycles)),
            count(
                "memsys.dram_accesses",
                self.reports.iter().map(|r| r.dram.accesses).sum::<u64>() as f64,
            ),
            count("memsys.dram_queue_cycles", sum(&|c| c.timing.dram_queue_cycles)),
            count("cpu.controller.candidates", self.controller.candidates as f64),
            count("cpu.controller.issued", self.controller.issued as f64),
            count("prefetch.training_occurrences", sum(&|c| c.training_occurrences)),
            count("prefetch.table_misses", sum(&|c| c.table_misses)),
            frac("prefetch.useful_frac", ratio(useful, issued)),
            count("cpu.records", sum(&|c| c.timing.demand_accesses)),
            count("cpu.instructions", sum(&|c| c.instructions)),
            frac("trace.overhead_frac", overhead_frac),
            frac("trace.unattributed_frac", self.main.unattributed_frac()),
            ns("trace.clock_read_ns", self.read_ns),
        ]
    }

    fn shares(&self) -> Vec<(String, f64)> {
        let share = |totals: &LayerTotals, prefix: &str| {
            Layer::ALL
                .iter()
                .map(|&l| {
                    let s = ratio(totals.estimated_self_ns(l), totals.wall_ns as f64);
                    (format!("{prefix}{}", l.name()), s)
                })
                .chain(std::iter::once((
                    format!("{prefix}unattributed"),
                    totals.unattributed_frac(),
                )))
                .collect::<Vec<_>>()
        };
        let mut out = share(&self.main, "");
        if let Some(probe) = &self.probe {
            out.extend(share(probe, "approx-probe:"));
        }
        out
    }
}
