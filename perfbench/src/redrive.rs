//! The traced re-drive: the benchmark's own loop over the same cells the
//! timed passes run, calling each layer through its public functions so the
//! time between the calls can be attributed.
//!
//! Two core kinds are driven:
//!
//! * [`ApproxCore`] reproduces the approx core step (`cpu::CoreModel::step`)
//!   and the prefetch controller (`cpu::PrefetchController`) call for call:
//!   `Hierarchy::{demand_access_kind, issue_prefetch, drain_feedback}`, the
//!   selector from `cpu::build_selector` through `Selector::{allocate,
//!   select_requests}`, and the prefetchers from `prefetch::build_composite`
//!   through `Prefetcher::train_and_predict`.
//! * [`EngineCore`] wraps a `cpu::CoreEngine` and times its whole step (the
//!   out-of-order pipeline has no public seam inside a step).
//!
//! Both run under [`drive`], the benchmark's copy of the multi-core min-time
//! merge. The result is a `SystemReport` assembled from the same public
//! stats the simulator reports, so the caller can require it to equal the
//! untraced run's report exactly.

use std::collections::{HashMap, VecDeque};

use alecto_types::{
    AccessKind, FillLevel, LineAddr, MemoryRecord, PrefetchRequest, PrefetcherId, TraceSource,
};
use cpu::controller::ControllerStats;
use cpu::{
    build_selector, CompositeKind, CoreEngine, CoreReport, CoreTiming, PrefetchController,
    PrefetcherReport, SelectionAlgorithm, SystemConfig, SystemReport,
};
use memsys::Hierarchy;
use prefetch::{build_composite, Prefetcher};
use selectors::{PrefetchFilter, PrefetchOutcome, Selector};

use crate::spans::{Layer, Level, Tracer, CALLEES, CONTROLLER_CALLEES, OFF, STEP};

/// Records per batch pulled from a source, as in the simulator's own drive.
const BATCH_RECORDS: usize = cpu::DEFAULT_BATCH_RECORDS;

/// Distinct PCs the pointer-chase table of the approx core tracks.
const CHAIN_TABLE_CAPACITY: usize = 4096;

/// A core the traced drive loop can step.
pub trait TracedCore {
    /// Steps over `record`, timing the calls of the level `MODE` names
    /// (see [`crate::spans::Level::mode`]; [`OFF`] times nothing).
    fn step<const MODE: u8>(
        &mut self,
        record: &MemoryRecord,
        hierarchy: &mut Hierarchy,
        tracer: &mut Tracer,
        seq: u64,
    );

    /// Simulated time, which orders the cores in the merge.
    fn current_time(&self) -> f64;

    /// The core's report once its trace is consumed.
    fn report(&self, workload: &str, hierarchy: &Hierarchy) -> CoreReport;

    /// Controller statistics.
    fn controller_stats(&self) -> ControllerStats;

    /// Selection algorithm name and storage bits.
    fn selector(&self) -> (String, u64);
}

/// Result of re-driving one cell.
#[derive(Debug)]
pub struct Redriven {
    /// The report, assembled like `cpu::System` assembles it.
    pub report: SystemReport,
    /// Controller statistics summed over the cores.
    pub controller: ControllerStats,
}

/// One core's record feed: batches pulled from the source, each pull timed
/// as a `producer` span.
struct Feed {
    batches: alecto_types::RecordBatches,
    batch: Vec<MemoryRecord>,
    pos: usize,
}

impl Feed {
    fn next(&mut self, tracer: &mut Tracer, producer: Layer, seq: u64) -> Option<MemoryRecord> {
        if self.pos == self.batch.len() {
            let start = tracer.now();
            let batch = self.batches.next();
            tracer.span(seq, producer, start, tracer.now());
            self.batch = batch?;
            self.pos = 0;
        }
        self.pos += 1;
        Some(self.batch[self.pos - 1])
    }
}

/// Drives `cores` over `sources` (core `i` replays `sources[i % len]`) under
/// the min-time merge of `cpu::System`, recording spans into `tracer`, and
/// assembles the system report.
pub fn drive<C: TracedCore>(
    cores: &mut [C],
    hierarchy: &mut Hierarchy,
    sources: &[TraceSource],
    composite: CompositeKind,
    producer: Layer,
    tracer: &mut Tracer,
) -> Redriven {
    let names: Vec<&str> = (0..cores.len()).map(|i| sources[i % sources.len()].name()).collect();
    let start = tracer.now();
    let mut feeds: Vec<Feed> = (0..cores.len())
        .map(|i| Feed {
            batches: sources[i % sources.len()].record_batches(BATCH_RECORDS),
            batch: Vec::new(),
            pos: 0,
        })
        .collect();
    let mut seq = 0u64;
    let mut pending: Vec<Option<MemoryRecord>> =
        feeds.iter_mut().map(|f| f.next(tracer, producer, seq)).collect();
    loop {
        let level = Tracer::level(seq);
        let sched_start = if level.is_some() { tracer.now() } else { 0 };
        let mut next: Option<usize> = None;
        let mut best_time = f64::INFINITY;
        for (i, core) in cores.iter().enumerate() {
            if pending[i].is_some() {
                let t = core.current_time();
                if t < best_time {
                    best_time = t;
                    next = Some(i);
                }
            }
        }
        if level.is_some() {
            tracer.span(seq, Layer::Sched, sched_start, tracer.now());
        }
        let Some(i) = next else { break };
        let record = pending[i].take().expect("selected core has a pending record");
        pending[i] = feeds[i].next(tracer, producer, seq + 1);
        let core = &mut cores[i];
        match level.map(Level::mode) {
            None => core.step::<OFF>(&record, hierarchy, tracer, seq),
            Some(STEP) => core.step::<STEP>(&record, hierarchy, tracer, seq),
            Some(CALLEES) => core.step::<CALLEES>(&record, hierarchy, tracer, seq),
            Some(_) => core.step::<CONTROLLER_CALLEES>(&record, hierarchy, tracer, seq),
        }
        tracer.count_record(level);
        seq += 1;
    }
    let end = tracer.now();
    tracer.add_wall(end - start);

    let mut controller = ControllerStats::default();
    for core in cores.iter() {
        add_stats(&mut controller, &core.controller_stats());
    }
    let (selector, selector_storage_bits) =
        cores.first().map_or_else(|| ("NoPrefetch".to_string(), 0), TracedCore::selector);
    let report = SystemReport {
        selector,
        composite: composite.label(),
        cores: cores.iter().enumerate().map(|(i, c)| c.report(names[i], hierarchy)).collect(),
        l3: *hierarchy.l3_stats(),
        dram: *hierarchy.dram_stats(),
        selector_storage_bits,
    };
    Redriven { report, controller }
}

/// Adds controller statistics `s` into `sum`.
pub fn add_stats(sum: &mut ControllerStats, s: &ControllerStats) {
    sum.demands += s.demands;
    sum.candidates += s.candidates;
    sum.dropped_by_selector += s.dropped_by_selector;
    sum.dropped_by_filter += s.dropped_by_filter;
    sum.issued += s.issued;
}

/// Re-drives one cell on approx cores.
pub fn redrive_approx(
    config: &SystemConfig,
    algorithm: SelectionAlgorithm,
    composite: CompositeKind,
    sources: &[TraceSource],
    producer: Layer,
    tracer: &mut Tracer,
) -> Redriven {
    let mut hierarchy = Hierarchy::new(config.hierarchy.clone());
    let mut cores: Vec<ApproxCore> =
        (0..config.cores).map(|id| ApproxCore::new(id, config, composite, algorithm)).collect();
    drive(&mut cores, &mut hierarchy, sources, composite, producer, tracer)
}

/// Re-drives one cell on the cores `config.core_model` selects, timing each
/// whole `CoreEngine::step`.
pub fn redrive_engine(
    config: &SystemConfig,
    algorithm: SelectionAlgorithm,
    composite: CompositeKind,
    sources: &[TraceSource],
    producer: Layer,
    tracer: &mut Tracer,
) -> Redriven {
    let mut hierarchy = Hierarchy::new(config.hierarchy.clone());
    let mut cores: Vec<EngineCore> = (0..config.cores)
        .map(|id| {
            EngineCore(CoreEngine::new(id, config, PrefetchController::new(composite, algorithm)))
        })
        .collect();
    drive(&mut cores, &mut hierarchy, sources, composite, producer, tracer)
}

/// A `cpu::CoreEngine` stepped as one span.
pub struct EngineCore(CoreEngine);

impl TracedCore for EngineCore {
    #[inline]
    fn step<const MODE: u8>(
        &mut self,
        record: &MemoryRecord,
        hierarchy: &mut Hierarchy,
        tracer: &mut Tracer,
        seq: u64,
    ) {
        let start = if MODE == STEP { tracer.now() } else { 0 };
        self.0.step(record, hierarchy);
        if MODE == STEP {
            tracer.span(seq, Layer::Step, start, tracer.now());
        }
    }

    fn current_time(&self) -> f64 {
        self.0.current_time()
    }

    fn report(&self, workload: &str, hierarchy: &Hierarchy) -> CoreReport {
        self.0.report(workload, hierarchy)
    }

    fn controller_stats(&self) -> ControllerStats {
        *self.0.controller().stats()
    }

    fn selector(&self) -> (String, u64) {
        let c = self.0.controller();
        (c.selector_name().to_string(), c.selector_storage_bits())
    }
}

/// PC → completion map with FIFO eviction, as the approx core keeps it.
struct ChainTable {
    map: HashMap<u64, f64>,
    order: VecDeque<u64>,
}

impl ChainTable {
    fn get(&self, key: u64) -> Option<f64> {
        self.map.get(&key).copied()
    }

    fn insert(&mut self, key: u64, value: f64) {
        if self.map.insert(key, value).is_none() {
            if self.map.len() > CHAIN_TABLE_CAPACITY {
                if let Some(oldest) = self.order.pop_front() {
                    self.map.remove(&oldest);
                }
            }
            self.order.push_back(key);
        }
    }
}

/// The approx core step and its prefetch controller, with a span at each
/// call into another layer.
pub struct ApproxCore {
    core_id: usize,
    fetch_width: f64,
    commit_width: f64,
    rob_entries: u64,
    load_queue: usize,
    fetch_time: f64,
    retire_time: f64,
    instructions: u64,
    rob_window: VecDeque<(u64, f64)>,
    inflight_loads: VecDeque<f64>,
    chain: ChainTable,
    prefetchers: Vec<Box<dyn Prefetcher>>,
    selector: Option<Box<dyn Selector>>,
    filter: PrefetchFilter,
    stats: ControllerStats,
    scratch: Vec<LineAddr>,
    epoch_len: u64,
    epoch_instr_mark: u64,
    epoch_cycle_mark: f64,
}

impl ApproxCore {
    /// A fresh core `core_id` of `config` running `algorithm` over
    /// `composite`.
    #[must_use]
    pub fn new(
        core_id: usize,
        config: &SystemConfig,
        composite: CompositeKind,
        algorithm: SelectionAlgorithm,
    ) -> Self {
        let prefetchers = build_composite(composite);
        let selector = build_selector(algorithm, prefetchers.len());
        Self {
            core_id,
            fetch_width: f64::from(config.fetch_width),
            commit_width: f64::from(config.commit_width),
            rob_entries: u64::try_from(config.rob_entries).expect("ROB size fits in u64"),
            load_queue: config.load_queue,
            fetch_time: 0.0,
            retire_time: 0.0,
            instructions: 0,
            rob_window: VecDeque::with_capacity(64),
            inflight_loads: VecDeque::with_capacity(80),
            chain: ChainTable { map: HashMap::new(), order: VecDeque::new() },
            prefetchers,
            selector,
            filter: PrefetchFilter::default_config(),
            stats: ControllerStats::default(),
            scratch: Vec::with_capacity(16),
            epoch_len: config.selector_epoch_instructions,
            epoch_instr_mark: 0,
            epoch_cycle_mark: 0.0,
        }
    }

    /// The controller's demand path: allocation, training, selection and
    /// the external filter.
    fn on_demand_access<const MODE: u8>(
        &mut self,
        access: &alecto_types::DemandAccess,
        tracer: &mut Tracer,
        seq: u64,
    ) -> Vec<PrefetchRequest> {
        let timed = MODE == CONTROLLER_CALLEES;
        let stamp = |t: &Tracer| if timed { t.now() } else { 0 };
        self.stats.demands += 1;
        let Some(selector) = self.selector.as_mut() else {
            return Vec::new();
        };

        let t0 = stamp(tracer);
        let decision = selector.allocate(access, &self.prefetchers);
        if timed {
            tracer.span(seq, Layer::Allocate, t0, tracer.now());
        }

        let mut candidates: Vec<PrefetchRequest> = Vec::new();
        for (idx, allocation) in decision.per_prefetcher.iter().enumerate() {
            let Some(alloc) = allocation else { continue };
            self.scratch.clear();
            let t0 = stamp(tracer);
            self.prefetchers[idx].train_and_predict(access, alloc.total, &mut self.scratch);
            if timed {
                tracer.span(seq, Layer::Train, t0, tracer.now());
            }
            for (j, &line) in self.scratch.iter().enumerate() {
                let to_l1 = u32::try_from(j).is_ok_and(|j| j < alloc.l1_portion);
                let fill = if to_l1 { FillLevel::L1 } else { FillLevel::L2 };
                candidates.push(
                    PrefetchRequest::new(line, access.pc, PrefetcherId(idx)).with_fill_level(fill),
                );
            }
        }
        let candidate_count = candidates.len() as u64;
        self.stats.candidates += candidate_count;

        let t0 = stamp(tracer);
        let selected = selector.select_requests(access, candidates);
        if timed {
            tracer.span(seq, Layer::Select, t0, tracer.now());
        }
        self.stats.dropped_by_selector += candidate_count - selected.len() as u64;

        let final_requests: Vec<PrefetchRequest> = if selector.needs_external_filter() {
            let (filter, stats) = (&mut self.filter, &mut self.stats);
            selected
                .into_iter()
                .filter(|r| {
                    let dropped = filter.check_and_insert(r.line);
                    stats.dropped_by_filter += u64::from(dropped);
                    !dropped
                })
                .collect()
        } else {
            selected
        };
        self.stats.issued += final_requests.len() as u64;
        final_requests
    }
}

impl TracedCore for ApproxCore {
    #[inline]
    fn step<const MODE: u8>(
        &mut self,
        record: &MemoryRecord,
        hierarchy: &mut Hierarchy,
        tracer: &mut Tracer,
        seq: u64,
    ) {
        let timed = MODE == CALLEES;
        let stamp = |t: &Tracer| if timed { t.now() } else { 0 };
        let step_start = if MODE == STEP { tracer.now() } else { 0 };

        let gap = f64::from(record.gap_instructions);
        self.fetch_time += gap / self.fetch_width;
        self.retire_time = (self.retire_time + gap / self.commit_width).max(self.fetch_time);
        self.instructions += u64::from(record.gap_instructions) + 1;

        let oldest_allowed = self.instructions.saturating_sub(self.rob_entries);
        let mut rob_limit = 0.0f64;
        while let Some(&(idx, retire)) = self.rob_window.front() {
            if idx <= oldest_allowed {
                rob_limit = rob_limit.max(retire);
                self.rob_window.pop_front();
            } else {
                break;
            }
        }
        self.fetch_time = self.fetch_time.max(rob_limit);
        self.fetch_time += 1.0 / self.fetch_width;

        let is_load = record.kind == AccessKind::Load;
        if is_load {
            self.inflight_loads.retain(|&completion| completion > self.fetch_time);
            while self.inflight_loads.len() >= self.load_queue {
                let (idx, earliest) = self.inflight_loads.iter().copied().enumerate().fold(
                    (0, f64::INFINITY),
                    |best, (i, c)| if c < best.1 { (i, c) } else { best },
                );
                self.fetch_time = self.fetch_time.max(earliest);
                self.inflight_loads.remove(idx);
            }
        }

        let mut issue_time = self.fetch_time;
        if record.dependent {
            if let Some(ready) = self.chain.get(record.pc.raw()) {
                issue_time = issue_time.max(ready);
            }
        }

        let issue_cycle = issue_time.ceil() as u64;
        let demand = record.demand();
        let t0 = stamp(tracer);
        let result =
            hierarchy.demand_access_kind(self.core_id, demand.line(), issue_cycle, !is_load);
        if timed {
            tracer.span(seq, Layer::Demand, t0, tracer.now());
        }
        let completion = result.completion_cycle as f64;
        if record.dependent {
            self.chain.insert(record.pc.raw(), completion);
        }

        let t0 = stamp(tracer);
        let requests = self.on_demand_access::<MODE>(&demand, tracer, seq);
        if timed {
            tracer.span(seq, Layer::Controller, t0, tracer.now());
        }
        if !requests.is_empty() {
            let t0 = stamp(tracer);
            for (k, req) in requests.iter().enumerate() {
                let delay = k as u64;
                hierarchy.issue_prefetch(self.core_id, req, issue_cycle + 1 + delay);
            }
            if timed {
                let calls = u32::try_from(requests.len()).unwrap_or(u32::MAX);
                tracer.span_calls(seq, Layer::PrefetchIssue, t0, tracer.now(), calls);
            }
        }
        let t0 = stamp(tracer);
        for fb in hierarchy.drain_feedback() {
            if let Some(selector) = self.selector.as_mut() {
                selector.on_prefetch_outcome(&PrefetchOutcome {
                    issuer: fb.issuer,
                    trigger_pc: fb.trigger_pc,
                    line: fb.line,
                    useful: fb.useful,
                });
            }
        }
        if timed {
            tracer.span(seq, Layer::Feedback, t0, tracer.now());
        }

        self.retire_time += 1.0 / self.commit_width;
        if is_load {
            self.retire_time = self.retire_time.max(completion);
            self.inflight_loads.push_back(completion);
        }
        self.rob_window.push_back((self.instructions, self.retire_time));

        if self.instructions - self.epoch_instr_mark >= self.epoch_len {
            let instr_delta = self.instructions - self.epoch_instr_mark;
            let cycle_delta = (self.retire_time - self.epoch_cycle_mark).max(1.0) as u64;
            if let Some(selector) = self.selector.as_mut() {
                selector.on_epoch(instr_delta, cycle_delta);
            }
            self.epoch_instr_mark = self.instructions;
            self.epoch_cycle_mark = self.retire_time;
        }
        if MODE == STEP {
            tracer.span(seq, Layer::Step, step_start, tracer.now());
        }
    }

    fn current_time(&self) -> f64 {
        self.retire_time.max(self.fetch_time)
    }

    fn report(&self, workload: &str, hierarchy: &Hierarchy) -> CoreReport {
        let cycles = self.retire_time.max(1.0).ceil() as u64;
        let selector = self.selector.as_ref().map_or("NoPrefetch", |s| s.name());
        CoreReport {
            workload: workload.to_string(),
            selector: selector.to_string(),
            instructions: self.instructions,
            cycles,
            ipc: self.instructions as f64 / cycles as f64,
            timing: *hierarchy.timing_stats(self.core_id),
            l1: *hierarchy.l1_stats(self.core_id),
            l2: *hierarchy.l2_stats(self.core_id),
            quality: *hierarchy.quality(self.core_id),
            prefetchers: self
                .prefetchers
                .iter()
                .map(|p| PrefetcherReport { name: p.name().to_string(), stats: *p.table_stats() })
                .collect(),
            training_occurrences: self.prefetchers.iter().map(|p| p.table_stats().trainings).sum(),
            table_misses: self.prefetchers.iter().map(|p| p.table_stats().misses).sum(),
            prefetches_issued: self.stats.issued,
            branch_mpki: None,
            rob_occupancy: None,
        }
    }

    fn controller_stats(&self) -> ControllerStats {
        self.stats
    }

    fn selector(&self) -> (String, u64) {
        self.selector.as_ref().map_or_else(
            || ("NoPrefetch".to_string(), 0),
            |s| (s.name().to_string(), s.storage_bits()),
        )
    }
}
