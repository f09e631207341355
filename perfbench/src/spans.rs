//! In-memory spans for the traced run.
//!
//! A span records one call into a simulator layer: which layer, which record
//! caused it, the layer that called it, and its start and end on the host
//! clock. Spans stay in memory until the cell ends and are then folded into
//! per-layer totals.
//!
//! Record production is timed per batch, for every batch, because one batch
//! pays for thousands of records. Calls made while stepping a record are
//! timed on a deterministic sample of records (a hash of the record's
//! sequence number, so the sample cannot alias with the periodic structure
//! of the synthetic traces). A clock read costs tens of ns on a typical
//! host, as much as the approx core's own work per record, so timing a
//! parent and its children in the same record would charge the parent for
//! timing its children. Instead each sampled record times one level of the
//! call tree ([`Level`]): the whole step, or the step's direct callees, or
//! the controller's callees. A layer's self time per record is its level's
//! mean minus the means of its callees, each taken over the records sampled
//! at their own level.

use std::hint::black_box;
use std::time::Instant;

use alecto_types::hash::mix64;

/// One record in `1 << SAMPLE_SHIFT` is sampled.
pub const SAMPLE_SHIFT: u32 = 4;

/// Which level of the call tree a sampled record times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// The whole step ([`Layer::Step`]).
    Step,
    /// The step's callees: demand access, controller, prefetch issue,
    /// feedback.
    Callees,
    /// The controller's callees: allocate, train, select.
    ControllerCallees,
}

impl Level {
    /// Every level.
    pub const ALL: [Level; 3] = [Level::Step, Level::Callees, Level::ControllerCallees];

    /// The const `MODE` a step is monomorphised with for this level.
    #[must_use]
    pub const fn mode(self) -> u8 {
        match self {
            Level::Step => STEP,
            Level::Callees => CALLEES,
            Level::ControllerCallees => CONTROLLER_CALLEES,
        }
    }

    const fn index(self) -> usize {
        self as usize
    }
}

/// Step mode of an unsampled record: nothing is timed.
pub const OFF: u8 = 0;
/// Step mode timing the whole step.
pub const STEP: u8 = 1;
/// Step mode timing the step's callees.
pub const CALLEES: u8 = 2;
/// Step mode timing the controller's callees.
pub const CONTROLLER_CALLEES: u8 = 3;

/// A simulator layer a span can be attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Trace generation (`traces` generator sources), timed per batch.
    Gen,
    /// `.altr` decode (`traceio` sources), timed per batch.
    Decode,
    /// The multi-core min-time merge choosing the next core to step.
    Sched,
    /// One core step over one record; its self time is the core model.
    Step,
    /// `Hierarchy::demand_access_kind`.
    Demand,
    /// The prefetch controller; its self time is the glue around the
    /// selector and the prefetchers (candidate building, external filter).
    Controller,
    /// `Selector::allocate`.
    Allocate,
    /// `Prefetcher::train_and_predict`.
    Train,
    /// `Selector::select_requests`.
    Select,
    /// `Hierarchy::issue_prefetch`, all calls of one record.
    PrefetchIssue,
    /// `Hierarchy::drain_feedback` plus forwarding the outcomes to the
    /// selector.
    Feedback,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 11] = [
        Layer::Gen,
        Layer::Decode,
        Layer::Sched,
        Layer::Step,
        Layer::Demand,
        Layer::Controller,
        Layer::Allocate,
        Layer::Train,
        Layer::Select,
        Layer::PrefetchIssue,
        Layer::Feedback,
    ];

    /// Span name: the crate that owns the layer, then the layer.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Layer::Gen => "traces.gen",
            Layer::Decode => "traceio.decode",
            Layer::Sched => "cpu.sched",
            Layer::Step => "cpu.step",
            Layer::Demand => "memsys.demand",
            Layer::Controller => "cpu.controller",
            Layer::Allocate => "selectors.allocate",
            Layer::Train => "prefetch.train",
            Layer::Select => "selectors.select",
            Layer::PrefetchIssue => "memsys.prefetch_issue",
            Layer::Feedback => "memsys.feedback",
        }
    }

    /// The layer that calls this one.
    #[must_use]
    pub const fn parent(self) -> Option<Layer> {
        match self {
            Layer::Gen | Layer::Decode | Layer::Sched | Layer::Step => None,
            Layer::Demand | Layer::Controller | Layer::PrefetchIssue | Layer::Feedback => {
                Some(Layer::Step)
            }
            Layer::Allocate | Layer::Train | Layer::Select => Some(Layer::Controller),
        }
    }

    /// The level whose sampled records time this layer (`None`: timed
    /// outside the step).
    #[must_use]
    pub const fn level(self) -> Option<Level> {
        match self {
            Layer::Gen | Layer::Decode | Layer::Sched => None,
            Layer::Step => Some(Level::Step),
            Layer::Demand | Layer::Controller | Layer::PrefetchIssue | Layer::Feedback => {
                Some(Level::Callees)
            }
            Layer::Allocate | Layer::Train | Layer::Select => Some(Level::ControllerCallees),
        }
    }

    const fn index(self) -> usize {
        self as usize
    }
}

/// One timed call into a layer. The span that caused it is the call into
/// [`Layer::parent`] for the same record.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Sequence number of the record that caused the call.
    pub record: u64,
    /// The layer called.
    pub layer: Layer,
    /// Start, in ns since the tracer was created.
    pub start: u64,
    /// End, in ns since the tracer was created.
    pub end: u64,
    /// Calls of the layer the span covers (1 unless a run of back-to-back
    /// calls is timed as one span).
    pub calls: u32,
}

/// Per-layer totals folded from spans.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    /// Span durations, per layer.
    dur_ns: [f64; Layer::ALL.len()],
    /// Span durations less one clock read each, per layer.
    net_ns: [f64; Layer::ALL.len()],
    calls: [u64; Layer::ALL.len()],
    level_records: [u64; Level::ALL.len()],
    /// Records stepped.
    pub records: u64,
    /// Records whose calls were timed.
    pub sampled_records: u64,
    /// Wall-clock of the traced drive loops, in ns.
    pub wall_ns: u64,
}

impl LayerTotals {
    fn records_timing(&self, layer: Layer) -> f64 {
        let records = match layer.level() {
            Some(level) => self.level_records[level.index()],
            None if layer == Layer::Sched => self.sampled_records,
            None => self.records,
        };
        records as f64
    }

    /// Mean span duration of `layer` (callees included) per record, in ns.
    /// A span carries one clock read, so this is the layer's cost plus the
    /// tracer's resolution.
    #[must_use]
    pub fn ns_per_record(&self, layer: Layer) -> f64 {
        ratio(self.dur_ns[layer.index()], self.records_timing(layer))
    }

    /// Mean span duration per call of `layer`, in ns (0 without calls).
    #[must_use]
    pub fn ns_per_call(&self, layer: Layer) -> f64 {
        ratio(self.dur_ns[layer.index()], self.calls[layer.index()] as f64)
    }

    /// Self time of `layer` per record, in ns, with the clock reads
    /// removed: its mean duration less its callees' (never below 0).
    #[must_use]
    pub fn self_ns_per_record(&self, layer: Layer) -> f64 {
        let net = |l: Layer| ratio(self.net_ns[l.index()], self.records_timing(l));
        let callees: f64 =
            Layer::ALL.iter().filter(|l| l.parent() == Some(layer)).map(|&l| net(l)).sum();
        (net(layer) - callees).max(0.0)
    }

    /// Estimated self time of `layer` over the whole traced run, in ns.
    #[must_use]
    pub fn estimated_self_ns(&self, layer: Layer) -> f64 {
        self.self_ns_per_record(layer) * self.records as f64
    }

    /// Share of the traced wall-clock that no layer's self time covers: the
    /// drive loop's own glue and the tracer's overhead.
    #[must_use]
    pub fn unattributed_frac(&self) -> f64 {
        let covered: f64 = Layer::ALL.iter().map(|&l| self.estimated_self_ns(l)).sum();
        1.0 - ratio(covered, self.wall_ns as f64)
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &LayerTotals) {
        for i in 0..Layer::ALL.len() {
            self.dur_ns[i] += other.dur_ns[i];
            self.net_ns[i] += other.net_ns[i];
            self.calls[i] += other.calls[i];
        }
        for i in 0..Level::ALL.len() {
            self.level_records[i] += other.level_records[i];
        }
        self.records += other.records;
        self.sampled_records += other.sampled_records;
        self.wall_ns += other.wall_ns;
    }
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Measures the cost of one clock read on this host, in ns: the tracer's
/// resolution. A span's duration carries about one read.
#[must_use]
pub fn clock_read_ns() -> f64 {
    const N: u32 = 200_000;
    let tracer = Tracer::new(0.0);
    let start = Instant::now();
    for _ in 0..N {
        black_box(tracer.now());
    }
    start.elapsed().as_nanos() as f64 / f64::from(N)
}

/// Collects the spans of one traced cell.
#[derive(Debug)]
pub struct Tracer {
    base: Instant,
    spans: Vec<Span>,
    totals: LayerTotals,
    read_ns: f64,
}

impl Tracer {
    /// An empty tracer whose clock starts now; self times subtract
    /// `read_ns` (see [`clock_read_ns`]) from every span.
    #[must_use]
    pub fn new(read_ns: f64) -> Self {
        Self { base: Instant::now(), spans: Vec::new(), totals: LayerTotals::default(), read_ns }
    }

    /// Nanoseconds since the tracer was created.
    #[inline]
    #[must_use]
    pub fn now(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The level record `seq` times, or `None` when it is not sampled.
    #[inline]
    #[must_use]
    pub fn level(seq: u64) -> Option<Level> {
        let h = mix64(seq);
        (h.trailing_zeros() >= SAMPLE_SHIFT).then(|| Level::ALL[((h >> 32) % 3) as usize])
    }

    /// Records one span covering one call.
    #[inline]
    pub fn span(&mut self, record: u64, layer: Layer, start: u64, end: u64) {
        self.span_calls(record, layer, start, end, 1);
    }

    /// Records one span covering `calls` back-to-back calls.
    #[inline]
    pub fn span_calls(&mut self, record: u64, layer: Layer, start: u64, end: u64, calls: u32) {
        self.spans.push(Span { record, layer, start, end, calls });
    }

    /// Counts one stepped record and the level it was sampled at.
    #[inline]
    pub fn count_record(&mut self, level: Option<Level>) {
        self.totals.records += 1;
        if let Some(level) = level {
            self.totals.sampled_records += 1;
            self.totals.level_records[level.index()] += 1;
        }
    }

    /// Adds drive-loop wall-clock.
    pub fn add_wall(&mut self, ns: u64) {
        self.totals.wall_ns += ns;
    }

    /// Folds the buffered spans into the totals and returns them, leaving
    /// the tracer empty.
    pub fn finish(&mut self) -> LayerTotals {
        let mut totals = std::mem::take(&mut self.totals);
        for span in self.spans.drain(..) {
            let dur = span.end.saturating_sub(span.start) as f64;
            totals.dur_ns[span.layer.index()] += dur;
            totals.net_ns[span.layer.index()] += dur - self.read_ns;
            totals.calls[span.layer.index()] += u64::from(span.calls);
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_mean_less_the_callees_means() {
        let mut t = Tracer::new(10.0);
        // One record timed whole, one at the step's callees, one at the
        // controller's callees, one not sampled.
        t.count_record(Some(Level::Step));
        t.span(0, Layer::Step, 0, 110);
        t.count_record(Some(Level::Callees));
        t.span(1, Layer::Demand, 0, 40);
        t.span(1, Layer::Controller, 50, 100);
        t.count_record(Some(Level::ControllerCallees));
        t.span(2, Layer::Train, 0, 30);
        t.count_record(None);
        t.add_wall(400);
        let totals = t.finish();
        assert_eq!(totals.ns_per_record(Layer::Step), 110.0);
        assert_eq!(totals.self_ns_per_record(Layer::Step), 100.0 - 30.0 - 40.0);
        assert_eq!(totals.self_ns_per_record(Layer::Controller), 40.0 - 20.0);
        assert_eq!(totals.ns_per_call(Layer::Train), 30.0);
        // 4 records × (30 + 30 + 20 + 20) ns cover the 400 ns of wall.
        assert!(totals.unattributed_frac().abs() < 1e-12);
    }

    #[test]
    fn the_sample_is_deterministic_and_spread_over_the_levels() {
        let mut counts = [0usize; 3];
        for seq in 0..480_000u64 {
            if let Some(level) = Tracer::level(seq) {
                counts[level.index()] += 1;
            }
        }
        for c in counts {
            assert!((9_000..11_000).contains(&c), "{counts:?}");
        }
        assert_eq!(Tracer::level(12_345), Tracer::level(12_345));
    }
}
