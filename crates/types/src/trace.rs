//! Trace records: the interface between the workload generators (`traces`
//! crate) and the core timing model (`cpu` crate).
//!
//! The simulator is trace driven: a workload is a sequence of memory access
//! records, each annotated with the number of non-memory instructions the
//! core executed since the previous memory access. This is the same
//! information a gem5 simpoint checkpoint provides to an execution-driven
//! run, collapsed to what the memory hierarchy and prefetchers can observe.

use std::fmt;
use std::sync::Arc;

use crate::addr::{Addr, Pc};
use crate::hash::{fnv1a_64, FNV1A_OFFSET};
use crate::request::{AccessKind, DemandAccess};

/// One memory access in a workload trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryRecord {
    /// PC of the memory access instruction.
    pub pc: Pc,
    /// Byte address accessed.
    pub addr: Addr,
    /// Load or store.
    pub kind: AccessKind,
    /// Number of non-memory instructions executed since the previous record.
    pub gap_instructions: u32,
    /// `true` when this access is data-dependent on the previous access made
    /// by the *same PC* (pointer chasing): it cannot issue until that access
    /// completes. Independent accesses overlap freely inside the ROB window.
    pub dependent: bool,
}

impl MemoryRecord {
    /// Creates an (independent) load record.
    #[must_use]
    pub const fn load(pc: Pc, addr: Addr, gap_instructions: u32) -> Self {
        Self { pc, addr, kind: AccessKind::Load, gap_instructions, dependent: false }
    }

    /// Creates a load record that is serially dependent on the previous access
    /// of the same PC (a pointer-chase step).
    #[must_use]
    pub const fn dependent_load(pc: Pc, addr: Addr, gap_instructions: u32) -> Self {
        Self { pc, addr, kind: AccessKind::Load, gap_instructions, dependent: true }
    }

    /// Creates a store record.
    #[must_use]
    pub const fn store(pc: Pc, addr: Addr, gap_instructions: u32) -> Self {
        Self { pc, addr, kind: AccessKind::Store, gap_instructions, dependent: false }
    }

    /// The demand access this record turns into when it reaches the L1D.
    #[must_use]
    pub const fn demand(&self) -> DemandAccess {
        DemandAccess::new(self.pc, self.addr, self.kind)
    }

    /// Total instructions this record accounts for (the memory access itself
    /// plus the preceding non-memory instructions).
    #[must_use]
    pub const fn instructions(&self) -> u64 {
        self.gap_instructions as u64 + 1
    }
}

/// A named workload: a benchmark-like memory trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// Benchmark name (e.g. `"mcf"` or `"459.GemsFDTD"`).
    pub name: String,
    /// The memory access trace.
    pub records: Vec<MemoryRecord>,
    /// Whether the paper counts this benchmark as memory intensive (drives the
    /// separate geomean of Figs. 8/9 and the Fig. 19/20 benchmark set).
    pub memory_intensive: bool,
}

impl Workload {
    /// Creates a workload.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        records: Vec<MemoryRecord>,
        memory_intensive: bool,
    ) -> Self {
        Self { name: name.into(), records, memory_intensive }
    }

    /// Total instruction count represented by the trace.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.records.iter().map(MemoryRecord::instructions).sum()
    }

    /// Number of memory accesses in the trace.
    #[must_use]
    pub fn memory_accesses(&self) -> usize {
        self.records.len()
    }
}

/// A boxed, sendable record iterator — what a [`TraceSource`] factory yields.
pub type BoxedRecordIter = Box<dyn Iterator<Item = MemoryRecord> + Send>;

/// A lazily generated, restartable workload: the streaming counterpart of
/// [`Workload`].
///
/// Where a `Workload` eagerly materialises its whole trace as a
/// `Vec<MemoryRecord>` (O(accesses) memory), a `TraceSource` holds only a
/// *factory* that can mint fresh record iterators on demand, so a
/// 10-million-access run costs the same memory as a 100-access one. The
/// factory must be a pure function of the source's construction parameters:
/// every call to [`TraceSource::records`] yields the **same** record
/// sequence, which is what lets the parallel experiment engine hand one
/// shared source to many simulation cells (and several cores of one cell)
/// without coordination.
///
/// Cloning is cheap (the factory is behind an [`Arc`]).
#[derive(Clone)]
pub struct TraceSource {
    name: String,
    memory_intensive: bool,
    accesses: usize,
    fingerprint: u64,
    factory: Arc<dyn Fn() -> BoxedRecordIter + Send + Sync>,
}

impl TraceSource {
    /// Creates a source named `name` producing `accesses` records per replay.
    ///
    /// `factory` may yield an *unbounded* iterator; [`TraceSource::records`]
    /// truncates it to `accesses` records.
    ///
    /// The source's [`TraceSource::fingerprint`] starts as a hash of the name,
    /// intensity flag and access budget. A constructor whose record stream
    /// depends on anything beyond those — an explicit generation seed, a
    /// backing file — must fold that extra identity in with
    /// [`TraceSource::with_content_seed`] / [`TraceSource::with_content_tag`],
    /// or distinct streams could share a fingerprint.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        memory_intensive: bool,
        accesses: usize,
        factory: impl Fn() -> BoxedRecordIter + Send + Sync + 'static,
    ) -> Self {
        let name = name.into();
        let mut fingerprint = fnv1a_64(FNV1A_OFFSET, b"src|");
        fingerprint = fnv1a_64(fingerprint, name.as_bytes());
        fingerprint = fnv1a_64(fingerprint, &[u8::from(memory_intensive)]);
        fingerprint = fnv1a_64(fingerprint, &(accesses as u64).to_le_bytes());
        Self { name, memory_intensive, accesses, fingerprint, factory: Arc::new(factory) }
    }

    /// Wraps an already-materialised workload (the records are shared, not
    /// copied, between replays). The legacy bridge for callers that still
    /// build `Workload`s eagerly. The fingerprint covers the actual record
    /// bytes, so two materialised workloads share a fingerprint exactly when
    /// their traces are identical.
    #[must_use]
    pub fn from_workload(workload: Workload) -> Self {
        let Workload { name, records, memory_intensive } = workload;
        let accesses = records.len();
        let mut content = fnv1a_64(FNV1A_OFFSET, b"records|");
        for r in &records {
            content = fnv1a_64(content, &r.pc.raw().to_le_bytes());
            content = fnv1a_64(content, &r.addr.raw().to_le_bytes());
            content = fnv1a_64(content, &r.gap_instructions.to_le_bytes());
            content = fnv1a_64(content, &[u8::from(r.kind.is_load()), u8::from(r.dependent)]);
        }
        let records = Arc::new(records);
        Self::new(name, memory_intensive, accesses, move || {
            let records = Arc::clone(&records);
            Box::new((0..records.len()).map(move |i| records[i]))
        })
        .with_content_seed(content)
    }

    /// Benchmark name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether the paper counts the benchmark as memory intensive.
    #[must_use]
    pub const fn memory_intensive(&self) -> bool {
        self.memory_intensive
    }

    /// Number of memory accesses one replay produces.
    #[must_use]
    pub const fn memory_accesses(&self) -> usize {
        self.accesses
    }

    /// Starts a fresh replay of the trace. Every call yields the identical
    /// record sequence.
    #[must_use]
    pub fn records(&self) -> BoxedRecordIter {
        Box::new((self.factory)().take(self.accesses))
    }

    /// Starts a fresh replay yielding the records in batches of at most
    /// `batch` records (minimum 1). The simulator's drive loop pulls each
    /// core's records in fixed batches of `cpu::DEFAULT_BATCH_RECORDS`, which
    /// equals the `.altr` block size.
    ///
    /// Batching changes how many records move per call, never which records
    /// or in what order: concatenating the yielded batches reproduces
    /// [`TraceSource::records`] exactly, for any batch size. The batch size
    /// is not identity — it is deliberately **not** folded into the
    /// fingerprint.
    #[must_use]
    pub fn record_batches(&self, batch: usize) -> RecordBatches {
        RecordBatches { inner: self.records(), batch: batch.max(1) }
    }

    /// Materialises the trace into a [`Workload`] (O(accesses) memory — the
    /// legacy representation, still used by record-introspecting tests and
    /// figures).
    #[must_use]
    pub fn collect(&self) -> Workload {
        Workload::new(self.name.clone(), self.records().collect(), self.memory_intensive)
    }

    /// The source's content fingerprint: an FNV-1a64 digest of everything
    /// that determines the replayed record stream *and* how it is labelled in
    /// reports — the construction name, intensity flag, access budget, any
    /// folded-in seed or tag, and every derivation
    /// ([`TraceSource::with_name`], [`TraceSource::with_addr_offset`])
    /// applied since.
    ///
    /// Two sources with equal fingerprints replay byte-identical streams
    /// under identical labels (provided constructors uphold the folding
    /// contract documented on [`TraceSource::new`]), which is what lets the
    /// sweep server's cell cache treat the fingerprint as the trace's
    /// identity in a content-addressed cache key.
    #[must_use]
    pub const fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Folds an explicit generation seed into the fingerprint. Constructors
    /// whose stream depends on a seed beyond the benchmark name (e.g. per-core
    /// job seeds) must call this, or two differently seeded streams would be
    /// indistinguishable to the cell cache.
    #[must_use]
    pub fn with_content_seed(mut self, seed: u64) -> Self {
        self.fingerprint = fnv1a_64(self.fingerprint, b"|seed:");
        self.fingerprint = fnv1a_64(self.fingerprint, &seed.to_le_bytes());
        self
    }

    /// Folds an arbitrary identity tag into the fingerprint — e.g. the
    /// `.altr` body checksum of a file-backed source, which ties the
    /// fingerprint to the file's *content* rather than its path.
    #[must_use]
    pub fn with_content_tag(mut self, tag: &str) -> Self {
        self.fingerprint = fnv1a_64(self.fingerprint, b"|tag:");
        self.fingerprint = fnv1a_64(self.fingerprint, tag.as_bytes());
        self
    }

    /// Renames the source (e.g. to make sweep rows unique in a merged grid).
    /// The new label is folded into the fingerprint: reports key cells by
    /// benchmark name, so differently named replays of the same stream are
    /// different cells.
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self.fingerprint = fnv1a_64(self.fingerprint, b"|name:");
        self.fingerprint = fnv1a_64(self.fingerprint, self.name.as_bytes());
        self
    }

    /// Derives a source whose every address is shifted by `offset` bytes —
    /// how multi-core sweeps give each core its own address-space slice
    /// without materialising per-core record vectors.
    #[must_use]
    pub fn with_addr_offset(mut self, offset: u64) -> Self {
        let inner = self.factory;
        self.fingerprint = fnv1a_64(self.fingerprint, b"|off:");
        self.fingerprint = fnv1a_64(self.fingerprint, &offset.to_le_bytes());
        Self {
            factory: Arc::new(move || {
                Box::new(inner().map(move |r| MemoryRecord {
                    addr: Addr::new(r.addr.raw().wrapping_add(offset)),
                    ..r
                }))
            }),
            ..self
        }
    }
}

/// Iterator of record batches minted by [`TraceSource::record_batches`]:
/// the drive loop's fixed pull unit. Every batch but the last holds exactly
/// the requested batch size; the last holds the remainder.
pub struct RecordBatches {
    inner: BoxedRecordIter,
    batch: usize,
}

impl Iterator for RecordBatches {
    type Item = Vec<MemoryRecord>;

    fn next(&mut self) -> Option<Vec<MemoryRecord>> {
        let mut out = Vec::with_capacity(self.batch);
        for record in self.inner.by_ref() {
            out.push(record);
            if out.len() == self.batch {
                break;
            }
        }
        if out.is_empty() {
            None
        } else {
            Some(out)
        }
    }
}

impl fmt::Debug for RecordBatches {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecordBatches").field("batch", &self.batch).finish_non_exhaustive()
    }
}

impl fmt::Debug for TraceSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceSource")
            .field("name", &self.name)
            .field("memory_intensive", &self.memory_intensive)
            .field("accesses", &self.accesses)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_helpers() {
        let r = MemoryRecord::load(Pc::new(0x40), Addr::new(0x1000), 9);
        assert_eq!(r.instructions(), 10);
        assert!(r.demand().kind.is_load());
        let s = MemoryRecord::store(Pc::new(0x44), Addr::new(0x2000), 0);
        assert_eq!(s.instructions(), 1);
        assert!(!s.demand().kind.is_load());
    }

    #[test]
    fn workload_totals() {
        let w = Workload::new(
            "toy",
            vec![
                MemoryRecord::load(Pc::new(1), Addr::new(64), 4),
                MemoryRecord::store(Pc::new(2), Addr::new(128), 5),
            ],
            true,
        );
        assert_eq!(w.instructions(), 11);
        assert_eq!(w.memory_accesses(), 2);
        assert!(w.memory_intensive);
        assert_eq!(w.name, "toy");
    }

    fn counting_source(accesses: usize) -> TraceSource {
        TraceSource::new("count", true, accesses, || {
            Box::new((0u64..).map(|i| MemoryRecord::load(Pc::new(0x10), Addr::new(i * 64), 3)))
        })
    }

    #[test]
    fn source_replays_are_identical_and_bounded() {
        let s = counting_source(5);
        assert_eq!(s.name(), "count");
        assert!(s.memory_intensive());
        assert_eq!(s.memory_accesses(), 5);
        let a: Vec<MemoryRecord> = s.records().collect();
        let b: Vec<MemoryRecord> = s.records().collect();
        assert_eq!(a.len(), 5, "unbounded factory must be truncated");
        assert_eq!(a, b, "replays must be identical");
        assert_eq!(s.collect().records, a);
    }

    #[test]
    fn source_round_trips_through_workload() {
        let w = counting_source(4).collect();
        let s = TraceSource::from_workload(w.clone());
        assert_eq!(s.collect(), w);
        assert_eq!(s.memory_accesses(), 4);
    }

    #[test]
    fn offset_and_rename_derive_new_sources() {
        let s = counting_source(3).with_name("shifted").with_addr_offset(1 << 20);
        assert_eq!(s.name(), "shifted");
        let base = counting_source(3);
        for (shifted, plain) in s.records().zip(base.records()) {
            assert_eq!(shifted.addr.raw(), plain.addr.raw() + (1 << 20));
            assert_eq!(shifted.pc, plain.pc);
        }
    }

    #[test]
    fn sources_are_send_and_sync() {
        const fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TraceSource>();
        const fn assert_send<T: Send>() {}
        assert_send::<RecordBatches>();
    }

    #[test]
    fn batches_concatenate_to_the_per_record_stream() {
        let s = counting_source(10);
        let flat: Vec<MemoryRecord> = s.records().collect();
        for batch in [1usize, 3, 7, 10, 4096] {
            let batches: Vec<Vec<MemoryRecord>> = s.record_batches(batch).collect();
            assert!(
                batches.iter().rev().skip(1).all(|b| b.len() == batch),
                "every batch but the last must be full at size {batch}"
            );
            let joined: Vec<MemoryRecord> = batches.into_iter().flatten().collect();
            assert_eq!(joined, flat, "batch size {batch} must not change the stream");
        }
        // A zero batch size is clamped to one rather than looping forever.
        assert_eq!(s.record_batches(0).next().map(|b| b.len()), Some(1));
        // Empty sources yield no batches at all.
        assert!(counting_source(0).record_batches(8).next().is_none());
    }

    #[test]
    fn fingerprint_is_stable_across_clones_and_identical_constructions() {
        let a = counting_source(5);
        let b = counting_source(5);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.clone().fingerprint(), a.fingerprint());
    }

    #[test]
    fn fingerprint_diverges_on_every_identity_component() {
        let base = counting_source(5);
        assert_ne!(base.fingerprint(), counting_source(6).fingerprint(), "access budget");
        assert_ne!(base.fingerprint(), base.clone().with_name("other").fingerprint(), "rename");
        assert_ne!(
            base.fingerprint(),
            base.clone().with_addr_offset(64).fingerprint(),
            "address offset"
        );
        assert_ne!(
            base.fingerprint(),
            base.clone().with_content_seed(7).fingerprint(),
            "content seed"
        );
        assert_ne!(
            base.clone().with_content_seed(7).fingerprint(),
            base.clone().with_content_seed(8).fingerprint(),
            "different seeds"
        );
        assert_ne!(
            base.fingerprint(),
            base.clone().with_content_tag("altr:0xabc").fingerprint(),
            "content tag"
        );
    }

    #[test]
    fn fingerprint_folding_is_order_sensitive() {
        let a = counting_source(3).with_name("x").with_addr_offset(64);
        let b = counting_source(3).with_addr_offset(64).with_name("x");
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn workload_fingerprint_tracks_record_content() {
        let mk = |gap| {
            Workload::new("w", vec![MemoryRecord::load(Pc::new(1), Addr::new(64), gap)], false)
        };
        let a = TraceSource::from_workload(mk(4));
        let b = TraceSource::from_workload(mk(4));
        let c = TraceSource::from_workload(mk(5));
        assert_eq!(a.fingerprint(), b.fingerprint(), "identical traces share identity");
        assert_ne!(a.fingerprint(), c.fingerprint(), "record content must matter");
    }
}
