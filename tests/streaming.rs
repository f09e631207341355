//! Replay properties of `TraceSource`, the simulator's one trace
//! representation, for every benchmark registered in the `Suite` registry:
//! a replay honours the access budget and repeats every earlier replay
//! record for record, batching re-chunks without reordering, and address
//! offsets commute with replay. This is the contract that lets the
//! experiment engine stream 10-million-access traces in O(1) memory and
//! hand one source to many cells and cores.

use alecto_repro::types::{MemoryRecord, TraceSource};
use proptest::prelude::*;
use traces::Suite;

/// Flattened registry: every (suite, benchmark) pair.
fn registry() -> Vec<(Suite, &'static str)> {
    Suite::ALL.iter().flat_map(|s| s.benchmarks().into_iter().map(move |b| (*s, b))).collect()
}

fn records(source: &TraceSource) -> Vec<MemoryRecord> {
    source.records().collect()
}

proptest! {
    // A fresh replay of a registered benchmark × access budget equals the
    // records collected from an earlier replay and from an independently
    // built source of the same benchmark.
    #[test]
    fn streamed_equals_collected_for_every_registered_benchmark(
        bench_idx in 0usize..70,
        accesses in 0usize..600,
    ) {
        let reg = registry();
        let (suite, name) = reg[bench_idx % reg.len()];
        let source = suite.source(name, accesses);
        prop_assert_eq!(source.name(), name);
        prop_assert_eq!(source.memory_accesses(), accesses);
        let collected = records(&source);
        prop_assert_eq!(collected.len(), accesses);
        prop_assert_eq!(&records(&source), &collected);
        let rebuilt = suite.source(name, accesses);
        prop_assert_eq!(rebuilt.fingerprint(), source.fingerprint());
        prop_assert_eq!(records(&rebuilt), collected);
    }

    // Per-job derived seeds stay position independent: a blend variant
    // seeded with `derive_seed(name, job)` replays identically however many
    // times and wherever it is instantiated.
    #[test]
    fn derived_seed_sources_replay_identically(
        job in 0u64..16,
        accesses in 1usize..400,
    ) {
        let blend = || {
            traces::Blend::builder("prop-job")
                .stream(0.4)
                .chase(0.3)
                .noise(0.3)
                .seed(traces::derive_seed("prop-job", job))
                .finish()
        };
        let source = blend().source(accesses);
        let a = records(&source);
        prop_assert_eq!(a.len(), accesses);
        prop_assert_eq!(&a, &records(&source));
        prop_assert_eq!(a, records(&blend().source(accesses)));
    }

    // Record batches are a pure re-chunking of the per-record stream: for
    // any registered benchmark × seed-independent access budget × batch
    // size — degenerate 1, awkward prime 7, the block-sized default —
    // concatenating the batches reproduces the per-record stream exactly,
    // and every batch except the last is full.
    #[test]
    fn batched_streams_equal_per_record_streams_for_every_registered_benchmark(
        bench_idx in 0usize..70,
        accesses in 0usize..600,
        batch in prop_oneof![Just(1usize), Just(7), Just(4096)],
    ) {
        let reg = registry();
        let (suite, name) = reg[bench_idx % reg.len()];
        let source = suite.source(name, accesses);
        let per_record = records(&source);
        let batches: Vec<Vec<_>> = source.record_batches(batch).collect();
        for (i, b) in batches.iter().enumerate() {
            prop_assert!(!b.is_empty(), "batch {i} of {name} is empty");
            if i + 1 < batches.len() {
                prop_assert!(b.len() == batch, "non-final batch {} of {} short", i, name);
            }
        }
        let flattened: Vec<_> = batches.into_iter().flatten().collect();
        prop_assert_eq!(flattened, per_record);
    }

    // Address-offset derivation (the multi-core slicing) commutes with
    // replay for any registered benchmark.
    #[test]
    fn offset_sources_commute_with_collection(
        bench_idx in 0usize..70,
        core in 0usize..8,
        accesses in 1usize..300,
    ) {
        let reg = registry();
        let (suite, name) = reg[bench_idx % reg.len()];
        let offset = (core as u64) << 40;
        let base = records(&suite.source(name, accesses));
        let shifted = records(&suite.source(name, accesses).with_addr_offset(offset));
        prop_assert_eq!(shifted.len(), base.len());
        for (s, b) in shifted.iter().zip(&base) {
            prop_assert_eq!(s.addr.raw(), b.addr.raw().wrapping_add(offset));
            prop_assert_eq!(s.pc, b.pc);
            prop_assert_eq!(s.kind, b.kind);
        }
    }
}

/// The whole registry, exhaustively, at one representative budget — the
/// proptests above sample pairs; this pins every benchmark at least once.
#[test]
fn every_registered_benchmark_streams_exactly_its_collected_records() {
    for (suite, name) in registry() {
        let source = suite.source(name, 257); // odd budget: mid-batch cuts
        let collected = records(&source);
        assert_eq!(collected.len(), 257, "suite {suite:?} benchmark {name}");
        assert_eq!(records(&source), collected, "suite {suite:?} benchmark {name}");
    }
}

/// A source over in-memory records replays them losslessly under the given
/// label, and its fingerprint tracks the record content.
#[test]
fn from_records_round_trips() {
    let generated = traces::web::source("kv-store", 123);
    let collected = records(&generated);
    let intensive = generated.memory_intensive();
    let s = TraceSource::from_records("kv-store", intensive, collected.clone());
    assert_eq!((s.name(), s.memory_intensive(), s.memory_accesses()), ("kv-store", intensive, 123));
    assert_eq!(records(&s), collected);
    let again = TraceSource::from_records("kv-store", intensive, collected.clone());
    assert_eq!(again.fingerprint(), s.fingerprint(), "identical records share identity");
    let mut edited = collected;
    edited[0].gap_instructions += 1;
    let edited = TraceSource::from_records("kv-store", intensive, edited);
    assert_ne!(edited.fingerprint(), s.fingerprint(), "record content must matter");
}
