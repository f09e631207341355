//! PARSEC 3.0-like multi-threaded workloads (Fig. 17, eight-core runs).
//!
//! PARSEC regions of interest are parallel loops; for the trace-driven model
//! each core receives its own copy of the benchmark's blend, offset into a
//! private address-space slice, which is what [`per_core_sources`] provides.

use alecto_types::TraceSource;

use crate::blend::Blend;

/// The PARSEC benchmarks used in the multi-core evaluation.
pub const BENCHMARKS: [&str; 9] = [
    "blackscholes",
    "bodytrack",
    "canneal",
    "dedup",
    "fluidanimate",
    "freqmine",
    "streamcluster",
    "swaptions",
    "vips",
];

/// Builds the blend describing `name`.
///
/// # Panics
///
/// Panics if `name` is not in [`BENCHMARKS`].
#[must_use]
pub fn blend(name: &str) -> Blend {
    assert!(BENCHMARKS.contains(&name), "unknown PARSEC benchmark: {name}");
    let b = Blend::builder(name);
    match name {
        "blackscholes" => b.stream(0.5).resident(0.5).gap(24).finish(),
        "bodytrack" => b.stride(0.4).resident(0.4).noise(0.2).gap(20).finish(),
        "canneal" => b
            .memory_intensive()
            .chase(0.55)
            .noise(0.35)
            .resident(0.1)
            .gap(8)
            .chase_nodes(30_000)
            .finish(),
        "dedup" => b.memory_intensive().spatial(0.35).noise(0.4).stride(0.25).gap(12).finish(),
        "fluidanimate" => {
            b.memory_intensive().stream(0.45).spatial(0.35).resident(0.2).gap(12).finish()
        }
        "freqmine" => b.chase(0.35).resident(0.4).noise(0.25).gap(18).chase_nodes(10_000).finish(),
        "streamcluster" => {
            b.memory_intensive().stream(0.75).noise(0.15).resident(0.1).gap(7).finish()
        }
        "swaptions" => b.resident(0.8).stride(0.2).gap(45).finish(),
        "vips" => b.stream(0.5).stride(0.3).resident(0.2).gap(16).finish(),
        _ => unreachable!("benchmark {name} is listed but has no blend"),
    }
}

/// One thread's worth of the named PARSEC-like workload as a lazy
/// [`TraceSource`] of `accesses` records, generated on demand in O(1) memory.
///
/// # Panics
///
/// Panics if `name` is unknown.
#[must_use]
pub fn source(name: &str, accesses: usize) -> TraceSource {
    blend(name).source(accesses)
}

/// `cores` lazy per-thread sources of the named workload, each shifted into
/// a disjoint slice of the address space (threads share code but mostly work
/// on private data partitions in these benchmarks' regions of interest),
/// generating records on demand instead of materialising `cores × accesses`
/// records.
///
/// Each thread's trace is generated from [`crate::derive_seed`]`(name, core)`
/// — a pure function of the benchmark name and core index — so the threads'
/// access interleavings are decorrelated (as real sibling threads are) while
/// generation stays position-independent: any core's trace can be
/// regenerated in isolation, in any order, on any worker thread.
///
/// Tiny access budgets degrade gracefully: `accesses == 0` yields empty (but
/// well-formed) traces rather than panicking, so callers must not assume
/// every core has at least one record.
///
/// # Panics
///
/// Panics if `name` is unknown.
#[must_use]
pub fn per_core_sources(name: &str, accesses: usize, cores: usize) -> Vec<TraceSource> {
    let blueprint = blend(name);
    (0..cores)
        .map(|core| {
            let mut per_core = blueprint.clone();
            per_core.seed = crate::derive_seed(name, core as u64);
            per_core
                .source(accesses)
                .with_name(format!("{name}#t{core}"))
                .with_addr_offset((core as u64) << 38)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use alecto_types::MemoryRecord;

    fn records(source: &TraceSource) -> Vec<MemoryRecord> {
        source.records().collect()
    }

    #[test]
    fn all_benchmarks_have_blends() {
        for name in BENCHMARKS {
            assert_eq!(source(name, 100).records().count(), 100);
        }
    }

    #[test]
    fn per_core_sources_are_disjoint() {
        let per_core = per_core_sources("canneal", 200, 4);
        assert_eq!(per_core.len(), 4);
        // Guarded aggregation: an empty per-core trace (tiny access budgets)
        // must fail the test with a message, not panic inside max()/min().
        let a_max = per_core[0].records().map(|r| r.addr.raw()).max();
        let b_min = per_core[1].records().map(|r| r.addr.raw()).min();
        match (a_max, b_min) {
            (Some(a), Some(b)) => assert!(b > a, "core address slices must not overlap"),
            _ => panic!("a 200-access budget must give every core records"),
        }
        assert!(per_core[0].memory_intensive());
    }

    #[test]
    fn zero_access_budgets_degrade_gracefully() {
        // A tiny or zero --accesses budget must not panic anywhere in the
        // per-core pipeline: cores simply receive empty (or short) traces.
        for accesses in [0usize, 1, 2] {
            let per_core = per_core_sources("canneal", accesses, 3);
            assert_eq!(per_core.len(), 3);
            for (core, s) in per_core.iter().enumerate() {
                assert_eq!(s.memory_accesses(), accesses, "core {core}");
                assert_eq!(s.records().count(), accesses, "core {core}");
            }
        }
    }

    #[test]
    fn per_core_threads_are_decorrelated_but_position_independent() {
        let per_core = per_core_sources("canneal", 300, 3);
        // Core 0 is the canonical (job 0) trace, unshifted.
        assert_eq!(records(&per_core[0]), records(&source("canneal", 300)));
        // Sibling threads draw different interleavings from derived seeds.
        let strip = |s: &TraceSource, core: u64| -> Vec<u64> {
            s.records().map(|r| r.addr.raw() - (core << 38)).collect()
        };
        assert_ne!(strip(&per_core[1], 1), strip(&per_core[2], 2));
        // Regenerating the same core in isolation reproduces it exactly.
        let again = &per_core_sources("canneal", 300, 2)[1];
        assert_eq!(again.name(), per_core[1].name());
        assert_eq!(again.fingerprint(), per_core[1].fingerprint());
        assert_eq!(records(again), records(&per_core[1]));
    }

    #[test]
    #[should_panic(expected = "unknown PARSEC benchmark")]
    fn unknown_name_panics() {
        let _ = source("raytrace", 10);
    }
}
