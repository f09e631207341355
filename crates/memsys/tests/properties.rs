//! Property tests over the memory-system invariants the parallel experiment
//! engine leans on: the MSHR file must bound outstanding misses, merge
//! duplicate lines and behave exactly like the ordered-map reference model
//! below, and the cache must honour hit-after-fill and the eviction
//! invariants, under *arbitrary* access sequences — not just the
//! hand-picked ones of the unit tests.

use std::collections::BTreeMap;

use alecto_types::{LineAddr, PrefetcherId, CACHE_LINE_BYTES};
use memsys::{Cache, CacheParams, Cycle, MshrEntry, MshrFile};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// One random MSHR operation: allocate (demand or prefetch) or a lookup.
#[derive(Debug, Clone, Copy)]
enum MshrOp {
    Allocate { line: u64, latency: u64, prefetch: bool },
    Lookup { line: u64 },
}

fn mshr_op() -> impl Strategy<Value = MshrOp> {
    prop_oneof![
        (0u64..32, 1u64..400, any::<bool>())
            .prop_map(|(line, latency, prefetch)| MshrOp::Allocate { line, latency, prefetch }),
        (0u64..32).prop_map(|line| MshrOp::Lookup { line }),
    ]
}

/// Reference MSHR file: a `BTreeMap` that sweeps every entry on every
/// call. `MshrFile` must match it result for result; it also counts which
/// allocation path each call took.
struct RefMshr {
    capacity: usize,
    entries: BTreeMap<LineAddr, MshrEntry>,
    paths: AllocPaths,
}

/// How often each full-file allocation path ran.
#[derive(Debug, Default, Clone, Copy)]
struct AllocPaths {
    /// A demand displaced an outstanding prefetch.
    displaced: u64,
    /// The requester stalled until the earliest entry retired.
    stalled: u64,
    /// Retiring did not free a slot and the earliest entry was dropped.
    forced_drops: u64,
}

impl RefMshr {
    fn new(capacity: usize) -> Self {
        Self { capacity, entries: BTreeMap::new(), paths: AllocPaths::default() }
    }

    fn retire(&mut self, now: Cycle) {
        self.entries.retain(|_, e| e.completion > now);
    }

    fn occupancy(&mut self, now: Cycle) -> usize {
        self.retire(now);
        self.entries.len()
    }

    fn has_free(&mut self, now: Cycle) -> bool {
        self.occupancy(now) < self.capacity
    }

    fn lookup(&mut self, line: LineAddr, now: Cycle) -> Option<&mut MshrEntry> {
        self.retire(now);
        self.entries.get_mut(&line)
    }

    fn completion_of(&self, line: LineAddr, now: Cycle) -> Option<Cycle> {
        self.entries.get(&line).map(|e| e.completion).filter(|&c| c > now)
    }

    fn allocate(
        &mut self,
        line: LineAddr,
        completion: Cycle,
        prefetch_issuer: Option<PrefetcherId>,
        now: Cycle,
    ) -> Cycle {
        self.retire(now);
        let mut stall = 0;
        if self.entries.len() >= self.capacity {
            let prefetch_victim = if prefetch_issuer.is_none() {
                self.entries
                    .values()
                    .filter(|e| e.prefetch_issuer.is_some() && !e.demand_merged)
                    .max_by_key(|e| (e.completion, e.line))
                    .map(|e| e.line)
            } else {
                None
            };
            if let Some(victim) = prefetch_victim {
                self.paths.displaced += 1;
                self.entries.remove(&victim);
            } else {
                self.paths.stalled += 1;
                if let Some(earliest) = self.entries.values().map(|e| e.completion).min() {
                    stall = earliest.saturating_sub(now);
                    self.retire(earliest);
                }
                if self.entries.len() >= self.capacity {
                    if let Some((&victim, _)) =
                        self.entries.iter().min_by_key(|(_, e)| (e.completion, e.line))
                    {
                        self.paths.forced_drops += 1;
                        self.entries.remove(&victim);
                    }
                }
            }
        }
        self.entries.insert(
            line,
            MshrEntry {
                line,
                completion: completion + stall,
                prefetch_issuer,
                demand_merged: false,
            },
        );
        stall
    }
}

/// One step of a differential run. `clock` picks one of several
/// independently advancing clocks, as the cores sharing an L3 file keep, so
/// `now` moves backwards as well as forwards across consecutive ops.
#[derive(Debug, Clone, Copy)]
struct DiffOp {
    clock: usize,
    advance: u64,
    kind: DiffKind,
}

#[derive(Debug, Clone, Copy)]
enum DiffKind {
    /// `lookup` first (as the hierarchy does) unless `blind`, then allocate;
    /// a blind allocation of an in-flight line replaces its entry.
    Allocate {
        line: u64,
        latency: u64,
        prefetch: bool,
        blind: bool,
    },
    /// `lookup`, optionally writing `demand_merged` through the result.
    Lookup {
        line: u64,
        merge: bool,
    },
    HasFree,
    Occupancy,
    CompletionOf {
        line: u64,
    },
}

/// Half of the ops allocate, with a latency below `max_latency`, so files
/// of every capacity fill up and reach the displacement and stall paths.
fn diff_op(max_latency: u64) -> impl Strategy<Value = DiffOp> {
    let latency = prop_oneof![1u64..16, 16u64..400, 400u64..max_latency];
    let kind = (0u8..10, 0u64..1 << 20, latency, any::<bool>(), 0u8..8).prop_map(
        |(pick, line, latency, flag, blind)| match pick {
            0..=4 => DiffKind::Allocate { line, latency, prefetch: flag, blind: blind == 0 },
            5 | 6 => DiffKind::Lookup { line, merge: flag },
            7 => DiffKind::HasFree,
            8 => DiffKind::Occupancy,
            _ => DiffKind::CompletionOf { line },
        },
    );
    (0usize..4, 0u64..6, kind).prop_map(|(clock, advance, kind)| DiffOp { clock, advance, kind })
}

/// `(prefetch, latency)` of one entry allocated up front. Latencies are
/// whole thousands so that completion ties, which only the line breaks,
/// are common.
fn prefill_entry() -> impl Strategy<Value = (bool, u64)> {
    (any::<bool>(), (1u64..20).prop_map(|k| k * 1_000))
}

/// Prepends one allocation per `prefill` entry, to descending lines on
/// rotating clocks, so the random ops start from a file at or near full
/// whose insertion order is not its line order.
fn with_prefill(prefill: &[(bool, u64)], ops: Vec<DiffOp>) -> Vec<DiffOp> {
    let fill = prefill.iter().enumerate().map(|(i, &(prefetch, latency))| DiffOp {
        clock: i % 4,
        advance: 0,
        kind: DiffKind::Allocate {
            line: (prefill.len() - i) as u64,
            latency,
            prefetch,
            blind: false,
        },
    });
    fill.chain(ops).collect()
}

/// Drives `MshrFile` and the reference model through `ops` in lockstep,
/// failing on the first result that differs. Lines are folded into a
/// domain of about one and a half times the capacity so merges and
/// replacements happen.
fn run_differential(capacity: usize, ops: &[DiffOp]) -> Result<AllocPaths, TestCaseError> {
    let domain = capacity as u64 * 3 / 2 + 2;
    let mut mshr = MshrFile::new(capacity);
    let mut reference = RefMshr::new(capacity);
    let mut clocks = [0; 4];
    for (step, op) in ops.iter().enumerate() {
        clocks[op.clock] += op.advance;
        let now = clocks[op.clock];
        let ctx = || format!("step {step} at cycle {now}: {op:?}");
        match op.kind {
            DiffKind::Allocate { line, latency, prefetch, blind } => {
                let line = LineAddr::new(line % domain);
                let in_flight = if blind {
                    false
                } else {
                    let got = mshr.lookup(line, now).copied();
                    let want = reference.lookup(line, now).copied();
                    prop_assert!(got == want, "{}: {got:?} != {want:?}", ctx());
                    got.is_some()
                };
                if !in_flight {
                    let issuer = prefetch.then_some(PrefetcherId(1));
                    let got = mshr.allocate(line, now + latency, issuer, now);
                    let want = reference.allocate(line, now + latency, issuer, now);
                    prop_assert!(got == want, "{}: stall {got} != {want}", ctx());
                }
            }
            DiffKind::Lookup { line, merge } => {
                let line = LineAddr::new(line % domain);
                let got = mshr.lookup(line, now);
                let want = reference.lookup(line, now);
                prop_assert!(got.as_deref() == want.as_deref(), "{}: {got:?} != {want:?}", ctx());
                if merge {
                    if let (Some(got), Some(want)) = (got, want) {
                        got.demand_merged = true;
                        want.demand_merged = true;
                    }
                }
            }
            DiffKind::HasFree => {
                let (got, want) = (mshr.has_free(now), reference.has_free(now));
                prop_assert!(got == want, "{}: {got} != {want}", ctx());
            }
            DiffKind::Occupancy => {
                let (got, want) = (mshr.occupancy(now), reference.occupancy(now));
                prop_assert!(got == want && got <= capacity, "{}: {got} != {want}", ctx());
            }
            DiffKind::CompletionOf { line } => {
                let line = LineAddr::new(line % domain);
                let (got, want) =
                    (mshr.completion_of(line, now), reference.completion_of(line, now));
                prop_assert!(got == want, "{}: {got:?} != {want:?}", ctx());
            }
        }
    }
    // Whole-state check: the same number of entries (every completion is
    // above cycle 0, so nothing retires), and every line of the domain
    // reports the same completion.
    prop_assert_eq!(mshr.occupancy(0), reference.entries.len());
    for line in 0..domain {
        let line = LineAddr::new(line);
        prop_assert_eq!(mshr.completion_of(line, 0), reference.completion_of(line, 0));
    }
    // Retiring at the earliest completion always frees that entry, so the
    // reference's forced-drop branch is unreachable; `MshrFile` omits it.
    prop_assert_eq!(reference.paths.forced_drops, 0);
    Ok(reference.paths)
}

/// Ops on a single clock, from `(kind, advance)` pairs.
fn on_one_clock(steps: &[(DiffKind, u64)]) -> Vec<DiffOp> {
    steps.iter().map(|&(kind, advance)| DiffOp { clock: 0, advance, kind }).collect()
}

#[test]
fn differential_covers_every_full_file_path() {
    for capacity in [1, 4, 768] {
        let fill =
            |line, prefetch| DiffKind::Allocate { line, latency: 500, prefetch, blind: false };
        let mut steps = Vec::new();
        // A file full of prefetches: a demand displaces one of them.
        for line in 0..capacity as u64 {
            steps.push((
                DiffKind::Allocate { line, latency: 1_000 + line, prefetch: true, blind: false },
                0,
            ));
        }
        steps.push((fill(capacity as u64, false), 1));
        // A merged prefetch is not displaceable; a prefetch into a full file
        // stalls, and so does a demand once only demands remain.
        steps.push((DiffKind::Lookup { line: 1 % capacity as u64, merge: true }, 0));
        steps.push((fill(capacity as u64 + 1, true), 0));
        for line in 0..capacity as u64 {
            steps.push((fill(line + 2, false), 0));
        }
        steps.push((DiffKind::CompletionOf { line: 2 }, 0));
        steps.push((DiffKind::HasFree, 2_000));
        let paths = run_differential(capacity, &on_one_clock(&steps)).unwrap();
        assert!(paths.displaced > 0, "capacity {capacity}: {paths:?}");
        assert!(paths.stalled > 0, "capacity {capacity}: {paths:?}");
    }
}

#[test]
fn differential_handles_a_clock_that_runs_backwards() {
    // Core 1 sees an entry core 0 allocated "in its future", then core 0
    // retires it; core 1's earlier clock must now miss, as in the reference.
    let alloc = DiffKind::Allocate { line: 3, latency: 50, prefetch: false, blind: false };
    let ops = [
        DiffOp { clock: 0, advance: 100, kind: alloc },
        DiffOp { clock: 1, advance: 20, kind: DiffKind::Lookup { line: 3, merge: true } },
        DiffOp { clock: 0, advance: 60, kind: DiffKind::HasFree },
        DiffOp { clock: 1, advance: 0, kind: DiffKind::Lookup { line: 3, merge: false } },
        DiffOp { clock: 1, advance: 0, kind: DiffKind::CompletionOf { line: 3 } },
    ];
    run_differential(2, &ops).unwrap();
}

proptest! {
    #[test]
    fn mshr_matches_reference_model_small(
        capacity in 1usize..=64,
        prefill in proptest::collection::vec(prefill_entry(), 0..64),
        ops in proptest::collection::vec(diff_op(4_000), 1..400),
    ) {
        run_differential(capacity, &with_prefill(&prefill, ops))?;
    }

    #[test]
    fn mshr_matches_reference_model_large(
        capacity in 700usize..=800,
        prefill in proptest::collection::vec(prefill_entry(), 650..800),
        ops in proptest::collection::vec(diff_op(4_000), 200..800),
    ) {
        run_differential(capacity, &with_prefill(&prefill, ops))?;
    }

    #[test]
    fn mshr_occupancy_never_exceeds_capacity(
        capacity in 1usize..16,
        ops in proptest::collection::vec(mshr_op(), 1..120),
    ) {
        let mut mshr = MshrFile::new(capacity);
        let mut now = 0;
        for op in ops {
            now += 3;
            match op {
                MshrOp::Allocate { line, latency, prefetch } => {
                    let line = LineAddr::new(line);
                    // Callers merge via lookup before allocating, as the
                    // hierarchy does.
                    if mshr.lookup(line, now).is_none() {
                        let issuer = prefetch.then_some(PrefetcherId(0));
                        mshr.allocate(line, now + latency, issuer, now);
                    }
                }
                MshrOp::Lookup { line } => {
                    let _ = mshr.lookup(LineAddr::new(line), now);
                }
            }
            prop_assert!(
                mshr.occupancy(now) <= capacity,
                "occupancy {} over capacity {capacity}",
                mshr.occupancy(now),
            );
        }
    }

    #[test]
    fn mshr_merges_duplicate_lines(
        capacity in 1usize..16,
        line in 0u64..1_000,
        latency in 2u64..500,
    ) {
        let mut mshr = MshrFile::new(capacity);
        let line = LineAddr::new(line);
        prop_assert!(mshr.lookup(line, 0).is_none());
        mshr.allocate(line, latency, Some(PrefetcherId(1)), 0);
        // While in flight, a second request to the same line must find the
        // existing entry (and may merge into it) instead of re-allocating.
        let in_flight = mshr.lookup(line, latency - 1);
        prop_assert!(in_flight.is_some());
        let entry = in_flight.expect("checked above");
        prop_assert_eq!(entry.line, line);
        entry.demand_merged = true;
        prop_assert_eq!(mshr.occupancy(latency - 1), 1);
        // After completion the entry retires and the line misses again.
        prop_assert!(mshr.lookup(line, latency).is_none());
    }

    #[test]
    fn cache_hits_after_fill_until_evicted(
        ways in 1usize..8,
        sets_log2 in 0u32..4,
        fills in proptest::collection::vec(0u64..64, 1..80),
        probe in 0u64..64,
    ) {
        let sets = 1usize << sets_log2;
        let mut cache = Cache::new(CacheParams {
            size_bytes: (ways * sets) as u64 * CACHE_LINE_BYTES,
            ways,
            latency: 4,
            miss_latency: 1,
            mshrs: 4,
        });
        let mut resident: Vec<u64> = Vec::new();
        for line in fills {
            let evicted = cache.fill(LineAddr::new(line), None, None, false);
            if !resident.contains(&line) {
                resident.push(line);
            }
            if let Some(victim) = evicted {
                prop_assert!(
                    !cache.contains(victim.line),
                    "evicted line {victim:?} still resident",
                );
                resident.retain(|&l| l != victim.line.raw());
            }
            // Hit-after-fill: the just-filled line is always resident.
            prop_assert!(cache.contains(LineAddr::new(line)));
            prop_assert!(cache.demand_lookup(LineAddr::new(line), false).is_some());
            // Eviction invariant: occupancy is bounded by the geometry and
            // matches the model of resident lines exactly.
            prop_assert!(cache.occupancy() <= ways * sets);
            prop_assert_eq!(cache.occupancy(), resident.len());
        }
        // The cache agrees with the reference model on arbitrary probes.
        prop_assert_eq!(cache.contains(LineAddr::new(probe)), resident.contains(&probe));
    }

    #[test]
    fn cache_never_duplicates_a_line(
        fills in proptest::collection::vec(0u64..16, 1..60),
    ) {
        let mut cache = Cache::new(CacheParams {
            size_bytes: 4 * CACHE_LINE_BYTES,
            ways: 2,
            latency: 1,
            miss_latency: 1,
            mshrs: 2,
        });
        for line in fills {
            cache.fill(LineAddr::new(line), None, None, false);
            let mut seen: Vec<u64> = cache.resident_lines().map(|m| m.line.raw()).collect();
            let before = seen.len();
            seen.sort_unstable();
            seen.dedup();
            prop_assert!(before == seen.len(), "duplicate resident lines");
        }
    }
}
