//! Differential test of the temporal prefetcher's eviction index against the
//! table it replaced: one `BTreeMap` whose victim was found by scanning every
//! entry with `min_by_key(order)`. Both are driven through the same line
//! streams at metadata budgets of 8 B–1 KiB (1–128 entries), so the table
//! fills and evicts constantly, and must agree on the predictions, the
//! `TableStats`, `occupancy()` and `probe` after every access.

use std::collections::BTreeMap;

use alecto_types::{Addr, DemandAccess, LineAddr, Pc};
use prefetch::{Prefetcher, TableStats, TemporalConfig, TemporalPrefetcher};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// The reference model: the scan-evicting prefetcher, with its training,
/// eviction and prediction code kept as it was.
struct ScanTemporal {
    config: TemporalConfig,
    table: BTreeMap<LineAddr, (LineAddr, u64)>,
    insert_clock: u64,
    last_line: Option<LineAddr>,
    stats: TableStats,
}

impl ScanTemporal {
    fn new(config: TemporalConfig) -> Self {
        Self {
            config,
            table: BTreeMap::new(),
            insert_clock: 0,
            last_line: None,
            stats: TableStats::default(),
        }
    }

    fn evict_if_full(&mut self) {
        let capacity = self.config.capacity_entries().max(1);
        if self.table.len() < capacity {
            return;
        }
        if let Some((&victim, _)) = self.table.iter().min_by_key(|(_, (_, order))| *order) {
            self.table.remove(&victim);
            self.stats.evictions += 1;
        }
    }

    fn train_and_predict(&mut self, access: &DemandAccess, degree: u32, out: &mut Vec<LineAddr>) {
        let line = access.line();
        self.stats.trainings += 1;
        if let Some(prev) = self.last_line {
            if prev != line {
                self.insert_clock += 1;
                if let Some(slot) = self.table.get_mut(&prev) {
                    *slot = (line, self.insert_clock);
                } else {
                    self.evict_if_full();
                    self.table.insert(prev, (line, self.insert_clock));
                }
            }
        }
        self.last_line = Some(line);
        let degree = degree.min(self.config.max_degree);
        if degree == 0 {
            return;
        }
        let mut cursor = line;
        for _ in 0..degree {
            self.stats.lookups += 1;
            match self.table.get(&cursor) {
                Some(&(next, _)) => {
                    self.stats.hits += 1;
                    if next == line || out.contains(&next) {
                        break;
                    }
                    out.push(next);
                    self.stats.candidates_emitted += 1;
                    cursor = next;
                }
                None => {
                    self.stats.misses += 1;
                    break;
                }
            }
        }
    }

    fn probe(&self, access: &DemandAccess) -> bool {
        self.table.contains_key(&access.line())
    }
}

fn access(line: u64) -> DemandAccess {
    DemandAccess::load(Pc::new(0xb00), Addr::new(line * 64))
}

/// Feeds `(line, degree)` steps to both prefetchers in lockstep; returns the
/// eviction count.
fn run_differential(config: TemporalConfig, steps: &[(u64, u32)]) -> Result<u64, TestCaseError> {
    let mut indexed = TemporalPrefetcher::new(config);
    let mut reference = ScanTemporal::new(config);
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for (step, &(line, degree)) in steps.iter().enumerate() {
        let a = access(line);
        got.clear();
        want.clear();
        indexed.train_and_predict(&a, degree, &mut got);
        reference.train_and_predict(&a, degree, &mut want);
        let ctx = || format!("{config:?}, step {step}, line {line}, degree {degree}");
        prop_assert!(got == want, "{}: predicted {got:?} != {want:?}", ctx());
        prop_assert!(*indexed.table_stats() == reference.stats, "{}: stats differ", ctx());
        prop_assert!(indexed.occupancy() == reference.table.len(), "{}: occupancy", ctx());
        prop_assert!(indexed.occupancy() <= config.capacity_entries().max(1));
        for probe in [line, line + 1, steps[step / 2].0] {
            let (p, q) = (indexed.probe(&access(probe)), reference.probe(&access(probe)));
            prop_assert!(p == q, "{}: probe({probe}) {p} != {q}", ctx());
        }
    }
    Ok(indexed.table_stats().evictions)
}

#[test]
fn updates_restamp_their_entry() {
    // Three entries (24 B): 1 → 2, 2 → 3 and 3 → 1 fill the table, then
    // 1 → 5 re-writes the oldest-inserted entry 1. Entry 2 is now the least
    // recently written, so inserting 5 → 6 evicts it and not entry 1.
    let config = TemporalConfig { metadata_bytes: 24, max_degree: 1 };
    let steps: Vec<(u64, u32)> = [1, 2, 3, 1, 5, 6].iter().map(|&l| (l, 1)).collect();
    assert_eq!(run_differential(config, &steps).unwrap(), 1);
    let mut pf = TemporalPrefetcher::new(config);
    let mut out = Vec::new();
    for &(line, _) in &steps {
        pf.train_and_predict(&access(line), 1, &mut out);
    }
    assert!(pf.probe(&access(1)), "the re-written entry survives");
    assert!(!pf.probe(&access(2)), "the least recently written entry is evicted");
}

#[test]
fn differential_covers_a_single_entry_table() {
    let config = TemporalConfig { metadata_bytes: 8, max_degree: 2 };
    let steps: Vec<(u64, u32)> = (0..60).map(|i| (i % 3 + (i / 20) * 5, 2)).collect();
    assert!(run_differential(config, &steps).unwrap() > 0);
}

proptest! {
    #[test]
    fn index_eviction_matches_scan_eviction(
        metadata_bytes in 8u64..=1024,
        max_degree in 1u32..=4,
        cycle_len in 2u64..300,
        raw in proptest::collection::vec((0u8..4, 0u64..1_000_000, 0u32..=4), 1..800),
    ) {
        let config = TemporalConfig { metadata_bytes, max_degree };
        let capacity = config.capacity_entries().max(1) as u64;
        // Recurring steps walk a fixed pointer-chase cycle, which may be
        // longer or shorter than the table; the rest re-touch a domain about
        // twice the capacity or never recur at all.
        let mut cursor = 0u64;
        let steps: Vec<(u64, u32)> = raw
            .into_iter()
            .map(|(pick, value, degree)| {
                let line = match pick {
                    0 | 1 => {
                        cursor += 1;
                        1_000 + (cursor % cycle_len) * 7_919 % 50_000
                    }
                    2 => value % (2 * capacity + 1),
                    _ => 10_000_000 + value,
                };
                (line, degree)
            })
            .collect();
        let evictions = run_differential(config, &steps)?;
        if steps.len() as u64 > 4 * capacity {
            prop_assert!(evictions > 0, "a filled table must evict");
        }
    }
}
