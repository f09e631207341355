//! Differential test of [`LruTable`] against the table it replaced in every
//! prefetcher and Alecto table: a `Vec<Option<Entry>>` that looks a key up
//! with `position`, fills the first `None` and otherwise evicts
//! `min_by_key(lru)`. Both are driven through the same random key streams
//! at capacities 1–64 and must agree on the slot, hit/miss, evicted entry,
//! eviction count and whole table contents after every step. The streams
//! include caller-chosen stamps that tie (stamp-0 inserts, as the Sample
//! Table makes) and PMP's evict-then-refill path.

use alecto_types::LruTable;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RefEntry {
    key: u32,
    value: u64,
    lru: u64,
}

/// The reference model: the `Vec<Option<Entry>>` table, with its lookup,
/// fill and eviction code kept as it was.
struct RefTable {
    entries: Vec<Option<RefEntry>>,
    evictions: u64,
}

impl RefTable {
    fn new(capacity: usize) -> Self {
        Self { entries: vec![None; capacity], evictions: 0 }
    }

    fn find(&self, key: u32) -> Option<usize> {
        self.entries.iter().position(|e| e.map(|e| e.key) == Some(key))
    }

    fn lru_victim(&self) -> usize {
        self.entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.map(|e| e.lru).unwrap_or(0))
            .map(|(i, _)| i)
            .expect("table is non-empty")
    }

    /// The stride / stream / CPLX / Berti / Alecto path: the first empty
    /// slot, else the LRU victim is overwritten.
    fn insert(&mut self, key: u32, stamp: u64, value: u64) -> (usize, Option<RefEntry>) {
        let slot = if let Some(i) = self.entries.iter().position(Option::is_none) {
            i
        } else {
            self.evictions += 1;
            self.lru_victim()
        };
        let old = self.entries[slot].replace(RefEntry { key, value, lru: stamp });
        (slot, old)
    }

    /// PMP's path: take the victim out (leaving a hole), then refill the
    /// first empty slot.
    fn evict_then_refill(&mut self, key: u32, stamp: u64, value: u64) -> (usize, Option<RefEntry>) {
        let old = if self.entries.iter().any(Option::is_none) {
            None
        } else {
            self.evictions += 1;
            let victim = self.lru_victim();
            self.entries[victim].take()
        };
        let slot = self.entries.iter().position(Option::is_none).expect("a free slot");
        self.entries[slot] = Some(RefEntry { key, value, lru: stamp });
        (slot, old)
    }
}

/// How an operation stamps the slot it touches or fills.
#[derive(Debug, Clone, Copy)]
enum Stamp {
    /// The op counter: strictly increasing, as the prefetchers' clocks.
    Clock,
    /// Zero, as a fresh Sample Table entry: ties with every other 0.
    Zero,
    /// The op counter / 8: runs of equal stamps.
    Coarse,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Look up; stamp and bump the value on a hit, insert on a miss.
    Access { key: u32, stamp: Stamp },
    /// As `Access`, but a miss takes PMP's evict-then-refill path.
    AccessRefill { key: u32, stamp: Stamp },
    /// Stamp the key's slot if present, never insert (`record_demand`).
    Touch { key: u32 },
    /// Read-only lookup (`probe`).
    Get { key: u32 },
}

fn stamp_mode() -> impl Strategy<Value = Stamp> {
    prop_oneof![Just(Stamp::Clock), Just(Stamp::Zero), Just(Stamp::Coarse)]
}

/// Runs `ops` on both tables in lockstep; returns (hits, evictions).
fn run_differential(capacity: usize, ops: &[Op]) -> Result<(u64, u64), TestCaseError> {
    let mut table: LruTable<u32, u64> = LruTable::new(capacity);
    let mut reference = RefTable::new(capacity);
    let (mut hits, mut evictions) = (0u64, 0u64);
    for (step, &op) in ops.iter().enumerate() {
        let clock = step as u64 + 1;
        let stamp_of = |s: Stamp| match s {
            Stamp::Clock => clock,
            Stamp::Zero => 0,
            Stamp::Coarse => clock / 8,
        };
        let ctx = || format!("capacity {capacity}, step {step}, {op:?}");
        match op {
            Op::Access { key, stamp } | Op::AccessRefill { key, stamp } => {
                let got = table.find(key);
                let want = reference.find(key);
                prop_assert!(got == want, "{}: find {got:?} != {want:?}", ctx());
                let stamp = stamp_of(stamp);
                if let Some(slot) = got {
                    hits += 1;
                    table.touch(slot, stamp);
                    *table.value_mut(slot) += 1;
                    let e = reference.entries[slot].as_mut().expect("found slot is occupied");
                    e.lru = stamp;
                    e.value += 1;
                } else {
                    let (slot, old) = table.insert(key, stamp, clock);
                    let (want_slot, want_old) = if matches!(op, Op::Access { .. }) {
                        reference.insert(key, stamp, clock)
                    } else {
                        reference.evict_then_refill(key, stamp, clock)
                    };
                    evictions += u64::from(old.is_some());
                    prop_assert!(slot == want_slot, "{}: slot {slot} != {want_slot}", ctx());
                    let want_old = want_old.map(|e| (e.key, e.value));
                    prop_assert!(old == want_old, "{}: evicted {old:?} != {want_old:?}", ctx());
                }
            }
            Op::Touch { key } => {
                if let Some(slot) = table.find(key) {
                    table.touch(slot, clock);
                }
                if let Some(slot) = reference.find(key) {
                    reference.entries[slot].as_mut().expect("found slot is occupied").lru = clock;
                }
            }
            Op::Get { key } => {
                let got = table.get(key).copied();
                let want = reference.find(key).and_then(|i| reference.entries[i]).map(|e| e.value);
                prop_assert!(got == want, "{}: get {got:?} != {want:?}", ctx());
            }
        }
        prop_assert!(evictions == reference.evictions, "{}: evictions differ", ctx());
        // Whole-table check: slots 0..len are occupied, in the same order,
        // with the same keys, stamps and values; the rest are empty.
        prop_assert!(table.len() <= capacity);
        for (i, want) in reference.entries.iter().enumerate() {
            let got = (i < table.len()).then(|| RefEntry {
                key: table.key(i),
                value: *table.value(i),
                lru: table.stamp(i),
            });
            prop_assert!(got == *want, "{}: slot {i} {got:?} != {want:?}", ctx());
        }
    }
    Ok((hits, evictions))
}

#[test]
fn differential_breaks_stamp_ties_by_lowest_index() {
    // Four stamp-0 inserts fill the table; the next key replaces slot 0,
    // and once that slot is stamped, slot 1 goes next.
    let zero = |key| Op::Access { key, stamp: Stamp::Zero };
    let mut ops: Vec<Op> = (0..4).map(zero).collect();
    ops.push(zero(10));
    ops.push(Op::Touch { key: 10 });
    ops.push(zero(11));
    ops.push(Op::AccessRefill { key: 12, stamp: Stamp::Zero });
    let (_, evictions) = run_differential(4, &ops).unwrap();
    assert_eq!(evictions, 3);
}

#[test]
fn differential_covers_capacity_one() {
    let ops: Vec<Op> = (0..20)
        .map(|i| match i % 3 {
            0 => Op::Access { key: i % 2, stamp: Stamp::Clock },
            1 => Op::AccessRefill { key: i % 3, stamp: Stamp::Zero },
            _ => Op::Get { key: 1 },
        })
        .collect();
    let (hits, evictions) = run_differential(1, &ops).unwrap();
    assert!(hits > 0 && evictions > 0);
}

proptest! {
    #[test]
    fn lru_table_matches_reference_model(
        capacity in 1usize..=64,
        raw_ops in proptest::collection::vec((0u8..10, 0u32..1_000, stamp_mode()), 1..600),
    ) {
        // Keys come from a domain about one and a half times the capacity,
        // so hits, fills and evictions all happen.
        let domain = (capacity as u32 * 3).div_ceil(2) + 1;
        let ops: Vec<Op> = raw_ops
            .into_iter()
            .map(|(pick, key, stamp)| {
                let key = key % domain;
                match pick {
                    0..=4 => Op::Access { key, stamp },
                    5 | 6 => Op::AccessRefill { key, stamp },
                    7 | 8 => Op::Touch { key },
                    _ => Op::Get { key },
                }
            })
            .collect();
        let (hits, evictions) = run_differential(capacity, &ops)?;
        if ops.len() > 8 * capacity {
            prop_assert!(hits > 0 && evictions > 0, "hits {hits}, evictions {evictions}");
        }
    }
}
