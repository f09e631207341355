//! The Sample Table (Fig. 4): per-PC runtime metrics feeding the Allocation
//! Table's state transitions.
//!
//! Each entry tracks, for its PC: the number of prefetches issued by each
//! prefetcher ("IssuedByP_i"), how many of them were confirmed by later demand
//! requests ("ConfirmedP_i"), the Demand Counter that defines the per-PC epoch
//! (threshold 100), and the Dead Counter that detects PCs stuck in an IA state
//! without producing prefetches (threshold 150).
//!
//! The selector resolves a demand's PC to its slot once with
//! [`SampleTable::slot_for`] and then updates that slot through the `*_at`
//! methods.

use alecto_types::{LruTable, Pc, RatioCounter};

use crate::config::AlectoConfig;

#[derive(Debug, Clone, Copy, Default)]
struct SampleEntry {
    demand_counter: u32,
    dead_counter: u32,
}

/// What the Sample Table asks the selector to do after recording a demand
/// access for a PC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleEvent {
    /// Keep going; no threshold reached.
    None,
    /// The Demand Counter reached the epoch length: run an Allocation Table
    /// state transition with the PC's accuracies
    /// ([`SampleTable::accuracies_at`]).
    EpochBoundary,
    /// The Dead Counter saturated: reset the PC's states back to UI.
    DeadlockReset,
}

/// The PC-indexed Sample Table.
#[derive(Debug, Clone)]
pub struct SampleTable {
    entries: LruTable<Pc, SampleEntry>,
    /// Issued/confirmed counters: one row of `prefetchers` per slot.
    counters: Vec<RatioCounter>,
    prefetchers: usize,
    lru_clock: u64,
    evictions: u64,
}

impl SampleTable {
    /// Creates a sample table for `prefetchers` prefetchers.
    ///
    /// # Panics
    ///
    /// Panics if `entries` or `prefetchers` is zero.
    #[must_use]
    pub fn new(entries: usize, prefetchers: usize) -> Self {
        assert!(entries > 0, "sample table needs entries");
        assert!(prefetchers > 0, "sample table needs at least one prefetcher");
        Self {
            entries: LruTable::new(entries),
            counters: vec![RatioCounter::new(); entries * prefetchers],
            prefetchers,
            lru_clock: 0,
            evictions: 0,
        }
    }

    /// Number of entries evicted due to capacity pressure.
    #[must_use]
    pub const fn evictions(&self) -> u64 {
        self.evictions
    }

    fn row(&self, slot: usize) -> &[RatioCounter] {
        &self.counters[slot * self.prefetchers..(slot + 1) * self.prefetchers]
    }

    fn row_mut(&mut self, slot: usize) -> &mut [RatioCounter] {
        &mut self.counters[slot * self.prefetchers..(slot + 1) * self.prefetchers]
    }

    /// The slot of `pc`, allocating a fresh entry (LRU-replacing one when the
    /// table is full) if the PC is not tracked. A fresh entry is not stamped
    /// as used until [`SampleTable::record_demand_at`] runs for it.
    pub fn slot_for(&mut self, pc: Pc) -> usize {
        if let Some(slot) = self.entries.find(pc) {
            return slot;
        }
        let (slot, evicted) = self.entries.insert(pc, 0, SampleEntry::default());
        if evicted.is_some() {
            self.evictions += 1;
        }
        self.row_mut(slot).fill(RatioCounter::new());
        slot
    }

    /// Records one demand access from the PC in `slot` and returns what (if
    /// anything) the selector must do in response.
    pub fn record_demand_at(&mut self, slot: usize, config: &AlectoConfig) -> SampleEvent {
        self.lru_clock += 1;
        self.entries.touch(slot, self.lru_clock);
        let entry = self.entries.value_mut(slot);
        entry.demand_counter += 1;
        if entry.dead_counter >= config.dead_threshold {
            entry.dead_counter = 0;
            return SampleEvent::DeadlockReset;
        }
        if entry.demand_counter >= config.epoch_demands {
            return SampleEvent::EpochBoundary;
        }
        SampleEvent::None
    }

    /// Records `count` prefetch requests issued by prefetcher `prefetcher` on
    /// behalf of the PC in `slot`.
    pub fn record_issued_at(&mut self, slot: usize, prefetcher: usize, count: u32) {
        if count > 0 {
            self.row_mut(slot)[prefetcher].record_issued(count);
        }
    }

    /// Records that a previously issued prefetch of prefetcher `prefetcher`
    /// was confirmed by a demand request from the PC in `slot`.
    pub fn record_confirmed_at(&mut self, slot: usize, prefetcher: usize) {
        self.row_mut(slot)[prefetcher].record_confirmed();
    }

    /// Bumps the Dead Counter (no prefetch was generated for a prediction) or
    /// decays it (a prefetch was generated).
    pub fn record_prediction_outcome_at(&mut self, slot: usize, generated_prefetch: bool) {
        let entry = self.entries.value_mut(slot);
        if generated_prefetch {
            entry.dead_counter = entry.dead_counter.saturating_sub(1);
        } else {
            entry.dead_counter += 1;
        }
    }

    /// Per-prefetcher accuracies of the PC in `slot` for the current epoch
    /// (`None` for prefetchers that issued nothing).
    pub fn accuracies_at(&self, slot: usize) -> impl Iterator<Item = Option<f64>> + '_ {
        self.row(slot).iter().map(RatioCounter::accuracy)
    }

    /// Clears the per-epoch counters of the PC in `slot` (issued/confirmed
    /// and the Demand Counter). The Dead Counter intentionally survives
    /// (§IV-C).
    pub fn reset_epoch_at(&mut self, slot: usize) {
        for c in self.row_mut(slot) {
            c.reset();
        }
        self.entries.value_mut(slot).demand_counter = 0;
    }

    /// Current Dead Counter of `pc` (testing/diagnostics).
    #[must_use]
    pub fn dead_counter(&self, pc: Pc) -> u32 {
        self.entries.get(pc).map_or(0, |e| e.dead_counter)
    }

    /// Current Demand Counter of `pc` (testing/diagnostics).
    #[must_use]
    pub fn demand_counter(&self, pc: Pc) -> u32 {
        self.entries.get(pc).map_or(0, |e| e.demand_counter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AlectoConfig {
        AlectoConfig::default()
    }

    #[test]
    fn epoch_boundary_after_100_demands() {
        let mut t = SampleTable::new(64, 3);
        let pc = Pc::new(0x40);
        let slot = t.slot_for(pc);
        for i in 1..100 {
            assert_eq!(t.record_demand_at(slot, &cfg()), SampleEvent::None, "demand {i}");
        }
        assert_eq!(t.record_demand_at(slot, &cfg()), SampleEvent::EpochBoundary);
        assert_eq!(t.demand_counter(pc), 100);
        t.reset_epoch_at(slot);
        assert_eq!(t.demand_counter(pc), 0);
    }

    #[test]
    fn accuracy_tracks_issued_and_confirmed() {
        let mut t = SampleTable::new(64, 2);
        let pc = Pc::new(0x44);
        let slot = t.slot_for(pc);
        t.record_issued_at(slot, 0, 4);
        t.record_confirmed_at(slot, 0);
        t.record_confirmed_at(slot, 0);
        t.record_issued_at(slot, 1, 10);
        let acc: Vec<_> = t.accuracies_at(slot).collect();
        assert_eq!(acc, vec![Some(0.5), Some(0.0)]);
        // A fresh PC has issued nothing: all-None.
        let fresh = t.slot_for(Pc::new(0x9999));
        assert_eq!(t.accuracies_at(fresh).collect::<Vec<_>>(), vec![None, None]);
    }

    #[test]
    fn epoch_reset_clears_ratio_but_not_dead_counter() {
        let mut t = SampleTable::new(64, 1);
        let pc = Pc::new(0x48);
        let slot = t.slot_for(pc);
        t.record_issued_at(slot, 0, 8);
        for _ in 0..5 {
            t.record_prediction_outcome_at(slot, false);
        }
        t.reset_epoch_at(slot);
        assert_eq!(t.accuracies_at(slot).next(), Some(None));
        assert_eq!(t.dead_counter(pc), 5, "the Dead Counter is not reset with the epoch");
    }

    #[test]
    fn dead_counter_saturation_triggers_reset_event() {
        let cfg = cfg();
        let mut t = SampleTable::new(64, 1);
        let pc = Pc::new(0x4c);
        let slot = t.slot_for(pc);
        for _ in 0..cfg.dead_threshold {
            t.record_prediction_outcome_at(slot, false);
        }
        // The next demand observes the saturated counter.
        assert_eq!(t.record_demand_at(slot, &cfg), SampleEvent::DeadlockReset);
        assert_eq!(t.dead_counter(pc), 0, "the reset event clears the dead counter");
    }

    #[test]
    fn successful_predictions_decay_dead_counter() {
        let mut t = SampleTable::new(64, 1);
        let pc = Pc::new(0x50);
        let slot = t.slot_for(pc);
        for _ in 0..10 {
            t.record_prediction_outcome_at(slot, false);
        }
        for _ in 0..4 {
            t.record_prediction_outcome_at(slot, true);
        }
        assert_eq!(t.dead_counter(pc), 6);
    }

    #[test]
    fn zero_count_issue_is_a_noop() {
        let mut t = SampleTable::new(64, 1);
        let pc = Pc::new(0x54);
        let slot = t.slot_for(pc);
        t.record_issued_at(slot, 0, 0);
        assert_eq!(t.accuracies_at(slot).next(), Some(None));
    }

    #[test]
    fn capacity_eviction_counts() {
        let mut t = SampleTable::new(4, 1);
        for pc in 0..8u64 {
            let slot = t.slot_for(Pc::new(pc));
            t.record_demand_at(slot, &cfg());
        }
        assert_eq!(t.evictions(), 4);
        // The newest PCs survive, the oldest were replaced.
        assert_eq!(t.demand_counter(Pc::new(7)), 1);
        assert_eq!(t.demand_counter(Pc::new(0)), 0);
    }

    #[test]
    #[should_panic(expected = "needs entries")]
    fn zero_entries_panics() {
        let _ = SampleTable::new(0, 1);
    }
}
