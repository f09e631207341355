//! Miss Status Holding Registers: track outstanding misses per cache so that
//! (a) repeated misses to the same line merge instead of re-fetching, and
//! (b) the number of outstanding misses — and therefore the exploitable
//! memory-level parallelism — is bounded, as in Table I (16/32/64 MSHRs).
//!
//! Every lookup, allocation and free-slot check first retires the entries
//! that completed by the caller's cycle. Most calls retire nothing, so the
//! file caches a lower bound on the earliest outstanding completion and
//! skips the sweep while the caller's cycle is still below it.

use alecto_types::{LineAddr, PrefetcherId};

use crate::stats::Cycle;

/// One outstanding miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MshrEntry {
    /// Line being fetched.
    pub line: LineAddr,
    /// Cycle at which the fill completes and the entry retires.
    pub completion: Cycle,
    /// Whether the entry was allocated by a prefetch (and by whom).
    pub prefetch_issuer: Option<PrefetcherId>,
    /// Whether a demand access has already merged into this entry.
    pub demand_merged: bool,
}

/// A fixed-capacity file of outstanding misses.
///
/// The live entries sit unordered in a flat `Vec` (at most one per line), so
/// lookups scan only what is outstanding, not the capacity. Storage order
/// never reaches the results: victim selection under structural hazards
/// ranks entries by the explicit `(completion, line)` key, which is unique
/// because lines are, so every run — serial or on a worker thread of the
/// parallel harness — is byte-identical.
///
/// `earliest` is never above the smallest `completion` in `entries`
/// (`Cycle::MAX` when empty), so a retirement sweep at a cycle below it
/// would remove nothing and is skipped. That holds for any call order,
/// including the shared L3 file, which each core probes at its own clock.
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    entries: Vec<MshrEntry>,
    earliest: Cycle,
}

impl MshrFile {
    /// Creates an MSHR file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR file needs at least one entry");
        Self { capacity, entries: Vec::new(), earliest: Cycle::MAX }
    }

    /// Maximum number of outstanding misses.
    #[must_use]
    pub const fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently outstanding misses (after retiring entries whose
    /// completion is `<= now`).
    pub fn occupancy(&mut self, now: Cycle) -> usize {
        self.retire(now);
        self.entries.len()
    }

    /// Removes entries that completed at or before `now`, and tightens the
    /// watermark to the earliest survivor.
    fn retire(&mut self, now: Cycle) {
        if now < self.earliest {
            return;
        }
        let mut earliest = Cycle::MAX;
        self.entries.retain(|e| {
            let live = e.completion > now;
            if live {
                earliest = earliest.min(e.completion);
            }
            live
        });
        self.earliest = earliest;
    }

    /// Looks up an in-flight miss for `line`, retiring stale entries first.
    ///
    /// Callers may mark the entry `demand_merged`; they must not move its
    /// `completion` earlier, which would break the retirement watermark.
    pub fn lookup(&mut self, line: LineAddr, now: Cycle) -> Option<&mut MshrEntry> {
        self.retire(now);
        self.entries.iter_mut().find(|e| e.line == line)
    }

    /// Returns the earliest completion time among outstanding entries, if any.
    fn earliest_completion(&self) -> Option<Cycle> {
        self.entries.iter().map(|e| e.completion).min()
    }

    /// Non-mutating completion probe: the cycle at which the outstanding miss
    /// for `line` completes, if one is still in flight at `now`.
    ///
    /// Unlike [`MshrFile::lookup`] this neither retires stale entries nor
    /// hands out a mutable reference, so timing models can ask "when does
    /// this particular access come back?" without perturbing the file.
    #[must_use]
    pub fn completion_of(&self, line: LineAddr, now: Cycle) -> Option<Cycle> {
        self.entries.iter().find(|e| e.line == line).map(|e| e.completion).filter(|&c| c > now)
    }

    /// Allocates an entry for `line`.
    ///
    /// If the file is full, demand allocations first displace an outstanding
    /// *prefetch* entry (demands have priority over best-effort prefetches in
    /// real MSHR designs); only when every entry belongs to a demand does the
    /// new request stall until the earliest outstanding miss retires. The
    /// returned value is the number of cycles the requester had to stall.
    ///
    /// The caller is responsible for having checked that `line` is not already
    /// in flight (via [`MshrFile::lookup`]); if it is, the new entry replaces
    /// the old one.
    pub fn allocate(
        &mut self,
        line: LineAddr,
        completion: Cycle,
        prefetch_issuer: Option<PrefetcherId>,
        now: Cycle,
    ) -> Cycle {
        self.retire(now);
        let mut stall = 0;
        if self.entries.len() >= self.capacity {
            // Demand priority: displace the prefetch entry that would complete
            // last (it has received the least DRAM service so far).
            let prefetch_victim = if prefetch_issuer.is_none() {
                self.entries
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.prefetch_issuer.is_some() && !e.demand_merged)
                    .max_by_key(|(_, e)| (e.completion, e.line))
                    .map(|(i, _)| i)
            } else {
                None
            };
            if let Some(victim) = prefetch_victim {
                self.entries.swap_remove(victim);
            } else {
                // Structural hazard: wait for the oldest outstanding miss.
                // Retiring at its completion frees at least its own entry.
                if let Some(earliest) = self.earliest_completion() {
                    stall = earliest.saturating_sub(now);
                    self.retire(earliest);
                }
                debug_assert!(self.entries.len() < self.capacity);
            }
        }
        let entry = MshrEntry {
            line,
            completion: completion + stall,
            prefetch_issuer,
            demand_merged: false,
        };
        self.earliest = self.earliest.min(entry.completion);
        match self.entries.iter_mut().find(|e| e.line == line) {
            Some(slot) => *slot = entry,
            None => self.entries.push(entry),
        }
        stall
    }

    /// True if the file currently has a free entry at `now`.
    pub fn has_free(&mut self, now: Cycle) -> bool {
        self.occupancy(now) < self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_and_lookup() {
        let mut m = MshrFile::new(2);
        assert_eq!(m.capacity(), 2);
        let stall = m.allocate(LineAddr::new(1), 100, None, 0);
        assert_eq!(stall, 0);
        assert!(m.lookup(LineAddr::new(1), 10).is_some());
        assert!(m.lookup(LineAddr::new(2), 10).is_none());
        // After completion the entry retires.
        assert!(m.lookup(LineAddr::new(1), 100).is_none());
    }

    #[test]
    fn completion_probe_is_non_mutating() {
        let mut m = MshrFile::new(2);
        m.allocate(LineAddr::new(7), 120, None, 0);
        // In flight: the probe reports the completion cycle without retiring.
        assert_eq!(m.completion_of(LineAddr::new(7), 10), Some(120));
        assert_eq!(m.completion_of(LineAddr::new(8), 10), None);
        // At or past completion the access is no longer outstanding.
        assert_eq!(m.completion_of(LineAddr::new(7), 120), None);
        // ...but the probe did not remove the (stale) entry itself.
        assert_eq!(m.entries.len(), 1);
    }

    #[test]
    fn merge_flag_is_writable() {
        let mut m = MshrFile::new(2);
        m.allocate(LineAddr::new(5), 50, Some(PrefetcherId(1)), 0);
        let e = m.lookup(LineAddr::new(5), 1).unwrap();
        assert_eq!(e.prefetch_issuer, Some(PrefetcherId(1)));
        assert!(!e.demand_merged);
        e.demand_merged = true;
        assert!(m.lookup(LineAddr::new(5), 2).unwrap().demand_merged);
    }

    #[test]
    fn full_file_stalls() {
        let mut m = MshrFile::new(2);
        m.allocate(LineAddr::new(1), 100, None, 0);
        m.allocate(LineAddr::new(2), 200, None, 0);
        assert!(!m.has_free(0));
        // Third allocation at cycle 10 must wait for the earliest (100).
        let stall = m.allocate(LineAddr::new(3), 300, None, 10);
        assert_eq!(stall, 90);
        assert!(m.lookup(LineAddr::new(3), 150).is_some());
    }

    #[test]
    fn occupancy_retires_completed() {
        let mut m = MshrFile::new(4);
        m.allocate(LineAddr::new(1), 10, None, 0);
        m.allocate(LineAddr::new(2), 20, None, 0);
        assert_eq!(m.occupancy(5), 2);
        assert_eq!(m.occupancy(15), 1);
        assert_eq!(m.occupancy(25), 0);
        assert!(m.has_free(0));
    }

    #[test]
    fn watermark_tracks_the_earliest_live_completion() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.earliest, Cycle::MAX);
        m.allocate(LineAddr::new(1), 100, None, 0);
        m.allocate(LineAddr::new(2), 50, None, 0);
        assert_eq!(m.earliest, 50);
        // Below the watermark nothing retires, whatever order clocks come in.
        assert_eq!(m.occupancy(40), 2);
        assert_eq!(m.occupancy(10), 2);
        // A sweep at or past it retires and moves the watermark up.
        assert_eq!(m.occupancy(50), 1);
        assert_eq!(m.earliest, 100);
        assert_eq!(m.occupancy(100), 0);
        assert_eq!(m.earliest, Cycle::MAX);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        let _ = MshrFile::new(0);
    }
}
