//! The three-level hierarchy of Table I: per-core private L1D and L2, a
//! shared L3, and DRAM, plus the plumbing that lets the CPU model issue
//! demand accesses and prefetch requests with cycle timestamps.

use alecto_types::{FillLevel, LineAddr, Pc, PrefetchRequest, PrefetcherId};

use crate::cache::Cache;
use crate::config::{HierarchyParams, Level};
use crate::dram::DramModel;
use crate::mshr::MshrFile;
use crate::stats::{CacheStats, Cycle, PrefetchQuality};
use crate::timing::{BandwidthQueue, BandwidthQueueStats, TimingStats};

/// How a demand access interacted with previously issued prefetches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoverageEvent {
    /// Ordinary cache hit on a line that was not brought in by a prefetch.
    CacheHit,
    /// The access hit a line that a completed prefetch had brought in.
    CoveredTimely {
        /// Prefetcher that issued the covering prefetch.
        issuer: PrefetcherId,
        /// PC that triggered the covering prefetch, if recorded.
        trigger_pc: Option<Pc>,
    },
    /// The access found its line still in flight from a prefetch (late).
    CoveredUntimely {
        /// Prefetcher that issued the covering prefetch.
        issuer: PrefetcherId,
        /// PC that triggered the covering prefetch, if recorded.
        trigger_pc: Option<Pc>,
    },
    /// The access had to fetch the line from DRAM itself.
    Uncovered,
    /// The access missed the L1 but was satisfied on-chip (L2/L3) by a line
    /// that no prefetch had brought in.
    OnChipMiss,
}

/// Result of a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DemandResult {
    /// Level that supplied the data (`None` means the line merged with an
    /// in-flight miss).
    pub hit_level: Option<Level>,
    /// Load-to-use latency in cycles, including MSHR stalls and DRAM queueing.
    pub latency: u64,
    /// Absolute cycle at which the data is available.
    pub completion_cycle: Cycle,
    /// Prefetch coverage classification for Fig. 10.
    pub coverage: CoverageEvent,
}

/// Result of issuing one prefetch request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchIssueResult {
    /// `false` if the request was dropped as redundant (already resident or
    /// already in flight).
    pub issued: bool,
    /// Cycle at which the prefetched line lands in its target cache.
    pub completion_cycle: Cycle,
    /// `true` if the fill had to go all the way to DRAM.
    pub went_to_dram: bool,
}

/// Usefulness feedback about a previously issued prefetch, consumed by
/// selection algorithms that learn from prefetch outcomes (PPF, Bandit reward
/// shaping, statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchFeedback {
    /// Which prefetcher issued the prefetch.
    pub issuer: PrefetcherId,
    /// PC that triggered it, if recorded.
    pub trigger_pc: Option<Pc>,
    /// The prefetched line.
    pub line: LineAddr,
    /// `true` if a demand access used the line, `false` if it was evicted
    /// without use.
    pub useful: bool,
}

/// Channel backlog (in 64 B burst slots) beyond which off-chip prefetches are
/// dropped rather than queued behind demand traffic.
const PREFETCH_DRAM_PRESSURE_LIMIT: f64 = 32.0;

#[derive(Debug)]
struct CorePrivate {
    l1d: Cache,
    l2: Cache,
    l1_mshr: MshrFile,
    l2_mshr: MshrFile,
    quality: PrefetchQuality,
    timing: TimingStats,
}

/// The full memory hierarchy shared by all cores.
#[derive(Debug)]
pub struct Hierarchy {
    params: HierarchyParams,
    cores: Vec<CorePrivate>,
    l3: Cache,
    l3_mshr: MshrFile,
    dram: DramModel,
    /// Memory-controller admission queue in front of the DRAM banks; demand
    /// and prefetch fills alike consume its drain bandwidth.
    dram_queue: BandwidthQueue,
    feedback: Vec<PrefetchFeedback>,
    prefetches_issued: u64,
    prefetches_redundant: u64,
}

impl Hierarchy {
    /// Builds an empty hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid — most importantly when a
    /// level's geometry does not yield a power-of-two set count, which the
    /// set-index mask silently requires (see
    /// [`crate::CacheParams::validate`]).
    #[must_use]
    pub fn new(params: HierarchyParams) -> Self {
        params.validate().unwrap_or_else(|e| panic!("invalid hierarchy configuration: {e}"));
        let cores = (0..params.cores)
            .map(|_| CorePrivate {
                l1d: Cache::new(params.l1d),
                l2: Cache::new(params.l2),
                l1_mshr: MshrFile::new(params.l1d.mshrs),
                l2_mshr: MshrFile::new(params.l2.mshrs),
                quality: PrefetchQuality::default(),
                timing: TimingStats::default(),
            })
            .collect();
        Self {
            l3: Cache::new(params.l3),
            l3_mshr: MshrFile::new(params.l3.mshrs),
            dram: DramModel::new(params.dram),
            dram_queue: BandwidthQueue::new(params.timing),
            cores,
            params,
            feedback: Vec::new(),
            prefetches_issued: 0,
            prefetches_redundant: 0,
        }
    }

    /// Configuration in use.
    #[must_use]
    pub const fn params(&self) -> &HierarchyParams {
        &self.params
    }

    /// Number of cores.
    #[must_use]
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// L1D statistics of `core`.
    #[must_use]
    pub fn l1_stats(&self, core: usize) -> &CacheStats {
        self.cores[core].l1d.stats()
    }

    /// L2 statistics of `core`.
    #[must_use]
    pub fn l2_stats(&self, core: usize) -> &CacheStats {
        self.cores[core].l2.stats()
    }

    /// Shared L3 statistics.
    #[must_use]
    pub fn l3_stats(&self) -> &CacheStats {
        self.l3.stats()
    }

    /// DRAM statistics.
    #[must_use]
    pub fn dram_stats(&self) -> &crate::dram::DramStats {
        self.dram.stats()
    }

    /// Prefetch-quality breakdown of `core` (Fig. 10).
    #[must_use]
    pub fn quality(&self, core: usize) -> &PrefetchQuality {
        &self.cores[core].quality
    }

    /// Cycle accounting over `core`'s demand stream: access count, summed
    /// load-to-use latency, and the MSHR/DRAM-queue stall breakdown.
    #[must_use]
    pub fn timing_stats(&self, core: usize) -> &TimingStats {
        &self.cores[core].timing
    }

    /// Statistics of the DRAM admission (bandwidth) queue, shared by all
    /// cores and by prefetch traffic.
    #[must_use]
    pub const fn dram_queue_stats(&self) -> &BandwidthQueueStats {
        self.dram_queue.stats()
    }

    /// Total prefetches that actually went out (not dropped as redundant).
    #[must_use]
    pub const fn prefetches_issued(&self) -> u64 {
        self.prefetches_issued
    }

    /// Prefetches dropped because the line was resident or in flight.
    #[must_use]
    pub const fn prefetches_redundant(&self) -> u64 {
        self.prefetches_redundant
    }

    /// Completion-time query for an individual outstanding access: the cycle
    /// at which the in-flight miss covering `line` completes, probing `core`'s
    /// private L1 and L2 MSHRs and then the shared L3 file, or `None` when the
    /// line is not outstanding anywhere at `now`.
    ///
    /// This is the per-access counterpart of the aggregate latency counters in
    /// [`Hierarchy::timing_stats`]: cycle-level core models (the out-of-order
    /// LSQ in `crates/cpu`) use it to wake individual queue entries instead of
    /// treating every miss as an opaque scalar latency. Read-only — probing
    /// never retires entries or perturbs timing.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn outstanding_completion(&self, core: usize, line: LineAddr, now: Cycle) -> Option<Cycle> {
        let private = &self.cores[core];
        private
            .l1_mshr
            .completion_of(line, now)
            .or_else(|| private.l2_mshr.completion_of(line, now))
            .or_else(|| self.l3_mshr.completion_of(line, now))
    }

    /// Drains accumulated prefetch usefulness feedback, oldest first. The
    /// buffer keeps its allocation for the next record.
    pub fn drain_feedback(&mut self) -> std::vec::Drain<'_, PrefetchFeedback> {
        self.feedback.drain(..)
    }

    /// Reports a fill's victim to the selectors if it was a prefetched line
    /// that no demand ever used, and counts it as overpredicted.
    fn record_eviction_feedback(
        feedback: &mut Vec<PrefetchFeedback>,
        quality: &mut PrefetchQuality,
        evicted: Option<crate::cache::EvictionInfo>,
    ) {
        if let Some(ev) = evicted {
            if ev.was_unused_prefetch {
                if let Some(issuer) = ev.prefetch_issuer {
                    feedback.push(PrefetchFeedback {
                        issuer,
                        trigger_pc: ev.trigger_pc,
                        line: ev.line,
                        useful: false,
                    });
                    quality.overpredicted += 1;
                }
            }
        }
    }

    /// Performs a demand access from `core` to `line` at cycle `now`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn demand_access(&mut self, core: usize, line: LineAddr, now: Cycle) -> DemandResult {
        self.demand_access_kind(core, line, now, false)
    }

    /// Performs a demand access, marking the line dirty when `is_store`.
    pub fn demand_access_kind(
        &mut self,
        core: usize,
        line: LineAddr,
        now: Cycle,
        is_store: bool,
    ) -> DemandResult {
        let result = self.demand_access_inner(core, line, now, is_store);
        // Cycle bookkeeping over the same deterministic stream: every demand
        // access contributes its load-to-use latency to the per-core timing
        // record the CPU model folds into IPC / average-latency figures.
        let timing = &mut self.cores[core].timing;
        timing.demand_accesses += 1;
        timing.demand_latency_cycles += result.latency;
        result
    }

    fn demand_access_inner(
        &mut self,
        core: usize,
        line: LineAddr,
        now: Cycle,
        is_store: bool,
    ) -> DemandResult {
        assert!(core < self.cores.len(), "core index {core} out of range");
        let l1_latency = self.params.l1d.latency;
        let l2_latency = self.params.l2.latency;
        let l3_latency = self.params.l3.latency;

        // --- L1 MSHR: line already being fetched? -------------------------
        let cp = &mut self.cores[core];
        if let Some(entry) = cp.l1_mshr.lookup(line, now) {
            let completion = entry.completion;
            let issuer = entry.prefetch_issuer;
            let first_merge = !entry.demand_merged;
            entry.demand_merged = true;
            cp.l1d.stats_mut().demand_mshr_merges += 1;
            // Clear the prefetched-unused bit so the later array hit is not
            // double counted; ignore the array's own coverage signal.
            let _ = cp.l1d.demand_lookup(line, is_store);
            let coverage = match issuer {
                Some(p) if first_merge => {
                    cp.quality.covered_untimely += 1;
                    self.feedback.push(PrefetchFeedback {
                        issuer: p,
                        trigger_pc: None,
                        line,
                        useful: true,
                    });
                    CoverageEvent::CoveredUntimely { issuer: p, trigger_pc: None }
                }
                _ => CoverageEvent::CacheHit,
            };
            let latency = l1_latency.max(completion.saturating_sub(now));
            return DemandResult {
                hit_level: None,
                latency,
                completion_cycle: now + latency,
                coverage,
            };
        }

        // --- L1 array ------------------------------------------------------
        if let Some(before) = self.cores[core].l1d.demand_lookup(line, is_store) {
            let coverage = if before.prefetched_unused {
                let issuer = before.prefetch_issuer.expect("prefetched line records its issuer");
                self.cores[core].quality.covered_timely += 1;
                self.feedback.push(PrefetchFeedback {
                    issuer,
                    trigger_pc: before.trigger_pc,
                    line,
                    useful: true,
                });
                CoverageEvent::CoveredTimely { issuer, trigger_pc: before.trigger_pc }
            } else {
                CoverageEvent::CacheHit
            };
            return DemandResult {
                hit_level: Some(Level::L1),
                latency: l1_latency,
                completion_cycle: now + l1_latency,
                coverage,
            };
        }

        // --- L1 miss: walk the outer levels --------------------------------
        // Each level a request misses in costs that level's tag-check
        // escalation penalty on top of wherever the data is finally found.
        let mut went_to_dram = false;
        let mut hit_level = None;
        let mut coverage = CoverageEvent::OnChipMiss;
        let base_latency;
        let mut escalation = self.params.l1d.miss_latency;
        let mut fill_l2 = false;
        let mut fill_l3 = false;

        // L2 lookup / MSHR.
        let l2_meta = self.cores[core].l2.demand_lookup(line, is_store);
        if let Some(meta) = l2_meta {
            hit_level = Some(Level::L2);
            base_latency = l2_latency;
            if meta.prefetched_unused {
                let issuer = meta.prefetch_issuer.expect("prefetched line records its issuer");
                self.cores[core].quality.covered_timely += 1;
                self.feedback.push(PrefetchFeedback {
                    issuer,
                    trigger_pc: meta.trigger_pc,
                    line,
                    useful: true,
                });
                coverage = CoverageEvent::CoveredTimely { issuer, trigger_pc: meta.trigger_pc };
            }
        } else if let Some(entry) = self.cores[core].l2_mshr.lookup(line, now) {
            let completion = entry.completion;
            let issuer = entry.prefetch_issuer;
            let first_merge = !entry.demand_merged;
            entry.demand_merged = true;
            self.cores[core].l2.stats_mut().demand_mshr_merges += 1;
            base_latency = l2_latency.max(completion.saturating_sub(now));
            if let Some(p) = issuer {
                if first_merge {
                    self.cores[core].quality.covered_untimely += 1;
                    self.feedback.push(PrefetchFeedback {
                        issuer: p,
                        trigger_pc: None,
                        line,
                        useful: true,
                    });
                    coverage = CoverageEvent::CoveredUntimely { issuer: p, trigger_pc: None };
                }
            }
        } else {
            // L3 lookup / MSHR.
            fill_l2 = true;
            escalation += self.params.l2.miss_latency;
            let l3_meta = self.l3.demand_lookup(line, is_store);
            if let Some(meta) = l3_meta {
                hit_level = Some(Level::L3);
                base_latency = l3_latency;
                if meta.prefetched_unused {
                    let issuer = meta.prefetch_issuer.expect("prefetched line records its issuer");
                    self.cores[core].quality.covered_timely += 1;
                    self.feedback.push(PrefetchFeedback {
                        issuer,
                        trigger_pc: meta.trigger_pc,
                        line,
                        useful: true,
                    });
                    coverage = CoverageEvent::CoveredTimely { issuer, trigger_pc: meta.trigger_pc };
                }
            } else if let Some(entry) = self.l3_mshr.lookup(line, now) {
                let completion = entry.completion;
                let issuer = entry.prefetch_issuer;
                let first_merge = !entry.demand_merged;
                entry.demand_merged = true;
                self.l3.stats_mut().demand_mshr_merges += 1;
                base_latency = l3_latency.max(completion.saturating_sub(now));
                if let Some(p) = issuer {
                    if first_merge {
                        self.cores[core].quality.covered_untimely += 1;
                        self.feedback.push(PrefetchFeedback {
                            issuer: p,
                            trigger_pc: None,
                            line,
                            useful: true,
                        });
                        coverage = CoverageEvent::CoveredUntimely { issuer: p, trigger_pc: None };
                    }
                }
            } else {
                // DRAM: the request first wins an admission slot at the
                // memory controller (the bandwidth queue), then pays the
                // bank/bus timing from the admitted cycle.
                went_to_dram = true;
                fill_l3 = true;
                hit_level = Some(Level::Dram);
                escalation += self.params.l3.miss_latency;
                let enter = now + l3_latency;
                let admitted = self.dram_queue.admit(enter);
                self.cores[core].timing.dram_queue_cycles += admitted - enter;
                let dram_done = self.dram.access(line, admitted);
                base_latency = dram_done.saturating_sub(now);
                self.cores[core].quality.uncovered += 1;
                coverage = CoverageEvent::Uncovered;
            }
        }

        // --- MSHR allocation stalls -----------------------------------------
        // The guessed completion includes the escalation penalties so a
        // later access that merges on the MSHR entry is never reported
        // complete before the miss it merged into.
        let mut stall = 0;
        let completion_guess = now + base_latency + escalation;
        let l1_stall = self.cores[core].l1_mshr.allocate(line, completion_guess, None, now);
        self.cores[core].l1d.stats_mut().mshr_stall_cycles += l1_stall;
        stall += l1_stall;
        if fill_l2 {
            let l2_stall =
                self.cores[core].l2_mshr.allocate(line, completion_guess + stall, None, now);
            self.cores[core].l2.stats_mut().mshr_stall_cycles += l2_stall;
            stall += l2_stall;
        }
        if went_to_dram {
            let l3_stall = self.l3_mshr.allocate(line, completion_guess + stall, None, now);
            self.l3.stats_mut().mshr_stall_cycles += l3_stall;
            stall += l3_stall;
            self.l3.stats_mut().demand_misses += 1;
        }
        self.cores[core].timing.mshr_stall_cycles += stall;
        let latency = base_latency + escalation + stall + l1_latency.min(4);
        let completion = now + latency;

        // --- Fills -----------------------------------------------------------
        let cp = &mut self.cores[core];
        let ev = cp.l1d.fill(line, None, None, is_store);
        Self::record_eviction_feedback(&mut self.feedback, &mut cp.quality, ev);
        if fill_l2 {
            let ev = cp.l2.fill(line, None, None, false);
            Self::record_eviction_feedback(&mut self.feedback, &mut cp.quality, ev);
        }
        if fill_l3 {
            let ev = self.l3.fill(line, None, None, false);
            Self::record_eviction_feedback(&mut self.feedback, &mut cp.quality, ev);
        }

        DemandResult { hit_level, latency, completion_cycle: completion, coverage }
    }

    /// Issues one prefetch request on behalf of `core` at cycle `now`.
    pub fn issue_prefetch(
        &mut self,
        core: usize,
        req: &PrefetchRequest,
        now: Cycle,
    ) -> PrefetchIssueResult {
        assert!(core < self.cores.len(), "core index {core} out of range");
        let line = req.line;
        let l2_latency = self.params.l2.latency;
        let l3_latency = self.params.l3.latency;

        // Redundancy checks against the target level and in-flight misses.
        let resident = match req.fill_level {
            FillLevel::L1 => self.cores[core].l1d.prefetch_probe(line),
            FillLevel::L2 => self.cores[core].l2.prefetch_probe(line),
        };
        let in_flight = self.cores[core].l1_mshr.lookup(line, now).is_some()
            || self.cores[core].l2_mshr.lookup(line, now).is_some();
        if resident || in_flight {
            self.prefetches_redundant += 1;
            return PrefetchIssueResult {
                issued: false,
                completion_cycle: now,
                went_to_dram: false,
            };
        }

        // MSHR admission control happens *before* any bandwidth is spent:
        // an L1-targeted prefetch that finds the L1 MSHR file full is demoted
        // to fill the L2 instead; if that file is also full the request is
        // dropped (never stalled — prefetches are best-effort).
        let mut fill_level = req.fill_level;
        if fill_level == FillLevel::L1 && !self.cores[core].l1_mshr.has_free(now) {
            fill_level = FillLevel::L2;
        }
        if fill_level == FillLevel::L2 && !self.cores[core].l2_mshr.has_free(now) {
            self.prefetches_redundant += 1;
            return PrefetchIssueResult {
                issued: false,
                completion_cycle: now,
                went_to_dram: false,
            };
        }
        if fill_level == FillLevel::L2 && self.cores[core].l2.contains(line) {
            // Demoted request finds its line already in the L2: nothing to do.
            self.prefetches_redundant += 1;
            return PrefetchIssueResult {
                issued: false,
                completion_cycle: now,
                went_to_dram: false,
            };
        }

        // Find the data: L2 (when targeting L1), then L3, then DRAM. Each
        // level probed and missed costs its tag-check escalation penalty,
        // exactly as on the demand path.
        let mut went_to_dram = false;
        let mut escalation = 0;
        let mut base_latency = match fill_level {
            FillLevel::L1 => {
                if self.cores[core].l2.contains(line) {
                    l2_latency
                } else {
                    escalation += self.params.l2.miss_latency;
                    0
                }
            }
            FillLevel::L2 => {
                // Reaching here means the L2 was probed (redundancy check or
                // demotion) and missed, so it pays the same escalation as an
                // L1-targeted request that missed the L2.
                escalation += self.params.l2.miss_latency;
                0
            }
        };
        if base_latency == 0 {
            if self.l3.contains(line) {
                base_latency = l3_latency;
            } else if let Some(entry) = self.l3_mshr.lookup(line, now) {
                base_latency = l3_latency.max(entry.completion.saturating_sub(now));
            } else {
                // Off-chip prefetch: memory controllers treat prefetches as
                // best-effort traffic. When the target channel already has a
                // deep backlog, issuing the prefetch would only delay demand
                // fills, so it is dropped instead.
                if self.dram.queue_pressure(line, now + l3_latency) > PREFETCH_DRAM_PRESSURE_LIMIT {
                    self.prefetches_redundant += 1;
                    return PrefetchIssueResult {
                        issued: false,
                        completion_cycle: now,
                        went_to_dram: false,
                    };
                }
                went_to_dram = true;
                escalation += self.params.l3.miss_latency;
                // Prefetch fills consume the same admission bandwidth as
                // demand fills — that shared drain is what lets aggressive
                // prefetching visibly crowd out demand traffic.
                let admitted = self.dram_queue.admit(now + l3_latency);
                let dram_done = self.dram.access_prefetch(line, admitted);
                base_latency = dram_done.saturating_sub(now);
            }
        }
        let base_latency = base_latency + escalation;

        let completion = now + base_latency;
        match fill_level {
            FillLevel::L1 => {
                self.cores[core].l1_mshr.allocate(line, completion, Some(req.issuer), now);
            }
            FillLevel::L2 => {
                self.cores[core].l2_mshr.allocate(line, completion, Some(req.issuer), now);
            }
        }
        if went_to_dram {
            self.l3_mshr.allocate(line, completion, Some(req.issuer), now);
        }

        // Fill the target level (timing is governed by the MSHR entry).
        let cp = &mut self.cores[core];
        let ev = match fill_level {
            FillLevel::L1 => cp.l1d.fill(line, Some(req.issuer), Some(req.trigger_pc), false),
            FillLevel::L2 => cp.l2.fill(line, Some(req.issuer), Some(req.trigger_pc), false),
        };
        Self::record_eviction_feedback(&mut self.feedback, &mut cp.quality, ev);
        if went_to_dram {
            let ev = self.l3.fill(line, None, None, false);
            Self::record_eviction_feedback(&mut self.feedback, &mut cp.quality, ev);
        }

        self.prefetches_issued += 1;
        PrefetchIssueResult { issued: true, completion_cycle: completion, went_to_dram }
    }

    /// Idealised DRAM latency (used by the core model for stall estimation).
    #[must_use]
    pub fn unloaded_dram_latency(&self) -> u64 {
        self.params.l3.latency + self.dram.unloaded_latency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alecto_types::Pc;

    fn hier(cores: usize) -> Hierarchy {
        Hierarchy::new(HierarchyParams::skylake_like(cores))
    }

    #[test]
    fn cold_miss_goes_to_dram_then_hits() {
        let mut h = hier(1);
        let r = h.demand_access(0, LineAddr::new(0x100), 0);
        assert_eq!(r.hit_level, Some(Level::Dram));
        assert_eq!(r.coverage, CoverageEvent::Uncovered);
        assert!(r.latency > h.params().l3.latency);
        let r2 = h.demand_access(0, LineAddr::new(0x100), r.completion_cycle + 1);
        assert_eq!(r2.hit_level, Some(Level::L1));
        assert_eq!(r2.latency, h.params().l1d.latency);
        assert_eq!(r2.coverage, CoverageEvent::CacheHit);
    }

    #[test]
    fn outstanding_completion_tracks_an_individual_miss() {
        let mut h = hier(1);
        let line = LineAddr::new(0x180);
        let r = h.demand_access(0, line, 0);
        // The miss is outstanding: the probe reports the MSHR's fill arrival
        // (at or before the access's end-to-end completion, which also pays
        // the L1 forward latency) and repeating it does not disturb anything.
        let fill = h.outstanding_completion(0, line, 1).expect("miss is in flight");
        assert!(fill > 1 && fill <= r.completion_cycle);
        assert_eq!(h.outstanding_completion(0, line, 1), Some(fill));
        // A line never requested is not outstanding.
        assert_eq!(h.outstanding_completion(0, LineAddr::new(0x999), 1), None);
        // Once the fill lands the access is no longer in flight.
        assert_eq!(h.outstanding_completion(0, line, r.completion_cycle), None);
    }

    #[test]
    fn timely_prefetch_is_covered() {
        let mut h = hier(1);
        let req = PrefetchRequest::new(LineAddr::new(0x200), Pc::new(0x40), PrefetcherId(0));
        let p = h.issue_prefetch(0, &req, 0);
        assert!(p.issued);
        assert!(p.went_to_dram);
        // Demand arrives after the prefetch completed: timely.
        let r = h.demand_access(0, LineAddr::new(0x200), p.completion_cycle + 10);
        assert!(matches!(r.coverage, CoverageEvent::CoveredTimely { issuer: PrefetcherId(0), .. }));
        assert_eq!(h.quality(0).covered_timely, 1);
        let fb: Vec<_> = h.drain_feedback().collect();
        assert!(fb.iter().any(|f| f.useful && f.line == LineAddr::new(0x200)));
    }

    #[test]
    fn late_prefetch_is_covered_untimely() {
        let mut h = hier(1);
        let req = PrefetchRequest::new(LineAddr::new(0x300), Pc::new(0x44), PrefetcherId(1));
        let p = h.issue_prefetch(0, &req, 0);
        assert!(p.issued);
        // Demand arrives while the prefetch is still in flight.
        let r = h.demand_access(0, LineAddr::new(0x300), 1);
        assert!(matches!(
            r.coverage,
            CoverageEvent::CoveredUntimely { issuer: PrefetcherId(1), .. }
        ));
        assert!(r.latency > h.params().l1d.latency);
        assert!(r.latency < p.completion_cycle + 10);
        assert_eq!(h.quality(0).covered_untimely, 1);
    }

    #[test]
    fn redundant_prefetch_is_dropped() {
        let mut h = hier(1);
        let line = LineAddr::new(0x400);
        let r = h.demand_access(0, line, 0);
        let req = PrefetchRequest::new(line, Pc::new(0x48), PrefetcherId(0));
        let p = h.issue_prefetch(0, &req, r.completion_cycle + 1);
        assert!(!p.issued);
        assert_eq!(h.prefetches_redundant(), 1);
    }

    #[test]
    fn l2_fill_level_prefetch_lands_in_l2() {
        let mut h = hier(1);
        let line = LineAddr::new(0x500);
        let req = PrefetchRequest::new(line, Pc::new(0x4c), PrefetcherId(2))
            .with_fill_level(alecto_types::FillLevel::L2);
        let p = h.issue_prefetch(0, &req, 0);
        assert!(p.issued);
        // Demand later: L1 misses, L2 hits with the prefetched line.
        let r = h.demand_access(0, line, p.completion_cycle + 5);
        assert_eq!(r.hit_level, Some(Level::L2));
        assert!(matches!(r.coverage, CoverageEvent::CoveredTimely { issuer: PrefetcherId(2), .. }));
    }

    #[test]
    fn unused_prefetch_eviction_generates_useless_feedback() {
        let mut h = hier(1);
        // Fill one L1 set (64 sets, 8 ways) with conflicting prefetches plus
        // demand traffic so that an unused prefetched line gets evicted.
        let set_stride = 64; // lines per set cycle for 64-set L1
        let victim = LineAddr::new(7);
        let req = PrefetchRequest::new(victim, Pc::new(0x60), PrefetcherId(0));
        h.issue_prefetch(0, &req, 0);
        let mut t = 1_000;
        for i in 1..=16 {
            let line = LineAddr::new(7 + i * set_stride);
            let r = h.demand_access(0, line, t);
            t = r.completion_cycle + 1;
        }
        let fb: Vec<_> = h.drain_feedback().collect();
        assert!(
            fb.iter().any(|f| !f.useful && f.line == victim),
            "victim should be reported useless"
        );
        // Every useless report is counted as overpredicted exactly once, and
        // draining leaves the buffer empty.
        let useless = fb.iter().filter(|f| !f.useful).count();
        assert_eq!(h.quality(0).overpredicted, useless as u64);
        assert_eq!(h.drain_feedback().count(), 0);
    }

    #[test]
    fn multicore_cores_are_isolated_in_private_levels() {
        let mut h = hier(2);
        let line = LineAddr::new(0x900);
        let r0 = h.demand_access(0, line, 0);
        // Core 1 misses its private caches but hits the shared L3.
        let r1 = h.demand_access(1, line, r0.completion_cycle + 1);
        assert_eq!(r1.hit_level, Some(Level::L3));
        assert_eq!(h.l1_stats(1).demand_misses, 1);
        assert_eq!(h.l1_stats(0).demand_misses, 1);
    }

    #[test]
    fn dram_contention_increases_latency() {
        let mut h = hier(1);
        // Back-to-back cold misses at the same cycle queue in DRAM.
        let a = h.demand_access(0, LineAddr::new(0x10_000), 0);
        let b = h.demand_access(0, LineAddr::new(0x20_000), 0);
        assert!(b.latency >= a.latency, "second concurrent miss should not be faster");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_core_index_panics() {
        let mut h = hier(1);
        let _ = h.demand_access(3, LineAddr::new(1), 0);
    }

    #[test]
    fn timing_stats_account_every_demand_access() {
        let mut h = hier(1);
        let mut t = 0;
        let mut latency_sum = 0;
        for i in 0..10u64 {
            let r = h.demand_access(0, LineAddr::new(i * 1000), t);
            latency_sum += r.latency;
            t = r.completion_cycle + 1;
        }
        let stats = h.timing_stats(0);
        assert_eq!(stats.demand_accesses, 10);
        assert_eq!(stats.demand_latency_cycles, latency_sum);
        assert!(
            stats.avg_demand_latency() > f64::from(u32::try_from(h.params().l1d.latency).unwrap())
        );
    }

    #[test]
    fn miss_escalation_penalties_are_charged_per_level() {
        // An L2 hit costs the L1 miss penalty on top of the L2 latency; an
        // L3 hit additionally costs the L2 miss penalty.
        let mut h = hier(2);
        let line = LineAddr::new(0x5000);
        let r0 = h.demand_access(0, line, 0); // cold: DRAM
                                              // Core 0 again: L1 hit, no penalty.
        let r1 = h.demand_access(0, line, r0.completion_cycle + 1);
        assert_eq!(r1.latency, h.params().l1d.latency);
        // Core 1: misses its private levels, hits the shared L3.
        let r2 = h.demand_access(1, line, r0.completion_cycle + 2);
        assert_eq!(r2.hit_level, Some(Level::L3));
        let p = h.params().clone();
        assert_eq!(
            r2.latency,
            p.l3.latency + p.l1d.miss_latency + p.l2.miss_latency + p.l1d.latency.min(4)
        );
    }

    #[test]
    fn bandwidth_bound_timing_throttles_dram_streams() {
        // The same burst of cold misses takes longer end-to-end under a
        // bandwidth-bound admission queue than under a latency-sensitive one,
        // and the queue's stall cycles show up in the per-core timing stats.
        // Consecutive lines stream across banks at the channel-bus rate
        // (~1/9 req/cycle on one DDR4 channel), so a 1/16 admission drain is
        // the binding constraint while the latency-sensitive drain is not.
        let run = |timing: crate::timing::TimingParams| {
            let mut h = Hierarchy::new(HierarchyParams::with_timing(1, timing));
            let mut done = 0;
            for i in 0..64u64 {
                let r = h.demand_access(0, LineAddr::new(i), 0);
                done = done.max(r.completion_cycle);
            }
            (done, h.timing_stats(0).dram_queue_cycles, h.dram_queue_stats().admitted)
        };
        let (fast_done, fast_queue, fast_admitted) =
            run(crate::timing::TimingParams::latency_sensitive());
        let (slow_done, slow_queue, slow_admitted) =
            run(crate::timing::TimingParams::bandwidth_bound());
        assert_eq!(fast_admitted, 64);
        assert_eq!(slow_admitted, 64);
        assert!(
            slow_done > fast_done,
            "bandwidth-bound drain must stretch the burst ({slow_done} vs {fast_done})"
        );
        assert!(slow_queue > fast_queue, "queue stalls must be visible in timing stats");
    }
}
