//! The L1D prefetch controller: glue between the demand-access stream, the
//! selection algorithm and the composite prefetcher.
//!
//! For every demand access the controller asks the selector which prefetchers
//! may train (and with what degree), trains exactly those prefetchers, lets
//! the selector post-process the resulting candidates, applies the external
//! prefetch filter when the selector wants one (§V-B), and hands the final
//! prefetch requests back to the caller (the core model) for issue into the
//! memory hierarchy.

use alecto_types::{DemandAccess, FillLevel, LineAddr, PrefetchRequest, PrefetcherId};
use prefetch::{build_composite, CompositeKind, Prefetcher, TableStats};
use selectors::{PrefetchFilter, PrefetchOutcome, Selector};

use crate::selection::{build_selector, SelectionAlgorithm};

/// Per-controller statistics (everything Fig. 1 / Fig. 18 needs that is not
/// already inside the prefetchers' own [`TableStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Demand accesses observed.
    pub demands: u64,
    /// Candidate prefetch lines produced by the trained prefetchers.
    pub candidates: u64,
    /// Requests dropped by the selector's own post-processing.
    pub dropped_by_selector: u64,
    /// Requests dropped by the external prefetch filter.
    pub dropped_by_filter: u64,
    /// Requests handed to the memory system.
    pub issued: u64,
}

/// The per-core L1D prefetch controller.
pub struct PrefetchController {
    prefetchers: Vec<Box<dyn Prefetcher>>,
    selector: Option<Box<dyn Selector>>,
    filter: PrefetchFilter,
    stats: ControllerStats,
    scratch: Vec<LineAddr>,
    /// The request buffer: filled with candidates, filtered in place by the
    /// selector and the external filter, and lent to the caller.
    requests: Vec<PrefetchRequest>,
}

impl std::fmt::Debug for PrefetchController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrefetchController")
            .field("prefetchers", &self.prefetchers.iter().map(|p| p.name()).collect::<Vec<_>>())
            .field("selector", &self.selector.as_ref().map(|s| s.name()))
            .field("stats", &self.stats)
            .finish()
    }
}

impl PrefetchController {
    /// Builds a controller for the given composite and selection algorithm.
    #[must_use]
    pub fn new(composite: CompositeKind, algorithm: SelectionAlgorithm) -> Self {
        let prefetchers = build_composite(composite);
        let selector = build_selector(algorithm, prefetchers.len());
        Self {
            prefetchers,
            selector,
            filter: PrefetchFilter::default_config(),
            stats: ControllerStats::default(),
            scratch: Vec::with_capacity(16),
            requests: Vec::with_capacity(32),
        }
    }

    /// Name of the selection algorithm in use (`"NoPrefetch"` when disabled).
    #[must_use]
    pub fn selector_name(&self) -> &'static str {
        self.selector.as_ref().map_or("NoPrefetch", |s| s.name())
    }

    /// Controller statistics.
    #[must_use]
    pub const fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// Metadata-table statistics of each prefetcher (Fig. 1 / Fig. 18 inputs).
    #[must_use]
    pub fn table_stats(&self) -> Vec<(&'static str, TableStats)> {
        self.prefetchers.iter().map(|p| (p.name(), *p.table_stats())).collect()
    }

    /// Total training occurrences across all prefetchers (the paper's proxy
    /// for prefetcher dynamic energy, §VI-I).
    #[must_use]
    pub fn training_occurrences(&self) -> u64 {
        self.prefetchers.iter().map(|p| p.table_stats().trainings).sum()
    }

    /// Total prefetcher-table misses across all prefetchers (Fig. 1).
    #[must_use]
    pub fn table_misses(&self) -> u64 {
        self.prefetchers.iter().map(|p| p.table_stats().misses).sum()
    }

    /// Storage of the selection hardware in bits (0 when prefetching is off).
    #[must_use]
    pub fn selector_storage_bits(&self) -> u64 {
        self.selector.as_ref().map_or(0, |s| s.storage_bits())
    }

    /// Handles one demand access: allocation, training, selection, filtering.
    ///
    /// Returns the prefetch requests to issue, in issue order. The slice
    /// borrows a buffer the controller owns and reuses on the next call: the
    /// candidates are collected into it, the selector and the external
    /// filter drop requests from it in place, and no request list is
    /// allocated per demand.
    pub fn on_demand_access(&mut self, access: &DemandAccess) -> &[PrefetchRequest] {
        self.stats.demands += 1;
        self.requests.clear();
        let Some(selector) = self.selector.as_mut() else {
            return &self.requests;
        };

        // 1. Allocation: which prefetchers see this request, at what degree.
        let decision = selector.allocate(access, &self.prefetchers);

        // 2. Training + candidate generation, restricted to the allocation.
        let mut candidates = std::mem::take(&mut self.requests);
        for (idx, allocation) in decision.per_prefetcher.iter().enumerate() {
            let Some(alloc) = allocation else { continue };
            self.scratch.clear();
            self.prefetchers[idx].train_and_predict(access, alloc.total, &mut self.scratch);
            for (j, &line) in self.scratch.iter().enumerate() {
                let to_l1 = u32::try_from(j).is_ok_and(|j| j < alloc.l1_portion);
                let fill = if to_l1 { FillLevel::L1 } else { FillLevel::L2 };
                candidates.push(
                    PrefetchRequest::new(line, access.pc, PrefetcherId(idx)).with_fill_level(fill),
                );
            }
        }
        let candidate_count = u64::try_from(candidates.len()).expect("count fits in u64");
        self.stats.candidates += candidate_count;

        // 3. Selection-specific post-processing (priority mux, PPF, Sandbox).
        let mut selected = selector.select_requests(access, candidates);
        self.stats.dropped_by_selector +=
            candidate_count - u64::try_from(selected.len()).expect("count fits in u64");

        // 4. External duplicate filter for selectors that do not bring their own.
        if selector.needs_external_filter() {
            let (filter, stats) = (&mut self.filter, &mut self.stats);
            selected.retain(|r| {
                let dropped = filter.check_and_insert(r.line);
                stats.dropped_by_filter += u64::from(dropped);
                !dropped
            });
        }
        self.stats.issued += u64::try_from(selected.len()).expect("count fits in u64");
        self.requests = selected;
        &self.requests
    }

    /// Forwards prefetch usefulness feedback from the memory system.
    pub fn on_prefetch_outcome(&mut self, outcome: &PrefetchOutcome) {
        if let Some(selector) = self.selector.as_mut() {
            selector.on_prefetch_outcome(outcome);
        }
    }

    /// Forwards a periodic performance reward to the selector (Bandit).
    pub fn on_epoch(&mut self, committed_instructions: u64, cycles: u64) {
        if let Some(selector) = self.selector.as_mut() {
            selector.on_epoch(committed_instructions, cycles);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alecto_types::{fnv1a_64, AccessKind, Addr, Pc, FNV1A_OFFSET};

    fn stream_access(i: u64) -> DemandAccess {
        DemandAccess::load(Pc::new(0x400), Addr::new(0x10_0000 + i * 64))
    }

    /// A deterministic mix of streaming, strided, complex-delta, spatial,
    /// pointer-chasing, store and PC-pressure accesses. The PC and page
    /// working sets are larger than the 64-entry prefetcher and Alecto tables
    /// and the 16-entry PMP accumulation table, so their replacement paths
    /// run too.
    struct MixedStream {
        rng: u64,
        stream: u64,
        stride_counts: [u64; 12],
        cplx_step: u64,
        cplx_line: u64,
        page: u64,
        chase: Vec<u64>,
    }

    impl MixedStream {
        fn new() -> Self {
            let mut s = Self {
                rng: 0x2545_f491_4f6c_dd1d,
                stream: 0,
                stride_counts: [0; 12],
                cplx_step: 0,
                cplx_line: 0x300_0000,
                page: 0,
                chase: Vec::new(),
            };
            s.chase = (0..300).map(|_| 0x500_0000 + s.next() % (1 << 20)).collect();
            s
        }

        fn next(&mut self) -> u64 {
            self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
            alecto_types::hash::mix64(self.rng)
        }

        fn access(&mut self, i: u64) -> DemandAccess {
            let r = self.next();
            let (pc, line, kind) = match i % 8 {
                0 | 1 => {
                    self.stream += 1;
                    (0x400 + (i / 512 % 2) * 8, 0x10_0000 + self.stream, AccessKind::Load)
                }
                2 => {
                    let k = usize::try_from(r % 12).unwrap();
                    self.stride_counts[k] += 1;
                    let stride = k as u64 % 5 + 2;
                    let line = 0x100_0000 + k as u64 * 0x1_0000 + self.stride_counts[k] * stride;
                    (0x500 + k as u64 * 4, line, AccessKind::Load)
                }
                3 => {
                    self.cplx_step += 1;
                    self.cplx_line += [1, 1, 4][usize::try_from(self.cplx_step % 3).unwrap()];
                    (0x600, self.cplx_line, AccessKind::Load)
                }
                4 => {
                    let j = usize::try_from(i / 8 % 300).unwrap();
                    (0x900 + r % 4 * 4, self.chase[j], AccessKind::Load)
                }
                5 => {
                    self.page += u64::from(i % 32 == 5);
                    let offset = [0, 3, 5, 9][usize::try_from(i / 8 % 4).unwrap()];
                    (0x700, 0x200_0000 + self.page * 64 + offset, AccessKind::Load)
                }
                6 => (0x1000 + r % 96 * 4, 0x400_0000 + (r >> 16) % 50_000, AccessKind::Load),
                _ => (0x800, 0x600_0000 + i / 8, AccessKind::Store),
            };
            DemandAccess::new(Pc::new(pc), Addr::new(line * 64), kind)
        }
    }

    /// FNV-1a digest of every request the controller returns (line, issuer,
    /// fill level, in order) over 5 000 mixed accesses, followed by its
    /// statistics. Synthetic usefulness feedback and reward epochs drive the
    /// learning selectors (PPF, Bandit, Triangel) as the core models do.
    fn controller_digest(composite: CompositeKind, algo: SelectionAlgorithm) -> u64 {
        let mut c = PrefetchController::new(composite, algo);
        let mut stream = MixedStream::new();
        let mut outcomes = Vec::new();
        let mut h = FNV1A_OFFSET;
        for i in 0..5_000u64 {
            let access = stream.access(i);
            let requests = c.on_demand_access(&access);
            outcomes.clear();
            for r in requests.iter() {
                let fill: u8 = match r.fill_level {
                    FillLevel::L1 => 1,
                    FillLevel::L2 => 2,
                };
                h = fnv1a_64(h, &r.line.raw().to_le_bytes());
                h = fnv1a_64(h, &u64::try_from(r.issuer.index()).unwrap().to_le_bytes());
                h = fnv1a_64(h, &[fill]);
                outcomes.push(PrefetchOutcome {
                    issuer: r.issuer,
                    trigger_pc: Some(r.trigger_pc),
                    line: r.line,
                    useful: !alecto_types::hash::mix64(r.line.raw()).is_multiple_of(3),
                });
            }
            h = fnv1a_64(h, b"|");
            for o in &outcomes {
                c.on_prefetch_outcome(o);
            }
            if i % 500 == 499 {
                c.on_epoch(4_000 + i % 7 * 300, 10_000 + (h % 5_000));
            }
        }
        let s = *c.stats();
        for v in [
            s.demands,
            s.candidates,
            s.dropped_by_selector,
            s.dropped_by_filter,
            s.issued,
            c.training_occurrences(),
            c.table_misses(),
        ] {
            h = fnv1a_64(h, &v.to_le_bytes());
        }
        h
    }

    #[test]
    fn mixed_stream_exercises_table_replacement() {
        // The pinned digests below are only worth something if the stream
        // reaches the replacement paths of every prefetcher table.
        for composite in [CompositeKind::GsCsPmp, CompositeKind::GsBertiCplx] {
            let mut c = PrefetchController::new(composite, SelectionAlgorithm::Ipcp);
            let mut stream = MixedStream::new();
            for i in 0..5_000u64 {
                c.on_demand_access(&stream.access(i));
            }
            for (name, stats) in c.table_stats() {
                assert!(stats.evictions > 0, "{name} never evicted: {stats:?}");
                assert!(stats.candidates_emitted > 0, "{name} never predicted: {stats:?}");
            }
        }
    }

    #[test]
    fn controller_output_is_pinned_for_every_algorithm() {
        // Digests computed before the dense-table rewrite of the prefetch
        // path; every table, selector and buffer change must leave them be.
        let algos = [
            SelectionAlgorithm::NoPrefetching,
            SelectionAlgorithm::Ipcp,
            SelectionAlgorithm::Dol,
            SelectionAlgorithm::Bandit3,
            SelectionAlgorithm::Bandit6,
            SelectionAlgorithm::BanditExtended,
            SelectionAlgorithm::Alecto,
            SelectionAlgorithm::AlectoFixedDegree(6),
            SelectionAlgorithm::PpfAggressive,
            SelectionAlgorithm::PpfConservative,
            SelectionAlgorithm::Triangel,
        ];
        let composites = [
            CompositeKind::GsCsPmp,
            CompositeKind::GsBertiCplx,
            CompositeKind::GsCsPmpTemporal { metadata_bytes: 64 * 1024 },
        ];
        let expected: [[u64; 11]; 3] = [
            [
                0x4835_6c66_90b0_7c0c,
                0xd32e_89b2_eb9a_fb88,
                0x3cf8_c34b_4ded_e4ed,
                0x6b33_5889_bb3a_b704,
                0x4705_5112_be3e_5763,
                0xd7dc_8845_948e_f515,
                0x65a6_cee2_0d51_6fec,
                0xe0f5_f0c9_7125_1734,
                0x8273_421b_f7c8_6299,
                0x1b4e_0ae1_496b_2ae6,
                0x5d4a_6a6c_3dfc_8be7,
            ],
            [
                0x4835_6c66_90b0_7c0c,
                0x0a6c_c8db_2bbf_e021,
                0x9520_55cd_ee61_af9a,
                0x041d_29e4_9de8_3a37,
                0x1bab_0a4a_3128_2277,
                0x47e0_a6df_3aa8_ff57,
                0x70e2_5610_823a_d39c,
                0xc5f0_7b68_f96d_3bab,
                0x68e8_fecb_b64c_a3df,
                0x93ef_d73e_be76_c804,
                0x314a_b5ea_1232_9414,
            ],
            [
                0x4835_6c66_90b0_7c0c,
                0x5ae0_3e6f_658e_bd88,
                0x3d27_301f_873f_c346,
                0x40aa_0973_d0ff_b579,
                0xf5e9_1b57_5de2_bb71,
                0x4e3c_4869_21e2_03cf,
                0x3390_72c3_83df_138b,
                0x532b_bc34_1ba0_9c65,
                0x7b1d_85f2_086f_774d,
                0x0d8f_e8fe_7654_a753,
                0x61e1_8479_4c0b_2c1e,
            ],
        ];
        let mut mismatches = Vec::new();
        for (composite, want_row) in composites.into_iter().zip(expected) {
            for (algo, want) in algos.into_iter().zip(want_row) {
                let got = controller_digest(composite, algo);
                if got != want {
                    mismatches.push(format!("{composite:?} {algo:?}: {got:#018x} != {want:#018x}"));
                }
            }
        }
        assert!(mismatches.is_empty(), "controller output moved:\n{}", mismatches.join("\n"));
    }

    #[test]
    fn no_prefetching_issues_nothing() {
        let mut c =
            PrefetchController::new(CompositeKind::GsCsPmp, SelectionAlgorithm::NoPrefetching);
        for i in 0..100 {
            assert!(c.on_demand_access(&stream_access(i)).is_empty());
        }
        assert_eq!(c.selector_name(), "NoPrefetch");
        assert_eq!(c.stats().issued, 0);
        assert_eq!(c.training_occurrences(), 0, "prefetchers must not be trained when disabled");
    }

    #[test]
    fn streaming_pattern_produces_prefetches_under_every_algorithm() {
        for algo in [
            SelectionAlgorithm::Ipcp,
            SelectionAlgorithm::Dol,
            SelectionAlgorithm::Bandit6,
            SelectionAlgorithm::Alecto,
        ] {
            let mut c = PrefetchController::new(CompositeKind::GsCsPmp, algo);
            let mut issued = 0;
            for i in 0..200 {
                issued += c.on_demand_access(&stream_access(i)).len();
            }
            assert!(issued > 0, "{algo:?} should issue prefetches for a pure stream");
        }
    }

    #[test]
    fn external_filter_applies_only_to_non_alecto() {
        let mut ipcp = PrefetchController::new(CompositeKind::GsCsPmp, SelectionAlgorithm::Ipcp);
        let mut alecto =
            PrefetchController::new(CompositeKind::GsCsPmp, SelectionAlgorithm::Alecto);
        for i in 0..300 {
            ipcp.on_demand_access(&stream_access(i));
            alecto.on_demand_access(&stream_access(i));
        }
        assert!(ipcp.stats().dropped_by_filter > 0, "IPCP relies on the external filter");
        assert_eq!(alecto.stats().dropped_by_filter, 0, "Alecto's sandbox does the filtering");
        assert!(alecto.stats().dropped_by_selector > 0);
    }

    #[test]
    fn alecto_trains_fewer_table_entries_than_ipcp_on_mixed_patterns() {
        // A pattern mix: one streaming PC and one pointer-chasing PC. Under
        // Alecto the blocked prefetchers stop receiving the requests they are
        // bad at, reducing training occurrences (Fig. 18).
        let chase: Vec<u64> = (0..50u64).map(|i| (i * 7919 + 3) % 4096).collect();
        let run = |algo: SelectionAlgorithm| {
            let mut c = PrefetchController::new(CompositeKind::GsCsPmp, algo);
            for round in 0..40u64 {
                for i in 0..50u64 {
                    c.on_demand_access(&stream_access(round * 50 + i));
                    c.on_demand_access(&DemandAccess::load(
                        Pc::new(0x900),
                        Addr::new(0x80_0000 + chase[usize::try_from(i).unwrap()] * 64),
                    ));
                }
            }
            c.training_occurrences()
        };
        let ipcp = run(SelectionAlgorithm::Ipcp);
        let alecto = run(SelectionAlgorithm::Alecto);
        assert!(
            alecto < ipcp,
            "Alecto should train less than non-selective IPCP (alecto {alecto} vs ipcp {ipcp})"
        );
    }

    #[test]
    fn table_stats_and_names_exposed() {
        let mut c =
            PrefetchController::new(CompositeKind::GsBertiCplx, SelectionAlgorithm::Bandit3);
        for i in 0..50 {
            c.on_demand_access(&stream_access(i));
        }
        let stats = c.table_stats();
        let names: Vec<_> = stats.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, vec!["GS", "Berti", "CPLX"]);
        assert!(stats.iter().any(|(_, s)| s.trainings > 0));
        assert!(c.selector_storage_bits() > 0);
        assert!(c.table_misses() > 0);
        // Debug formatting is non-empty (C-DEBUG / C-DEBUG-NONEMPTY).
        assert!(!format!("{c:?}").is_empty());
    }

    #[test]
    fn epoch_and_outcome_forwarding_do_not_panic() {
        let mut c = PrefetchController::new(CompositeKind::GsCsPmp, SelectionAlgorithm::Bandit6);
        c.on_epoch(10_000, 5_000);
        c.on_prefetch_outcome(&PrefetchOutcome {
            issuer: PrefetcherId(0),
            trigger_pc: Some(Pc::new(1)),
            line: LineAddr::new(42),
            useful: true,
        });
        let mut none =
            PrefetchController::new(CompositeKind::GsCsPmp, SelectionAlgorithm::NoPrefetching);
        none.on_epoch(10_000, 5_000);
    }
}
