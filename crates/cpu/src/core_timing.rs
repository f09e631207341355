//! The `CoreTiming` trait — the contract every per-core timing model
//! honours — and the enum dispatching between the two implementations.
//!
//! The drive loop in `system.rs` is model-agnostic: it needs to advance a
//! core over one record, ask for its current time (for the multi-core
//! min-time merge), and extract a report at the end. Dispatch is an enum
//! rather than `Box<dyn CoreTiming>` so `System` stays `Send` by
//! construction (the const assertions in `system.rs`) and the per-record
//! call is a branch, not a vtable load, on the simulation's hottest path.

use alecto_types::MemoryRecord;
use memsys::Hierarchy;

use crate::config::{CoreModelKind, SystemConfig};
use crate::controller::PrefetchController;
use crate::core_model::CoreModel;
use crate::metrics::CoreReport;
use crate::ooo::OooCore;

/// Per-core timing model contract.
///
/// Implementations must be deterministic: equal record streams against equal
/// hierarchy state produce equal state, reports and `current_time`
/// trajectories, however the records were produced. `current_time` must be
/// monotone non-decreasing across `step` calls — the multi-core drive loop
/// orders cores by it.
pub trait CoreTiming {
    /// Advances the core over one trace record, performing the demand access
    /// and any resulting prefetches against `hierarchy`.
    fn step(&mut self, record: &MemoryRecord, hierarchy: &mut Hierarchy);

    /// The core's current simulated time in cycles.
    fn current_time(&self) -> f64;

    /// Instructions accounted so far.
    fn instructions(&self) -> u64;

    /// Borrow of the attached prefetch controller.
    fn controller(&self) -> &PrefetchController;

    /// Produces the per-core report after the trace has been consumed.
    fn report(&self, workload_name: &str, hierarchy: &Hierarchy) -> CoreReport;
}

impl CoreTiming for CoreModel {
    fn step(&mut self, record: &MemoryRecord, hierarchy: &mut Hierarchy) {
        Self::step(self, record, hierarchy);
    }

    fn current_time(&self) -> f64 {
        Self::current_time(self)
    }

    fn instructions(&self) -> u64 {
        Self::instructions(self)
    }

    fn controller(&self) -> &PrefetchController {
        Self::controller(self)
    }

    fn report(&self, workload_name: &str, hierarchy: &Hierarchy) -> CoreReport {
        Self::report(self, workload_name, hierarchy)
    }
}

impl CoreTiming for OooCore {
    fn step(&mut self, record: &MemoryRecord, hierarchy: &mut Hierarchy) {
        Self::step(self, record, hierarchy);
    }

    fn current_time(&self) -> f64 {
        Self::current_time(self)
    }

    fn instructions(&self) -> u64 {
        Self::instructions(self)
    }

    fn controller(&self) -> &PrefetchController {
        Self::controller(self)
    }

    fn report(&self, workload_name: &str, hierarchy: &Hierarchy) -> CoreReport {
        Self::report(self, workload_name, hierarchy)
    }
}

/// A core of either timing model, selected by
/// [`SystemConfig::core_model`](crate::SystemConfig).
#[derive(Debug)]
pub enum CoreEngine {
    /// The analytic frontier model (fast; the sweep default).
    Approx(CoreModel),
    /// The staged out-of-order pipeline.
    OutOfOrder(OooCore),
}

impl CoreEngine {
    /// Creates a core of the kind `config.core_model` selects.
    #[must_use]
    pub fn new(core_id: usize, config: &SystemConfig, controller: PrefetchController) -> Self {
        match config.core_model {
            CoreModelKind::Approx => Self::Approx(CoreModel::new(core_id, config, controller)),
            CoreModelKind::OutOfOrder => {
                Self::OutOfOrder(OooCore::new(core_id, config, controller))
            }
        }
    }
}

impl CoreTiming for CoreEngine {
    fn step(&mut self, record: &MemoryRecord, hierarchy: &mut Hierarchy) {
        match self {
            Self::Approx(core) => core.step(record, hierarchy),
            Self::OutOfOrder(core) => core.step(record, hierarchy),
        }
    }

    fn current_time(&self) -> f64 {
        match self {
            Self::Approx(core) => core.current_time(),
            Self::OutOfOrder(core) => core.current_time(),
        }
    }

    fn instructions(&self) -> u64 {
        match self {
            Self::Approx(core) => core.instructions(),
            Self::OutOfOrder(core) => core.instructions(),
        }
    }

    fn controller(&self) -> &PrefetchController {
        match self {
            Self::Approx(core) => core.controller(),
            Self::OutOfOrder(core) => core.controller(),
        }
    }

    fn report(&self, workload_name: &str, hierarchy: &Hierarchy) -> CoreReport {
        match self {
            Self::Approx(core) => core.report(workload_name, hierarchy),
            Self::OutOfOrder(core) => core.report(workload_name, hierarchy),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::SelectionAlgorithm;
    use alecto_types::{Addr, Pc};
    use memsys::HierarchyParams;
    use prefetch::CompositeKind;

    fn engine_of(kind: CoreModelKind) -> CoreEngine {
        let config = SystemConfig::skylake_like(1).with_core_model(kind);
        let controller =
            PrefetchController::new(CompositeKind::GsCsPmp, SelectionAlgorithm::NoPrefetching);
        CoreEngine::new(0, &config, controller)
    }

    #[test]
    fn engine_dispatches_on_the_config_knob() {
        assert!(matches!(engine_of(CoreModelKind::Approx), CoreEngine::Approx(_)));
        assert!(matches!(engine_of(CoreModelKind::OutOfOrder), CoreEngine::OutOfOrder(_)));
    }

    #[test]
    fn both_engines_honour_the_trait_contract() {
        for kind in [CoreModelKind::Approx, CoreModelKind::OutOfOrder] {
            let mut engine = engine_of(kind);
            let mut hier = Hierarchy::new(HierarchyParams::skylake_like(1));
            let mut last_time = 0.0f64;
            for i in 0..500u64 {
                let r = MemoryRecord::load(Pc::new(0x40), Addr::new(0x8000 + i * 64), 3);
                engine.step(&r, &mut hier);
                let now = engine.current_time();
                assert!(now >= last_time, "{kind:?}: time went backwards");
                last_time = now;
            }
            assert_eq!(engine.instructions(), 500 * 4);
            let report = engine.report("w", &hier);
            assert!(report.cycles >= 1);
            assert!(report.ipc > 0.0 && report.ipc.is_finite());
            // The nullable pipeline metrics are the models' signature.
            assert_eq!(report.branch_mpki.is_some(), kind == CoreModelKind::OutOfOrder);
            assert_eq!(report.rob_occupancy.is_some(), kind == CoreModelKind::OutOfOrder);
        }
    }
}
