//! Client analyses over abstract thin dependence graphs.
//!
//! This crate hosts every diagnosis built on top of `lowutil-core`'s
//! profiling machinery, mirroring the PLDI'10 paper:
//!
//! * [`cost`] — abstract cost and relative abstract cost/benefit of heap
//!   locations (Definitions 4–6);
//! * [`batch`] — the batch cost-benefit engine, the one every front end
//!   ranks with: CSR snapshot, bitset slice kernels, one-pass consumer
//!   marking and per-seed precomputation, all on the calling thread —
//!   byte-identical to the per-seed reference engine, its test oracle;
//! * [`structure`] — object reference trees, n-RAC/n-RAB aggregation, and
//!   the low-utility structure ranking (Definition 7, §3.1);
//! * [`dead`] — ultimately-dead and predicate-only value metrics (IPD,
//!   IPP, NLD; Table 1(c));
//! * [`nullprop`] — null-origin and propagation-flow tracking
//!   (Figure 2(a));
//! * [`typestate`] — typestate-history recording, QVM-style
//!   (Figure 2(b));
//! * [`copy`] — extended copy profiling with intermediate stack nodes
//!   (Figure 2(c));
//! * [`extras`] — §3.2's other analyses: constant predicates, dead
//!   stores, method-level costs, collection ranking;
//! * [`cache`] — the §6 extension: cache-effectiveness scoring;
//! * [`methods`] — dynamic call-graph self/total method costs;
//! * [`report`] — human-readable reports.
//!
//! # Example: rank low-utility structures
//!
//! ```
//! use lowutil_ir::parse_program;
//! use lowutil_vm::Vm;
//! use lowutil_core::{CostProfiler, CostGraphConfig};
//! use lowutil_analyses::cost::CostBenefitConfig;
//! use lowutil_analyses::structure::rank_structures;
//!
//! let program = parse_program(r#"
//! class Hoard { x }
//! method main/0 {
//!   h = new Hoard
//!   a = 6
//!   b = a * a
//!   h.x = b
//!   return
//! }
//! "#)?;
//! let mut profiler = CostProfiler::new(&program, CostGraphConfig::default());
//! Vm::new(&program).run(&mut profiler)?;
//! let gcost = profiler.finish();
//!
//! let ranked = rank_structures(&gcost, &CostBenefitConfig::default());
//! assert_eq!(ranked.len(), 1);
//! assert!(ranked[0].n_rab == 0.0, "field never read");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocsites;
pub mod batch;
pub mod cache;
pub mod copy;
pub mod cost;
pub mod dead;
pub mod diffmode;
pub mod extras;
pub mod methods;
pub mod nullprop;
pub mod optimize;
pub mod qcache;
pub mod report;
pub mod staleness;
pub mod structure;
pub mod typestate;

pub use allocsites::AllocationProfiler;
pub use batch::{
    BatchAnalyzer, CostEngine, EngineChoice, IncrementalAnalyzer, ReferenceEngine, RefreshStats,
    SnapshotEngine,
};
pub use cache::{cache_effectiveness, CacheStats};
pub use copy::{copy_chains, copy_profiler, CopyChain, CopyDomain, CopySource};
pub use cost::{abstract_cost, hrab, hrac, rab, rac, CostBenefitConfig, FieldCostBenefit};
pub use dead::{dead_value_metrics, DeadValueMetrics};
pub use diffmode::{
    diff_rankings, ranked_keys, DiffConfig, DiffEntry, DiffKey, DiffReport, DiffStatus,
};
pub use methods::{method_costs, method_return_costs, CallGraphTracer, MethodCost};
pub use nullprop::{
    null_tracking_profiler, trace_null_origin, NullDomain, NullOriginReport, Nullness,
};
pub use optimize::{dead_instructions, eliminate_dead_instructions, ElimStats};
pub use qcache::{params_fingerprint, CacheKey, QueryCache};
pub use report::{
    low_utility_report, low_utility_report_batch, low_utility_report_with, render_report,
};
pub use staleness::{SiteStaleness, StalenessTracer};
pub use structure::{
    rank_structures, rank_structures_batch, rank_structures_with, reference_tree,
    StructureCostBenefit,
};
pub use typestate::{Protocol, TypestateEvent, TypestateTracer, Violation};
