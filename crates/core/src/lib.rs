//! Abstract dynamic thin slicing and `G_cost` construction — the core
//! contribution of *"Finding Low-Utility Data Structures"* (PLDI 2010).
//!
//! # Overview
//!
//! The paper's pipeline, and this crate's layout:
//!
//! 1. **Dynamic thin slicing** restricts dynamic data dependences to value
//!    flows: the base pointer of a heap access is not a use (module
//!    [`slicer`] provides the traversals, [`concrete`] the unbounded
//!    per-instance baseline graph of traditional dynamic slicing).
//! 2. **Abstract dynamic thin slicing** maps the unbounded instruction
//!    instances into a client-chosen bounded domain `D`, so the dependence
//!    graph has at most `|I| × |D|` nodes ([`graph`], [`domain`]).
//! 3. **`G_cost`** instantiates the framework with encoded object-sensitive
//!    calling contexts ([`context`]), heap effects, reference edges, and
//!    consumer nodes ([`gcost`]); client analyses (cost-benefit, dead
//!    values, …) live in the `lowutil-analyses` crate. For the repeated
//!    slice queries of the analysis phase, [`csr`] snapshots a finished
//!    graph into a flat CSR form with bitset traversal kernels.
//!
//! # Example: profile a program and inspect `G_cost`
//!
//! ```
//! use lowutil_ir::parse_program;
//! use lowutil_vm::Vm;
//! use lowutil_core::{CostProfiler, CostGraphConfig, GraphStats};
//!
//! let program = parse_program(r#"
//! native print/1
//! class Box { v }
//! method main/0 {
//!   b = new Box
//!   x = 42
//!   b.v = x
//!   y = b.v
//!   native print(y)
//!   return
//! }
//! "#)?;
//!
//! let mut profiler = CostProfiler::new(&program, CostGraphConfig::default());
//! Vm::new(&program).run(&mut profiler)?;
//! let gcost = profiler.finish();
//!
//! let stats = GraphStats::of(&gcost);
//! assert!(stats.nodes > 0 && stats.edges > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// `deny` rather than `forbid`: the snapshot store's byte-slice casts
// ([`store`]) carve out one audited `#[allow(unsafe_code)]` module.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod concrete;
pub mod context;
pub mod csr;
pub mod dense;
pub mod domain;
pub mod export;
pub mod fx;
pub mod gcost;
pub mod graph;
pub mod incr;
pub mod shard;
pub mod slicer;
pub mod stats;
pub mod store;

pub use concrete::{ConcreteGraph, ConcreteProfiler, InstanceId, SlicingMode};
pub use context::{
    extend_context, slot_of, thread_base, ConflictStats, ContextStack, EMPTY_CONTEXT,
};
pub use csr::{Bitset, CsrDelta, CsrGraph, TraversalScratch};
pub use dense::{DenseDomain, DenseInterner, InstrIndexer};
pub use domain::{AbstractDomain, AbstractProfiler};
pub use export::{canonical_order, read_cost_graph, write_cost_graph, write_dot};
pub use fx::{FxHashMap, FxHashSet};
pub use gcost::{
    CostElem, CostGraph, CostGraphConfig, CostProfiler, FieldKey, GraphBuilder, HeapEffect,
    TaggedSite,
};
pub use graph::{DepGraph, Node, NodeId, NodeKind};
pub use incr::{IncrDirty, IncrementalCsr};
pub use shard::{replay_cost_graph, replay_segments, AbsorbDelta, AbstractNode, Aggregate};
pub use stats::GraphStats;
pub use store::{
    content_hash, fnv1a64, read_snapshot, save_snapshot, verify_snapshot, write_snapshot,
    AlignedBuf, SectionCheck, Snapshot, StoreError, VerifyReport,
};
