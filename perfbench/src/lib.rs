//! The benchmark's own logic, kept apart from the workloads so it can be
//! tested without running them: sample statistics, the seeded arrival
//! schedule, the span recorder, a small JSON reader and the verdicts of
//! the `compare` command.

pub mod compare;
pub mod json;
pub mod metrics;
pub mod schedule;
pub mod spans;
pub mod stats;
