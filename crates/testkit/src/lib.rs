//! Shared test infrastructure for the lowutil workspace.
//!
//! Four pieces, each in its own module:
//!
//! - [`gen`] — the single random-program generator every property suite
//!   draws from: one [`gen::Op`] grammar (including interprocedural
//!   `Call` and forward-branch `Skip` ops), one [`gen::build`] into IR,
//!   and one differential [`gen::oracle`] giving the expected output.
//! - [`mutate`] — a deterministic, seeded byte-mutation harness for
//!   trace-corruption testing: truncations, bit flips, splices, and
//!   overwrites, with no wall-clock randomness anywhere (seeds are
//!   derived from loop indices so failures replay exactly).
//! - [`diff`] — differential assertion helpers: live profile vs
//!   replay, and salvage-prefix identity on damaged traces.
//! - [`alloc_guard`] — a [`std::alloc::GlobalAlloc`] wrapper tracking
//!   current/peak heap use so corruption tests can assert a malformed
//!   trace never triggers an absurd allocation.
//!
//! This crate is a dev-dependency only; nothing here ships in the
//! analysis pipeline.

#![warn(missing_docs)]

pub mod alloc_guard;
pub mod diff;
pub mod gen;
pub mod mutate;
