//! # ehp-bench
//!
//! The workspace microbenches under `benches/` (with the
//! Criterion-compatible [`microbench`] shim and the checked-in
//! baselines that `ci.sh` gates on), plus the root-level examples and
//! cross-crate integration tests.
//!
//! The paper experiments live in `ehp-harness`, and each has one entry
//! point, the `ehp` CLI: `ehp run <id>` (for example
//! `cargo run --release -p ehp-harness --bin ehp -- run figure20`), or
//! `ehp all` for the whole registry. The [`Report`] type is re-exported
//! here for compatibility.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod microbench;

pub use ehp_harness::report::Report;
