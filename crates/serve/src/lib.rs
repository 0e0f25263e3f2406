//! # ehp-serve
//!
//! The scenario **serving** layer: the first subsystem of the workspace
//! whose job is traffic rather than simulation. Two building blocks,
//! each usable on its own, composed by `ehp-harness` into the cached
//! `ehp run`/`ehp all` path and the long-running `ehp serve`
//! Unix-socket daemon:
//!
//! * [`cache`] — a content-hash-keyed experiment **result cache**
//!   (`target/result-cache/`): key = FNV-1a over the running build's
//!   fingerprint, the experiment id, and the canonical scenario JSON.
//!   Scoped to one build, degrade-to-empty on any load failure,
//!   byte-identical summaries hot or cold.
//! * [`server`] — the accept/dispatch loop over a Unix domain socket
//!   (`std::os::unix::net`, zero deps): length-prefixed JSON requests
//!   in ([`frame`]), streamed per-scenario frames plus a final response
//!   out, with [`stats`] tracking requests, cache hit/miss counts, and
//!   end-to-end latency percentiles.
//!
//! The crate deliberately knows nothing about experiments or the
//! registry: results are opaque [`Json`](ehp_sim_core::json::Json)
//! values, and request handling is injected via [`server::Handler`].
//! `ehp-harness` supplies the semantics; this crate supplies the
//! traffic machinery. DESIGN.md §12 documents the cache-key discipline
//! and the frame protocol.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod frame;
#[cfg(unix)]
pub mod server;
pub mod stats;

pub use cache::{CacheCounters, ResultCache};
pub use stats::ServeStats;
