//! A sharded, multi-tenant analysis daemon for the DroidRacer pipeline.
//!
//! The paper's detector is a one-shot offline tool; this crate gives it a
//! front door. Clients speak a simple length-prefixed framed protocol over
//! TCP or Unix sockets ([`protocol`]), submitting whole traces under a
//! tenant identity; the server routes each job
//! to one of N shard workers by tenant hash ([`server`]), answers repeat
//! submissions from a content-addressed result cache ([`store`]), and
//! isolates tenants from each other with per-tenant budgets, quotas and
//! panic quarantine built on `droidracer-core`'s [`Budget`] and
//! [`run_isolated`] primitives.
//!
//! Everything is `std`-only: the protocol, the cache format and the
//! threading use no dependencies beyond the workspace's own crates.
//!
//! The analysis-facing surface is `droidracer-core`'s [`AnalysisService`]
//! trait — [`Client`] implements it over the wire, `LocalService`
//! implements it in-process, and code written against the trait cannot
//! tell the difference (the server-vs-direct equality tests hold it to
//! that).
//!
//! [`Budget`]: droidracer_core::Budget
//! [`run_isolated`]: droidracer_core::run_isolated
//! [`AnalysisService`]: droidracer_core::AnalysisService

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod client;
pub mod protocol;
pub mod server;
pub mod store;

pub use chaos::{run_soak, ChaosPlan, ChaosReport, Scenario};
pub use client::{Client, ClientStats, RetryPolicy, Submission};
pub use protocol::{Request, Response, WireError, MAX_FRAME, WIRE_VERSION};
pub use server::{status_counter, Server, ServerConfig};
pub use store::{
    job_key, wal_record_ranges, wal_torn_tail_bytes, Fnv64, StoreDiagnostic, WalStats, WalStore,
};
