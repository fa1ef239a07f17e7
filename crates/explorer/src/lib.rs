//! The UI Explorer: systematic, replayable testing of app models.
//!
//! DroidRacer's first component (§5) systematically generates UI event
//! sequences up to a bound `k`, in depth-first order, storing them in a
//! database for backtracking and consistent replay. This crate reproduces
//! that pipeline against the framework model:
//!
//! * [`enumerate_sequences`] — bounded DFS over the abstract UI state;
//! * [`run_sequence`] — compile + execute one sequence to a trace;
//! * [`run_campaign`] / [`ReplayDb`] — execute all sequences and replay any
//!   recorded test bit-identically;
//! * [`TextFormat`] — format-aware text input generation.
//!
//! # Examples
//!
//! ```
//! use droidracer_explorer::{run_campaign, ExplorerConfig};
//! use droidracer_framework::{AppBuilder, Stmt};
//!
//! let mut b = AppBuilder::new("Demo");
//! let act = b.activity("Main");
//! let v = b.var("obj", "C.count");
//! b.button(act, "inc", vec![Stmt::Write(v)]);
//! let app = b.finish();
//!
//! let campaign = run_campaign(&app, &ExplorerConfig { max_depth: 2, ..Default::default() })?;
//! assert!(!campaign.runs.is_empty());
//! # Ok::<(), droidracer_explorer::ExploreError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod db;
mod explore;
mod input;

pub use db::{
    run_campaign, run_campaign_isolated, run_campaign_parallel, run_campaign_profiled, Campaign,
    ReplayDb, TestEntry,
};
pub use explore::{enumerate_sequences, run_sequence, ExploreError, ExplorerConfig};
pub use input::TextFormat;
