//! Happens-before race detection for the Android concurrency model.
//!
//! This crate implements the primary contribution of *Race Detection for
//! Android Applications* (Maiya, Kanade, Majumdar — PLDI 2014):
//!
//! * the combined happens-before relation `≺ = ≺st ∪ ≺mt` of Figures 6
//!   and 7, with the paper's deliberately restricted transitivity
//!   ([`engine::HappensBefore`]);
//! * the graph-based detection algorithm of §4.3 with the §6 node-merging
//!   optimization ([`graph::HbGraph`], [`race::detect`]);
//! * race classification into multi-threaded / co-enabled / delayed /
//!   cross-posted / unknown ([`classify::classify`]);
//! * the baseline relations of §4.1's "Specializations" used in the
//!   evaluation ablation ([`rules::HbMode`]);
//! * the same relation computed from the rules as written, by a naive
//!   fixpoint that shares no code with the engine and is the reference its
//!   tests and the fuzzer check it against ([`spec::Spec`]).
//!
//! # Examples
//!
//! ```
//! use droidracer_trace::{TraceBuilder, ThreadKind};
//! use droidracer_core::{AnalysisBuilder, RaceCategory};
//!
//! // The BACK-button scenario of the paper's §2 in miniature: an activity
//! // launch writes a flag, a background task reads it, and onDestroy —
//! // enabled once the launch finished — writes it again.
//! let mut b = TraceBuilder::new();
//! let binder = b.thread("binder", ThreadKind::Binder, true);
//! let main = b.thread("main", ThreadKind::Main, true);
//! let bg = b.thread("bg", ThreadKind::App, false);
//! let launch = b.task("LAUNCH_ACTIVITY");
//! let destroy = b.task("onDestroy");
//! let flag = b.loc("DwFileAct-obj", "isActivityDestroyed");
//!
//! b.thread_init(main);
//! b.attach_q(main);
//! b.loop_on_q(main);
//! b.thread_init(binder);
//! b.post(binder, launch, main);
//! b.begin(main, launch);
//! b.write(main, flag);
//! b.fork(main, bg);
//! b.enable(main, destroy);
//! b.end(main, launch);
//! b.thread_init(bg);
//! b.read(bg, flag);
//! b.thread_exit(bg);
//! b.post(binder, destroy, main);
//! b.begin(main, destroy);
//! b.write(main, flag);
//! b.end(main, destroy);
//!
//! let analysis = AnalysisBuilder::new().analyze(&b.finish()).unwrap();
//! // The bg read races with onDestroy's write (multi-threaded), but the
//! // launch write does not race with onDestroy thanks to the enable edge.
//! assert_eq!(analysis.count(RaceCategory::Multithreaded), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bitmatrix;
mod classify;
mod coverage;
mod engine;
mod explain;
pub mod fasttrack;
mod generators;
mod graph;
pub mod par;
mod race;
mod report;
mod robust;
mod rules;
mod service;
mod session;
pub mod simd;
pub mod spec;
mod stream;
pub mod vc;

pub use classify::{classify, RaceCategory};
pub use coverage::{race_coverage, CoverageReport};
pub use engine::{EngineStats, HappensBefore};
pub use explain::{explain, to_dot};
pub use graph::{DirectEdges, HbGraph, Node, NodeId};
pub use par::{
    analyze_all, analyze_all_profiled, analyze_all_with, default_threads, effective_workers,
    par_map, par_map_profiled, par_try_map, run_isolated, ItemError, SPAWN_MIN_ITEMS,
};
pub use race::{detect, Race, RaceKind};
pub use report::{Analysis, CategoryCounts, ClassifiedRace};
pub use robust::{Budget, BudgetExhausted, BudgetReason, QuarantineCause, Quarantined};
pub use rules::{HbConfig, HbMode, RuleSet};
pub use service::{
    AnalysisService, ExitClass, JobReport, JobSpec, JobStats, LocalService, ReportedRace,
};
pub use session::{AnalysisBuilder, AnalysisError, FaultHook, StreamReport, StreamingSession};
pub use stream::{
    RaceEvent, StreamEvent, StreamOptions, StreamOutcome, StreamStats, StreamingAnalysis,
};
