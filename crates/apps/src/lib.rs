//! The synthetic application corpus of the evaluation.
//!
//! Rebuilds the 15 applications of the paper's Tables 2 and 3 as framework
//! app models with *planted, ground-truthed* races:
//!
//! * [`corpus`] / [`catalog`] — one entry per application, scaled to its
//!   Table 2 row and planting exactly its Table 3 races;
//! * [`MotifBuilder`] — the reusable concurrency motifs (AsyncTask
//!   downloads, cursor swaps, lifecycle flags, delayed refreshes, custom
//!   task queues, untracked native threads);
//! * [`strip_untracked`] — reproduces the tracer's blind spots, turning the
//!   planted hidden orderings into the paper's false positives;
//! * [`verify_race`] — reordering-based true-positive validation (the DDMS
//!   substitute).
//!
//! # Examples
//!
//! ```
//! use droidracer_apps::{aard_dictionary, RaceCategory};
//!
//! let entry = aard_dictionary();
//! let report = entry.analyze()?;
//! // The dictionary-loading Service race is found and verified.
//! assert_eq!(report.reported.get(RaceCategory::Multithreaded), 1);
//! assert_eq!(report.verified.get(RaceCategory::Multithreaded), 1);
//! # Ok::<(), droidracer_apps::CorpusError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
mod corpus;
pub mod motifs;
mod strip;
mod verify;

pub use catalog::{
    aard_dictionary, adobe_reader, browser, component_corpus, corpus, download_manager, facebook,
    fbreader, feed_fragment, flipkart, gallery_fragment, k9_mail, messenger, music_player,
    my_tracks, net_monitor, open_source_corpus, open_sudoku, remind_me, rotating_gallery,
    sgtpuzzles, sync_service, tomdroid_notes, twitter, upload_queue,
};
pub use corpus::{
    analyze_corpus_isolated, analyze_corpus_parallel, analyze_corpus_profiled, CorpusEntry,
    CorpusError, EntryReport, ExplorationSummary, PaperRow,
};
pub use droidracer_core::RaceCategory;
pub use motifs::{GroundTruth, MotifBuilder, RaceTruth};
pub use strip::{strip_untracked, UNTRACKED_PREFIX};
pub use verify::{verify_race, VerifyOutcome};
