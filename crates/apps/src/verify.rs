//! Mechanical race validation by reordering — the stand-in for the paper's
//! manual DDMS sessions (§6): "We classify only those reported races as true
//! positives for which we could produce alternate ordering of racey memory
//! accesses than the reported order in the trace," by stalling threads, by
//! changing the order of triggering events, and by altering delays.
//!
//! [`verify_race`] re-executes an app under many seeds (alternate schedules)
//! and under adjacent transpositions of the UI event sequence (alternate
//! event orders), and reports whether the two racing accesses were ever
//! observed in the opposite order.

use droidracer_core::AnalysisBuilder;
use droidracer_framework::{compile, UiEvent};
use droidracer_sim::{run, RandomScheduler, Scheduler, SimConfig, StallScheduler};
use droidracer_trace::{OpKind, Trace};

use crate::corpus::{CorpusEntry, CorpusError};
use crate::strip::strip_untracked;

/// The verdict of reordering-based validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// An alternate run showed the accesses in the opposite order: the race
    /// is a true positive.
    Reordered,
    /// No run within the budget flipped the accesses. (For the corpus's
    /// planted false positives no budget ever will — the hidden ordering is
    /// enforced by the simulator even though the trace hides it.)
    NotReordered,
    /// No race on the given field was reported in the representative run.
    NoSuchRace,
}

/// An access site: where in the program one of the racing accesses lives.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Site {
    thread: String,
    task: Option<String>,
    is_write: bool,
}

fn base_name(name: &str) -> String {
    name.split('#').next().unwrap_or(name).to_owned()
}

fn site_of(trace: &Trace, index: usize) -> Site {
    let op = trace.op(index);
    let task = trace
        .index()
        .task_of(index)
        .map(|t| base_name(&trace.names().task_name(t)));
    Site {
        thread: base_name(&trace.names().thread_name(op.thread)),
        task,
        is_write: op.kind.is_write(),
    }
}

/// First position in `trace` of an access to a location named `field` from
/// `site`.
fn find_site(trace: &Trace, field: &str, site: &Site) -> Option<usize> {
    let index = trace.index();
    trace.iter().position(|(i, op)| {
        let loc = match op.kind {
            OpKind::Read { loc } => loc,
            OpKind::Write { loc } => loc,
            _ => return false,
        };
        trace.names().field_name(loc.field) == field
            && op.kind.is_write() == site.is_write
            && base_name(&trace.names().thread_name(op.thread)) == site.thread
            && index
                .task_of(i)
                .map(|t| base_name(&trace.names().task_name(t)))
                == site.task
    })
}

/// All adjacent transpositions of `events`, plus the original order.
fn event_orders(events: &[UiEvent]) -> Vec<Vec<UiEvent>> {
    let mut orders = vec![events.to_vec()];
    for i in 0..events.len().saturating_sub(1) {
        let mut swapped = events.to_vec();
        swapped.swap(i, i + 1);
        if !orders.contains(&swapped) {
            orders.push(swapped);
        }
    }
    orders
}

/// Attempts to reorder the reported race on `field` within `max_runs`
/// alternate executions (schedules × event orders).
///
/// # Errors
///
/// Returns [`CorpusError`] if the representative run itself fails.
pub fn verify_race(
    entry: &CorpusEntry,
    field: &str,
    max_runs: usize,
) -> Result<VerifyOutcome, CorpusError> {
    let baseline = entry.generate_trace()?;
    let analysis = AnalysisBuilder::new().analyze(&baseline).unwrap();
    let Some(race) = analysis
        .representatives()
        .into_iter()
        .find(|cr| analysis.trace().names().field_name(cr.race.loc.field) == field)
    else {
        return Ok(VerifyOutcome::NoSuchRace);
    };
    let site_a = site_of(analysis.trace(), race.race.first);
    let site_b = site_of(analysis.trace(), race.race.second);

    let attempt = |scheduler: &mut dyn Scheduler, order: &[UiEvent]| -> Option<bool> {
        let compiled = compile(&entry.app, order).ok()?; // infeasible alternate order
        let result = run(
            &compiled.program,
            scheduler,
            &SimConfig { max_steps: 600_000 },
        )
        .ok()?;
        // Incomplete runs (blocked injections under an infeasible order)
        // still yield a usable prefix trace.
        let trace = strip_untracked(&result.trace);
        let pa = find_site(&trace, field, &site_a)?;
        let pb = find_site(&trace, field, &site_b)?;
        Some(pb < pa)
    };

    let mut runs = 0usize;

    // Phase 1 — the paper's breakpoint technique: stall each thread in turn
    // so the others can overtake it. This flips multi-threaded and
    // cross-posted races whose first access lives on the stalled thread.
    let n_threads = baseline.names().thread_count();
    'stall: for t in 0..n_threads {
        for seed_off in 0..2u64 {
            if runs >= max_runs {
                break 'stall;
            }
            runs += 1;
            let mut s = StallScheduler::new(
                droidracer_trace::ThreadId(t as u32),
                entry.seed.wrapping_add(seed_off),
            );
            if attempt(&mut s, &entry.events) == Some(true) {
                return Ok(VerifyOutcome::Reordered);
            }
        }
    }

    // Phase 2 — alternate event orders (the paper "changes the order of
    // triggering events" for co-enabled races) under random schedules.
    let orders = event_orders(&entry.events);
    let mut seed = entry.seed.wrapping_add(1);
    'outer: while runs < max_runs {
        for order in &orders {
            if runs >= max_runs {
                break 'outer;
            }
            runs += 1;
            let mut s = RandomScheduler::new(seed);
            if attempt(&mut s, order) == Some(true) {
                return Ok(VerifyOutcome::Reordered);
            }
            seed = seed.wrapping_add(1);
        }
    }
    Ok(VerifyOutcome::NotReordered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{CorpusEntry, PaperRow};
    use crate::motifs::MotifBuilder;

    fn entry_from(m: MotifBuilder, seed: u64) -> CorpusEntry {
        let (app, events, truth) = m.finish();
        CorpusEntry {
            name: "verify-test",
            open_source: true,
            app,
            events,
            seed,
            paper: PaperRow::default(),
            truth,
        }
    }

    #[test]
    fn true_mt_race_is_reorderable() {
        let mut m = MotifBuilder::new("V", "Main");
        m.mt_races(1, 0);
        let entry = entry_from(m, 7);
        let field = entry.truth.keys().next().unwrap().clone();
        let outcome = verify_race(&entry, &field, 40).expect("verification runs");
        assert_eq!(outcome, VerifyOutcome::Reordered);
    }

    #[test]
    fn false_mt_race_never_reorders() {
        let mut m = MotifBuilder::new("V", "Main");
        m.mt_races(0, 1);
        let entry = entry_from(m, 7);
        let field = entry.truth.keys().next().unwrap().clone();
        let outcome = verify_race(&entry, &field, 40).expect("verification runs");
        assert_eq!(outcome, VerifyOutcome::NotReordered);
    }

    #[test]
    fn true_co_enabled_race_reorders_via_event_swap() {
        let mut m = MotifBuilder::new("V", "Main");
        m.co_enabled_races(1, 0);
        let entry = entry_from(m, 7);
        let field = entry.truth.keys().next().unwrap().clone();
        let outcome = verify_race(&entry, &field, 40).expect("verification runs");
        assert_eq!(outcome, VerifyOutcome::Reordered);
    }

    #[test]
    fn false_co_enabled_race_stays_ordered() {
        let mut m = MotifBuilder::new("V", "Main");
        m.co_enabled_races(0, 1);
        let entry = entry_from(m, 7);
        let field = entry.truth.keys().next().unwrap().clone();
        let outcome = verify_race(&entry, &field, 40).expect("verification runs");
        assert_eq!(outcome, VerifyOutcome::NotReordered);
    }

    #[test]
    fn unknown_field_reports_no_such_race() {
        let mut m = MotifBuilder::new("V", "Main");
        m.mt_races(1, 0);
        let entry = entry_from(m, 7);
        let outcome = verify_race(&entry, "nonexistent", 5).expect("runs");
        assert_eq!(outcome, VerifyOutcome::NoSuchRace);
    }
}
