//! Race classification (§4.3 of the paper).
//!
//! DroidRacer assists debugging by classifying each race: multi-threaded
//! races involve two threads; single-threaded races are further categorized
//! by inspecting the *posting chains* of the two racing operations — the
//! sequence of `post` operations that transitively scheduled the task
//! containing each access. The categories are checked in the paper's order:
//! co-enabled, delayed, cross-posted, and `unknown` as the remainder.

use std::fmt;

use droidracer_trace::{Op, OpKind, Trace, TraceIndex};

use crate::engine::HappensBefore;
use crate::race::Race;

/// The root-cause category of a data race (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RaceCategory {
    /// The two accesses run on different threads.
    Multithreaded,
    /// Both accesses run on one thread and descend from unordered
    /// environment events (e.g. two UI events on the same screen, or
    /// lifecycle callbacks of two objects).
    CoEnabled,
    /// The posting chains differ in their most recent *delayed* posts;
    /// ruling the race out requires reasoning about the timeouts.
    Delayed,
    /// The posting chains differ in their most recent posts made from
    /// another thread; resolving the race needs both thread-local and
    /// inter-thread reasoning.
    CrossPosted,
    /// None of the criteria matched.
    Unknown,
}

impl RaceCategory {
    /// All categories in the paper's presentation order.
    pub fn all() -> [RaceCategory; 5] {
        [
            RaceCategory::Multithreaded,
            RaceCategory::CoEnabled,
            RaceCategory::Delayed,
            RaceCategory::CrossPosted,
            RaceCategory::Unknown,
        ]
    }

    /// Short label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            RaceCategory::Multithreaded => "multithreaded",
            RaceCategory::CoEnabled => "co-enabled",
            RaceCategory::Delayed => "delayed",
            RaceCategory::CrossPosted => "cross-posted",
            RaceCategory::Unknown => "unknown",
        }
    }
}

impl fmt::Display for RaceCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Classifies `race` according to §4.3.
pub fn classify(
    trace: &Trace,
    index: &TraceIndex,
    hb: &HappensBefore,
    race: &Race,
) -> RaceCategory {
    classify_with(trace.ops(), index, |a, b| hb.ordered(a, b), race)
}

/// Generic classification core: the same §4.3 decision procedure over any
/// op-level ordering predicate (`ordered(i, j)` ⇔ `αi ≺ αj`, reflexive at
/// the op level like [`HappensBefore::ordered`]). The streaming engine
/// reuses it with its column-oriented relation.
pub(crate) fn classify_with(
    ops: &[Op],
    index: &TraceIndex,
    ordered: impl Fn(usize, usize) -> bool,
    race: &Race,
) -> RaceCategory {
    let (i, j) = (race.first, race.second);
    if ops[i].thread != ops[j].thread {
        return RaceCategory::Multithreaded;
    }
    let chain_i = index.chain(i);
    let chain_j = index.chain(j);

    // Co-enabled: most recent posts for environmental events.
    let env_post = |chain: &[usize]| {
        chain
            .iter()
            .rev()
            .copied()
            .find(|&p| matches!(ops[p].kind, OpKind::Post { event: Some(_), .. }))
    };
    if let (Some(bi), Some(bj)) = (env_post(&chain_i), env_post(&chain_j)) {
        if bi != bj && !ordered(bi, bj) {
            return RaceCategory::CoEnabled;
        }
    }

    // Delayed: most recent delayed posts.
    let delayed_post = |chain: &[usize]| {
        chain
            .iter()
            .rev()
            .copied()
            .find(|&p| matches!(ops[p].kind, OpKind::Post { kind, .. } if kind.is_delayed()))
    };
    let (di, dj) = (delayed_post(&chain_i), delayed_post(&chain_j));
    match (di, dj) {
        (Some(a), Some(b)) if a != b => return RaceCategory::Delayed,
        (Some(_), None) | (None, Some(_)) => return RaceCategory::Delayed,
        _ => {}
    }

    // Cross-posted: most recent posts executing on another thread than the
    // access's own thread.
    let cross_post =
        |chain: &[usize], own| chain.iter().rev().copied().find(|&p| ops[p].thread != own);
    let (ci, cj) = (
        cross_post(&chain_i, ops[i].thread),
        cross_post(&chain_j, ops[j].thread),
    );
    match (ci, cj) {
        (Some(a), Some(b)) if a != b => return RaceCategory::CrossPosted,
        (Some(_), None) | (None, Some(_)) => return RaceCategory::CrossPosted,
        _ => {}
    }

    RaceCategory::Unknown
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::race::detect;
    use crate::rules::HbConfig;
    use droidracer_trace::{ThreadKind, TraceBuilder};

    fn classify_single_race(trace: &Trace) -> RaceCategory {
        let hb = HappensBefore::compute(trace, HbConfig::new());
        let races = detect(trace, &hb);
        assert_eq!(races.len(), 1, "expected exactly one race, got {races:?}");
        classify(trace, &trace.index(), &hb, &races[0])
    }

    #[test]
    fn cross_thread_race_is_multithreaded() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg = b.thread("bg", ThreadKind::App, false);
        let loc = b.loc("o", "C.f");
        b.thread_init(main);
        b.fork(main, bg);
        b.thread_init(bg);
        b.write(bg, loc);
        b.read(main, loc);
        assert_eq!(
            classify_single_race(&b.finish_validated().expect("feasible trace")),
            RaceCategory::Multithreaded
        );
    }

    #[test]
    fn unordered_ui_events_are_co_enabled() {
        // Two UI event handlers posted for distinct events with no ordering:
        // clicking two buttons on the same screen.
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let h1 = b.task("onClickA");
        let h2 = b.task("onClickB");
        let e1 = b.event("click:A");
        let e2 = b.event("click:B");
        let loc = b.loc("o", "C.f");
        b.thread_init(main);
        b.attach_q(main);
        b.loop_on_q(main);
        b.post_event(main, h1, main, e1); // 3
        b.post_event(main, h2, main, e2); // 4
        b.begin(main, h1);
        b.write(main, loc);
        b.end(main, h1);
        b.begin(main, h2);
        b.write(main, loc);
        b.end(main, h2);
        // The two posts are made outside any task on the looping thread, so
        // they are unordered; the handler tasks race and the most recent env
        // posts (3, 4) are unordered → co-enabled.
        assert_eq!(
            classify_single_race(&b.finish_validated().expect("feasible trace")),
            RaceCategory::CoEnabled
        );
    }

    #[test]
    fn delayed_post_race_is_delayed() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let binder = b.thread("binder", ThreadKind::Binder, true);
        let slow = b.task("slowRefresh");
        let fast = b.task("fastUpdate");
        let loc = b.loc("o", "C.f");
        b.thread_init(main);
        b.attach_q(main);
        b.loop_on_q(main);
        b.thread_init(binder);
        b.post_delayed(binder, slow, main, 1000);
        b.post(binder, fast, main);
        b.begin(main, fast);
        b.write(main, loc);
        b.end(main, fast);
        b.begin(main, slow);
        b.write(main, loc);
        b.end(main, slow);
        assert_eq!(
            classify_single_race(&b.finish_validated().expect("feasible trace")),
            RaceCategory::Delayed
        );
    }

    #[test]
    fn cross_thread_posts_give_cross_posted() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg1 = b.thread("bg1", ThreadKind::App, true);
        let bg2 = b.thread("bg2", ThreadKind::App, true);
        let t1 = b.task("A");
        let t2 = b.task("B");
        let loc = b.loc("o", "C.f");
        b.thread_init(main);
        b.attach_q(main);
        b.loop_on_q(main);
        b.thread_init(bg1);
        b.thread_init(bg2);
        b.post(bg1, t1, main);
        b.post(bg2, t2, main);
        b.begin(main, t1);
        b.write(main, loc);
        b.end(main, t1);
        b.begin(main, t2);
        b.write(main, loc);
        b.end(main, t2);
        assert_eq!(
            classify_single_race(&b.finish_validated().expect("feasible trace")),
            RaceCategory::CrossPosted
        );
    }

    #[test]
    fn same_thread_plain_posts_fall_back_to_unknown() {
        // Both racing tasks posted from the main thread itself, no events,
        // no delays: none of the criteria applies. (Requires suppressing
        // FIFO-orderability: the posts themselves must be unordered, which
        // on one thread outside tasks they are.)
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let t1 = b.task("A");
        let t2 = b.task("B");
        let loc = b.loc("o", "C.f");
        b.thread_init(main);
        b.attach_q(main);
        b.loop_on_q(main);
        b.post(main, t1, main);
        b.post(main, t2, main);
        b.begin(main, t1);
        b.write(main, loc);
        b.end(main, t1);
        b.begin(main, t2);
        b.write(main, loc);
        b.end(main, t2);
        assert_eq!(
            classify_single_race(&b.finish_validated().expect("feasible trace")),
            RaceCategory::Unknown
        );
    }

    #[test]
    fn ordered_env_posts_do_not_classify_as_co_enabled() {
        // Event handler A enables event B (B can only fire after A ran):
        // if a race still exists for another reason it must not be
        // co-enabled. Here we build delayed posts under ordered events.
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let binder = b.thread("binder", ThreadKind::Binder, true);
        let h1 = b.task("onResume");
        let h2 = b.task("tick");
        let e1 = b.event("resume");
        let loc = b.loc("o", "C.f");
        b.thread_init(main);
        b.attach_q(main);
        b.loop_on_q(main);
        b.thread_init(binder);
        b.post_event(binder, h1, main, e1); // env post for h1
        b.begin(main, h1);
        b.write(main, loc);
        b.post_delayed(main, h2, main, 500); // delayed post inside h1
        b.end(main, h1);
        b.begin(main, h2);
        b.write(main, loc);
        b.end(main, h2);
        let trace = b.finish_validated().expect("feasible trace");
        let hb = HappensBefore::compute(&trace, HbConfig::new());
        let races = detect(&trace, &hb);
        // h1 ≺ h2 by NOPRE (h1 posts h2), so actually no race here at all.
        assert!(races.is_empty());
    }

    #[test]
    fn category_labels_are_distinct() {
        let labels: Vec<&str> = RaceCategory::all().iter().map(|c| c.label()).collect();
        let mut d = labels.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), labels.len());
    }
}
