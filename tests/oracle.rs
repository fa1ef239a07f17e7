//! Oracle tests: exhaustive schedule exploration as ground truth for the
//! happens-before detector.
//!
//! Two directions are checked over programs without environment injections
//! and without front-of-queue posts:
//!
//! * **Completeness of reports** — every reported race can really be
//!   reordered: the two access sites occur in both orders across explored
//!   schedules. This is exactly the paper's criterion for a true positive.
//! * **Soundness (adjacency)** — if two conflicting accesses from
//!   *different threads* ever execute back-to-back (adjacent trace
//!   positions), nothing synchronizes them there, and the detector must
//!   report them.
//!
//! Mere cross-schedule order variability is deliberately NOT required to
//! imply a race: two lock-protected writers can commit in either order and
//! yet every execution orders them through the lock — the
//! `oracle_lock_handoff` case below, which this suite caught when a naive
//! "flips ⇒ race" criterion was first tried.

use std::collections::{BTreeMap, BTreeSet};

use droidracer::core::AnalysisBuilder;
use droidracer::sim::{
    explore_schedules, explore_schedules_reduced, Action, ExploreConfig, Program, ProgramBuilder,
    ThreadSpec,
};
use droidracer::trace::{validate, MemLoc, PostKind, ThreadKind, Trace};

/// An access site for oracle purposes: thread-name base + task-name base +
/// access kind.
type Site = (String, Option<String>, bool);

fn base(name: &str) -> String {
    name.split('#').next().unwrap_or(name).to_owned()
}

fn sites_in_order(trace: &Trace, loc: MemLoc) -> Vec<Site> {
    let index = trace.index();
    trace
        .iter()
        .filter_map(|(i, op)| {
            let l = op.kind.accessed_loc()?;
            (l == loc).then(|| {
                (
                    base(&trace.names().thread_name(op.thread)),
                    index.task_of(i).map(|t| base(&trace.names().task_name(t))),
                    op.kind.is_write(),
                )
            })
        })
        .collect()
}

/// For every location: the set of ordered site pairs `(a, b)` such that an
/// `a`-access precedes a `b`-access in some explored trace (only distinct
/// sites, only conflicting pairs).
fn observed_adjacent(
    runs: &[droidracer::sim::SimResult],
    locs: &BTreeSet<MemLoc>,
) -> BTreeMap<MemLoc, BTreeSet<(Site, Site)>> {
    // Conflicting accesses at consecutive trace positions on different
    // threads: provably unsynchronized at that point.
    let mut out: BTreeMap<MemLoc, BTreeSet<(Site, Site)>> = BTreeMap::new();
    for run in runs {
        let trace = &run.trace;
        let index = trace.index();
        let site = |i: usize| {
            let op = trace.op(i);
            (
                base(&trace.names().thread_name(op.thread)),
                index.task_of(i).map(|t| base(&trace.names().task_name(t))),
                op.kind.is_write(),
            )
        };
        for i in 0..trace.len().saturating_sub(1) {
            let (a, b) = (trace.op(i), trace.op(i + 1));
            let (Some(la), Some(lb)) = (a.kind.accessed_loc(), b.kind.accessed_loc()) else {
                continue;
            };
            if la == lb
                && locs.contains(&la)
                && a.thread != b.thread
                && (a.kind.is_write() || b.kind.is_write())
            {
                out.entry(la).or_default().insert((site(i), site(i + 1)));
            }
        }
    }
    out
}

fn observed_orders(
    runs: &[droidracer::sim::SimResult],
    locs: &BTreeSet<MemLoc>,
) -> BTreeMap<MemLoc, BTreeSet<(Site, Site)>> {
    let mut out: BTreeMap<MemLoc, BTreeSet<(Site, Site)>> = BTreeMap::new();
    for run in runs {
        for &loc in locs {
            let sites = sites_in_order(&run.trace, loc);
            for i in 0..sites.len() {
                for j in i + 1..sites.len() {
                    if sites[i] != sites[j] && (sites[i].2 || sites[j].2) {
                        out.entry(loc)
                            .or_default()
                            .insert((sites[i].clone(), sites[j].clone()));
                    }
                }
            }
        }
    }
    out
}

/// Detector verdicts: for every location, the set of racing site pairs
/// reported in any explored trace (normalized: both orders inserted).
fn reported_races(runs: &[droidracer::sim::SimResult]) -> BTreeMap<MemLoc, BTreeSet<(Site, Site)>> {
    let mut out: BTreeMap<MemLoc, BTreeSet<(Site, Site)>> = BTreeMap::new();
    for run in runs {
        let analysis = AnalysisBuilder::new().analyze(&run.trace).unwrap();
        let trace = analysis.trace();
        let index = trace.index();
        let site = |i: usize| {
            let op = trace.op(i);
            (
                base(&trace.names().thread_name(op.thread)),
                index.task_of(i).map(|t| base(&trace.names().task_name(t))),
                op.kind.is_write(),
            )
        };
        for cr in analysis.races() {
            let (a, b) = (site(cr.race.first), site(cr.race.second));
            let entry = out.entry(cr.race.loc).or_default();
            entry.insert((a.clone(), b.clone()));
            entry.insert((b, a));
        }
    }
    out
}

/// Checks the oracle equivalence on `program` (which must avoid injections
/// and front posts), under both the naive and the sleep-set-reduced
/// exploration — the reduction must preserve every ordering of conflicting
/// accesses, so the oracle verdicts coincide.
fn check_oracle(program: &Program) {
    check_oracle_with(program, false);
    check_oracle_with(program, true);
}

fn check_oracle_with(program: &Program, reduced: bool) {
    let config = ExploreConfig {
        max_steps: 20_000,
        max_schedules: 20_000,
    };
    let exploration = if reduced {
        explore_schedules_reduced(program, &config)
    } else {
        explore_schedules(program, &config)
    }
    .expect("exploration runs");
    assert!(exploration.complete, "program too large for the oracle");
    let mut locs = BTreeSet::new();
    for run in &exploration.runs {
        assert_eq!(validate(&run.trace), Ok(()));
        for op in run.trace.ops() {
            if let Some(l) = op.kind.accessed_loc() {
                locs.insert(l);
            }
        }
    }
    let observed = observed_orders(&exploration.runs, &locs);
    let adjacent = observed_adjacent(&exploration.runs, &locs);
    let reported = reported_races(&exploration.runs);
    // Soundness: adjacent conflicting cross-thread accesses are provably
    // unsynchronized and must be reported.
    for (loc, pairs) in &adjacent {
        let reported_for_loc = reported.get(loc).cloned().unwrap_or_default();
        for pair in pairs {
            assert!(
                reported_for_loc.contains(pair),
                "pair {pair:?} on {loc} executes back-to-back but is never reported"
            );
        }
    }
    // Completeness: every reported pair really flips across schedules (the
    // paper's true-positive criterion).
    for (loc, reported_for_loc) in &reported {
        let orders = observed.get(loc).cloned().unwrap_or_default();
        for pair in reported_for_loc {
            let (a, b) = pair;
            assert!(
                orders.contains(&(a.clone(), b.clone()))
                    && orders.contains(&(b.clone(), a.clone())),
                "pair {pair:?} on {loc} is reported but never flips"
            );
        }
    }
}

#[test]
fn oracle_plain_mt_race() {
    let mut p = ProgramBuilder::new();
    let a = p.thread(ThreadSpec::app("a").initial());
    let b = p.thread(ThreadSpec::app("b").initial());
    let loc = p.loc("o", "C.f");
    p.set_thread_body(a, vec![Action::Write(loc)]);
    p.set_thread_body(b, vec![Action::Read(loc)]);
    check_oracle(&p.finish().expect("valid"));
}

#[test]
fn oracle_fork_join_sync() {
    let mut p = ProgramBuilder::new();
    let main = p.thread(ThreadSpec::app("main").initial());
    let w = p.thread(ThreadSpec::app("w"));
    let loc = p.loc("o", "C.f");
    let loc2 = p.loc("o", "C.g");
    p.set_thread_body(
        main,
        vec![
            Action::Write(loc2), // ordered before w's read via the fork
            Action::Fork(w),
            Action::Join(w),
            Action::Read(loc), // ordered after w's write
        ],
    );
    p.set_thread_body(w, vec![Action::Write(loc), Action::Read(loc2)]);
    check_oracle(&p.finish().expect("valid"));
}

#[test]
fn oracle_lock_handoff() {
    let mut p = ProgramBuilder::new();
    let a = p.thread(ThreadSpec::app("a").initial());
    let b = p.thread(ThreadSpec::app("b").initial());
    let loc = p.loc("o", "C.f");
    let m = p.lock("m");
    p.set_thread_body(
        a,
        vec![Action::Acquire(m), Action::Write(loc), Action::Release(m)],
    );
    p.set_thread_body(
        b,
        vec![Action::Acquire(m), Action::Write(loc), Action::Release(m)],
    );
    check_oracle(&p.finish().expect("valid"));
}

#[test]
fn oracle_looper_tasks() {
    // Two tasks posted to a looper by two independent threads: the
    // single-threaded race flips with the post order.
    let mut p = ProgramBuilder::new();
    let main = p.thread(
        ThreadSpec::app("main")
            .kind(ThreadKind::Main)
            .initial()
            .with_queue(),
    );
    let p1 = p.thread(ThreadSpec::app("p1").initial());
    let p2 = p.thread(ThreadSpec::app("p2").initial());
    let loc = p.loc("o", "C.f");
    let a = p.task("A", vec![Action::Write(loc)]);
    let b2 = p.task("B", vec![Action::Write(loc)]);
    p.set_thread_body(
        p1,
        vec![Action::Post {
            task: a,
            target: main,
            kind: PostKind::Plain,
        }],
    );
    p.set_thread_body(
        p2,
        vec![Action::Post {
            task: b2,
            target: main,
            kind: PostKind::Plain,
        }],
    );
    check_oracle(&p.finish().expect("valid"));
}

#[test]
fn oracle_fifo_ordered_tasks() {
    // Both tasks posted by one thread: FIFO orders them, no race, no flip.
    let mut p = ProgramBuilder::new();
    let main = p.thread(
        ThreadSpec::app("main")
            .kind(ThreadKind::Main)
            .initial()
            .with_queue(),
    );
    let poster = p.thread(ThreadSpec::app("poster").initial());
    let loc = p.loc("o", "C.f");
    let a = p.task("A", vec![Action::Write(loc)]);
    let b2 = p.task("B", vec![Action::Write(loc)]);
    p.set_thread_body(
        poster,
        vec![
            Action::Post {
                task: a,
                target: main,
                kind: PostKind::Plain,
            },
            Action::Post {
                task: b2,
                target: main,
                kind: PostKind::Plain,
            },
        ],
    );
    check_oracle(&p.finish().expect("valid"));
}

#[test]
fn oracle_delayed_post_overtaking() {
    // A delayed task and a plain task from one poster: the delayed one may
    // be overtaken — the race is real and must flip.
    let mut p = ProgramBuilder::new();
    let main = p.thread(
        ThreadSpec::app("main")
            .kind(ThreadKind::Main)
            .initial()
            .with_queue(),
    );
    let poster = p.thread(ThreadSpec::app("poster").initial());
    let loc = p.loc("o", "C.f");
    let slow = p.task("slow", vec![Action::Write(loc)]);
    let fast = p.task("fast", vec![Action::Write(loc)]);
    p.set_thread_body(
        poster,
        vec![
            Action::Post {
                task: slow,
                target: main,
                kind: PostKind::Delayed(100),
            },
            Action::Post {
                task: fast,
                target: main,
                kind: PostKind::Plain,
            },
        ],
    );
    check_oracle(&p.finish().expect("valid"));
}

#[test]
fn oracle_enable_gated_task() {
    // Task A enables task E which a separate thread posts: A always ends
    // before E begins (ENABLE + NOPRE) — no race, no flip.
    let mut p = ProgramBuilder::new();
    let main = p.thread(
        ThreadSpec::app("main")
            .kind(ThreadKind::Main)
            .initial()
            .with_queue(),
    );
    let binder = p.thread(ThreadSpec::app("binder").initial());
    let poster = p.thread(ThreadSpec::app("poster").initial());
    let loc = p.loc("o", "C.f");
    let gated = p.task("gated", vec![Action::Write(loc)]);
    p.require_enable(gated);
    let first = p.task("first", vec![Action::Write(loc), Action::Enable(gated)]);
    p.set_thread_body(
        binder,
        vec![Action::Post {
            task: first,
            target: main,
            kind: PostKind::Plain,
        }],
    );
    p.set_thread_body(
        poster,
        vec![Action::Post {
            task: gated,
            target: main,
            kind: PostKind::Plain,
        }],
    );
    check_oracle(&p.finish().expect("valid"));
}
