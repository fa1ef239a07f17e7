//! 10k-iteration component-substructure fuzz campaign.
//!
//! Generates programs with all four component substructures boosted, runs
//! every iteration through the full oracle stack (any divergence is a
//! detector bug and aborts the campaign), then — for each component tag —
//! picks the smallest divergence-free spec whose trace exhibits that
//! component's engine shape, shrinks it with the campaign predicate as the
//! keep-condition, and writes the shrunk trace to
//! `tests/data/fuzz_regressions/component_<tag>.trace`.
//!
//! Run from the workspace root:
//!
//! ```text
//! cargo run --release -p droidracer-fuzz --example component_campaign
//! ```

use std::collections::BTreeSet;
use std::path::Path;

use droidracer_core::HbConfig;
use droidracer_fuzz::corpus::{save_regression, serial_executor_ordering};
use droidracer_fuzz::gen::{generate, ComponentTag, GenBias, GenConfig, ProgramSpec};
use droidracer_fuzz::oracle::check_trace;
use droidracer_fuzz::shrink::shrink_with;
use droidracer_sim::{run, RandomScheduler, SimConfig};
use droidracer_trace::{OpKind, ThreadId, ThreadKind, Trace};

const ITERATIONS: u64 = 10_000;
const CAMPAIGN_SEED: u64 = 0xC011701;

/// Threads that appear as the target of any post.
fn post_receivers(trace: &Trace) -> BTreeSet<ThreadId> {
    trace
        .iter()
        .filter_map(|(_, op)| match op.kind {
            OpKind::Post { target, .. } => Some(target),
            _ => None,
        })
        .collect()
}

fn main_threads(trace: &Trace) -> BTreeSet<ThreadId> {
    trace
        .names()
        .threads()
        .filter(|(_, d)| d.kind == ThreadKind::Main)
        .map(|(id, _)| id)
        .collect()
}

/// Service shape: a never-posted-to thread re-delivers two or more tasks
/// to a main looper while the trace also forks a worker (the loader racing
/// the command handlers).
fn service_shape(trace: &Trace) -> bool {
    let receivers = post_receivers(trace);
    let mains = main_threads(trace);
    let mut redelivery = false;
    let mut per_poster: std::collections::BTreeMap<ThreadId, usize> = Default::default();
    let mut has_fork = false;
    for (_, op) in trace.iter() {
        match op.kind {
            OpKind::Post { target, .. }
                if !receivers.contains(&op.thread) && mains.contains(&target) =>
            {
                let n = per_poster.entry(op.thread).or_insert(0);
                *n += 1;
                redelivery |= *n >= 2;
            }
            OpKind::Fork { .. } => has_fork = true,
            _ => {}
        }
    }
    redelivery && has_fork
}

/// Fragment shape: a fork issued from *inside* a posted task (between its
/// begin and end) on a main looper — background view work launched by a
/// lifecycle callback — with a later task on the same looper (the detach
/// window reader).
fn fragment_shape(trace: &Trace) -> bool {
    let mains = main_threads(trace);
    let mut depth: std::collections::BTreeMap<ThreadId, usize> = Default::default();
    let mut fork_in_task = false;
    let mut begins_after_fork = false;
    for (_, op) in trace.iter() {
        if !mains.contains(&op.thread) {
            continue;
        }
        match op.kind {
            OpKind::Begin { .. } => {
                *depth.entry(op.thread).or_insert(0) += 1;
                begins_after_fork |= fork_in_task;
            }
            OpKind::End { .. } => {
                let d = depth.entry(op.thread).or_insert(0);
                *d = d.saturating_sub(1);
            }
            OpKind::Fork { .. } if depth.get(&op.thread).copied().unwrap_or(0) > 0 => {
                fork_in_task = true;
            }
            _ => {}
        }
    }
    fork_in_task && begins_after_fork
}

/// Broadcast shape: a never-posted-to sender posts a receiver task and
/// then keeps writing on its own thread — the write after the post has no
/// happens-before edge back to the delivered handler.
fn broadcast_shape(trace: &Trace) -> bool {
    let receivers = post_receivers(trace);
    let mut posted: BTreeSet<ThreadId> = BTreeSet::new();
    for (_, op) in trace.iter() {
        match op.kind {
            OpKind::Post { .. } if !receivers.contains(&op.thread) => {
                posted.insert(op.thread);
            }
            OpKind::Write { .. } if posted.contains(&op.thread) => return true,
            _ => {}
        }
    }
    false
}

fn shape_of(tag: ComponentTag) -> fn(&Trace) -> bool {
    match tag {
        ComponentTag::Service => service_shape,
        ComponentTag::Fragment => fragment_shape,
        ComponentTag::SerialExecutor => serial_executor_ordering,
        ComponentTag::Broadcast => broadcast_shape,
    }
}

/// Runs `spec` and returns its trace if it completes divergence-free and
/// exhibits `shape`.
fn qualifies(spec: &ProgramSpec, sched_seed: u64, shape: fn(&Trace) -> bool) -> Option<Trace> {
    let program = spec.lower().ok()?;
    let result = run(
        &program,
        &mut RandomScheduler::new(sched_seed),
        &SimConfig { max_steps: 20_000 },
    )
    .ok()?;
    if !result.completed {
        return None;
    }
    let report = check_trace(&result.trace, HbConfig::new(), HbConfig::new());
    if !report.divergences.is_empty() {
        return None;
    }
    shape(&result.trace).then_some(result.trace)
}

fn main() {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    let mut bias = GenBias::default();
    for tag in ComponentTag::all() {
        bias.set_component_pct(tag, 50);
    }
    let config = GenConfig::default();

    // (smallest spec so far, its scheduler seed) per tag.
    let mut best: std::collections::BTreeMap<&'static str, (ProgramSpec, u64)> = Default::default();
    let mut divergences = 0usize;

    for iter in 0..ITERATIONS {
        let mut rng = SmallRng::seed_from_u64(CAMPAIGN_SEED ^ iter);
        let spec = generate(&mut rng, &config, &bias);
        let Ok(program) = spec.lower() else {
            panic!("iteration {iter}: generated spec fails to lower");
        };
        let Ok(result) = run(
            &program,
            &mut RandomScheduler::new(iter),
            &SimConfig { max_steps: 20_000 },
        ) else {
            panic!("iteration {iter}: simulation error");
        };
        if !result.completed {
            continue;
        }
        let report = check_trace(&result.trace, HbConfig::new(), HbConfig::new());
        if !report.divergences.is_empty() {
            divergences += 1;
            eprintln!("iteration {iter}: DIVERGENCE {:?}", report.divergences);
            continue;
        }
        for &tag in &spec.components {
            if !shape_of(tag)(&result.trace) {
                continue;
            }
            let slot = best.entry(tag.label());
            let replace = match slot {
                std::collections::btree_map::Entry::Occupied(ref o) => {
                    spec.action_count() < o.get().0.action_count()
                }
                std::collections::btree_map::Entry::Vacant(_) => true,
            };
            if replace {
                match slot {
                    std::collections::btree_map::Entry::Occupied(mut o) => {
                        o.insert((spec.clone(), iter));
                    }
                    std::collections::btree_map::Entry::Vacant(v) => {
                        v.insert((spec.clone(), iter));
                    }
                }
            }
        }
    }

    assert_eq!(divergences, 0, "campaign found oracle divergences");

    let dir = Path::new("tests/data/fuzz_regressions");
    for tag in ComponentTag::all() {
        let Some((spec, sched_seed)) = best.get(tag.label()) else {
            panic!(
                "{}: no qualifying spec in {ITERATIONS} iterations",
                tag.label()
            );
        };
        let shape = shape_of(tag);
        let (shrunk, trace, rounds) =
            shrink_with(spec, &|s| qualifies(s, *sched_seed, shape)).expect("seed spec qualifies");
        let path = save_regression(dir, &format!("component_{}", tag.label()), &trace)
            .expect("regression written");
        println!(
            "{}: {} actions -> {} actions in {rounds} shrink rounds, {} trace ops -> {}",
            tag.label(),
            spec.action_count(),
            shrunk.action_count(),
            trace.len(),
            path.display(),
        );
    }
}
