//! Greedy minimization of failing fuzz inputs.
//!
//! The shrinker edits the [`ProgramSpec`] (never the trace directly): every
//! candidate is re-lowered, re-run under the *same* scheduler seed, and
//! re-checked against the oracle stack, so only genuinely feasible smaller
//! programs survive. A deletion is kept when the resulting trace still
//! triggers a divergence of the same [`DivergenceKind`] as the original
//! failure. Passes run to a fixpoint, coarsest deletions first: whole
//! threads, whole tasks, injections, then single body actions.

use std::collections::BTreeSet;

use droidracer_core::HbConfig;
use droidracer_sim::{run, RandomScheduler, SimConfig};
use droidracer_trace::Trace;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::gen::{ProgramSpec, SpecAction};
use crate::oracle::{check_trace, DivergenceKind};

/// A minimized failing input.
#[derive(Debug)]
pub struct ShrinkResult {
    /// The smallest spec still triggering the failure.
    pub spec: ProgramSpec,
    /// The trace it produces under the replayed scheduler seed.
    pub trace: Trace,
    /// The divergence kinds the minimized trace still triggers.
    pub kinds: BTreeSet<DivergenceKind>,
    /// Fixpoint rounds the shrinker ran.
    pub rounds: usize,
}

/// Runs `candidate` under the deterministic scheduler seed and returns the
/// trace plus the divergence kinds it triggers under `(engine, spec)`.
fn probe(
    candidate: &ProgramSpec,
    sched_seed: u64,
    engine: HbConfig,
    spec: HbConfig,
) -> Option<(Trace, BTreeSet<DivergenceKind>)> {
    let program = candidate.lower().ok()?;
    let mut sched = RandomScheduler::from_rng(SmallRng::seed_from_u64(sched_seed));
    let result = run(&program, &mut sched, &SimConfig { max_steps: 20_000 }).ok()?;
    let report = check_trace(&result.trace, engine, spec);
    let kinds = report.divergences.iter().map(|d| d.kind).collect();
    Some((result.trace, kinds))
}

/// Minimizes `program_spec` while a divergence kind in `target` still fires.
///
/// `sched_seed` must be the seed of the random scheduler that produced the
/// original failure; replaying it keeps the search deterministic. Returns
/// `None` when the input does not reproduce under the probe at all — e.g.
/// a witness-replay failure, which only manifests during schedule search,
/// not when re-checking the trace.
pub fn shrink(
    program_spec: &ProgramSpec,
    sched_seed: u64,
    engine: HbConfig,
    spec: HbConfig,
    target: &BTreeSet<DivergenceKind>,
) -> Option<ShrinkResult> {
    let (best, (best_trace, best_kinds), rounds) =
        shrink_with(program_spec, &|candidate: &ProgramSpec| {
            let (trace, kinds) = probe(candidate, sched_seed, engine, spec)?;
            kinds
                .iter()
                .any(|k| target.contains(k))
                .then_some((trace, kinds))
        })?;
    Some(ShrinkResult {
        spec: best,
        trace: best_trace,
        kinds: best_kinds,
        rounds,
    })
}

/// The generic greedy minimizer: repeatedly deletes spec components while
/// `keep` still accepts the candidate, coarsest deletions first (whole
/// threads — never the first, which anchors the main looper — whole tasks,
/// injections, then single body actions), running passes to a fixpoint.
///
/// `keep` returns `Some(witness)` when the candidate still exhibits the
/// property being minimized (a divergence, a coverage feature, …); the
/// witness of the final accepted candidate is returned alongside it.
/// Returns `None` when `keep` rejects the input itself.
pub fn shrink_with<T>(
    spec: &ProgramSpec,
    keep: &dyn Fn(&ProgramSpec) -> Option<T>,
) -> Option<(ProgramSpec, T, usize)> {
    let mut best = spec.clone();
    let mut witness = keep(&best)?;
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        let mut changed = false;
        let try_candidate = |cand: ProgramSpec, best: &mut ProgramSpec, witness: &mut T| {
            if let Some(w) = keep(&cand) {
                *best = cand;
                *witness = w;
                true
            } else {
                false
            }
        };

        for j in (1..best.threads.len()).rev() {
            if try_candidate(remove_thread(&best, j), &mut best, &mut witness) {
                changed = true;
            }
        }
        for j in (0..best.tasks.len()).rev() {
            if try_candidate(remove_task(&best, j), &mut best, &mut witness) {
                changed = true;
            }
        }
        for j in (0..best.injections.len()).rev() {
            let mut cand = best.clone();
            cand.injections.remove(j);
            if try_candidate(cand, &mut best, &mut witness) {
                changed = true;
            }
        }

        for ti in 0..best.threads.len() {
            for k in (0..best.threads[ti].body.len()).rev() {
                let mut cand = best.clone();
                cand.threads[ti].body.remove(k);
                if try_candidate(cand, &mut best, &mut witness) {
                    changed = true;
                }
            }
        }
        for ti in 0..best.tasks.len() {
            for k in (0..best.tasks[ti].body.len()).rev() {
                let mut cand = best.clone();
                cand.tasks[ti].body.remove(k);
                if try_candidate(cand, &mut best, &mut witness) {
                    changed = true;
                }
            }
        }

        if !changed {
            break;
        }
    }
    Some((best, witness, rounds))
}

/// Returns `spec` without task `j`: references to higher-indexed tasks are
/// remapped, actions referencing the removed task are dropped.
pub fn remove_task(spec: &ProgramSpec, j: usize) -> ProgramSpec {
    let mut out = spec.clone();
    out.tasks.remove(j);
    let remap = |body: &mut Vec<SpecAction>| {
        body.retain(|a| match a {
            SpecAction::Post { task, .. }
            | SpecAction::Enable(task)
            | SpecAction::Cancel(task)
            | SpecAction::AddIdle { task, .. } => *task != j,
            _ => true,
        });
        for a in body.iter_mut() {
            match a {
                SpecAction::Post { task, .. }
                | SpecAction::Enable(task)
                | SpecAction::Cancel(task)
                | SpecAction::AddIdle { task, .. }
                    if *task > j =>
                {
                    *task -= 1;
                }
                _ => {}
            }
        }
    };
    for t in &mut out.threads {
        remap(&mut t.body);
    }
    for t in &mut out.tasks {
        remap(&mut t.body);
    }
    out.injections.retain(|i| i.task != j);
    for i in &mut out.injections {
        if i.task > j {
            i.task -= 1;
        }
    }
    out
}

/// Returns `spec` without thread `j`: references to higher-indexed threads
/// are remapped, actions targeting the removed thread are dropped.
pub fn remove_thread(spec: &ProgramSpec, j: usize) -> ProgramSpec {
    let mut out = spec.clone();
    out.threads.remove(j);
    let remap = |body: &mut Vec<SpecAction>| {
        body.retain(|a| match a {
            SpecAction::Post { target, .. } | SpecAction::AddIdle { target, .. } => *target != j,
            SpecAction::Fork(t) | SpecAction::Join(t) => *t != j,
            _ => true,
        });
        for a in body.iter_mut() {
            match a {
                SpecAction::Post { target, .. } | SpecAction::AddIdle { target, .. }
                    if *target > j =>
                {
                    *target -= 1;
                }
                SpecAction::Fork(t) | SpecAction::Join(t) if *t > j => {
                    *t -= 1;
                }
                _ => {}
            }
        }
    };
    for t in &mut out.threads {
        remap(&mut t.body);
    }
    for t in &mut out.tasks {
        remap(&mut t.body);
    }
    out.injections.retain(|i| i.poster != j && i.target != j);
    for i in &mut out.injections {
        if i.poster > j {
            i.poster -= 1;
        }
        if i.target > j {
            i.target -= 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{SpecTask, SpecThread};
    use droidracer_core::RuleSet;
    use droidracer_trace::{PostKind, ThreadKind};

    /// A padded racy program: two unordered writes (fork without join) plus
    /// noise — extra threads, tasks and accesses the shrinker should strip.
    fn padded_racy_spec() -> ProgramSpec {
        ProgramSpec {
            threads: vec![
                SpecThread {
                    name: "main".into(),
                    initial: true,
                    queue: true,
                    kind: ThreadKind::Main,
                    body: vec![
                        SpecAction::Read(1),
                        SpecAction::Fork(2),
                        SpecAction::Write(0),
                        SpecAction::Post {
                            task: 0,
                            target: 0,
                            kind: PostKind::Plain,
                        },
                    ],
                },
                SpecThread {
                    name: "noise".into(),
                    initial: true,
                    queue: false,
                    kind: ThreadKind::App,
                    body: vec![SpecAction::Read(1), SpecAction::Read(1)],
                },
                SpecThread {
                    name: "worker".into(),
                    initial: false,
                    queue: false,
                    kind: ThreadKind::App,
                    body: vec![SpecAction::Write(0)],
                },
            ],
            tasks: vec![SpecTask {
                name: "task0".into(),
                event: None,
                needs_enable: false,
                body: vec![SpecAction::Read(1)],
            }],
            locks: 0,
            locs: 2,
            injections: Vec::new(),
            components: Vec::new(),
        }
    }

    #[test]
    fn shrink_strips_noise_while_preserving_the_divergence() {
        // Flip the FORK rule on the engine's side only: every trace with a
        // fork edge diverges from the spec.
        let mutated = HbConfig {
            rules: RuleSet {
                fork: false,
                ..RuleSet::full()
            },
            merge_accesses: true,
        };
        let spec = padded_racy_spec();
        let target: BTreeSet<DivergenceKind> =
            [DivergenceKind::ClosureMatrix, DivergenceKind::ClosureStats]
                .into_iter()
                .collect();
        let (_, kinds) = probe(&spec, 7, mutated, HbConfig::new()).expect("spec runs");
        assert!(
            kinds.iter().any(|k| target.contains(k)),
            "must fail initially: {kinds:?}"
        );

        let result = shrink(&spec, 7, mutated, HbConfig::new(), &target)
            .expect("the padded spec reproduces under the probe");
        assert!(result.kinds.iter().any(|k| target.contains(k)));
        assert!(
            result.spec.action_count() < spec.action_count(),
            "shrinker must delete something: {} vs {}",
            result.spec.action_count(),
            spec.action_count()
        );
        assert!(
            result.trace.len() <= 25,
            "shrunk trace stays small: {}",
            result.trace.len()
        );
    }

    #[test]
    fn remove_task_remaps_references() {
        let mut spec = padded_racy_spec();
        spec.tasks.push(SpecTask {
            name: "task1".into(),
            event: None,
            needs_enable: false,
            body: vec![],
        });
        spec.threads[0].body.push(SpecAction::Post {
            task: 1,
            target: 0,
            kind: PostKind::Plain,
        });
        let out = remove_task(&spec, 0);
        assert_eq!(out.tasks.len(), 1);
        // The post of old task 1 is remapped to index 0; posts of old task 0
        // are gone.
        assert!(out.threads[0]
            .body
            .iter()
            .any(|a| matches!(a, SpecAction::Post { task: 0, .. })));
        assert!(out.lower().is_ok());
    }

    #[test]
    fn remove_thread_drops_dangling_forks() {
        let spec = padded_racy_spec();
        let out = remove_thread(&spec, 2);
        assert!(!out
            .threads
            .iter()
            .any(|t| t.body.iter().any(|a| matches!(a, SpecAction::Fork(_)))));
        assert!(out.lower().is_ok());
    }
}
