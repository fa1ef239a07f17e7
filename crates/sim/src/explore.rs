//! Bounded exhaustive schedule exploration (stateless model checking).
//!
//! The paper's UI Explorer enumerates event sequences "in the style of
//! stateless model checking" (§7); this module applies the same idea one
//! level down, to *scheduler decisions*: re-execution-based depth-first
//! search over the tree of nondeterministic choices, yielding every
//! reachable interleaving of a program (up to the configured bounds).
//!
//! Exhaustive exploration is exponential and meant for small programs; its
//! value here is as an **oracle**: for programs without environment
//! injections and front-of-queue posts, two conflicting accesses can be
//! observed in both orders across schedules *iff* the happens-before
//! detector reports them as a race — the integration tests use this to
//! validate the detector end-to-end.

use std::collections::VecDeque;

use crate::program::Program;
use crate::runtime::{run, Footprint, Runtime, SimConfig, SimError, SimResult};
use crate::scheduler::{Choice, Scheduler};

/// Bounds for exhaustive exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreConfig {
    /// Step budget per run.
    pub max_steps: usize,
    /// Cap on the number of schedules explored.
    pub max_schedules: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_steps: 20_000,
            max_schedules: 2_000,
        }
    }
}

/// A scheduler that replays a decision prefix, then always takes the first
/// choice, recording how many alternatives existed at every step.
#[derive(Debug)]
struct RecordingScheduler {
    prefix: Vec<usize>,
    step: usize,
    /// Number of enabled choices observed at each step.
    pub fanout: Vec<usize>,
}

impl RecordingScheduler {
    fn new(prefix: Vec<usize>) -> Self {
        RecordingScheduler {
            prefix,
            step: 0,
            fanout: Vec::new(),
        }
    }
}

impl Scheduler for RecordingScheduler {
    fn choose(&mut self, choices: &[Choice]) -> usize {
        self.fanout.push(choices.len());
        let pick = self.prefix.get(self.step).copied().unwrap_or(0);
        self.step += 1;
        pick.min(choices.len() - 1)
    }
}

/// The result of an exhaustive exploration.
#[derive(Debug)]
pub struct Exploration {
    /// One result per explored schedule, in DFS order.
    pub runs: Vec<SimResult>,
    /// Whether the choice tree was fully covered within the bounds.
    pub complete: bool,
}

/// Explores every schedule of `program` depth-first, up to the bounds.
///
/// # Errors
///
/// Returns [`SimError`] if the program is invalid or misuses a lock.
pub fn explore_schedules(
    program: &Program,
    config: &ExploreConfig,
) -> Result<Exploration, SimError> {
    let sim_config = SimConfig {
        max_steps: config.max_steps,
    };
    let mut runs = Vec::new();
    // Work-list of decision prefixes still to expand. A deque used as a
    // stack gives DFS order.
    let mut pending: VecDeque<Vec<usize>> = VecDeque::new();
    pending.push_back(Vec::new());
    let mut complete = true;
    while let Some(prefix) = pending.pop_back() {
        if runs.len() >= config.max_schedules {
            complete = false;
            break;
        }
        let prefix_len = prefix.len();
        let mut scheduler = RecordingScheduler::new(prefix);
        let result = run(program, &mut scheduler, &sim_config)?;
        if !result.completed {
            complete = false;
        }
        // Enqueue the unexplored siblings of every fresh decision (those
        // past the replayed prefix, where we defaulted to choice 0). Pushing
        // shallower positions first keeps DFS order when popping from the
        // back.
        for pos in prefix_len..scheduler.fanout.len() {
            for alt in 1..scheduler.fanout[pos] {
                let mut branch = result.decisions[..pos].to_vec();
                branch.push(alt);
                pending.push_back(branch);
            }
        }
        runs.push(result);
    }
    Ok(Exploration { runs, complete })
}

/// Explores schedules with **sleep-set partial-order reduction**: redundant
/// interleavings that only permute independent (commuting) transitions are
/// pruned, while every Mazurkiewicz trace — in particular, every ordering of
/// *conflicting* operations — is still visited. Sleep sets are the classic
/// sound reduction underlying dynamic partial-order reduction.
///
/// Independence is judged by [`Runtime::footprint`]: transitions on
/// different threads commute unless they touch a common memory location
/// (with a write), lock, looper queue or enable set.
///
/// # Errors
///
/// Returns [`SimError`] if the program is invalid or misuses a lock.
pub fn explore_schedules_reduced(
    program: &Program,
    config: &ExploreConfig,
) -> Result<Exploration, SimError> {
    program.check()?;
    struct Frame<'p> {
        rt: Runtime<'p>,
        sleep: Vec<(Choice, Footprint)>,
        steps: usize,
    }
    let mut runs = Vec::new();
    let mut complete = true;
    let mut stack = vec![Frame {
        rt: Runtime::new(program),
        sleep: Vec::new(),
        steps: 0,
    }];
    while let Some(frame) = stack.pop() {
        if runs.len() >= config.max_schedules {
            complete = false;
            break;
        }
        let Frame {
            rt,
            mut sleep,
            steps,
        } = frame;
        let choices = rt.enumerate_choices();
        let fresh: Vec<Choice> = choices
            .iter()
            .copied()
            .filter(|c| !sleep.iter().any(|(s, _)| s == c))
            .collect();
        if choices.is_empty() {
            // Terminal state: record the execution.
            let completed = rt.quiescent();
            if !completed {
                complete = false;
            }
            runs.push(SimResult {
                trace: rt.into_trace(),
                completed,
                steps,
                decisions: Vec::new(),
                blocked: Vec::new(),
            });
            continue;
        }
        if fresh.is_empty() {
            // Sleep-set blocked: every continuation is redundant.
            continue;
        }
        if steps >= config.max_steps {
            complete = false;
            continue;
        }
        // Expand children in reverse so the first fresh choice is explored
        // first (DFS). Each later sibling sleeps on the earlier ones, minus
        // the dependent entries along its own first step.
        let mut frames: Vec<Frame> = Vec::with_capacity(fresh.len());
        for &c in &fresh {
            let fp = rt.footprint(c);
            let mut child = rt.clone();
            child
                .execute(c)
                .expect("exploration programs pass static checks");
            let child_sleep: Vec<(Choice, Footprint)> = sleep
                .iter()
                .filter(|(s, sfp)| s.thread() != c.thread() && !sfp.conflicts(&fp))
                .cloned()
                .collect();
            frames.push(Frame {
                rt: child,
                sleep: child_sleep,
                steps: steps + 1,
            });
            sleep.push((c, fp));
        }
        for frame in frames.into_iter().rev() {
            stack.push(frame);
        }
    }
    Ok(Exploration { runs, complete })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Action, ProgramBuilder, ThreadSpec};
    use droidracer_trace::{validate, OpKind, ThreadKind};

    /// Two threads each doing one write: 1 interleaving choice point.
    fn two_writer_program() -> Program {
        let mut p = ProgramBuilder::new();
        let a = p.thread(ThreadSpec::app("a").initial());
        let b = p.thread(ThreadSpec::app("b").initial());
        let loc = p.loc("o", "C.f");
        p.set_thread_body(a, vec![Action::Write(loc)]);
        p.set_thread_body(b, vec![Action::Write(loc)]);
        p.finish().expect("valid")
    }

    #[test]
    fn explores_all_interleavings_of_two_writers() {
        let program = two_writer_program();
        let exploration = explore_schedules(&program, &ExploreConfig::default()).expect("explores");
        assert!(exploration.complete);
        // Each thread takes 2 scheduler steps (StartThread; then one Step
        // for the write, after which the trailing exit settles in the same
        // step). Interleavings of two 2-step threads: C(4,2) = 6.
        assert_eq!(exploration.runs.len(), 6);
        // Every trace is feasible, and both write orders occur.
        let mut a_first = false;
        let mut b_first = false;
        for run in &exploration.runs {
            assert_eq!(validate(&run.trace), Ok(()));
            assert!(run.completed);
            let first_writer = run
                .trace
                .ops()
                .iter()
                .find(|op| matches!(op.kind, OpKind::Write { .. }))
                .map(|op| op.thread)
                .expect("writes happen");
            if first_writer.index() == 0 {
                a_first = true;
            } else {
                b_first = true;
            }
        }
        assert!(a_first && b_first);
    }

    #[test]
    fn traces_are_pairwise_distinct() {
        let program = two_writer_program();
        let exploration = explore_schedules(&program, &ExploreConfig::default()).expect("explores");
        for (i, a) in exploration.runs.iter().enumerate() {
            for b in &exploration.runs[i + 1..] {
                assert_ne!(a.decisions, b.decisions, "duplicate schedule explored");
            }
        }
    }

    #[test]
    fn join_restricts_the_order() {
        // Parent forks a child, joins it, then writes: the child's write
        // always precedes the parent's read in every explored schedule.
        let mut p = ProgramBuilder::new();
        let main = p.thread(ThreadSpec::app("main").initial());
        let w = p.thread(ThreadSpec::app("w"));
        let loc = p.loc("o", "C.f");
        p.set_thread_body(
            main,
            vec![Action::Fork(w), Action::Join(w), Action::Read(loc)],
        );
        p.set_thread_body(w, vec![Action::Write(loc)]);
        let program = p.finish().expect("valid");
        let exploration = explore_schedules(&program, &ExploreConfig::default()).expect("explores");
        assert!(exploration.complete);
        assert!(!exploration.runs.is_empty());
        for run in &exploration.runs {
            let write = run
                .trace
                .ops()
                .iter()
                .position(|op| matches!(op.kind, OpKind::Write { .. }))
                .expect("write");
            let read = run
                .trace
                .ops()
                .iter()
                .position(|op| matches!(op.kind, OpKind::Read { .. }))
                .expect("read");
            assert!(write < read, "join must order the accesses");
        }
    }

    #[test]
    fn reduction_prunes_independent_interleavings() {
        // Two threads writing DIFFERENT locations commute completely: the
        // reduced exploration visits a single execution, the naive one six.
        let mut p = ProgramBuilder::new();
        let a = p.thread(ThreadSpec::app("a").initial());
        let b = p.thread(ThreadSpec::app("b").initial());
        let la = p.loc("o", "C.a");
        let lb = p.loc("o", "C.b");
        p.set_thread_body(a, vec![Action::Write(la)]);
        p.set_thread_body(b, vec![Action::Write(lb)]);
        let program = p.finish().expect("valid");
        let naive = explore_schedules(&program, &ExploreConfig::default()).expect("explores");
        let reduced =
            explore_schedules_reduced(&program, &ExploreConfig::default()).expect("explores");
        assert!(reduced.complete);
        assert_eq!(naive.runs.len(), 6);
        assert!(
            reduced.runs.len() < naive.runs.len(),
            "reduction must prune ({} vs {})",
            reduced.runs.len(),
            naive.runs.len()
        );
    }

    #[test]
    fn reduction_preserves_conflicting_orders() {
        // Two threads writing the SAME location conflict: both write orders
        // must survive the reduction.
        let program = two_writer_program();
        let reduced =
            explore_schedules_reduced(&program, &ExploreConfig::default()).expect("explores");
        assert!(reduced.complete);
        let mut a_first = false;
        let mut b_first = false;
        for run in &reduced.runs {
            assert_eq!(validate(&run.trace), Ok(()));
            let first_writer = run
                .trace
                .ops()
                .iter()
                .find(|op| matches!(op.kind, OpKind::Write { .. }))
                .map(|op| op.thread)
                .expect("writes happen");
            if first_writer.index() == 0 {
                a_first = true;
            } else {
                b_first = true;
            }
        }
        assert!(a_first && b_first, "both conflict orders explored");
        let naive = explore_schedules(&program, &ExploreConfig::default()).expect("explores");
        assert!(reduced.runs.len() <= naive.runs.len());
    }

    #[test]
    fn reduction_preserves_looper_task_orders() {
        // Same shape as `looper_task_orders_are_explored`, reduced: both
        // task orders must still appear.
        let mut p = ProgramBuilder::new();
        let main = p.thread(
            ThreadSpec::app("main")
                .kind(ThreadKind::Main)
                .initial()
                .with_queue(),
        );
        let t1 = p.thread(ThreadSpec::app("p1").initial());
        let t2 = p.thread(ThreadSpec::app("p2").initial());
        let loc = p.loc("o", "C.f");
        let a = p.task("A", vec![Action::Write(loc)]);
        let b2 = p.task("B", vec![Action::Write(loc)]);
        p.set_thread_body(
            t1,
            vec![Action::Post {
                task: a,
                target: main,
                kind: droidracer_trace::PostKind::Plain,
            }],
        );
        p.set_thread_body(
            t2,
            vec![Action::Post {
                task: b2,
                target: main,
                kind: droidracer_trace::PostKind::Plain,
            }],
        );
        let program = p.finish().expect("valid");
        let reduced =
            explore_schedules_reduced(&program, &ExploreConfig::default()).expect("explores");
        assert!(reduced.complete);
        let mut orders = std::collections::BTreeSet::new();
        for run in &reduced.runs {
            let begins: Vec<String> = run
                .trace
                .ops()
                .iter()
                .filter_map(|op| match op.kind {
                    OpKind::Begin { task } => Some(run.trace.names().task_name(task)),
                    _ => None,
                })
                .collect();
            orders.insert(begins);
        }
        assert!(orders.contains(&vec!["A".to_owned(), "B".to_owned()]));
        assert!(orders.contains(&vec!["B".to_owned(), "A".to_owned()]));
    }

    #[test]
    fn schedule_cap_is_respected() {
        let program = two_writer_program();
        let exploration = explore_schedules(
            &program,
            &ExploreConfig {
                max_schedules: 5,
                ..ExploreConfig::default()
            },
        )
        .expect("explores");
        assert_eq!(exploration.runs.len(), 5);
        assert!(!exploration.complete);
    }

    #[test]
    fn looper_task_orders_are_explored() {
        // Two unordered posts to a looper from two threads: both task
        // orders must appear.
        let mut p = ProgramBuilder::new();
        let main = p.thread(
            ThreadSpec::app("main")
                .kind(ThreadKind::Main)
                .initial()
                .with_queue(),
        );
        let t1 = p.thread(ThreadSpec::app("p1").initial());
        let t2 = p.thread(ThreadSpec::app("p2").initial());
        let loc = p.loc("o", "C.f");
        let a = p.task("A", vec![Action::Write(loc)]);
        let b2 = p.task("B", vec![Action::Write(loc)]);
        p.set_thread_body(
            t1,
            vec![Action::Post {
                task: a,
                target: main,
                kind: droidracer_trace::PostKind::Plain,
            }],
        );
        p.set_thread_body(
            t2,
            vec![Action::Post {
                task: b2,
                target: main,
                kind: droidracer_trace::PostKind::Plain,
            }],
        );
        let program = p.finish().expect("valid");
        let exploration = explore_schedules(&program, &ExploreConfig::default()).expect("explores");
        assert!(exploration.complete);
        let mut orders = std::collections::BTreeSet::new();
        for run in &exploration.runs {
            let begins: Vec<String> = run
                .trace
                .ops()
                .iter()
                .filter_map(|op| match op.kind {
                    OpKind::Begin { task } => Some(run.trace.names().task_name(task)),
                    _ => None,
                })
                .collect();
            orders.insert(begins);
        }
        assert!(orders.contains(&vec!["A".to_owned(), "B".to_owned()]));
        assert!(orders.contains(&vec!["B".to_owned(), "A".to_owned()]));
    }
}
