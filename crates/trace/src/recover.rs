//! Semantic repair for leniently parsed traces.
//!
//! The syntax pass ([`crate::format::parse_syntax`]) drops lines it cannot
//! read; this pass replays the surviving operations through the Figure 5
//! transition system ([`crate::validate::step`]) and repairs the
//! inconsistencies a truncated or corrupted log typically exhibits:
//!
//! * a `join` of a thread whose `threadexit` was lost → synthesize the exit
//!   ([`Repair::SynthesizeClose`]);
//! * a `begin` whose antecedents cannot hold (task never posted, queue order
//!   violated, thread not idle) → drop the whole task body through its
//!   matching `end` ([`Repair::TruncateTask`]);
//! * any other infeasible operation → drop it ([`Repair::SkipOp`]);
//! * at EOF, still-executing tasks get a synthesized `end` and still-held
//!   locks get synthesized `release`s, so a truncated tail yields a closed,
//!   analyzable prefix.
//!
//! One deliberate departure from the strict checker: a `threadinit` of a
//! *declared* thread that was never forked is accepted silently (the
//! declaration is its creation witness). Real tracers miss forks performed
//! in native code, so such records are legitimate blind-spot output, not
//! corruption — the analysis pipeline accepts them too. Apart from that,
//! the result satisfies [`crate::validate::validate`]: every kept or
//! synthesized operation was accepted by the same `step` function the
//! validator uses, and re-parsing a recovered trace leniently is a fixed
//! point (zero further diagnostics).

use crate::format::{Diagnostic, LinePos, Repair};
use crate::ids::{TaskId, ThreadId};
use crate::names::Names;
use crate::op::{Op, OpKind};
use crate::trace::Trace;
use crate::validate::{step, State, ValidateErrorKind};

/// Replays `ops`, found at positions `at`, through the semantics checker,
/// repairing as it goes, and assembles the recovered trace. Repairs are
/// appended to `diags`.
pub(crate) fn repair(
    names: Names,
    ops: Vec<Op>,
    at: &[LinePos],
    diags: &mut Vec<Diagnostic>,
    eof_line: usize,
    eof_span: (usize, usize),
) -> Trace {
    let mut st = State::default();
    for (id, decl) in names.threads() {
        if decl.initial {
            st.created.insert(id);
        }
    }
    let mut kept: Vec<Op> = Vec::new();
    // Threads whose current task execution is being truncated: ops on the
    // thread are dropped (as part of the one TruncateTask diagnostic) until
    // the matching `end` goes by.
    let mut truncating: std::collections::HashMap<ThreadId, TaskId> =
        std::collections::HashMap::new();
    for (op, p) in ops.into_iter().zip(at) {
        let t = op.thread;
        if let Some(&task) = truncating.get(&t) {
            if matches!(op.kind, OpKind::End { task: e } if e == task) {
                truncating.remove(&t);
            }
            continue;
        }
        match step(&mut st, op) {
            Ok(()) => kept.push(op),
            Err(kind) => match (&kind, op.kind) {
                // A declared thread initializing without a logged fork: the
                // fork happened where the tracer cannot see (native code).
                // Accept the declaration as the creation witness — this is
                // blind-spot output, not corruption, so no diagnostic.
                (&ValidateErrorKind::ThreadNotCreated(child), OpKind::ThreadInit)
                    if child == t
                        && names.thread(t).is_some()
                        && !st.running.contains(&t)
                        && !st.finished.contains(&t) =>
                {
                    st.created.insert(t);
                    // invariant: `t` is now in `created` and in no other
                    // lifecycle set, which is all the INIT rule requires.
                    step(&mut st, op).expect("created thread can init");
                    kept.push(op);
                }
                // Dangling join: the child is still running, so its exit
                // record was lost. Synthesize it and retry the join.
                (&ValidateErrorKind::JoinBeforeExit(child), OpKind::Join { .. })
                    if st.running.contains(&child) =>
                {
                    let exit = Op::new(child, OpKind::ThreadExit);
                    // invariant: the guard checked `child` is running, which
                    // is the only antecedent of the EXIT rule.
                    step(&mut st, exit).expect("running thread can exit");
                    kept.push(exit);
                    diags.push(Diagnostic {
                        line: p.line,
                        span: p.span,
                        message: format!(
                            "join of thread {child} whose exit was never logged; \
                             synthesized threadexit"
                        ),
                        repair: Repair::SynthesizeClose,
                    });
                    match step(&mut st, op) {
                        Ok(()) => kept.push(op),
                        // invariant: the child just exited and the joining
                        // thread passed the running check above.
                        Err(k) => unreachable!("join after synthesized exit failed: {k}"),
                    }
                }
                // Infeasible task execution: drop the begin, its body, and
                // the matching end wholesale.
                (_, OpKind::Begin { task })
                    if matches!(
                        kind,
                        ValidateErrorKind::BeginWithoutLoop(_)
                            | ValidateErrorKind::ThreadNotIdle(_)
                            | ValidateErrorKind::TaskNotQueued(_)
                            | ValidateErrorKind::QueueOrderViolated { .. }
                    ) =>
                {
                    truncating.insert(t, task);
                    diags.push(Diagnostic {
                        line: p.line,
                        span: p.span,
                        message: format!("infeasible execution of task {task} ({kind}); \
                             dropped through its end"),
                        repair: Repair::TruncateTask,
                    });
                }
                // Anything else: drop the single offending op.
                _ => diags.push(Diagnostic {
                    line: p.line,
                    span: p.span,
                    message: format!("infeasible op `{}` ({kind}); dropped", op),
                    repair: Repair::SkipOp,
                }),
            },
        }
    }
    close_at_eof(&mut st, &mut kept, diags, eof_line, eof_span);
    Trace::from_parts(names, kept)
}

/// Closes what a truncated tail left open: still-executing tasks and
/// still-held locks, in deterministic (id-sorted) order.
fn close_at_eof(
    st: &mut State,
    kept: &mut Vec<Op>,
    diags: &mut Vec<Diagnostic>,
    eof_line: usize,
    eof_span: (usize, usize),
) {
    let mut executing: Vec<(ThreadId, TaskId)> = st.executing.iter().map(|(&t, &p)| (t, p)).collect();
    executing.sort_by_key(|&(t, _)| t);
    for (t, task) in executing {
        let end = Op::new(t, OpKind::End { task });
        if step(st, end).is_ok() {
            kept.push(end);
            diags.push(Diagnostic {
                line: eof_line,
                span: eof_span,
                message: format!(
                    "task {task} still executing on thread {t} at end of trace; \
                     synthesized end"
                ),
                repair: Repair::SynthesizeClose,
            });
        }
    }
    let mut held: Vec<_> = st
        .lock_holders
        .iter()
        .map(|(&l, &(t, count))| (l, t, count))
        .collect();
    held.sort_by_key(|&(l, _, _)| l);
    for (lock, holder, count) in held {
        for _ in 0..count {
            let rel = Op::new(holder, OpKind::Release { lock });
            if step(st, rel).is_err() {
                // Holder exited while holding the lock: nothing to close.
                break;
            }
            kept.push(rel);
            diags.push(Diagnostic {
                line: eof_line,
                span: eof_span,
                message: format!(
                    "lock {lock} still held by thread {holder} at end of trace; \
                     synthesized release"
                ),
                repair: Repair::SynthesizeClose,
            });
        }
    }
}
