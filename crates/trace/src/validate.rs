//! A checker for the operational semantics of Figure 5.
//!
//! [`validate`] replays a trace through the transition system of §3 and
//! reports the first operation whose antecedents do not hold. The simulator's
//! output is validated in tests (experiment E6 of DESIGN.md), and hand-built
//! traces can be checked for feasibility before analysis.
//!
//! The checker extends Figure 5 with the §4.2 task-management features:
//! delayed posts (a delayed task may be overtaken by non-delayed tasks and by
//! delayed tasks with smaller timeouts), cancellation, and front-of-queue
//! posts (an extension beyond the paper).

use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;

use crate::ids::{LockId, TaskId, ThreadId};
use crate::op::{Op, OpKind, PostKind};
use crate::trace::Trace;

/// Why a trace failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateErrorKind {
    /// The thread executing the op is not in the running set `R`.
    ThreadNotRunning(ThreadId),
    /// `threadinit` for a thread that was never created (not in `C`).
    ThreadNotCreated(ThreadId),
    /// `fork` of a thread id that already exists.
    ThreadNotFresh(ThreadId),
    /// `join` of a thread that has not finished (not in `F`).
    JoinBeforeExit(ThreadId),
    /// `attachQ` on a thread that already has a queue.
    QueueAlreadyAttached(ThreadId),
    /// `loopOnQ` without an attached queue, or repeated `loopOnQ`.
    LoopWithoutQueue(ThreadId),
    /// `post` targeting a thread without an attached queue.
    PostWithoutQueue(ThreadId),
    /// A task was posted twice.
    DuplicatePost(TaskId),
    /// `begin` on a thread that never executed `loopOnQ`.
    BeginWithoutLoop(ThreadId),
    /// `begin` while another task is still executing on the thread.
    ThreadNotIdle(ThreadId),
    /// `begin` of a task that is not in the thread's queue.
    TaskNotQueued(TaskId),
    /// `begin` of a task while an older task must run first (FIFO / delay
    /// ordering violated).
    QueueOrderViolated {
        /// The task that was begun.
        begun: TaskId,
        /// The queued task that should have run first.
        blocked_by: TaskId,
    },
    /// `end` of a task that is not the one currently executing.
    EndMismatch(TaskId),
    /// `acquire` of a lock held by another thread.
    LockHeldElsewhere(LockId, ThreadId),
    /// `release` of a lock the thread does not hold.
    LockNotHeld(LockId),
    /// `cancel` of a task that is not pending in any queue.
    CancelNotPending(TaskId),
    /// `enable` appearing after the task's `post`.
    EnableAfterPost(TaskId),
}

impl fmt::Display for ValidateErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ValidateErrorKind::*;
        match self {
            ThreadNotRunning(t) => write!(f, "thread {t} is not running"),
            ThreadNotCreated(t) => write!(f, "thread {t} was never created"),
            ThreadNotFresh(t) => write!(f, "forked thread {t} already exists"),
            JoinBeforeExit(t) => write!(f, "joined thread {t} has not exited"),
            QueueAlreadyAttached(t) => write!(f, "thread {t} already has a task queue"),
            LoopWithoutQueue(t) => write!(f, "thread {t} loops without an attached queue"),
            PostWithoutQueue(t) => write!(f, "post targets thread {t} which has no queue"),
            DuplicatePost(p) => write!(f, "task {p} posted more than once"),
            BeginWithoutLoop(t) => write!(f, "thread {t} begins a task before loopOnQ"),
            ThreadNotIdle(t) => write!(f, "thread {t} begins a task while another is executing"),
            TaskNotQueued(p) => write!(f, "task {p} is not pending in the queue"),
            QueueOrderViolated { begun, blocked_by } => {
                write!(
                    f,
                    "task {begun} begun before {blocked_by} in violation of queue order"
                )
            }
            EndMismatch(p) => write!(f, "end of task {p} which is not executing"),
            LockHeldElsewhere(l, t) => write!(f, "lock {l} is held by thread {t}"),
            LockNotHeld(l) => write!(f, "lock {l} is not held by the releasing thread"),
            CancelNotPending(p) => write!(f, "cancelled task {p} is not pending"),
            EnableAfterPost(p) => write!(f, "enable of task {p} appears after its post"),
        }
    }
}

/// A validation failure: the offending op, its index, and the violated rule.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidateError {
    /// Index of the offending operation in the trace.
    pub index: usize,
    /// The offending operation.
    pub op: Op,
    /// The violated antecedent.
    pub kind: ValidateErrorKind,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid trace at op {} `{}`: {}",
            self.index, self.op, self.kind
        )
    }
}

impl Error for ValidateError {}

#[derive(Debug, Clone, Copy)]
pub(crate) struct QueueEntry {
    pub(crate) task: TaskId,
    pub(crate) kind: PostKind,
}

/// Whether queue entry `earlier` (at a smaller queue position) must execute
/// before `later` under the §4.2-refined FIFO semantics.
fn must_precede(earlier: &QueueEntry, later: &QueueEntry) -> bool {
    crate::op::queue_must_precede(earlier.kind, later.kind)
}

/// The Figure 5 machine state, shared with the lenient parser's semantic
/// repair pass (`recover`), which replays ops through [`step`] to decide
/// which repairs restore consistency.
#[derive(Debug, Default)]
pub(crate) struct State {
    pub(crate) created: HashSet<ThreadId>,
    pub(crate) running: HashSet<ThreadId>,
    pub(crate) finished: HashSet<ThreadId>,
    pub(crate) looping: HashSet<ThreadId>,
    pub(crate) executing: HashMap<ThreadId, TaskId>,
    /// `Some(entries)` iff a queue is attached.
    pub(crate) queues: HashMap<ThreadId, Vec<QueueEntry>>,
    pub(crate) lock_holders: HashMap<LockId, (ThreadId, u32)>,
    pub(crate) posted: HashSet<TaskId>,
}

impl State {
    fn known(&self, t: ThreadId) -> bool {
        self.created.contains(&t) || self.running.contains(&t) || self.finished.contains(&t)
    }
}

/// Replays `trace` through the transition system of Figure 5 (extended per
/// §4.2) and returns the first violation, if any.
///
/// # Errors
///
/// Returns a [`ValidateError`] pinpointing the first operation whose
/// antecedents do not hold in the state reached by the prefix before it.
///
/// # Examples
///
/// ```
/// use droidracer_trace::{TraceBuilder, ThreadKind, validate};
///
/// let mut b = TraceBuilder::new();
/// let t = b.thread("main", ThreadKind::Main, true);
/// b.loop_on_q(t); // loops without init or queue: invalid
/// assert!(validate(&b.finish()).is_err());
/// ```
pub fn validate(trace: &Trace) -> Result<(), ValidateError> {
    let mut st = State::default();
    for (id, decl) in trace.names().threads() {
        if decl.initial {
            st.created.insert(id);
        }
    }
    for (index, op) in trace.iter() {
        step(&mut st, op).map_err(|kind| ValidateError { index, op, kind })?;
    }
    Ok(())
}

pub(crate) fn step(st: &mut State, op: Op) -> Result<(), ValidateErrorKind> {
    use ValidateErrorKind::*;
    let t = op.thread;
    // Every rule except INIT requires the executing thread to be running.
    if !matches!(op.kind, OpKind::ThreadInit) && !st.running.contains(&t) {
        return Err(ThreadNotRunning(t));
    }
    match op.kind {
        OpKind::ThreadInit => {
            if !st.created.remove(&t) {
                return Err(ThreadNotCreated(t));
            }
            st.running.insert(t);
        }
        OpKind::ThreadExit => {
            st.running.remove(&t);
            st.finished.insert(t);
        }
        OpKind::Fork { child } => {
            if st.known(child) {
                return Err(ThreadNotFresh(child));
            }
            st.created.insert(child);
        }
        OpKind::Join { child } => {
            if !st.finished.contains(&child) {
                return Err(JoinBeforeExit(child));
            }
        }
        OpKind::AttachQ => {
            if st.queues.contains_key(&t) {
                return Err(QueueAlreadyAttached(t));
            }
            st.queues.insert(t, Vec::new());
        }
        OpKind::LoopOnQ => {
            if !st.queues.contains_key(&t) || st.looping.contains(&t) {
                return Err(LoopWithoutQueue(t));
            }
            st.looping.insert(t);
        }
        OpKind::Post {
            task, target, kind, ..
        } => {
            if !st.running.contains(&target) {
                return Err(ThreadNotRunning(target));
            }
            if !st.posted.insert(task) {
                return Err(DuplicatePost(task));
            }
            let Some(queue) = st.queues.get_mut(&target) else {
                return Err(PostWithoutQueue(target));
            };
            let entry = QueueEntry { task, kind };
            if matches!(kind, PostKind::Front) {
                queue.insert(0, entry);
            } else {
                queue.push(entry);
            }
        }
        OpKind::Begin { task } => {
            if !st.looping.contains(&t) {
                return Err(BeginWithoutLoop(t));
            }
            if st.executing.contains_key(&t) {
                return Err(ThreadNotIdle(t));
            }
            // invariant: LoopOnQ only succeeds when a queue is attached, and
            // queues are never detached, so a looping thread always has one.
            let queue = st.queues.get_mut(&t).expect("looping thread has a queue");
            let Some(pos) = queue.iter().position(|e| e.task == task) else {
                return Err(TaskNotQueued(task));
            };
            let chosen = queue[pos];
            if let Some(blocker) = queue[..pos].iter().find(|e| must_precede(e, &chosen)) {
                return Err(QueueOrderViolated {
                    begun: task,
                    blocked_by: blocker.task,
                });
            }
            queue.remove(pos);
            st.executing.insert(t, task);
        }
        OpKind::End { task } => {
            if st.executing.get(&t) != Some(&task) {
                return Err(EndMismatch(task));
            }
            st.executing.remove(&t);
        }
        OpKind::Cancel { task } => {
            let mut found = false;
            for queue in st.queues.values_mut() {
                if let Some(pos) = queue.iter().position(|e| e.task == task) {
                    queue.remove(pos);
                    found = true;
                    break;
                }
            }
            if !found {
                return Err(CancelNotPending(task));
            }
        }
        OpKind::Acquire { lock } => match st.lock_holders.get_mut(&lock) {
            Some((holder, count)) => {
                if *holder != t {
                    return Err(LockHeldElsewhere(lock, *holder));
                }
                *count += 1;
            }
            None => {
                st.lock_holders.insert(lock, (t, 1));
            }
        },
        OpKind::Release { lock } => match st.lock_holders.get_mut(&lock) {
            Some((holder, count)) if *holder == t => {
                *count -= 1;
                if *count == 0 {
                    st.lock_holders.remove(&lock);
                }
            }
            _ => return Err(LockNotHeld(lock)),
        },
        OpKind::Enable { task } => {
            if st.posted.contains(&task) {
                return Err(EnableAfterPost(task));
            }
        }
        OpKind::Read { .. } | OpKind::Write { .. } => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use crate::ids::ThreadKind;

    fn looping_main(b: &mut TraceBuilder) -> ThreadId {
        let main = b.thread("main", ThreadKind::Main, true);
        b.thread_init(main);
        b.attach_q(main);
        b.loop_on_q(main);
        main
    }

    #[test]
    fn valid_fifo_trace_passes() {
        let mut b = TraceBuilder::new();
        let main = looping_main(&mut b);
        let a = b.task("A");
        let c = b.task("B");
        b.post(main, a, main);
        b.post(main, c, main);
        b.begin(main, a);
        b.end(main, a);
        b.begin(main, c);
        b.end(main, c);
        b.thread_exit(main);
        assert_eq!(validate(&b.finish()), Ok(()));
    }

    #[test]
    fn fifo_violation_is_rejected() {
        let mut b = TraceBuilder::new();
        let main = looping_main(&mut b);
        let a = b.task("A");
        let c = b.task("B");
        b.post(main, a, main);
        b.post(main, c, main);
        b.begin(main, c); // B overtakes A: invalid
        let err = validate(&b.finish()).unwrap_err();
        assert!(matches!(
            err.kind,
            ValidateErrorKind::QueueOrderViolated { .. }
        ));
    }

    #[test]
    fn delayed_post_may_be_overtaken() {
        let mut b = TraceBuilder::new();
        let main = looping_main(&mut b);
        let slow = b.task("slow");
        let fast = b.task("fast");
        b.post_delayed(main, slow, main, 1000);
        b.post(main, fast, main);
        b.begin(main, fast); // overtakes the delayed task: fine
        b.end(main, fast);
        b.begin(main, slow);
        b.end(main, slow);
        assert_eq!(validate(&b.finish()), Ok(()));
    }

    #[test]
    fn delayed_posts_order_by_timeout() {
        let mut b = TraceBuilder::new();
        let main = looping_main(&mut b);
        let short = b.task("short");
        let long = b.task("long");
        b.post_delayed(main, long, main, 1000);
        b.post_delayed(main, short, main, 10);
        b.begin(main, short); // shorter timeout fires first even if posted later
        b.end(main, short);
        b.begin(main, long);
        b.end(main, long);
        assert_eq!(validate(&b.finish()), Ok(()));

        // But a longer timeout cannot overtake a shorter, earlier one.
        let mut b = TraceBuilder::new();
        let main = looping_main(&mut b);
        let short = b.task("short");
        let long = b.task("long");
        b.post_delayed(main, short, main, 10);
        b.post_delayed(main, long, main, 1000);
        b.begin(main, long);
        assert!(validate(&b.finish()).is_err());
    }

    #[test]
    fn front_post_overtakes_fifo() {
        let mut b = TraceBuilder::new();
        let main = looping_main(&mut b);
        let a = b.task("A");
        let urgent = b.task("urgent");
        b.post(main, a, main);
        b.post_front(main, urgent, main);
        b.begin(main, urgent);
        b.end(main, urgent);
        b.begin(main, a);
        b.end(main, a);
        assert_eq!(validate(&b.finish()), Ok(()));
    }

    #[test]
    fn begin_requires_loop_and_idle() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let a = b.task("A");
        b.thread_init(main);
        b.attach_q(main);
        b.post(main, a, main);
        b.begin(main, a); // no loopOnQ yet
        let err = validate(&b.finish()).unwrap_err();
        assert!(matches!(err.kind, ValidateErrorKind::BeginWithoutLoop(_)));

        let mut b = TraceBuilder::new();
        let main = looping_main(&mut b);
        let a = b.task("A");
        let c = b.task("B");
        b.post(main, a, main);
        b.post(main, c, main);
        b.begin(main, a);
        b.begin(main, c); // A still executing
        let err = validate(&b.finish()).unwrap_err();
        assert!(matches!(err.kind, ValidateErrorKind::ThreadNotIdle(_)));
    }

    #[test]
    fn fork_join_lifecycle() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg = b.thread("bg", ThreadKind::App, false);
        b.thread_init(main);
        b.fork(main, bg);
        b.thread_init(bg);
        b.thread_exit(bg);
        b.join(main, bg);
        assert_eq!(validate(&b.finish()), Ok(()));

        // Join before exit is invalid.
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg = b.thread("bg", ThreadKind::App, false);
        b.thread_init(main);
        b.fork(main, bg);
        b.thread_init(bg);
        b.join(main, bg);
        let err = validate(&b.finish()).unwrap_err();
        assert!(matches!(err.kind, ValidateErrorKind::JoinBeforeExit(_)));
    }

    #[test]
    fn init_of_unforked_thread_is_rejected() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let ghost = b.thread("ghost", ThreadKind::App, false); // not initial, never forked
        b.thread_init(main);
        b.thread_init(ghost);
        let err = validate(&b.finish()).unwrap_err();
        assert!(matches!(err.kind, ValidateErrorKind::ThreadNotCreated(_)));
    }

    #[test]
    fn lock_discipline() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg = b.thread("bg", ThreadKind::App, false);
        let l = b.lock("m");
        b.thread_init(main);
        b.fork(main, bg);
        b.thread_init(bg);
        b.acquire(main, l);
        b.acquire(main, l); // re-entrant: ok
        b.release(main, l);
        b.release(main, l);
        b.acquire(bg, l);
        b.release(bg, l);
        assert_eq!(validate(&b.finish()), Ok(()));

        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg = b.thread("bg", ThreadKind::App, false);
        let l = b.lock("m");
        b.thread_init(main);
        b.fork(main, bg);
        b.thread_init(bg);
        b.acquire(main, l);
        b.acquire(bg, l); // held by main
        let err = validate(&b.finish()).unwrap_err();
        assert!(matches!(err.kind, ValidateErrorKind::LockHeldElsewhere(..)));
    }

    #[test]
    fn release_without_hold_is_rejected() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let l = b.lock("m");
        b.thread_init(main);
        b.release(main, l);
        let err = validate(&b.finish()).unwrap_err();
        assert!(matches!(err.kind, ValidateErrorKind::LockNotHeld(_)));
    }

    #[test]
    fn cancel_removes_pending_task() {
        let mut b = TraceBuilder::new();
        let main = looping_main(&mut b);
        let a = b.task("A");
        let c = b.task("B");
        b.post(main, a, main);
        b.post(main, c, main);
        b.cancel(main, a);
        b.begin(main, c); // fine: A was cancelled
        b.end(main, c);
        assert_eq!(validate(&b.finish()), Ok(()));
    }

    #[test]
    fn cancel_of_unposted_task_is_rejected() {
        let mut b = TraceBuilder::new();
        let main = looping_main(&mut b);
        let a = b.task("A");
        b.cancel(main, a);
        let err = validate(&b.finish()).unwrap_err();
        assert!(matches!(err.kind, ValidateErrorKind::CancelNotPending(_)));
    }

    #[test]
    fn enable_must_precede_post() {
        let mut b = TraceBuilder::new();
        let main = looping_main(&mut b);
        let a = b.task("A");
        b.post(main, a, main);
        b.enable(main, a);
        let err = validate(&b.finish()).unwrap_err();
        assert!(matches!(err.kind, ValidateErrorKind::EnableAfterPost(_)));
    }

    #[test]
    fn post_to_queueless_thread_is_rejected() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg = b.thread("bg", ThreadKind::App, false);
        let a = b.task("A");
        b.thread_init(main);
        b.fork(main, bg);
        b.thread_init(bg);
        b.post(main, a, bg);
        let err = validate(&b.finish()).unwrap_err();
        assert!(matches!(err.kind, ValidateErrorKind::PostWithoutQueue(_)));
    }

    #[test]
    fn error_display_mentions_op_and_rule() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        b.loop_on_q(main);
        let err = validate(&b.finish()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("op 0"), "got: {msg}");
        assert!(msg.contains("not running"), "got: {msg}");
    }
}
