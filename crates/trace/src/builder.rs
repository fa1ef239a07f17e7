//! Convenience builder for hand-written traces (tests, examples, docs).

use crate::ids::{EventId, LockId, MemLoc, TaskId, ThreadId, ThreadKind};
use crate::names::Names;
use crate::op::{Op, OpKind, PostKind};
use crate::trace::Trace;
use crate::validate::{validate, ValidateError};

/// Builds a [`Trace`] operation by operation.
///
/// The builder does not enforce the operational semantics; pair it with
/// [`crate::validate`] when a test needs a *feasible* trace.
///
/// # Examples
///
/// ```
/// use droidracer_trace::{TraceBuilder, ThreadKind, validate};
///
/// let mut b = TraceBuilder::new();
/// let main = b.thread("main", ThreadKind::Main, true);
/// let task = b.task("LAUNCH_ACTIVITY");
/// b.thread_init(main);
/// b.attach_q(main);
/// b.loop_on_q(main);
/// b.post(main, task, main);
/// b.begin(main, task);
/// b.end(main, task);
/// let trace = b.finish();
/// assert!(validate(&trace).is_ok());
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceBuilder {
    names: Names,
    ops: Vec<Op>,
}

impl TraceBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a thread.
    pub fn thread(&mut self, name: impl Into<String>, kind: ThreadKind, initial: bool) -> ThreadId {
        self.names.fresh_thread(name, kind, initial)
    }

    /// Declares a task instance.
    pub fn task(&mut self, name: impl Into<String>) -> TaskId {
        self.names.fresh_task(name)
    }

    /// Declares a lock.
    pub fn lock(&mut self, name: impl Into<String>) -> LockId {
        self.names.fresh_lock(name)
    }

    /// Declares an environment event.
    pub fn event(&mut self, name: impl Into<String>) -> EventId {
        self.names.fresh_event(name)
    }

    /// Declares a memory location `object.field`, creating a fresh object.
    pub fn loc(&mut self, object: impl Into<String>, field: impl AsRef<str>) -> MemLoc {
        let object = self.names.fresh_object(object);
        let field = self.names.field(field);
        MemLoc::new(object, field)
    }

    /// Declares a field on an existing object.
    pub fn field_of(&mut self, object: crate::ids::ObjectId, field: impl AsRef<str>) -> MemLoc {
        MemLoc::new(object, self.names.field(field))
    }

    /// Appends an arbitrary operation.
    pub fn push(&mut self, op: Op) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    /// Appends `threadinit(t)`.
    pub fn thread_init(&mut self, t: ThreadId) -> usize {
        self.push(Op::new(t, OpKind::ThreadInit))
    }

    /// Appends `threadexit(t)`.
    pub fn thread_exit(&mut self, t: ThreadId) -> usize {
        self.push(Op::new(t, OpKind::ThreadExit))
    }

    /// Appends `fork(t, child)`.
    pub fn fork(&mut self, t: ThreadId, child: ThreadId) -> usize {
        self.push(Op::new(t, OpKind::Fork { child }))
    }

    /// Appends `join(t, child)`.
    pub fn join(&mut self, t: ThreadId, child: ThreadId) -> usize {
        self.push(Op::new(t, OpKind::Join { child }))
    }

    /// Appends `attachQ(t)`.
    pub fn attach_q(&mut self, t: ThreadId) -> usize {
        self.push(Op::new(t, OpKind::AttachQ))
    }

    /// Appends `loopOnQ(t)`.
    pub fn loop_on_q(&mut self, t: ThreadId) -> usize {
        self.push(Op::new(t, OpKind::LoopOnQ))
    }

    /// Appends a plain FIFO `post(t, task, target)`.
    pub fn post(&mut self, t: ThreadId, task: TaskId, target: ThreadId) -> usize {
        self.push(Op::new(
            t,
            OpKind::Post {
                task,
                target,
                kind: PostKind::Plain,
                event: None,
            },
        ))
    }

    /// Appends a post with explicit kind and event provenance.
    pub fn post_with(
        &mut self,
        t: ThreadId,
        task: TaskId,
        target: ThreadId,
        kind: PostKind,
        event: Option<EventId>,
    ) -> usize {
        self.push(Op::new(
            t,
            OpKind::Post {
                task,
                target,
                kind,
                event,
            },
        ))
    }

    /// Appends a delayed post with timeout `delay`.
    pub fn post_delayed(
        &mut self,
        t: ThreadId,
        task: TaskId,
        target: ThreadId,
        delay: u64,
    ) -> usize {
        self.post_with(t, task, target, PostKind::Delayed(delay), None)
    }

    /// Appends a front-of-queue post (extension beyond the paper).
    pub fn post_front(&mut self, t: ThreadId, task: TaskId, target: ThreadId) -> usize {
        self.post_with(t, task, target, PostKind::Front, None)
    }

    /// Appends a post tagged as the handler of environment event `event`.
    pub fn post_event(
        &mut self,
        t: ThreadId,
        task: TaskId,
        target: ThreadId,
        event: EventId,
    ) -> usize {
        self.post_with(t, task, target, PostKind::Plain, Some(event))
    }

    /// Appends `begin(t, task)`.
    pub fn begin(&mut self, t: ThreadId, task: TaskId) -> usize {
        self.push(Op::new(t, OpKind::Begin { task }))
    }

    /// Appends `end(t, task)`.
    pub fn end(&mut self, t: ThreadId, task: TaskId) -> usize {
        self.push(Op::new(t, OpKind::End { task }))
    }

    /// Appends `cancel(t, task)`.
    pub fn cancel(&mut self, t: ThreadId, task: TaskId) -> usize {
        self.push(Op::new(t, OpKind::Cancel { task }))
    }

    /// Appends `acquire(t, lock)`.
    pub fn acquire(&mut self, t: ThreadId, lock: LockId) -> usize {
        self.push(Op::new(t, OpKind::Acquire { lock }))
    }

    /// Appends `release(t, lock)`.
    pub fn release(&mut self, t: ThreadId, lock: LockId) -> usize {
        self.push(Op::new(t, OpKind::Release { lock }))
    }

    /// Appends `read(t, loc)`.
    pub fn read(&mut self, t: ThreadId, loc: MemLoc) -> usize {
        self.push(Op::new(t, OpKind::Read { loc }))
    }

    /// Appends `write(t, loc)`.
    pub fn write(&mut self, t: ThreadId, loc: MemLoc) -> usize {
        self.push(Op::new(t, OpKind::Write { loc }))
    }

    /// Appends `enable(t, task)`.
    pub fn enable(&mut self, t: ThreadId, task: TaskId) -> usize {
        self.push(Op::new(t, OpKind::Enable { task }))
    }

    /// Number of operations appended so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no operations have been appended.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Read access to the name table being built.
    pub fn names(&self) -> &Names {
        &self.names
    }

    /// Finalizes the trace.
    pub fn finish(self) -> Trace {
        Trace::from_parts(self.names, self.ops)
    }

    /// Finalizes the trace and runs the Figure 5 semantics checker on it,
    /// so callers that need a *feasible* trace — oracles, fuzz and shrink
    /// loops — cannot accidentally hand an infeasible one downstream.
    ///
    /// # Errors
    ///
    /// Returns the [`ValidateError`] describing the first semantics
    /// violation in the built trace.
    pub fn finish_validated(self) -> Result<Trace, ValidateError> {
        let trace = self.finish();
        validate(&trace)?;
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_records_ops_in_order() {
        let mut b = TraceBuilder::new();
        let t = b.thread("main", ThreadKind::Main, true);
        let loc = b.loc("obj", "C.f");
        assert_eq!(b.thread_init(t), 0);
        assert_eq!(b.write(t, loc), 1);
        assert_eq!(b.read(t, loc), 2);
        assert_eq!(b.len(), 3);
        let trace = b.finish();
        assert_eq!(trace.op(1).kind, OpKind::Write { loc });
    }

    #[test]
    fn finish_validated_accepts_feasible_traces() {
        let mut b = TraceBuilder::new();
        let t = b.thread("main", ThreadKind::Main, true);
        let task = b.task("T");
        b.thread_init(t);
        b.attach_q(t);
        b.loop_on_q(t);
        b.post(t, task, t);
        b.begin(t, task);
        b.end(t, task);
        assert!(b.finish_validated().is_ok());
    }

    #[test]
    fn finish_validated_rejects_infeasible_traces() {
        // A task begins on a thread that never attached a queue.
        let mut b = TraceBuilder::new();
        let t = b.thread("main", ThreadKind::Main, true);
        let task = b.task("T");
        b.thread_init(t);
        b.begin(t, task);
        assert!(b.finish_validated().is_err());
    }

    #[test]
    fn post_helpers_set_kind_and_event() {
        let mut b = TraceBuilder::new();
        let t = b.thread("main", ThreadKind::Main, true);
        let task = b.task("h");
        let ev = b.event("click");
        b.post_delayed(t, task, t, 100);
        b.post_front(t, task, t);
        b.post_event(t, task, t, ev);
        let trace = b.finish();
        assert!(matches!(
            trace.op(0).kind,
            OpKind::Post {
                kind: PostKind::Delayed(100),
                ..
            }
        ));
        assert!(matches!(
            trace.op(1).kind,
            OpKind::Post {
                kind: PostKind::Front,
                ..
            }
        ));
        assert!(matches!(
            trace.op(2).kind,
            OpKind::Post { event: Some(e), .. } if e == ev
        ));
    }
}
