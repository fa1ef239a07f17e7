//! Execution traces and the derived task index.

use std::collections::HashSet;
use std::fmt;

use crate::ids::{EventId, TaskId, ThreadId};
use crate::names::Names;
use crate::op::{Op, OpKind, PostKind};

/// An execution trace: a sequence of core-language operations together with
/// the name table of the entities appearing in it.
///
/// Traces are produced by the simulator (or hand-built via
/// [`crate::TraceBuilder`]) and consumed by the happens-before engine.
///
/// # Examples
///
/// ```
/// use droidracer_trace::{TraceBuilder, ThreadKind};
///
/// let mut b = TraceBuilder::new();
/// let t = b.thread("main", ThreadKind::Main, true);
/// b.thread_init(t);
/// b.thread_exit(t);
/// let trace = b.finish();
/// assert_eq!(trace.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    names: Names,
    ops: Vec<Op>,
}

impl Trace {
    /// Creates a trace from parts. Most users should go through the
    /// simulator or [`crate::TraceBuilder`] instead.
    pub fn from_parts(names: Names, ops: Vec<Op>) -> Self {
        Trace { names, ops }
    }

    /// The operations of the trace, in execution order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The operation at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn op(&self, index: usize) -> Op {
        self.ops[index]
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace contains no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The name table.
    pub fn names(&self) -> &Names {
        &self.names
    }

    /// Mutable access to the name table (used when post-processing traces).
    pub fn names_mut(&mut self) -> &mut Names {
        &mut self.names
    }

    /// Iterates over `(index, op)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Op)> + '_ {
        self.ops.iter().copied().enumerate()
    }

    /// Returns a copy of the trace with cancelled posts erased.
    ///
    /// §4.2 of the paper: "The cancellation of posted tasks is handled by
    /// removing the corresponding post operations from the trace." The
    /// `cancel` ops themselves are dropped too, as are any `enable` ops for
    /// tasks that were cancelled before running.
    pub fn without_cancelled(&self) -> Trace {
        let cancelled: HashSet<TaskId> = self
            .ops
            .iter()
            .filter_map(|op| match op.kind {
                OpKind::Cancel { task } => Some(task),
                _ => None,
            })
            .collect();
        if cancelled.is_empty() {
            return self.clone();
        }
        let ops = self
            .ops
            .iter()
            .copied()
            .filter(|op| match op.kind {
                OpKind::Post { task, .. } | OpKind::Cancel { task } | OpKind::Enable { task } => {
                    !cancelled.contains(&task)
                }
                _ => true,
            })
            .collect();
        Trace {
            names: self.names.clone(),
            ops,
        }
    }

    /// Builds the derived index of tasks, per-op task membership, and
    /// per-thread looper positions.
    pub fn index(&self) -> TraceIndex {
        TraceIndex::build(self)
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, op) in self.iter() {
            writeln!(f, "{i:>5}  {op}")?;
        }
        Ok(())
    }
}

/// Metadata about one asynchronous task instance, derived from a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TaskInfo {
    /// Index of the `post` op that scheduled this task, if present.
    pub post: Option<usize>,
    /// Index of the `enable` op for this task, if present.
    pub enable: Option<usize>,
    /// Index of the `begin` op, if the task started.
    pub begin: Option<usize>,
    /// Index of the `end` op, if the task finished.
    pub end: Option<usize>,
    /// Thread the task runs (or would run) on: the target of its post.
    pub target: Option<ThreadId>,
    /// Thread that issued the post.
    pub poster: Option<ThreadId>,
    /// FIFO / delayed / front nature of the post.
    pub post_kind: PostKind,
    /// Environment event whose handler this task is, if any.
    pub event: Option<EventId>,
}

/// Derived structural information about a trace: which task each operation
/// belongs to, where each thread's looper started, and per-task metadata.
///
/// The paper's helper functions `thread(α)` and `task(α)` (§4.1) are exactly
/// [`Op::thread`] and [`TraceIndex::task_of`].
#[derive(Debug, Clone, Default)]
pub struct TraceIndex {
    /// For each op index, the task containing it (ops on a looping thread
    /// between `begin` and `end`, inclusive). `None` for ops outside any
    /// task.
    op_task: Vec<Option<TaskId>>,
    /// Per-task metadata, indexed by `TaskId`.
    tasks: Vec<TaskInfo>,
    /// Index of each thread's `loopOnQ` op, indexed by `ThreadId`.
    loop_on_q: Vec<Option<usize>>,
    /// Index of each thread's `attachQ` op, indexed by `ThreadId`.
    attach_q: Vec<Option<usize>>,
}

impl TraceIndex {
    fn build(trace: &Trace) -> Self {
        let mut builder = IndexBuilder::with_task_capacity(trace.names().task_count());
        for (_, op) in trace.iter() {
            builder.push(op);
        }
        builder.finish()
    }

    fn ensure_task(&mut self, task: TaskId) {
        if task.index() >= self.tasks.len() {
            self.tasks.resize(task.index() + 1, TaskInfo::default());
        }
    }

    /// The paper's `task(α)`: the asynchronous task containing the op at
    /// `index`, or `None` for operations outside any task (e.g. on threads
    /// without queues, or before `loopOnQ`).
    pub fn task_of(&self, index: usize) -> Option<TaskId> {
        self.op_task.get(index).copied().flatten()
    }

    /// Metadata for `task`.
    pub fn task(&self, task: TaskId) -> &TaskInfo {
        &self.tasks[task.index()]
    }

    /// Number of tasks known to the index.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Iterates over `(TaskId, &TaskInfo)` in id order.
    pub fn tasks(&self) -> impl Iterator<Item = (TaskId, &TaskInfo)> {
        self.tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (TaskId(i as u32), t))
    }

    /// Index of `thread`'s `loopOnQ` op, if it ever started looping.
    pub fn loop_on_q(&self, thread: ThreadId) -> Option<usize> {
        self.loop_on_q.get(thread.index()).copied().flatten()
    }

    /// Index of `thread`'s `attachQ` op, if it attached a queue.
    pub fn attach_q(&self, thread: ThreadId) -> Option<usize> {
        self.attach_q.get(thread.index()).copied().flatten()
    }

    /// Whether the op at `index` on `thread` executes after the thread
    /// started processing its queue (determines NO-Q-PO vs ASYNC-PO).
    pub fn after_loop_on_q(&self, thread: ThreadId, index: usize) -> bool {
        match self.loop_on_q(thread) {
            Some(l) => index > l,
            None => false,
        }
    }

    /// The paper's `chain(α)` (§4.3): the posting chain leading to the task
    /// containing the op at `index`, returned as post-op indices ordered from
    /// oldest to most recent.
    ///
    /// `callee(β_j) = task(β_{j+1})` for consecutive entries, and the callee
    /// of the last entry is the task containing `index`.
    pub fn chain(&self, index: usize) -> Vec<usize> {
        let mut chain = Vec::new();
        let mut task = self.task_of(index);
        while let Some(t) = task {
            let info = self.task(t);
            let Some(post) = info.post else { break };
            chain.push(post);
            task = self.task_of(post);
            if chain.len() > self.tasks.len() {
                break; // defensive: malformed trace with cyclic posts
            }
        }
        chain.reverse();
        chain
    }
}

/// Incremental construction of a [`TraceIndex`]: operations are pushed in
/// trace order and the index is readable between pushes.
/// [`Trace::index`] delegates here, so a fully-pushed builder and the batch
/// build produce identical indexes; the streaming analysis keeps one builder
/// alive across chunks.
#[derive(Debug, Clone, Default)]
pub struct IndexBuilder {
    idx: TraceIndex,
    /// The task each thread is executing, indexed by `ThreadId`.
    current: Vec<Option<TaskId>>,
}

impl IndexBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        IndexBuilder::default()
    }

    /// A builder whose task table is pre-sized to `n_tasks` default entries,
    /// matching the batch build (which sizes the table from the name table
    /// before scanning; pushes still grow it past `n_tasks` on demand).
    pub fn with_task_capacity(n_tasks: usize) -> Self {
        let mut b = IndexBuilder::default();
        b.idx.tasks = vec![TaskInfo::default(); n_tasks];
        b
    }

    /// Number of operations pushed so far (the trace index the next push
    /// will be assigned).
    pub fn len(&self) -> usize {
        self.idx.op_task.len()
    }

    /// Whether no operation has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.idx.op_task.is_empty()
    }

    /// Records the next operation and returns the task it belongs to (the
    /// value [`TraceIndex::task_of`] will report for it).
    pub fn push(&mut self, op: Op) -> Option<TaskId> {
        let i = self.idx.op_task.len();
        let t = op.thread.index();
        if t >= self.current.len() {
            self.current.resize(t + 1, None);
        }
        let idx = &mut self.idx;
        let op_task = match op.kind {
            OpKind::AttachQ => {
                first_at(&mut idx.attach_q, t, i);
                None
            }
            OpKind::LoopOnQ => {
                first_at(&mut idx.loop_on_q, t, i);
                None
            }
            OpKind::Post {
                task,
                target,
                kind,
                event,
            } => {
                idx.ensure_task(task);
                let info = &mut idx.tasks[task.index()];
                info.post = Some(i);
                info.target = Some(target);
                info.poster = Some(op.thread);
                info.post_kind = kind;
                if event.is_some() {
                    info.event = event;
                }
                self.current[t]
            }
            OpKind::Enable { task } => {
                idx.ensure_task(task);
                idx.tasks[task.index()].enable = Some(i);
                self.current[t]
            }
            OpKind::Begin { task } => {
                idx.ensure_task(task);
                let info = &mut idx.tasks[task.index()];
                info.begin = Some(i);
                if info.target.is_none() {
                    info.target = Some(op.thread);
                }
                self.current[t] = Some(task);
                Some(task)
            }
            OpKind::End { task } => {
                idx.ensure_task(task);
                idx.tasks[task.index()].end = Some(i);
                self.current[t] = None;
                Some(task)
            }
            _ => self.current[t],
        };
        idx.op_task.push(op_task);
        op_task
    }

    /// The index over the operations pushed so far.
    pub fn index(&self) -> &TraceIndex {
        &self.idx
    }

    /// The task currently executing on `thread` (between a `begin` and its
    /// `end`), if any.
    pub fn current_task(&self, thread: ThreadId) -> Option<TaskId> {
        self.current.get(thread.index()).copied().flatten()
    }

    /// Consumes the builder, yielding the completed index.
    pub fn finish(self) -> TraceIndex {
        self.idx
    }
}

/// Records `i` as thread `t`'s position in a per-thread table unless an
/// earlier op already set it, growing the table to reach `t`.
fn first_at(table: &mut Vec<Option<usize>>, t: usize, i: usize) {
    if t >= table.len() {
        table.resize(t + 1, None);
    }
    table[t].get_or_insert(i);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use crate::ids::ThreadKind;

    /// Builds the small two-task trace used across index tests:
    /// main attaches a queue, loops, runs task A (which posts B), runs B.
    fn two_task_trace() -> (Trace, TaskId, TaskId, ThreadId) {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let a = b.task("A");
        let tb = b.task("B");
        b.thread_init(main);
        b.attach_q(main);
        b.loop_on_q(main);
        b.post(main, a, main);
        b.begin(main, a);
        b.post(main, tb, main);
        b.end(main, a);
        b.begin(main, tb);
        b.end(main, tb);
        (b.finish(), a, tb, main)
    }

    #[test]
    fn index_records_task_boundaries() {
        let (trace, a, tb, main) = two_task_trace();
        let idx = trace.index();
        assert_eq!(idx.task(a).begin, Some(4));
        assert_eq!(idx.task(a).end, Some(6));
        assert_eq!(idx.task(a).post, Some(3));
        assert_eq!(idx.task(tb).post, Some(5));
        assert_eq!(idx.task(tb).begin, Some(7));
        assert_eq!(idx.task(tb).target, Some(main));
    }

    #[test]
    fn ops_inside_task_are_assigned_to_it() {
        let (trace, a, tb, _) = two_task_trace();
        let idx = trace.index();
        // post of B happens inside task A
        assert_eq!(idx.task_of(5), Some(a));
        // begin/end belong to their own task
        assert_eq!(idx.task_of(4), Some(a));
        assert_eq!(idx.task_of(6), Some(a));
        assert_eq!(idx.task_of(7), Some(tb));
        // ops before looping belong to no task
        assert_eq!(idx.task_of(0), None);
        assert_eq!(idx.task_of(3), None);
    }

    #[test]
    fn loop_positions_are_recorded() {
        let (trace, _, _, main) = two_task_trace();
        let idx = trace.index();
        assert_eq!(idx.attach_q(main), Some(1));
        assert_eq!(idx.loop_on_q(main), Some(2));
        assert!(idx.after_loop_on_q(main, 3));
        assert!(!idx.after_loop_on_q(main, 2));
        assert!(!idx.after_loop_on_q(main, 0));
    }

    #[test]
    fn chain_walks_posting_ancestry() {
        let (trace, _, _, _) = two_task_trace();
        let idx = trace.index();
        // op 8 (end of B) is in task B, posted at 5 from inside task A,
        // posted at 3 from outside any task.
        assert_eq!(idx.chain(8), vec![3, 5]);
        // op 4 is in task A whose post (3) is outside any task.
        assert_eq!(idx.chain(4), vec![3]);
        // op 0 is outside any task.
        assert!(idx.chain(0).is_empty());
    }

    #[test]
    fn without_cancelled_erases_posts() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let a = b.task("A");
        b.thread_init(main);
        b.attach_q(main);
        b.loop_on_q(main);
        b.post(main, a, main);
        b.cancel(main, a);
        let trace = b.finish();
        let cleaned = trace.without_cancelled();
        assert_eq!(cleaned.len(), 3);
        assert!(cleaned
            .ops()
            .iter()
            .all(|op| !matches!(op.kind, OpKind::Post { .. } | OpKind::Cancel { .. })));
    }

    #[test]
    fn without_cancelled_erases_every_cancelled_task_and_keeps_the_rest() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let tasks: Vec<TaskId> = (0..200).map(|k| b.task(format!("t{k}"))).collect();
        let never_posted = b.task("never posted");
        b.thread_init(main);
        b.attach_q(main);
        b.loop_on_q(main);
        for &task in &tasks {
            b.enable(main, task);
            b.post(main, task, main);
        }
        // Every even task is cancelled; so is one that was never posted.
        for &task in tasks.iter().step_by(2) {
            b.cancel(main, task);
        }
        b.cancel(main, never_posted);
        for &task in tasks.iter().skip(1).step_by(2) {
            b.begin(main, task);
            b.end(main, task);
        }
        let trace = b.finish();
        let cleaned = trace.without_cancelled();
        let cancelled = |task: TaskId| task == never_posted || task.index().is_multiple_of(2);
        let expected: Vec<Op> = trace
            .ops()
            .iter()
            .copied()
            .filter(|op| match op.kind {
                OpKind::Post { task, .. } | OpKind::Enable { task } | OpKind::Cancel { task } => {
                    !cancelled(task)
                }
                _ => true,
            })
            .collect();
        assert_eq!(cleaned.ops(), expected.as_slice());
        // 3 looper ops, then 100 kept tasks with enable, post, begin, end.
        assert_eq!(cleaned.len(), 3 + 100 * 4);
        assert_eq!(cleaned.names(), trace.names());
    }

    #[test]
    fn per_thread_positions_cover_sparse_thread_ids() {
        let mut b = IndexBuilder::new();
        b.push(Op::new(ThreadId(5), OpKind::AttachQ));
        b.push(Op::new(ThreadId(5), OpKind::LoopOnQ));
        b.push(Op::new(ThreadId(5), OpKind::LoopOnQ));
        assert_eq!(
            b.push(Op::new(ThreadId(5), OpKind::Begin { task: TaskId(0) })),
            Some(TaskId(0))
        );
        assert_eq!(b.current_task(ThreadId(5)), Some(TaskId(0)));
        assert_eq!(b.current_task(ThreadId(9)), None);
        let idx = b.finish();
        assert_eq!(idx.attach_q(ThreadId(5)), Some(0));
        // The first `loopOnQ` counts.
        assert_eq!(idx.loop_on_q(ThreadId(5)), Some(1));
        for t in [0, 4, 6, 1_000] {
            assert_eq!(idx.loop_on_q(ThreadId(t)), None);
            assert_eq!(idx.attach_q(ThreadId(t)), None);
        }
    }

    #[test]
    fn without_cancelled_is_identity_when_no_cancels() {
        let (trace, _, _, _) = two_task_trace();
        assert_eq!(trace.without_cancelled(), trace);
    }
}
