//! The program model interpreted by the simulator.
//!
//! A [`Program`] is the simulator's analogue of an Android application
//! (§3: `A = (Threads, Procs, Init)`): a set of thread definitions (some
//! initial, some forked dynamically), a set of task definitions
//! (asynchronously postable procedures), and the locks, events and memory
//! locations they mention. Bodies are flat lists of [`Action`]s in the
//! paper's core language; higher-level constructs (loops, calls) are
//! unrolled by whoever builds the program — typically the framework model.

use std::error::Error;
use std::fmt;

use droidracer_trace::{PostKind, ThreadKind};

/// Reference to a thread definition in a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadRef(pub(crate) usize);

/// Reference to a task definition in a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskRef(pub(crate) usize);

/// Reference to a lock declared in a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LockRef(pub(crate) usize);

/// Reference to a memory location (object + field) declared in a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocRef(pub(crate) usize);

impl ThreadRef {
    /// Raw index (for corpus generators that compute references).
    pub fn index(self) -> usize {
        self.0
    }
}

impl TaskRef {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// One statement of a thread or task body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Read the location.
    Read(LocRef),
    /// Write the location.
    Write(LocRef),
    /// Acquire the lock (blocks while another thread holds it).
    Acquire(LockRef),
    /// Release the lock.
    Release(LockRef),
    /// Post an instance of the task to the (latest running instance of the)
    /// target thread's queue. If the task requires enabling, the post blocks
    /// until an enabled instance is pending.
    Post {
        /// The task definition to instantiate.
        task: TaskRef,
        /// The queue thread receiving the task.
        target: ThreadRef,
        /// FIFO / delayed / front-of-queue.
        kind: PostKind,
    },
    /// Enable a future posting of the task (models the runtime environment's
    /// lifecycle/event constraints).
    Enable(TaskRef),
    /// Cancel the oldest pending (posted, not begun) instance of the task;
    /// a no-op when none is pending.
    Cancel(TaskRef),
    /// Register the task as a one-shot idle handler on the target looper:
    /// when the looper's queue drains, it posts the task to itself and runs
    /// it (Android's `MessageQueue.addIdleHandler`). Emits an `enable` at
    /// registration, connecting registration to execution as §5 describes.
    AddIdle {
        /// The task to run at idle time.
        task: TaskRef,
        /// The looper whose idleness triggers it.
        target: ThreadRef,
    },
    /// Fork a fresh instance of the (non-initial) thread definition.
    Fork(ThreadRef),
    /// Join the most recently forked instance of the thread definition
    /// (blocks until it exits).
    Join(ThreadRef),
}

/// Static description of a thread.
#[derive(Debug, Clone)]
pub struct ThreadSpec {
    /// Display name (instances get `#k` suffixes).
    pub name: String,
    /// Runtime role.
    pub kind: ThreadKind,
    /// Whether the thread exists at startup (the paper's `Threads` set) or
    /// is forked dynamically.
    pub initial: bool,
    /// Whether the thread attaches a task queue and loops on it after
    /// running its body.
    pub queue: bool,
}

impl ThreadSpec {
    /// A non-initial plain application thread.
    pub fn app(name: impl Into<String>) -> Self {
        ThreadSpec {
            name: name.into(),
            kind: ThreadKind::App,
            initial: false,
            queue: false,
        }
    }

    /// Marks the thread as existing at startup.
    pub fn initial(mut self) -> Self {
        self.initial = true;
        self
    }

    /// Gives the thread a task queue (attach + loop).
    pub fn with_queue(mut self) -> Self {
        self.queue = true;
        self
    }

    /// Sets the thread kind.
    pub fn kind(mut self, kind: ThreadKind) -> Self {
        self.kind = kind;
        self
    }
}

#[derive(Debug, Clone, Default)]
pub(crate) struct ThreadDef {
    pub spec: ThreadSpecData,
    pub body: Vec<Action>,
}

#[derive(Debug, Clone, Default)]
pub(crate) struct ThreadSpecData {
    pub name: String,
    pub kind: ThreadKind,
    pub initial: bool,
    pub queue: bool,
}

#[derive(Debug, Clone, Default)]
pub(crate) struct TaskDef {
    pub name: String,
    pub body: Vec<Action>,
    /// Display name of the environment event this task handles, if any —
    /// posts of the task are tagged with it.
    pub event: Option<String>,
    /// Whether posting requires a prior `enable` of an instance.
    pub needs_enable: bool,
}

/// A pending environment-event injection: a post the `poster` looper thread
/// performs while idle, between tasks — the way DroidRacer's looper "posts
/// and later runs" a UI event handler (Figure 3, op 19). The injection list
/// is how the UI Explorer feeds an event sequence into a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    /// The idle looper performing the post.
    pub poster: ThreadRef,
    /// The handler task to post.
    pub task: TaskRef,
    /// The thread receiving the task (usually the poster itself).
    pub target: ThreadRef,
    /// FIFO / delayed / front.
    pub kind: PostKind,
}

/// A complete simulated application.
#[derive(Debug, Clone, Default)]
pub struct Program {
    pub(crate) threads: Vec<ThreadDef>,
    pub(crate) tasks: Vec<TaskDef>,
    pub(crate) locks: Vec<String>,
    pub(crate) locs: Vec<(String, String)>,
    pub(crate) injections: Vec<Injection>,
}

/// Why a [`Program`] failed its static checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// No initial thread exists; nothing could ever run.
    NoInitialThread,
    /// A `Post` targets a thread definition without a queue.
    PostToQueuelessThread {
        /// Index of the offending target definition.
        target: usize,
    },
    /// A `Fork` references an initial thread definition.
    ForkOfInitialThread {
        /// Index of the offending definition.
        thread: usize,
    },
    /// A reference is out of range.
    DanglingReference {
        /// Human-readable description of the bad reference.
        what: &'static str,
        /// The out-of-range index.
        index: usize,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::NoInitialThread => write!(f, "program has no initial thread"),
            ProgramError::PostToQueuelessThread { target } => {
                write!(
                    f,
                    "post targets thread definition {target} which has no queue"
                )
            }
            ProgramError::ForkOfInitialThread { thread } => {
                write!(f, "fork of initial thread definition {thread}")
            }
            ProgramError::DanglingReference { what, index } => {
                write!(f, "dangling {what} reference {index}")
            }
        }
    }
}

impl Error for ProgramError {}

impl Program {
    /// Number of thread definitions.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Number of task definitions.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Checks internal consistency of all references and structural rules.
    ///
    /// # Errors
    ///
    /// Returns the first [`ProgramError`] found.
    pub fn check(&self) -> Result<(), ProgramError> {
        if !self.threads.iter().any(|t| t.spec.initial) {
            return Err(ProgramError::NoInitialThread);
        }
        let bodies = self
            .threads
            .iter()
            .map(|t| &t.body)
            .chain(self.tasks.iter().map(|t| &t.body));
        for body in bodies {
            for action in body {
                self.check_action(action)?;
            }
        }
        for inj in &self.injections {
            self.check_action(&Action::Post {
                task: inj.task,
                target: inj.target,
                kind: inj.kind,
            })?;
            if inj.poster.0 >= self.threads.len() {
                return Err(ProgramError::DanglingReference {
                    what: "injection poster",
                    index: inj.poster.0,
                });
            }
            if !self.threads[inj.poster.0].spec.queue {
                return Err(ProgramError::PostToQueuelessThread {
                    target: inj.poster.0,
                });
            }
        }
        Ok(())
    }

    /// The environment-event injections in order.
    pub fn injections(&self) -> &[Injection] {
        &self.injections
    }

    fn check_action(&self, action: &Action) -> Result<(), ProgramError> {
        let thread_ok = |r: ThreadRef, what| {
            if r.0 < self.threads.len() {
                Ok(())
            } else {
                Err(ProgramError::DanglingReference { what, index: r.0 })
            }
        };
        match *action {
            Action::Read(l) | Action::Write(l) => {
                if l.0 >= self.locs.len() {
                    return Err(ProgramError::DanglingReference {
                        what: "location",
                        index: l.0,
                    });
                }
            }
            Action::Acquire(l) | Action::Release(l) => {
                if l.0 >= self.locks.len() {
                    return Err(ProgramError::DanglingReference {
                        what: "lock",
                        index: l.0,
                    });
                }
            }
            Action::Post { task, target, .. } => {
                if task.0 >= self.tasks.len() {
                    return Err(ProgramError::DanglingReference {
                        what: "task",
                        index: task.0,
                    });
                }
                thread_ok(target, "post target")?;
                if !self.threads[target.0].spec.queue {
                    return Err(ProgramError::PostToQueuelessThread { target: target.0 });
                }
            }
            Action::Enable(t) | Action::Cancel(t) => {
                if t.0 >= self.tasks.len() {
                    return Err(ProgramError::DanglingReference {
                        what: "task",
                        index: t.0,
                    });
                }
            }
            Action::AddIdle { task, target } => {
                if task.0 >= self.tasks.len() {
                    return Err(ProgramError::DanglingReference {
                        what: "task",
                        index: task.0,
                    });
                }
                thread_ok(target, "idle target")?;
                if !self.threads[target.0].spec.queue {
                    return Err(ProgramError::PostToQueuelessThread { target: target.0 });
                }
            }
            Action::Fork(t) => {
                thread_ok(t, "fork target")?;
                if self.threads[t.0].spec.initial {
                    return Err(ProgramError::ForkOfInitialThread { thread: t.0 });
                }
            }
            Action::Join(t) => thread_ok(t, "join target")?,
        }
        Ok(())
    }
}

/// Incrementally constructs a [`Program`].
///
/// # Examples
///
/// ```
/// use droidracer_sim::{Action, ProgramBuilder, ThreadSpec};
/// use droidracer_trace::ThreadKind;
///
/// let mut p = ProgramBuilder::new();
/// let main = p.thread(ThreadSpec::app("main").kind(ThreadKind::Main).initial().with_queue());
/// let flag = p.loc("obj", "C.flag");
/// let handler = p.task("onClick", vec![Action::Write(flag)]);
/// p.set_thread_body(main, vec![Action::Post {
///     task: handler,
///     target: main,
///     kind: droidracer_trace::PostKind::Plain,
/// }]);
/// let program = p.finish()?;
/// assert_eq!(program.thread_count(), 1);
/// # Ok::<(), droidracer_sim::ProgramError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProgramBuilder {
    program: Program,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a thread.
    pub fn thread(&mut self, spec: ThreadSpec) -> ThreadRef {
        let r = ThreadRef(self.program.threads.len());
        self.program.threads.push(ThreadDef {
            spec: ThreadSpecData {
                name: spec.name,
                kind: spec.kind,
                initial: spec.initial,
                queue: spec.queue,
            },
            body: Vec::new(),
        });
        r
    }

    /// Sets (replaces) the body of a thread.
    ///
    /// # Panics
    ///
    /// Panics if `thread` was not returned by this builder.
    pub fn set_thread_body(&mut self, thread: ThreadRef, body: Vec<Action>) {
        self.program.threads[thread.0].body = body;
    }

    /// Declares a task with its body.
    pub fn task(&mut self, name: impl Into<String>, body: Vec<Action>) -> TaskRef {
        let r = TaskRef(self.program.tasks.len());
        self.program.tasks.push(TaskDef {
            name: name.into(),
            body,
            event: None,
            needs_enable: false,
        });
        r
    }

    /// Declares a task that handles environment event `event` (its posts are
    /// tagged, feeding the co-enabled race category).
    pub fn event_task(
        &mut self,
        name: impl Into<String>,
        event: impl Into<String>,
        body: Vec<Action>,
    ) -> TaskRef {
        let r = self.task(name, body);
        self.program.tasks[r.0].event = Some(event.into());
        r
    }

    /// Requires an `enable` before each post of `task` (lifecycle modeling).
    pub fn require_enable(&mut self, task: TaskRef) {
        self.program.tasks[task.0].needs_enable = true;
    }

    /// Replaces the body of a task.
    pub fn set_task_body(&mut self, task: TaskRef, body: Vec<Action>) {
        self.program.tasks[task.0].body = body;
    }

    /// Declares a lock.
    pub fn lock(&mut self, name: impl Into<String>) -> LockRef {
        let r = LockRef(self.program.locks.len());
        self.program.locks.push(name.into());
        r
    }

    /// Declares a memory location `object.field`.
    pub fn loc(&mut self, object: impl Into<String>, field: impl Into<String>) -> LocRef {
        let r = LocRef(self.program.locs.len());
        self.program.locs.push((object.into(), field.into()));
        r
    }

    /// Appends an environment-event injection (see [`Injection`]).
    pub fn inject(&mut self, injection: Injection) {
        self.program.injections.push(injection);
    }

    /// Checks and returns the program.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] if any reference dangles or a structural
    /// rule is violated.
    pub fn finish(self) -> Result<Program, ProgramError> {
        self.program.check()?;
        Ok(self.program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_consistent_program() {
        let mut p = ProgramBuilder::new();
        let main = p.thread(
            ThreadSpec::app("main")
                .kind(ThreadKind::Main)
                .initial()
                .with_queue(),
        );
        let bg = p.thread(ThreadSpec::app("bg"));
        let loc = p.loc("o", "C.f");
        let lock = p.lock("m");
        let t = p.task("T", vec![Action::Read(loc)]);
        p.set_thread_body(
            main,
            vec![
                Action::Fork(bg),
                Action::Post {
                    task: t,
                    target: main,
                    kind: PostKind::Plain,
                },
            ],
        );
        p.set_thread_body(bg, vec![Action::Acquire(lock), Action::Release(lock)]);
        let program = p.finish().expect("valid program");
        assert_eq!(program.thread_count(), 2);
        assert_eq!(program.task_count(), 1);
    }

    #[test]
    fn no_initial_thread_is_rejected() {
        let mut p = ProgramBuilder::new();
        p.thread(ThreadSpec::app("bg"));
        assert_eq!(p.finish().unwrap_err(), ProgramError::NoInitialThread);
    }

    #[test]
    fn post_to_queueless_thread_is_rejected() {
        let mut p = ProgramBuilder::new();
        let main = p.thread(ThreadSpec::app("main").initial()); // no queue
        let t = p.task("T", vec![]);
        p.set_thread_body(
            main,
            vec![Action::Post {
                task: t,
                target: main,
                kind: PostKind::Plain,
            }],
        );
        assert!(matches!(
            p.finish().unwrap_err(),
            ProgramError::PostToQueuelessThread { .. }
        ));
    }

    #[test]
    fn fork_of_initial_thread_is_rejected() {
        let mut p = ProgramBuilder::new();
        let main = p.thread(ThreadSpec::app("main").initial());
        let other = p.thread(ThreadSpec::app("other").initial());
        p.set_thread_body(main, vec![Action::Fork(other)]);
        assert!(matches!(
            p.finish().unwrap_err(),
            ProgramError::ForkOfInitialThread { .. }
        ));
    }

    #[test]
    fn dangling_reference_is_rejected() {
        let mut p = ProgramBuilder::new();
        let main = p.thread(ThreadSpec::app("main").initial());
        p.set_thread_body(main, vec![Action::Read(LocRef(7))]);
        assert!(matches!(
            p.finish().unwrap_err(),
            ProgramError::DanglingReference {
                what: "location",
                ..
            }
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let e = ProgramError::PostToQueuelessThread { target: 3 };
        assert!(e.to_string().contains("no queue"));
    }
}
