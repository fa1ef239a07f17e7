//! The simulator: an interpreter for [`Program`]s implementing the
//! transition system of Figure 5.
//!
//! The runtime enumerates, at every step, the enabled transitions (thread
//! starts, statement steps, task dequeues, environment-event injections) and
//! lets a [`Scheduler`] pick one, emitting core-language operations into a
//! [`Trace`]. Every trace the simulator produces satisfies
//! [`droidracer_trace::validate`] — the property-based tests in this crate
//! and experiment E6 rely on that.

use std::collections::{HashMap, VecDeque};
use std::error::Error;
use std::fmt;

use droidracer_trace::{
    EventId, LockId, MemLoc, Names, Op, OpKind, PostKind, TaskId, ThreadId, Trace,
};

use crate::program::{Action, Injection, Program, ProgramError};
use crate::scheduler::{Choice, Scheduler};

/// Runtime limits for a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Maximum scheduler steps before the run is cut off.
    pub max_steps: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { max_steps: 200_000 }
    }
}

/// A completed (or cut-off) simulation.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// The emitted execution trace.
    pub trace: Trace,
    /// Whether the program ran to quiescence: every thread exited or is an
    /// idle looper with an empty queue, and all injections fired.
    pub completed: bool,
    /// Scheduler steps taken.
    pub steps: usize,
    /// The decision vector (index picked at each step); replaying it through
    /// a [`crate::ScriptedScheduler`] reproduces the trace exactly.
    pub decisions: Vec<usize>,
    /// For incomplete runs: one line per thread that is neither exited nor
    /// an idle looper with an empty queue, describing what it waits on.
    pub blocked: Vec<String>,
}

/// A runtime failure (program misuse detected during execution).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The program failed its static checks.
    InvalidProgram(ProgramError),
    /// A thread released a lock it does not hold.
    ReleaseWithoutHold {
        /// Display name of the thread.
        thread: String,
        /// Display name of the lock.
        lock: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidProgram(e) => write!(f, "invalid program: {e}"),
            SimError::ReleaseWithoutHold { thread, lock } => {
                write!(
                    f,
                    "thread `{thread}` releases lock `{lock}` it does not hold"
                )
            }
        }
    }
}

impl Error for SimError {}

impl From<ProgramError> for SimError {
    fn from(e: ProgramError) -> Self {
        SimError::InvalidProgram(e)
    }
}

/// The shared resources one scheduler transition touches (see
/// [`Runtime::footprint`]). Two transitions on different threads are
/// *independent* (they commute) iff their footprints do not conflict.
#[derive(Debug, Clone, Default)]
pub(crate) struct Footprint {
    pub reads: Vec<usize>,
    pub writes: Vec<usize>,
    pub locks: Vec<usize>,
    /// Looper queues (by thread id) touched by posts/begins/ends.
    pub queues: Vec<ThreadId>,
    /// Enable-gated task definitions touched.
    pub enables: Vec<usize>,
    /// Conflicts with everything (conservative).
    pub global: bool,
}

impl Footprint {
    /// Whether two transitions' resource sets conflict.
    pub(crate) fn conflicts(&self, other: &Footprint) -> bool {
        if self.global || other.global {
            return true;
        }
        let hit = |a: &[usize], b: &[usize]| a.iter().any(|x| b.contains(x));
        hit(&self.writes, &other.writes)
            || hit(&self.writes, &other.reads)
            || hit(&self.reads, &other.writes)
            || hit(&self.locks, &other.locks)
            || self.queues.iter().any(|q| other.queues.contains(q))
            || hit(&self.enables, &other.enables)
    }
}

/// Runs `program` under `scheduler`.
///
/// # Errors
///
/// Returns [`SimError`] if the program fails its static checks or misuses a
/// lock at runtime.
///
/// # Examples
///
/// ```
/// use droidracer_sim::{run, ProgramBuilder, RoundRobinScheduler, SimConfig, ThreadSpec, Action};
///
/// let mut p = ProgramBuilder::new();
/// let main = p.thread(ThreadSpec::app("main").initial());
/// let loc = p.loc("obj", "C.x");
/// p.set_thread_body(main, vec![Action::Write(loc), Action::Read(loc)]);
/// let result = run(&p.finish()?, &mut RoundRobinScheduler::new(), &SimConfig::default())?;
/// assert!(result.completed);
/// assert_eq!(result.trace.len(), 4); // init, write, read, exit
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run(
    program: &Program,
    scheduler: &mut dyn Scheduler,
    config: &SimConfig,
) -> Result<SimResult, SimError> {
    program.check()?;
    let mut rt = Runtime::new(program);
    let mut decisions = Vec::new();
    let mut steps = 0;
    while steps < config.max_steps {
        let choices = rt.enumerate_choices();
        if choices.is_empty() {
            break;
        }
        let pick = scheduler.choose(&choices);
        debug_assert!(pick < choices.len(), "scheduler returned invalid index");
        decisions.push(pick);
        rt.execute(choices[pick])?;
        steps += 1;
    }
    let completed = rt.quiescent();
    let blocked = if completed {
        Vec::new()
    } else {
        rt.blocked_summary()
    };
    Ok(SimResult {
        trace: Trace::from_parts(rt.names, rt.ops),
        completed,
        steps,
        decisions,
        blocked,
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Micro {
    AttachQ,
    Act(usize),
    LoopOnQ,
    Exit,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RtState {
    Created,
    Body {
        pc: usize,
    },
    LooperIdle,
    InTask {
        instance: TaskId,
        def: usize,
        pc: usize,
    },
    Exited,
}

#[derive(Debug, Clone)]
struct ThreadRt {
    def: usize,
    id: ThreadId,
    state: RtState,
}

#[derive(Debug, Clone, Copy)]
struct QueueEntry {
    instance: TaskId,
    def: usize,
    kind: PostKind,
}

#[derive(Debug, Clone)]
pub(crate) struct Runtime<'p> {
    program: &'p Program,
    names: Names,
    ops: Vec<Op>,
    threads: Vec<ThreadRt>,
    micro: Vec<Vec<Micro>>,
    queues: HashMap<ThreadId, Vec<QueueEntry>>,
    locks: HashMap<LockId, (ThreadId, u32)>,
    lock_ids: Vec<LockId>,
    locs: Vec<MemLoc>,
    event_ids: Vec<Option<EventId>>,
    enabled_pending: Vec<VecDeque<TaskId>>,
    /// Per thread def: indices into `threads` of its instances, in creation
    /// order.
    instances: Vec<Vec<usize>>,
    task_instance_count: Vec<usize>,
    /// Per thread def: pending environment-event injections.
    pending_injections: Vec<VecDeque<Injection>>,
    /// Per looper instance (ThreadId): registered one-shot idle handlers
    /// (already-enabled task instances with their defs).
    idle_handlers: HashMap<ThreadId, VecDeque<(TaskId, usize)>>,
}

impl<'p> Runtime<'p> {
    pub(crate) fn new(program: &'p Program) -> Self {
        let mut names = Names::new();
        let micro = program
            .threads
            .iter()
            .map(|def| {
                let mut m = Vec::with_capacity(def.body.len() + 2);
                if def.spec.queue {
                    m.push(Micro::AttachQ);
                }
                m.extend((0..def.body.len()).map(Micro::Act));
                m.push(if def.spec.queue {
                    Micro::LoopOnQ
                } else {
                    Micro::Exit
                });
                m
            })
            .collect();
        let lock_ids = program
            .locks
            .iter()
            .map(|name| names.fresh_lock(name.clone()))
            .collect();
        let mut objects: HashMap<&str, droidracer_trace::ObjectId> = HashMap::new();
        let locs = program
            .locs
            .iter()
            .map(|(obj, field)| {
                let object = *objects
                    .entry(obj.as_str())
                    .or_insert_with(|| names.fresh_object(obj.clone()));
                MemLoc::new(object, names.field(field))
            })
            .collect();
        let event_ids = program
            .tasks
            .iter()
            .map(|t| t.event.as_ref().map(|e| names.fresh_event(e.clone())))
            .collect();
        let mut rt = Runtime {
            program,
            names,
            ops: Vec::new(),
            threads: Vec::new(),
            micro,
            queues: HashMap::new(),
            locks: HashMap::new(),
            lock_ids,
            locs,
            event_ids,
            enabled_pending: vec![VecDeque::new(); program.tasks.len()],
            instances: vec![Vec::new(); program.threads.len()],
            task_instance_count: vec![0; program.tasks.len()],
            pending_injections: vec![VecDeque::new(); program.threads.len()],
            idle_handlers: HashMap::new(),
        };
        for inj in &program.injections {
            rt.pending_injections[inj.poster.0].push_back(*inj);
        }
        for (def_idx, def) in program.threads.iter().enumerate() {
            if def.spec.initial {
                rt.spawn_instance(def_idx, true);
            }
        }
        rt
    }

    fn spawn_instance(&mut self, def_idx: usize, initial: bool) -> usize {
        let def = &self.program.threads[def_idx];
        let count = self.instances[def_idx].len();
        let name = if count == 0 {
            def.spec.name.clone()
        } else {
            format!("{}#{}", def.spec.name, count + 1)
        };
        let id = self.names.fresh_thread(name, def.spec.kind, initial);
        let rt_idx = self.threads.len();
        self.threads.push(ThreadRt {
            def: def_idx,
            id,
            state: RtState::Created,
        });
        self.instances[def_idx].push(rt_idx);
        rt_idx
    }

    fn fresh_task_instance(&mut self, task_def: usize) -> TaskId {
        let def = &self.program.tasks[task_def];
        let count = self.task_instance_count[task_def];
        self.task_instance_count[task_def] = count + 1;
        let name = if count == 0 {
            def.name.clone()
        } else {
            format!("{}#{}", def.name, count + 1)
        };
        self.names.fresh_task(name)
    }

    fn emit(&mut self, thread: ThreadId, kind: OpKind) {
        self.ops.push(Op::new(thread, kind));
    }

    /// Latest running instance (index into `threads`) of a thread def that
    /// has attached its queue.
    fn post_target(&self, def: usize) -> Option<usize> {
        self.instances[def].iter().rev().copied().find(|&i| {
            let t = &self.threads[i];
            matches!(
                t.state,
                RtState::Body { .. } | RtState::LooperIdle | RtState::InTask { .. }
            ) && self.queues.contains_key(&t.id)
        })
    }

    fn action_enabled(&self, rt_idx: usize, action: &Action) -> bool {
        let me = self.threads[rt_idx].id;
        match *action {
            Action::Acquire(l) => {
                let lock = self.lock_ids[l.0];
                match self.locks.get(&lock) {
                    Some((holder, _)) => *holder == me,
                    None => true,
                }
            }
            Action::Post { task, target, .. } => {
                if self.program.tasks[task.0].needs_enable
                    && self.enabled_pending[task.0].is_empty()
                {
                    return false;
                }
                self.post_target(target.0).is_some()
            }
            Action::Join(t) => self.instances[t.0]
                .last()
                .is_some_and(|&i| self.threads[i].state == RtState::Exited),
            Action::AddIdle { target, .. } => self.post_target(target.0).is_some(),
            _ => true,
        }
    }

    fn injection_enabled(&self, inj: &Injection) -> bool {
        if self.program.tasks[inj.task.0].needs_enable
            && self.enabled_pending[inj.task.0].is_empty()
        {
            return false;
        }
        self.post_target(inj.target.0).is_some()
    }

    pub(crate) fn enumerate_choices(&self) -> Vec<Choice> {
        let mut choices = Vec::new();
        for (rt_idx, t) in self.threads.iter().enumerate() {
            match t.state {
                RtState::Created => choices.push(Choice::StartThread(t.id)),
                RtState::Body { pc } => match self.micro[t.def][pc] {
                    Micro::Act(a) => {
                        if self.action_enabled(rt_idx, &self.program.threads[t.def].body[a]) {
                            choices.push(Choice::Step(t.id));
                        }
                    }
                    _ => choices.push(Choice::Step(t.id)),
                },
                RtState::InTask { def, pc, .. } => {
                    let body = &self.program.tasks[def].body;
                    if pc >= body.len() || self.action_enabled(rt_idx, &body[pc]) {
                        choices.push(Choice::Step(t.id));
                    }
                }
                RtState::LooperIdle => {
                    if let Some(queue) = self.queues.get(&t.id) {
                        // Single pass: an entry is eligible iff no earlier
                        // entry must precede it. Earlier non-delayed entries
                        // block everything behind them; earlier delayed
                        // entries block delayed entries with a timeout no
                        // smaller than theirs.
                        let mut earlier_nondelayed = false;
                        let mut min_earlier_delay: Option<u64> = None;
                        for entry in queue.iter() {
                            let blocked = match entry.kind.delay() {
                                None => earlier_nondelayed,
                                Some(d) => {
                                    earlier_nondelayed || min_earlier_delay.is_some_and(|m| m <= d)
                                }
                            };
                            if !blocked {
                                choices.push(Choice::BeginTask {
                                    thread: t.id,
                                    task: entry.instance,
                                });
                            }
                            match entry.kind.delay() {
                                None => earlier_nondelayed = true,
                                Some(d) => {
                                    min_earlier_delay =
                                        Some(min_earlier_delay.map_or(d, |m| m.min(d)))
                                }
                            }
                        }
                    }
                    if let Some(inj) = self.pending_injections[t.def].front() {
                        // Injections fire from the def's latest instance.
                        if Some(rt_idx) == self.instances[t.def].last().copied()
                            && self.injection_enabled(inj)
                        {
                            choices.push(Choice::InjectEvent(t.id));
                        }
                    }
                    // Idle handlers fire only when the queue has drained.
                    if self.queues.get(&t.id).is_some_and(|q| q.is_empty())
                        && self.idle_handlers.get(&t.id).is_some_and(|h| !h.is_empty())
                    {
                        choices.push(Choice::RunIdle(t.id));
                    }
                }
                RtState::Exited => {}
            }
        }
        choices
    }

    fn rt_index(&self, id: ThreadId) -> usize {
        self.threads
            .iter()
            .position(|t| t.id == id)
            .expect("choice references a live thread")
    }

    pub(crate) fn execute(&mut self, choice: Choice) -> Result<(), SimError> {
        match choice {
            Choice::StartThread(id) => {
                let rt_idx = self.rt_index(id);
                self.emit(id, OpKind::ThreadInit);
                self.threads[rt_idx].state = RtState::Body { pc: 0 };
                self.settle_body(rt_idx);
            }
            Choice::Step(id) => {
                let rt_idx = self.rt_index(id);
                match self.threads[rt_idx].state {
                    RtState::Body { pc } => {
                        match self.micro[self.threads[rt_idx].def][pc] {
                            Micro::AttachQ => {
                                self.queues.insert(id, Vec::new());
                                self.emit(id, OpKind::AttachQ);
                            }
                            Micro::Act(a) => {
                                let action = self.program.threads[self.threads[rt_idx].def].body[a];
                                self.exec_action(rt_idx, &action)?;
                            }
                            Micro::LoopOnQ | Micro::Exit => {
                                unreachable!("settle_body consumes trailing micros")
                            }
                        }
                        self.threads[rt_idx].state = RtState::Body { pc: pc + 1 };
                        self.settle_body(rt_idx);
                    }
                    RtState::InTask { instance, def, pc } => {
                        let body_len = self.program.tasks[def].body.len();
                        if pc >= body_len {
                            self.emit(id, OpKind::End { task: instance });
                            self.threads[rt_idx].state = RtState::LooperIdle;
                        } else {
                            let action = self.program.tasks[def].body[pc];
                            self.exec_action(rt_idx, &action)?;
                            self.threads[rt_idx].state = RtState::InTask {
                                instance,
                                def,
                                pc: pc + 1,
                            };
                        }
                    }
                    _ => unreachable!("Step on a non-running thread"),
                }
            }
            Choice::BeginTask { thread, task } => {
                let rt_idx = self.rt_index(thread);
                let queue = self.queues.get_mut(&thread).expect("looper has a queue");
                let pos = queue
                    .iter()
                    .position(|e| e.instance == task)
                    .expect("task still queued");
                let entry = queue.remove(pos);
                self.emit(
                    thread,
                    OpKind::Begin {
                        task: entry.instance,
                    },
                );
                self.threads[rt_idx].state = RtState::InTask {
                    instance: entry.instance,
                    def: entry.def,
                    pc: 0,
                };
            }
            Choice::InjectEvent(thread) => {
                let rt_idx = self.rt_index(thread);
                let def = self.threads[rt_idx].def;
                let inj = self.pending_injections[def]
                    .pop_front()
                    .expect("injection pending");
                self.do_post(rt_idx, inj.task.0, inj.target.0, inj.kind);
            }
            Choice::RunIdle(thread) => {
                let (instance, task_def) = self
                    .idle_handlers
                    .get_mut(&thread)
                    .and_then(VecDeque::pop_front)
                    .expect("idle handler pending");
                // The idle looper posts the handler to itself (one-shot).
                self.emit(
                    thread,
                    OpKind::Post {
                        task: instance,
                        target: thread,
                        kind: PostKind::Plain,
                        event: self.event_ids[task_def],
                    },
                );
                self.queues
                    .get_mut(&thread)
                    .expect("looper has a queue")
                    .push(QueueEntry {
                        instance,
                        def: task_def,
                        kind: PostKind::Plain,
                    });
            }
        }
        Ok(())
    }

    /// After advancing a body pc, consume a trailing `LoopOnQ`/`Exit` micro
    /// immediately so loopers become idle and plain threads exit without
    /// needing an extra scheduler step.
    fn settle_body(&mut self, rt_idx: usize) {
        let (def, id) = (self.threads[rt_idx].def, self.threads[rt_idx].id);
        if let RtState::Body { pc } = self.threads[rt_idx].state {
            match self.micro[def].get(pc) {
                Some(Micro::LoopOnQ) => {
                    self.emit(id, OpKind::LoopOnQ);
                    self.threads[rt_idx].state = RtState::LooperIdle;
                }
                Some(Micro::Exit) => {
                    self.emit(id, OpKind::ThreadExit);
                    self.threads[rt_idx].state = RtState::Exited;
                }
                _ => {}
            }
        }
    }

    fn do_post(&mut self, rt_idx: usize, task_def: usize, target_def: usize, kind: PostKind) {
        let me = self.threads[rt_idx].id;
        let instance = if self.program.tasks[task_def].needs_enable {
            self.enabled_pending[task_def]
                .pop_front()
                .expect("post offered only when enabled instance pending")
        } else {
            self.fresh_task_instance(task_def)
        };
        let target_rt = self
            .post_target(target_def)
            .expect("post offered only when target available");
        let target_id = self.threads[target_rt].id;
        self.emit(
            me,
            OpKind::Post {
                task: instance,
                target: target_id,
                kind,
                event: self.event_ids[task_def],
            },
        );
        let queue = self
            .queues
            .get_mut(&target_id)
            .expect("post target has a queue");
        let entry = QueueEntry {
            instance,
            def: task_def,
            kind,
        };
        if matches!(kind, PostKind::Front) {
            queue.insert(0, entry);
        } else {
            queue.push(entry);
        }
    }

    fn exec_action(&mut self, rt_idx: usize, action: &Action) -> Result<(), SimError> {
        let me = self.threads[rt_idx].id;
        match *action {
            Action::Read(l) => self.emit(
                me,
                OpKind::Read {
                    loc: self.locs[l.0],
                },
            ),
            Action::Write(l) => self.emit(
                me,
                OpKind::Write {
                    loc: self.locs[l.0],
                },
            ),
            Action::Acquire(l) => {
                let lock = self.lock_ids[l.0];
                let holder = self.locks.entry(lock).or_insert((me, 0));
                debug_assert_eq!(holder.0, me, "acquire offered only when free or re-entrant");
                holder.1 += 1;
                self.emit(me, OpKind::Acquire { lock });
            }
            Action::Release(l) => {
                let lock = self.lock_ids[l.0];
                match self.locks.get_mut(&lock) {
                    Some((holder, count)) if *holder == me && *count > 0 => {
                        *count -= 1;
                        if *count == 0 {
                            self.locks.remove(&lock);
                        }
                        self.emit(me, OpKind::Release { lock });
                    }
                    _ => {
                        return Err(SimError::ReleaseWithoutHold {
                            thread: self.names.thread_name(me),
                            lock: self.names.lock_name(lock),
                        })
                    }
                }
            }
            Action::Post { task, target, kind } => {
                self.do_post(rt_idx, task.0, target.0, kind);
            }
            Action::Enable(task) => {
                let instance = self.fresh_task_instance(task.0);
                self.enabled_pending[task.0].push_back(instance);
                self.emit(me, OpKind::Enable { task: instance });
            }
            Action::AddIdle { task, target } => {
                // Registration mints and enables the instance; the looper
                // runs it when its queue drains (see Choice::RunIdle).
                if let Some(target_rt) = self.post_target(target.0) {
                    let target_id = self.threads[target_rt].id;
                    let instance = self.fresh_task_instance(task.0);
                    self.emit(me, OpKind::Enable { task: instance });
                    self.idle_handlers
                        .entry(target_id)
                        .or_default()
                        .push_back((instance, task.0));
                }
            }
            Action::Cancel(task) => {
                // Remove the oldest pending instance of the def, if any.
                // Instance ids are minted in post order, so the minimum
                // pending id *is* the oldest; selecting by id (rather than
                // by queue iteration order, which for a HashMap varies per
                // process) keeps cancellation — and therefore decision-
                // vector replay — deterministic.
                let found = self
                    .queues
                    .values()
                    .flatten()
                    .filter(|entry| entry.def == task.0)
                    .map(|entry| entry.instance)
                    .min();
                if let Some(instance) = found {
                    for queue in self.queues.values_mut() {
                        if let Some(pos) = queue.iter().position(|e| e.instance == instance) {
                            queue.remove(pos);
                            break;
                        }
                    }
                    self.emit(me, OpKind::Cancel { task: instance });
                }
            }
            Action::Fork(t) => {
                let child_rt = self.spawn_instance(t.0, false);
                let child_id = self.threads[child_rt].id;
                self.emit(me, OpKind::Fork { child: child_id });
            }
            Action::Join(t) => {
                let child_rt = *self.instances[t.0]
                    .last()
                    .expect("join offered only when forked");
                let child_id = self.threads[child_rt].id;
                self.emit(me, OpKind::Join { child: child_id });
            }
        }
        Ok(())
    }

    /// Finalizes this runtime's emitted operations into a [`Trace`].
    pub(crate) fn into_trace(self) -> Trace {
        Trace::from_parts(self.names, self.ops)
    }

    /// The shared resources the next transition of `choice` touches, used by
    /// the sleep-set reduction to decide (in)dependence of transitions.
    /// Over-approximates towards dependence (`Global` conflicts with
    /// everything), which preserves soundness of the reduction.
    pub(crate) fn footprint(&self, choice: Choice) -> Footprint {
        let mut f = Footprint::default();
        match choice {
            // Thread start interacts with post-target resolution and joins.
            Choice::StartThread(_) => f.global = true,
            Choice::BeginTask { thread, .. } | Choice::RunIdle(thread) => {
                f.queues.push(thread);
            }
            Choice::InjectEvent(thread) => {
                let rt_idx = self.rt_index(thread);
                let def = self.threads[rt_idx].def;
                if let Some(inj) = self.pending_injections[def].front() {
                    if let Some(target_rt) = self.post_target(inj.target.0) {
                        f.queues.push(self.threads[target_rt].id);
                    } else {
                        f.global = true;
                    }
                    f.enables.push(inj.task.0);
                } else {
                    f.global = true;
                }
            }
            Choice::Step(thread) => {
                let rt_idx = self.rt_index(thread);
                let action = match self.threads[rt_idx].state {
                    RtState::Body { pc } => match self.micro[self.threads[rt_idx].def][pc] {
                        Micro::AttachQ | Micro::LoopOnQ | Micro::Exit => {
                            // Queue attachment/looping gates posts to this
                            // thread; exit gates joins.
                            f.global = true;
                            return f;
                        }
                        Micro::Act(a) => {
                            Some(self.program.threads[self.threads[rt_idx].def].body[a])
                        }
                    },
                    RtState::InTask { def, pc, .. } => {
                        let body = &self.program.tasks[def].body;
                        if pc >= body.len() {
                            // End: frees the looper to dequeue.
                            f.queues.push(thread);
                            return f;
                        }
                        Some(body[pc])
                    }
                    _ => None,
                };
                match action {
                    Some(Action::Read(l)) => f.reads.push(l.0),
                    Some(Action::Write(l)) => f.writes.push(l.0),
                    Some(Action::Acquire(l)) | Some(Action::Release(l)) => f.locks.push(l.0),
                    Some(Action::Post { task, target, .. }) => {
                        if let Some(target_rt) = self.post_target(target.0) {
                            f.queues.push(self.threads[target_rt].id);
                        } else {
                            f.global = true;
                        }
                        if self.program.tasks[task.0].needs_enable {
                            f.enables.push(task.0);
                        }
                    }
                    Some(Action::Enable(t)) => f.enables.push(t.0),
                    Some(Action::AddIdle { task, target }) => {
                        f.enables.push(task.0);
                        if let Some(target_rt) = self.post_target(target.0) {
                            f.queues.push(self.threads[target_rt].id);
                        } else {
                            f.global = true;
                        }
                    }
                    // Cancellation scans every queue; fork/join manipulate
                    // the thread sets that post-target resolution reads.
                    Some(Action::Cancel(_)) | Some(Action::Fork(_)) | Some(Action::Join(_)) => {
                        f.global = true
                    }
                    None => f.global = true,
                }
            }
        }
        f
    }

    /// Human-readable description of every thread that has not reached
    /// quiescence — the debugging aid for runs that stall (e.g. a post
    /// waiting for an `enable` that never comes).
    fn blocked_summary(&self) -> Vec<String> {
        let mut out = Vec::new();
        for t in &self.threads {
            let name = self.names.thread_name(t.id);
            match t.state {
                RtState::Exited => {}
                RtState::Created => out.push(format!("{name}: created but never scheduled")),
                RtState::LooperIdle => {
                    let pending = self.queues.get(&t.id).map(|q| q.len()).unwrap_or(0);
                    if pending > 0 {
                        out.push(format!("{name}: idle looper with {pending} queued task(s)"));
                    }
                }
                RtState::Body { pc } => {
                    let what = match self.micro[t.def].get(pc) {
                        Some(Micro::Act(a)) => {
                            format!(
                                "blocked at body action {a}: {:?}",
                                self.program.threads[t.def].body[*a]
                            )
                        }
                        other => format!("at micro {other:?}"),
                    };
                    out.push(format!("{name}: {what}"));
                }
                RtState::InTask { instance, def, pc } => {
                    let task = self.names.task_name(instance);
                    let what = self.program.tasks[def]
                        .body
                        .get(pc)
                        .map(|a| format!("{a:?}"))
                        .unwrap_or_else(|| "about to end".to_owned());
                    out.push(format!("{name}: in task `{task}`, blocked at {what}"));
                }
            }
        }
        for (def_idx, pending) in self.pending_injections.iter().enumerate() {
            if !pending.is_empty() {
                out.push(format!(
                    "{}: {} pending environment injection(s)",
                    self.program.threads[def_idx].spec.name,
                    pending.len()
                ));
            }
        }
        out
    }

    pub(crate) fn quiescent(&self) -> bool {
        let threads_done = self.threads.iter().all(|t| match t.state {
            RtState::Exited => true,
            RtState::LooperIdle => self.queues.get(&t.id).map(|q| q.is_empty()).unwrap_or(true),
            _ => false,
        });
        let injections_done = self.pending_injections.iter().all(VecDeque::is_empty);
        let idle_done = self.idle_handlers.values().all(VecDeque::is_empty);
        threads_done && injections_done && idle_done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ProgramBuilder, ThreadSpec};
    use crate::scheduler::{RandomScheduler, RoundRobinScheduler, ScriptedScheduler};
    use droidracer_trace::{validate, ThreadKind};

    /// A small two-thread, one-looper program exercising most features.
    fn sample_program() -> Program {
        let mut p = ProgramBuilder::new();
        let main = p.thread(
            ThreadSpec::app("main")
                .kind(ThreadKind::Main)
                .initial()
                .with_queue(),
        );
        let bg = p.thread(ThreadSpec::app("bg"));
        let flag = p.loc("act", "Act.destroyed");
        let m = p.lock("mutex");
        let update = p.task("onUpdate", vec![Action::Read(flag)]);
        let destroy = p.task("onDestroy", vec![Action::Write(flag)]);
        p.require_enable(destroy);
        let launch = p.task(
            "LAUNCH",
            vec![
                Action::Write(flag),
                Action::Fork(bg),
                Action::Enable(destroy),
            ],
        );
        p.set_thread_body(
            main,
            vec![Action::Post {
                task: launch,
                target: main,
                kind: PostKind::Plain,
            }],
        );
        p.set_thread_body(
            bg,
            vec![
                Action::Acquire(m),
                Action::Read(flag),
                Action::Release(m),
                Action::Post {
                    task: update,
                    target: main,
                    kind: PostKind::Plain,
                },
                Action::Post {
                    task: destroy,
                    target: main,
                    kind: PostKind::Plain,
                },
            ],
        );
        p.finish().expect("valid program")
    }

    #[test]
    fn round_robin_run_completes_and_validates() {
        let result = run(
            &sample_program(),
            &mut RoundRobinScheduler::new(),
            &SimConfig::default(),
        )
        .expect("run succeeds");
        assert!(result.completed, "trace:\n{}", result.trace);
        assert_eq!(validate(&result.trace), Ok(()), "trace:\n{}", result.trace);
        // init + attach + loop + post + begin/end×3 + bodies…
        assert!(result.trace.len() > 15);
    }

    #[test]
    fn random_runs_validate_across_seeds() {
        let program = sample_program();
        for seed in 0..40 {
            let result = run(
                &program,
                &mut RandomScheduler::new(seed),
                &SimConfig::default(),
            )
            .expect("run succeeds");
            assert_eq!(
                validate(&result.trace),
                Ok(()),
                "seed {seed}, trace:\n{}",
                result.trace
            );
            assert!(result.completed, "seed {seed}");
        }
    }

    #[test]
    fn decision_replay_reproduces_trace() {
        let program = sample_program();
        let original = run(
            &program,
            &mut RandomScheduler::new(1234),
            &SimConfig::default(),
        )
        .expect("run succeeds");
        let replayed = run(
            &program,
            &mut ScriptedScheduler::new(original.decisions.clone()),
            &SimConfig::default(),
        )
        .expect("replay succeeds");
        assert_eq!(replayed.trace.ops(), original.trace.ops());
        assert_eq!(replayed.decisions, original.decisions);
    }

    #[test]
    fn max_steps_cuts_off_run() {
        let result = run(
            &sample_program(),
            &mut RoundRobinScheduler::new(),
            &SimConfig { max_steps: 5 },
        )
        .expect("run succeeds");
        assert!(!result.completed);
        assert_eq!(result.steps, 5);
        // A cut-off trace is still a feasible prefix.
        assert_eq!(validate(&result.trace), Ok(()));
    }

    #[test]
    fn injections_fire_from_idle_looper() {
        let mut p = ProgramBuilder::new();
        let main = p.thread(
            ThreadSpec::app("main")
                .kind(ThreadKind::Main)
                .initial()
                .with_queue(),
        );
        let loc = p.loc("o", "C.f");
        let click = p.event_task("onClick", "click:btn", vec![Action::Write(loc)]);
        p.inject(Injection {
            poster: main,
            task: click,
            target: main,
            kind: PostKind::Plain,
        });
        let program = p.finish().expect("valid");
        let result = run(
            &program,
            &mut RoundRobinScheduler::new(),
            &SimConfig::default(),
        )
        .expect("run succeeds");
        assert!(result.completed);
        assert_eq!(validate(&result.trace), Ok(()));
        // The injected post is executed by main itself and carries the event.
        let post = result
            .trace
            .ops()
            .iter()
            .find(|op| matches!(op.kind, OpKind::Post { .. }))
            .expect("post emitted");
        assert!(matches!(post.kind, OpKind::Post { event: Some(_), .. }));
    }

    #[test]
    fn enable_gates_posting() {
        // The injection's task needs an enable that only the first task
        // provides: the run must still complete, with enable before post.
        let mut p = ProgramBuilder::new();
        let main = p.thread(
            ThreadSpec::app("main")
                .kind(ThreadKind::Main)
                .initial()
                .with_queue(),
        );
        let loc = p.loc("o", "C.f");
        let destroy = p.task("onDestroy", vec![Action::Write(loc)]);
        p.require_enable(destroy);
        let launch = p.task("LAUNCH", vec![Action::Write(loc), Action::Enable(destroy)]);
        p.set_thread_body(
            main,
            vec![Action::Post {
                task: launch,
                target: main,
                kind: PostKind::Plain,
            }],
        );
        p.inject(Injection {
            poster: main,
            task: destroy,
            target: main,
            kind: PostKind::Plain,
        });
        let program = p.finish().expect("valid");
        for seed in 0..20 {
            let result = run(
                &program,
                &mut RandomScheduler::new(seed),
                &SimConfig::default(),
            )
            .expect("run succeeds");
            assert!(result.completed, "seed {seed}");
            assert_eq!(validate(&result.trace), Ok(()), "seed {seed}");
        }
    }

    #[test]
    fn cancel_removes_pending_task() {
        let mut p = ProgramBuilder::new();
        let main = p.thread(
            ThreadSpec::app("main")
                .kind(ThreadKind::Main)
                .initial()
                .with_queue(),
        );
        let loc = p.loc("o", "C.f");
        let victim = p.task("victim", vec![Action::Write(loc)]);
        // Post delayed so the poster can cancel before it begins: the looper
        // posts victim (delayed), then cancels it from the same body.
        p.set_thread_body(
            main,
            vec![
                Action::Post {
                    task: victim,
                    target: main,
                    kind: PostKind::Delayed(1000),
                },
                Action::Cancel(victim),
            ],
        );
        let program = p.finish().expect("valid");
        let result = run(
            &program,
            &mut RoundRobinScheduler::new(),
            &SimConfig::default(),
        )
        .expect("run succeeds");
        assert!(result.completed);
        assert_eq!(validate(&result.trace), Ok(()));
        assert!(result
            .trace
            .ops()
            .iter()
            .any(|op| matches!(op.kind, OpKind::Cancel { .. })));
        assert!(!result
            .trace
            .ops()
            .iter()
            .any(|op| matches!(op.kind, OpKind::Begin { .. })));
    }

    #[test]
    fn idle_handler_runs_after_queue_drains() {
        let mut p = ProgramBuilder::new();
        let main = p.thread(
            ThreadSpec::app("main")
                .kind(ThreadKind::Main)
                .initial()
                .with_queue(),
        );
        let loc = p.loc("o", "C.f");
        let busy = p.task("busy", vec![Action::Write(loc)]);
        let idle = p.task("onIdle", vec![Action::Read(loc)]);
        p.set_thread_body(
            main,
            vec![
                Action::AddIdle {
                    task: idle,
                    target: main,
                },
                Action::Post {
                    task: busy,
                    target: main,
                    kind: PostKind::Plain,
                },
            ],
        );
        let program = p.finish().expect("valid");
        for seed in 0..20 {
            let result = run(
                &program,
                &mut crate::scheduler::RandomScheduler::new(seed),
                &SimConfig::default(),
            )
            .expect("runs");
            assert!(result.completed, "seed {seed}:\n{}", result.trace);
            assert_eq!(validate(&result.trace), Ok(()), "seed {seed}");
            // The idle handler runs strictly after the queued task: its
            // begin comes last, and registration enabled it beforehand.
            let names = result.trace.names();
            let begins: Vec<String> = result
                .trace
                .ops()
                .iter()
                .filter_map(|op| match op.kind {
                    OpKind::Begin { task } => Some(names.task_name(task)),
                    _ => None,
                })
                .collect();
            assert_eq!(
                begins,
                vec!["busy".to_owned(), "onIdle".to_owned()],
                "seed {seed}"
            );
            let enable_pos = result
                .trace
                .ops()
                .iter()
                .position(|op| matches!(op.kind, OpKind::Enable { task } if names.task_name(task) == "onIdle"))
                .expect("registration emits enable");
            let post_pos = result
                .trace
                .ops()
                .iter()
                .position(|op| matches!(op.kind, OpKind::Post { task, .. } if names.task_name(task) == "onIdle"))
                .expect("idle handler posted");
            assert!(enable_pos < post_pos, "seed {seed}");
        }
    }

    #[test]
    fn incomplete_runs_report_blocked_threads() {
        // A post gated on an enable that never happens: the poster stalls
        // and the result says so.
        let mut p = ProgramBuilder::new();
        let main = p.thread(
            ThreadSpec::app("main")
                .kind(ThreadKind::Main)
                .initial()
                .with_queue(),
        );
        let poster = p.thread(ThreadSpec::app("poster").initial());
        let never = p.task("never", vec![]);
        p.require_enable(never);
        p.set_thread_body(
            poster,
            vec![Action::Post {
                task: never,
                target: main,
                kind: PostKind::Plain,
            }],
        );
        let program = p.finish().expect("valid");
        let result = run(
            &program,
            &mut RoundRobinScheduler::new(),
            &SimConfig::default(),
        )
        .expect("runs");
        assert!(!result.completed);
        assert!(
            result.blocked.iter().any(|b| b.contains("poster")),
            "{:?}",
            result.blocked
        );
        // Completed runs report nothing.
        let mut p = ProgramBuilder::new();
        let solo = p.thread(ThreadSpec::app("solo").initial());
        let loc = p.loc("o", "C.f");
        p.set_thread_body(solo, vec![Action::Write(loc)]);
        let result = run(
            &p.finish().expect("valid"),
            &mut RoundRobinScheduler::new(),
            &SimConfig::default(),
        )
        .expect("runs");
        assert!(result.completed);
        assert!(result.blocked.is_empty());
    }

    #[test]
    fn release_without_hold_is_reported() {
        let mut p = ProgramBuilder::new();
        let main = p.thread(ThreadSpec::app("main").initial());
        let m = p.lock("m");
        p.set_thread_body(main, vec![Action::Release(m)]);
        let program = p.finish().expect("structurally valid");
        let err = run(
            &program,
            &mut RoundRobinScheduler::new(),
            &SimConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::ReleaseWithoutHold { .. }));
    }

    #[test]
    fn contended_lock_blocks_until_released() {
        let mut p = ProgramBuilder::new();
        let a = p.thread(ThreadSpec::app("a").initial());
        let c = p.thread(ThreadSpec::app("c").initial());
        let m = p.lock("m");
        let loc = p.loc("o", "C.f");
        let body = vec![Action::Acquire(m), Action::Write(loc), Action::Release(m)];
        p.set_thread_body(a, body.clone());
        p.set_thread_body(c, body);
        let program = p.finish().expect("valid");
        for seed in 0..30 {
            let result = run(
                &program,
                &mut RandomScheduler::new(seed),
                &SimConfig::default(),
            )
            .expect("run succeeds");
            assert!(result.completed, "seed {seed}");
            assert_eq!(validate(&result.trace), Ok(()), "seed {seed}");
        }
    }

    #[test]
    fn fork_join_lifecycle_roundtrip() {
        let mut p = ProgramBuilder::new();
        let main = p.thread(ThreadSpec::app("main").initial());
        let worker = p.thread(ThreadSpec::app("worker"));
        let loc = p.loc("o", "C.f");
        p.set_thread_body(
            main,
            vec![
                Action::Write(loc),
                Action::Fork(worker),
                Action::Join(worker),
                Action::Read(loc),
            ],
        );
        p.set_thread_body(worker, vec![Action::Write(loc)]);
        let program = p.finish().expect("valid");
        for seed in 0..20 {
            let result = run(
                &program,
                &mut RandomScheduler::new(seed),
                &SimConfig::default(),
            )
            .expect("run succeeds");
            assert!(result.completed, "seed {seed}");
            assert_eq!(validate(&result.trace), Ok(()), "seed {seed}");
        }
    }

    #[test]
    fn repeated_fork_names_instances() {
        let mut p = ProgramBuilder::new();
        let main = p.thread(ThreadSpec::app("main").initial());
        let worker = p.thread(ThreadSpec::app("worker"));
        p.set_thread_body(
            main,
            vec![
                Action::Fork(worker),
                Action::Join(worker),
                Action::Fork(worker),
                Action::Join(worker),
            ],
        );
        p.set_thread_body(worker, vec![]);
        let program = p.finish().expect("valid");
        let result = run(
            &program,
            &mut RoundRobinScheduler::new(),
            &SimConfig::default(),
        )
        .expect("run succeeds");
        assert!(result.completed);
        let names: Vec<String> = result
            .trace
            .names()
            .threads()
            .map(|(_, d)| d.name.clone())
            .collect();
        assert!(names.contains(&"worker".to_owned()));
        assert!(names.contains(&"worker#2".to_owned()));
    }

    #[test]
    fn front_post_runs_first() {
        let mut p = ProgramBuilder::new();
        let main = p.thread(
            ThreadSpec::app("main")
                .kind(ThreadKind::Main)
                .initial()
                .with_queue(),
        );
        let loc = p.loc("o", "C.f");
        let slow = p.task("slow", vec![Action::Read(loc)]);
        let urgent = p.task("urgent", vec![Action::Write(loc)]);
        p.set_thread_body(
            main,
            vec![
                Action::Post {
                    task: slow,
                    target: main,
                    kind: PostKind::Plain,
                },
                Action::Post {
                    task: urgent,
                    target: main,
                    kind: PostKind::Front,
                },
            ],
        );
        let program = p.finish().expect("valid");
        let result = run(
            &program,
            &mut RoundRobinScheduler::new(),
            &SimConfig::default(),
        )
        .expect("run succeeds");
        assert_eq!(validate(&result.trace), Ok(()));
        let begins: Vec<String> = result
            .trace
            .ops()
            .iter()
            .filter_map(|op| match op.kind {
                OpKind::Begin { task } => Some(result.trace.names().task_name(task)),
                _ => None,
            })
            .collect();
        assert_eq!(begins, vec!["urgent".to_owned(), "slow".to_owned()]);
    }
}
