//! The seeded, coverage-biased random program generator.
//!
//! The generator produces [`ProgramSpec`]s — a plain-data mirror of
//! [`droidracer_sim::Program`] that the shrinker can edit — and lowers them
//! through [`droidracer_sim::ProgramBuilder`], so every generated program
//! passes the simulator's static checks by construction. Generation draws
//! every random bit from one [`SmallRng`], making a whole fuzzing session a
//! pure function of its seed.
//!
//! Coverage feedback enters through [`GenBias`]: the fuzz driver raises the
//! weight of features (delayed/front posts, cancels, idle handlers, locks,
//! fork/join, enable gating) that recent traces rarely exercised, steering
//! generation toward the engine rules the static corpus leaves cold.

use droidracer_sim::{Action, Injection, Program, ProgramBuilder, ProgramError, ThreadSpec};
use droidracer_trace::{PostKind, ThreadKind};
use rand::rngs::SmallRng;
use rand::RngExt;

/// Size bounds for generated programs.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Maximum looper (queue) threads, ≥ 1 (the first is always `main`).
    pub max_loopers: usize,
    /// Maximum plain initial threads.
    pub max_initial_threads: usize,
    /// Maximum forkable (non-initial) thread definitions.
    pub max_forkable_threads: usize,
    /// Maximum task definitions, ≥ 1.
    pub max_tasks: usize,
    /// Maximum locks.
    pub max_locks: usize,
    /// Maximum memory locations, ≥ 1.
    pub max_locs: usize,
    /// Maximum actions per thread or task body.
    pub max_body_len: usize,
    /// Maximum environment-event injections.
    pub max_injections: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_loopers: 2,
            max_initial_threads: 2,
            max_forkable_threads: 2,
            max_tasks: 5,
            max_locks: 2,
            max_locs: 3,
            max_body_len: 6,
            max_injections: 2,
        }
    }
}

/// The component automaton a canned generator substructure models. Tags
/// are recorded on the emitted [`ProgramSpec`] and surface as
/// `gen.component.*` coverage features, so the driver can boost whichever
/// component path recent iterations left cold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComponentTag {
    /// A started Service: binder posts onCreate + re-delivered
    /// onStartCommands to the main queue, with a forked loader worker.
    Service,
    /// A Fragment splice: host launch forks background work that the host
    /// teardown races (detach-during-background-work).
    Fragment,
    /// An IntentService serial executor: its own FIFO queue thread,
    /// deliveries ordered among themselves but racing other threads.
    SerialExecutor,
    /// A broadcast boundary: onReceive cross-posted with no happens-before
    /// edge back to the sender's later writes.
    Broadcast,
}

impl ComponentTag {
    /// All tags, in generation-roll order.
    pub fn all() -> [ComponentTag; 4] {
        [
            ComponentTag::Service,
            ComponentTag::Fragment,
            ComponentTag::SerialExecutor,
            ComponentTag::Broadcast,
        ]
    }

    /// The `gen.component.{label}` feature suffix.
    pub fn label(self) -> &'static str {
        match self {
            ComponentTag::Service => "service",
            ComponentTag::Fragment => "fragment",
            ComponentTag::SerialExecutor => "serial_executor",
            ComponentTag::Broadcast => "broadcast",
        }
    }
}

/// Per-feature generation weights (relative, in arbitrary units). The fuzz
/// driver raises a weight when coverage shows the feature rarely fires.
#[derive(Debug, Clone, Copy)]
pub struct GenBias {
    /// Weight of plain reads/writes.
    pub access: u32,
    /// Weight of a `post` action (kind drawn separately).
    pub post: u32,
    /// Among posts: weight of `Delayed` posts.
    pub delayed_post: u32,
    /// Among posts: weight of `Front` posts.
    pub front_post: u32,
    /// Weight of an acquire…release bracket.
    pub lock: u32,
    /// Weight of a `cancel`.
    pub cancel: u32,
    /// Weight of an `addIdle` registration.
    pub idle: u32,
    /// Weight of a fork (with a possible later join).
    pub fork: u32,
    /// Probability (percent) that a task requires `enable` before posting.
    pub enable_gate_pct: u32,
    /// Probability (percent) that a task is an environment-event handler.
    pub event_task_pct: u32,
    /// Probability (percent) of appending the Service substructure.
    pub service_pct: u32,
    /// Probability (percent) of appending the Fragment substructure.
    pub fragment_pct: u32,
    /// Probability (percent) of appending the IntentService serial-executor
    /// substructure.
    pub serial_executor_pct: u32,
    /// Probability (percent) of appending the broadcast-boundary
    /// substructure.
    pub broadcast_pct: u32,
}

impl GenBias {
    /// The probability (percent) of appending `tag`'s substructure.
    pub fn component_pct(&self, tag: ComponentTag) -> u32 {
        match tag {
            ComponentTag::Service => self.service_pct,
            ComponentTag::Fragment => self.fragment_pct,
            ComponentTag::SerialExecutor => self.serial_executor_pct,
            ComponentTag::Broadcast => self.broadcast_pct,
        }
    }

    /// Sets the probability (percent) of appending `tag`'s substructure.
    pub fn set_component_pct(&mut self, tag: ComponentTag, pct: u32) {
        match tag {
            ComponentTag::Service => self.service_pct = pct,
            ComponentTag::Fragment => self.fragment_pct = pct,
            ComponentTag::SerialExecutor => self.serial_executor_pct = pct,
            ComponentTag::Broadcast => self.broadcast_pct = pct,
        }
    }
}

impl Default for GenBias {
    fn default() -> Self {
        GenBias {
            access: 10,
            post: 8,
            delayed_post: 3,
            front_post: 2,
            lock: 3,
            cancel: 2,
            idle: 2,
            fork: 3,
            enable_gate_pct: 30,
            event_task_pct: 35,
            service_pct: 12,
            fragment_pct: 12,
            serial_executor_pct: 12,
            broadcast_pct: 12,
        }
    }
}

/// One action in a [`ProgramSpec`] body, with plain-index references.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecAction {
    /// Read location `loc`.
    Read(usize),
    /// Write location `loc`.
    Write(usize),
    /// Acquire lock `lock`.
    Acquire(usize),
    /// Release lock `lock`.
    Release(usize),
    /// Post `task` to looper `target` with `kind`.
    Post {
        /// Task definition index.
        task: usize,
        /// Target thread definition index (must be a looper).
        target: usize,
        /// FIFO / delayed / front.
        kind: PostKind,
    },
    /// Enable a future posting of `task`.
    Enable(usize),
    /// Cancel the oldest pending instance of `task`.
    Cancel(usize),
    /// Register `task` as a one-shot idle handler on looper `target`.
    AddIdle {
        /// Task definition index.
        task: usize,
        /// Target looper thread definition index.
        target: usize,
    },
    /// Fork thread definition `thread` (must be non-initial).
    Fork(usize),
    /// Join the latest instance of thread definition `thread`.
    Join(usize),
}

/// A thread definition in a [`ProgramSpec`].
#[derive(Debug, Clone)]
pub struct SpecThread {
    /// Display name.
    pub name: String,
    /// Whether the thread exists at startup.
    pub initial: bool,
    /// Whether the thread loops on a task queue.
    pub queue: bool,
    /// Runtime role.
    pub kind: ThreadKind,
    /// Body actions.
    pub body: Vec<SpecAction>,
}

/// A task definition in a [`ProgramSpec`].
#[derive(Debug, Clone)]
pub struct SpecTask {
    /// Display name.
    pub name: String,
    /// Environment event handled, if any.
    pub event: Option<String>,
    /// Whether posting requires a prior `enable`.
    pub needs_enable: bool,
    /// Body actions.
    pub body: Vec<SpecAction>,
}

/// An environment-event injection in a [`ProgramSpec`].
#[derive(Debug, Clone, Copy)]
pub struct SpecInjection {
    /// Idle looper performing the post (thread definition index).
    pub poster: usize,
    /// Task definition index.
    pub task: usize,
    /// Receiving looper (thread definition index).
    pub target: usize,
    /// Post kind.
    pub kind: PostKind,
}

/// A plain-data program description the generator emits and the shrinker
/// edits. Lower it with [`ProgramSpec::lower`] to run it.
#[derive(Debug, Clone, Default)]
pub struct ProgramSpec {
    /// Thread definitions in declaration order.
    pub threads: Vec<SpecThread>,
    /// Task definitions in declaration order.
    pub tasks: Vec<SpecTask>,
    /// Number of locks.
    pub locks: usize,
    /// Number of memory locations.
    pub locs: usize,
    /// Environment-event injections in order.
    pub injections: Vec<SpecInjection>,
    /// Component substructures appended to this spec (coverage metadata —
    /// shrinking may delete the structure while the tag remains).
    pub components: Vec<ComponentTag>,
}

impl ProgramSpec {
    /// Total number of body actions across threads, tasks and injections —
    /// the size metric the shrinker minimizes.
    pub fn action_count(&self) -> usize {
        self.threads.iter().map(|t| t.body.len()).sum::<usize>()
            + self.tasks.iter().map(|t| t.body.len()).sum::<usize>()
            + self.injections.len()
    }

    /// Lowers the spec into a checked [`Program`].
    ///
    /// # Errors
    ///
    /// Returns the [`ProgramError`] if the spec violates a structural rule
    /// (the generator never produces such specs; the shrinker uses the
    /// error to discard invalid deletions).
    pub fn lower(&self) -> Result<Program, ProgramError> {
        let mut b = ProgramBuilder::new();
        let thread_refs: Vec<_> = self
            .threads
            .iter()
            .map(|t| {
                let mut spec = ThreadSpec::app(t.name.clone()).kind(t.kind);
                if t.initial {
                    spec = spec.initial();
                }
                if t.queue {
                    spec = spec.with_queue();
                }
                b.thread(spec)
            })
            .collect();
        let task_refs: Vec<_> = self
            .tasks
            .iter()
            .map(|t| match &t.event {
                Some(e) => b.event_task(t.name.clone(), e.clone(), Vec::new()),
                None => b.task(t.name.clone(), Vec::new()),
            })
            .collect();
        for (i, t) in self.tasks.iter().enumerate() {
            if t.needs_enable {
                b.require_enable(task_refs[i]);
            }
        }
        let lock_refs: Vec<_> = (0..self.locks).map(|i| b.lock(format!("m{i}"))).collect();
        let loc_refs: Vec<_> = (0..self.locs)
            .map(|i| b.loc(format!("obj{i}"), format!("C.f{i}")))
            .collect();

        let lower_body = |body: &[SpecAction]| -> Vec<Action> {
            body.iter()
                .map(|a| match *a {
                    SpecAction::Read(l) => Action::Read(loc_refs[l]),
                    SpecAction::Write(l) => Action::Write(loc_refs[l]),
                    SpecAction::Acquire(m) => Action::Acquire(lock_refs[m]),
                    SpecAction::Release(m) => Action::Release(lock_refs[m]),
                    SpecAction::Post { task, target, kind } => Action::Post {
                        task: task_refs[task],
                        target: thread_refs[target],
                        kind,
                    },
                    SpecAction::Enable(t) => Action::Enable(task_refs[t]),
                    SpecAction::Cancel(t) => Action::Cancel(task_refs[t]),
                    SpecAction::AddIdle { task, target } => Action::AddIdle {
                        task: task_refs[task],
                        target: thread_refs[target],
                    },
                    SpecAction::Fork(t) => Action::Fork(thread_refs[t]),
                    SpecAction::Join(t) => Action::Join(thread_refs[t]),
                })
                .collect()
        };
        for (i, t) in self.threads.iter().enumerate() {
            b.set_thread_body(thread_refs[i], lower_body(&t.body));
        }
        for (i, t) in self.tasks.iter().enumerate() {
            b.set_task_body(task_refs[i], lower_body(&t.body));
        }
        for inj in &self.injections {
            b.inject(Injection {
                poster: thread_refs[inj.poster],
                task: task_refs[inj.task],
                target: thread_refs[inj.target],
                kind: inj.kind,
            });
        }
        b.finish()
    }
}

/// Generates one random [`ProgramSpec`] within `config` bounds, biased by
/// `bias`, drawing all randomness from `rng`.
pub fn generate(rng: &mut SmallRng, config: &GenConfig, bias: &GenBias) -> ProgramSpec {
    let mut spec = ProgramSpec {
        locks: rng.random_range(0..config.max_locks + 1),
        locs: 1 + rng.random_range(0..config.max_locs),
        ..ProgramSpec::default()
    };

    // Threads: 1..=max loopers (all initial; the first is Main), then plain
    // initial threads (posters/workers), then forkable definitions.
    let loopers = 1 + rng.random_range(0..config.max_loopers);
    for i in 0..loopers {
        spec.threads.push(SpecThread {
            name: if i == 0 {
                "main".into()
            } else {
                format!("looper{i}")
            },
            initial: true,
            queue: true,
            kind: if i == 0 {
                ThreadKind::Main
            } else {
                ThreadKind::App
            },
            body: Vec::new(),
        });
    }
    let initials = rng.random_range(0..config.max_initial_threads + 1);
    for i in 0..initials {
        spec.threads.push(SpecThread {
            name: format!("bg{i}"),
            initial: true,
            queue: false,
            kind: if i == 0 {
                ThreadKind::Binder
            } else {
                ThreadKind::App
            },
            body: Vec::new(),
        });
    }
    let forkables = rng.random_range(0..config.max_forkable_threads + 1);
    let forkable_base = spec.threads.len();
    for i in 0..forkables {
        spec.threads.push(SpecThread {
            name: format!("worker{i}"),
            initial: false,
            queue: false,
            kind: ThreadKind::App,
            body: Vec::new(),
        });
    }

    // Tasks. Some handle environment events, some are enable-gated.
    let tasks = 1 + rng.random_range(0..config.max_tasks);
    for i in 0..tasks {
        let event = (rng.random_range(0..100) < bias.event_task_pct as usize)
            .then(|| format!("ev{}", rng.random_range(0..3)));
        spec.tasks.push(SpecTask {
            name: format!("task{i}"),
            event,
            needs_enable: rng.random_range(0..100) < bias.enable_gate_pct as usize,
            body: Vec::new(),
        });
    }

    // Bodies. Tasks may only post strictly-higher-indexed tasks so posting
    // chains are acyclic and every run terminates without the step cap.
    let n_threads = spec.threads.len();
    for i in 0..n_threads {
        if spec.threads[i].initial {
            let body = gen_body(
                rng,
                config,
                bias,
                &spec,
                BodyContext::Thread,
                forkable_base,
                forkables,
            );
            spec.threads[i].body = body;
        }
    }
    for i in (0..spec.tasks.len()).rev() {
        let body = gen_body(
            rng,
            config,
            bias,
            &spec,
            BodyContext::Task { def: i },
            forkable_base,
            forkables,
        );
        spec.tasks[i].body = body;
    }

    // Environment-event injections from idle loopers.
    let injections = rng.random_range(0..config.max_injections + 1);
    for _ in 0..injections {
        let poster = rng.random_range(0..loopers);
        let task = rng.random_range(0..spec.tasks.len());
        ensure_enabled_post(&mut spec, task, poster);
        spec.injections.push(SpecInjection {
            poster,
            task,
            target: rng.random_range(0..loopers),
            kind: pick_post_kind(rng, bias),
        });
    }

    // Component substructures, appended strictly after every draw above so
    // older seeds reproduce their pre-component RNG prefix unchanged. Each
    // substructure only appends new threads/tasks/locations (no index in
    // the generated part shifts) and posts only from thread bodies, so the
    // acyclic task-posting discipline is preserved.
    for tag in ComponentTag::all() {
        if rng.random_range(0..100) < bias.component_pct(tag) as usize {
            append_component(&mut spec, tag);
        }
    }

    spec
}

/// Appends the canned substructure modeling `tag` to `spec`.
///
/// The shapes mirror the framework's component automata at the simulator
/// level, exercising the engine paths the plain generator reaches rarely:
///
/// * [`ComponentTag::Service`] — a binder-like system thread posts
///   `onCreate` and two re-delivered `onStartCommand`s to the main queue
///   (FIFO-ordered among themselves), while a forked loader worker races
///   the command handlers.
/// * [`ComponentTag::Fragment`] — a host launch task forks background view
///   work that the host teardown task reads: the
///   detach-during-background-work window.
/// * [`ComponentTag::SerialExecutor`] — a dedicated FIFO queue thread
///   receives two deliveries from one dispatcher (ordered by the FIFO
///   rule: the serial-executor ordering constraint), while their shared
///   status field races the main thread.
/// * [`ComponentTag::Broadcast`] — a sender posts `onReceive` cross-thread
///   and keeps writing afterwards with no happens-before edge back.
fn append_component(spec: &mut ProgramSpec, tag: ComponentTag) {
    let n = spec.components.iter().filter(|t| **t == tag).count();
    let fresh_loc = |spec: &mut ProgramSpec| {
        spec.locs += 1;
        spec.locs - 1
    };
    let thread = |spec: &mut ProgramSpec, name: String, initial: bool, queue: bool, kind, body| {
        spec.threads.push(SpecThread {
            name,
            initial,
            queue,
            kind,
            body,
        });
        spec.threads.len() - 1
    };
    let task = |spec: &mut ProgramSpec, name: String, body| {
        spec.tasks.push(SpecTask {
            name,
            event: None,
            needs_enable: false,
            body,
        });
        spec.tasks.len() - 1
    };
    let post = |t: usize, target: usize| SpecAction::Post {
        task: t,
        target,
        kind: PostKind::Plain,
    };
    const MAIN: usize = 0;

    match tag {
        ComponentTag::Service => {
            let loc = fresh_loc(spec);
            let worker = thread(
                spec,
                format!("svcWorker{n}"),
                false,
                false,
                ThreadKind::App,
                vec![SpecAction::Write(loc)],
            );
            let create = task(
                spec,
                format!("svcCreate{n}"),
                vec![SpecAction::Fork(worker), SpecAction::Write(loc)],
            );
            let start = task(spec, format!("svcStart{n}"), vec![SpecAction::Read(loc)]);
            let destroy = task(spec, format!("svcDestroy{n}"), vec![SpecAction::Read(loc)]);
            thread(
                spec,
                format!("sysServer{n}"),
                true,
                false,
                ThreadKind::Binder,
                vec![
                    post(create, MAIN),
                    post(start, MAIN),
                    post(start, MAIN),
                    post(destroy, MAIN),
                ],
            );
        }
        ComponentTag::Fragment => {
            let loc = fresh_loc(spec);
            let worker = thread(
                spec,
                format!("fragWorker{n}"),
                false,
                false,
                ThreadKind::App,
                vec![SpecAction::Write(loc)],
            );
            let attach = task(
                spec,
                format!("hostAttach{n}"),
                vec![SpecAction::Write(loc), SpecAction::Fork(worker)],
            );
            let detach = task(spec, format!("hostDetach{n}"), vec![SpecAction::Read(loc)]);
            thread(
                spec,
                format!("hostBinder{n}"),
                true,
                false,
                ThreadKind::App,
                vec![post(attach, MAIN), post(detach, MAIN)],
            );
        }
        ComponentTag::SerialExecutor => {
            let handoff = fresh_loc(spec);
            let status = fresh_loc(spec);
            let queue = thread(
                spec,
                format!("serialq{n}"),
                true,
                true,
                ThreadKind::App,
                Vec::new(),
            );
            let first = task(
                spec,
                format!("handleIntentA{n}"),
                vec![SpecAction::Write(handoff), SpecAction::Write(status)],
            );
            let second = task(
                spec,
                format!("handleIntentB{n}"),
                vec![SpecAction::Write(handoff), SpecAction::Read(status)],
            );
            thread(
                spec,
                format!("dispatcher{n}"),
                true,
                false,
                ThreadKind::App,
                vec![post(first, queue), post(second, queue)],
            );
            // The status field also races the main thread's own body.
            spec.threads[MAIN].body.push(SpecAction::Read(status));
        }
        ComponentTag::Broadcast => {
            let loc = fresh_loc(spec);
            let receive = task(spec, format!("onReceive{n}"), vec![SpecAction::Write(loc)]);
            thread(
                spec,
                format!("sender{n}"),
                true,
                false,
                ThreadKind::App,
                vec![post(receive, MAIN), SpecAction::Write(loc)],
            );
        }
    }
    spec.components.push(tag);
}

#[derive(Clone, Copy)]
enum BodyContext {
    Thread,
    Task { def: usize },
}

fn pick_post_kind(rng: &mut SmallRng, bias: &GenBias) -> PostKind {
    let plain = 10u32;
    let total = plain + bias.delayed_post + bias.front_post;
    let roll = rng.random_range(0..total as usize) as u32;
    if roll < plain {
        PostKind::Plain
    } else if roll < plain + bias.delayed_post {
        PostKind::Delayed(*[10u64, 100, 1000].get(rng.random_range(0..3)).unwrap())
    } else {
        PostKind::Front
    }
}

/// If `task` is enable-gated, prepend an `Enable` to an initial thread body
/// so a post of it can eventually fire (runs may still interleave the
/// enable arbitrarily late — that exercises the ENABLE rules).
fn ensure_enabled_post(spec: &mut ProgramSpec, task: usize, fallback_thread: usize) {
    if spec.tasks[task].needs_enable {
        spec.threads[fallback_thread]
            .body
            .insert(0, SpecAction::Enable(task));
    }
}

fn gen_body(
    rng: &mut SmallRng,
    config: &GenConfig,
    bias: &GenBias,
    spec: &ProgramSpec,
    ctx: BodyContext,
    forkable_base: usize,
    forkables: usize,
) -> Vec<SpecAction> {
    let len = rng.random_range(0..config.max_body_len + 1);
    let mut body = Vec::with_capacity(len + 4);
    let loopers: Vec<usize> = spec
        .threads
        .iter()
        .enumerate()
        .filter(|(_, t)| t.queue)
        .map(|(i, _)| i)
        .collect();
    // Tasks this body may post: any task from a thread, only
    // higher-indexed ones from a task (acyclic posting).
    let postable: Vec<usize> = match ctx {
        BodyContext::Thread => (0..spec.tasks.len()).collect(),
        BodyContext::Task { def } => (def + 1..spec.tasks.len()).collect(),
    };
    let mut forked: Vec<usize> = Vec::new();
    while body.len() < len {
        let w_post = if postable.is_empty() || loopers.is_empty() {
            0
        } else {
            bias.post
        };
        let w_lock = if spec.locks == 0 { 0 } else { bias.lock };
        let w_cancel = if postable.is_empty() { 0 } else { bias.cancel };
        let w_idle = if postable.is_empty() || loopers.is_empty() {
            0
        } else {
            bias.idle
        };
        let w_fork = if forkables == 0 { 0 } else { bias.fork };
        let total = bias.access + w_post + w_lock + w_cancel + w_idle + w_fork;
        let mut roll = rng.random_range(0..total as usize) as u32;
        if roll < bias.access {
            let loc = rng.random_range(0..spec.locs);
            body.push(if rng.random_range(0..2) == 0 {
                SpecAction::Read(loc)
            } else {
                SpecAction::Write(loc)
            });
            continue;
        }
        roll -= bias.access;
        if roll < w_post {
            let task = postable[rng.random_range(0..postable.len())];
            let target = loopers[rng.random_range(0..loopers.len())];
            if spec.tasks[task].needs_enable {
                body.push(SpecAction::Enable(task));
            }
            body.push(SpecAction::Post {
                task,
                target,
                kind: pick_post_kind(rng, bias),
            });
            continue;
        }
        roll -= w_post;
        if roll < w_lock {
            // A balanced acquire…release bracket around one access keeps
            // every run free of lock misuse and cross-body deadlocks: locks
            // are always acquired one at a time and released in the same
            // body.
            let m = rng.random_range(0..spec.locks);
            let loc = rng.random_range(0..spec.locs);
            body.push(SpecAction::Acquire(m));
            body.push(if rng.random_range(0..2) == 0 {
                SpecAction::Read(loc)
            } else {
                SpecAction::Write(loc)
            });
            body.push(SpecAction::Release(m));
            continue;
        }
        roll -= w_lock;
        if roll < w_cancel {
            body.push(SpecAction::Cancel(
                postable[rng.random_range(0..postable.len())],
            ));
            continue;
        }
        roll -= w_cancel;
        if roll < w_idle {
            body.push(SpecAction::AddIdle {
                task: postable[rng.random_range(0..postable.len())],
                target: loopers[rng.random_range(0..loopers.len())],
            });
            continue;
        }
        // Fork (and sometimes join) a forkable definition.
        let t = forkable_base + rng.random_range(0..forkables);
        body.push(SpecAction::Fork(t));
        forked.push(t);
        if rng.random_range(0..2) == 0 {
            body.push(SpecAction::Join(t));
        }
    }
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn generated_specs_lower_to_valid_programs() {
        let mut rng = SmallRng::seed_from_u64(0xD201D);
        let config = GenConfig::default();
        let bias = GenBias::default();
        for i in 0..200 {
            let spec = generate(&mut rng, &config, &bias);
            assert!(spec.lower().is_ok(), "iteration {i}: {spec:?}");
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let gen_all = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..20)
                .map(|_| {
                    format!(
                        "{:?}",
                        generate(&mut rng, &GenConfig::default(), &GenBias::default())
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(gen_all(7), gen_all(7));
        assert_ne!(gen_all(7), gen_all(8));
    }

    #[test]
    fn bias_zeroing_features_suppresses_them() {
        let mut rng = SmallRng::seed_from_u64(3);
        let bias = GenBias {
            cancel: 0,
            idle: 0,
            front_post: 0,
            ..GenBias::default()
        };
        for _ in 0..50 {
            let spec = generate(&mut rng, &GenConfig::default(), &bias);
            let all_actions: Vec<SpecAction> = spec
                .threads
                .iter()
                .flat_map(|t| t.body.iter().copied())
                .chain(spec.tasks.iter().flat_map(|t| t.body.iter().copied()))
                .collect();
            assert!(!all_actions
                .iter()
                .any(|a| matches!(a, SpecAction::Cancel(_))));
            assert!(!all_actions
                .iter()
                .any(|a| matches!(a, SpecAction::AddIdle { .. })));
            assert!(!all_actions.iter().any(|a| matches!(
                a,
                SpecAction::Post {
                    kind: PostKind::Front,
                    ..
                }
            )));
        }
    }

    #[test]
    fn component_substructures_lower_and_every_tag_appears() {
        let mut rng = SmallRng::seed_from_u64(0xC0DE);
        let mut bias = GenBias::default();
        for tag in ComponentTag::all() {
            bias.set_component_pct(tag, 60);
        }
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..200 {
            let spec = generate(&mut rng, &GenConfig::default(), &bias);
            assert!(spec.lower().is_ok(), "iteration {i}: {spec:?}");
            for tag in &spec.components {
                seen.insert(tag.label());
            }
        }
        for tag in ComponentTag::all() {
            assert!(
                seen.contains(tag.label()),
                "{} never generated",
                tag.label()
            );
        }
    }

    #[test]
    fn zero_component_pct_suppresses_substructures() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut bias = GenBias::default();
        for tag in ComponentTag::all() {
            bias.set_component_pct(tag, 0);
        }
        for _ in 0..50 {
            let spec = generate(&mut rng, &GenConfig::default(), &bias);
            assert!(spec.components.is_empty());
        }
    }

    #[test]
    fn component_programs_complete_under_simulation() {
        use droidracer_sim::{run, RandomScheduler, SimConfig};
        let mut rng = SmallRng::seed_from_u64(0xFEED);
        let mut bias = GenBias::default();
        for tag in ComponentTag::all() {
            bias.set_component_pct(tag, 100);
        }
        for i in 0..50 {
            let spec = generate(&mut rng, &GenConfig::default(), &bias);
            assert_eq!(spec.components.len(), 4, "iteration {i}");
            let program = spec.lower().expect("lowers");
            let result = run(
                &program,
                &mut RandomScheduler::new(i),
                &SimConfig { max_steps: 20_000 },
            )
            .expect("runs");
            assert!(result.completed, "iteration {i} hit the step cap");
        }
    }
}
