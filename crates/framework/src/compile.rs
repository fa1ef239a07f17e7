//! Lowering an [`App`] plus a UI event sequence to a simulator [`Program`].
//!
//! The compiler plays the role of the Android runtime: it decides which
//! system posts (lifecycle transitions, service callbacks, broadcast
//! deliveries) the binder thread performs, where `enable` operations are
//! planted (§4.2 "we have extensively studied … to identify instrumentation
//! sites to emit enable operations"), and how framework constructs lower to
//! the core language:
//!
//! * `AsyncTask.execute()` → inline `onPreExecute`, fork the background
//!   thread; `publishProgress` → post `onProgressUpdate` to main; background
//!   completion → post `onPostExecute` to main (cf. Figure 2, steps 6.4–9);
//! * activity lifecycle → one task per transition (`LAUNCH_ACTIVITY` runs
//!   `onCreate`+`onStart`+`onResume` synchronously, per Figure 2 step 6),
//!   posted by the binder thread on behalf of `ActivityManagerService`,
//!   gated by `enable` operations planted per Figure 8;
//! * UI events → handler tasks posted by the idle main looper itself
//!   (Figure 3, op 19), gated by per-occurrence widget enables.
//!
//! Because every system post is gated on its `enable`, imprecision in the
//! compiler's static schedule can only delay a post, never produce a trace
//! that violates the lifecycle automaton.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use droidracer_sim::{
    Action, Injection, LocRef, LockRef, Program, ProgramBuilder, ProgramError, TaskRef, ThreadRef,
    ThreadSpec,
};
use droidracer_trace::{PostKind, ThreadKind};

use crate::app::{ActivityId, App, AsyncTaskId, CallbackBodies, Stmt, UiEventKind, WidgetId};
use crate::dsl;
use crate::lifecycle::Callback;
use crate::ui::UiEvent;

/// A lifecycle transition task of an activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LifecycleTask {
    /// `LAUNCH_ACTIVITY`: onCreate + onStart + onResume.
    Launch,
    /// onPause.
    Pause,
    /// onStop.
    Stop,
    /// onDestroy.
    Destroy,
    /// onResume after a pause (without stop).
    Resume,
    /// onRestart + onStart + onResume after a stop.
    Relaunch,
}

impl LifecycleTask {
    fn label(self) -> &'static str {
        match self {
            LifecycleTask::Launch => "LAUNCH_ACTIVITY",
            LifecycleTask::Pause => "onPause",
            LifecycleTask::Stop => "onStop",
            LifecycleTask::Destroy => "onDestroy",
            LifecycleTask::Resume => "onResume",
            LifecycleTask::Relaunch => "RELAUNCH_ACTIVITY",
        }
    }

    fn all() -> [LifecycleTask; 6] {
        [
            LifecycleTask::Launch,
            LifecycleTask::Pause,
            LifecycleTask::Stop,
            LifecycleTask::Destroy,
            LifecycleTask::Resume,
            LifecycleTask::Relaunch,
        ]
    }

    /// The transition named `label` in the [`dsl::ACTIVITY`] task table.
    fn from_label(label: &str) -> Option<LifecycleTask> {
        LifecycleTask::all()
            .into_iter()
            .find(|t| t.label() == label)
    }
}

/// One transition task of the activity lowering plan: which callback bodies
/// it runs, which transitions it enables, and whether it is the entry
/// transition (the one that plants widget enables).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanTask {
    /// The transition this plan entry lowers.
    pub task: LifecycleTask,
    /// Lifecycle callback bodies the task runs, in order.
    pub runs: Vec<Callback>,
    /// Transitions enabled when the task completes.
    pub enables: Vec<LifecycleTask>,
    /// Whether this is the entry transition.
    pub initial: bool,
}

/// The complete per-activity lowering plan, normally derived from
/// [`dsl::ACTIVITY`]. [`compile_with_activity_plan`] accepts a hand-built
/// plan instead — the hook the DSL-faithfulness differential test uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActivityPlan {
    /// Plan entries in [`dsl::ACTIVITY`] task-table order.
    pub tasks: Vec<PlanTask>,
}

impl ActivityPlan {
    /// Derives the plan from the declarative [`dsl::ACTIVITY`] automaton.
    ///
    /// # Panics
    ///
    /// Panics if the automaton spec is internally inconsistent or names a
    /// callback/transition the compiler does not know — a defect in the
    /// constant tables, caught by every compile in the test suite.
    pub fn from_dsl() -> Self {
        dsl::ACTIVITY
            .validate()
            .expect("ACTIVITY automaton is consistent");
        let callback = |name: &str| {
            Callback::all()
                .into_iter()
                .find(|c| c.method_name() == name)
                .unwrap_or_else(|| panic!("unknown activity callback {name}"))
        };
        let tasks = dsl::ACTIVITY
            .tasks
            .iter()
            .map(|t| PlanTask {
                task: LifecycleTask::from_label(t.label)
                    .unwrap_or_else(|| panic!("unknown activity transition {}", t.label)),
                runs: t.runs.iter().map(|r| callback(r)).collect(),
                enables: t
                    .enables
                    .iter()
                    .map(|e| {
                        LifecycleTask::from_label(e)
                            .unwrap_or_else(|| panic!("unknown enable target {e}"))
                    })
                    .collect(),
                initial: t.initial,
            })
            .collect();
        ActivityPlan { tasks }
    }
}

/// The fragment callback bodies spliced into the host transition `task`,
/// per the [`dsl::FRAGMENT`] `nested_in` table, in automaton order.
fn nested_fragment_bodies(
    app: &App,
    f: crate::app::FragmentId,
    task: LifecycleTask,
) -> Vec<&[Stmt]> {
    let def = &app.fragments[f.0];
    let body = |name: &str| -> &[Stmt] {
        match name {
            "onAttach" => &def.attach,
            "onCreateView" => &def.create_view,
            "onDestroyView" => &def.destroy_view,
            "onDetach" => &def.detach,
            other => panic!("unknown fragment callback {other}"),
        }
    };
    dsl::FRAGMENT
        .tasks
        .iter()
        .filter(|t| t.nested_in.and_then(LifecycleTask::from_label) == Some(task))
        .flat_map(|t| t.runs.iter().map(|r| body(r)))
        .collect()
}

/// The callback body of `cb` for `c`.
fn callback_body(cb: &CallbackBodies, c: Callback) -> &[Stmt] {
    match c {
        Callback::Create => &cb.create,
        Callback::Start => &cb.start,
        Callback::Resume => &cb.resume,
        Callback::Pause => &cb.pause,
        Callback::Stop => &cb.stop,
        Callback::Restart => &cb.restart,
        Callback::Destroy => &cb.destroy,
    }
}

/// A compilation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The app declares no activities.
    NoMainActivity,
    /// A widget event fired while its activity was not in the foreground.
    EventNotAvailable {
        /// Description of the offending event.
        event: String,
    },
    /// A widget id does not exist in this app (it was made by another
    /// [`App`]).
    UnknownWidget {
        /// The out-of-range widget-table index.
        index: usize,
    },
    /// BACK or rotate fired after the last activity was destroyed.
    EventAfterExit,
    /// `publishProgress` used outside a `doInBackground` body.
    PublishProgressOutsideBackground,
    /// Activity-start recursion exceeded the depth limit.
    RecursionLimit,
    /// The lowered program failed the simulator's checks (a compiler bug).
    Lowering(ProgramError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::NoMainActivity => write!(f, "app has no activities"),
            CompileError::EventNotAvailable { event } => {
                write!(f, "event {event} is not available on the current screen")
            }
            CompileError::UnknownWidget { index } => {
                write!(f, "widget #{index} does not exist in this app")
            }
            CompileError::EventAfterExit => write!(f, "event fired after the app exited"),
            CompileError::PublishProgressOutsideBackground => {
                write!(f, "publishProgress outside a doInBackground body")
            }
            CompileError::RecursionLimit => write!(f, "activity-start recursion limit exceeded"),
            CompileError::Lowering(e) => write!(f, "lowering produced an invalid program: {e}"),
        }
    }
}

impl Error for CompileError {}

impl From<ProgramError> for CompileError {
    fn from(e: ProgramError) -> Self {
        CompileError::Lowering(e)
    }
}

/// The result of compiling an [`App`] with a concrete event sequence.
#[derive(Debug, Clone)]
pub struct CompiledApp {
    /// The runnable simulator program.
    pub program: Program,
    /// The main (UI) thread.
    pub main: ThreadRef,
    /// The binder thread relaying `ActivityManagerService` decisions.
    pub binder: ThreadRef,
    /// Lifecycle task definitions per activity (for tests and debugging).
    pub lifecycle_tasks: HashMap<(ActivityId, LifecycleTask), TaskRef>,
    /// Handler task per widget event.
    pub widget_tasks: HashMap<(WidgetId, UiEventKind), TaskRef>,
}

struct Refs {
    main: ThreadRef,
    binder: ThreadRef,
    workers: Vec<ThreadRef>,
    handler_threads: Vec<ThreadRef>,
    at_threads: Vec<ThreadRef>,
    /// One timer thread per distinct `ScheduleTimer` statement shape.
    timers: HashMap<(usize, u64, u64, u32), ThreadRef>,
    vars: Vec<LocRef>,
    mutexes: Vec<LockRef>,
    lifecycle: HashMap<(ActivityId, LifecycleTask), TaskRef>,
    widget_handlers: HashMap<(WidgetId, UiEventKind), TaskRef>,
    service_create: Vec<TaskRef>,
    service_start: Vec<TaskRef>,
    service_destroy: Vec<TaskRef>,
    /// One serial-executor queue thread per IntentService.
    intent_queues: Vec<ThreadRef>,
    /// The per-IntentService `onHandleIntent` task.
    intent_handle: Vec<TaskRef>,
    receive: Vec<TaskRef>,
    handlers: Vec<TaskRef>,
    at_progress: Vec<TaskRef>,
    at_post: Vec<TaskRef>,
}

/// Compiles `app` with the given UI event sequence into a runnable program.
///
/// # Errors
///
/// Returns a [`CompileError`] when the app has no launcher activity, the
/// event sequence is infeasible on the abstract UI, or statements are used
/// out of context.
pub fn compile(app: &App, events: &[UiEvent]) -> Result<CompiledApp, CompileError> {
    compile_with_activity_plan(app, events, &ActivityPlan::from_dsl())
}

/// Compiles `app` with an explicit activity lowering plan instead of the
/// one derived from [`dsl::ACTIVITY`] — the differential-testing hook that
/// proves the DSL-derived plan reproduces the legacy hand-coded lowering.
///
/// # Errors
///
/// Same as [`compile`].
pub fn compile_with_activity_plan(
    app: &App,
    events: &[UiEvent],
    plan: &ActivityPlan,
) -> Result<CompiledApp, CompileError> {
    let main_activity = app.main_activity().ok_or(CompileError::NoMainActivity)?;
    let mut p = ProgramBuilder::new();

    // Phase 0: allocate every thread, task, lock and location.
    let refs = allocate(app, &mut p);

    // Phase 1: walk the event sequence, producing the binder's post
    // schedule, the injection list and per-widget-event firing counts.
    let mut walk = Walk {
        app,
        refs: &refs,
        binder_posts: Vec::new(),
        injections: Vec::new(),
        stack: vec![main_activity],
        widget_counts: HashMap::new(),
        started_services: vec![false; app.services.len()],
    };
    walk.binder_posts.push((
        refs.lifecycle[&(main_activity, LifecycleTask::Launch)],
        refs.main,
    ));
    walk.process_activity_resume_path(main_activity, 0)?;
    for event in events {
        walk.process_event(*event)?;
    }
    let Walk {
        binder_posts,
        injections,
        widget_counts,
        ..
    } = walk;

    // Phase 2: compile all bodies. The per-activity transition tasks are
    // assembled from the lowering plan (derived from the DSL automaton).
    let mut cc = BodyCompiler { app, refs: &refs };
    for (a_idx, act) in app.activities.iter().enumerate() {
        let a = ActivityId(a_idx);
        let cb = &act.callbacks;
        // Per-occurrence enables for the initially enabled widgets of this
        // activity, planted at the entry transition (see module docs).
        let mut widget_enables = Vec::new();
        for &w in &act.widgets {
            if !app.widgets[w.0].initially_enabled {
                continue;
            }
            for (kind, _) in &app.widgets[w.0].handlers {
                let count = widget_counts.get(&(w, *kind)).copied().unwrap_or(0);
                for _ in 0..count {
                    widget_enables.push(Action::Enable(refs.widget_handlers[&(w, *kind)]));
                }
            }
        }
        for pt in &plan.tasks {
            let mut body = Vec::new();
            for &c in &pt.runs {
                cc.lower_into(callback_body(cb, c), None, &mut body)?;
            }
            // Fragment callbacks nested in this transition (per the
            // FRAGMENT automaton's `nested_in` table) run after the host
            // callbacks, before the transition's enables.
            for f in app.fragments_of(a) {
                for frag_body in nested_fragment_bodies(app, f, pt.task) {
                    cc.lower_into(frag_body, None, &mut body)?;
                }
            }
            for &en in &pt.enables {
                body.push(Action::Enable(refs.lifecycle[&(a, en)]));
            }
            if pt.initial {
                body.extend(widget_enables.iter().cloned());
            }
            p.set_task_body(refs.lifecycle[&(a, pt.task)], body);
        }
    }
    for (w_idx, widget) in app.widgets.iter().enumerate() {
        for (kind, body) in &widget.handlers {
            let task = refs.widget_handlers[&(WidgetId(w_idx), *kind)];
            p.set_task_body(task, cc.stmts(body, None)?);
        }
    }
    // Services lower one task per SERVICE-automaton transition (onCreate /
    // onStartCommand / onDestroy are separate posts, unlike the merged
    // legacy lowering).
    for (s_idx, service) in app.services.iter().enumerate() {
        p.set_task_body(refs.service_create[s_idx], cc.stmts(&service.create, None)?);
        p.set_task_body(
            refs.service_start[s_idx],
            cc.stmts(&service.start_command, None)?,
        );
        p.set_task_body(
            refs.service_destroy[s_idx],
            cc.stmts(&service.destroy, None)?,
        );
    }
    // IntentServices: `onHandleIntent` bodies run on the component's own
    // serial-executor queue thread.
    for (s_idx, svc) in app.intent_services.iter().enumerate() {
        p.set_task_body(
            refs.intent_handle[s_idx],
            cc.stmts(&svc.handle_intent, None)?,
        );
    }
    for (r_idx, receiver) in app.receivers.iter().enumerate() {
        p.set_task_body(refs.receive[r_idx], cc.stmts(&receiver.receive, None)?);
    }
    for (h_idx, handler) in app.handlers.iter().enumerate() {
        p.set_task_body(refs.handlers[h_idx], cc.stmts(&handler.body, None)?);
    }
    for (t_idx, task) in app.async_tasks.iter().enumerate() {
        p.set_task_body(
            refs.at_progress[t_idx],
            cc.stmts(&task.progress_update, None)?,
        );
        p.set_task_body(refs.at_post[t_idx], cc.stmts(&task.post_execute, None)?);
        let mut bg = cc.stmts(&task.background, Some(AsyncTaskId(t_idx)))?;
        bg.push(Action::Post {
            task: refs.at_post[t_idx],
            target: refs.main,
            kind: PostKind::Plain,
        });
        p.set_thread_body(refs.at_threads[t_idx], bg);
    }
    for (w_idx, worker) in app.workers.iter().enumerate() {
        p.set_thread_body(refs.workers[w_idx], cc.stmts(&worker.body, None)?);
    }

    // Timer threads: each posts its runnable `repetitions` times with
    // increasing virtual-time delays.
    for (&(h, delay, period, reps), &thread) in &refs.timers {
        let mut body = Vec::new();
        for k in 0..reps {
            body.push(Action::Post {
                task: refs.handlers[h],
                target: refs.main,
                kind: PostKind::Delayed(delay + u64::from(k) * period),
            });
        }
        p.set_thread_body(thread, body);
    }

    // Phase 3: assemble the main body, binder body and injections.
    p.set_thread_body(
        refs.main,
        vec![Action::Enable(
            refs.lifecycle[&(main_activity, LifecycleTask::Launch)],
        )],
    );
    let binder_body = binder_posts
        .iter()
        .map(|&(task, target)| Action::Post {
            task,
            target,
            kind: PostKind::Plain,
        })
        .collect();
    p.set_thread_body(refs.binder, binder_body);
    for task in injections {
        p.inject(Injection {
            poster: refs.main,
            task,
            target: refs.main,
            kind: PostKind::Plain,
        });
    }

    let program = p.finish()?;
    Ok(CompiledApp {
        program,
        main: refs.main,
        binder: refs.binder,
        lifecycle_tasks: refs.lifecycle,
        widget_tasks: refs.widget_handlers,
    })
}

fn allocate(app: &App, p: &mut ProgramBuilder) -> Refs {
    let main = p.thread(
        ThreadSpec::app("main")
            .kind(ThreadKind::Main)
            .initial()
            .with_queue(),
    );
    let binder = p.thread(ThreadSpec::app("binder").kind(ThreadKind::Binder).initial());
    let workers = app
        .workers
        .iter()
        .map(|w| p.thread(ThreadSpec::app(w.name.clone())))
        .collect();
    let handler_threads = app
        .handler_threads
        .iter()
        .map(|name| p.thread(ThreadSpec::app(name.clone()).with_queue()))
        .collect();
    let at_threads = app
        .async_tasks
        .iter()
        .map(|t| p.thread(ThreadSpec::app(format!("{}-bg", t.name))))
        .collect();
    // One serial-executor looper per IntentService: the component's own
    // FIFO queue, distinct from the main Looper (dsl::INTENT_SERVICE).
    let intent_queues = app
        .intent_services
        .iter()
        .map(|s| {
            p.thread(
                ThreadSpec::app(format!("{}-queue", s.name))
                    .initial()
                    .with_queue(),
            )
        })
        .collect();
    let mut timers = HashMap::new();
    for (i, spec) in collect_timers(app).into_iter().enumerate() {
        timers
            .entry(spec)
            .or_insert_with(|| p.thread(ThreadSpec::app(format!("timer-{i}"))));
    }
    let vars = app
        .vars
        .iter()
        .map(|(o, f)| p.loc(o.clone(), f.clone()))
        .collect();
    let mutexes = app.mutexes.iter().map(|m| p.lock(m.clone())).collect();
    let mut lifecycle = HashMap::new();
    for (a_idx, act) in app.activities.iter().enumerate() {
        for kind in LifecycleTask::all() {
            let name = format!("{}.{}", act.name, kind.label());
            let event = format!("lifecycle:{name}");
            let task = p.event_task(name, event, Vec::new());
            p.require_enable(task);
            lifecycle.insert((ActivityId(a_idx), kind), task);
        }
    }
    let mut widget_handlers = HashMap::new();
    for (w_idx, widget) in app.widgets.iter().enumerate() {
        for (kind, _) in &widget.handlers {
            let act_name = &app.activities[widget.activity.0].name;
            let name = format!("{}.{}.on{:?}", act_name, widget.name, kind);
            let event = format!("{}:{}.{}", kind.label(), act_name, widget.name);
            let task = p.event_task(name, event, Vec::new());
            p.require_enable(task);
            widget_handlers.insert((WidgetId(w_idx), *kind), task);
        }
    }
    // Service transition tasks, one per SERVICE-automaton table entry, all
    // enable-gated so the system post can never precede the app's
    // startService/stopService call.
    let mut service_create = Vec::new();
    let mut service_start = Vec::new();
    let mut service_destroy = Vec::new();
    for s in &app.services {
        for spec in dsl::SERVICE.tasks {
            let task = p.task(format!("{}.{}", s.name, spec.label), Vec::new());
            p.require_enable(task);
            match spec.label {
                "onCreate" => service_create.push(task),
                "onStartCommand" => service_start.push(task),
                "onDestroy" => service_destroy.push(task),
                other => unreachable!("unknown service transition {other}"),
            }
        }
    }
    let intent_handle = app
        .intent_services
        .iter()
        .map(|s| {
            let label = dsl::INTENT_SERVICE.entry_task().expect("entry task").label;
            let t = p.task(format!("{}.{}", s.name, label), Vec::new());
            p.require_enable(t);
            t
        })
        .collect();
    let receive = app
        .receivers
        .iter()
        .map(|r| {
            let t = p.task(format!("{}.onReceive", r.name), Vec::new());
            p.require_enable(t);
            t
        })
        .collect();
    let handlers = app
        .handlers
        .iter()
        .map(|h| p.task(h.name.clone(), Vec::new()))
        .collect();
    let at_progress = app
        .async_tasks
        .iter()
        .map(|t| p.task(format!("{}.onProgressUpdate", t.name), Vec::new()))
        .collect();
    let at_post = app
        .async_tasks
        .iter()
        .map(|t| p.task(format!("{}.onPostExecute", t.name), Vec::new()))
        .collect();
    Refs {
        main,
        binder,
        workers,
        handler_threads,
        at_threads,
        timers,
        vars,
        mutexes,
        lifecycle,
        widget_handlers,
        service_create,
        service_start,
        service_destroy,
        intent_queues,
        intent_handle,
        receive,
        handlers,
        at_progress,
        at_post,
    }
}

/// Every `ScheduleTimer` statement shape in the app, in a stable traversal
/// order (duplicated shapes share one timer thread definition; each firing
/// site forks its own instance).
fn collect_timers(app: &App) -> Vec<(usize, u64, u64, u32)> {
    fn scan(stmts: &[Stmt], out: &mut Vec<(usize, u64, u64, u32)>) {
        for stmt in stmts {
            match stmt {
                Stmt::ScheduleTimer {
                    handler,
                    delay,
                    period,
                    repetitions,
                } => out.push((handler.0, *delay, *period, *repetitions)),
                Stmt::Synchronized(_, inner) => scan(inner, out),
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    for a in &app.activities {
        let c = &a.callbacks;
        for body in [
            &c.create, &c.start, &c.resume, &c.pause, &c.stop, &c.restart, &c.destroy,
        ] {
            scan(body, &mut out);
        }
    }
    for w in &app.widgets {
        for (_, body) in &w.handlers {
            scan(body, &mut out);
        }
    }
    for t in &app.async_tasks {
        for body in [
            &t.pre_execute,
            &t.background,
            &t.progress_update,
            &t.post_execute,
        ] {
            scan(body, &mut out);
        }
    }
    for svc in &app.services {
        for body in [&svc.create, &svc.start_command, &svc.destroy] {
            scan(body, &mut out);
        }
    }
    for svc in &app.intent_services {
        scan(&svc.handle_intent, &mut out);
    }
    for f in &app.fragments {
        for body in [&f.attach, &f.create_view, &f.destroy_view, &f.detach] {
            scan(body, &mut out);
        }
    }
    for r in &app.receivers {
        scan(&r.receive, &mut out);
    }
    for w in &app.workers {
        scan(&w.body, &mut out);
    }
    for h in &app.handlers {
        scan(&h.body, &mut out);
    }
    out
}

const MAX_WALK_DEPTH: usize = 24;

/// Phase-1 walker: simulates the event sequence abstractly to schedule the
/// binder's system posts and the looper's event injections.
struct Walk<'a> {
    app: &'a App,
    refs: &'a Refs,
    /// System posts the binder performs, in order, with their target
    /// looper (main for activity/service/receiver transitions, the
    /// component's serial-executor queue for IntentService deliveries).
    binder_posts: Vec<(TaskRef, ThreadRef)>,
    injections: Vec<TaskRef>,
    stack: Vec<ActivityId>,
    widget_counts: HashMap<(WidgetId, UiEventKind), usize>,
    started_services: Vec<bool>,
}

impl Walk<'_> {
    fn process_event(&mut self, event: UiEvent) -> Result<(), CompileError> {
        match event {
            UiEvent::Widget(w, kind) => {
                if w.0 >= self.app.widgets.len() {
                    return Err(CompileError::UnknownWidget { index: w.0 });
                }
                let top = self
                    .stack
                    .last()
                    .copied()
                    .ok_or(CompileError::EventAfterExit)?;
                if self.app.widget_activity(w) != top || !self.app.widget_events(w).contains(&kind)
                {
                    return Err(CompileError::EventNotAvailable {
                        event: UiEvent::Widget(w, kind).describe(self.app),
                    });
                }
                *self.widget_counts.entry((w, kind)).or_insert(0) += 1;
                // invariant: allocate() created a handler task for every
                // (widget, kind) pair with a handler, and the membership
                // check above guarantees this pair has one.
                self.injections.push(self.refs.widget_handlers[&(w, kind)]);
                let body = self.app.widgets[w.0]
                    .handlers
                    .iter()
                    .find(|(k, _)| *k == kind)
                    .map(|(_, b)| b.clone())
                    .unwrap_or_default();
                self.process_stmts(&body, 0)?;
            }
            UiEvent::Back => {
                let a = self.stack.pop().ok_or(CompileError::EventAfterExit)?;
                self.teardown(a, 0)?;
                if let Some(&below) = self.stack.last() {
                    self.post_lifecycle(below, LifecycleTask::Relaunch);
                    self.process_activity_resume_path(below, 0)?;
                }
            }
            UiEvent::Rotate => {
                let a = *self.stack.last().ok_or(CompileError::EventAfterExit)?;
                self.teardown(a, 0)?;
                self.post_lifecycle(a, LifecycleTask::Launch);
                self.process_activity_resume_path(a, 0)?;
            }
        }
        Ok(())
    }

    fn post_lifecycle(&mut self, a: ActivityId, task: LifecycleTask) {
        self.binder_posts
            .push((self.refs.lifecycle[&(a, task)], self.refs.main));
    }

    /// Posts PAUSE / STOP / DESTROY of `a` and walks the callback bodies
    /// (including the fragment teardown spliced into the destroy
    /// transition).
    fn teardown(&mut self, a: ActivityId, depth: usize) -> Result<(), CompileError> {
        let cb = self.app.activities[a.0].callbacks.clone();
        self.post_lifecycle(a, LifecycleTask::Pause);
        self.process_stmts(&cb.pause, depth)?;
        self.post_lifecycle(a, LifecycleTask::Stop);
        self.process_stmts(&cb.stop, depth)?;
        self.post_lifecycle(a, LifecycleTask::Destroy);
        self.process_stmts(&cb.destroy, depth)?;
        self.process_fragments(a, LifecycleTask::Destroy, depth)?;
        Ok(())
    }

    /// Walks onCreate+onStart+onResume (consequences of a launch/relaunch),
    /// then the fragment callbacks nested in the LAUNCH transition.
    fn process_activity_resume_path(
        &mut self,
        a: ActivityId,
        depth: usize,
    ) -> Result<(), CompileError> {
        let cb = self.app.activities[a.0].callbacks.clone();
        self.process_stmts(&cb.create, depth)?;
        self.process_stmts(&cb.start, depth)?;
        self.process_stmts(&cb.resume, depth)?;
        self.process_fragments(a, LifecycleTask::Launch, depth)?;
        Ok(())
    }

    /// Walks the fragment callback bodies nested in the given host
    /// transition.
    fn process_fragments(
        &mut self,
        a: ActivityId,
        task: LifecycleTask,
        depth: usize,
    ) -> Result<(), CompileError> {
        for f in self.app.fragments_of(a) {
            let bodies: Vec<Vec<Stmt>> = nested_fragment_bodies(self.app, f, task)
                .into_iter()
                .map(<[Stmt]>::to_vec)
                .collect();
            for body in bodies {
                self.process_stmts(&body, depth)?;
            }
        }
        Ok(())
    }

    fn process_stmts(&mut self, stmts: &[Stmt], depth: usize) -> Result<(), CompileError> {
        if depth > MAX_WALK_DEPTH {
            return Err(CompileError::RecursionLimit);
        }
        for stmt in stmts {
            match stmt {
                Stmt::Synchronized(_, inner) => self.process_stmts(inner, depth + 1)?,
                Stmt::StartActivity(b) => {
                    let cur = self.stack.last().copied();
                    if let Some(cur) = cur {
                        self.post_lifecycle(cur, LifecycleTask::Pause);
                        let pause = self.app.activities[cur.0].callbacks.pause.clone();
                        self.process_stmts(&pause, depth + 1)?;
                    }
                    self.post_lifecycle(*b, LifecycleTask::Launch);
                    self.stack.push(*b);
                    self.process_activity_resume_path(*b, depth + 1)?;
                    if let Some(cur) = cur {
                        self.post_lifecycle(cur, LifecycleTask::Stop);
                        let stop = self.app.activities[cur.0].callbacks.stop.clone();
                        self.process_stmts(&stop, depth + 1)?;
                    }
                }
                Stmt::FinishActivity => {
                    if let Some(a) = self.stack.pop() {
                        self.teardown(a, depth + 1)?;
                        if let Some(&below) = self.stack.last() {
                            self.post_lifecycle(below, LifecycleTask::Relaunch);
                            self.process_activity_resume_path(below, depth + 1)?;
                        }
                    }
                }
                Stmt::StartService(s) => {
                    // First start of a lifetime runs onCreate, then every
                    // start delivers one onStartCommand; re-deliveries are
                    // FIFO-ordered by the shared binder→main queue (the
                    // SERVICE automaton's re-delivery guarantee).
                    let def = self.app.services[s.0].clone();
                    if !self.started_services[s.0] {
                        self.started_services[s.0] = true;
                        self.binder_posts
                            .push((self.refs.service_create[s.0], self.refs.main));
                        self.process_stmts(&def.create, depth + 1)?;
                    }
                    self.binder_posts
                        .push((self.refs.service_start[s.0], self.refs.main));
                    self.process_stmts(&def.start_command, depth + 1)?;
                }
                Stmt::StopService(s) => {
                    self.binder_posts
                        .push((self.refs.service_destroy[s.0], self.refs.main));
                    self.started_services[s.0] = false;
                    let destroy = self.app.services[s.0].destroy.clone();
                    self.process_stmts(&destroy, depth + 1)?;
                }
                Stmt::StartIntentService(s) => {
                    // Delivery goes to the component's serial executor, not
                    // the main Looper.
                    self.binder_posts
                        .push((self.refs.intent_handle[s.0], self.refs.intent_queues[s.0]));
                    let body = self.app.intent_services[s.0].handle_intent.clone();
                    self.process_stmts(&body, depth + 1)?;
                }
                Stmt::SendBroadcast(r) => {
                    self.binder_posts
                        .push((self.refs.receive[r.0], self.refs.main));
                    let receive = self.app.receivers[r.0].receive.clone();
                    self.process_stmts(&receive, depth + 1)?;
                }
                Stmt::ExecuteAsyncTask(at) => {
                    let def = self.app.async_tasks[at.0].clone();
                    self.process_stmts(&def.pre_execute, depth + 1)?;
                    // publishProgress occurrences trigger onProgressUpdate
                    // on main; then onPostExecute runs on main.
                    for bg in &def.background {
                        if matches!(bg, Stmt::PublishProgress) {
                            self.process_stmts(&def.progress_update, depth + 1)?;
                        }
                    }
                    self.process_stmts(&def.post_execute, depth + 1)?;
                }
                Stmt::Post { handler, .. }
                | Stmt::PostToHandlerThread { handler, .. }
                | Stmt::AddIdleHandler(handler) => {
                    let body = self.app.handlers[handler.0].body.clone();
                    self.process_stmts(&body, depth + 1)?;
                }
                Stmt::ScheduleTimer {
                    handler,
                    repetitions,
                    ..
                } => {
                    let body = self.app.handlers[handler.0].body.clone();
                    for _ in 0..*repetitions {
                        self.process_stmts(&body, depth + 1)?;
                    }
                }
                Stmt::ForkWorker(w) => {
                    let body = self.app.workers[w.0].body.clone();
                    self.process_stmts(&body, depth + 1)?;
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// Phase-2 statement lowering.
struct BodyCompiler<'a> {
    app: &'a App,
    refs: &'a Refs,
}

impl BodyCompiler<'_> {
    fn stmts(
        &mut self,
        stmts: &[Stmt],
        bg_ctx: Option<AsyncTaskId>,
    ) -> Result<Vec<Action>, CompileError> {
        let mut out = Vec::new();
        self.lower_into(stmts, bg_ctx, &mut out)?;
        Ok(out)
    }

    fn lower_into(
        &mut self,
        stmts: &[Stmt],
        bg_ctx: Option<AsyncTaskId>,
        out: &mut Vec<Action>,
    ) -> Result<(), CompileError> {
        for stmt in stmts {
            match stmt {
                Stmt::Read(v) => out.push(Action::Read(self.refs.vars[v.0])),
                Stmt::Write(v) => out.push(Action::Write(self.refs.vars[v.0])),
                Stmt::Synchronized(m, inner) => {
                    out.push(Action::Acquire(self.refs.mutexes[m.0]));
                    self.lower_into(inner, bg_ctx, out)?;
                    out.push(Action::Release(self.refs.mutexes[m.0]));
                }
                Stmt::ExecuteAsyncTask(at) => {
                    let pre = self.app.async_tasks[at.0].pre_execute.clone();
                    self.lower_into(&pre, bg_ctx, out)?;
                    out.push(Action::Fork(self.refs.at_threads[at.0]));
                }
                Stmt::PublishProgress => {
                    let Some(at) = bg_ctx else {
                        return Err(CompileError::PublishProgressOutsideBackground);
                    };
                    out.push(Action::Post {
                        task: self.refs.at_progress[at.0],
                        target: self.refs.main,
                        kind: PostKind::Plain,
                    });
                }
                Stmt::Post {
                    handler,
                    delay,
                    front,
                } => {
                    let kind = match (delay, front) {
                        (Some(d), _) => PostKind::Delayed(*d),
                        (None, true) => PostKind::Front,
                        (None, false) => PostKind::Plain,
                    };
                    out.push(Action::Post {
                        task: self.refs.handlers[handler.0],
                        target: self.refs.main,
                        kind,
                    });
                }
                Stmt::PostToHandlerThread { handler, thread } => {
                    out.push(Action::Post {
                        task: self.refs.handlers[handler.0],
                        target: self.refs.handler_threads[thread.0],
                        kind: PostKind::Plain,
                    });
                }
                Stmt::CancelPost(h) => out.push(Action::Cancel(self.refs.handlers[h.0])),
                Stmt::ForkWorker(w) => out.push(Action::Fork(self.refs.workers[w.0])),
                Stmt::JoinWorker(w) => out.push(Action::Join(self.refs.workers[w.0])),
                Stmt::StartHandlerThread(ht) => {
                    out.push(Action::Fork(self.refs.handler_threads[ht.0]))
                }
                Stmt::StartService(s) => {
                    // Enable both the (possible) onCreate delivery and the
                    // onStartCommand delivery. Surplus enables are inert: the
                    // walker only posts onCreate for the first start of a
                    // service lifetime, and an un-posted enable never blocks
                    // completion.
                    out.push(Action::Enable(self.refs.service_create[s.0]));
                    out.push(Action::Enable(self.refs.service_start[s.0]));
                }
                Stmt::StopService(s) => out.push(Action::Enable(self.refs.service_destroy[s.0])),
                Stmt::StartIntentService(s) => {
                    out.push(Action::Enable(self.refs.intent_handle[s.0]))
                }
                Stmt::SendBroadcast(r) => {
                    // Manifest-declared receivers are implicitly registered:
                    // the broadcast itself enables the delivery. Dynamic
                    // receivers were enabled by RegisterReceiver.
                    if !self.app.receivers[r.0].dynamic {
                        out.push(Action::Enable(self.refs.receive[r.0]));
                    }
                }
                Stmt::StartActivity(b) => out.push(Action::Enable(
                    self.refs.lifecycle[&(*b, LifecycleTask::Launch)],
                )),
                Stmt::FinishActivity => {}
                Stmt::EnableWidget(w, kind) => {
                    out.push(Action::Enable(self.refs.widget_handlers[&(*w, *kind)]))
                }
                Stmt::AddIdleHandler(h) => out.push(Action::AddIdle {
                    task: self.refs.handlers[h.0],
                    target: self.refs.main,
                }),
                Stmt::ScheduleTimer {
                    handler,
                    delay,
                    period,
                    repetitions,
                } => {
                    let timer = self.refs.timers[&(handler.0, *delay, *period, *repetitions)];
                    out.push(Action::Fork(timer));
                }
                Stmt::RegisterReceiver(r) => out.push(Action::Enable(self.refs.receive[r.0])),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppBuilder;
    use droidracer_sim::{run, RandomScheduler, RoundRobinScheduler, SimConfig};
    use droidracer_trace::{validate, OpKind};

    /// The paper's §2 music player, slightly simplified.
    fn music_player() -> (App, WidgetId) {
        let mut b = AppBuilder::new("MusicPlayer");
        let act = b.activity("DwFileAct");
        let other = b.activity("MusicPlayActivity");
        let flag = b.var("DwFileAct-obj", "isActivityDestroyed");
        let dl = b.async_task(
            "FileDwTask",
            vec![], // onPreExecute: show dialog
            vec![Stmt::Read(flag), Stmt::PublishProgress],
            vec![],                 // onProgressUpdate
            vec![Stmt::Read(flag)], // onPostExecute: enable PLAY
        );
        b.on_create(act, vec![Stmt::Write(flag)]);
        b.on_resume(act, vec![Stmt::ExecuteAsyncTask(dl)]);
        b.on_destroy(act, vec![Stmt::Write(flag)]);
        let play = b.button(act, "playBtn", vec![Stmt::StartActivity(other)]);
        (b.finish(), play)
    }

    #[test]
    fn music_player_compiles_and_runs() {
        let (app, play) = music_player();
        let compiled =
            compile(&app, &[UiEvent::Widget(play, UiEventKind::Click)]).expect("compiles");
        for seed in 0..25 {
            let result = run(
                &compiled.program,
                &mut RandomScheduler::new(seed),
                &SimConfig::default(),
            )
            .expect("runs");
            assert_eq!(
                validate(&result.trace),
                Ok(()),
                "seed {seed}:\n{}",
                result.trace
            );
            assert!(result.completed, "seed {seed}:\n{}", result.trace);
        }
    }

    #[test]
    fn back_button_posts_lifecycle_teardown() {
        let (app, _) = music_player();
        let compiled = compile(&app, &[UiEvent::Back]).expect("compiles");
        let result = run(
            &compiled.program,
            &mut RoundRobinScheduler::new(),
            &SimConfig::default(),
        )
        .expect("runs");
        assert!(result.completed, "trace:\n{}", result.trace);
        let names = result.trace.names();
        let begun: Vec<String> = result
            .trace
            .ops()
            .iter()
            .filter_map(|op| match op.kind {
                OpKind::Begin { task } => Some(names.task_name(task)),
                _ => None,
            })
            .collect();
        assert!(
            begun.iter().any(|n| n.contains("LAUNCH_ACTIVITY")),
            "{begun:?}"
        );
        assert!(begun.iter().any(|n| n.contains("onPause")), "{begun:?}");
        assert!(begun.iter().any(|n| n.contains("onStop")), "{begun:?}");
        assert!(begun.iter().any(|n| n.contains("onDestroy")), "{begun:?}");
    }

    #[test]
    fn lifecycle_tasks_run_in_automaton_order() {
        let (app, _) = music_player();
        let compiled = compile(&app, &[UiEvent::Back]).expect("compiles");
        for seed in 0..25 {
            let result = run(
                &compiled.program,
                &mut RandomScheduler::new(seed),
                &SimConfig::default(),
            )
            .expect("runs");
            let names = result.trace.names();
            let begun: Vec<String> = result
                .trace
                .ops()
                .iter()
                .filter_map(|op| match op.kind {
                    OpKind::Begin { task } => Some(names.task_name(task)),
                    _ => None,
                })
                .collect();
            let pos = |needle: &str| begun.iter().position(|n| n.contains(needle));
            let (l, p, s, d) = (
                pos("LAUNCH_ACTIVITY"),
                pos("DwFileAct.onPause"),
                pos("DwFileAct.onStop"),
                pos("DwFileAct.onDestroy"),
            );
            if let (Some(l), Some(p), Some(s), Some(d)) = (l, p, s, d) {
                assert!(l < p && p < s && s < d, "seed {seed}: {begun:?}");
            }
        }
    }

    #[test]
    fn rotation_relaunches_the_activity() {
        let (app, _) = music_player();
        let compiled = compile(&app, &[UiEvent::Rotate]).expect("compiles");
        let result = run(
            &compiled.program,
            &mut RoundRobinScheduler::new(),
            &SimConfig::default(),
        )
        .expect("runs");
        assert!(result.completed, "trace:\n{}", result.trace);
        let names = result.trace.names();
        let launches = result
            .trace
            .ops()
            .iter()
            .filter(|op| match op.kind {
                OpKind::Begin { task } => names.task_name(task).contains("LAUNCH_ACTIVITY"),
                _ => false,
            })
            .count();
        assert_eq!(launches, 2, "destroy + relaunch");
    }

    #[test]
    fn async_task_posts_progress_and_completion_to_main() {
        let (app, _) = music_player();
        let compiled = compile(&app, &[]).expect("compiles");
        let result = run(
            &compiled.program,
            &mut RoundRobinScheduler::new(),
            &SimConfig::default(),
        )
        .expect("runs");
        assert!(result.completed);
        let names = result.trace.names();
        let posted: Vec<String> = result
            .trace
            .ops()
            .iter()
            .filter_map(|op| match op.kind {
                OpKind::Post { task, .. } => Some(names.task_name(task)),
                _ => None,
            })
            .collect();
        assert!(
            posted.iter().any(|n| n.contains("onProgressUpdate")),
            "{posted:?}"
        );
        assert!(
            posted.iter().any(|n| n.contains("onPostExecute")),
            "{posted:?}"
        );
    }

    #[test]
    fn publish_progress_outside_background_is_rejected() {
        let mut b = AppBuilder::new("Bad");
        let a = b.activity("Main");
        let at = b.async_task("T", vec![], vec![], vec![], vec![]);
        let _ = at;
        b.on_create(a, vec![Stmt::PublishProgress]);
        let app = b.finish();
        assert!(matches!(
            compile(&app, &[]),
            Err(CompileError::PublishProgressOutsideBackground)
        ));
    }

    #[test]
    fn event_on_wrong_screen_is_rejected() {
        let (app, play) = music_player();
        // After BACK the app exited; the click is not available.
        let err = compile(
            &app,
            &[UiEvent::Back, UiEvent::Widget(play, UiEventKind::Click)],
        )
        .unwrap_err();
        assert!(matches!(err, CompileError::EventAfterExit));
    }

    #[test]
    fn stale_widget_id_is_rejected_not_panicking() {
        let (app, _) = music_player();
        let stale = WidgetId(999);
        let err = compile(&app, &[UiEvent::Widget(stale, UiEventKind::Click)]).unwrap_err();
        assert!(matches!(err, CompileError::UnknownWidget { index: 999 }));
    }

    #[test]
    fn recursive_activity_start_hits_depth_limit() {
        let mut b = AppBuilder::new("Loop");
        let a = b.activity("A");
        b.on_create(a, vec![Stmt::StartActivity(a)]);
        let app = b.finish();
        assert!(matches!(
            compile(&app, &[]),
            Err(CompileError::RecursionLimit)
        ));
    }

    #[test]
    fn services_and_broadcasts_run_on_main() {
        let mut b = AppBuilder::new("Svc");
        let a = b.activity("Main");
        let v = b.var("svc", "Svc.state");
        let svc = b.service(
            "SyncService",
            vec![Stmt::Write(v)],
            vec![Stmt::Read(v)],
            vec![],
        );
        let rec = b.receiver("NetReceiver", vec![Stmt::Read(v)]);
        b.on_create(a, vec![Stmt::StartService(svc), Stmt::SendBroadcast(rec)]);
        let app = b.finish();
        let compiled = compile(&app, &[]).expect("compiles");
        let result = run(
            &compiled.program,
            &mut RoundRobinScheduler::new(),
            &SimConfig::default(),
        )
        .expect("runs");
        assert!(result.completed, "trace:\n{}", result.trace);
        let names = result.trace.names();
        let begun: Vec<String> = result
            .trace
            .ops()
            .iter()
            .filter_map(|op| match op.kind {
                OpKind::Begin { task } => Some(names.task_name(task)),
                _ => None,
            })
            .collect();
        assert!(
            begun.iter().any(|n| n.contains("onStartCommand")),
            "{begun:?}"
        );
        assert!(begun.iter().any(|n| n.contains("onReceive")), "{begun:?}");
    }

    fn begun_tasks(trace: &droidracer_trace::Trace) -> Vec<String> {
        let names = trace.names();
        trace
            .ops()
            .iter()
            .filter_map(|op| match op.kind {
                OpKind::Begin { task } => Some(names.task_name(task)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn service_oncreate_runs_once_per_lifetime() {
        let mut b = AppBuilder::new("SvcLife");
        let a = b.activity("Main");
        let v = b.var("svc", "Sync.state");
        let svc = b.service(
            "Sync",
            vec![Stmt::Write(v)],
            vec![Stmt::Read(v)],
            vec![Stmt::Write(v)],
        );
        b.on_create(a, vec![Stmt::StartService(svc), Stmt::StartService(svc)]);
        let stop = b.button(a, "stop", vec![Stmt::StopService(svc)]);
        let again = b.button(a, "again", vec![Stmt::StartService(svc)]);
        let app = b.finish();
        let compiled = compile(
            &app,
            &[
                UiEvent::Widget(stop, UiEventKind::Click),
                UiEvent::Widget(again, UiEventKind::Click),
            ],
        )
        .expect("compiles");
        let result = run(
            &compiled.program,
            &mut RoundRobinScheduler::new(),
            &SimConfig::default(),
        )
        .expect("runs");
        assert!(result.completed, "trace:\n{}", result.trace);
        assert_eq!(validate(&result.trace), Ok(()));
        let begun = begun_tasks(&result.trace);
        let creates = begun.iter().filter(|n| n.contains("Sync.onCreate")).count();
        let starts = begun
            .iter()
            .filter(|n| n.contains("Sync.onStartCommand"))
            .count();
        let destroys = begun
            .iter()
            .filter(|n| n.contains("Sync.onDestroy"))
            .count();
        // onCreate once per lifetime (two lifetimes), one onStartCommand per
        // StartService, one onDestroy for the explicit stop.
        assert_eq!((creates, starts, destroys), (2, 3, 1), "{begun:?}");
        let first_create = begun
            .iter()
            .position(|n| n.contains("Sync.onCreate"))
            .unwrap();
        let first_start = begun
            .iter()
            .position(|n| n.contains("Sync.onStartCommand"))
            .unwrap();
        assert!(first_create < first_start, "{begun:?}");
    }

    #[test]
    fn intent_service_delivers_on_its_own_serial_queue() {
        let mut b = AppBuilder::new("IS");
        let a = b.activity("Main");
        let v = b.var("up", "Uploader.pending");
        let isvc = b.intent_service("Uploader", vec![Stmt::Write(v)]);
        b.on_create(
            a,
            vec![
                Stmt::StartIntentService(isvc),
                Stmt::StartIntentService(isvc),
            ],
        );
        let app = b.finish();
        let compiled = compile(&app, &[]).expect("compiles");
        let result = run(
            &compiled.program,
            &mut RoundRobinScheduler::new(),
            &SimConfig::default(),
        )
        .expect("runs");
        assert!(result.completed, "trace:\n{}", result.trace);
        assert_eq!(validate(&result.trace), Ok(()));
        let names = result.trace.names();
        // Every delivery is posted to the component's serial executor, not
        // the main Looper.
        let targets: Vec<String> = result
            .trace
            .ops()
            .iter()
            .filter_map(|op| match op.kind {
                OpKind::Post { task, target, .. }
                    if names.task_name(task).contains("onHandleIntent") =>
                {
                    Some(names.thread_name(target))
                }
                _ => None,
            })
            .collect();
        assert_eq!(targets, vec!["Uploader-queue", "Uploader-queue"]);
        let handled = begun_tasks(&result.trace)
            .iter()
            .filter(|n| n.contains("onHandleIntent"))
            .count();
        assert_eq!(handled, 2);
    }

    #[test]
    fn fragment_callbacks_splice_into_host_lifecycle() {
        let mut b = AppBuilder::new("Frag");
        let a = b.activity("Main");
        let v = b.var("frag", "Gallery.view");
        b.fragment(
            a,
            "Gallery",
            vec![Stmt::Write(v)],
            vec![],
            vec![Stmt::Read(v)],
            vec![],
        );
        let app = b.finish();
        let compiled = compile(&app, &[UiEvent::Back]).expect("compiles");
        let result = run(
            &compiled.program,
            &mut RoundRobinScheduler::new(),
            &SimConfig::default(),
        )
        .expect("runs");
        assert!(result.completed, "trace:\n{}", result.trace);
        assert_eq!(validate(&result.trace), Ok(()));
        // Track the enclosing task for each access: the fragment's attach
        // write runs inside LAUNCH_ACTIVITY, its destroy-view read inside
        // the host's onDestroy transition.
        let names = result.trace.names();
        let mut current: std::collections::HashMap<_, String> = std::collections::HashMap::new();
        let mut write_in = None;
        let mut read_in = None;
        for op in result.trace.ops() {
            match op.kind {
                OpKind::Begin { task } => {
                    current.insert(op.thread, names.task_name(task));
                }
                OpKind::End { .. } => {
                    current.remove(&op.thread);
                }
                OpKind::Write { .. } => write_in = current.get(&op.thread).cloned(),
                OpKind::Read { .. } => read_in = current.get(&op.thread).cloned(),
                _ => {}
            }
        }
        assert!(
            write_in
                .as_deref()
                .unwrap_or("")
                .contains("LAUNCH_ACTIVITY"),
            "write ran in {write_in:?}"
        );
        assert!(
            read_in.as_deref().unwrap_or("").contains("onDestroy"),
            "read ran in {read_in:?}"
        );
    }

    #[test]
    fn handler_thread_receives_posts() {
        let mut b = AppBuilder::new("HT");
        let a = b.activity("Main");
        let v = b.var("o", "C.f");
        let ht = b.handler_thread("worker-looper");
        let r = b.handler("bgWork", vec![Stmt::Write(v)]);
        b.on_create(
            a,
            vec![
                Stmt::StartHandlerThread(ht),
                Stmt::PostToHandlerThread {
                    handler: r,
                    thread: ht,
                },
            ],
        );
        let app = b.finish();
        let compiled = compile(&app, &[]).expect("compiles");
        let result = run(
            &compiled.program,
            &mut RoundRobinScheduler::new(),
            &SimConfig::default(),
        )
        .expect("runs");
        assert!(result.completed, "trace:\n{}", result.trace);
        // The post targets the handler thread, not main.
        let names = result.trace.names();
        let post = result
            .trace
            .ops()
            .iter()
            .find_map(|op| match op.kind {
                OpKind::Post { task, target, .. } if names.task_name(task) == "bgWork" => {
                    Some(target)
                }
                _ => None,
            })
            .expect("bgWork posted");
        assert_eq!(names.thread_name(post), "worker-looper");
    }

    #[test]
    fn idle_handler_runs_when_main_drains() {
        let mut b = AppBuilder::new("Idle");
        let a = b.activity("Main");
        let v = b.var("o", "C.f");
        let idle = b.handler("trimCaches", vec![Stmt::Read(v)]);
        b.on_create(a, vec![Stmt::Write(v), Stmt::AddIdleHandler(idle)]);
        let app = b.finish();
        let compiled = compile(&app, &[]).expect("compiles");
        let result = run(
            &compiled.program,
            &mut RoundRobinScheduler::new(),
            &SimConfig::default(),
        )
        .expect("runs");
        assert!(result.completed, "trace:\n{}", result.trace);
        assert_eq!(validate(&result.trace), Ok(()));
        let names = result.trace.names();
        let begun: Vec<String> = result
            .trace
            .ops()
            .iter()
            .filter_map(|op| match op.kind {
                OpKind::Begin { task } => Some(names.task_name(task)),
                _ => None,
            })
            .collect();
        assert!(begun.iter().any(|n| n.contains("trimCaches")), "{begun:?}");
    }

    #[test]
    fn timer_fires_repeatedly_with_increasing_delays() {
        let mut b = AppBuilder::new("Timer");
        let a = b.activity("Main");
        let v = b.var("o", "C.ticks");
        let tick = b.handler("tick", vec![Stmt::Write(v)]);
        b.on_create(
            a,
            vec![Stmt::ScheduleTimer {
                handler: tick,
                delay: 100,
                period: 50,
                repetitions: 3,
            }],
        );
        let app = b.finish();
        let compiled = compile(&app, &[]).expect("compiles");
        let result = run(
            &compiled.program,
            &mut RoundRobinScheduler::new(),
            &SimConfig::default(),
        )
        .expect("runs");
        assert!(result.completed, "trace:\n{}", result.trace);
        assert_eq!(validate(&result.trace), Ok(()));
        let names = result.trace.names();
        let delays: Vec<u64> = result
            .trace
            .ops()
            .iter()
            .filter_map(|op| match op.kind {
                OpKind::Post { task, kind, .. } if names.task_name(task).contains("tick") => {
                    kind.delay()
                }
                _ => None,
            })
            .collect();
        assert_eq!(delays, vec![100, 150, 200]);
        // The timer runs on its own thread, as Java timers do.
        assert!(names.threads().any(|(_, d)| d.name.starts_with("timer-")));
        let ticks = result
            .trace
            .ops()
            .iter()
            .filter(|op| matches!(op.kind, OpKind::Begin { task } if names.task_name(task).contains("tick")))
            .count();
        assert_eq!(ticks, 3);
    }

    #[test]
    fn dynamic_receiver_requires_registration() {
        let mut b = AppBuilder::new("Dyn");
        let a = b.activity("Main");
        let v = b.var("o", "C.f");
        let rec = b.dynamic_receiver("NetReceiver", vec![Stmt::Read(v)]);
        // Registration happens in onCreate, the broadcast arrives from a
        // worker: the enable comes from the registration site.
        let sender = b.worker("net", vec![Stmt::SendBroadcast(rec)]);
        b.on_create(
            a,
            vec![Stmt::RegisterReceiver(rec), Stmt::ForkWorker(sender)],
        );
        let app = b.finish();
        let compiled = compile(&app, &[]).expect("compiles");
        let result = run(
            &compiled.program,
            &mut RoundRobinScheduler::new(),
            &SimConfig::default(),
        )
        .expect("runs");
        assert!(result.completed, "trace:\n{}", result.trace);
        assert_eq!(validate(&result.trace), Ok(()));
        // Exactly one enable (from RegisterReceiver, on main), not from the
        // sending worker.
        let names = result.trace.names();
        let enables: Vec<_> = result
            .trace
            .ops()
            .iter()
            .filter(|op| matches!(op.kind, OpKind::Enable { task } if names.task_name(task).contains("onReceive")))
            .collect();
        assert_eq!(enables.len(), 1);
        assert_eq!(names.thread_name(enables[0].thread), "main");
    }

    #[test]
    fn widget_enable_counts_cover_repeated_clicks() {
        let mut b = AppBuilder::new("Clicks");
        let a = b.activity("Main");
        let v = b.var("o", "C.f");
        let btn = b.button(a, "inc", vec![Stmt::Write(v)]);
        let app = b.finish();
        let ev = UiEvent::Widget(btn, UiEventKind::Click);
        let compiled = compile(&app, &[ev, ev, ev]).expect("compiles");
        let result = run(
            &compiled.program,
            &mut RoundRobinScheduler::new(),
            &SimConfig::default(),
        )
        .expect("runs");
        assert!(result.completed, "trace:\n{}", result.trace);
        let handler_runs = result
            .trace
            .ops()
            .iter()
            .filter(|op| matches!(op.kind, OpKind::Begin { task } if result.trace.names().task_name(task).contains("inc")))
            .count();
        assert_eq!(handler_runs, 3);
    }
}
