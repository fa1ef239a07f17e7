//! The application model: activities, widgets, AsyncTasks, services,
//! broadcast receivers, worker threads and handlers.
//!
//! An [`App`] is the framework-level description of an Android application —
//! the analogue of the APK DroidRacer tests. App code is written in the
//! [`Stmt`] language, a thin veneer over the simulator's core language that
//! knows about framework concepts (`execute()` on an AsyncTask,
//! `startActivity`, `Handler.post`, …). The compiler in [`crate::compile`]
//! lowers an `App` plus a UI event sequence to a [`droidracer_sim::Program`].

use std::fmt;

/// Reference to an activity of an [`App`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActivityId(pub(crate) usize);

/// Reference to a widget of an [`App`]. An id made by another app that does
/// not exist in the compiled one is rejected by [`crate::compile`] with a
/// typed error, never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WidgetId(pub(crate) usize);

/// Reference to an AsyncTask definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AsyncTaskId(pub(crate) usize);

/// Reference to a Service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServiceId(pub(crate) usize);

/// Reference to an IntentService (a service with its own serial executor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IntentServiceId(pub(crate) usize);

/// Reference to a Fragment nested inside a host activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FragmentId(pub(crate) usize);

/// Reference to a BroadcastReceiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReceiverId(pub(crate) usize);

/// Reference to a plain worker thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkerId(pub(crate) usize);

/// Reference to a `HandlerThread` (a forked thread with its own looper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HandlerThreadId(pub(crate) usize);

/// Reference to a posted runnable (a `Handler.post` target).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HandlerId(pub(crate) usize);

/// Reference to a shared memory location (an object field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub(crate) usize);

/// Reference to a lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Mutex(pub(crate) usize);

/// Kinds of UI events a widget can receive (a subset of what DroidRacer's UI
/// Explorer generates: click, long-click, text input).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UiEventKind {
    /// A tap.
    Click,
    /// A long press.
    LongClick,
    /// Text entry into a field.
    TextInput,
}

impl UiEventKind {
    /// Short label used in event names.
    pub fn label(self) -> &'static str {
        match self {
            UiEventKind::Click => "click",
            UiEventKind::LongClick => "long-click",
            UiEventKind::TextInput => "text",
        }
    }
}

impl fmt::Display for UiEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One statement of framework-level application code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// Read a shared field.
    Read(Var),
    /// Write a shared field.
    Write(Var),
    /// `synchronized (m) { body }`.
    Synchronized(Mutex, Vec<Stmt>),
    /// `new SomeAsyncTask().execute(…)`: runs `onPreExecute` synchronously,
    /// then forks the background thread.
    ExecuteAsyncTask(AsyncTaskId),
    /// `publishProgress(…)` — only legal inside `doInBackground`; posts the
    /// enclosing AsyncTask's `onProgressUpdate` to the main thread.
    PublishProgress,
    /// `Handler.post`/`postDelayed`/`postAtFrontOfQueue` of a runnable to
    /// the main thread.
    Post {
        /// The runnable.
        handler: HandlerId,
        /// Timeout for `postDelayed`.
        delay: Option<u64>,
        /// `postAtFrontOfQueue` (extension beyond the paper).
        front: bool,
    },
    /// Post a runnable to a `HandlerThread`'s looper.
    PostToHandlerThread {
        /// The runnable.
        handler: HandlerId,
        /// The target looper thread.
        thread: HandlerThreadId,
    },
    /// `removeCallbacks`: cancel the oldest pending post of the runnable.
    CancelPost(HandlerId),
    /// `new Thread(...).start()`.
    ForkWorker(WorkerId),
    /// `thread.join()` on the most recently started instance.
    JoinWorker(WorkerId),
    /// Fork a `HandlerThread` (attaches a queue and loops).
    StartHandlerThread(HandlerThreadId),
    /// `startService(intent)`.
    StartService(ServiceId),
    /// `stopService(intent)`.
    StopService(ServiceId),
    /// `sendBroadcast(intent)` delivered to the receiver.
    SendBroadcast(ReceiverId),
    /// `startActivity(intent)`.
    StartActivity(ActivityId),
    /// `finish()` on the current activity.
    FinishActivity,
    /// `widget.setEnabled(true)`-style enabling of one UI event.
    EnableWidget(WidgetId, UiEventKind),
    /// `Looper.myQueue().addIdleHandler(…)`: run the runnable once the main
    /// looper's queue drains (one-shot).
    AddIdleHandler(HandlerId),
    /// `new Timer().schedule(task, delay, period)` for a bounded number of
    /// firings: a timer thread posts the runnable `repetitions` times with
    /// increasing delays — "connect periodic execution of Java's TimerTask
    /// objects" (§5).
    ScheduleTimer {
        /// The runnable to fire.
        handler: HandlerId,
        /// Initial delay (virtual ms).
        delay: u64,
        /// Period between firings.
        period: u64,
        /// Number of firings (Java timers are unbounded; the model needs a
        /// bound).
        repetitions: u32,
    },
    /// `registerReceiver(receiver, filter)` for a dynamically registered
    /// receiver: broadcasts can only be delivered after registration.
    RegisterReceiver(ReceiverId),
    /// `startService(intent)` on an `IntentService`: queues one
    /// `onHandleIntent` on the component's serial executor.
    StartIntentService(IntentServiceId),
}

/// The seven lifecycle callback bodies of an activity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CallbackBodies {
    /// `onCreate`.
    pub create: Vec<Stmt>,
    /// `onStart`.
    pub start: Vec<Stmt>,
    /// `onResume`.
    pub resume: Vec<Stmt>,
    /// `onPause`.
    pub pause: Vec<Stmt>,
    /// `onStop`.
    pub stop: Vec<Stmt>,
    /// `onRestart`.
    pub restart: Vec<Stmt>,
    /// `onDestroy`.
    pub destroy: Vec<Stmt>,
}

#[derive(Debug, Clone)]
pub(crate) struct ActivityDef {
    pub name: String,
    pub callbacks: CallbackBodies,
    pub widgets: Vec<WidgetId>,
}

#[derive(Debug, Clone)]
pub(crate) struct WidgetDef {
    pub activity: ActivityId,
    pub name: String,
    pub handlers: Vec<(UiEventKind, Vec<Stmt>)>,
    pub initially_enabled: bool,
}

#[derive(Debug, Clone, Default)]
pub(crate) struct AsyncTaskDef {
    pub name: String,
    pub pre_execute: Vec<Stmt>,
    pub background: Vec<Stmt>,
    pub progress_update: Vec<Stmt>,
    pub post_execute: Vec<Stmt>,
}

#[derive(Debug, Clone, Default)]
pub(crate) struct ServiceDef {
    pub name: String,
    pub create: Vec<Stmt>,
    pub start_command: Vec<Stmt>,
    pub destroy: Vec<Stmt>,
}

#[derive(Debug, Clone, Default)]
pub(crate) struct IntentServiceDef {
    pub name: String,
    /// `onHandleIntent`, run on the component's own serial-executor queue.
    pub handle_intent: Vec<Stmt>,
}

#[derive(Debug, Clone)]
pub(crate) struct FragmentDef {
    pub name: String,
    pub activity: ActivityId,
    /// `onAttach`, spliced into the host's LAUNCH transition.
    pub attach: Vec<Stmt>,
    /// `onCreateView`, spliced into the host's LAUNCH transition.
    pub create_view: Vec<Stmt>,
    /// `onDestroyView`, spliced into the host's destroy transition.
    pub destroy_view: Vec<Stmt>,
    /// `onDetach`, spliced into the host's destroy transition.
    pub detach: Vec<Stmt>,
}

#[derive(Debug, Clone, Default)]
pub(crate) struct ReceiverDef {
    pub name: String,
    pub receive: Vec<Stmt>,
    /// Dynamically registered receivers need a `RegisterReceiver` before
    /// broadcasts reach them; manifest-declared ones are enabled at send.
    pub dynamic: bool,
}

#[derive(Debug, Clone, Default)]
pub(crate) struct WorkerDef {
    pub name: String,
    pub body: Vec<Stmt>,
}

#[derive(Debug, Clone, Default)]
pub(crate) struct HandlerDef {
    pub name: String,
    pub body: Vec<Stmt>,
}

/// A complete framework-level application.
#[derive(Debug, Clone, Default)]
pub struct App {
    pub(crate) name: String,
    pub(crate) activities: Vec<ActivityDef>,
    pub(crate) widgets: Vec<WidgetDef>,
    pub(crate) async_tasks: Vec<AsyncTaskDef>,
    pub(crate) services: Vec<ServiceDef>,
    pub(crate) intent_services: Vec<IntentServiceDef>,
    pub(crate) fragments: Vec<FragmentDef>,
    pub(crate) receivers: Vec<ReceiverDef>,
    pub(crate) workers: Vec<WorkerDef>,
    pub(crate) handler_threads: Vec<String>,
    pub(crate) handlers: Vec<HandlerDef>,
    pub(crate) vars: Vec<(String, String)>,
    pub(crate) mutexes: Vec<String>,
    pub(crate) main_activity: Option<ActivityId>,
}

impl App {
    /// Application name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The launcher activity.
    pub fn main_activity(&self) -> Option<ActivityId> {
        self.main_activity
    }

    /// All activities in declaration order.
    pub fn activities(&self) -> impl Iterator<Item = ActivityId> {
        (0..self.activities.len()).map(ActivityId)
    }

    /// Display name of an activity.
    pub fn activity_name(&self, a: ActivityId) -> &str {
        &self.activities[a.0].name
    }

    /// Widgets of an activity.
    pub fn widgets_of(&self, a: ActivityId) -> &[WidgetId] {
        &self.activities[a.0].widgets
    }

    /// Display name of a widget.
    pub fn widget_name(&self, w: WidgetId) -> &str {
        &self.widgets[w.0].name
    }

    /// The activity owning a widget.
    pub fn widget_activity(&self, w: WidgetId) -> ActivityId {
        self.widgets[w.0].activity
    }

    /// UI event kinds the widget handles.
    pub fn widget_events(&self, w: WidgetId) -> Vec<UiEventKind> {
        self.widgets[w.0].handlers.iter().map(|(k, _)| *k).collect()
    }

    /// Whether a widget's events are available without an `EnableWidget`.
    pub fn widget_initially_enabled(&self, w: WidgetId) -> bool {
        self.widgets[w.0].initially_enabled
    }

    /// Fragments attached to an activity, in declaration order.
    pub fn fragments_of(&self, a: ActivityId) -> Vec<FragmentId> {
        (0..self.fragments.len())
            .map(FragmentId)
            .filter(|f| self.fragments[f.0].activity == a)
            .collect()
    }

    /// Display name of a fragment.
    pub fn fragment_name(&self, f: FragmentId) -> &str {
        &self.fragments[f.0].name
    }

    /// Display name of an intent service.
    pub fn intent_service_name(&self, s: IntentServiceId) -> &str {
        &self.intent_services[s.0].name
    }
}

/// Builds an [`App`].
///
/// # Examples
///
/// ```
/// use droidracer_framework::{AppBuilder, Stmt, UiEventKind};
///
/// let mut app = AppBuilder::new("MusicPlayer");
/// let act = app.activity("DwFileAct");
/// let flag = app.var("DwFileAct-obj", "isActivityDestroyed");
/// app.on_create(act, vec![Stmt::Write(flag)]);
/// app.on_destroy(act, vec![Stmt::Write(flag)]);
/// let play = app.button(act, "playBtn", vec![Stmt::Read(flag)]);
/// let app = app.finish();
/// assert_eq!(app.widget_events(play), vec![UiEventKind::Click]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AppBuilder {
    app: App,
}

impl AppBuilder {
    /// Starts an app named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        AppBuilder {
            app: App {
                name: name.into(),
                ..App::default()
            },
        }
    }

    /// Declares an activity; the first one becomes the launcher activity.
    pub fn activity(&mut self, name: impl Into<String>) -> ActivityId {
        let id = ActivityId(self.app.activities.len());
        self.app.activities.push(ActivityDef {
            name: name.into(),
            callbacks: CallbackBodies::default(),
            widgets: Vec::new(),
        });
        if self.app.main_activity.is_none() {
            self.app.main_activity = Some(id);
        }
        id
    }

    /// Sets `onCreate`.
    pub fn on_create(&mut self, a: ActivityId, body: Vec<Stmt>) {
        self.app.activities[a.0].callbacks.create = body;
    }

    /// Sets `onStart`.
    pub fn on_start(&mut self, a: ActivityId, body: Vec<Stmt>) {
        self.app.activities[a.0].callbacks.start = body;
    }

    /// Sets `onResume`.
    pub fn on_resume(&mut self, a: ActivityId, body: Vec<Stmt>) {
        self.app.activities[a.0].callbacks.resume = body;
    }

    /// Sets `onPause`.
    pub fn on_pause(&mut self, a: ActivityId, body: Vec<Stmt>) {
        self.app.activities[a.0].callbacks.pause = body;
    }

    /// Sets `onStop`.
    pub fn on_stop(&mut self, a: ActivityId, body: Vec<Stmt>) {
        self.app.activities[a.0].callbacks.stop = body;
    }

    /// Sets `onRestart`.
    pub fn on_restart(&mut self, a: ActivityId, body: Vec<Stmt>) {
        self.app.activities[a.0].callbacks.restart = body;
    }

    /// Sets `onDestroy`.
    pub fn on_destroy(&mut self, a: ActivityId, body: Vec<Stmt>) {
        self.app.activities[a.0].callbacks.destroy = body;
    }

    /// Declares a widget on `activity` handling the given events.
    pub fn widget(
        &mut self,
        activity: ActivityId,
        name: impl Into<String>,
        handlers: Vec<(UiEventKind, Vec<Stmt>)>,
    ) -> WidgetId {
        let id = WidgetId(self.app.widgets.len());
        self.app.widgets.push(WidgetDef {
            activity,
            name: name.into(),
            handlers,
            initially_enabled: true,
        });
        self.app.activities[activity.0].widgets.push(id);
        id
    }

    /// Shorthand for a clickable button.
    pub fn button(
        &mut self,
        activity: ActivityId,
        name: impl Into<String>,
        on_click: Vec<Stmt>,
    ) -> WidgetId {
        self.widget(activity, name, vec![(UiEventKind::Click, on_click)])
    }

    /// Marks a widget as disabled until an [`Stmt::EnableWidget`] runs.
    pub fn initially_disabled(&mut self, w: WidgetId) {
        self.app.widgets[w.0].initially_enabled = false;
    }

    /// Declares an AsyncTask with its four callback bodies.
    pub fn async_task(
        &mut self,
        name: impl Into<String>,
        pre_execute: Vec<Stmt>,
        background: Vec<Stmt>,
        progress_update: Vec<Stmt>,
        post_execute: Vec<Stmt>,
    ) -> AsyncTaskId {
        let id = AsyncTaskId(self.app.async_tasks.len());
        self.app.async_tasks.push(AsyncTaskDef {
            name: name.into(),
            pre_execute,
            background,
            progress_update,
            post_execute,
        });
        id
    }

    /// Declares a Service.
    pub fn service(
        &mut self,
        name: impl Into<String>,
        create: Vec<Stmt>,
        start_command: Vec<Stmt>,
        destroy: Vec<Stmt>,
    ) -> ServiceId {
        let id = ServiceId(self.app.services.len());
        self.app.services.push(ServiceDef {
            name: name.into(),
            create,
            start_command,
            destroy,
        });
        id
    }

    /// Declares an IntentService: each [`Stmt::StartIntentService`] queues
    /// one `onHandleIntent` run on the component's own serial executor (a
    /// dedicated FIFO queue thread, distinct from the main Looper).
    pub fn intent_service(
        &mut self,
        name: impl Into<String>,
        handle_intent: Vec<Stmt>,
    ) -> IntentServiceId {
        let id = IntentServiceId(self.app.intent_services.len());
        self.app.intent_services.push(IntentServiceDef {
            name: name.into(),
            handle_intent,
        });
        id
    }

    /// Declares a Fragment nested in `activity`: attach/createView run
    /// inside the host's LAUNCH transition, destroyView/detach inside the
    /// host's destroy transition (per the Fragment automaton in
    /// [`crate::dsl`]).
    pub fn fragment(
        &mut self,
        activity: ActivityId,
        name: impl Into<String>,
        attach: Vec<Stmt>,
        create_view: Vec<Stmt>,
        destroy_view: Vec<Stmt>,
        detach: Vec<Stmt>,
    ) -> FragmentId {
        let id = FragmentId(self.app.fragments.len());
        self.app.fragments.push(FragmentDef {
            name: name.into(),
            activity,
            attach,
            create_view,
            destroy_view,
            detach,
        });
        id
    }

    /// Declares a manifest-registered BroadcastReceiver (deliverable from
    /// the first broadcast).
    pub fn receiver(&mut self, name: impl Into<String>, receive: Vec<Stmt>) -> ReceiverId {
        let id = ReceiverId(self.app.receivers.len());
        self.app.receivers.push(ReceiverDef {
            name: name.into(),
            receive,
            dynamic: false,
        });
        id
    }

    /// Declares a dynamically registered BroadcastReceiver: broadcasts are
    /// only deliverable after a [`Stmt::RegisterReceiver`] ran.
    pub fn dynamic_receiver(&mut self, name: impl Into<String>, receive: Vec<Stmt>) -> ReceiverId {
        let id = ReceiverId(self.app.receivers.len());
        self.app.receivers.push(ReceiverDef {
            name: name.into(),
            receive,
            dynamic: true,
        });
        id
    }

    /// Declares a plain worker thread.
    pub fn worker(&mut self, name: impl Into<String>, body: Vec<Stmt>) -> WorkerId {
        let id = WorkerId(self.app.workers.len());
        self.app.workers.push(WorkerDef {
            name: name.into(),
            body,
        });
        id
    }

    /// Declares a `HandlerThread` (forked looper).
    pub fn handler_thread(&mut self, name: impl Into<String>) -> HandlerThreadId {
        let id = HandlerThreadId(self.app.handler_threads.len());
        self.app.handler_threads.push(name.into());
        id
    }

    /// Declares a postable runnable.
    pub fn handler(&mut self, name: impl Into<String>, body: Vec<Stmt>) -> HandlerId {
        let id = HandlerId(self.app.handlers.len());
        self.app.handlers.push(HandlerDef {
            name: name.into(),
            body,
        });
        id
    }

    /// Declares a shared field `object.field`.
    pub fn var(&mut self, object: impl Into<String>, field: impl Into<String>) -> Var {
        let id = Var(self.app.vars.len());
        self.app.vars.push((object.into(), field.into()));
        id
    }

    /// Declares a lock.
    pub fn mutex(&mut self, name: impl Into<String>) -> Mutex {
        let id = Mutex(self.app.mutexes.len());
        self.app.mutexes.push(name.into());
        id
    }

    /// Finalizes the app.
    pub fn finish(self) -> App {
        self.app
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_activity_is_launcher() {
        let mut b = AppBuilder::new("X");
        let a = b.activity("Main");
        let c = b.activity("Other");
        let app = b.finish();
        assert_eq!(app.main_activity(), Some(a));
        assert_eq!(app.activity_name(c), "Other");
        assert_eq!(app.activities().count(), 2);
    }

    #[test]
    fn widgets_attach_to_activities() {
        let mut b = AppBuilder::new("X");
        let a = b.activity("Main");
        let w = b.widget(
            a,
            "field",
            vec![
                (UiEventKind::Click, vec![]),
                (UiEventKind::TextInput, vec![]),
            ],
        );
        let app = b.finish();
        assert_eq!(app.widgets_of(a), &[w]);
        assert_eq!(app.widget_activity(w), a);
        assert_eq!(
            app.widget_events(w),
            vec![UiEventKind::Click, UiEventKind::TextInput]
        );
        assert!(app.widget_initially_enabled(w));
    }

    #[test]
    fn initially_disabled_flag() {
        let mut b = AppBuilder::new("X");
        let a = b.activity("Main");
        let w = b.button(a, "play", vec![]);
        b.initially_disabled(w);
        assert!(!b.finish().widget_initially_enabled(w));
    }

    #[test]
    fn declarations_get_distinct_ids() {
        let mut b = AppBuilder::new("X");
        let v1 = b.var("o", "f");
        let v2 = b.var("o", "g");
        assert_ne!(v1, v2);
        let m1 = b.mutex("a");
        let m2 = b.mutex("b");
        assert_ne!(m1, m2);
        let h1 = b.handler("r1", vec![]);
        let h2 = b.handler("r2", vec![]);
        assert_ne!(h1, h2);
    }

    #[test]
    fn event_kind_labels() {
        assert_eq!(UiEventKind::Click.to_string(), "click");
    }
}
