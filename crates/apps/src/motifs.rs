//! Reusable concurrency motifs for building the synthetic corpus.
//!
//! Each of the 15 applications in the paper's evaluation is assembled from a
//! small set of recurring concurrency patterns — an `AsyncTask` download, a
//! cursor swapped between tasks, lifecycle callbacks racing with background
//! work, delayed refreshes, custom task queues, untracked native threads.
//! [`MotifBuilder`] provides those patterns as composable operations that
//! plant races with known ground truth:
//!
//! * *true positives* are plain unordered conflicting accesses, which an
//!   alternative schedule (or event order) really can flip;
//! * *false positives* are pairs ordered by a mechanism the tracer cannot
//!   see — joins of `untracked:` native threads, enables of `untracked:`
//!   dialog widgets — which [`crate::strip_untracked`] erases from the trace
//!   before analysis, mirroring DroidRacer's blind spots (§6 "False
//!   positives and negatives").

use std::collections::BTreeMap;

use droidracer_core::RaceCategory;
use droidracer_framework::{ActivityId, App, AppBuilder, Stmt, UiEvent, UiEventKind, Var};

/// Ground truth for one planted race, keyed by its field name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceTruth {
    /// The category the race should be classified into.
    pub category: RaceCategory,
    /// Whether the race is real (reorderable) or a false positive caused by
    /// synchronization invisible to the tracer.
    pub is_true: bool,
    /// Why.
    pub note: &'static str,
}

/// Ground truth table: planted field name → truth.
pub type GroundTruth = BTreeMap<String, RaceTruth>;

/// Assembles an [`App`], an event sequence and a [`GroundTruth`] from
/// composable motifs.
#[derive(Debug)]
pub struct MotifBuilder {
    app: AppBuilder,
    act: ActivityId,
    on_create: Vec<Stmt>,
    on_stop: Vec<Stmt>,
    on_destroy: Vec<Stmt>,
    events: Vec<UiEvent>,
    truth: GroundTruth,
    field_counter: usize,
    object: String,
}

impl MotifBuilder {
    /// Starts an app with a single launcher activity.
    pub fn new(app_name: &str, activity_name: &str) -> Self {
        let mut app = AppBuilder::new(app_name);
        let act = app.activity(activity_name);
        MotifBuilder {
            app,
            act,
            on_create: Vec::new(),
            on_stop: Vec::new(),
            on_destroy: Vec::new(),
            events: Vec::new(),
            truth: GroundTruth::new(),
            field_counter: 0,
            object: format!("{activity_name}-obj"),
        }
    }

    /// The launcher activity.
    pub fn activity(&self) -> ActivityId {
        self.act
    }

    /// Direct access to the underlying [`AppBuilder`] for app-specific
    /// flourishes.
    pub fn app_builder(&mut self) -> &mut AppBuilder {
        &mut self.app
    }

    /// Appends raw statements to the launcher's `onCreate`.
    pub fn on_create(&mut self, stmts: impl IntoIterator<Item = Stmt>) {
        self.on_create.extend(stmts);
    }

    /// Appends a UI event to the driven sequence.
    pub fn push_event(&mut self, event: UiEvent) {
        self.events.push(event);
    }

    /// The ground truth planted so far. Lets callers synthesize paper rows
    /// whose reported counts match the planted races exactly.
    pub fn truth(&self) -> &GroundTruth {
        &self.truth
    }

    fn fresh_field(&mut self, tag: &str) -> (Var, String) {
        let name = format!("{tag}{}", self.field_counter);
        self.field_counter += 1;
        let var = self.app.var(self.object.clone(), name.clone());
        (var, name)
    }

    fn record(&mut self, field: String, category: RaceCategory, is_true: bool, note: &'static str) {
        self.truth.insert(
            field,
            RaceTruth {
                category,
                is_true,
                note,
            },
        );
    }

    /// Main-thread compute: `fields` private fields written `repeats` times
    /// each in `onCreate`. Pumps trace length and the Table 2 field count
    /// without creating races.
    pub fn filler(&mut self, fields: usize, repeats: usize) {
        for _ in 0..fields {
            let (v, _) = self.fresh_field("local.f");
            for _ in 0..repeats {
                self.on_create.push(Stmt::Write(v));
            }
        }
    }

    /// Background compute on `n` forked worker threads, each writing its own
    /// `fields` private fields `repeats` times. Pumps the count of threads
    /// without queues, race-free.
    pub fn bg_filler(&mut self, n: usize, fields: usize, repeats: usize) {
        for i in 0..n {
            let mut body = Vec::new();
            for _ in 0..fields {
                let (v, _) = self.fresh_field("bg.f");
                for _ in 0..repeats {
                    body.push(Stmt::Write(v));
                }
            }
            let w = self.app.worker(format!("compute-{i}"), body);
            self.on_create.push(Stmt::ForkWorker(w));
        }
    }

    /// `n` looper threads (`HandlerThread`s), each receiving one private
    /// runnable. Pumps the threads-with-queues count.
    pub fn handler_threads(&mut self, n: usize) {
        for i in 0..n {
            let (v, _) = self.fresh_field("ht.f");
            let ht = self.app.handler_thread(format!("handler-thread-{i}"));
            let r = self
                .app
                .handler(format!("htWork-{i}"), vec![Stmt::Write(v), Stmt::Read(v)]);
            self.on_create.push(Stmt::StartHandlerThread(ht));
            self.on_create.push(Stmt::PostToHandlerThread {
                handler: r,
                thread: ht,
            });
        }
    }

    /// Posts `n` copies of a small runnable to the main looper — the
    /// asynchronous-call burst driving the Table 2 "Async. tasks" column.
    pub fn handler_burst(&mut self, n: usize) {
        let (v, _) = self.fresh_field("burst.f");
        let r = self
            .app
            .handler("burstWork", vec![Stmt::Read(v), Stmt::Write(v)]);
        for _ in 0..n {
            self.on_create.push(Stmt::Post {
                handler: r,
                delay: None,
                front: false,
            });
        }
    }

    /// `n` executions of an AsyncTask doing a chunked download with progress
    /// updates — the §2 music-player motif (pumps async tasks and threads).
    pub fn async_burst(&mut self, n: usize, chunks: usize) {
        let (v, _) = self.fresh_field("dl.f");
        let mut background = Vec::new();
        for _ in 0..chunks {
            background.push(Stmt::Read(v));
            background.push(Stmt::PublishProgress);
        }
        let at = self.app.async_task(
            "DownloadTask",
            vec![Stmt::Read(v)],
            background,
            vec![Stmt::Read(v)],
            vec![Stmt::Read(v)],
        );
        for _ in 0..n {
            self.on_create.push(Stmt::ExecuteAsyncTask(at));
        }
    }

    /// Plants multi-threaded races: a forked loader thread writes the
    /// fields, a main-thread runnable reads them without synchronization
    /// (one loader/reader pair per group, like a Service loading shared
    /// state — the Aard Dictionary bug). False positives are ordered by a
    /// join of an `untracked:` thread, which the trace scrubber erases.
    pub fn mt_races(&mut self, n_true: usize, n_false: usize) {
        for (hidden, n) in [(false, n_true), (true, n_false)] {
            if n == 0 {
                continue;
            }
            let tag = if hidden { "mt.fp.f" } else { "mt.f" };
            let fields: Vec<(Var, String)> = (0..n).map(|_| self.fresh_field(tag)).collect();
            // The hidden variant uses the classic ad-hoc hand-off shape:
            // payloads written first, a ready-flag (the last field) written
            // last; the reader polls the flag before touching the payloads.
            // Race-coverage triage then collapses the payload races behind
            // the flag race.
            let writes: Vec<Stmt> = fields.iter().map(|(v, _)| Stmt::Write(*v)).collect();
            let prefix = if hidden { "untracked:loader" } else { "loader" };
            let suffix = if hidden { "-hidden" } else { "" };
            let w = self.app.worker(format!("{prefix}{suffix}"), writes);
            let mut reader_body = Vec::new();
            if hidden {
                // Real ordering: the reader joins the loader first, but the
                // join is native and invisible in the trace.
                reader_body.push(Stmt::JoinWorker(w));
                // Poll the ready flag, then consume the payloads.
                reader_body.extend(fields.iter().rev().map(|(v, _)| Stmt::Read(*v)));
            } else {
                reader_body.extend(fields.iter().map(|(v, _)| Stmt::Read(*v)));
            }
            let r = self
                .app
                .handler(format!("stateReader{suffix}"), reader_body);
            self.on_create.push(Stmt::ForkWorker(w));
            self.on_create.push(Stmt::Post {
                handler: r,
                delay: None,
                front: false,
            });
            for (_, name) in fields {
                self.record(
                    name,
                    RaceCategory::Multithreaded,
                    !hidden,
                    if hidden {
                        "ordered by an untracked native join"
                    } else {
                        "loader thread vs main-thread reader, no synchronization"
                    },
                );
            }
        }
    }

    /// Properly synchronized cross-thread work that must NOT be reported:
    /// a writer thread initializes fields which a main-thread runnable reads
    /// after a `join`, plus a lock-protected pair. The paper's relation
    /// orders both; the async-only specialization (which drops fork/join and
    /// lock rules, §4.1) reports every one of these as a false positive.
    pub fn safe_sync(&mut self, fields: usize, repeats: usize) {
        let join_half: Vec<(Var, String)> = (0..fields / 2)
            .map(|_| self.fresh_field("safe.j.f"))
            .collect();
        let lock_half: Vec<(Var, String)> = (0..fields - fields / 2)
            .map(|_| self.fresh_field("safe.l.f"))
            .collect();
        let m = self.app.mutex("stateLock");
        let mut worker_body = Vec::new();
        for _ in 0..repeats {
            worker_body.extend(join_half.iter().map(|(v, _)| Stmt::Write(*v)));
        }
        worker_body.push(Stmt::Synchronized(
            m,
            lock_half.iter().map(|(v, _)| Stmt::Write(*v)).collect(),
        ));
        let w = self.app.worker("sync-writer", worker_body);
        let mut joined_reader = vec![Stmt::JoinWorker(w)];
        joined_reader.extend(join_half.iter().map(|(v, _)| Stmt::Read(*v)));
        let r1 = self.app.handler("joinedReader", joined_reader);
        let locked_reader = vec![Stmt::Synchronized(
            m,
            lock_half.iter().map(|(v, _)| Stmt::Read(*v)).collect(),
        )];
        let r2 = self.app.handler("lockedReader", locked_reader);
        self.on_create.push(Stmt::ForkWorker(w));
        for r in [r1, r2] {
            self.on_create.push(Stmt::Post {
                handler: r,
                delay: None,
                front: false,
            });
        }
    }

    /// Plants cross-posted single-threaded races: two workers independently
    /// post runnables to main that write the same fields. The true races'
    /// writes sit inside `synchronized` blocks on one lock — locks cannot
    /// order two tasks running sequentially on one thread, so the paper's
    /// relation still reports them, while the naive combination derives the
    /// spurious same-thread lock ordering and silently drops them (the
    /// introduction's motivating flaw). False positives chain the second
    /// worker behind the first via an untracked join, so the posts are
    /// really ordered (the custom-task-queue blind spot).
    pub fn cross_posted_races(&mut self, n_true: usize, n_false: usize) {
        if n_true > 0 {
            let fields: Vec<(Var, String)> =
                (0..n_true).map(|_| self.fresh_field("xp.f")).collect();
            let m = self.app.mutex("cursorLock");
            let writes = vec![Stmt::Synchronized(
                m,
                fields.iter().map(|(v, _)| Stmt::Write(*v)).collect(),
            )];
            let r1 = self.app.handler("cursorSwapA", writes.clone());
            let r2 = self.app.handler("cursorSwapB", writes);
            let w1 = self.app.worker(
                "poster-a",
                vec![Stmt::Post {
                    handler: r1,
                    delay: None,
                    front: false,
                }],
            );
            let w2 = self.app.worker(
                "poster-b",
                vec![Stmt::Post {
                    handler: r2,
                    delay: None,
                    front: false,
                }],
            );
            self.on_create.push(Stmt::ForkWorker(w1));
            self.on_create.push(Stmt::ForkWorker(w2));
            for (_, name) in fields {
                self.record(
                    name,
                    RaceCategory::CrossPosted,
                    true,
                    "runnables posted by unordered background threads",
                );
            }
        }
        if n_false > 0 {
            let fields: Vec<(Var, String)> =
                (0..n_false).map(|_| self.fresh_field("xp.fp.f")).collect();
            // Custom-queue hand-off shape: work A publishes its results and
            // finally a guard (the last field); work B inspects the guard
            // first, then overwrites the results — so coverage triage can
            // collapse the result races behind the guard race.
            let writes: Vec<Stmt> = fields.iter().map(|(v, _)| Stmt::Write(*v)).collect();
            let reversed: Vec<Stmt> = fields.iter().rev().map(|(v, _)| Stmt::Write(*v)).collect();
            let r1 = self.app.handler("queuedWorkA", writes);
            let r2 = self.app.handler("queuedWorkB", reversed);
            let w1 = self.app.worker(
                "untracked:queue-a",
                vec![Stmt::Post {
                    handler: r1,
                    delay: None,
                    front: false,
                }],
            );
            // The custom task queue: worker b waits (natively) for worker a
            // before posting, so the posts are really FIFO.
            let w2 = self.app.worker(
                "custom-queue-drainer",
                vec![
                    Stmt::JoinWorker(w1),
                    Stmt::Post {
                        handler: r2,
                        delay: None,
                        front: false,
                    },
                ],
            );
            self.on_create.push(Stmt::ForkWorker(w1));
            self.on_create.push(Stmt::ForkWorker(w2));
            for (_, name) in fields {
                self.record(
                    name,
                    RaceCategory::CrossPosted,
                    false,
                    "custom task queue drains in order; the ordering is invisible",
                );
            }
        }
    }

    /// Plants co-enabled races: two buttons whose click handlers write the
    /// same fields, both clicked. False positives use an `untracked:` dialog
    /// button whose enabling (inside the first handler) is erased from the
    /// trace, although the second event really cannot fire first.
    pub fn co_enabled_races(&mut self, n_true: usize, n_false: usize) {
        if n_true > 0 {
            let fields: Vec<(Var, String)> =
                (0..n_true).map(|_| self.fresh_field("ce.f")).collect();
            let writes: Vec<Stmt> = fields.iter().map(|(v, _)| Stmt::Write(*v)).collect();
            let b1 = self.app.button(self.act, "actionA", writes.clone());
            let b2 = self.app.button(self.act, "actionB", writes);
            self.events.push(UiEvent::Widget(b1, UiEventKind::Click));
            self.events.push(UiEvent::Widget(b2, UiEventKind::Click));
            for (_, name) in fields {
                self.record(
                    name,
                    RaceCategory::CoEnabled,
                    true,
                    "two independently enabled UI events on one screen",
                );
            }
        }
        if n_false > 0 {
            let fields: Vec<(Var, String)> =
                (0..n_false).map(|_| self.fresh_field("ce.fp.f")).collect();
            let writes: Vec<Stmt> = fields.iter().map(|(v, _)| Stmt::Write(*v)).collect();
            let dialog_ok = self
                .app
                .button(self.act, "untracked:dialogOk", writes.clone());
            self.app.initially_disabled(dialog_ok);
            let mut opener_body = writes;
            opener_body.push(Stmt::EnableWidget(dialog_ok, UiEventKind::Click));
            let open = self.app.button(self.act, "openDialog", opener_body);
            self.events.push(UiEvent::Widget(open, UiEventKind::Click));
            self.events
                .push(UiEvent::Widget(dialog_ok, UiEventKind::Click));
            for (_, name) in fields {
                self.record(
                    name,
                    RaceCategory::CoEnabled,
                    false,
                    "the dialog event is only enabled by the first handler; \
                     the enable is invisible to the tracer",
                );
            }
        }
    }

    /// Plants delayed races: a `postDelayed` refresh runnable vs a plain
    /// post touching the same fields. False positives hide the ordering
    /// behind an untracked thread forked at the end of the delayed task.
    pub fn delayed_races(&mut self, n_true: usize, n_false: usize) {
        if n_true > 0 {
            let fields: Vec<(Var, String)> =
                (0..n_true).map(|_| self.fresh_field("dly.f")).collect();
            let writes: Vec<Stmt> = fields.iter().map(|(v, _)| Stmt::Write(*v)).collect();
            let refresh = self.app.handler("delayedRefresh", writes.clone());
            let update = self.app.handler("promptUpdate", writes);
            self.on_create.push(Stmt::Post {
                handler: refresh,
                delay: Some(500),
                front: false,
            });
            self.on_create.push(Stmt::Post {
                handler: update,
                delay: None,
                front: false,
            });
            for (_, name) in fields {
                self.record(
                    name,
                    RaceCategory::Delayed,
                    true,
                    "a delayed refresh may run before or after the plain update",
                );
            }
        }
        if n_false > 0 {
            let fields: Vec<(Var, String)> =
                (0..n_false).map(|_| self.fresh_field("dly.fp.f")).collect();
            let writes: Vec<Stmt> = fields.iter().map(|(v, _)| Stmt::Write(*v)).collect();
            let follow = self.app.handler("followUp", writes.clone());
            let w = self.app.worker(
                "untracked:timer-chain",
                vec![Stmt::Post {
                    handler: follow,
                    delay: None,
                    front: false,
                }],
            );
            let mut first = writes;
            first.push(Stmt::ForkWorker(w));
            let delayed_first = self.app.handler("delayedFirst", first);
            self.on_create.push(Stmt::Post {
                handler: delayed_first,
                delay: Some(300),
                front: false,
            });
            for (_, name) in fields {
                self.record(
                    name,
                    RaceCategory::Delayed,
                    false,
                    "the follow-up is chained after the delayed task through \
                     an untracked timer thread",
                );
            }
        }
    }

    /// Plants unknown-category races using front-of-queue posts (the §4.2
    /// construct the paper defers to future work): a plain render pass and a
    /// front-of-queue urgent pass posted from the same launch code touch the
    /// same fields. Both tasks descend from the same binder post of
    /// `LAUNCH_ACTIVITY`, so the race is neither co-enabled, nor delayed,
    /// nor cross-posted — it lands in the remainder category.
    ///
    /// In our model the front post deterministically overtakes the plain
    /// one, so these races are annotated as false positives (the report is
    /// genuine: the detector cannot order front posts, which is exactly why
    /// the paper defers them).
    pub fn unknown_races(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        let fields: Vec<(Var, String)> = (0..n).map(|_| self.fresh_field("unk.f")).collect();
        let writes: Vec<Stmt> = fields.iter().map(|(v, _)| Stmt::Write(*v)).collect();
        let plain = self.app.handler("renderPass", writes.clone());
        let front = self.app.handler("urgentPass", writes);
        self.on_create.push(Stmt::Post {
            handler: plain,
            delay: None,
            front: false,
        });
        self.on_create.push(Stmt::Post {
            handler: front,
            delay: None,
            front: true,
        });
        for (_, name) in fields {
            self.record(
                name,
                RaceCategory::Unknown,
                false,
                "a front-of-queue post the detector cannot order; in the model \
                 the front post deterministically runs first",
            );
        }
    }

    /// The §2 music-player lifecycle motif: an AsyncTask checks the
    /// activity's `isActivityDestroyed` flag from its background thread and
    /// from `onPostExecute`, racing with the `onDestroy` write when the
    /// sequence presses BACK — the two races of Figure 4.
    pub fn lifecycle_flag_race(&mut self, press_back: bool) -> String {
        let (flag, name) = self.fresh_field("isActivityDestroyed");
        let at = self.app.async_task(
            "FileDwTask",
            vec![],
            vec![Stmt::Read(flag), Stmt::PublishProgress],
            vec![],
            vec![Stmt::Read(flag)],
        );
        self.on_create.insert(0, Stmt::Write(flag));
        self.on_create.push(Stmt::ExecuteAsyncTask(at));
        self.on_destroy.push(Stmt::Write(flag));
        if press_back {
            self.events.push(UiEvent::Back);
            // Depending on the schedule the race surfaces as multithreaded
            // (background read vs onDestroy write) or cross-posted
            // (onPostExecute read vs onDestroy write); both are real.
            self.record(
                name.clone(),
                RaceCategory::Multithreaded,
                true,
                "background download checks the flag while onDestroy writes it",
            );
        }
        name
    }

    /// SERVICE-automaton motif: `onCreate` of a started service forks a
    /// loader thread that writes shared state, and `onStartCommand` reads it
    /// on main without waiting — the Aard-Dictionary shape lifted onto the
    /// service lifecycle (the two transitions are FIFO-ordered by the
    /// binder→main queue, but the loader is not). False positives join an
    /// `untracked:` loader before reading, so the ordering is real but
    /// invisible.
    pub fn service_loader_races(&mut self, n_true: usize, n_false: usize) {
        for (hidden, n) in [(false, n_true), (true, n_false)] {
            if n == 0 {
                continue;
            }
            let tag = if hidden { "svc.fp.f" } else { "svc.f" };
            let fields: Vec<(Var, String)> = (0..n).map(|_| self.fresh_field(tag)).collect();
            let writes: Vec<Stmt> = fields.iter().map(|(v, _)| Stmt::Write(*v)).collect();
            let prefix = if hidden {
                "untracked:svc-loader"
            } else {
                "svc-loader"
            };
            let suffix = if hidden { "Hidden" } else { "" };
            let w = self.app.worker(format!("{prefix}{suffix}"), writes);
            let mut start_body = Vec::new();
            if hidden {
                start_body.push(Stmt::JoinWorker(w));
            }
            start_body.extend(fields.iter().map(|(v, _)| Stmt::Read(*v)));
            let svc = self.app.service(
                format!("SyncService{suffix}"),
                vec![Stmt::ForkWorker(w)],
                start_body,
                vec![],
            );
            self.on_create.push(Stmt::StartService(svc));
            for (_, name) in fields {
                self.record(
                    name,
                    RaceCategory::Multithreaded,
                    !hidden,
                    if hidden {
                        "onStartCommand joins the loader through an untracked native join"
                    } else {
                        "service loader thread vs onStartCommand read, no synchronization"
                    },
                );
            }
        }
    }

    /// SERVICE-automaton teardown motif: a background sync thread posts its
    /// result to main while a STOP button triggers `onDestroy` (via
    /// `stopService`), which reads the half-published state — the worker's
    /// post and the binder's destroy post are unordered. False positives
    /// join the `untracked:` sync thread inside the STOP handler before
    /// calling `stopService`, so the publish always lands first.
    pub fn service_teardown_races(&mut self, n_true: usize, n_false: usize) {
        for (hidden, n) in [(false, n_true), (true, n_false)] {
            if n == 0 {
                continue;
            }
            let tag = if hidden { "svcstop.fp.f" } else { "svcstop.f" };
            let fields: Vec<(Var, String)> = (0..n).map(|_| self.fresh_field(tag)).collect();
            let writes: Vec<Stmt> = fields.iter().map(|(v, _)| Stmt::Write(*v)).collect();
            let prefix = if hidden {
                "untracked:svc-sync"
            } else {
                "svc-sync"
            };
            let suffix = if hidden { "Hidden" } else { "" };
            let publish = self.app.handler(format!("syncPublish{suffix}"), writes);
            let w = self.app.worker(
                format!("{prefix}{suffix}"),
                vec![Stmt::Post {
                    handler: publish,
                    delay: None,
                    front: false,
                }],
            );
            let svc = self.app.service(
                format!("StoppableService{suffix}"),
                vec![],
                vec![],
                fields.iter().map(|(v, _)| Stmt::Read(*v)).collect(),
            );
            self.on_create.push(Stmt::ForkWorker(w));
            self.on_create.push(Stmt::StartService(svc));
            let mut stop_body = Vec::new();
            if hidden {
                stop_body.push(Stmt::JoinWorker(w));
            }
            stop_body.push(Stmt::StopService(svc));
            let stop = self
                .app
                .button(self.act, format!("stopSync{suffix}"), stop_body);
            self.events.push(UiEvent::Widget(stop, UiEventKind::Click));
            for (_, name) in fields {
                self.record(
                    name,
                    RaceCategory::CrossPosted,
                    !hidden,
                    if hidden {
                        "the STOP handler natively waits for the publish before stopService"
                    } else {
                        "worker-posted publish vs binder-posted onDestroy, unordered"
                    },
                );
            }
        }
    }

    /// FRAGMENT-automaton detach motif: `onAttach` forks a view loader that
    /// reads the fragment's view fields; pressing BACK destroys the host,
    /// and the spliced `onDestroyView` nulls the fields while the loader may
    /// still be running. The composition must end its event sequence with
    /// [`UiEvent::Back`]. False positives join an `untracked:` loader at the
    /// top of `onDestroyView`.
    pub fn fragment_detach_races(&mut self, n_true: usize, n_false: usize) {
        for (hidden, n) in [(false, n_true), (true, n_false)] {
            if n == 0 {
                continue;
            }
            let tag = if hidden { "frag.fp.f" } else { "frag.f" };
            let fields: Vec<(Var, String)> = (0..n).map(|_| self.fresh_field(tag)).collect();
            let reads: Vec<Stmt> = fields.iter().map(|(v, _)| Stmt::Read(*v)).collect();
            let prefix = if hidden {
                "untracked:frag-loader"
            } else {
                "frag-loader"
            };
            let suffix = if hidden { "Hidden" } else { "" };
            let w = self.app.worker(format!("{prefix}{suffix}"), reads);
            let mut destroy_view = Vec::new();
            if hidden {
                destroy_view.push(Stmt::JoinWorker(w));
            }
            destroy_view.extend(fields.iter().map(|(v, _)| Stmt::Write(*v)));
            self.app.fragment(
                self.act,
                format!("GalleryFragment{suffix}"),
                vec![Stmt::ForkWorker(w)],
                vec![],
                destroy_view,
                vec![],
            );
            for (_, name) in fields {
                self.record(
                    name,
                    RaceCategory::Multithreaded,
                    !hidden,
                    if hidden {
                        "onDestroyView natively joins the view loader before nulling"
                    } else {
                        "fragment view loader vs onDestroyView nulling the view fields"
                    },
                );
            }
        }
    }

    /// FRAGMENT-automaton UI motif: the fragment's `onDetach` (spliced into
    /// the host's destroy transition) clears fields that a toolbar button
    /// reads — the BACK teardown and the click are independently enabled
    /// events, so the race is co-enabled. The composition must end its event
    /// sequence with [`UiEvent::Back`]. False positives initialize the
    /// fields in `onAttach` and read them from an `untracked:` dialog the
    /// attach enables — the enable is invisible, so the pair looks
    /// co-enabled although the dialog can never fire first.
    pub fn fragment_ui_races(&mut self, n_true: usize, n_false: usize) {
        if n_true > 0 {
            let fields: Vec<(Var, String)> =
                (0..n_true).map(|_| self.fresh_field("fragui.f")).collect();
            let reads: Vec<Stmt> = fields.iter().map(|(v, _)| Stmt::Read(*v)).collect();
            let toolbar = self.app.button(self.act, "openToolbar", reads);
            self.events
                .push(UiEvent::Widget(toolbar, UiEventKind::Click));
            self.app.fragment(
                self.act,
                "ToolbarFragment",
                vec![],
                vec![],
                vec![],
                fields.iter().map(|(v, _)| Stmt::Write(*v)).collect(),
            );
            for (_, name) in fields {
                self.record(
                    name,
                    RaceCategory::CoEnabled,
                    true,
                    "the BACK teardown (running onDetach) and the toolbar click \
                     are independently enabled events",
                );
            }
        }
        if n_false > 0 {
            let fields: Vec<(Var, String)> = (0..n_false)
                .map(|_| self.fresh_field("fragui.fp.f"))
                .collect();
            let reads: Vec<Stmt> = fields.iter().map(|(v, _)| Stmt::Read(*v)).collect();
            let dialog = self.app.button(self.act, "untracked:fragDialogOk", reads);
            self.app.initially_disabled(dialog);
            let mut attach: Vec<Stmt> = fields.iter().map(|(v, _)| Stmt::Write(*v)).collect();
            attach.push(Stmt::EnableWidget(dialog, UiEventKind::Click));
            self.app.fragment(
                self.act,
                "FeedFragmentHidden",
                attach,
                vec![],
                vec![],
                vec![],
            );
            self.events
                .push(UiEvent::Widget(dialog, UiEventKind::Click));
            for (_, name) in fields {
                self.record(
                    name,
                    RaceCategory::CoEnabled,
                    false,
                    "the dialog can only fire after onAttach enabled it; the \
                     enable is invisible to the tracer",
                );
            }
        }
    }

    /// INTENT_SERVICE-automaton motif: `onHandleIntent` runs on the
    /// component's serial executor and writes upload state that a
    /// main-thread status runnable reads — two different threads, no
    /// synchronization. False positives hand the completion back to main
    /// through an `untracked:` relay thread forked at the end of the
    /// delivery, so the status read really happens after the write.
    pub fn serial_executor_races(&mut self, n_true: usize, n_false: usize) {
        for (hidden, n) in [(false, n_true), (true, n_false)] {
            if n == 0 {
                continue;
            }
            let tag = if hidden { "isvc.fp.f" } else { "isvc.f" };
            let fields: Vec<(Var, String)> = (0..n).map(|_| self.fresh_field(tag)).collect();
            let reads: Vec<Stmt> = fields.iter().map(|(v, _)| Stmt::Read(*v)).collect();
            let suffix = if hidden { "Hidden" } else { "" };
            let status = self.app.handler(format!("uploadStatus{suffix}"), reads);
            let mut handle: Vec<Stmt> = fields.iter().map(|(v, _)| Stmt::Write(*v)).collect();
            if hidden {
                let relay = self.app.worker(
                    "untracked:relay",
                    vec![Stmt::Post {
                        handler: status,
                        delay: None,
                        front: false,
                    }],
                );
                handle.push(Stmt::ForkWorker(relay));
            }
            let isvc = self.app.intent_service(format!("Uploader{suffix}"), handle);
            self.on_create.push(Stmt::StartIntentService(isvc));
            if !hidden {
                self.on_create.push(Stmt::Post {
                    handler: status,
                    delay: None,
                    front: false,
                });
            }
            for (_, name) in fields {
                self.record(
                    name,
                    RaceCategory::Multithreaded,
                    !hidden,
                    if hidden {
                        "completion is relayed to main by an untracked thread after the write"
                    } else {
                        "serial-executor delivery vs main-thread status read"
                    },
                );
            }
        }
    }

    /// INTENT_SERVICE-automaton negative motif: two intents delivered to the
    /// same serial executor write the same fields. The per-component FIFO
    /// queue orders the deliveries, so the detector must report nothing —
    /// the fields carry no ground truth and any report shows up as an
    /// unplanned race in the oracle suite.
    pub fn serial_executor_handoff(&mut self, fields: usize) {
        let vars: Vec<(Var, String)> = (0..fields)
            .map(|_| self.fresh_field("isvc.safe.f"))
            .collect();
        let body: Vec<Stmt> = vars.iter().map(|(v, _)| Stmt::Write(*v)).collect();
        let isvc = self.app.intent_service("LogWriter", body);
        self.on_create.push(Stmt::StartIntentService(isvc));
        self.on_create.push(Stmt::StartIntentService(isvc));
    }

    /// Broadcast/binder-boundary motif: a network thread sends a broadcast
    /// and keeps mutating its buffers — `onReceive` is cross-posted to main
    /// with no happens-after edge back to the sender's *later* operations.
    /// False positives write first and delegate the send to an `untracked:`
    /// notifier thread, so the receiver really sees completed writes.
    pub fn broadcast_sender_races(&mut self, n_true: usize, n_false: usize) {
        if n_true > 0 {
            let fields: Vec<(Var, String)> =
                (0..n_true).map(|_| self.fresh_field("bc.f")).collect();
            let rec = self.app.receiver(
                "NetReceiver",
                fields.iter().map(|(v, _)| Stmt::Read(*v)).collect(),
            );
            let mut body = vec![Stmt::SendBroadcast(rec)];
            body.extend(fields.iter().map(|(v, _)| Stmt::Write(*v)));
            let w = self.app.worker("net-sender", body);
            self.on_create.push(Stmt::ForkWorker(w));
            for (_, name) in fields {
                self.record(
                    name,
                    RaceCategory::Multithreaded,
                    true,
                    "onReceive has no happens-after edge to the sender's later writes",
                );
            }
        }
        if n_false > 0 {
            let fields: Vec<(Var, String)> =
                (0..n_false).map(|_| self.fresh_field("bc.fp.f")).collect();
            let rec = self.app.receiver(
                "NetReceiverHidden",
                fields.iter().map(|(v, _)| Stmt::Read(*v)).collect(),
            );
            let notifier = self
                .app
                .worker("untracked:notifier", vec![Stmt::SendBroadcast(rec)]);
            let mut body: Vec<Stmt> = fields.iter().map(|(v, _)| Stmt::Write(*v)).collect();
            body.push(Stmt::ForkWorker(notifier));
            let w = self.app.worker("data-writer", body);
            self.on_create.push(Stmt::ForkWorker(w));
            for (_, name) in fields {
                self.record(
                    name,
                    RaceCategory::Multithreaded,
                    false,
                    "the broadcast is sent by an untracked notifier after the writes finish",
                );
            }
        }
    }

    /// Broadcast-vs-UI motif: `onReceive` (binder-posted to main) updates
    /// state that a refresh button's click handler reads — the delivery and
    /// the UI event are unordered. False positives surface the result in an
    /// `untracked:` alert dialog enabled from `onReceive`.
    pub fn broadcast_ui_races(&mut self, n_true: usize, n_false: usize) {
        if n_true > 0 {
            let fields: Vec<(Var, String)> =
                (0..n_true).map(|_| self.fresh_field("bcui.f")).collect();
            let rec = self.app.receiver(
                "StatusReceiver",
                fields.iter().map(|(v, _)| Stmt::Write(*v)).collect(),
            );
            let beacon = self.app.worker("beacon", vec![Stmt::SendBroadcast(rec)]);
            self.on_create.push(Stmt::ForkWorker(beacon));
            let refresh = self.app.button(
                self.act,
                "refreshStatus",
                fields.iter().map(|(v, _)| Stmt::Read(*v)).collect(),
            );
            self.events
                .push(UiEvent::Widget(refresh, UiEventKind::Click));
            for (_, name) in fields {
                self.record(
                    name,
                    RaceCategory::CrossPosted,
                    true,
                    "binder-posted onReceive vs an independently clicked refresh",
                );
            }
        }
        if n_false > 0 {
            let fields: Vec<(Var, String)> = (0..n_false)
                .map(|_| self.fresh_field("bcui.fp.f"))
                .collect();
            let alert = self.app.button(
                self.act,
                "untracked:alertOk",
                fields.iter().map(|(v, _)| Stmt::Read(*v)).collect(),
            );
            self.app.initially_disabled(alert);
            let mut receive: Vec<Stmt> = fields.iter().map(|(v, _)| Stmt::Write(*v)).collect();
            receive.push(Stmt::EnableWidget(alert, UiEventKind::Click));
            let rec = self.app.receiver("AlertReceiver", receive);
            let beacon = self
                .app
                .worker("alert-beacon", vec![Stmt::SendBroadcast(rec)]);
            self.on_create.push(Stmt::ForkWorker(beacon));
            self.events.push(UiEvent::Widget(alert, UiEventKind::Click));
            for (_, name) in fields {
                self.record(
                    name,
                    RaceCategory::CrossPosted,
                    false,
                    "the alert can only fire after onReceive enabled it; the \
                     enable is invisible to the tracer",
                );
            }
        }
    }

    /// Rotation/recreate leak motif: `onCreate` starts a thumbnail task; a
    /// ROTATE event tears the activity down and relaunches it. The old
    /// instance's background read races with the destroy/relaunch writes of
    /// the cache field (multi-threaded), and its pending `onPostExecute`
    /// races with the relaunch write of the view field (cross-posted) —
    /// the classic leak-on-rotation. Pushes the [`UiEvent::Rotate`] itself.
    pub fn rotation_leak_races(&mut self) -> (String, String) {
        let (cache, cache_name) = self.fresh_field("leak.cache");
        let (view, view_name) = self.fresh_field("leak.view");
        let at = self.app.async_task(
            "ThumbTask",
            vec![],
            vec![Stmt::Read(cache), Stmt::PublishProgress],
            vec![],
            vec![Stmt::Write(view)],
        );
        self.on_create.insert(0, Stmt::Write(view));
        self.on_create.insert(0, Stmt::Write(cache));
        self.on_create.push(Stmt::ExecuteAsyncTask(at));
        self.on_destroy.push(Stmt::Write(cache));
        self.events.push(UiEvent::Rotate);
        self.record(
            cache_name.clone(),
            RaceCategory::Multithreaded,
            true,
            "old instance's background read vs the destroy/relaunch cache writes",
        );
        self.record(
            view_name.clone(),
            RaceCategory::CrossPosted,
            true,
            "pending onPostExecute vs the relaunched instance's view write",
        );
        (cache_name, view_name)
    }

    /// Rotation false positive: the state saved on teardown is produced by
    /// an `untracked:` saver thread that `onStop` natively joins, so the
    /// `onDestroy` read really happens after the write — but the trace shows
    /// an unsynchronized cross-thread pair.
    pub fn rotation_saved_state_fp(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        let fields: Vec<(Var, String)> = (0..n).map(|_| self.fresh_field("leak.fp.f")).collect();
        let writes: Vec<Stmt> = fields.iter().map(|(v, _)| Stmt::Write(*v)).collect();
        let w = self.app.worker("untracked:state-saver", writes);
        self.on_create.push(Stmt::ForkWorker(w));
        self.on_stop.push(Stmt::JoinWorker(w));
        self.on_destroy
            .extend(fields.iter().map(|(v, _)| Stmt::Read(*v)));
        for (_, name) in fields {
            self.record(
                name,
                RaceCategory::Multithreaded,
                false,
                "onStop natively joins the state saver before onDestroy reads",
            );
        }
    }

    /// Finalizes: installs the accumulated `onCreate` body and returns the
    /// app, the event sequence and the ground truth.
    pub fn finish(mut self) -> (App, Vec<UiEvent>, GroundTruth) {
        let on_create = std::mem::take(&mut self.on_create);
        self.app.on_create(self.act, on_create);
        if !self.on_stop.is_empty() {
            let on_stop = std::mem::take(&mut self.on_stop);
            self.app.on_stop(self.act, on_stop);
        }
        if !self.on_destroy.is_empty() {
            let on_destroy = std::mem::take(&mut self.on_destroy);
            self.app.on_destroy(self.act, on_destroy);
        }
        (self.app.finish(), self.events, self.truth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn motif_builder_accumulates_truth() {
        let mut m = MotifBuilder::new("Test", "Main");
        m.mt_races(2, 1);
        m.co_enabled_races(1, 0);
        let (_, events, truth) = m.finish();
        assert_eq!(truth.len(), 4);
        assert_eq!(
            truth.values().filter(|t| t.is_true).count(),
            3,
            "two true mt + one true co-enabled"
        );
        assert_eq!(events.len(), 2, "two clicks for the co-enabled motif");
    }

    #[test]
    fn field_names_are_unique() {
        let mut m = MotifBuilder::new("Test", "Main");
        m.filler(10, 1);
        m.mt_races(3, 3);
        m.cross_posted_races(4, 4);
        let (app, _, truth) = m.finish();
        let _ = app;
        // All truth keys are distinct by construction of BTreeMap; check the
        // counter actually advanced past filler fields.
        assert!(truth.keys().all(|k| k.contains(".f")));
        assert_eq!(truth.len(), 14);
    }

    #[test]
    fn lifecycle_motif_registers_flag() {
        let mut m = MotifBuilder::new("Test", "Main");
        let name = m.lifecycle_flag_race(true);
        let (_, events, truth) = m.finish();
        assert!(truth.contains_key(&name));
        assert!(matches!(events.last(), Some(UiEvent::Back)));
    }
}
