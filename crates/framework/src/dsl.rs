//! A declarative DSL for component lifecycle automata.
//!
//! The paper hard-codes one automaton — the Figure 8 Activity lifecycle —
//! into its instrumentation sites. This module factors the concept out into
//! plain data so every component surface (Activity, Service, Fragment,
//! IntentService, BroadcastReceiver) is described the same way:
//!
//! * [`AutomatonSpec`] — the callbacks a component has, the happens-after
//!   edges between them (must = the only legal successor, may = one of
//!   several), and the *transition-task table*: which callbacks the runtime
//!   merges into one posted task, and which transitions each task enables.
//! * [`DslMachine`] — a generic sequence checker replaying callback runs
//!   against the edge relation (the DSL twin of
//!   [`crate::lifecycle::LifecycleMachine`]).
//!
//! The compiler in [`crate::compile`] derives its enable-planting entirely
//! from these tables; [`ACTIVITY`] reproduces the hand-coded
//! Figure 8 lowering bit-for-bit (pinned by the `dsl_differential`
//! integration test), and the other automata extend the same machinery to
//! the component surfaces the Android bug studies flag as race-prone.

use std::fmt;

/// Whether a happens-after edge is the only legal continuation or one of
/// several.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// The target is the unique successor of the source callback.
    Must,
    /// The target is one of several possible successors.
    May,
}

/// One happens-after edge of an automaton: `to` may (or must) follow
/// directly after `from`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeSpec {
    /// Source callback method name.
    pub from: &'static str,
    /// Successor callback method name.
    pub to: &'static str,
    /// Must/may discipline of the edge.
    pub kind: EdgeKind,
}

/// One transition task of an automaton: the unit the system server posts to
/// the component's thread. A task runs one or more callbacks synchronously
/// (e.g. `LAUNCH_ACTIVITY` runs onCreate+onStart+onResume) and, on
/// completion, enables the transitions that may legally follow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskSpec {
    /// Task label (the name the posted task carries in traces).
    pub label: &'static str,
    /// Callback method names the task runs, in order.
    pub runs: &'static [&'static str],
    /// Labels of the transition tasks this task enables on completion.
    pub enables: &'static [&'static str],
    /// Whether this is the entry transition (enabled at component start;
    /// for activities, also the task that plants the initial widget
    /// enables).
    pub initial: bool,
    /// For nested automata (fragments): the *host* task label this task's
    /// callbacks are spliced into, instead of being posted standalone.
    pub nested_in: Option<&'static str>,
}

/// A complete component automaton: callbacks, entry callback, edge
/// relation and transition-task table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutomatonSpec {
    /// Component kind, e.g. `"Activity"`.
    pub component: &'static str,
    /// All callback method names.
    pub callbacks: &'static [&'static str],
    /// The callback every instance must begin with.
    pub entry: &'static str,
    /// The happens-after edges.
    pub edges: &'static [EdgeSpec],
    /// The transition-task table.
    pub tasks: &'static [TaskSpec],
}

impl AutomatonSpec {
    /// Direct successors of `callback` in the edge relation, in table
    /// order.
    pub fn successors(&self, callback: &str) -> Vec<&'static str> {
        self.edges
            .iter()
            .filter(|e| e.from == callback)
            .map(|e| e.to)
            .collect()
    }

    /// The task spec labeled `label`, if any.
    pub fn task(&self, label: &str) -> Option<&TaskSpec> {
        self.tasks.iter().find(|t| t.label == label)
    }

    /// The entry task (the one marked `initial`), if any.
    pub fn entry_task(&self) -> Option<&TaskSpec> {
        self.tasks.iter().find(|t| t.initial)
    }

    /// Internal consistency: every edge endpoint, task callback and enable
    /// target must resolve, exactly one task (if any) is the entry, and
    /// every `Must` edge is its source's only outgoing edge.
    pub fn validate(&self) -> Result<(), String> {
        let known = |c: &str| self.callbacks.contains(&c);
        if !known(self.entry) {
            return Err(format!("entry callback {} not declared", self.entry));
        }
        for e in self.edges {
            if !known(e.from) || !known(e.to) {
                return Err(format!(
                    "edge {} -> {} uses undeclared callback",
                    e.from, e.to
                ));
            }
            if e.kind == EdgeKind::Must && self.successors(e.from).len() != 1 {
                return Err(format!(
                    "must-edge source {} has multiple successors",
                    e.from
                ));
            }
        }
        for t in self.tasks {
            for c in t.runs {
                if !known(c) {
                    return Err(format!("task {} runs undeclared callback {c}", t.label));
                }
            }
            for en in t.enables {
                if self.task(en).is_none() {
                    return Err(format!("task {} enables unknown task {en}", t.label));
                }
            }
            if let Some(host) = t.nested_in {
                if t.initial || !t.enables.is_empty() {
                    return Err(format!(
                        "nested task {} (in {host}) cannot be initial or enable transitions",
                        t.label
                    ));
                }
            }
        }
        if self.tasks.iter().filter(|t| t.initial).count() > 1 {
            return Err("more than one initial task".into());
        }
        Ok(())
    }
}

/// A violation found by [`DslMachine`]: `callback` ran when the automaton
/// did not allow it (directly `after` the given callback, or as the first
/// callback when `after` is `None`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DslError {
    /// The offending callback name.
    pub callback: &'static str,
    /// The previously run callback, if any.
    pub after: Option<&'static str>,
}

impl fmt::Display for DslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.after {
            Some(prev) => write!(f, "{} may not follow {prev}", self.callback),
            None => write!(f, "{} is not a legal first callback", self.callback),
        }
    }
}

/// Replays callback sequences against an [`AutomatonSpec`]'s edge relation
/// — the generic twin of [`crate::lifecycle::LifecycleMachine`].
#[derive(Debug, Clone)]
pub struct DslMachine {
    spec: &'static AutomatonSpec,
    last: Option<&'static str>,
}

impl DslMachine {
    /// A machine for `spec`, before any callback has run.
    pub fn new(spec: &'static AutomatonSpec) -> Self {
        DslMachine { spec, last: None }
    }

    /// The most recently accepted callback.
    pub fn last(&self) -> Option<&'static str> {
        self.last
    }

    /// Feeds one callback. The first must be the automaton's entry; every
    /// later one must be a successor of the previous.
    ///
    /// # Errors
    ///
    /// Returns the [`DslError`] describing the violated edge.
    pub fn step(&mut self, callback: &str) -> Result<(), DslError> {
        let canonical = self
            .spec
            .callbacks
            .iter()
            .copied()
            .find(|c| *c == callback)
            .ok_or(DslError {
                callback: "<unknown>",
                after: self.last,
            })?;
        let ok = match self.last {
            None => canonical == self.spec.entry,
            Some(prev) => self.spec.successors(prev).contains(&canonical),
        };
        if !ok {
            return Err(DslError {
                callback: canonical,
                after: self.last,
            });
        }
        self.last = Some(canonical);
        Ok(())
    }

    /// Checks a whole sequence from the initial state.
    ///
    /// # Errors
    ///
    /// Returns the first violation.
    pub fn check(spec: &'static AutomatonSpec, sequence: &[&str]) -> Result<(), DslError> {
        let mut m = DslMachine::new(spec);
        for c in sequence {
            m.step(c)?;
        }
        Ok(())
    }
}

/// The Figure 8 Activity automaton, expressed in the DSL. The edge relation
/// mirrors [`crate::lifecycle::Callback::successors`] and the task table
/// reproduces the compiler's hand-coded enable-planting exactly.
pub const ACTIVITY: AutomatonSpec = AutomatonSpec {
    component: "Activity",
    callbacks: &[
        "onCreate",
        "onStart",
        "onResume",
        "onPause",
        "onStop",
        "onRestart",
        "onDestroy",
    ],
    entry: "onCreate",
    edges: &[
        EdgeSpec {
            from: "onCreate",
            to: "onStart",
            kind: EdgeKind::Must,
        },
        EdgeSpec {
            from: "onStart",
            to: "onResume",
            kind: EdgeKind::May,
        },
        EdgeSpec {
            from: "onStart",
            to: "onStop",
            kind: EdgeKind::May,
        },
        EdgeSpec {
            from: "onResume",
            to: "onPause",
            kind: EdgeKind::Must,
        },
        EdgeSpec {
            from: "onPause",
            to: "onResume",
            kind: EdgeKind::May,
        },
        EdgeSpec {
            from: "onPause",
            to: "onStop",
            kind: EdgeKind::May,
        },
        EdgeSpec {
            from: "onStop",
            to: "onRestart",
            kind: EdgeKind::May,
        },
        EdgeSpec {
            from: "onStop",
            to: "onDestroy",
            kind: EdgeKind::May,
        },
        EdgeSpec {
            from: "onRestart",
            to: "onStart",
            kind: EdgeKind::Must,
        },
    ],
    tasks: &[
        TaskSpec {
            label: "LAUNCH_ACTIVITY",
            runs: &["onCreate", "onStart", "onResume"],
            enables: &["onPause", "onDestroy"],
            initial: true,
            nested_in: None,
        },
        TaskSpec {
            label: "onPause",
            runs: &["onPause"],
            enables: &["onStop", "onResume"],
            initial: false,
            nested_in: None,
        },
        TaskSpec {
            label: "onStop",
            runs: &["onStop"],
            enables: &["RELAUNCH_ACTIVITY"],
            initial: false,
            nested_in: None,
        },
        TaskSpec {
            label: "onDestroy",
            runs: &["onDestroy"],
            enables: &["LAUNCH_ACTIVITY"],
            initial: false,
            nested_in: None,
        },
        TaskSpec {
            label: "onResume",
            runs: &["onResume"],
            enables: &["onPause", "onDestroy"],
            initial: false,
            nested_in: None,
        },
        TaskSpec {
            label: "RELAUNCH_ACTIVITY",
            runs: &["onRestart", "onStart", "onResume"],
            enables: &["onPause", "onDestroy"],
            initial: false,
            nested_in: None,
        },
    ],
};

/// The started-Service automaton: onCreate runs once per started lifetime,
/// then one onStartCommand per `startService` (re-deliveries are posted by
/// the same system thread to the same queue, so the FIFO rule orders them —
/// the model's re-delivery-ordering guarantee), then onDestroy after
/// `stopService`.
pub const SERVICE: AutomatonSpec = AutomatonSpec {
    component: "Service",
    callbacks: &["onCreate", "onStartCommand", "onDestroy"],
    entry: "onCreate",
    edges: &[
        EdgeSpec {
            from: "onCreate",
            to: "onStartCommand",
            kind: EdgeKind::Must,
        },
        EdgeSpec {
            from: "onStartCommand",
            to: "onStartCommand",
            kind: EdgeKind::May,
        },
        EdgeSpec {
            from: "onStartCommand",
            to: "onDestroy",
            kind: EdgeKind::May,
        },
    ],
    tasks: &[
        TaskSpec {
            label: "onCreate",
            runs: &["onCreate"],
            enables: &[],
            initial: true,
            nested_in: None,
        },
        TaskSpec {
            label: "onStartCommand",
            runs: &["onStartCommand"],
            enables: &[],
            initial: false,
            nested_in: None,
        },
        TaskSpec {
            label: "onDestroy",
            runs: &["onDestroy"],
            enables: &[],
            initial: false,
            nested_in: None,
        },
    ],
};

/// The Fragment automaton, nested inside its host Activity: attach and view
/// creation are spliced into the host's `LAUNCH_ACTIVITY` transition, view
/// teardown and detach into the host's `onDestroy` transition. Background
/// work started from `onCreateView` survives into the detach window — the
/// detach-during-background-work race surface.
pub const FRAGMENT: AutomatonSpec = AutomatonSpec {
    component: "Fragment",
    callbacks: &["onAttach", "onCreateView", "onDestroyView", "onDetach"],
    entry: "onAttach",
    edges: &[
        EdgeSpec {
            from: "onAttach",
            to: "onCreateView",
            kind: EdgeKind::Must,
        },
        EdgeSpec {
            from: "onCreateView",
            to: "onDestroyView",
            kind: EdgeKind::Must,
        },
        EdgeSpec {
            from: "onDestroyView",
            to: "onDetach",
            kind: EdgeKind::Must,
        },
    ],
    tasks: &[
        TaskSpec {
            label: "attachFragment",
            runs: &["onAttach", "onCreateView"],
            enables: &[],
            initial: false,
            nested_in: Some("LAUNCH_ACTIVITY"),
        },
        TaskSpec {
            label: "detachFragment",
            runs: &["onDestroyView", "onDetach"],
            enables: &[],
            initial: false,
            nested_in: Some("onDestroy"),
        },
    ],
};

/// The IntentService automaton: a per-component serial executor (its own
/// FIFO queue thread, distinct from the main Looper) runs one
/// `onHandleIntent` per `startService`, strictly in delivery order.
pub const INTENT_SERVICE: AutomatonSpec = AutomatonSpec {
    component: "IntentService",
    callbacks: &["onHandleIntent"],
    entry: "onHandleIntent",
    edges: &[EdgeSpec {
        from: "onHandleIntent",
        to: "onHandleIntent",
        kind: EdgeKind::May,
    }],
    tasks: &[TaskSpec {
        label: "onHandleIntent",
        runs: &["onHandleIntent"],
        enables: &[],
        initial: true,
        nested_in: None,
    }],
};

/// The BroadcastReceiver automaton: one `onReceive` per delivery, posted
/// cross-component by the system server with no happens-before edge back to
/// the sender's later operations (the broadcast/binder boundary).
pub const RECEIVER: AutomatonSpec = AutomatonSpec {
    component: "BroadcastReceiver",
    callbacks: &["onReceive"],
    entry: "onReceive",
    edges: &[EdgeSpec {
        from: "onReceive",
        to: "onReceive",
        kind: EdgeKind::May,
    }],
    tasks: &[TaskSpec {
        label: "onReceive",
        runs: &["onReceive"],
        enables: &[],
        initial: true,
        nested_in: None,
    }],
};

/// All component automata the framework models.
pub fn all_automata() -> [&'static AutomatonSpec; 5] {
    [&ACTIVITY, &SERVICE, &FRAGMENT, &INTENT_SERVICE, &RECEIVER]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::{Callback, LifecycleMachine};

    #[test]
    fn every_automaton_validates() {
        for spec in all_automata() {
            assert_eq!(spec.validate(), Ok(()), "{}", spec.component);
        }
    }

    #[test]
    fn activity_edges_match_the_hand_coded_lifecycle_exhaustively() {
        // Differential: DslMachine over ACTIVITY accepts exactly the
        // sequences LifecycleMachine accepts, for all sequences up to
        // length 5 over the 7 callbacks (19,607 sequences).
        let all = Callback::all();
        let mut stack: Vec<Vec<Callback>> = vec![Vec::new()];
        while let Some(seq) = stack.pop() {
            if !seq.is_empty() {
                let names: Vec<&str> = seq.iter().map(|c| c.method_name()).collect();
                let legacy = LifecycleMachine::check(&seq).is_ok();
                let dsl = DslMachine::check(&ACTIVITY, &names).is_ok();
                assert_eq!(legacy, dsl, "divergence on {names:?}");
            }
            if seq.len() < 5 {
                for c in all {
                    let mut next = seq.clone();
                    next.push(c);
                    stack.push(next);
                }
            }
        }
    }

    #[test]
    fn dsl_errors_carry_the_offending_step() {
        let err = DslMachine::check(&ACTIVITY, &["onCreate", "onPause"]).unwrap_err();
        assert_eq!(err.callback, "onPause");
        assert_eq!(err.after, Some("onCreate"));
        assert!(err.to_string().contains("may not follow"));
        let err = DslMachine::check(&ACTIVITY, &["onResume"]).unwrap_err();
        assert_eq!(err.after, None);
        assert!(err.to_string().contains("first callback"));
    }

    #[test]
    fn service_accepts_redelivery_and_rejects_commands_after_destroy() {
        assert!(DslMachine::check(
            &SERVICE,
            &["onCreate", "onStartCommand", "onStartCommand", "onDestroy"]
        )
        .is_ok());
        assert!(DslMachine::check(&SERVICE, &["onStartCommand"]).is_err());
        assert!(DslMachine::check(
            &SERVICE,
            &["onCreate", "onStartCommand", "onDestroy", "onStartCommand"]
        )
        .is_err());
    }

    #[test]
    fn fragment_tasks_nest_in_the_host_activity() {
        let attach = FRAGMENT.task("attachFragment").unwrap();
        let detach = FRAGMENT.task("detachFragment").unwrap();
        assert_eq!(attach.nested_in, Some("LAUNCH_ACTIVITY"));
        assert_eq!(detach.nested_in, Some("onDestroy"));
        assert!(ACTIVITY.task(attach.nested_in.unwrap()).is_some());
        assert!(ACTIVITY.task(detach.nested_in.unwrap()).is_some());
    }

    #[test]
    fn entry_tasks_are_unique_and_resolvable() {
        assert_eq!(ACTIVITY.entry_task().unwrap().label, "LAUNCH_ACTIVITY");
        assert_eq!(SERVICE.entry_task().unwrap().label, "onCreate");
        assert_eq!(INTENT_SERVICE.entry_task().unwrap().label, "onHandleIntent");
    }

    #[test]
    fn validate_rejects_broken_specs() {
        const BAD_EDGE: AutomatonSpec = AutomatonSpec {
            component: "X",
            callbacks: &["a"],
            entry: "a",
            edges: &[EdgeSpec {
                from: "a",
                to: "b",
                kind: EdgeKind::May,
            }],
            tasks: &[],
        };
        assert!(BAD_EDGE.validate().is_err());
        const BAD_MUST: AutomatonSpec = AutomatonSpec {
            component: "X",
            callbacks: &["a", "b", "c"],
            entry: "a",
            edges: &[
                EdgeSpec {
                    from: "a",
                    to: "b",
                    kind: EdgeKind::Must,
                },
                EdgeSpec {
                    from: "a",
                    to: "c",
                    kind: EdgeKind::May,
                },
            ],
            tasks: &[],
        };
        assert!(BAD_MUST.validate().is_err());
    }
}
