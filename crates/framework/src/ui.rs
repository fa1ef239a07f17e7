//! The UI event alphabet and an abstract UI state for exploration.
//!
//! DroidRacer's UI Explorer "inspects UI related classes at runtime and
//! obtains the events enabled on a screen for all widgets" (§5). Our
//! equivalent is [`UiState`]: an abstract activity stack over the [`App`]
//! description that answers "which events are available now?" and advances
//! when an event fires — exactly the interface the explorer's depth-first
//! enumeration needs.

use std::fmt;

use crate::app::{ActivityId, App, Stmt, UiEventKind, WidgetId};

/// One environment event the user (or system) can trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UiEvent {
    /// An event on a widget of the current screen.
    Widget(WidgetId, UiEventKind),
    /// The BACK button.
    Back,
    /// Screen rotation (destroys and relaunches the current activity).
    Rotate,
}

impl UiEvent {
    /// Renders the event with app-provided names.
    pub fn describe(&self, app: &App) -> String {
        match self {
            UiEvent::Widget(w, k) => format!(
                "{}:{}.{}",
                k.label(),
                app.activity_name(app.widget_activity(*w)),
                app.widget_name(*w)
            ),
            UiEvent::Back => "back".to_owned(),
            UiEvent::Rotate => "rotate".to_owned(),
        }
    }
}

impl fmt::Display for UiEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UiEvent::Widget(w, k) => write!(f, "{}@w{}", k, w.0),
            UiEvent::Back => f.write_str("back"),
            UiEvent::Rotate => f.write_str("rotate"),
        }
    }
}

/// Abstract UI state: the activity stack.
///
/// Widget availability is approximated optimistically: a widget counts as
/// available if it is initially enabled or any `EnableWidget` statement for
/// it exists in the app (the concrete run still gates the handler post on
/// the actual `enable`, so an optimistically chosen event at worst blocks
/// and truncates the run — it can never produce an infeasible trace).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct UiState {
    stack: Vec<ActivityId>,
}

impl UiState {
    /// The launch state: the main activity on the stack.
    pub fn initial(app: &App) -> Option<Self> {
        app.main_activity().map(|a| UiState { stack: vec![a] })
    }

    /// The foreground activity, if any.
    pub fn top(&self) -> Option<ActivityId> {
        self.stack.last().copied()
    }

    /// Whether the app has exited (empty stack).
    pub fn is_exited(&self) -> bool {
        self.stack.is_empty()
    }

    /// Depth of the activity stack.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Events available in this state, in a deterministic order.
    pub fn available_events(&self, app: &App) -> Vec<UiEvent> {
        let Some(top) = self.top() else {
            return Vec::new();
        };
        let mut events = Vec::new();
        for &w in app.widgets_of(top) {
            if Self::possibly_enabled(app, w) {
                for kind in app.widget_events(w) {
                    events.push(UiEvent::Widget(w, kind));
                }
            }
        }
        events.push(UiEvent::Rotate);
        events.push(UiEvent::Back);
        events
    }

    fn possibly_enabled(app: &App, w: WidgetId) -> bool {
        if app.widget_initially_enabled(w) {
            return true;
        }
        // Enabled somewhere via setEnabled(true)?
        fn mentions(stmts: &[Stmt], w: WidgetId) -> bool {
            stmts.iter().any(|s| match s {
                Stmt::EnableWidget(x, _) => *x == w,
                Stmt::Synchronized(_, inner) => mentions(inner, w),
                _ => false,
            })
        }
        let in_activity = app.activities.iter().any(|a| {
            let c = &a.callbacks;
            [
                &c.create, &c.start, &c.resume, &c.pause, &c.stop, &c.restart, &c.destroy,
            ]
            .iter()
            .any(|b| mentions(b, w))
        });
        in_activity
            || app
                .async_tasks
                .iter()
                .any(|t| mentions(&t.post_execute, w) || mentions(&t.progress_update, w))
            || app.handlers.iter().any(|h| mentions(&h.body, w))
            || app
                .widgets
                .iter()
                .any(|wd| wd.handlers.iter().any(|(_, b)| mentions(b, w)))
            || app
                .services
                .iter()
                .any(|s| mentions(&s.create, w) || mentions(&s.start_command, w))
            || app
                .intent_services
                .iter()
                .any(|s| mentions(&s.handle_intent, w))
            || app.fragments.iter().any(|f| {
                mentions(&f.attach, w)
                    || mentions(&f.create_view, w)
                    || mentions(&f.destroy_view, w)
                    || mentions(&f.detach, w)
            })
            || app.receivers.iter().any(|r| mentions(&r.receive, w))
    }

    /// Advances the abstract state by one event. Returns `None` when the
    /// event is not available (wrong screen, or app exited).
    pub fn apply(&self, app: &App, event: UiEvent) -> Option<UiState> {
        let top = self.top()?;
        let mut next = self.clone();
        match event {
            UiEvent::Back => {
                next.stack.pop();
            }
            UiEvent::Rotate => {
                // Destroy + relaunch: stack unchanged.
            }
            UiEvent::Widget(w, kind) => {
                if app.widget_activity(w) != top || !app.widget_events(w).contains(&kind) {
                    return None;
                }
                let def = &app.widgets[w.0];
                let body = def
                    .handlers
                    .iter()
                    .find(|(k, _)| *k == kind)
                    .map(|(_, b)| b.clone())
                    .unwrap_or_default();
                next.apply_stmts(&body, 0);
            }
        }
        Some(next)
    }

    /// Tracks activity-stack effects of statements (startActivity / finish).
    fn apply_stmts(&mut self, stmts: &[Stmt], depth: usize) {
        if depth > 8 {
            return;
        }
        for stmt in stmts {
            match stmt {
                Stmt::StartActivity(b) => self.stack.push(*b),
                Stmt::FinishActivity => {
                    self.stack.pop();
                }
                Stmt::Synchronized(_, inner) => self.apply_stmts(inner, depth + 1),
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppBuilder;

    fn two_screen_app() -> (App, ActivityId, ActivityId, WidgetId) {
        let mut b = AppBuilder::new("X");
        let main = b.activity("Main");
        let detail = b.activity("Detail");
        let open = b.button(main, "open", vec![Stmt::StartActivity(detail)]);
        b.button(detail, "close", vec![Stmt::FinishActivity]);
        (b.finish(), main, detail, open)
    }

    #[test]
    fn initial_state_has_main_on_top() {
        let (app, main, _, _) = two_screen_app();
        let s = UiState::initial(&app).expect("has main activity");
        assert_eq!(s.top(), Some(main));
        assert_eq!(s.depth(), 1);
        assert!(!s.is_exited());
    }

    #[test]
    fn available_events_cover_widgets_and_system() {
        let (app, _, _, open) = two_screen_app();
        let s = UiState::initial(&app).unwrap();
        let events = s.available_events(&app);
        assert!(events.contains(&UiEvent::Widget(open, UiEventKind::Click)));
        assert!(events.contains(&UiEvent::Back));
        assert!(events.contains(&UiEvent::Rotate));
        // The detail screen's button is not on this screen.
        assert_eq!(events.len(), 3);
    }

    #[test]
    fn start_activity_pushes_stack() {
        let (app, _, detail, open) = two_screen_app();
        let s = UiState::initial(&app).unwrap();
        let s2 = s
            .apply(&app, UiEvent::Widget(open, UiEventKind::Click))
            .expect("event available");
        assert_eq!(s2.top(), Some(detail));
        assert_eq!(s2.depth(), 2);
    }

    #[test]
    fn back_pops_and_exits() {
        let (app, main, _, _) = two_screen_app();
        let s = UiState::initial(&app).unwrap();
        let s2 = s.apply(&app, UiEvent::Back).unwrap();
        assert!(s2.is_exited());
        assert!(s2.available_events(&app).is_empty());
        let _ = main;
    }

    #[test]
    fn rotate_keeps_stack() {
        let (app, main, _, _) = two_screen_app();
        let s = UiState::initial(&app).unwrap();
        let s2 = s.apply(&app, UiEvent::Rotate).unwrap();
        assert_eq!(s2.top(), Some(main));
    }

    #[test]
    fn wrong_screen_event_is_unavailable() {
        let (app, _, detail, open) = two_screen_app();
        let s = UiState::initial(&app).unwrap();
        let s2 = s
            .apply(&app, UiEvent::Widget(open, UiEventKind::Click))
            .unwrap();
        assert_eq!(s2.top(), Some(detail));
        // open is on Main, not Detail.
        assert!(s2
            .apply(&app, UiEvent::Widget(open, UiEventKind::Click))
            .is_none());
    }

    #[test]
    fn disabled_widget_needs_enable_stmt_to_appear() {
        let mut b = AppBuilder::new("X");
        let a = b.activity("Main");
        let play = b.button(a, "play", vec![]);
        b.initially_disabled(play);
        let app = b.finish();
        let s = UiState::initial(&app).unwrap();
        // No EnableWidget anywhere → event not offered.
        assert!(!s
            .available_events(&app)
            .contains(&UiEvent::Widget(play, UiEventKind::Click)));

        let mut b = AppBuilder::new("X");
        let a = b.activity("Main");
        let play = b.button(a, "play", vec![]);
        b.initially_disabled(play);
        let h = b.handler(
            "enablePlay",
            vec![Stmt::EnableWidget(play, UiEventKind::Click)],
        );
        b.on_resume(
            a,
            vec![Stmt::Post {
                handler: h,
                delay: None,
                front: false,
            }],
        );
        let app = b.finish();
        let s = UiState::initial(&app).unwrap();
        assert!(s
            .available_events(&app)
            .contains(&UiEvent::Widget(play, UiEventKind::Click)));
    }

    #[test]
    fn describe_uses_names() {
        let (app, _, _, open) = two_screen_app();
        assert_eq!(
            UiEvent::Widget(open, UiEventKind::Click).describe(&app),
            "click:Main.open"
        );
        assert_eq!(UiEvent::Back.describe(&app), "back");
    }
}
