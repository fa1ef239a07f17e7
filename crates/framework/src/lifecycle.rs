//! The Activity lifecycle state machine (Figure 8 of the paper).
//!
//! Gray nodes of the figure are [`LifecycleState`]s; the callback nodes are
//! [`Callback`]s. Solid edges are *must happen-after* orderings, dashed edges
//! *may happen-after*: if `β` may happen after `α`, some executions show `β`
//! after `α` and no trace shows `β` before `α`.
//!
//! The compiler uses this automaton to decide which `enable` operations each
//! lifecycle task plants, and the tests use it to check that generated
//! traces call callbacks in automaton order (experiment E7).

use std::fmt;

/// Lifecycle callback procedures of an Activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Callback {
    /// `onCreate`.
    Create,
    /// `onStart`.
    Start,
    /// `onResume`.
    Resume,
    /// `onPause`.
    Pause,
    /// `onStop`.
    Stop,
    /// `onRestart`.
    Restart,
    /// `onDestroy`.
    Destroy,
}

impl Callback {
    /// All callbacks.
    pub fn all() -> [Callback; 7] {
        [
            Callback::Create,
            Callback::Start,
            Callback::Resume,
            Callback::Pause,
            Callback::Stop,
            Callback::Restart,
            Callback::Destroy,
        ]
    }

    /// The Android method name.
    pub fn method_name(self) -> &'static str {
        match self {
            Callback::Create => "onCreate",
            Callback::Start => "onStart",
            Callback::Resume => "onResume",
            Callback::Pause => "onPause",
            Callback::Stop => "onStop",
            Callback::Restart => "onRestart",
            Callback::Destroy => "onDestroy",
        }
    }

    /// Callbacks that may run immediately after this one (the union of the
    /// figure's must- and may-edges out of the callback).
    pub fn successors(self) -> &'static [Callback] {
        match self {
            Callback::Create => &[Callback::Start],
            Callback::Start => &[Callback::Resume, Callback::Stop],
            Callback::Resume => &[Callback::Pause],
            Callback::Pause => &[Callback::Resume, Callback::Stop],
            Callback::Stop => &[Callback::Restart, Callback::Destroy],
            Callback::Restart => &[Callback::Start],
            Callback::Destroy => &[],
        }
    }
}

impl fmt::Display for Callback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.method_name())
    }
}

/// Coarse lifecycle states of an Activity (the gray nodes of Figure 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LifecycleState {
    /// Created but `onCreate` has not run.
    #[default]
    Launched,
    /// `onResume` has completed; the activity is in the foreground.
    Running,
    /// `onPause` has completed but the activity is not stopped.
    Paused,
    /// `onStop` has completed; the activity is in the background.
    Stopped,
    /// `onDestroy` has completed.
    Destroyed,
}

/// A checker that replays a sequence of callbacks against the automaton.
#[derive(Debug, Clone, Default)]
pub struct LifecycleMachine {
    state: LifecycleState,
    last: Option<Callback>,
}

/// Error produced when a callback sequence violates the automaton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LifecycleError {
    /// The callback that was attempted.
    pub callback: Callback,
    /// The callback it illegally followed, if any.
    pub after: Option<Callback>,
}

impl fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.after {
            Some(prev) => write!(f, "{} cannot follow {}", self.callback, prev),
            None => write!(f, "{} cannot be the first callback", self.callback),
        }
    }
}

impl std::error::Error for LifecycleError {}

impl LifecycleMachine {
    /// A fresh machine in the `Launched` state.
    pub fn new() -> Self {
        Self::default()
    }

    /// The coarse state reached so far.
    pub fn state(&self) -> LifecycleState {
        self.state
    }

    /// Feeds one callback.
    ///
    /// # Errors
    ///
    /// Returns [`LifecycleError`] if the callback is not a legal successor of
    /// the previous one.
    pub fn step(&mut self, callback: Callback) -> Result<(), LifecycleError> {
        let legal = match self.last {
            None => callback == Callback::Create,
            Some(prev) => prev.successors().contains(&callback),
        };
        if !legal {
            return Err(LifecycleError {
                callback,
                after: self.last,
            });
        }
        self.last = Some(callback);
        self.state = match callback {
            Callback::Create | Callback::Start | Callback::Restart => LifecycleState::Launched,
            Callback::Resume => LifecycleState::Running,
            Callback::Pause => LifecycleState::Paused,
            Callback::Stop => LifecycleState::Stopped,
            Callback::Destroy => LifecycleState::Destroyed,
        };
        Ok(())
    }

    /// Feeds a whole sequence.
    ///
    /// # Errors
    ///
    /// Returns the first violation.
    pub fn check(sequence: &[Callback]) -> Result<LifecycleState, LifecycleError> {
        let mut m = LifecycleMachine::new();
        for &c in sequence {
            m.step(c)?;
        }
        Ok(m.state())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Callback::*;

    #[test]
    fn happy_path_launch_to_destroy() {
        let state = LifecycleMachine::check(&[Create, Start, Resume, Pause, Stop, Destroy])
            .expect("legal sequence");
        assert_eq!(state, LifecycleState::Destroyed);
    }

    #[test]
    fn restart_cycle_is_legal() {
        let state =
            LifecycleMachine::check(&[Create, Start, Resume, Pause, Stop, Restart, Start, Resume])
                .expect("legal sequence");
        assert_eq!(state, LifecycleState::Running);
    }

    #[test]
    fn pause_resume_bounce_is_legal() {
        assert!(LifecycleMachine::check(&[Create, Start, Resume, Pause, Resume, Pause]).is_ok());
    }

    #[test]
    fn start_may_go_straight_to_stop() {
        // The figure's may-edge: onStart → onStop when the activity never
        // comes to the foreground.
        assert!(LifecycleMachine::check(&[Create, Start, Stop, Destroy]).is_ok());
    }

    #[test]
    fn destroy_before_stop_is_illegal() {
        let err = LifecycleMachine::check(&[Create, Start, Resume, Destroy]).unwrap_err();
        assert_eq!(err.callback, Destroy);
        assert_eq!(err.after, Some(Resume));
        assert!(err.to_string().contains("cannot follow"));
    }

    #[test]
    fn must_start_with_create() {
        let err = LifecycleMachine::check(&[Start]).unwrap_err();
        assert_eq!(err.after, None);
    }

    #[test]
    fn no_callback_follows_destroy() {
        assert!(Destroy.successors().is_empty());
        assert!(LifecycleMachine::check(&[Create, Start, Stop, Destroy, Restart]).is_err());
    }

    #[test]
    fn successor_lists_match_figure_8() {
        assert_eq!(Create.successors(), &[Start]);
        assert_eq!(Start.successors(), &[Resume, Stop]);
        assert_eq!(Resume.successors(), &[Pause]);
        assert_eq!(Pause.successors(), &[Resume, Stop]);
        assert_eq!(Stop.successors(), &[Restart, Destroy]);
        assert_eq!(Restart.successors(), &[Start]);
    }

    #[test]
    fn method_names_are_android_style() {
        for c in Callback::all() {
            assert!(c.method_name().starts_with("on"));
        }
    }
}
