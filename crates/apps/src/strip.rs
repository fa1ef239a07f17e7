//! Erasing "untracked" operations from traces.
//!
//! DroidRacer "only tracks operations due to Java code, whereas some
//! applications perform operations using C/C++ code too", misses
//! synchronization through custom task queues, and can miss `enable`
//! instrumentation sites (§6 "False positives and negatives"). The corpus
//! reproduces those blind spots deliberately: entities whose names begin
//! with the `untracked:` prefix represent native or otherwise invisible
//! mechanisms. [`strip_untracked`] removes their operations from a trace
//! before analysis, so the detector sees exactly what the real tool would
//! have seen — and reports the corresponding false positives.

use droidracer_trace::{OpKind, Trace};

/// The name prefix marking an entity as invisible to the tracer.
pub const UNTRACKED_PREFIX: &str = "untracked:";

/// Returns a copy of `trace` with all operations stripped that the real
/// tracer could not have observed:
///
/// * `fork`/`join` of threads named `untracked:*` (natively created threads
///   — the Browser false-positive source),
/// * `acquire`/`release` of locks named `untracked:*` (native
///   synchronization),
/// * `enable` of tasks whose name mentions `untracked:` (missing
///   instrumentation sites for enable operations).
///
/// The threads' own operations (including their posts) remain visible, just
/// as the posts of untracked native threads show up in DroidRacer's traces
/// without their synchronization context.
pub fn strip_untracked(trace: &Trace) -> Trace {
    let names = trace.names();
    let untracked_thread =
        |t: droidracer_trace::ThreadId| names.thread_name(t).starts_with(UNTRACKED_PREFIX);
    let ops = trace
        .ops()
        .iter()
        .copied()
        .filter(|op| match op.kind {
            OpKind::Fork { child } | OpKind::Join { child } => !untracked_thread(child),
            OpKind::Acquire { lock } | OpKind::Release { lock } => {
                !names.lock_name(lock).starts_with(UNTRACKED_PREFIX)
            }
            OpKind::Enable { task } => !names.task_name(task).contains(UNTRACKED_PREFIX),
            _ => true,
        })
        .collect();
    Trace::from_parts(names.clone(), ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use droidracer_trace::{ThreadKind, TraceBuilder};

    #[test]
    fn strips_untracked_forks_joins_locks_and_enables() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let native = b.thread("untracked:native", ThreadKind::App, false);
        let plain = b.thread("worker", ThreadKind::App, false);
        let hidden_lock = b.lock("untracked:mutex");
        let visible_lock = b.lock("mutex");
        let hidden_task = b.task("Act.untracked:dialogOk.onClick");
        let visible_task = b.task("Act.play.onClick");
        b.thread_init(main);
        b.fork(main, native); // stripped
        b.fork(main, plain); // kept
        b.thread_init(native); // kept (the thread itself is visible)
        b.thread_init(plain);
        b.acquire(main, hidden_lock); // stripped
        b.release(main, hidden_lock); // stripped
        b.acquire(main, visible_lock); // kept
        b.release(main, visible_lock); // kept
        b.enable(main, hidden_task); // stripped
        b.enable(main, visible_task); // kept
        b.thread_exit(native);
        b.join(main, native); // stripped
        b.thread_exit(plain);
        b.join(main, plain); // kept
        let trace = b.finish();
        let stripped = strip_untracked(&trace);
        assert_eq!(stripped.len(), trace.len() - 5);
        for op in stripped.ops() {
            match op.kind {
                droidracer_trace::OpKind::Fork { child }
                | droidracer_trace::OpKind::Join { child } => {
                    assert_eq!(stripped.names().thread_name(child), "worker");
                }
                droidracer_trace::OpKind::Acquire { lock }
                | droidracer_trace::OpKind::Release { lock } => {
                    assert_eq!(stripped.names().lock_name(lock), "mutex");
                }
                droidracer_trace::OpKind::Enable { task } => {
                    assert!(!stripped.names().task_name(task).contains("untracked"));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn is_identity_without_untracked_entities() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let loc = b.loc("o", "C.f");
        b.thread_init(main);
        b.write(main, loc);
        let trace = b.finish();
        assert_eq!(strip_untracked(&trace), trace);
    }
}
