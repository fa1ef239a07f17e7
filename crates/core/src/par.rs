//! Dependency-free parallel fan-out with deterministic, input-order merge.
//!
//! DroidRacer's detection phase is offline and embarrassingly parallel
//! across traces: each [`Analysis`](crate::Analysis) touches only its own
//! trace, so a batch of traces can be analyzed on a pool of worker threads
//! with no shared mutable state. The only real hazard of parallelizing an
//! analysis pipeline is *nondeterministic output* — results arriving in
//! completion order instead of submission order. This module rules that
//! out structurally.
//!
//! # Determinism contract
//!
//! For any `items`, any pure `f`, and any thread count `n ≥ 0`:
//!
//! ```text
//! par_map(&items, n, f) == items.iter().map(f).collect()
//! ```
//!
//! — element for element, in input order. Workers claim items through a
//! single atomic counter (work stealing by index), compute `f` on their
//! claimed item, and write the result into that item's dedicated output
//! slot. Scheduling decides only *who* computes each result, never *where*
//! it lands or *what* it is. Wall-clock span durations embedded in results
//! (e.g. [`Analysis::spans`](crate::Analysis::spans)) are the one
//! intentional exception: they vary run to run and are excluded from report
//! equality.
//!
//! The pool is built on [`std::thread::scope`], so `f` and the items only
//! need to outlive the call, not `'static`, and a panic in any worker
//! propagates to the caller after the scope joins.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use droidracer_obs::{Recorder, SpanRecord};
use droidracer_trace::Trace;

use crate::report::Analysis;
use crate::rules::HbConfig;
use crate::session::AnalysisBuilder;

/// A sensible worker count for this machine: the available hardware
/// parallelism, or 1 if it cannot be determined.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Minimum item count before a fan-out spawns worker threads.
///
/// Spawning and joining a scoped pool costs tens of microseconds; below
/// this many items the fixed overhead dominates any speedup (the pipeline
/// bench measured the parallel path at 0.878× sequential for `threads=1`
/// before the short-circuit was made explicit). Items here are whole
/// analyses — milliseconds each — so the threshold is low.
pub const SPAWN_MIN_ITEMS: usize = 2;

/// The worker count a fan-out will actually use: `1` (the inline
/// sequential path — no threads spawned) when `threads ≤ 1` or there are
/// fewer than [`SPAWN_MIN_ITEMS`] items, otherwise `threads` capped at the
/// item count.
///
/// [`par_map`] and [`par_try_map`] route through this, so callers (the
/// pipeline bench exports it as `par.effective_workers`) can report which
/// path a fan-out took without instrumenting the pool.
pub fn effective_workers(items: usize, threads: usize) -> usize {
    if threads <= 1 || items < SPAWN_MIN_ITEMS {
        1
    } else {
        threads.min(items)
    }
}

/// Applies `f` to every item on `threads` workers, returning results in
/// input order (see the module documentation for the contract).
///
/// `threads ≤ 1` runs inline on the caller's thread — the sequential path
/// and the parallel path are the same code shape, so equivalence tests can
/// compare them directly. Worker panics propagate.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = effective_workers(items.len(), threads);
    if workers == 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    // Collected (index, result) pairs; each worker drains its local batch
    // into this under one short lock at exit.
    let gathered: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    local.push((i, f(&items[i])));
                }
                gathered
                    .lock()
                    .expect("a worker panicked while holding the gather lock")
                    .append(&mut local);
            });
        }
    });
    let mut pairs = gathered
        .into_inner()
        .expect("a worker panicked while holding the gather lock");
    debug_assert_eq!(pairs.len(), items.len(), "every item produced a result");
    // Deterministic merge: place each result back at its input index. The
    // indices are a permutation of 0..len, so sorting restores input order
    // exactly regardless of which worker computed what.
    pairs.sort_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, r)| r).collect()
}

/// Why one item of a [`par_try_map`] fan-out produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemError<E> {
    /// The closure returned a typed error for this item.
    Err(E),
    /// The closure panicked on this item; the payload is the rendered panic
    /// message. The worker survived and went on to other items.
    Panic(String),
}

impl<E: std::fmt::Display> std::fmt::Display for ItemError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ItemError::Err(e) => write!(f, "{e}"),
            ItemError::Panic(msg) => write!(f, "worker panicked: {msg}"),
        }
    }
}

/// Renders a caught panic payload (the `Box<dyn Any>` from
/// [`std::panic::catch_unwind`]) into a displayable message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs `f` inside the quarantine boundary used by [`par_try_map`]: a
/// typed error becomes [`ItemError::Err`], a panic is caught and becomes
/// [`ItemError::Panic`] with the rendered message, and the calling thread
/// survives either way. This is the single-job form of the fan-out
/// isolation — servers use it to wrap one analysis job per worker without
/// going through a batch.
pub fn run_isolated<R, E>(f: impl FnOnce() -> Result<R, E>) -> Result<R, ItemError<E>> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(Ok(r)) => Ok(r),
        Ok(Err(e)) => Err(ItemError::Err(e)),
        Err(payload) => Err(ItemError::Panic(panic_message(payload))),
    }
}

/// Fault-isolated [`par_map`]: applies the fallible `f` to every item,
/// catching panics per item, and returns one `Result` per input in input
/// order.
///
/// This is the quarantine primitive of the batch pipeline: a panicking or
/// failing item becomes `Err(ItemError)` in its own slot and *nothing
/// else changes* — the sibling results are bit-identical to a run without
/// the bad item, because workers share no mutable state and the merge is
/// by input index. The determinism contract of [`par_map`] carries over:
///
/// ```text
/// par_try_map(&items, n, f)[i] == catch(f(&items[i]))   for every i, any n
/// ```
///
/// It is `par_map` with every item run inside [`run_isolated`], so worker
/// panics do NOT propagate; use `par_map` itself when a panic should abort
/// the batch.
pub fn par_try_map<T, R, E, F>(items: &[T], threads: usize, f: F) -> Vec<Result<R, ItemError<E>>>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(&T) -> Result<R, E> + Sync,
{
    par_map(items, threads, |item| run_isolated(|| f(item)))
}

/// [`par_map`] with per-item span recording: every worker records its
/// item's subtree on a clock shared across the whole fan-out, and the
/// subtrees are merged — like the results — by input index under a parent
/// span named `label`.
///
/// Each item `i` gets a span `label[i]` wrapping whatever `f` records; `f`
/// receives a [`Recorder`] already inside that span. Because the merge
/// order is the input order and the recorders share one clock origin, the
/// *structure* of the returned [`SpanRecord`] (names, nesting, counters) is
/// identical for every thread count — only `start_ns`/`dur_ns` vary.
pub fn par_map_profiled<T, R, F>(
    items: &[T],
    threads: usize,
    label: &str,
    f: F,
) -> (Vec<R>, SpanRecord)
where
    T: Sync,
    R: Send,
    F: Fn(&T, &mut Recorder) -> R + Sync,
{
    let origin = Instant::now();
    let profiled = par_map(items, threads, |item| {
        let mut rec = Recorder::with_origin(origin);
        rec.start(label.to_owned());
        let result = f(item, &mut rec);
        (result, rec.finish_root())
    });
    let mut parent = SpanRecord::leaf(label);
    parent
        .counters
        .push(("items".to_owned(), items.len() as u64));
    let mut results = Vec::with_capacity(profiled.len());
    for (i, (result, mut span)) in profiled.into_iter().enumerate() {
        span.name = format!("{label}[{i}]");
        parent.dur_ns = parent.dur_ns.max(span.start_ns + span.dur_ns);
        parent.children.push(span);
        results.push(result);
    }
    (results, parent)
}

/// Analyzes a batch of traces in parallel with the paper's full
/// configuration, preserving input order.
pub fn analyze_all(traces: &[Trace], threads: usize) -> Vec<Analysis> {
    analyze_all_with(traces, threads, HbConfig::new())
}

/// Analyzes a batch of traces in parallel under an explicit configuration,
/// preserving input order.
pub fn analyze_all_with(traces: &[Trace], threads: usize, config: HbConfig) -> Vec<Analysis> {
    par_map(traces, threads, |trace| {
        AnalysisBuilder::new()
            .config(config)
            .analyze(trace)
            .expect("infallible without validation")
    })
}

/// [`analyze_all_with`] plus a merged profile: the returned span tree has
/// one `analyze[i]` child per trace (in input order, regardless of thread
/// count), each containing that analysis' full phase subtree.
pub fn analyze_all_profiled(
    traces: &[Trace],
    threads: usize,
    config: HbConfig,
) -> (Vec<Analysis>, SpanRecord) {
    par_map_profiled(traces, threads, "analyze", |trace, rec| {
        let analysis = AnalysisBuilder::new()
            .config(config)
            .clock_origin(rec.origin())
            .analyze(trace)
            .expect("infallible without validation");
        rec.adopt(analysis.spans().clone());
        analysis
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential_map() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [0, 1, 2, 3, 8, 64] {
            let got = par_map(&items, threads, |x| x * x + 1);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(par_map(&empty, 4, |x| *x), Vec::<u32>::new());
        assert_eq!(par_map(&[7u32], 4, |x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_uses_more_workers_than_items_safely() {
        let items = [1u32, 2];
        assert_eq!(par_map(&items, 16, |x| x * 10), vec![10, 20]);
    }

    #[test]
    fn results_land_at_input_positions_not_completion_order() {
        // Make early items slow so completion order inverts input order.
        let items: Vec<usize> = (0..16).collect();
        let got = par_map(&items, 4, |&i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i * 2
        });
        assert_eq!(got, (0..16).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        let items = [0u32, 1, 2, 3];
        let _ = par_map(&items, 2, |&x| {
            assert!(x != 2, "boom");
            x
        });
    }

    #[test]
    fn par_try_map_isolates_panics_and_errors() {
        let items: Vec<u32> = (0..32).collect();
        for threads in [1, 4] {
            let got = par_try_map(&items, threads, |&x| {
                if x == 7 {
                    panic!("injected panic on {x}");
                }
                if x % 10 == 1 {
                    return Err(format!("typed error on {x}"));
                }
                Ok(x * 2)
            });
            assert_eq!(got.len(), items.len(), "threads={threads}");
            for (i, r) in got.iter().enumerate() {
                match (i as u32, r) {
                    (7, Err(ItemError::Panic(msg))) => {
                        assert!(msg.contains("injected panic"), "{msg}")
                    }
                    (x, Err(ItemError::Err(e))) if x % 10 == 1 => {
                        assert!(e.contains("typed error"), "{e}")
                    }
                    (x, Ok(v)) => assert_eq!(*v, x * 2),
                    other => panic!("unexpected slot {other:?} at {i} (threads={threads})"),
                }
            }
        }
    }

    #[test]
    fn par_try_map_siblings_unaffected_by_faulty_item() {
        // The quarantine invariant in miniature: results for the good items
        // are identical with and without a panicking sibling in the batch.
        let clean: Vec<u32> = (0..16).collect();
        let run = |items: &[u32]| {
            par_try_map(items, 4, |&x| {
                if x == 99 {
                    panic!("bad sibling");
                }
                Ok::<u32, String>(x.wrapping_mul(31).rotate_left(3))
            })
        };
        let mut with_fault = clean.clone();
        with_fault.insert(9, 99);
        let baseline = run(&clean);
        let faulted = run(&with_fault);
        let good: Vec<_> = faulted
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != 9)
            .map(|(_, r)| r.clone())
            .collect();
        assert_eq!(good, baseline);
        assert!(matches!(faulted[9], Err(ItemError::Panic(_))));
    }

    #[test]
    fn analyze_all_agrees_with_sequential_analysis() {
        use droidracer_trace::{ThreadKind, TraceBuilder};
        let mut traces = Vec::new();
        for k in 0..6 {
            let mut b = TraceBuilder::new();
            let main = b.thread("main", ThreadKind::Main, true);
            let bg = b.thread("bg", ThreadKind::App, false);
            let loc = b.loc("obj", "C.state");
            b.thread_init(main);
            b.fork(main, bg);
            b.thread_init(bg);
            for _ in 0..=k {
                b.write(bg, loc);
            }
            b.read(main, loc);
            traces.push(b.finish());
        }
        let sequential: Vec<Analysis> = traces
            .iter()
            .map(|t| AnalysisBuilder::new().analyze(t).expect("runs"))
            .collect();
        for threads in [1, 2, 8] {
            let parallel = analyze_all(&traces, threads);
            assert_eq!(parallel.len(), sequential.len());
            for (p, s) in parallel.iter().zip(&sequential) {
                assert_eq!(p.races(), s.races(), "threads={threads}");
                assert_eq!(p.counts(), s.counts(), "threads={threads}");
                assert_eq!(p.hb().stats(), s.hb().stats(), "threads={threads}");
                assert_eq!(p.render(), s.render(), "threads={threads}");
            }
        }
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn effective_workers_encodes_the_spawn_threshold() {
        // threads ≤ 1 is always the inline path.
        assert_eq!(effective_workers(100, 0), 1);
        assert_eq!(effective_workers(100, 1), 1);
        // Below the spawn threshold: inline regardless of threads.
        assert_eq!(effective_workers(0, 8), 1);
        assert_eq!(effective_workers(SPAWN_MIN_ITEMS - 1, 8), 1);
        // At/above threshold: capped at the item count.
        assert_eq!(
            effective_workers(SPAWN_MIN_ITEMS, 8),
            SPAWN_MIN_ITEMS.min(8)
        );
        assert_eq!(effective_workers(3, 16), 3);
        assert_eq!(effective_workers(100, 8), 8);
    }

    #[test]
    fn profiled_fan_out_has_identical_structure_across_thread_counts() {
        use droidracer_trace::{ThreadKind, TraceBuilder};
        let mut traces = Vec::new();
        for k in 0..5 {
            let mut b = TraceBuilder::new();
            let main = b.thread("main", ThreadKind::Main, true);
            let bg = b.thread("bg", ThreadKind::App, false);
            let loc = b.loc("obj", "C.state");
            b.thread_init(main);
            b.fork(main, bg);
            b.thread_init(bg);
            for _ in 0..=k {
                b.write(bg, loc);
            }
            b.read(main, loc);
            traces.push(b.finish());
        }
        let (_, base) = analyze_all_profiled(&traces, 1, HbConfig::new());
        assert_eq!(base.children.len(), traces.len());
        assert_eq!(base.children[0].name, "analyze[0]");
        assert!(base.children[0].find("closure").is_some());
        for threads in [2, 8] {
            let (_, span) = analyze_all_profiled(&traces, threads, HbConfig::new());
            assert_eq!(span.structure(), base.structure(), "threads={threads}");
        }
    }

    #[test]
    fn par_map_profiled_wraps_worker_spans() {
        let items: Vec<u32> = (0..7).collect();
        let (results, span) = par_map_profiled(&items, 3, "work", |&x, rec| {
            rec.counter("x", x as u64);
            x * 2
        });
        assert_eq!(results, vec![0, 2, 4, 6, 8, 10, 12]);
        assert_eq!(span.name, "work");
        assert_eq!(span.children.len(), 7);
        for (i, child) in span.children.iter().enumerate() {
            assert_eq!(child.name, format!("work[{i}]"));
            assert_eq!(child.counters, vec![("x".to_owned(), i as u64)]);
        }
    }
}
