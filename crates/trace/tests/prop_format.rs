//! Property tests for the trace crate: the text format round-trips
//! arbitrary (even infeasible) traces, and derived structures behave.

use proptest::prelude::*;

use droidracer_trace::{
    from_text, to_text, EventId, FieldId, LockId, MemLoc, ObjectId, Op, OpKind, PostKind, TaskId,
    ThreadId, ThreadKind, TraceBuilder, TraceStats,
};

/// Strategy for an arbitrary operation over small id spaces.
fn arb_op() -> impl Strategy<Value = Op> {
    let thread = (0u32..4).prop_map(ThreadId);
    let task = (0u32..6).prop_map(TaskId);
    let lock = (0u32..3).prop_map(LockId);
    let loc = ((0u32..3), (0u32..4)).prop_map(|(o, f)| MemLoc::new(ObjectId(o), FieldId(f)));
    let kind = prop_oneof![
        Just(OpKind::ThreadInit),
        Just(OpKind::ThreadExit),
        (0u32..4).prop_map(|t| OpKind::Fork { child: ThreadId(t) }),
        (0u32..4).prop_map(|t| OpKind::Join { child: ThreadId(t) }),
        Just(OpKind::AttachQ),
        Just(OpKind::LoopOnQ),
        (
            task.clone(),
            (0u32..4),
            prop_oneof![
                Just(PostKind::Plain),
                (1u64..1000).prop_map(PostKind::Delayed),
                Just(PostKind::Front),
            ],
            proptest::option::of((0u32..3).prop_map(EventId))
        )
            .prop_map(|(task, target, kind, event)| OpKind::Post {
                task,
                target: ThreadId(target),
                kind,
                event,
            }),
        task.clone().prop_map(|task| OpKind::Begin { task }),
        task.clone().prop_map(|task| OpKind::End { task }),
        task.clone().prop_map(|task| OpKind::Cancel { task }),
        lock.clone().prop_map(|lock| OpKind::Acquire { lock }),
        lock.prop_map(|lock| OpKind::Release { lock }),
        loc.clone().prop_map(|loc| OpKind::Read { loc }),
        loc.prop_map(|loc| OpKind::Write { loc }),
        task.prop_map(|task| OpKind::Enable { task }),
    ];
    (thread, kind).prop_map(|(thread, kind)| Op::new(thread, kind))
}

fn arb_name() -> impl Strategy<Value = String> {
    // Names including the quoting-sensitive characters.
    proptest::string::string_regex("[a-zA-Z0-9 .#:\"\\\\_-]{0,12}").expect("valid regex")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The text format round-trips any op sequence with any names.
    #[test]
    fn format_roundtrips_arbitrary_traces(
        ops in proptest::collection::vec(arb_op(), 0..60),
        thread_names in proptest::collection::vec(arb_name(), 4),
        task_names in proptest::collection::vec(arb_name(), 6),
    ) {
        let mut b = TraceBuilder::new();
        for (i, name) in thread_names.iter().enumerate() {
            b.thread(
                name.clone(),
                if i == 0 { ThreadKind::Main } else { ThreadKind::App },
                i < 2,
            );
        }
        for name in &task_names {
            b.task(name.clone());
        }
        // Declare the id spaces the ops reference.
        for i in 0..3 {
            b.lock(format!("lock{i}"));
        }
        for i in 0..3 {
            b.event(format!("event{i}"));
        }
        for i in 0..3 {
            let _ = b.loc(format!("obj{i}"), "F.f0");
        }
        for i in 1..4 {
            // Remaining fields referenced by MemLoc field ids 1..4.
            let _ = b.field_of(ObjectId(0), format!("F.f{i}"));
        }
        for op in &ops {
            b.push(*op);
        }
        let trace = b.finish();
        let text = to_text(&trace);
        let back = from_text(&text).expect("round-trip parses");
        prop_assert_eq!(back.ops(), trace.ops());
        for i in 0..4u32 {
            prop_assert_eq!(
                back.names().thread_name(ThreadId(i)),
                trace.names().thread_name(ThreadId(i))
            );
        }
        for i in 0..6u32 {
            prop_assert_eq!(
                back.names().task_name(TaskId(i)),
                trace.names().task_name(TaskId(i))
            );
        }
    }

    /// Statistics are insensitive to serialization.
    #[test]
    fn stats_survive_roundtrip(ops in proptest::collection::vec(arb_op(), 0..60)) {
        let mut b = TraceBuilder::new();
        for i in 0..4 {
            b.thread(format!("t{i}"), ThreadKind::App, true);
        }
        for i in 0..6 {
            b.task(format!("p{i}"));
        }
        for i in 0..3 {
            b.lock(format!("l{i}"));
            b.event(format!("e{i}"));
            let _ = b.loc(format!("o{i}"), format!("C.f{i}"));
        }
        for i in 0..4 {
            let _ = b.field_of(ObjectId(0), format!("C.g{i}"));
        }
        for op in &ops {
            b.push(*op);
        }
        let trace = b.finish();
        let back = from_text(&to_text(&trace)).expect("parses");
        prop_assert_eq!(TraceStats::of(&back), TraceStats::of(&trace));
    }

    /// The task index never assigns ops to tasks outside begin/end windows
    /// on their own thread. (Arbitrary op soups may "begin" one task on
    /// several threads, which unique renaming forbids in real traces; the
    /// index contract is per-thread, so the check is too.)
    #[test]
    fn task_index_is_consistent(ops in proptest::collection::vec(arb_op(), 0..80)) {
        let mut b = TraceBuilder::new();
        for i in 0..4 {
            b.thread(format!("t{i}"), ThreadKind::App, true);
        }
        for i in 0..6 {
            b.task(format!("p{i}"));
        }
        for i in 0..3 {
            b.lock(format!("l{i}"));
            let _ = b.loc(format!("o{i}"), format!("C.f{i}"));
        }
        for op in &ops {
            b.push(*op);
        }
        let trace = b.finish();
        let index = trace.index();
        for (i, op) in trace.iter() {
            if let Some(task) = index.task_of(i) {
                if matches!(op.kind, OpKind::Begin { .. } | OpKind::End { .. }) {
                    continue;
                }
                // Some earlier Begin of this task ran on this op's thread,
                // with no intervening End of it on the same thread.
                let mut open = false;
                for j in 0..=i {
                    let prior = trace.op(j);
                    if prior.thread != op.thread {
                        continue;
                    }
                    match prior.kind {
                        OpKind::Begin { task: t } if t == task => open = true,
                        OpKind::Begin { .. } => open = false,
                        OpKind::End { .. } => open = false,
                        _ => {}
                    }
                }
                prop_assert!(open, "op {} attributed to {} without an open begin", i, task);
            }
        }
    }
}
