//! Data race detection over a computed happens-before relation (§4.3).

use std::collections::HashMap;
use std::fmt;

use droidracer_trace::{MemLoc, OpKind, Trace};

use crate::engine::HappensBefore;
use crate::graph::NodeId;

/// The access pattern of a race.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RaceKind {
    /// Both operations write.
    WriteWrite,
    /// The earlier operation writes, the later reads.
    WriteRead,
    /// The earlier operation reads, the later writes.
    ReadWrite,
}

impl fmt::Display for RaceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RaceKind::WriteWrite => "write-write",
            RaceKind::WriteRead => "write-read",
            RaceKind::ReadWrite => "read-write",
        };
        f.write_str(s)
    }
}

/// A detected data race: two conflicting operations with no happens-before
/// ordering between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Race {
    /// Trace index of the earlier operation.
    pub first: usize,
    /// Trace index of the later operation.
    pub second: usize,
    /// The memory location both access.
    pub loc: MemLoc,
    /// Which of the two operations write.
    pub kind: RaceKind,
}

/// The earliest read and write a single access block performs on one
/// location — enough to pick a race witness without retaining every access.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct BlockAccesses {
    pub(crate) first_read: Option<usize>,
    pub(crate) first_write: Option<usize>,
}

/// The accesses of a trace, one entry per (location, access block): the
/// unit that both §6 node merging and race reporting use. Batch [`detect`]
/// fills one in a single pass over the ops; the streaming engine fills its
/// own as ops arrive and scans it again at `finish()`.
///
/// Nearly every access repeats its block's previous location, so each
/// block remembers the location and entry it touched last, and only a
/// change of location looks the pair up in the `(location, block)` map.
#[derive(Debug, Default)]
pub(crate) struct AccessTable {
    /// One entry per (location, block), in first-access order.
    entries: Vec<(MemLoc, NodeId, BlockAccesses)>,
    slot: HashMap<(MemLoc, NodeId), usize>,
    /// Each block's last location and its entry, indexed by `NodeId`.
    memo: Vec<Option<(MemLoc, usize)>>,
}

impl AccessTable {
    /// Records that the op at trace index `i`, in block `node`, reads or
    /// writes `loc`. Returns the index of the entry when this access
    /// created it, so a caller can index the new entry.
    pub(crate) fn record(
        &mut self,
        loc: MemLoc,
        node: NodeId,
        i: usize,
        is_write: bool,
    ) -> Option<usize> {
        if node >= self.memo.len() {
            self.memo.resize(node + 1, None);
        }
        let (entry, created) = match self.memo[node] {
            Some((last, entry)) if last == loc => (entry, false),
            _ => {
                let next = self.entries.len();
                let entry = *self.slot.entry((loc, node)).or_insert(next);
                if entry == next {
                    self.entries.push((loc, node, BlockAccesses::default()));
                }
                self.memo[node] = Some((loc, entry));
                (entry, entry == next)
            }
        };
        let acc = &mut self.entries[entry].2;
        let first = if is_write {
            &mut acc.first_write
        } else {
            &mut acc.first_read
        };
        first.get_or_insert(i);
        created.then_some(entry)
    }

    /// The entry at `index`: its location, its block and the block's first
    /// accesses to the location.
    pub(crate) fn entry(&self, index: usize) -> (MemLoc, NodeId, BlockAccesses) {
        self.entries[index]
    }

    /// Every race among the recorded accesses: for each location, one
    /// [`Race`] per unordered pair of blocks touching it whose accesses
    /// conflict and that `ordered_nodes` leaves unordered both ways,
    /// sorted by location, then positions.
    pub(crate) fn races(&self, ordered_nodes: impl Fn(NodeId, NodeId) -> bool) -> Vec<Race> {
        // Entry indices grouped by location, each group in first-access order.
        let mut by_loc: Vec<(MemLoc, usize)> = self
            .entries
            .iter()
            .enumerate()
            .map(|(e, &(loc, ..))| (loc, e))
            .collect();
        by_loc.sort_unstable();
        let mut races = Vec::new();
        for group in by_loc.chunk_by(|a, b| a.0 == b.0) {
            for (k, &(loc, a)) in group.iter().enumerate() {
                let (_, node_a, acc_a) = self.entries[a];
                for &(_, b) in &group[k + 1..] {
                    let (_, node_b, acc_b) = self.entries[b];
                    debug_assert_ne!(node_a, node_b);
                    if ordered_nodes(node_a, node_b) || ordered_nodes(node_b, node_a) {
                        continue;
                    }
                    races.extend(race_between(loc, &acc_a, &acc_b));
                }
            }
        }
        races.sort_by_key(|r| (r.loc, r.first, r.second));
        races
    }
}

/// The race that two unordered blocks' accesses to `loc` stand for, if
/// they conflict: the first writes of both when both write, else one
/// block's first write against the other's first read. The kind follows
/// from which side writes, so the ops are not read again.
pub(crate) fn race_between(loc: MemLoc, a: &BlockAccesses, b: &BlockAccesses) -> Option<Race> {
    // Each side as (position, writes).
    let (x, y) = match (a.first_write, b.first_write) {
        (Some(wa), Some(wb)) => ((wa, true), (wb, true)),
        (Some(wa), None) => ((wa, true), (b.first_read?, false)),
        (None, Some(wb)) => ((a.first_read?, false), (wb, true)),
        (None, None) => return None,
    };
    let (first, second) = if x.0 < y.0 { (x, y) } else { (y, x) };
    let kind = match (first.1, second.1) {
        (true, true) => RaceKind::WriteWrite,
        (true, false) => RaceKind::WriteRead,
        (false, _) => RaceKind::ReadWrite,
    };
    Some(Race {
        first: first.0,
        second: second.0,
        loc,
        kind,
    })
}

/// Finds all data races in `trace` under the relation `hb`.
///
/// Races are reported at the granularity of graph-node pairs: for each
/// memory location and each unordered pair of access blocks touching it with
/// at least one write, one representative [`Race`] is produced (preferring a
/// write-write witness). Reporting per block pair rather than per operation
/// pair loses nothing: all operations of a block share the same orderings.
pub fn detect(trace: &Trace, hb: &HappensBefore) -> Vec<Race> {
    let graph = hb.graph();
    let mut table = AccessTable::default();
    for (i, op) in trace.ops().iter().enumerate() {
        let (loc, is_write) = match op.kind {
            OpKind::Read { loc } => (loc, false),
            OpKind::Write { loc } => (loc, true),
            _ => continue,
        };
        table.record(loc, graph.node_of(i), i, is_write);
    }
    table.races(|a, b| hb.ordered_nodes(a, b))
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::rules::HbConfig;
    use droidracer_trace::{Op, TaskId, ThreadId, ThreadKind, TraceBuilder};

    fn analyze(trace: &Trace) -> Vec<Race> {
        let hb = HappensBefore::compute(trace, HbConfig::new());
        detect(trace, &hb)
    }

    /// The scan the access table replaced, kept as its reference: a
    /// location → blocks map and a (location, block) → slot map, both
    /// looked up for every access, then the same pair scan.
    fn reference_races(
        ops: &[Op],
        node_of: impl Fn(usize) -> NodeId,
        ordered_nodes: impl Fn(NodeId, NodeId) -> bool,
    ) -> Vec<Race> {
        let mut per_loc: HashMap<MemLoc, Vec<(NodeId, BlockAccesses)>> = HashMap::new();
        let mut slot: HashMap<(MemLoc, NodeId), usize> = HashMap::new();
        for (i, op) in ops.iter().copied().enumerate() {
            let (loc, is_write) = match op.kind {
                OpKind::Read { loc } => (loc, false),
                OpKind::Write { loc } => (loc, true),
                _ => continue,
            };
            let node = node_of(i);
            let blocks = per_loc.entry(loc).or_default();
            let idx = *slot.entry((loc, node)).or_insert_with(|| {
                blocks.push((node, BlockAccesses::default()));
                blocks.len() - 1
            });
            let acc = &mut blocks[idx].1;
            let slot_ref = if is_write {
                &mut acc.first_write
            } else {
                &mut acc.first_read
            };
            if slot_ref.is_none() {
                *slot_ref = Some(i);
            }
        }
        let pick_witness =
            |a: &BlockAccesses, b: &BlockAccesses| match (a.first_write, b.first_write) {
                (Some(wa), Some(wb)) => Some((wa, wb)),
                (Some(wa), None) => b.first_read.map(|rb| (wa, rb)),
                (None, Some(wb)) => a.first_read.map(|ra| (ra, wb)),
                (None, None) => None,
            };
        let mut races = Vec::new();
        for (loc, blocks) in &per_loc {
            for (i, (node_a, acc_a)) in blocks.iter().enumerate() {
                for (node_b, acc_b) in &blocks[i + 1..] {
                    if ordered_nodes(*node_a, *node_b) || ordered_nodes(*node_b, *node_a) {
                        continue;
                    }
                    let Some(witness) = pick_witness(acc_a, acc_b) else {
                        continue;
                    };
                    let (first, second) = (witness.0.min(witness.1), witness.0.max(witness.1));
                    let kind = match (ops[first].kind.is_write(), ops[second].kind.is_write()) {
                        (true, true) => RaceKind::WriteWrite,
                        (true, false) => RaceKind::WriteRead,
                        (false, true) => RaceKind::ReadWrite,
                        (false, false) => unreachable!("a race witness has at least one write"),
                    };
                    races.push(Race {
                        first,
                        second,
                        loc: *loc,
                        kind,
                    });
                }
            }
        }
        races.sort_by_key(|r| (r.loc, r.first, r.second));
        races
    }

    /// Asserts that [`detect`] reports exactly the reference's races for
    /// `trace` under `config`.
    fn assert_matches_reference(trace: &Trace, config: HbConfig) {
        let hb = HappensBefore::compute(trace, config);
        let expected = reference_races(
            trace.ops(),
            |i| hb.graph().node_of(i),
            |a, b| hb.ordered_nodes(a, b),
        );
        assert_eq!(
            detect(trace, &hb),
            expected,
            "merge_accesses={}",
            config.merge_accesses
        );
    }

    /// A trace over a looper, two forked threads, one lock, four tasks
    /// posted to the looper and four locations, steered by `bytes`.
    fn random_trace(bytes: &[u8]) -> Trace {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg = [
            b.thread("bg0", ThreadKind::App, false),
            b.thread("bg1", ThreadKind::App, false),
        ];
        let locs: Vec<MemLoc> = (0..4)
            .map(|k| b.loc(format!("o{}", k % 2), format!("C.f{}", k / 2)))
            .collect();
        let lock = b.lock("m");
        let tasks: Vec<TaskId> = (0..4).map(|k| b.task(format!("p{k}"))).collect();
        b.thread_init(main);
        b.attach_q(main);
        b.loop_on_q(main);
        for t in bg {
            b.fork(main, t);
            b.thread_init(t);
        }
        let threads: [ThreadId; 3] = [main, bg[0], bg[1]];
        let (mut posted, mut begun, mut running) = (0, 0, None);
        for pair in bytes.chunks(2) {
            let (x, y) = (pair[0] as usize, pair.get(1).copied().unwrap_or(0) as usize);
            let t = threads[x % 3];
            match (x / 3) % 6 {
                0 | 1 => {
                    b.read(t, locs[y % 4]);
                }
                2 | 3 => {
                    b.write(t, locs[y % 4]);
                }
                4 => {
                    b.acquire(t, lock);
                    b.release(t, lock);
                }
                _ => {
                    if let Some(task) = running.take() {
                        b.end(main, task);
                    } else if begun < posted {
                        b.begin(main, tasks[begun]);
                        running = Some(tasks[begun]);
                        begun += 1;
                    } else if posted < tasks.len() {
                        b.post(t, tasks[posted], main);
                        posted += 1;
                    }
                }
            }
        }
        if let Some(task) = running {
            b.end(main, task);
        }
        b.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The access table finds exactly the reference's races, merged
        /// and unmerged.
        #[test]
        fn detect_matches_the_reference_scan(bytes in proptest::collection::vec(any::<u8>(), 0..160)) {
            let trace = random_trace(&bytes);
            assert_matches_reference(&trace, HbConfig::new());
            assert_matches_reference(&trace, HbConfig::new().without_merging());
        }
    }

    #[test]
    fn detect_matches_the_reference_scan_on_the_corpus() {
        for entry in droidracer_apps::corpus() {
            let trace = entry
                .generate_trace()
                .unwrap_or_else(|e| panic!("{}: {e}", entry.name))
                .without_cancelled();
            assert_matches_reference(&trace, HbConfig::new());
        }
    }

    #[test]
    fn interleaved_blocks_miss_the_memo_and_hit_their_entries() {
        let x = MemLoc::default();
        let y = MemLoc::new(droidracer_trace::ObjectId(1), droidracer_trace::FieldId(0));
        // Blocks 1 and 2 on two threads, both open, alternate on x and y:
        // every access after the first two finds its block's last
        // location changed and its (location, block) entry already there.
        let mut table = AccessTable::default();
        assert_eq!(table.record(x, 1, 0, true), Some(0));
        assert_eq!(table.record(x, 2, 1, false), Some(1));
        assert_eq!(table.record(y, 1, 2, false), Some(2));
        assert_eq!(table.record(y, 2, 3, true), Some(3));
        assert_eq!(table.record(x, 1, 4, false), None);
        assert_eq!(table.record(x, 2, 5, true), None);
        let accesses = |e: usize| {
            let (loc, node, acc) = table.entry(e);
            (loc, node, acc.first_read, acc.first_write)
        };
        assert_eq!(accesses(0), (x, 1, Some(4), Some(0)));
        assert_eq!(accesses(1), (x, 2, Some(1), Some(5)));
        assert_eq!(accesses(2), (y, 1, Some(2), None));
        assert_eq!(accesses(3), (y, 2, None, Some(3)));
        let ops: Vec<Op> = [
            (0, true),
            (1, false),
            (0, false),
            (1, true),
            (0, false),
            (1, true),
        ]
        .iter()
        .zip([x, x, y, y, x, x])
        .map(|(&(t, w), loc)| {
            let kind = if w {
                OpKind::Write { loc }
            } else {
                OpKind::Read { loc }
            };
            Op::new(ThreadId(t), kind)
        })
        .collect();
        // Unordered blocks race once per location, on their first writes
        // where both write.
        let races = table.races(|_, _| false);
        let expected = reference_races(&ops, |i| 1 + i % 2, |_, _| false);
        assert_eq!(races, expected);
        assert_eq!(
            races
                .iter()
                .map(|r| (r.loc, r.first, r.second, r.kind))
                .collect::<Vec<_>>(),
            [
                (x, 0, 5, RaceKind::WriteWrite),
                (y, 2, 3, RaceKind::ReadWrite),
            ]
        );
    }

    #[test]
    fn a_block_returning_to_a_location_keeps_one_entry() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg = b.thread("bg", ThreadKind::App, false);
        let x = b.loc("o", "C.x");
        let y = b.loc("o", "C.y");
        b.thread_init(main); // 0
        b.fork(main, bg); // 1
        b.thread_init(bg); // 2
        b.read(bg, x); // 3 ┐ one block: x, y, x, y
        b.read(bg, y); // 4 │
        b.write(bg, x); // 5 │
        b.write(bg, y); // 6 ┘
        b.read(main, x); // 7 ┐ one block
        b.read(main, y); // 8 ┘
        let trace = b.finish();
        let hb = HappensBefore::compute(&trace, HbConfig::new());
        let mut table = AccessTable::default();
        let created: Vec<Option<usize>> = (3..9)
            .map(|i| {
                let op = trace.op(i);
                let loc = op.kind.accessed_loc().expect("an access");
                table.record(loc, hb.graph().node_of(i), i, op.kind.is_write())
            })
            .collect();
        assert_eq!(created, [Some(0), Some(1), None, None, Some(2), Some(3)]);
        let (_, _, acc) = table.entry(0);
        assert_eq!((acc.first_read, acc.first_write), (Some(3), Some(5)));
        let races: Vec<(usize, usize)> = detect(&trace, &hb)
            .iter()
            .map(|r| (r.first, r.second))
            .collect();
        assert_eq!(races, [(5, 7), (6, 8)]);
        assert_matches_reference(&trace, HbConfig::new());
    }

    #[test]
    fn unsynchronized_cross_thread_accesses_race() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg = b.thread("bg", ThreadKind::App, false);
        let loc = b.loc("o", "C.f");
        b.thread_init(main); // 0
        b.fork(main, bg); // 1
        b.thread_init(bg); // 2
        b.write(bg, loc); // 3
        b.read(main, loc); // 4
        let trace = b.finish();
        let races = analyze(&trace);
        assert_eq!(races.len(), 1);
        let r = races[0];
        assert_eq!((r.first, r.second), (3, 4));
        assert_eq!(r.kind, RaceKind::WriteRead);
        assert_eq!(r.loc, loc);
    }

    #[test]
    fn fork_synchronized_accesses_do_not_race() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg = b.thread("bg", ThreadKind::App, false);
        let loc = b.loc("o", "C.f");
        b.thread_init(main);
        b.write(main, loc); // before fork
        b.fork(main, bg);
        b.thread_init(bg);
        b.read(bg, loc);
        let trace = b.finish();
        assert!(analyze(&trace).is_empty());
    }

    #[test]
    fn read_read_is_not_a_race() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg = b.thread("bg", ThreadKind::App, false);
        let loc = b.loc("o", "C.f");
        b.thread_init(main);
        b.fork(main, bg);
        b.thread_init(bg);
        b.read(bg, loc);
        b.read(main, loc);
        let trace = b.finish();
        assert!(analyze(&trace).is_empty());
    }

    #[test]
    fn write_write_witness_is_preferred() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg = b.thread("bg", ThreadKind::App, false);
        let loc = b.loc("o", "C.f");
        b.thread_init(main); // 0
        b.fork(main, bg); // 1
        b.thread_init(bg); // 2
        b.read(bg, loc); // 3 ┐ block
        b.write(bg, loc); // 4 ┘
        b.read(main, loc); // 5 ┐ block
        b.write(main, loc); // 6 ┘
        let trace = b.finish();
        let races = analyze(&trace);
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].kind, RaceKind::WriteWrite);
        assert_eq!((races[0].first, races[0].second), (4, 6));
    }

    #[test]
    fn distinct_locations_are_independent() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg = b.thread("bg", ThreadKind::App, false);
        let loc1 = b.loc("o1", "C.f");
        let loc2 = b.loc("o2", "C.f"); // same field, other object
        b.thread_init(main);
        b.fork(main, bg);
        b.thread_init(bg);
        b.write(bg, loc1);
        b.write(bg, loc2);
        b.write(main, loc1);
        b.write(main, loc2);
        let trace = b.finish();
        let races = analyze(&trace);
        // Races on the same field of different objects are separate reports
        // (as in the paper).
        assert_eq!(races.len(), 2);
        let locs: Vec<MemLoc> = races.iter().map(|r| r.loc).collect();
        assert!(locs.contains(&loc1) && locs.contains(&loc2));
    }

    #[test]
    fn single_threaded_task_race_is_found() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg1 = b.thread("bg1", ThreadKind::App, true);
        let bg2 = b.thread("bg2", ThreadKind::App, true);
        let t1 = b.task("A");
        let t2 = b.task("B");
        let loc = b.loc("o", "C.f");
        b.thread_init(main);
        b.attach_q(main);
        b.loop_on_q(main);
        b.thread_init(bg1);
        b.thread_init(bg2);
        b.post(bg1, t1, main); // unordered posts
        b.post(bg2, t2, main);
        b.begin(main, t1);
        b.write(main, loc);
        b.end(main, t1);
        b.begin(main, t2);
        b.write(main, loc);
        b.end(main, t2);
        let trace = b.finish();
        let races = analyze(&trace);
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].kind, RaceKind::WriteWrite);
    }

    #[test]
    fn detection_results_are_deterministic() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg = b.thread("bg", ThreadKind::App, false);
        let loc1 = b.loc("o1", "C.f");
        let loc2 = b.loc("o2", "C.g");
        b.thread_init(main);
        b.fork(main, bg);
        b.thread_init(bg);
        b.write(bg, loc2);
        b.write(bg, loc1);
        b.write(main, loc1);
        b.write(main, loc2);
        let trace = b.finish();
        let a = analyze(&trace);
        let b2 = analyze(&trace);
        assert_eq!(a, b2);
        assert_eq!(a.len(), 2);
        assert!(a[0].loc < a[1].loc);
    }
}
