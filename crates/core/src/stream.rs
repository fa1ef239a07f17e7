//! Streaming/online race detection with a streamed ≡ batch contract.
//!
//! The batch pipeline parses a whole trace, closes the happens-before
//! relation, then scans for races. [`StreamingAnalysis`] instead ingests
//! operations one at a time (or in chunks), maintains the graph's direct
//! edges and a sparse column-oriented happens-before state incrementally,
//! and emits [`RaceEvent`]s as soon as they become derivable — long before
//! the trace ends.
//!
//! # Why columns
//!
//! The batch engine stores the relation row-wise (`row(i)` = successors of
//! `i`) and saturates rows in reverse trace order. Online, the natural
//! orientation is the transpose: `col(j)` holds the *predecessors* of node
//! `j`. All happens-before edges point forward in the trace, so every base
//! edge produced by a newly ingested operation targets that operation's own
//! node, and a recomputation pass over the dirty columns in *increasing* id
//! order sees only complete predecessor columns. The transposed fixpoint
//! equations are exactly the batch engine's (see `recompute_col`), so the
//! least fixpoint — and therefore the final matrices — are bit-identical.
//!
//! # The frozen-column invariant
//!
//! After each boundary fixpoint (one per `push_op`/`push_chunk` call),
//! every existing column is final:
//!
//! * base rules only ever add edges into the newest node at ingest time;
//! * FIFO/NOPRE firings target the `begin` node of a task, and every task
//!   is swept only in the boundary that ingested its `begin` — its guards
//!   read only columns of nodes older than that `begin` node, which are
//!   already frozen, so a guard unfired at its own boundary can never fire
//!   later.
//!
//! Three consequences carry the design: early race emission is sound (an
//! unordered pair of closed access blocks stays unordered), races can be
//! classified the moment they are found (posting chains only look
//! backwards), and fully-closed prefix columns can be *retired* into
//! compact run-length digests without losing information — this is what
//! bounds memory in summarized mode.
//!
//! # Cancellation
//!
//! `cancel(t)` retroactively erases `post`/`enable` operations anywhere in
//! the trace (§4.2), which can merge access blocks and *remove* orderings.
//! The session handles a mid-stream cancel by replaying the retained prefix
//! into a fresh engine and diffing the standing race set: newly invalid
//! reports are retracted ([`StreamEvent::Retracted`]), newly derivable ones
//! emitted.

use std::collections::{BTreeMap, HashMap, HashSet};

use droidracer_trace::{
    IndexBuilder, LockId, MemLoc, Names, Op, OpKind, PostKind, TaskId, ThreadId, Trace,
};

use crate::bitmatrix::BitMatrix;
use crate::classify::{classify_with, RaceCategory};
use crate::engine::{EngineStats, HappensBefore};
use crate::generators::{Generators, SweepHost};
use crate::graph::{DirectEdges, GraphBuilder, HbGraph, NodeId};
use crate::race::{race_between, AccessTable, Race};
use crate::report::{CategoryCounts, ClassifiedRace};
use crate::robust::{Budget, BudgetExhausted, BudgetReason, Poll};
use crate::rules::HbConfig;
use crate::simd;

/// Options controlling a [`StreamingAnalysis`] session.
#[derive(Debug, Clone, Copy)]
pub struct StreamOptions {
    /// Retire fully-closed prefix columns into run-length digests, bounding
    /// live matrix memory. Retirement is lossless for race detection and
    /// classification, but the session no longer reconstructs whole
    /// relation matrices at [`StreamingAnalysis::finish`].
    pub summarize: bool,
    /// How many of the newest graph nodes keep live (uncompressed) columns
    /// in summarized mode. Clamped to at least 1.
    pub window: usize,
    /// Optional resource budget; when exhausted the session fails soft with
    /// a [`BudgetExhausted`] carrying partial counters.
    pub budget: Option<Budget>,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            summarize: false,
            window: 128,
            budget: None,
        }
    }
}

/// Counters describing a streaming session. Unlike the relation matrices
/// and the race set, these are *not* part of the streamed ≡ batch contract:
/// they describe how the work was scheduled, which legitimately depends on
/// the chunking.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Operations ingested (including ones filtered out by cancellation).
    pub ops: u64,
    /// `push_op`/`push_chunk` calls — one boundary fixpoint each.
    pub chunks: u64,
    /// Races emitted incrementally (before `finish`).
    pub races_emitted: u64,
    /// Standing races retracted (only cancellation can retract).
    pub retractions: u64,
    /// Races first derived at `finish` that incremental emission missed
    /// (zero on cancel-free valid traces — asserted by the test suite).
    pub late_emissions: u64,
    /// Full replays triggered by mid-stream `cancel` operations.
    pub rebuilds: u64,
    /// Columns retired into run-length digests (summarized mode).
    pub retired_rows: u64,
    /// 64-bit words touched by column recomputation — comparable in kind
    /// (not in value) to the batch engine's `word_ops`.
    pub word_ops: u64,
    /// Peak footprint of the relation state in bits, sampled at every
    /// boundary before retirement: live words × 64 + retired run-length
    /// entries × 128.
    pub peak_matrix_bits: u64,
    /// Current footprint of the relation state in bits.
    pub live_matrix_bits: u64,
    /// Whether the session fell back to a batch computation at `finish`
    /// because the stream was not a well-formed prefix-closed trace.
    pub degenerate: bool,
}

/// A race report produced (or withdrawn) mid-stream. Indices are positions
/// in the *original* op stream as pushed, so they stay stable across
/// cancellation replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceEvent {
    /// The race, with `first`/`second` as original stream positions.
    pub race: Race,
    /// Its §4.3 classification.
    pub category: RaceCategory,
    /// Number of ops that had been pushed when the event fired.
    pub at: usize,
}

/// An incremental result of pushing operations into a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamEvent {
    /// A new race became derivable.
    Emitted(RaceEvent),
    /// A previously emitted race is no longer derivable (or changed
    /// category) after a `cancel` erased posts it depended on.
    Retracted(RaceEvent),
}

/// The final result of a streaming session.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// All races with classification, in the batch engine's deterministic
    /// order. Indices are positions in the *cancellation-filtered* op
    /// sequence — directly comparable to a batch analysis of
    /// `trace.without_cancelled()`.
    pub races: Vec<ClassifiedRace>,
    /// Per-category totals.
    pub counts: CategoryCounts,
    /// The closed relation matrices `(st, Some(mt))` — or `(plain, None)`
    /// in the unrestricted ablation mode — reconstructed from the columns.
    /// `None` in summarized mode and after a degenerate fallback under a
    /// matrix-bit budget.
    pub matrices: Option<(BitMatrix, Option<BitMatrix>)>,
    /// Maps each filtered op index to its original stream position.
    pub orig_of: Vec<usize>,
    /// Session counters.
    pub stats: StreamStats,
    /// Events produced at `finish` (late emissions/retractions discovered
    /// while reconciling the standing set against the final state).
    pub events: Vec<StreamEvent>,
}

// ---------------------------------------------------------------------------
// Column store
// ---------------------------------------------------------------------------

/// One predecessor column: live words with conservative nonzero-word
/// bounds, or a frozen run-length digest.
#[derive(Debug, Clone)]
enum Col {
    /// Mutable words; `col(j)` has `j.div_ceil(64)` words (bits `< j`).
    /// Every nonzero word lies in `[lo, hi)` — the same conservative
    /// bounds discipline as [`BitMatrix`], maintained by `Cols::set` and
    /// rescanned after a recompute. Predecessor ORs touch only the bounded
    /// span, which is what brings `stream.word_ops` near the batch
    /// engine's (batch rows and stream columns count the same kind of
    /// work: words actually visited inside bounds).
    Live {
        words: Vec<u64>,
        lo: usize,
        hi: usize,
    },
    /// Retired: `(word, run)` pairs compressing the frozen word array.
    Retired(Vec<(u64, u32)>),
}

impl Col {
    /// Wraps a recomputed word array as a live column, rescanning its
    /// nonzero bounds (one pass — cheap next to the ORs that built it).
    fn live_from(words: Vec<u64>) -> Col {
        let (lo, hi) = match words.iter().position(|&w| w != 0) {
            Some(first) => {
                let last = words
                    .iter()
                    .rposition(|&w| w != 0)
                    .expect("a nonzero word exists");
                (first, last + 1)
            }
            None => (0, 0),
        };
        Col::Live { words, lo, hi }
    }

    fn get(&self, bit: usize) -> bool {
        let (w, m) = (bit / 64, 1u64 << (bit % 64));
        match self {
            Col::Live { words, .. } => words.get(w).map(|x| x & m != 0).unwrap_or(false),
            Col::Retired(rle) => {
                let mut at = 0usize;
                for &(word, run) in rle {
                    let next = at + run as usize;
                    if w < next {
                        return word & m != 0;
                    }
                    at = next;
                }
                false
            }
        }
    }

    /// The column's conservative nonzero-word span, clamped to `cap`
    /// words. For retired columns the span is derived from the digest's
    /// nonzero runs (the digest is short by construction).
    fn bounds(&self, cap: usize) -> (usize, usize) {
        match self {
            Col::Live { lo, hi, .. } => ((*lo).min(cap), (*hi).min(cap)),
            Col::Retired(rle) => {
                let (mut lo, mut hi, mut at) = (0usize, 0usize, 0usize);
                for &(word, run) in rle {
                    let next = at + run as usize;
                    if word != 0 {
                        if hi == 0 {
                            lo = at;
                        }
                        hi = next;
                    }
                    at = next;
                }
                (lo.min(cap), hi.min(cap))
            }
        }
    }

    /// ORs the column's words into the prefix of `dst`, visiting only the
    /// bounded nonzero span; returns the number of words touched (the
    /// column engine's `word_ops` currency).
    fn or_into_counted(&self, dst: &mut [u64]) -> u64 {
        match self {
            Col::Live { words, lo, hi } => {
                let hi = (*hi).min(dst.len()).min(words.len());
                let lo = (*lo).min(hi);
                simd::or_into(&mut dst[lo..hi], &words[lo..hi]);
                (hi - lo) as u64
            }
            Col::Retired(rle) => {
                let mut touched = 0u64;
                let mut at = 0usize;
                'outer: for &(word, run) in rle {
                    if word == 0 {
                        at += run as usize;
                        continue;
                    }
                    for _ in 0..run {
                        if at >= dst.len() {
                            break 'outer;
                        }
                        dst[at] |= word;
                        at += 1;
                        touched += 1;
                    }
                }
                touched
            }
        }
    }

    /// Calls `f` with every set bit position.
    fn for_each_set(&self, mut f: impl FnMut(usize)) {
        match self {
            Col::Live { words, lo, hi } => {
                simd::for_each_set(&words[*lo..*hi], *lo, &mut f);
            }
            Col::Retired(rle) => {
                let mut visit = |w: usize, mut word: u64| {
                    while word != 0 {
                        f(w * 64 + word.trailing_zeros() as usize);
                        word &= word - 1;
                    }
                };
                let mut at = 0usize;
                for &(word, run) in rle {
                    if word != 0 {
                        for w in at..at + run as usize {
                            visit(w, word);
                        }
                    }
                    at += run as usize;
                }
            }
        }
    }
}

/// A growable set of predecessor columns with footprint accounting.
#[derive(Debug, Clone, Default)]
struct Cols {
    cols: Vec<Col>,
    live_words: u64,
    retired_entries: u64,
}

impl Cols {
    fn push_col(&mut self) {
        let id = self.cols.len();
        let words = id.div_ceil(64);
        self.cols.push(Col::Live {
            words: vec![0; words],
            lo: 0,
            hi: 0,
        });
        self.live_words += words as u64;
    }

    /// Sets bit `i` in column `j`; returns whether it was newly set.
    /// Columns are only written while live.
    fn set(&mut self, i: NodeId, j: NodeId) -> bool {
        debug_assert!(i < j);
        match &mut self.cols[j] {
            Col::Live { words, lo, hi } => {
                let (w, m) = (i / 64, 1u64 << (i % 64));
                let was = words[w] & m != 0;
                words[w] |= m;
                if *lo == *hi {
                    (*lo, *hi) = (w, w + 1);
                } else {
                    *lo = (*lo).min(w);
                    *hi = (*hi).max(w + 1);
                }
                !was
            }
            Col::Retired(_) => unreachable!("retired columns are frozen"),
        }
    }

    fn get(&self, i: NodeId, j: NodeId) -> bool {
        self.cols[j].get(i)
    }

    /// Retires column `j` into a run-length digest.
    fn retire(&mut self, j: NodeId) {
        let Col::Live { words, .. } = &self.cols[j] else {
            return;
        };
        let mut rle: Vec<(u64, u32)> = Vec::new();
        for &w in words {
            match rle.last_mut() {
                Some((word, run)) if *word == w => *run += 1,
                _ => rle.push((w, 1)),
            }
        }
        // A digest entry costs two words; short or irregular columns can
        // be cheaper raw. Keep whichever representation is smaller, so
        // summarization only ever shrinks the footprint.
        if rle.len() as u64 * 2 >= words.len() as u64 {
            return;
        }
        self.live_words -= words.len() as u64;
        self.retired_entries += rle.len() as u64;
        self.cols[j] = Col::Retired(rle);
    }

    /// Current footprint in bits: live words plus 128 bits per retired
    /// run-length entry (a `(u64, u32)` pair padded to two words).
    fn footprint_bits(&self) -> u64 {
        self.live_words * 64 + self.retired_entries * 128
    }
}

// ---------------------------------------------------------------------------
// The incremental engine
// ---------------------------------------------------------------------------

/// The column-oriented incremental closure engine. Operates on the
/// cancellation-filtered ("retained") op sequence; the session wrapper owns
/// the original stream and the cancel replays.
#[derive(Debug)]
struct StreamEngine {
    config: HbConfig,
    plain: bool,
    // Retained ops and derived structure.
    ops: Vec<Op>,
    indexer: IndexBuilder,
    builder: GraphBuilder,
    // Relation state: predecessor columns plus direct-edge adjacency.
    st: Cols,
    mt: Cols,
    st_edges: DirectEdges,
    mt_edges: DirectEdges,
    thread_masks: Vec<Vec<u64>>,
    dirty_targets: Vec<NodeId>,
    // Online base-rule state.
    prev_node: HashMap<ThreadId, NodeId>,
    loop_node: HashMap<ThreadId, NodeId>,
    attach_node: HashMap<ThreadId, NodeId>,
    pending_cross_post: HashSet<ThreadId>,
    init_seen: HashSet<ThreadId>,
    first_exit: HashMap<ThreadId, NodeId>,
    forks_awaiting: HashMap<ThreadId, Vec<NodeId>>,
    lock_releases: HashMap<LockId, Vec<(NodeId, ThreadId, Option<TaskId>)>>,
    // Online task state.
    post_node: HashMap<TaskId, (NodeId, PostKind)>,
    post_target: HashMap<TaskId, ThreadId>,
    enable_node: HashMap<TaskId, NodeId>,
    posted: HashSet<TaskId>,
    begun: HashSet<TaskId>,
    ended: HashSet<TaskId>,
    open_task: HashMap<ThreadId, TaskId>,
    /// FIFO/NOPRE: the loopers' tasks, with the tasks begun in the current
    /// boundary queued for its sweeps.
    generators: Generators,
    // Emission state: the access table, with its entries listed per
    // location and per node (indexed by `NodeId`).
    accesses: AccessTable,
    loc_entries: HashMap<MemLoc, Vec<usize>>,
    node_entries: Vec<Vec<usize>>,
    closed: Vec<bool>,
    newly_closed: Vec<NodeId>,
    // Lifecycle.
    degenerate: bool,
    summarize: bool,
    window: usize,
    retire_cursor: usize,
    poll: Poll,
    word_ops: u64,
    work_base: u64,
    peak_bits: u64,
    retired_rows: u64,
    scratch: Vec<u64>,
    frontier: Vec<NodeId>,
}

impl StreamEngine {
    fn new(config: HbConfig, options: &StreamOptions, work_base: u64) -> Self {
        StreamEngine {
            plain: !config.rules.restricted_transitivity,
            config,
            ops: Vec::new(),
            indexer: IndexBuilder::new(),
            builder: GraphBuilder::new(config.merge_accesses),
            st: Cols::default(),
            mt: Cols::default(),
            st_edges: DirectEdges::default(),
            mt_edges: DirectEdges::default(),
            thread_masks: Vec::new(),
            dirty_targets: Vec::new(),
            prev_node: HashMap::new(),
            loop_node: HashMap::new(),
            attach_node: HashMap::new(),
            pending_cross_post: HashSet::new(),
            init_seen: HashSet::new(),
            first_exit: HashMap::new(),
            forks_awaiting: HashMap::new(),
            lock_releases: HashMap::new(),
            post_node: HashMap::new(),
            post_target: HashMap::new(),
            enable_node: HashMap::new(),
            posted: HashSet::new(),
            begun: HashSet::new(),
            ended: HashSet::new(),
            open_task: HashMap::new(),
            generators: Generators::new(config.rules),
            accesses: AccessTable::default(),
            loc_entries: HashMap::new(),
            node_entries: Vec::new(),
            closed: Vec::new(),
            newly_closed: Vec::new(),
            degenerate: false,
            summarize: options.summarize,
            window: options.window.max(1),
            retire_cursor: 0,
            poll: Poll::new(&options.budget.unwrap_or_default()),
            word_ops: 0,
            work_base,
            peak_bits: 0,
            retired_rows: 0,
            scratch: Vec::new(),
            frontier: Vec::new(),
        }
    }

    fn node_count(&self) -> usize {
        self.st.cols.len()
    }

    fn node_thread(&self, id: NodeId) -> ThreadId {
        self.builder.nodes()[id].thread
    }

    /// Node-level ordering `a ≺ b`; non-reflexive, like the batch
    /// `HappensBefore::ordered_nodes`.
    fn ordered_nodes(&self, a: NodeId, b: NodeId) -> bool {
        if a >= b {
            return false;
        }
        if self.plain {
            self.st.get(a, b)
        } else {
            self.st.get(a, b) || self.mt.get(a, b)
        }
    }

    /// Op-level ordering, reflexive, as the batch `HappensBefore::ordered`.
    fn ordered_ops(&self, i: usize, j: usize) -> bool {
        if i == j {
            return true;
        }
        let (a, b) = (self.builder.node_of(i), self.builder.node_of(j));
        if a == b {
            return i < j;
        }
        self.ordered_nodes(a, b)
    }

    /// Records the direct edge `a → b`. Backward edges are impossible for
    /// well-formed streams; seeing one flips the degenerate fallback
    /// instead of corrupting state.
    fn add_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return false;
        }
        if a > b {
            self.degenerate = true;
            return false;
        }
        let cross = !self.plain && self.node_thread(a) != self.node_thread(b);
        let newly = if cross {
            self.mt.set(a, b)
        } else {
            self.st.set(a, b)
        };
        if newly {
            if cross {
                self.mt_edges.push(a, b);
            } else {
                self.st_edges.push(a, b);
            }
            self.dirty_targets.push(b);
        }
        newly
    }

    fn on_new_node(&mut self, id: NodeId, thread: ThreadId) {
        self.st.push_col();
        if !self.plain {
            self.mt.push_col();
        }
        self.st_edges.grow_to(id + 1);
        self.mt_edges.grow_to(id + 1);
        self.closed.push(false);
        self.node_entries.push(Vec::new());
        let t = thread.index();
        if t >= self.thread_masks.len() {
            self.thread_masks.resize_with(t + 1, Vec::new);
        }
        let mask = &mut self.thread_masks[t];
        let w = id / 64;
        if w >= mask.len() {
            mask.resize(w + 1, 0);
        }
        mask[w] |= 1u64 << (id % 64);
    }

    fn record_access(&mut self, loc: MemLoc, node: NodeId, i: usize, is_write: bool) {
        if let Some(entry) = self.accesses.record(loc, node, i, is_write) {
            self.loc_entries.entry(loc).or_default().push(entry);
            self.node_entries[node].push(entry);
        }
    }

    /// Checks the stream invariants an op must satisfy for the online rules
    /// to be equivalent to the batch engine's whole-trace view. A violation
    /// (possible only for traces the validator would reject) makes the
    /// session fall back to a batch computation at `finish`.
    fn degenerate_trigger(&self, op: Op) -> bool {
        let rules = &self.config.rules;
        match op.kind {
            OpKind::Post { task, .. } => {
                // A re-post or a post of an already-running task would
                // retroactively rewrite the task's info in the batch index.
                self.posted.contains(&task) || self.begun.contains(&task)
            }
            OpKind::Enable { task } => {
                // The batch ENABLE edge uses the final enable site; an
                // enable arriving after the post would point backwards.
                self.posted.contains(&task)
            }
            OpKind::Begin { task } => {
                if self.begun.contains(&task) || self.open_task.contains_key(&op.thread) {
                    return true;
                }
                // Batch groups candidates by the post's target thread; a
                // task beginning elsewhere breaks the grouping.
                if let Some(&t) = self.post_target.get(&task) {
                    if t != op.thread {
                        return true;
                    }
                }
                // ASYNC-PO edges exist only on threads with a loopOnQ;
                // whether the batch adds them depends on the whole trace,
                // but a task beginning before its thread loops is invalid
                // anyway.
                rules.async_po
                    && !rules.whole_thread_program_order
                    && !self.loop_node.contains_key(&op.thread)
            }
            OpKind::End { task } => {
                !self.begun.contains(&task)
                    || self.ended.contains(&task)
                    || self.open_task.get(&op.thread) != Some(&task)
            }
            OpKind::AttachQ => {
                // A cross-thread post already arrived for this queue; the
                // batch ATTACH-Q edge would point backwards.
                rules.attach_q && self.pending_cross_post.contains(&op.thread)
            }
            // Cancels are filtered by the session wrapper; one reaching the
            // engine is a bug shield, not a semantics.
            OpKind::Cancel { .. } => true,
            _ => false,
        }
    }

    /// Ingests one retained op: graph/index growth, base-rule edges,
    /// candidate registration. No fixpoint runs here — `boundary` does.
    fn ingest(&mut self, op: Op) {
        if self.degenerate {
            return;
        }
        if self.degenerate_trigger(op) {
            self.degenerate = true;
            return;
        }
        let i = self.ops.len();
        let task = self.indexer.push(op);
        let push = self.builder.push_op(i, op, task, false);
        self.ops.push(op);
        if push.new_node {
            self.on_new_node(push.node, op.thread);
            if let Some(t) = task {
                // A `begin` node is recorded when its rule registers the
                // task; every later node of the task lands here.
                self.generators.push_node(t, push.node);
            }
        }
        if let Some(c) = push.closed {
            self.newly_closed.push(c);
        }
        if push.new_node && self.builder.open_block_of(op.thread) != Some(push.node) {
            self.newly_closed.push(push.node);
        }
        if let Some(loc) = op.kind.accessed_loc() {
            self.record_access(loc, push.node, i, op.kind.is_write());
        }
        if push.new_node {
            self.program_order(push.node, op.thread, task);
        }
        self.apply_op_rules(i, op, push.node, task);
    }

    /// NO-Q-PO / ASYNC-PO for a freshly created node, matching the batch
    /// `add_program_order_edges` split: whole-thread chaining before (or
    /// without) the thread's `loopOnQ`, `loopOnQ ≺ everything later`
    /// afterwards, and task-internal chaining for ASYNC-PO.
    fn program_order(&mut self, n: NodeId, thread: ThreadId, task: Option<TaskId>) {
        let rules = self.config.rules;
        let prev = self.prev_node.insert(thread, n);
        let lp = self.loop_node.get(&thread).copied();
        if rules.no_q_po {
            match lp {
                Some(l) if !rules.whole_thread_program_order => {
                    self.add_edge(l, n);
                }
                _ => {
                    if let Some(p) = prev {
                        self.add_edge(p, n);
                    }
                }
            }
        }
        if rules.async_po && !rules.whole_thread_program_order && task.is_some() {
            if let Some(p) = prev {
                if self.builder.nodes()[p].task == task {
                    self.add_edge(p, n);
                }
            }
        }
    }

    fn apply_op_rules(&mut self, i: usize, op: Op, n: NodeId, task: Option<TaskId>) {
        let rules = self.config.rules;
        match op.kind {
            OpKind::ThreadInit => {
                if self.init_seen.insert(op.thread) {
                    if let Some(forks) = self.forks_awaiting.remove(&op.thread) {
                        for f in forks {
                            self.add_edge(f, n);
                        }
                    }
                }
            }
            OpKind::ThreadExit => {
                self.first_exit.entry(op.thread).or_insert(n);
            }
            OpKind::Fork { child } => {
                // Batch: every fork preceding the child's *first* init gets
                // an edge; forks after it get none.
                if rules.fork && !self.init_seen.contains(&child) {
                    self.forks_awaiting.entry(child).or_default().push(n);
                }
            }
            OpKind::Join { child } => {
                if rules.join {
                    if let Some(&x) = self.first_exit.get(&child) {
                        self.add_edge(x, n);
                    }
                }
            }
            OpKind::AttachQ => {
                self.attach_node.entry(op.thread).or_insert(n);
            }
            OpKind::LoopOnQ => {
                self.loop_node.entry(op.thread).or_insert(n);
            }
            OpKind::Post {
                task: t,
                target,
                kind,
                ..
            } => {
                self.posted.insert(t);
                self.post_node.insert(t, (n, kind));
                self.post_target.insert(t, target);
                if rules.enable {
                    if let Some(&e) = self.enable_node.get(&t) {
                        self.add_edge(e, n);
                    }
                }
                if rules.attach_q && op.thread != target {
                    match self.attach_node.get(&target) {
                        Some(&a) => {
                            self.add_edge(a, n);
                        }
                        None => {
                            self.pending_cross_post.insert(target);
                        }
                    }
                }
            }
            OpKind::Enable { task: t } => {
                self.enable_node.insert(t, n);
            }
            OpKind::Begin { task: t } => {
                self.begun.insert(t);
                self.open_task.insert(op.thread, t);
                let post = self.post_node.get(&t).copied();
                if rules.post {
                    if let Some((p, _)) = post {
                        self.add_edge(p, n);
                    }
                }
                self.generators.begin(op.thread, t, i, n, post);
            }
            OpKind::End { task: t } => {
                self.ended.insert(t);
                self.generators.end(t, i, n);
                self.open_task.remove(&op.thread);
            }
            OpKind::Acquire { lock } => {
                if rules.lock || rules.same_thread_lock {
                    let releases = self.lock_releases.get(&lock).cloned().unwrap_or_default();
                    for (rn, rt, rtask) in releases {
                        let cross = rt != op.thread;
                        let applies = if cross {
                            rules.lock
                        } else {
                            rules.same_thread_lock && rtask != task
                        };
                        if applies {
                            self.add_edge(rn, n);
                        }
                    }
                }
            }
            OpKind::Release { lock } => {
                if rules.lock || rules.same_thread_lock {
                    self.lock_releases
                        .entry(lock)
                        .or_default()
                        .push((n, op.thread, task));
                }
            }
            OpKind::Read { .. } | OpKind::Write { .. } => {}
            OpKind::Cancel { .. } => {
                // Unreachable: the degenerate trigger catches cancels.
                self.degenerate = true;
            }
        }
    }

    /// Forward dirty propagation: every column reachable from a freshly
    /// targeted node may change; recompute them in increasing id order so
    /// each recomputation sees complete predecessor columns.
    fn flush(&mut self) -> Result<(), BudgetReason> {
        if self.dirty_targets.is_empty() {
            return Ok(());
        }
        let seeds = std::mem::take(&mut self.dirty_targets);
        let mut mark: HashSet<NodeId> = HashSet::new();
        let mut stack: Vec<NodeId> = Vec::new();
        for s in seeds {
            if mark.insert(s) {
                stack.push(s);
            }
        }
        while let Some(x) = stack.pop() {
            for &d in self.st_edges.succs(x) {
                if mark.insert(d) {
                    stack.push(d);
                }
            }
            for &d in self.mt_edges.succs(x) {
                if mark.insert(d) {
                    stack.push(d);
                }
            }
        }
        let mut dirty: Vec<NodeId> = mark.into_iter().collect();
        dirty.sort_unstable();
        for j in dirty {
            self.recompute_col(j)?;
        }
        Ok(())
    }

    /// Recomputes column `j` from its direct predecessors — the transpose
    /// of the batch `recompute_row`:
    ///
    /// * `Plain`: `col(j)` is the direct predecessor bits (already set by
    ///   `add_edge`) ORed with every direct predecessor's column.
    /// * `Restricted`: TRANS-ST composes same-thread chains, and every
    ///   same-thread predecessor of `j` is reached through a *direct* st
    ///   predecessor, so the st column is the OR of their st columns.
    ///   TRANS-MT composes the combined relation through a frontier seeded
    ///   with the direct st predecessors and the current mt column: each
    ///   popped `k` contributes `(st_col(k) | mt_col(k)) & ¬mask(thread(j))`
    ///   and every newly derived mt bit re-enters the frontier.
    fn recompute_col(&mut self, j: NodeId) -> Result<(), BudgetReason> {
        self.poll.check(self.work_base + self.word_ops)?;
        let empty = || Col::Live {
            words: Vec::new(),
            lo: 0,
            hi: 0,
        };
        // ST phase (the whole computation in plain mode). Each predecessor
        // OR touches only the predecessor column's nonzero span, and
        // `word_ops` counts the words actually visited — the same currency
        // as the batch engine's bounded row ORs.
        let mut dst = match std::mem::replace(&mut self.st.cols[j], empty()) {
            Col::Live { words, .. } => words,
            Col::Retired(_) => unreachable!("dirty columns are never retired"),
        };
        for &p in self.st_edges.preds(j) {
            self.word_ops += self.st.cols[p].or_into_counted(&mut dst);
        }
        self.st.cols[j] = Col::live_from(dst);
        if self.plain {
            return Ok(());
        }
        // MT phase.
        let t = self.node_thread(j).index();
        let mut dst = match std::mem::replace(&mut self.mt.cols[j], empty()) {
            Col::Live { words, .. } => words,
            Col::Retired(_) => unreachable!("dirty columns are never retired"),
        };
        let mut frontier = std::mem::take(&mut self.frontier);
        frontier.clear();
        // Direct mt predecessors need no explicit seeding: `add_edge` set
        // their bits in this column and recompute only ever ORs, so the
        // dst scan below covers them — seeding them again would pop (and
        // charge) every one twice.
        frontier.extend_from_slice(self.st_edges.preds(j));
        for (w, &word) in dst.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                frontier.push(w * 64 + word.trailing_zeros() as usize);
                word &= word - 1;
            }
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        while let Some(k) = frontier.pop() {
            let kw = k.div_ceil(64);
            if kw == 0 {
                continue;
            }
            // Contribution of k is `(st_col(k) | mt_col(k)) & ¬mask`; both
            // columns are zero outside their bounds, so the scratch fill
            // and the merge scan are restricted to the union span.
            let (slo, shi) = self.st.cols[k].bounds(kw);
            let (mlo, mhi) = self.mt.cols[k].bounds(kw);
            let (ulo, uhi) = match (slo < shi, mlo < mhi) {
                (true, true) => (slo.min(mlo), shi.max(mhi)),
                (true, false) => (slo, shi),
                (false, true) => (mlo, mhi),
                (false, false) => continue,
            };
            scratch.clear();
            scratch.resize(uhi, 0);
            // The scratch fills read exactly the words the merge scan below
            // visits, so — like the batch engine's fused masked-union
            // kernel, which reads st|mt|mask|dst in one bounded loop — the
            // pop is charged its union span once.
            let _ = self.st.cols[k].or_into_counted(&mut scratch);
            let _ = self.mt.cols[k].or_into_counted(&mut scratch);
            self.word_ops += (uhi - ulo) as u64;
            let mask = &self.thread_masks[t];
            for (w, dw) in dst[ulo..uhi].iter_mut().enumerate() {
                let w = w + ulo;
                let m = mask.get(w).copied().unwrap_or(0);
                let val = scratch[w] & !m;
                let mut added = val & !*dw;
                if added != 0 {
                    *dw |= val;
                    while added != 0 {
                        frontier.push(w * 64 + added.trailing_zeros() as usize);
                        added &= added - 1;
                    }
                }
            }
        }
        self.scratch = scratch;
        self.frontier = frontier;
        self.mt.cols[j] = Col::live_from(dst);
        Ok(())
    }

    /// One boundary: run the fixpoint (saturation alternating with
    /// generator firing), drop the boundary's candidates, emit races for
    /// newly-closed access blocks, then retire old columns.
    fn boundary(&mut self) -> Result<Vec<(Race, RaceCategory)>, BudgetExhausted> {
        if self.degenerate {
            self.generators.drop_queue();
            self.dirty_targets.clear();
            self.newly_closed.clear();
            return Ok(Vec::new());
        }
        if let Err(reason) = self.fixpoint() {
            return Err(self.exhausted(reason));
        }
        // A generator fire can trip the backward-edge shield mid-fixpoint.
        if self.degenerate {
            return self.boundary();
        }
        let races = self.collect_emissions();
        self.peak_bits = self.peak_bits.max(self.footprint_bits());
        if self.summarize {
            self.retire_old();
        }
        if let Err(reason) = self.poll.check_bits(self.footprint_bits()) {
            return Err(self.exhausted(reason));
        }
        Ok(races)
    }

    /// The boundary fixpoint: flush the dirty columns, sweep the tasks
    /// begun this boundary, repeat until a sweep fires nothing. Then the
    /// queue is dropped (see [`Generators::drop_queue`]).
    fn fixpoint(&mut self) -> Result<(), BudgetReason> {
        loop {
            self.flush()?;
            let mut generators = std::mem::take(&mut self.generators);
            let fired = generators.sweep_queued(self);
            self.generators = generators;
            // A firing can trip the backward-edge shield.
            if !fired? || self.degenerate {
                break;
            }
        }
        self.generators.drop_queue();
        Ok(())
    }

    /// Footprint of the relation state in bits: the live and retired
    /// columns plus the generators' coverage rows.
    fn footprint_bits(&self) -> u64 {
        self.st.footprint_bits() + self.mt.footprint_bits() + self.generators.coverage_bits()
    }

    /// Emits races for every access block closed this boundary, against all
    /// previously closed blocks — exactly once per unordered pair: a block
    /// is marked closed before its scan, so a pair closing in one boundary
    /// is found by whichever of the two is processed second.
    fn collect_emissions(&mut self) -> Vec<(Race, RaceCategory)> {
        let queue = std::mem::take(&mut self.newly_closed);
        let mut out = Vec::new();
        for b in queue {
            if self.closed[b] {
                continue;
            }
            self.closed[b] = true;
            for &mine in &self.node_entries[b] {
                let (loc, _, my) = self.accesses.entry(mine);
                for &theirs in &self.loc_entries[&loc] {
                    let (_, other, acc) = self.accesses.entry(theirs);
                    if other == b || !self.closed[other] {
                        continue;
                    }
                    // Reverse ordering is impossible: edges point forward.
                    if self.ordered_nodes(b.min(other), b.max(other)) {
                        continue;
                    }
                    let Some(race) = race_between(loc, &my, &acc) else {
                        continue;
                    };
                    let category = classify_with(
                        &self.ops,
                        self.indexer.index(),
                        |i, j| self.ordered_ops(i, j),
                        &race,
                    );
                    out.push((race, category));
                }
            }
        }
        out
    }

    /// Retires every column outside the live window into a run-length
    /// digest. Only frozen columns are eligible; the boundary fixpoint has
    /// already run, so everything but the newest `window` nodes qualifies.
    fn retire_old(&mut self) {
        let n = self.node_count();
        if n <= self.window {
            return;
        }
        let limit = n - self.window;
        while self.retire_cursor < limit {
            let j = self.retire_cursor;
            self.st.retire(j);
            if !self.plain {
                self.mt.retire(j);
            }
            self.retired_rows += 1;
            self.retire_cursor += 1;
        }
    }

    fn exhausted(&self, reason: BudgetReason) -> BudgetExhausted {
        BudgetExhausted {
            reason,
            partial: EngineStats {
                word_ops: self.word_ops,
                fifo_fired: self.generators.fifo_fired,
                nopre_fired: self.generators.nopre_fired,
                ..EngineStats::default()
            },
            ops_processed: self.work_base + self.word_ops,
        }
    }

    /// Queues every still-open access block for emission (end of stream).
    fn force_close(&mut self) {
        self.newly_closed.extend(self.builder.open_blocks());
    }

    /// The authoritative final race set over the retained ops: the
    /// all-pairs scan the batch detector runs, over this session's access
    /// table and the frozen columns.
    fn final_races(&self) -> Vec<(Race, RaceCategory)> {
        self.accesses
            .races(|a, b| self.ordered_nodes(a, b))
            .into_iter()
            .map(|r| {
                let category = classify_with(
                    &self.ops,
                    self.indexer.index(),
                    |i, j| self.ordered_ops(i, j),
                    &r,
                );
                (r, category)
            })
            .collect()
    }

    /// Reconstructs whole relation matrices from the columns (unsummarized
    /// sessions only — callers check).
    fn matrices(&self) -> (BitMatrix, Option<BitMatrix>) {
        let n = self.node_count();
        let mut st = BitMatrix::new(n);
        for (j, col) in self.st.cols.iter().enumerate() {
            col.for_each_set(|i| {
                st.set(i, j);
            });
        }
        if self.plain {
            return (st, None);
        }
        let mut mt = BitMatrix::new(n);
        for (j, col) in self.mt.cols.iter().enumerate() {
            col.for_each_set(|i| {
                mt.set(i, j);
            });
        }
        (st, Some(mt))
    }
}

impl SweepHost for StreamEngine {
    fn ordered(&self, a: NodeId, b: NodeId) -> bool {
        a == b || self.ordered_nodes(a, b)
    }

    fn add_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        StreamEngine::add_edge(self, a, b)
    }

    fn poll(&mut self) -> Result<(), BudgetReason> {
        self.poll.check(self.work_base + self.word_ops)
    }
}

// ---------------------------------------------------------------------------
// StreamingAnalysis: the public session
// ---------------------------------------------------------------------------

/// An online race-detection session: push trace operations as they arrive,
/// receive [`StreamEvent`]s as soon as races become derivable, and call
/// [`StreamingAnalysis::finish`] for the authoritative result.
///
/// The session wraps the incremental column engine with the two concerns
/// that need the *unfiltered* stream: cancellation (a late `cancel` erases
/// earlier posts, which only a replay can undo) and the degenerate fallback
/// (structurally invalid streams are re-analyzed by the batch pipeline at
/// `finish`, which tolerates them).
#[derive(Debug)]
pub struct StreamingAnalysis {
    config: HbConfig,
    options: StreamOptions,
    engine: StreamEngine,
    /// Every op ever pushed, in arrival order. Needed for cancellation
    /// replays and the degenerate batch fallback.
    originals: Vec<Op>,
    /// Maps the engine's retained-op indices to original stream positions.
    retained_orig: Vec<usize>,
    cancelled: HashSet<TaskId>,
    /// Standing emissions keyed by `(first, second, loc)` in original
    /// stream positions, so the key survives cancellation replays.
    standing: BTreeMap<(usize, usize, MemLoc), (Race, RaceCategory)>,
    chunks: u64,
    races_emitted: u64,
    retractions: u64,
    late_emissions: u64,
    rebuilds: u64,
    /// Work counters absorbed from engines replaced by rebuilds.
    base_word_ops: u64,
    base_retired: u64,
    base_peak: u64,
    exhausted: Option<BudgetExhausted>,
}

impl StreamingAnalysis {
    /// Opens a session.
    pub fn new(config: HbConfig, options: StreamOptions) -> Self {
        let engine = StreamEngine::new(config, &options, 0);
        StreamingAnalysis {
            config,
            options,
            engine,
            originals: Vec::new(),
            retained_orig: Vec::new(),
            cancelled: HashSet::new(),
            standing: BTreeMap::new(),
            chunks: 0,
            races_emitted: 0,
            retractions: 0,
            late_emissions: 0,
            rebuilds: 0,
            base_word_ops: 0,
            base_retired: 0,
            base_peak: 0,
            exhausted: None,
        }
    }

    /// Pushes a single operation (a one-op chunk).
    ///
    /// # Errors
    ///
    /// Returns [`BudgetExhausted`] when a session budget trips; the session
    /// is poisoned afterwards and every later call fails the same way.
    pub fn push_op(&mut self, op: Op) -> Result<Vec<StreamEvent>, BudgetExhausted> {
        self.push_chunk(&[op])
    }

    /// Pushes a chunk of operations and runs one incremental boundary:
    /// edges, saturation, FIFO/NOPRE generation, and emission for every
    /// access block the chunk closed.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetExhausted`] when a session budget trips; the session
    /// is poisoned afterwards and every later call fails the same way.
    pub fn push_chunk(&mut self, ops: &[Op]) -> Result<Vec<StreamEvent>, BudgetExhausted> {
        if let Some(e) = self.exhausted {
            return Err(e);
        }
        self.chunks += 1;
        let mut events = Vec::new();
        for &op in ops {
            let at = self.originals.len();
            self.originals.push(op);
            if let OpKind::Cancel { task } = op.kind {
                if self.cancelled.insert(task) && self.retained_mentions(task) {
                    if let Err(e) = self.rebuild(&mut events) {
                        self.exhausted = Some(e);
                        return Err(e);
                    }
                }
                continue;
            }
            if self.filtered(op) {
                continue;
            }
            self.retained_orig.push(at);
            self.engine.ingest(op);
        }
        match self.engine.boundary() {
            Ok(races) => self.absorb(races, &mut events),
            Err(e) => {
                self.exhausted = Some(e);
                return Err(e);
            }
        }
        Ok(events)
    }

    /// Whether `op` is erased by the cancellation filter (the streaming
    /// equivalent of [`Trace::without_cancelled`]'s predicate, applied
    /// forward once the task is known cancelled).
    fn filtered(&self, op: Op) -> bool {
        match op.kind {
            OpKind::Post { task, .. } | OpKind::Enable { task } | OpKind::Cancel { task } => {
                self.cancelled.contains(&task)
            }
            _ => false,
        }
    }

    /// Whether any already-retained op would be erased by cancelling
    /// `task`. When none would, the replay is skipped: the filter only
    /// affects future ops, which the forward path handles.
    fn retained_mentions(&self, task: TaskId) -> bool {
        self.engine.ops.iter().any(|op| {
            matches!(op.kind,
                OpKind::Post { task: t, .. } | OpKind::Enable { task: t } if t == task)
        })
    }

    /// Replays the filtered original stream into a fresh engine (one
    /// boundary — the fixpoint is order-insensitive) and diffs the standing
    /// emission set, producing retraction/emission events.
    fn rebuild(&mut self, events: &mut Vec<StreamEvent>) -> Result<(), BudgetExhausted> {
        self.rebuilds += 1;
        self.base_word_ops += self.engine.word_ops;
        self.base_retired += self.engine.retired_rows;
        self.base_peak = self.base_peak.max(self.engine.peak_bits);
        let mut fresh = StreamEngine::new(self.config, &self.options, self.base_word_ops);
        let mut retained = Vec::new();
        for (idx, &op) in self.originals.iter().enumerate() {
            if self.filtered(op) || matches!(op.kind, OpKind::Cancel { .. }) {
                continue;
            }
            retained.push(idx);
            fresh.ingest(op);
        }
        let races = fresh.boundary()?;
        let at = self.originals.len();
        let mut new_standing = BTreeMap::new();
        for (race, category) in races {
            let orig = to_orig(&retained, race);
            new_standing.insert((orig.first, orig.second, orig.loc), (orig, category));
        }
        for (key, &(race, category)) in &self.standing {
            if new_standing.get(key) != Some(&(race, category)) {
                events.push(StreamEvent::Retracted(RaceEvent { race, category, at }));
                self.retractions += 1;
            }
        }
        for (key, &(race, category)) in &new_standing {
            if self.standing.get(key) != Some(&(race, category)) {
                events.push(StreamEvent::Emitted(RaceEvent { race, category, at }));
                self.races_emitted += 1;
            }
        }
        self.standing = new_standing;
        self.retained_orig = retained;
        self.engine = fresh;
        Ok(())
    }

    /// Records fresh boundary emissions into the standing set and the
    /// outgoing event list.
    fn absorb(&mut self, races: Vec<(Race, RaceCategory)>, events: &mut Vec<StreamEvent>) {
        let at = self.originals.len();
        for (race, category) in races {
            let orig = to_orig(&self.retained_orig, race);
            self.standing
                .insert((orig.first, orig.second, orig.loc), (orig, category));
            events.push(StreamEvent::Emitted(RaceEvent {
                race: orig,
                category,
                at,
            }));
            self.races_emitted += 1;
        }
    }

    /// Number of operations pushed so far (including filtered ones).
    pub fn ops_pushed(&self) -> usize {
        self.originals.len()
    }

    /// Session counters so far. `finish` returns the final reading inside
    /// the [`StreamOutcome`].
    pub fn stats(&self) -> StreamStats {
        StreamStats {
            ops: self.originals.len() as u64,
            chunks: self.chunks,
            races_emitted: self.races_emitted,
            retractions: self.retractions,
            late_emissions: self.late_emissions,
            rebuilds: self.rebuilds,
            retired_rows: self.base_retired + self.engine.retired_rows,
            word_ops: self.base_word_ops + self.engine.word_ops,
            peak_matrix_bits: self.base_peak.max(self.engine.peak_bits),
            live_matrix_bits: self.engine.footprint_bits(),
            degenerate: self.engine.degenerate,
        }
    }

    /// Closes the stream: flushes still-open access blocks, emits any last
    /// races, reconciles the standing emissions against the authoritative
    /// final scan, and returns the complete result.
    ///
    /// `names` is the symbol table for the ops that were pushed (the
    /// streaming reader accumulates one; hand-built sessions can pass the
    /// builder's). It is only consulted on the degenerate fallback path,
    /// which rebuilds a whole [`Trace`].
    ///
    /// # Errors
    ///
    /// Returns [`BudgetExhausted`] when a session budget trips (or had
    /// already tripped).
    pub fn finish(mut self, names: &Names) -> Result<StreamOutcome, BudgetExhausted> {
        if let Some(e) = self.exhausted {
            return Err(e);
        }
        if self.engine.degenerate {
            return self.finish_degenerate(names);
        }
        let mut events = Vec::new();
        self.engine.force_close();
        let races = match self.engine.boundary() {
            Ok(r) => r,
            Err(e) => {
                self.exhausted = Some(e);
                return Err(e);
            }
        };
        // The engine can only discover degeneracy during ingest, which
        // force_close/boundary never perform.
        debug_assert!(!self.engine.degenerate);
        self.absorb(races, &mut events);
        let finals = self.engine.final_races();
        self.reconcile(&finals, &mut events);
        let races: Vec<ClassifiedRace> = finals
            .iter()
            .map(|&(race, category)| ClassifiedRace { race, category })
            .collect();
        let mut counts = CategoryCounts::default();
        for r in &races {
            counts.add(r.category, 1);
        }
        let matrices = if self.options.summarize {
            None
        } else {
            Some(self.engine.matrices())
        };
        let mut stats = self.stats();
        stats.late_emissions = self.late_emissions;
        stats.retractions = self.retractions;
        stats.races_emitted = self.races_emitted;
        Ok(StreamOutcome {
            races,
            counts,
            matrices,
            orig_of: self.retained_orig,
            stats,
            events,
        })
    }

    /// Diffs the standing emission set against the authoritative final
    /// race list, pushing retraction events for emissions the final scan
    /// does not confirm and late-emission events for races it adds. On a
    /// cancel-free stream both deltas are provably empty (columns freeze,
    /// so early emissions are final); the reconcile is the runtime check
    /// of that theorem.
    fn reconcile(&mut self, finals: &[(Race, RaceCategory)], events: &mut Vec<StreamEvent>) {
        let at = self.originals.len();
        let mut final_standing = BTreeMap::new();
        for &(race, category) in finals {
            let orig = to_orig(&self.retained_orig, race);
            final_standing.insert((orig.first, orig.second, orig.loc), (orig, category));
        }
        for (key, &(race, category)) in &self.standing {
            if final_standing.get(key) != Some(&(race, category)) {
                events.push(StreamEvent::Retracted(RaceEvent { race, category, at }));
                self.retractions += 1;
            }
        }
        for (key, &(race, category)) in &final_standing {
            if self.standing.get(key) != Some(&(race, category)) {
                events.push(StreamEvent::Emitted(RaceEvent { race, category, at }));
                self.late_emissions += 1;
            }
        }
        self.standing = final_standing;
    }

    /// Batch fallback for structurally degenerate streams: rebuild a
    /// [`Trace`] from the buffered originals and run the tolerant batch
    /// pipeline, then reconcile events as usual.
    fn finish_degenerate(mut self, names: &Names) -> Result<StreamOutcome, BudgetExhausted> {
        let trace = Trace::from_parts(names.clone(), self.originals.clone()).without_cancelled();
        // Re-derive the original position of each filtered op with the
        // same predicate `without_cancelled` used.
        let orig_of: Vec<usize> = self
            .originals
            .iter()
            .enumerate()
            .filter(|(_, op)| match op.kind {
                OpKind::Post { task, .. } | OpKind::Cancel { task } | OpKind::Enable { task } => {
                    !self.cancelled.contains(&task)
                }
                _ => true,
            })
            .map(|(i, _)| i)
            .collect();
        debug_assert_eq!(orig_of.len(), trace.len());
        let index = trace.index();
        let graph = HbGraph::build(&trace, &index, self.config.merge_accesses);
        let n = graph.node_count() as u64;
        let hb = match &self.options.budget {
            Some(b) => {
                match HappensBefore::compute_on_graph_budgeted(
                    &trace,
                    &index,
                    graph,
                    self.config,
                    b,
                ) {
                    Ok(hb) => hb,
                    Err(e) => {
                        self.exhausted = Some(e);
                        return Err(e);
                    }
                }
            }
            None => HappensBefore::compute_on_graph(&trace, &index, graph, self.config),
        };
        let finals: Vec<(Race, RaceCategory)> = crate::race::detect(&trace, &hb)
            .into_iter()
            .map(|r| {
                let c = crate::classify::classify(&trace, &index, &hb, &r);
                (r, c)
            })
            .collect();
        self.retained_orig = orig_of.clone();
        let mut events = Vec::new();
        self.reconcile(&finals, &mut events);
        let races: Vec<ClassifiedRace> = finals
            .iter()
            .map(|&(race, category)| ClassifiedRace { race, category })
            .collect();
        let mut counts = CategoryCounts::default();
        for r in &races {
            counts.add(r.category, 1);
        }
        let matrices = if self.options.summarize {
            None
        } else {
            let (st, mt) = hb.relation_matrices();
            Some((st.clone(), mt.cloned()))
        };
        let mut stats = self.stats();
        stats.degenerate = true;
        let dense = n
            * n
            * if matrices.as_ref().is_some_and(|(_, mt)| mt.is_some()) {
                2
            } else {
                1
            };
        stats.peak_matrix_bits = stats.peak_matrix_bits.max(dense);
        stats.late_emissions = self.late_emissions;
        stats.retractions = self.retractions;
        Ok(StreamOutcome {
            races,
            counts,
            matrices,
            orig_of,
            stats,
            events,
        })
    }
}

/// Translates a race over retained-op indices into original stream
/// positions via the retained→original map.
fn to_orig(retained: &[usize], race: Race) -> Race {
    Race {
        first: retained[race.first],
        second: retained[race.second],
        loc: race.loc,
        kind: race.kind,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::HappensBefore;
    use crate::race::detect;
    use crate::rules::HbMode;
    use droidracer_trace::{ThreadKind, Trace, TraceBuilder};

    /// Streams `trace` in `chunk`-sized pieces and returns the outcome.
    fn stream(
        trace: &Trace,
        config: HbConfig,
        options: StreamOptions,
        chunk: usize,
    ) -> StreamOutcome {
        let mut s = StreamingAnalysis::new(config, options);
        for piece in trace.ops().chunks(chunk.max(1)) {
            s.push_chunk(piece).expect("unbudgeted stream");
        }
        s.finish(trace.names()).expect("unbudgeted stream")
    }

    /// Batch result over the cancellation-filtered trace.
    fn batch(trace: &Trace, config: HbConfig) -> (Vec<ClassifiedRace>, HappensBefore, Trace) {
        let filtered = trace.without_cancelled();
        let hb = HappensBefore::compute(&filtered, config);
        let index = filtered.index();
        let races: Vec<ClassifiedRace> = detect(&filtered, &hb)
            .into_iter()
            .map(|race| ClassifiedRace {
                category: crate::classify::classify(&filtered, &index, &hb, &race),
                race,
            })
            .collect();
        (races, hb, filtered)
    }

    /// Asserts streamed ≡ batch at several chunk sizes, including matrices
    /// when unsummarized.
    fn assert_equiv(trace: &Trace, config: HbConfig) {
        let (expected, hb, _) = batch(trace, config);
        let (bst, bmt) = hb.relation_matrices();
        let whole = trace.len().max(1);
        for chunk in [1usize, 3, 64, whole] {
            let out = stream(trace, config, StreamOptions::default(), chunk);
            assert_eq!(out.races, expected, "races diverge at chunk={chunk}");
            let (st, mt) = out.matrices.as_ref().expect("unsummarized matrices");
            assert_eq!(st, bst, "st matrix diverges at chunk={chunk}");
            assert_eq!(mt.as_ref(), bmt, "mt matrix diverges at chunk={chunk}");
            assert_eq!(out.stats.chunks, trace.len().div_ceil(chunk) as u64);
            // Summarized pass: same races, no matrices.
            let opts = StreamOptions {
                summarize: true,
                window: 4,
                ..Default::default()
            };
            let sum = stream(trace, config, opts, chunk);
            assert_eq!(
                sum.races, expected,
                "summarized races diverge at chunk={chunk}"
            );
            assert!(sum.matrices.is_none());
        }
    }

    /// A trace exercising posts, FIFO/NOPRE generators, locks, forks and
    /// both racing and non-racing accesses.
    fn looper_trace() -> Trace {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg1 = b.thread("bg1", ThreadKind::App, true);
        let bg2 = b.thread("bg2", ThreadKind::App, true);
        let t1 = b.task("A");
        let t2 = b.task("B");
        let t3 = b.task("C");
        let lk = b.lock("m");
        let loc = b.loc("o", "C.f");
        let loc2 = b.loc("p", "C.g");
        b.thread_init(main);
        b.attach_q(main);
        b.loop_on_q(main);
        b.thread_init(bg1);
        b.thread_init(bg2);
        b.post(bg1, t1, main);
        b.post(bg2, t2, main);
        b.acquire(bg1, lk);
        b.write(bg1, loc2);
        b.release(bg1, lk);
        b.begin(main, t1);
        b.write(main, loc);
        b.post(main, t3, main);
        b.end(main, t1);
        b.begin(main, t2);
        b.write(main, loc);
        b.end(main, t2);
        b.begin(main, t3);
        b.read(main, loc);
        b.end(main, t3);
        b.acquire(bg2, lk);
        b.read(bg2, loc2);
        b.release(bg2, lk);
        b.finish_validated().expect("feasible trace")
    }

    #[test]
    fn streamed_equals_batch_all_modes() {
        let trace = looper_trace();
        for mode in [
            HbMode::Full,
            HbMode::MultithreadedOnly,
            HbMode::AsyncOnly,
            HbMode::NaiveCombined,
            HbMode::EventsAsThreads,
        ] {
            assert_equiv(&trace, HbConfig::for_mode(mode));
        }
    }

    #[test]
    fn streamed_equals_batch_without_merging() {
        let trace = looper_trace();
        assert_equiv(&trace, HbConfig::new().without_merging());
    }

    #[test]
    fn races_emit_as_soon_as_derivable() {
        // The race between t1's and t2's writes is derivable the moment
        // t2's write block closes (at End(t2)) — before the stream ends.
        let trace = looper_trace();
        let mut s = StreamingAnalysis::new(HbConfig::new(), StreamOptions::default());
        let mut first_emit_at = None;
        for (i, op) in trace.ops().iter().enumerate() {
            let events = s.push_op(*op).unwrap();
            if first_emit_at.is_none()
                && events.iter().any(|e| matches!(e, StreamEvent::Emitted(_)))
            {
                first_emit_at = Some(i);
            }
        }
        let at = first_emit_at.expect("a race should emit mid-stream");
        assert!(at < trace.len() - 1, "emission should precede stream end");
        let out = s.finish(trace.names()).unwrap();
        assert_eq!(
            out.stats.late_emissions, 0,
            "cancel-free: no late emissions"
        );
        assert_eq!(out.stats.retractions, 0, "cancel-free: no retractions");
        assert!(!out.races.is_empty());
    }

    #[test]
    fn summarization_retires_rows_and_preserves_races() {
        let trace = looper_trace();
        let opts = StreamOptions {
            summarize: true,
            window: 2,
            ..Default::default()
        };
        let out = stream(&trace, HbConfig::new(), opts, 1);
        let (expected, _, _) = batch(&trace, HbConfig::new());
        assert_eq!(out.races, expected);
        assert!(out.stats.retired_rows > 0, "window=2 must retire columns");
        assert!(out.stats.peak_matrix_bits > 0);
        assert!(out.matrices.is_none());
    }

    #[test]
    fn cancellation_triggers_replay_and_matches_batch() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg = b.thread("bg", ThreadKind::App, true);
        let t1 = b.task("A");
        let t2 = b.task("B");
        let loc = b.loc("o", "C.f");
        b.thread_init(main);
        b.attach_q(main);
        b.loop_on_q(main);
        b.thread_init(bg);
        b.post(bg, t1, main);
        b.post(bg, t2, main);
        b.begin(main, t1);
        b.write(main, loc);
        b.end(main, t1);
        b.write(bg, loc);
        b.cancel(bg, t2);
        let trace = b.finish();
        let config = HbConfig::new();
        let (expected, hb, _) = batch(&trace, config);
        for chunk in [1usize, 2, trace.len()] {
            let out = stream(&trace, config, StreamOptions::default(), chunk);
            assert_eq!(out.races, expected, "chunk={chunk}");
            let (st, mt) = out.matrices.as_ref().unwrap();
            let (bst, bmt) = hb.relation_matrices();
            assert_eq!(st, bst);
            assert_eq!(mt.as_ref(), bmt);
            assert!(out.stats.rebuilds >= 1, "cancel of posted task must replay");
        }
    }

    #[test]
    fn cancel_of_unposted_task_skips_replay() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let t1 = b.task("A");
        b.thread_init(main);
        b.cancel(main, t1);
        let trace = b.finish();
        let out = stream(&trace, HbConfig::new(), StreamOptions::default(), 1);
        assert_eq!(out.stats.rebuilds, 0);
        assert!(out.races.is_empty());
    }

    #[test]
    fn degenerate_stream_falls_back_to_batch() {
        // End without a Begin is structurally invalid for the incremental
        // engine; the batch pipeline tolerates it.
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg = b.thread("bg", ThreadKind::App, false);
        let t1 = b.task("A");
        let loc = b.loc("o", "C.f");
        b.thread_init(main);
        b.end(main, t1);
        b.fork(main, bg);
        b.thread_init(bg);
        b.write(bg, loc);
        b.read(main, loc);
        let trace = b.finish();
        let config = HbConfig::new();
        let (expected, hb, _) = batch(&trace, config);
        let out = stream(&trace, config, StreamOptions::default(), 2);
        assert!(out.stats.degenerate);
        assert_eq!(out.races, expected);
        let (st, mt) = out.matrices.as_ref().unwrap();
        let (bst, bmt) = hb.relation_matrices();
        assert_eq!(st, bst);
        assert_eq!(mt.as_ref(), bmt);
    }

    #[test]
    fn matrix_budget_poisons_the_session() {
        let trace = looper_trace();
        let budget = Budget {
            max_matrix_bits: Some(1),
            ..Budget::default()
        };
        let opts = StreamOptions {
            budget: Some(budget),
            ..Default::default()
        };
        let mut s = StreamingAnalysis::new(HbConfig::new(), opts);
        let mut tripped = None;
        for op in trace.ops() {
            if let Err(e) = s.push_op(*op) {
                tripped = Some(e);
                break;
            }
        }
        let e = tripped.expect("1-bit budget must trip");
        assert_eq!(e.reason, BudgetReason::MatrixBits);
        // Poisoned: later calls fail identically.
        assert_eq!(s.push_op(trace.ops()[0]).unwrap_err().reason, e.reason);
        assert_eq!(s.finish(trace.names()).unwrap_err().reason, e.reason);
    }

    #[test]
    fn stats_count_ops_and_chunks() {
        let trace = looper_trace();
        let mut s = StreamingAnalysis::new(HbConfig::new(), StreamOptions::default());
        for piece in trace.ops().chunks(5) {
            s.push_chunk(piece).unwrap();
        }
        let stats = s.stats();
        assert_eq!(stats.ops, trace.len() as u64);
        assert_eq!(stats.chunks, trace.len().div_ceil(5) as u64);
        let out = s.finish(trace.names()).unwrap();
        assert!(out.stats.word_ops > 0);
        assert!(out.stats.races_emitted >= out.races.len() as u64);
    }
}
