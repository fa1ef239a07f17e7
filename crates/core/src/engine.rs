//! The happens-before fixpoint engine.
//!
//! Computes the paper's relation `≺ = ≺st ∪ ≺mt` (Figures 6 and 7) over the
//! nodes of an [`HbGraph`]. The two sub-relations are kept in separate bit
//! matrices because the paper deliberately restricts transitivity:
//!
//! * TRANS-ST closes `≺st` over same-thread chains only;
//! * TRANS-MT derives `αi ≺mt αj` from `αi ≺ αk ≺ αj` only when `αi` and
//!   `αj` run on *different* threads.
//!
//! Consequently two tasks on one thread are never ordered transitively
//! through another thread (e.g. via a lock hand-off) — the naive closure of
//! the union graph would derive exactly those spurious orderings, and the
//! unrestricted mode ([`RuleSet::restricted_transitivity`]` = false`)
//! reproduces that flawed behaviour for the ablation study.
//!
//! The generator rules FIFO and NOPRE consult the combined relation while
//! producing new `≺st` edges, so the whole computation is a worklist
//! fixpoint: saturate transitivity, fire generator rules, repeat until no
//! rule adds an edge.

use std::collections::HashMap;

use droidracer_trace::{LockId, Op, OpKind, PostKind, TaskId, ThreadId, Trace, TraceIndex};

use crate::bitmatrix::{BitIter, BitMatrix, BitSet};
use crate::graph::{DirectEdges, HbGraph, NodeId};
use crate::robust::{Budget, BudgetExhausted, BudgetReason, Poll};
use crate::rules::{HbConfig, RuleSet};

/// Hot-path counters recorded while computing one happens-before relation.
///
/// Every field is deterministic for a given trace and configuration: the
/// engine itself is sequential and iteration orders are fixed, so two runs
/// over the same input produce identical stats. The counters separate the
/// *base* edges (instantaneous rules: program order, POST, ENABLE, FORK,
/// JOIN, LOCK, ATTACH-Q) from edges derived by the two transitivity rules
/// and by the generator rules FIFO and NOPRE — i.e. where the fixpoint
/// actually spends its effort.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Edges added by the instantaneous base rules (and assumed edges).
    pub base_edges: usize,
    /// FIFO firings that produced a new `end(A) ≺ begin(B)` edge.
    pub fifo_fired: usize,
    /// NOPRE firings that produced a new `end(A) ≺ begin(B)` edge.
    pub nopre_fired: usize,
    /// Same-thread edges derived by TRANS-ST (or, in the naive unrestricted
    /// mode, all edges derived by the plain transitive closure).
    pub trans_st_edges: usize,
    /// Cross-thread edges derived by TRANS-MT (zero in the naive mode).
    pub trans_mt_edges: usize,
    /// Fixpoint rounds (saturate + generators) until convergence.
    pub rounds: usize,
    /// 64-bit words actually touched by bit-matrix row operations during
    /// saturation — the engine's dominant unit of work. Rows carry sparse
    /// `[lo, hi)` nonzero word bounds, so this counts only words inside the
    /// bounds of the rows involved, not whole matrix rows.
    pub word_ops: u64,
    /// Nodes popped off the dirty-propagation worklist in incremental
    /// rounds (rounds after the first). Zero for the reference engine.
    pub worklist_pops: u64,
    /// Rows recomputed by saturation: all rows in round one, only dirty
    /// rows afterwards. Zero for the reference engine.
    pub rows_recomputed: u64,
    /// Words the row bounds allowed saturation to skip — the all-zero
    /// prefix/suffix words a whole-row scan would have touched.
    pub skipped_words: u64,
}

impl EngineStats {
    /// Total edges derived by non-base rules (transitivity + generators).
    pub fn derived_edges(&self) -> usize {
        self.trans_st_edges + self.trans_mt_edges + self.fifo_fired + self.nopre_fired
    }

    /// Adds every counter of `other` into `self` — used to aggregate
    /// per-trace stats into corpus totals.
    pub fn absorb(&mut self, other: &EngineStats) {
        self.base_edges += other.base_edges;
        self.fifo_fired += other.fifo_fired;
        self.nopre_fired += other.nopre_fired;
        self.trans_st_edges += other.trans_st_edges;
        self.trans_mt_edges += other.trans_mt_edges;
        self.rounds += other.rounds;
        self.word_ops += other.word_ops;
        self.worklist_pops += other.worklist_pops;
        self.rows_recomputed += other.rows_recomputed;
        self.skipped_words += other.skipped_words;
    }

    /// Per-counter difference `self - baseline`: the work done since
    /// `baseline` was captured. Sessions that drive several closure passes
    /// over one accumulating counter set (the streaming engine's per-chunk
    /// accounting) capture a baseline before each pass and report the delta,
    /// so absorbing the deltas never double-counts the shared prefix.
    ///
    /// Every counter of `baseline` must be `<=` the matching counter of
    /// `self` (counters are monotone within a session).
    pub fn since(&self, baseline: &EngineStats) -> EngineStats {
        EngineStats {
            base_edges: self.base_edges - baseline.base_edges,
            fifo_fired: self.fifo_fired - baseline.fifo_fired,
            nopre_fired: self.nopre_fired - baseline.nopre_fired,
            trans_st_edges: self.trans_st_edges - baseline.trans_st_edges,
            trans_mt_edges: self.trans_mt_edges - baseline.trans_mt_edges,
            rounds: self.rounds - baseline.rounds,
            word_ops: self.word_ops - baseline.word_ops,
            worklist_pops: self.worklist_pops - baseline.worklist_pops,
            rows_recomputed: self.rows_recomputed - baseline.rows_recomputed,
            skipped_words: self.skipped_words - baseline.skipped_words,
        }
    }
}

/// The computed happens-before relation for one trace.
#[derive(Debug, Clone)]
pub struct HappensBefore {
    graph: HbGraph,
    relation: Relation,
    stats: EngineStats,
    config: HbConfig,
}

#[derive(Debug, Clone)]
enum Relation {
    /// The paper's relation: `st` holds same-thread pairs, `mt` cross-thread
    /// pairs.
    Restricted { st: BitMatrix, mt: BitMatrix },
    /// Naive transitive closure of the union of all base edges.
    Plain(BitMatrix),
}

impl HappensBefore {
    /// Computes the happens-before relation of `trace` under `config`.
    ///
    /// Cancelled posts should be stripped first (see
    /// [`Trace::without_cancelled`]); the top-level detector does this
    /// automatically.
    pub fn compute(trace: &Trace, config: HbConfig) -> Self {
        let index = trace.index();
        Self::compute_with_assumed_edges(trace, &index, config, &[])
    }

    /// Computes the relation with additional *assumed* orderings injected as
    /// base edges (`(i, j)` meaning `αi ≺ αj`, trace indices with `i < j`).
    ///
    /// Used by race-coverage analysis (à la Raychev et al., which §6 points
    /// to for ad-hoc synchronization): assuming one race resolves in trace
    /// order may order — *cover* — other races.
    ///
    /// # Panics
    ///
    /// Panics if an assumed edge points backwards (`i ≥ j`) or out of range.
    pub fn compute_with_assumed_edges(
        trace: &Trace,
        index: &TraceIndex,
        config: HbConfig,
        assumed: &[(usize, usize)],
    ) -> Self {
        // invariant: an unlimited budget never exhausts.
        Self::compute_inner(trace, index, config, assumed, false, &Budget::unlimited())
            .expect("unlimited budget cannot exhaust")
    }

    /// Computes the relation with the retained naive reference saturation:
    /// every fixpoint round rescans every row of every matrix, exactly as
    /// the engine did before the incremental worklist rewrite.
    ///
    /// This exists for differential testing (`tests/closure_equivalence.rs`
    /// asserts the incremental engine's matrices are bit-identical to this
    /// one's) and is not meant for production use — its `word_ops` grow
    /// with matrix size instead of with change.
    pub fn compute_reference(trace: &Trace, config: HbConfig) -> Self {
        let index = trace.index();
        // invariant: an unlimited budget never exhausts.
        Self::compute_inner(trace, &index, config, &[], true, &Budget::unlimited())
            .expect("unlimited budget cannot exhaust")
    }

    /// Computes the relation over a prebuilt [`HbGraph`], so callers that
    /// time or otherwise observe the pipeline can separate graph
    /// construction (+ §6 node merging) from the fixpoint closure.
    ///
    /// `graph` must have been built from `trace`/`index` with the same
    /// `merge_accesses` setting as `config` — `Analysis` guarantees this;
    /// ad-hoc callers should prefer [`HappensBefore::compute`].
    pub fn compute_on_graph(
        trace: &Trace,
        index: &TraceIndex,
        graph: HbGraph,
        config: HbConfig,
    ) -> Self {
        // invariant: an unlimited budget never exhausts.
        Self::close_over(trace, index, config, &[], false, graph, &Budget::unlimited())
            .expect("unlimited budget cannot exhaust")
    }

    /// Like [`HappensBefore::compute_on_graph`] but under a resource
    /// [`Budget`].
    ///
    /// The engine polls the budget cooperatively (per saturated row, per
    /// worklist pop) and the matrix-allocation cap is checked up front, so
    /// an adversarial trace can neither hang nor OOM a budgeted run.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetExhausted`] — carrying the partial [`EngineStats`]
    /// accumulated up to the cutoff — when a limit trips.
    pub fn compute_on_graph_budgeted(
        trace: &Trace,
        index: &TraceIndex,
        graph: HbGraph,
        config: HbConfig,
        budget: &Budget,
    ) -> Result<Self, BudgetExhausted> {
        Self::close_over(trace, index, config, &[], false, graph, budget)
    }

    fn compute_inner(
        trace: &Trace,
        index: &TraceIndex,
        config: HbConfig,
        assumed: &[(usize, usize)],
        reference: bool,
        budget: &Budget,
    ) -> Result<Self, BudgetExhausted> {
        // Anchor the assumed edges precisely: their endpoints must not be
        // swallowed by access blocks, or the injected edge would order whole
        // blocks the assumption says nothing about.
        let breaks: Vec<usize> = assumed.iter().flat_map(|&(i, j)| [i, j]).collect();
        let graph = HbGraph::build_with_breaks(trace, index, config.merge_accesses, &breaks);
        Self::close_over(trace, index, config, assumed, reference, graph, budget)
    }

    fn close_over(
        trace: &Trace,
        index: &TraceIndex,
        config: HbConfig,
        assumed: &[(usize, usize)],
        reference: bool,
        graph: HbGraph,
        budget: &Budget,
    ) -> Result<Self, BudgetExhausted> {
        // The matrices are the engine's dominant allocation; enforce the
        // memory cap before allocating rather than after the OOM.
        let poll = Poll::new(budget);
        let n = graph.node_count() as u64;
        let matrices: u64 = if config.rules.restricted_transitivity { 2 } else { 1 };
        if let Err(reason) = poll.check_bits(n.saturating_mul(n).saturating_mul(matrices)) {
            return Err(BudgetExhausted {
                reason,
                partial: EngineStats::default(),
                ops_processed: 0,
            });
        }
        let mut builder = EngineState::new(trace, index, &graph, config.rules, reference, poll);
        builder.add_base_edges();
        for &(i, j) in assumed {
            assert!(i < j, "assumed edges must point forward");
            let (a, b) = (graph.node_of(i), graph.node_of(j));
            builder.add_edge(a, b);
        }
        let (base_st, base_mt) = builder.relation_sizes();
        builder.stats.base_edges = base_st + base_mt;
        if let Err(reason) = builder.run_fixpoint() {
            return Err(BudgetExhausted {
                reason,
                ops_processed: builder.stats.word_ops,
                partial: builder.stats,
            });
        }
        Ok(HappensBefore {
            relation: builder.relation,
            stats: builder.stats,
            graph,
            config,
        })
    }

    /// The underlying graph (nodes, merging information).
    pub fn graph(&self) -> &HbGraph {
        &self.graph
    }

    /// The configuration used.
    pub fn config(&self) -> &HbConfig {
        &self.config
    }

    /// Number of fixpoint rounds until convergence.
    pub fn rounds(&self) -> usize {
        self.stats.rounds
    }

    /// Hot-path counters recorded while computing this relation.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Whether node `a` happens before node `b`.
    pub fn ordered_nodes(&self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return false;
        }
        match &self.relation {
            Relation::Restricted { st, mt } => st.get(a, b) || mt.get(a, b),
            Relation::Plain(r) => r.get(a, b),
        }
    }

    /// Whether the operation at trace index `i` happens before the one at
    /// `j` (`αi ≺ αj`). Reflexive, as in the paper.
    pub fn ordered(&self, i: usize, j: usize) -> bool {
        if i == j {
            return true;
        }
        let (a, b) = (self.graph.node_of(i), self.graph.node_of(j));
        if a == b {
            // Same access block: same thread, same task, no intervening
            // synchronization — program order applies.
            return i < j;
        }
        self.ordered_nodes(a, b)
    }

    /// Whether the two operations are unordered in both directions
    /// (the race condition on ordering).
    pub fn concurrent(&self, i: usize, j: usize) -> bool {
        !self.ordered(i, j) && !self.ordered(j, i)
    }

    /// Total number of ordered node pairs in the closed relation.
    pub fn ordered_pairs(&self) -> usize {
        match &self.relation {
            Relation::Restricted { st, mt } => st.count_ones() + mt.count_ones(),
            Relation::Plain(r) => r.count_ones(),
        }
    }

    /// The closed relation's matrices: `(st, Some(mt))` under restricted
    /// transitivity, `(plain, None)` in the naive ablation mode. Exposed for
    /// the differential equivalence suite.
    pub fn relation_matrices(&self) -> (&BitMatrix, Option<&BitMatrix>) {
        match &self.relation {
            Relation::Restricted { st, mt } => (st, Some(mt)),
            Relation::Plain(r) => (r, None),
        }
    }
}

/// A FIFO/NOPRE candidate: a pair of tasks executed on the same thread,
/// `first` ending before `second` begins, not yet derived to be ordered.
#[derive(Debug, Clone, Copy)]
struct TaskPairCandidate {
    end_node: NodeId,
    begin_node: NodeId,
    /// Post node + kind of the first task, if posted.
    post1: Option<(NodeId, PostKind)>,
    /// Post node + kind of the second task, if posted.
    post2: Option<(NodeId, PostKind)>,
    first_task: TaskId,
}

struct EngineState<'a> {
    trace: &'a Trace,
    index: &'a TraceIndex,
    graph: &'a HbGraph,
    rules: RuleSet,
    relation: Relation,
    candidates: Vec<TaskPairCandidate>,
    /// Nodes of each task, used by NOPRE.
    task_nodes: HashMap<TaskId, Vec<NodeId>>,
    stats: EngineStats,
    /// Run the retained whole-matrix reference saturation instead of the
    /// incremental worklist (differential-testing aid).
    reference: bool,
    /// Direct same-thread edges — base rules, assumed edges and generator
    /// firings, before any saturation. In `Plain` mode this holds *all*
    /// direct edges (the naive closure does not split by thread).
    st_edges: DirectEdges,
    /// Direct cross-thread edges (empty in `Plain` mode). The predecessor
    /// lists of both edge sets drive dirty propagation.
    mt_edges: DirectEdges,
    /// Sources `a` of direct edges added since the last saturation: a row
    /// `x` can only change if `x` reaches one of them.
    dirty_sources: Vec<NodeId>,
    /// Rows the last saturation recomputed — generator candidates are
    /// re-examined only if they watch one of these.
    last_dirty: Vec<NodeId>,
    /// Membership mark for the dirty backward traversal.
    dirty_mark: BitSet,
    /// Scratch stack, reused for dirty propagation and as the TRANS-MT
    /// composition frontier.
    frontier: Vec<NodeId>,
    /// Candidate indices per watched node: a FIFO candidate watches its
    /// first post, a NOPRE candidate every node of its first task — exactly
    /// the rows whose recomputation can flip the rule's guard.
    watchers: Vec<Vec<u32>>,
    /// Per-candidate examine-epoch stamp deduplicating the examine list.
    examine_stamp: Vec<u32>,
    /// Monotone epoch, bumped once per incremental [`Self::fire_generators`]
    /// sweep. Deliberately *not* derived from `stats.rounds`: stats may be
    /// rebaselined between passes of a multi-pass (streaming) session, and a
    /// stamp reused across passes would silently skip candidates whose
    /// guards flipped in the later pass.
    examine_epoch: u32,
    /// Candidates that fired or whose conclusion was derived otherwise.
    candidate_done: Vec<bool>,
    /// Scratch for the per-round examine list.
    examine_buf: Vec<u32>,
    /// Cooperative budget poller, consulted at loop granularity.
    poll: Poll,
}

impl<'a> EngineState<'a> {
    fn new(
        trace: &'a Trace,
        index: &'a TraceIndex,
        graph: &'a HbGraph,
        rules: RuleSet,
        reference: bool,
        poll: Poll,
    ) -> Self {
        let n = graph.node_count();
        let relation = if rules.restricted_transitivity {
            Relation::Restricted {
                st: BitMatrix::new(n),
                mt: BitMatrix::new(n),
            }
        } else {
            Relation::Plain(BitMatrix::new(n))
        };
        let mut task_nodes: HashMap<TaskId, Vec<NodeId>> = HashMap::new();
        for (id, node) in graph.nodes().iter().enumerate() {
            if let Some(task) = node.task {
                task_nodes.entry(task).or_default().push(id);
            }
        }
        EngineState {
            trace,
            index,
            graph,
            rules,
            relation,
            candidates: Vec::new(),
            task_nodes,
            stats: EngineStats::default(),
            reference,
            st_edges: DirectEdges::new(n),
            mt_edges: DirectEdges::new(n),
            dirty_sources: Vec::new(),
            last_dirty: Vec::new(),
            dirty_mark: BitSet::new(n),
            frontier: Vec::new(),
            watchers: vec![Vec::new(); n],
            examine_stamp: Vec::new(),
            examine_epoch: 0,
            candidate_done: Vec::new(),
            examine_buf: Vec::new(),
            poll,
        }
    }

    /// Current `(st, mt)` edge counts (`(plain, 0)` in the naive mode).
    fn relation_sizes(&self) -> (usize, usize) {
        match &self.relation {
            Relation::Restricted { st, mt } => (st.count_ones(), mt.count_ones()),
            Relation::Plain(r) => (r.count_ones(), 0),
        }
    }

    /// Adds the *direct* edge `a → b` (base rule, assumed edge or generator
    /// firing). Newly added edges are recorded in the adjacency lists and
    /// their source is enqueued for the next incremental saturation.
    ///
    /// Returns `false` without recording anything for `a >= b`: edges of a
    /// valid trace point forward, and a backward one (say, from a post
    /// after the begin it schedules) would break the single-pass
    /// saturation.
    fn add_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        if a >= b {
            return false;
        }
        let (added, cross) = match &mut self.relation {
            Relation::Restricted { st, mt } => {
                if self.graph.node(a).thread == self.graph.node(b).thread {
                    (st.set(a, b), false)
                } else {
                    (mt.set(a, b), true)
                }
            }
            Relation::Plain(r) => (r.set(a, b), false),
        };
        if added {
            if cross {
                self.mt_edges.push(a, b);
            } else {
                self.st_edges.push(a, b);
            }
            self.dirty_sources.push(a);
        }
        added
    }

    fn ordered(&self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return true;
        }
        match &self.relation {
            Relation::Restricted { st, mt } => st.get(a, b) || mt.get(a, b),
            Relation::Plain(r) => r.get(a, b),
        }
    }

    /// The NOPRE watcher's row scan: whether any node of `nodes` is ordered
    /// before `j` (reflexively, matching [`EngineState::ordered`]). The
    /// column word and bit mask are hoisted out of the loop, leaving one
    /// word load per matrix per node.
    fn any_ordered_to(&self, nodes: &[NodeId], j: NodeId) -> bool {
        let (w, m) = (j / 64, 1u64 << (j % 64));
        match &self.relation {
            Relation::Restricted { st, mt } => nodes
                .iter()
                .any(|&k| k == j || (st.row_word(k, w) | mt.row_word(k, w)) & m != 0),
            Relation::Plain(r) => nodes.iter().any(|&k| k == j || r.row_word(k, w) & m != 0),
        }
    }

    fn add_base_edges(&mut self) {
        self.add_program_order_edges();
        self.add_task_edges();
        self.add_thread_edges();
        self.add_lock_edges();
        self.collect_task_pair_candidates();
    }

    /// NO-Q-PO, ASYNC-PO and the whole-thread variant.
    fn add_program_order_edges(&mut self) {
        let threads: Vec<ThreadId> = self
            .graph
            .nodes()
            .iter()
            .map(|n| n.thread)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        for t in threads {
            let node_ids: Vec<NodeId> = self.graph.nodes_of_thread(t).to_vec();
            let loop_node = self.index.loop_on_q(t).map(|i| self.graph.node_of(i));
            let whole = self.rules.whole_thread_program_order || loop_node.is_none();
            if whole {
                if self.rules.no_q_po {
                    for w in node_ids.windows(2) {
                        self.add_edge(w[0], w[1]);
                    }
                }
                continue;
            }
            let lp = loop_node.expect("loop_node checked above");
            if self.rules.no_q_po {
                // Chain the prefix up to loopOnQ, then order loopOnQ before
                // every later node on the thread (NO-Q-PO lets any pre-loop
                // op reach any later same-thread op).
                let mut prev: Option<NodeId> = None;
                for &id in &node_ids {
                    if id <= lp {
                        if let Some(p) = prev {
                            self.add_edge(p, id);
                        }
                        prev = Some(id);
                    } else {
                        self.add_edge(lp, id);
                    }
                }
            }
            if self.rules.async_po {
                for w in node_ids.windows(2) {
                    let (a, b) = (w[0], w[1]);
                    let (ta, tb) = (self.graph.node(a).task, self.graph.node(b).task);
                    if ta.is_some() && ta == tb {
                        self.add_edge(a, b);
                    }
                }
            }
        }
    }

    /// ENABLE-ST/MT, POST-ST/MT, ATTACH-Q-MT.
    fn add_task_edges(&mut self) {
        type TaskEdgeSites = (Option<usize>, Option<usize>, Option<usize>, Option<ThreadId>);
        let tasks: Vec<TaskEdgeSites> = self
            .index
            .tasks()
            .map(|(_, info)| (info.enable, info.post, info.begin, info.target))
            .collect();
        for (enable, post, begin, target) in tasks {
            if self.rules.post {
                if let (Some(p), Some(b)) = (post, begin) {
                    self.add_edge(self.graph.node_of(p), self.graph.node_of(b));
                }
            }
            if self.rules.enable {
                if let (Some(e), Some(p)) = (enable, post) {
                    self.add_edge(self.graph.node_of(e), self.graph.node_of(p));
                }
            }
            if self.rules.attach_q {
                if let (Some(p), Some(target)) = (post, target) {
                    let post_thread = self.trace.op(p).thread;
                    if post_thread != target {
                        if let Some(a) = self.index.attach_q(target) {
                            self.add_edge(self.graph.node_of(a), self.graph.node_of(p));
                        }
                    }
                }
            }
        }
    }

    /// FORK and JOIN.
    fn add_thread_edges(&mut self) {
        let mut init_of: HashMap<ThreadId, usize> = HashMap::new();
        let mut exit_of: HashMap<ThreadId, usize> = HashMap::new();
        for (i, op) in self.trace.iter() {
            match op.kind {
                OpKind::ThreadInit => {
                    init_of.entry(op.thread).or_insert(i);
                }
                OpKind::ThreadExit => {
                    exit_of.entry(op.thread).or_insert(i);
                }
                _ => {}
            }
        }
        for (i, op) in self.trace.iter() {
            match op.kind {
                OpKind::Fork { child } if self.rules.fork => {
                    if let Some(&j) = init_of.get(&child) {
                        if i < j {
                            self.add_edge(self.graph.node_of(i), self.graph.node_of(j));
                        }
                    }
                }
                OpKind::Join { child } if self.rules.join => {
                    if let Some(&j) = exit_of.get(&child) {
                        if j < i {
                            self.add_edge(self.graph.node_of(j), self.graph.node_of(i));
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// LOCK (release before a later acquire on a different thread), plus the
    /// deliberately unsound same-thread variant for the naive baseline.
    fn add_lock_edges(&mut self) {
        if !self.rules.lock && !self.rules.same_thread_lock {
            return;
        }
        let mut per_lock: HashMap<LockId, Vec<(usize, bool, Op)>> = HashMap::new();
        for (i, op) in self.trace.iter() {
            match op.kind {
                OpKind::Acquire { lock } => per_lock.entry(lock).or_default().push((i, true, op)),
                OpKind::Release { lock } => per_lock.entry(lock).or_default().push((i, false, op)),
                _ => {}
            }
        }
        for ops in per_lock.values() {
            for (ri, racq, rop) in ops {
                if *racq {
                    continue;
                }
                for (ai, aacq, aop) in ops {
                    if !*aacq || ai < ri {
                        continue;
                    }
                    let cross = rop.thread != aop.thread;
                    if cross && self.rules.lock {
                        self.add_edge(self.graph.node_of(*ri), self.graph.node_of(*ai));
                    } else if !cross && self.rules.same_thread_lock {
                        // The naive combination orders same-thread tasks that
                        // share a lock — exactly the spurious edge the paper's
                        // LOCK rule avoids by requiring distinct threads.
                        let (t1, t2) = (self.index.task_of(*ri), self.index.task_of(*ai));
                        if t1 != t2 {
                            self.add_edge(self.graph.node_of(*ri), self.graph.node_of(*ai));
                        }
                    }
                }
            }
        }
    }

    /// Enumerates same-thread task pairs eligible for FIFO/NOPRE.
    fn collect_task_pair_candidates(&mut self) {
        if !self.rules.fifo && !self.rules.nopre {
            return;
        }
        // Tasks per executing thread, ordered by begin index.
        let mut per_thread: HashMap<ThreadId, Vec<(usize, TaskId)>> = HashMap::new();
        for (task, info) in self.index.tasks() {
            if let (Some(b), Some(target)) = (info.begin, info.target) {
                per_thread.entry(target).or_default().push((b, task));
            }
        }
        for tasks in per_thread.values_mut() {
            tasks.sort_unstable();
            for i in 0..tasks.len() {
                let first = tasks[i].1;
                let first_info = self.index.task(first);
                let Some(end) = first_info.end else { continue };
                let post1 = first_info
                    .post
                    .map(|p| (self.graph.node_of(p), first_info.post_kind));
                for &(b2, second) in &tasks[i + 1..] {
                    // Tasks on one thread run sequentially in a valid trace;
                    // an overlapping pair has no end-to-begin edge to derive.
                    if end >= b2 {
                        continue;
                    }
                    let second_info = self.index.task(second);
                    let post2 = second_info
                        .post
                        .map(|p| (self.graph.node_of(p), second_info.post_kind));
                    self.register_candidate(TaskPairCandidate {
                        end_node: self.graph.node_of(end),
                        begin_node: self.graph.node_of(b2),
                        post1,
                        post2,
                        first_task: first,
                    });
                }
            }
        }
    }

    /// Stores a candidate and indexes it under the nodes whose row
    /// recomputation can flip its guard. A FIFO guard `post1 ≺ post2` only
    /// flips when row `post1` changes; a NOPRE guard `∃k ∈ nodes(taskA):
    /// k ≺ post2` only when some row `k` changes. Candidates that can never
    /// fire under the active rules are dropped outright.
    fn register_candidate(&mut self, cand: TaskPairCandidate) {
        let fifo_possible = self.rules.fifo
            && matches!(
                (cand.post1, cand.post2),
                (Some((_, k1)), Some((_, k2))) if fifo_delay_ok(k1, k2, self.rules.delayed_fifo)
            );
        let nopre_possible = self.rules.nopre
            && cand.post2.is_some()
            && self.task_nodes.contains_key(&cand.first_task);
        if !fifo_possible && !nopre_possible {
            return;
        }
        let idx = u32::try_from(self.candidates.len()).expect("fewer than 2^32 candidates");
        self.candidates.push(cand);
        self.candidate_done.push(false);
        self.examine_stamp.push(0);
        if fifo_possible {
            let (p1, _) = cand.post1.expect("fifo_possible implies post1");
            self.watchers[p1].push(idx);
        }
        if nopre_possible {
            let nodes = &self.task_nodes[&cand.first_task];
            for &k in nodes {
                self.watchers[k].push(idx);
            }
        }
    }

    /// Runs generator + transitivity to fixpoint, recording per-rule
    /// counters as it goes.
    ///
    /// Round one performs a full saturation (every row), seeding the
    /// incremental state; each later round recomputes only the rows that
    /// can reach a freshly added generator edge, and re-examines only the
    /// generator candidates watching one of those rows. Since edge addition
    /// is monotone and the per-round rule order is unchanged, the fixpoint
    /// — and even the per-round counter deltas — match the reference
    /// whole-matrix saturation exactly.
    fn run_fixpoint(&mut self) -> Result<(), BudgetReason> {
        loop {
            self.stats.rounds += 1;
            let (st0, mt0) = self.relation_sizes();
            let mut changed = if self.reference {
                self.dirty_sources.clear();
                self.saturate_reference()?
            } else if self.stats.rounds == 1 {
                self.saturate_all()?
            } else {
                self.saturate_dirty()?
            };
            let (st1, mt1) = self.relation_sizes();
            self.stats.trans_st_edges += st1 - st0;
            self.stats.trans_mt_edges += mt1 - mt0;
            let examine_all = self.reference || self.stats.rounds == 1;
            changed |= self.fire_generators(examine_all);
            if !changed {
                return Ok(());
            }
        }
    }

    /// Applies FIFO and NOPRE. With `examine_all` (round one and reference
    /// mode) every pending candidate is evaluated; afterwards only the
    /// candidates watching a row the last saturation recomputed — a guard
    /// bit can only have flipped if its source row went dirty. Returns true
    /// if any new edge was added.
    fn fire_generators(&mut self, examine_all: bool) -> bool {
        if self.candidates.is_empty() {
            return false;
        }
        let mut changed = false;
        if examine_all {
            for c in 0..self.candidates.len() {
                changed |= self.examine_candidate(c);
            }
            return changed;
        }
        let mut examine = std::mem::take(&mut self.examine_buf);
        examine.clear();
        // Fresh stamps init to 0 and the epoch starts its first sweep at 1,
        // so a never-examined candidate always passes the dedup check.
        self.examine_epoch = self.examine_epoch.wrapping_add(1);
        let stamp = self.examine_epoch;
        for di in 0..self.last_dirty.len() {
            let r = self.last_dirty[di];
            for wi in 0..self.watchers[r].len() {
                let c = self.watchers[r][wi] as usize;
                if !self.candidate_done[c] && self.examine_stamp[c] != stamp {
                    self.examine_stamp[c] = stamp;
                    examine.push(c as u32);
                }
            }
        }
        // Evaluate in candidate order, matching the reference engine's
        // full-scan order (candidates are independent within a round, but
        // determinism is part of the stats contract).
        examine.sort_unstable();
        for &c in &examine {
            changed |= self.examine_candidate(c as usize);
        }
        self.examine_buf = examine;
        changed
    }

    /// Evaluates one pending candidate, firing at most one edge. A
    /// candidate is retired once it fired or its conclusion was derived by
    /// other rules.
    fn examine_candidate(&mut self, c: usize) -> bool {
        if self.candidate_done[c] {
            return false;
        }
        let cand = self.candidates[c];
        if self.ordered(cand.end_node, cand.begin_node) {
            self.candidate_done[c] = true;
            return false;
        }
        let mut fifo_fire = false;
        if self.rules.fifo {
            if let (Some((p1, k1)), Some((p2, k2))) = (cand.post1, cand.post2) {
                if fifo_delay_ok(k1, k2, self.rules.delayed_fifo) && self.ordered(p1, p2) {
                    fifo_fire = true;
                }
            }
        }
        let mut nopre_fire = false;
        if !fifo_fire && self.rules.nopre {
            if let Some((p2, _)) = cand.post2 {
                if let Some(nodes) = self.task_nodes.get(&cand.first_task) {
                    nopre_fire = self.any_ordered_to(nodes, p2);
                }
            }
        }
        if (fifo_fire || nopre_fire) && self.add_edge(cand.end_node, cand.begin_node) {
            self.candidate_done[c] = true;
            if fifo_fire {
                self.stats.fifo_fired += 1;
            } else {
                self.stats.nopre_fired += 1;
            }
            return true;
        }
        false
    }

    /// Round one of the incremental engine: recompute every row once, in
    /// reverse trace order. Edges always point forward, so when row `i` is
    /// processed every successor row `j > i` is already complete and one
    /// pass reaches the closure.
    fn saturate_all(&mut self) -> Result<bool, BudgetReason> {
        let n = self.graph.node_count();
        // Base edges enqueued their sources; a full pass covers them all.
        self.dirty_sources.clear();
        self.last_dirty.clear();
        let mut changed = false;
        for i in (0..n).rev() {
            changed |= self.recompute_row(i);
            self.poll.check(self.stats.word_ops)?;
        }
        Ok(changed)
    }

    /// Incremental rounds: a row `x` can only change if `x` reaches the
    /// source of a freshly added direct edge, so walk the predecessor lists
    /// backwards from the dirty sources and recompute exactly the marked
    /// rows — again in reverse order, which keeps the complete-successor
    /// invariant (an unmarked successor is provably unchanged, a marked one
    /// has a larger id and was recomputed first).
    fn saturate_dirty(&mut self) -> Result<bool, BudgetReason> {
        self.last_dirty.clear();
        if self.dirty_sources.is_empty() {
            return Ok(false);
        }
        self.dirty_mark.clear();
        let mut stack = std::mem::take(&mut self.frontier);
        stack.clear();
        for si in 0..self.dirty_sources.len() {
            let s = self.dirty_sources[si];
            if !self.dirty_mark.contains(s) {
                self.dirty_mark.insert(s);
                stack.push(s);
            }
        }
        self.dirty_sources.clear();
        let mut dirty = std::mem::take(&mut self.last_dirty);
        while let Some(x) = stack.pop() {
            self.stats.worklist_pops += 1;
            self.poll.check(self.stats.word_ops)?;
            dirty.push(x);
            for &p in self.st_edges.preds(x) {
                if !self.dirty_mark.contains(p) {
                    self.dirty_mark.insert(p);
                    stack.push(p);
                }
            }
            for &p in self.mt_edges.preds(x) {
                if !self.dirty_mark.contains(p) {
                    self.dirty_mark.insert(p);
                    stack.push(p);
                }
            }
        }
        self.frontier = stack;
        dirty.sort_unstable_by(|a, b| b.cmp(a));
        let mut changed = false;
        for &row in &dirty {
            changed |= self.recompute_row(row);
            self.poll.check(self.stats.word_ops)?;
        }
        self.last_dirty = dirty;
        Ok(changed)
    }

    /// Recomputes row `i`'s closure from its *direct* successors, relying
    /// on their rows being complete.
    ///
    /// * `Plain`: the naive closure is the ordinary transitive closure of
    ///   the direct-edge graph, so row `i` is the OR of its direct
    ///   successors' rows.
    /// * `Restricted`: TRANS-ST composes over same-thread chains only, and
    ///   every same-thread successor of `i` is reached through a *direct*
    ///   same-thread successor, so the st row is the OR of the direct st
    ///   successors' st rows. TRANS-MT then composes the combined relation
    ///   through a frontier seeded with the direct st successors and the
    ///   current mt row: each popped node `k` contributes
    ///   `(mt(k) | st(k)) & ¬thread(i)`, and every *newly* derived mt bit
    ///   re-enters the frontier (a new cross-thread successor can enable
    ///   further compositions — direct successors alone are not enough).
    ///   Same-thread intermediates beyond the direct ones need no frontier
    ///   entry: they are covered through the direct st successor that
    ///   reaches them, which shares `i`'s thread mask.
    fn recompute_row(&mut self, i: NodeId) -> bool {
        self.stats.rows_recomputed += 1;
        let row_words = self.graph.node_count().div_ceil(64) as u64;
        match &mut self.relation {
            Relation::Plain(r) => {
                let mut changed = false;
                for &d in self.st_edges.succs(i) {
                    let (lo, hi) = r.row_bounds(d);
                    self.stats.word_ops += (hi - lo) as u64;
                    self.stats.skipped_words += row_words - (hi - lo) as u64;
                    changed |= r.or_row_into(d, i);
                }
                changed
            }
            Relation::Restricted { st, mt } => {
                let mut changed = false;
                for &d in self.st_edges.succs(i) {
                    let (lo, hi) = st.row_bounds(d);
                    self.stats.word_ops += (hi - lo) as u64;
                    self.stats.skipped_words += row_words - (hi - lo) as u64;
                    changed |= st.or_row_into(d, i);
                }
                let mask = self
                    .graph
                    .thread_mask(self.graph.node(i).thread)
                    .expect("every node's thread has a mask")
                    .words();
                let frontier = &mut self.frontier;
                frontier.clear();
                frontier.extend_from_slice(self.st_edges.succs(i));
                mt.for_each_set_in_row(i, |b| frontier.push(b));
                let mut new_mt_bits = false;
                while let Some(k) = frontier.pop() {
                    let touched = mt.or_union_masked_into(k, st, mask, i, |b| {
                        new_mt_bits = true;
                        frontier.push(b);
                    }) as u64;
                    self.stats.word_ops += touched;
                    self.stats.skipped_words += row_words - touched;
                }
                changed | new_mt_bits
            }
        }
    }

    /// One full whole-matrix saturation — the pre-rewrite algorithm,
    /// retained verbatim as the differential-testing reference (its
    /// `word_ops` still count whole rows per operation). Returns true if
    /// anything changed.
    fn saturate_reference(&mut self) -> Result<bool, BudgetReason> {
        let n = self.graph.node_count();
        if n == 0 {
            return Ok(false);
        }
        let threads: Vec<ThreadId> = self.graph.nodes().iter().map(|node| node.thread).collect();
        let row_words = n.div_ceil(64) as u64;
        match &mut self.relation {
            Relation::Plain(r) => {
                let mut changed = false;
                loop {
                    let mut pass_changed = false;
                    for i in (0..n).rev() {
                        let succs: Vec<usize> = r.iter_row(i).collect();
                        for j in succs {
                            pass_changed |= r.or_row_into(j, i);
                            self.stats.word_ops += row_words;
                        }
                        self.poll.check(self.stats.word_ops)?;
                    }
                    changed |= pass_changed;
                    if !pass_changed {
                        return Ok(changed);
                    }
                }
            }
            Relation::Restricted { st, mt } => {
                let words = n.div_ceil(64);
                let mut full = vec![0u64; words];
                let mut cand = vec![0u64; words];
                let mut changed = false;
                for i in (0..n).rev() {
                    // TRANS-ST: rows of st-successors are already complete
                    // (edges point forward, iteration is reverse).
                    let succs: Vec<usize> = st.iter_row(i).collect();
                    for j in succs {
                        changed |= st.or_row_into(j, i);
                        self.stats.word_ops += row_words;
                    }
                    // TRANS-MT: compose the combined relation; only bits on
                    // threads other than thread(i) may be recorded. Repeat
                    // until row i stabilizes, because newly derived cross-
                    // thread bits can enable further compositions.
                    let mask = self
                        .graph
                        .thread_mask(threads[i])
                        .expect("every node's thread has a mask");
                    loop {
                        for (w, f) in full.iter_mut().enumerate() {
                            *f = st.row(i)[w] | mt.row(i)[w];
                        }
                        cand.copy_from_slice(&full);
                        for j in BitIter::new(&full) {
                            let (sj, mj) = (st.row(j), mt.row(j));
                            for w in 0..words {
                                cand[w] |= sj[w] | mj[w];
                            }
                            self.stats.word_ops += row_words;
                        }
                        for (c, m) in cand.iter_mut().zip(mask.words()) {
                            *c &= !*m;
                        }
                        self.stats.word_ops += 2 * row_words;
                        self.poll.check(self.stats.word_ops)?;
                        if mt.or_words_into(&cand, i) {
                            changed = true;
                        } else {
                            break;
                        }
                    }
                }
                Ok(changed)
            }
        }
    }
}

/// The §4.2 refinement of the FIFO rule for delayed posts, extended to
/// front-of-queue posts:
///
/// * neither delayed → ordinary FIFO applies;
/// * second delayed, first not → the delayed task runs no earlier;
/// * first delayed, second not → no ordering (the delayed task may be
///   overtaken);
/// * both delayed → ordered iff the first timeout is no larger;
/// * second posted to the front (extension) → no FIFO ordering, the front
///   post may overtake anything queued.
pub(crate) fn fifo_delay_ok(k1: PostKind, k2: PostKind, refined: bool) -> bool {
    if !refined {
        return true;
    }
    if matches!(k2, PostKind::Front) {
        return false;
    }
    match (k1.delay(), k2.delay()) {
        (None, None) | (None, Some(_)) => true,
        (Some(_), None) => false,
        (Some(d1), Some(d2)) => d1 <= d2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use droidracer_trace::{validate, ThreadKind, TraceBuilder};

    fn hb(trace: &Trace) -> HappensBefore {
        assert_eq!(validate(trace), Ok(()), "test traces must be feasible");
        HappensBefore::compute(trace, HbConfig::new())
    }

    #[test]
    fn fifo_delay_table() {
        use PostKind::*;
        assert!(fifo_delay_ok(Plain, Plain, true));
        assert!(fifo_delay_ok(Plain, Delayed(5), true));
        assert!(!fifo_delay_ok(Delayed(5), Plain, true));
        assert!(fifo_delay_ok(Delayed(5), Delayed(5), true));
        assert!(fifo_delay_ok(Delayed(5), Delayed(9), true));
        assert!(!fifo_delay_ok(Delayed(9), Delayed(5), true));
        assert!(!fifo_delay_ok(Plain, Front, true));
        assert!(fifo_delay_ok(Front, Plain, true));
        // unrefined mode ignores post kinds entirely
        assert!(fifo_delay_ok(Delayed(9), Delayed(5), false));
        assert!(fifo_delay_ok(Plain, Front, false));
    }

    #[test]
    fn program_order_on_plain_thread() {
        let mut b = TraceBuilder::new();
        let t = b.thread("t", ThreadKind::App, true);
        let loc = b.loc("o", "C.f");
        b.thread_init(t);
        b.write(t, loc);
        b.read(t, loc);
        b.thread_exit(t);
        let trace = b.finish();
        let hb = hb(&trace);
        assert!(hb.ordered(0, 3));
        assert!(hb.ordered(1, 2));
        assert!(!hb.ordered(3, 0));
    }

    #[test]
    fn fork_orders_parent_prefix_before_child() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg = b.thread("bg", ThreadKind::App, false);
        let loc = b.loc("o", "C.f");
        b.thread_init(main); // 0
        b.write(main, loc); // 1
        b.fork(main, bg); // 2
        b.thread_init(bg); // 3
        b.read(bg, loc); // 4
        let trace = b.finish();
        let hb = hb(&trace);
        assert!(hb.ordered(1, 4), "write before fork ≺ read in child");
        assert!(hb.ordered(2, 3));
        assert!(!hb.ordered(4, 1));
    }

    #[test]
    fn join_orders_child_before_parent_suffix() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg = b.thread("bg", ThreadKind::App, false);
        let loc = b.loc("o", "C.f");
        b.thread_init(main); // 0
        b.fork(main, bg); // 1
        b.thread_init(bg); // 2
        b.write(bg, loc); // 3
        b.thread_exit(bg); // 4
        b.join(main, bg); // 5
        b.read(main, loc); // 6
        let trace = b.finish();
        let hb = hb(&trace);
        assert!(hb.ordered(3, 6));
        assert!(!hb.concurrent(0, 3), "fork chain orders 0 before 3");
    }

    #[test]
    fn lock_edges_cross_threads_only() {
        // Two threads handing a lock across: release ≺ acquire.
        let mut b = TraceBuilder::new();
        let a = b.thread("a", ThreadKind::App, true);
        let c = b.thread("c", ThreadKind::App, true);
        let l = b.lock("m");
        let loc = b.loc("o", "C.f");
        b.thread_init(a); // 0
        b.thread_init(c); // 1
        b.acquire(a, l); // 2
        b.write(a, loc); // 3
        b.release(a, l); // 4
        b.acquire(c, l); // 5
        b.read(c, loc); // 6
        b.release(c, l); // 7
        let trace = b.finish();
        let hb = hb(&trace);
        assert!(hb.ordered(4, 5));
        assert!(hb.ordered(3, 6), "write ≺ read through lock + program order");
        assert!(!hb.ordered(1, 0));
    }

    /// The motivating restriction: two tasks on the same thread using the
    /// same lock must NOT be ordered by the lock (locks cannot order tasks
    /// that already run sequentially on one thread). The naive combination
    /// derives the ordering; the paper's rules do not.
    #[test]
    fn same_thread_tasks_sharing_lock_stay_unordered() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let binder = b.thread("binder", ThreadKind::Binder, true);
        let t1 = b.task("A");
        let t2 = b.task("B");
        let l = b.lock("m");
        let loc = b.loc("o", "C.f");
        b.thread_init(main); // 0
        b.attach_q(main); // 1
        b.loop_on_q(main); // 2
        b.thread_init(binder); // 3
        b.post(binder, t1, main); // 4
        b.post(binder, t2, main); // 5  (unordered wrt. 4? no — same thread
                                  //     binder program order orders them!)
        b.begin(main, t1); // 6
        b.acquire(main, l); // 7
        b.write(main, loc); // 8
        b.release(main, l); // 9
        b.end(main, t1); // 10
        b.begin(main, t2); // 11
        b.acquire(main, l); // 12
        b.read(main, loc); // 13
        b.release(main, l); // 14
        b.end(main, t2); // 15
        let trace = b.finish();
        // Full rules: the two posts are on the same (non-queue) binder
        // thread, so NO-Q-PO orders them and FIFO orders the tasks: the
        // accesses are ordered — but through FIFO, not through the lock.
        let full = hb(&trace);
        assert!(full.ordered(8, 13));

        // Drop FIFO (and NOPRE) to isolate the lock: the paper's rules now
        // leave the two accesses unordered, the naive combination orders
        // them via the same-thread lock edge.
        let mut rules = RuleSet::full();
        rules.fifo = false;
        rules.nopre = false;
        let paper = HappensBefore::compute(
            &trace,
            HbConfig {
                rules,
                merge_accesses: true,
            },
        );
        assert!(
            paper.concurrent(8, 13),
            "lock must not order same-thread tasks"
        );

        let mut naive = HbMode::NaiveCombined.rule_set();
        naive.fifo = false;
        naive.nopre = false;
        let naive = HappensBefore::compute(
            &trace,
            HbConfig {
                rules: naive,
                merge_accesses: true,
            },
        );
        assert!(
            naive.ordered(8, 13),
            "naive combination derives the spurious ordering"
        );
    }

    use crate::rules::HbMode;

    #[test]
    fn lock_transitivity_through_other_thread_is_blocked() {
        // Task A on main releases l; bg acquires/releases l; task B on main
        // acquires l. Naive closure orders A ≺ B through bg; the paper's
        // restricted transitivity does not (same-thread pair).
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg = b.thread("bg", ThreadKind::App, true);
        let t1 = b.task("A");
        let t2 = b.task("B");
        let l = b.lock("m");
        let loc = b.loc("o", "C.f");
        b.thread_init(main); // 0
        b.attach_q(main); // 1
        b.loop_on_q(main); // 2
        b.thread_init(bg); // 3
        b.post(bg, t1, main); // 4
        b.begin(main, t1); // 5
        b.acquire(main, l); // 6
        b.write(main, loc); // 7
        b.release(main, l); // 8
        b.end(main, t1); // 9
        b.acquire(bg, l); // 10
        b.release(bg, l); // 11
        b.post(bg, t2, main); // 12 — NB: posted after t1's post on bg, so
                              // FIFO would order the tasks; disable it below.
        b.begin(main, t2); // 13
        b.acquire(main, l); // 14
        b.read(main, loc); // 15
        b.release(main, l); // 16
        b.end(main, t2); // 17
        let trace = b.finish();
        let mut rules = RuleSet::full();
        rules.fifo = false;
        rules.nopre = false;
        let paper = HappensBefore::compute(
            &trace,
            HbConfig {
                rules,
                merge_accesses: false,
            },
        );
        // Cross-thread orderings through the lock hold…
        assert!(paper.ordered(8, 10));
        assert!(paper.ordered(11, 14));
        // …but the same-thread composition 8 ≺ 10 ≺ 11 ≺ 14 is blocked.
        assert!(!paper.ordered(8, 14), "restricted transitivity");
        assert!(paper.concurrent(7, 15));

        let mut naive_rules = HbMode::NaiveCombined.rule_set();
        naive_rules.fifo = false;
        naive_rules.nopre = false;
        let naive = HappensBefore::compute(
            &trace,
            HbConfig {
                rules: naive_rules,
                merge_accesses: false,
            },
        );
        assert!(naive.ordered(8, 14));
        assert!(naive.ordered(7, 15), "naive closure is unrestricted");
    }

    #[test]
    fn fifo_orders_same_thread_tasks() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let t1 = b.task("A");
        let t2 = b.task("B");
        let loc = b.loc("o", "C.f");
        b.thread_init(main); // 0
        b.attach_q(main); // 1
        b.loop_on_q(main); // 2
        b.post(main, t1, main); // 3
        b.post(main, t2, main); // 4
        b.begin(main, t1); // 5
        b.write(main, loc); // 6
        b.end(main, t1); // 7
        b.begin(main, t2); // 8
        b.read(main, loc); // 9
        b.end(main, t2); // 10
        let trace = b.finish();
        let hb = hb(&trace);
        // posts 3,4 ordered pre-loop? No: they are after loopOnQ on main but
        // outside tasks… NO-Q-PO does not apply. They are both posted from
        // the looping thread itself though — in a real trace posts happen
        // inside tasks; here the FIFO premise β3 ≺ β4 needs another source.
        // loopOnQ ≺ every later node on main (NO-Q-PO), but 3 ⊀ 4 unless
        // derived. So this asserts NOPRE-free behaviour carefully:
        // end(A) ≺ begin(B) iff post(A) ≺ post(B).
        let ordered_posts = hb.ordered(3, 4);
        assert_eq!(hb.ordered(7, 8), ordered_posts);
        assert_eq!(hb.ordered(6, 9), ordered_posts);
    }

    #[test]
    fn fifo_via_cross_thread_posts() {
        // Binder posts A then B to main (binder has no queue → program
        // order): FIFO orders the tasks on main.
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let binder = b.thread("binder", ThreadKind::Binder, true);
        let t1 = b.task("A");
        let t2 = b.task("B");
        let loc = b.loc("o", "C.f");
        b.thread_init(main); // 0
        b.attach_q(main); // 1
        b.loop_on_q(main); // 2
        b.thread_init(binder); // 3
        b.post(binder, t1, main); // 4
        b.post(binder, t2, main); // 5
        b.begin(main, t1); // 6
        b.write(main, loc); // 7
        b.end(main, t1); // 8
        b.begin(main, t2); // 9
        b.read(main, loc); // 10
        b.end(main, t2); // 11
        let trace = b.finish();
        let hb = hb(&trace);
        assert!(hb.ordered(4, 5), "binder program order");
        assert!(hb.ordered(8, 9), "FIFO edge end(A) ≺ begin(B)");
        assert!(hb.ordered(7, 10), "accesses ordered transitively");
    }

    #[test]
    fn nopre_orders_task_before_task_it_posts() {
        // Task A posts B to its own thread: run-to-completion means A ends
        // before B begins, even without comparing post operations.
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let t1 = b.task("A");
        let t2 = b.task("B");
        let loc = b.loc("o", "C.f");
        b.thread_init(main); // 0
        b.attach_q(main); // 1
        b.loop_on_q(main); // 2
        b.post(main, t1, main); // 3
        b.begin(main, t1); // 4
        b.write(main, loc); // 5
        b.post(main, t2, main); // 6 (inside task A)
        b.end(main, t1); // 7
        b.begin(main, t2); // 8
        b.read(main, loc); // 9
        b.end(main, t2); // 10
        let trace = b.finish();
        let hb = hb(&trace);
        assert!(hb.ordered(7, 8), "NOPRE edge");
        assert!(hb.ordered(5, 9));
    }

    #[test]
    fn unordered_posts_leave_tasks_unordered() {
        // Two different threads post to main with no ordering between the
        // posts: the two tasks race (single-threaded race candidate).
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg1 = b.thread("bg1", ThreadKind::App, true);
        let bg2 = b.thread("bg2", ThreadKind::App, true);
        let t1 = b.task("A");
        let t2 = b.task("B");
        let loc = b.loc("o", "C.f");
        b.thread_init(main); // 0
        b.attach_q(main); // 1
        b.loop_on_q(main); // 2
        b.thread_init(bg1); // 3
        b.thread_init(bg2); // 4
        b.post(bg1, t1, main); // 5
        b.post(bg2, t2, main); // 6
        b.begin(main, t1); // 7
        b.write(main, loc); // 8
        b.end(main, t1); // 9
        b.begin(main, t2); // 10
        b.read(main, loc); // 11
        b.end(main, t2); // 12
        let trace = b.finish();
        let hb = hb(&trace);
        assert!(!hb.ordered(5, 6));
        assert!(hb.concurrent(8, 11), "the accesses race");
    }

    #[test]
    fn enable_orders_into_posted_task() {
        // Task A enables event task B; B is posted by binder later. The
        // enable ≺ post edge plus NOPRE order A entirely before B.
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let binder = b.thread("binder", ThreadKind::Binder, true);
        let t1 = b.task("LAUNCH_ACTIVITY");
        let t2 = b.task("onDestroy");
        let loc = b.loc("DwFileAct-obj", "isActivityDestroyed");
        b.thread_init(main); // 0
        b.attach_q(main); // 1
        b.loop_on_q(main); // 2
        b.thread_init(binder); // 3
        b.post(binder, t1, main); // 4
        b.begin(main, t1); // 5
        b.write(main, loc); // 6
        b.enable(main, t2); // 7
        b.end(main, t1); // 8
        b.post(binder, t2, main); // 9
        b.begin(main, t2); // 10
        b.write(main, loc); // 11
        b.end(main, t2); // 12
        let trace = b.finish();
        let hb = hb(&trace);
        assert!(hb.ordered(7, 9), "enable ≺ post");
        assert!(hb.ordered(8, 10), "NOPRE through the enable edge");
        assert!(hb.ordered(6, 11), "no race between the writes");
    }

    #[test]
    fn delayed_post_breaks_fifo_one_way() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let binder = b.thread("binder", ThreadKind::Binder, true);
        let slow = b.task("slow");
        let fast = b.task("fast");
        let loc = b.loc("o", "C.f");
        b.thread_init(main); // 0
        b.attach_q(main); // 1
        b.loop_on_q(main); // 2
        b.thread_init(binder); // 3
        b.post_delayed(binder, slow, main, 1000); // 4
        b.post(binder, fast, main); // 5
        b.begin(main, fast); // 6
        b.write(main, loc); // 7
        b.end(main, fast); // 8
        b.begin(main, slow); // 9
        b.read(main, loc); // 10
        b.end(main, slow); // 11
        let trace = b.finish();
        let hb = hb(&trace);
        // posts ordered 4 ≺ 5 (binder PO), but FIFO must NOT order
        // end(slow)…; here `fast` ran first. Check: end(fast) ≺ begin(slow)?
        // That needs post(fast) ≺ post(slow) — false (5 after 4). And
        // delayed-FIFO forbids slow-before-fast ordering. So the accesses
        // race (delayed race category).
        assert!(hb.concurrent(7, 10));
    }

    #[test]
    fn delayed_posts_order_by_timeout() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let binder = b.thread("binder", ThreadKind::Binder, true);
        let short = b.task("short");
        let long = b.task("long");
        let loc = b.loc("o", "C.f");
        b.thread_init(main); // 0
        b.attach_q(main); // 1
        b.loop_on_q(main); // 2
        b.thread_init(binder); // 3
        b.post_delayed(binder, short, main, 10); // 4
        b.post_delayed(binder, long, main, 1000); // 5
        b.begin(main, short); // 6
        b.write(main, loc); // 7
        b.end(main, short); // 8
        b.begin(main, long); // 9
        b.read(main, loc); // 10
        b.end(main, long); // 11
        let trace = b.finish();
        let hb = hb(&trace);
        assert!(hb.ordered(8, 9), "δ=10 ≤ δ=1000: FIFO applies");
        assert!(hb.ordered(7, 10));
    }

    #[test]
    fn front_post_extension_suppresses_fifo() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let binder = b.thread("binder", ThreadKind::Binder, true);
        let a = b.task("A");
        let urgent = b.task("urgent");
        let loc = b.loc("o", "C.f");
        b.thread_init(main); // 0
        b.attach_q(main); // 1
        b.loop_on_q(main); // 2
        b.thread_init(binder); // 3
        b.post(binder, a, main); // 4
        b.post_front(binder, urgent, main); // 5
        b.begin(main, urgent); // 6
        b.write(main, loc); // 7
        b.end(main, urgent); // 8
        b.begin(main, a); // 9
        b.read(main, loc); // 10
        b.end(main, a); // 11
        let trace = b.finish();
        let hb = hb(&trace);
        // post(A) ≺ post(urgent) but urgent may overtake: no FIFO edge, the
        // accesses are concurrent.
        assert!(hb.concurrent(7, 10));
    }

    #[test]
    fn attach_q_precedes_cross_thread_posts() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg = b.thread("bg", ThreadKind::App, true);
        let t1 = b.task("A");
        b.thread_init(main); // 0
        b.attach_q(main); // 1
        b.loop_on_q(main); // 2
        b.thread_init(bg); // 3
        b.post(bg, t1, main); // 4
        b.begin(main, t1); // 5
        b.end(main, t1); // 6
        let trace = b.finish();
        let hb = hb(&trace);
        assert!(hb.ordered(1, 4), "ATTACH-Q-MT");
    }

    #[test]
    fn merged_and_unmerged_agree_on_op_ordering() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg = b.thread("bg", ThreadKind::App, false);
        let loc1 = b.loc("o1", "C.f");
        let loc2 = b.loc("o2", "C.g");
        b.thread_init(main);
        b.write(main, loc1);
        b.write(main, loc2);
        b.fork(main, bg);
        b.read(main, loc1);
        b.thread_init(bg);
        b.read(bg, loc1);
        b.write(bg, loc2);
        let trace = b.finish();
        let merged = HappensBefore::compute(&trace, HbConfig::new());
        let unmerged = HappensBefore::compute(&trace, HbConfig::new().without_merging());
        for i in 0..trace.len() {
            for j in 0..trace.len() {
                assert_eq!(
                    merged.ordered(i, j),
                    unmerged.ordered(i, j),
                    "ops {i},{j} disagree"
                );
            }
        }
        assert!(merged.graph().node_count() < unmerged.graph().node_count());
    }

    #[test]
    fn empty_trace_is_fine() {
        let trace = TraceBuilder::new().finish();
        let hb = HappensBefore::compute(&trace, HbConfig::new());
        assert_eq!(hb.graph().node_count(), 0);
        assert_eq!(hb.ordered_pairs(), 0);
        // One (empty) round always runs; no edges, no word-ops.
        assert_eq!(
            *hb.stats(),
            EngineStats {
                rounds: 1,
                ..EngineStats::default()
            }
        );
    }

    /// Hand-derived counter expectations on a small queue trace. Binder
    /// posts two tasks to main; every edge of the computation is derivable
    /// on paper:
    ///
    /// * base (14): NO-Q-PO on main `0→1, 1→2, 2→{6,7,8,9}` and on binder
    ///   `3→4, 4→5`; ASYNC-PO `6→7, 8→9`; POST `4→6, 5→8`; ATTACH-Q-MT
    ///   `1→4, 1→5`;
    /// * round 1 TRANS-ST (10): `3→5`, `1→{6,7,8,9}`, `0→{2,6,7,8,9}`;
    /// * round 1 TRANS-MT (10): `5→9`, `4→{7,8,9}`, `3→{6,7,8,9}`,
    ///   `0→{4,5}`;
    /// * round 1 FIFO (1): posts 4 ≺ 5 fire `end(A)=7 ≺ begin(B)=8`;
    /// * round 2 TRANS-ST (3): `7→9, 6→8, 6→9`; round 3 changes nothing.
    #[test]
    fn stats_match_hand_derived_counts() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let binder = b.thread("binder", ThreadKind::Binder, true);
        let t1 = b.task("A");
        let t2 = b.task("B");
        b.thread_init(main); // 0
        b.attach_q(main); // 1
        b.loop_on_q(main); // 2
        b.thread_init(binder); // 3
        b.post(binder, t1, main); // 4
        b.post(binder, t2, main); // 5
        b.begin(main, t1); // 6
        b.end(main, t1); // 7
        b.begin(main, t2); // 8
        b.end(main, t2); // 9
        let trace = b.finish();
        let hb = hb(&trace);
        let s = hb.stats();
        assert_eq!(s.base_edges, 14);
        assert_eq!(s.fifo_fired, 1);
        assert_eq!(s.nopre_fired, 0);
        assert_eq!(s.trans_st_edges, 13);
        assert_eq!(s.trans_mt_edges, 10);
        assert_eq!(s.rounds, 3);
        assert!(s.word_ops > 0, "saturation touched the bit matrices");
        // Incremental-engine counters, also hand-derivable. Round 1
        // recomputes all 10 rows. The FIFO edge 7 → 8 dirties exactly the
        // nodes reaching 7 through direct edges: {7, 6, 2, 4, 1, 3, 0} —
        // seven pops, seven rows in round 2. Round 3 has no dirty sources.
        assert_eq!(s.worklist_pops, 7);
        assert_eq!(s.rows_recomputed, 17);
        // The counters partition the closed relation exactly.
        assert_eq!(hb.ordered_pairs(), s.base_edges + s.derived_edges());
    }

    fn arbitrary_stats(k: usize) -> EngineStats {
        EngineStats {
            base_edges: 3 + k,
            fifo_fired: k,
            nopre_fired: 2 * k,
            trans_st_edges: 5 + k,
            trans_mt_edges: 7,
            rounds: 1 + k,
            word_ops: 100 + k as u64,
            worklist_pops: 11,
            rows_recomputed: 13 + k as u64,
            skipped_words: 17,
        }
    }

    /// `since` is the inverse of `absorb`: absorbing per-pass deltas
    /// reproduces the accumulated totals, so a multi-pass session that
    /// rebaselines between passes never double-counts.
    #[test]
    fn stats_since_inverts_absorb() {
        let pass1 = arbitrary_stats(2);
        let pass2 = arbitrary_stats(9);
        let mut accumulated = pass1;
        accumulated.absorb(&pass2);
        assert_eq!(accumulated.since(&pass1), pass2);
        assert_eq!(accumulated.since(&pass2), pass1);
        assert_eq!(accumulated.since(&accumulated), EngineStats::default());
        // Re-absorbing the deltas from a fresh baseline reproduces the
        // accumulated totals exactly.
        let mut replayed = EngineStats::default();
        replayed.absorb(&accumulated.since(&pass2));
        replayed.absorb(&accumulated.since(&pass1));
        assert_eq!(replayed, accumulated);
    }

    /// The generator examine-stamp dedup must not key off `stats.rounds`:
    /// two independent closures of the same trace (the second standing in
    /// for a later pass of a multi-pass session with rebaselined stats)
    /// fire the same generator edges and report identical semantic
    /// counters.
    #[test]
    fn repeated_closures_reuse_no_stale_stamps() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let binder = b.thread("binder", ThreadKind::Binder, true);
        let t1 = b.task("A");
        let t2 = b.task("B");
        b.thread_init(main);
        b.attach_q(main);
        b.loop_on_q(main);
        b.thread_init(binder);
        b.post(binder, t1, main);
        b.post(binder, t2, main);
        b.begin(main, t1);
        b.end(main, t1);
        b.begin(main, t2);
        b.end(main, t2);
        let trace = b.finish();
        let first = HappensBefore::compute(&trace, HbConfig::new());
        let second = HappensBefore::compute(&trace, HbConfig::new());
        assert_eq!(first.stats(), second.stats());
        assert_eq!(first.stats().fifo_fired, 1);
        assert_eq!(first.relation_matrices().0, second.relation_matrices().0);
    }

    /// The incremental engine and the retained reference saturation derive
    /// bit-identical matrices and identical semantic counters (the
    /// work-accounting counters legitimately differ).
    #[test]
    fn incremental_matches_reference_on_unit_traces() {
        let traces = [
            {
                let mut b = TraceBuilder::new();
                let main = b.thread("main", ThreadKind::Main, true);
                let binder = b.thread("binder", ThreadKind::Binder, true);
                let t1 = b.task("A");
                let t2 = b.task("B");
                let loc = b.loc("o", "C.f");
                b.thread_init(main);
                b.attach_q(main);
                b.loop_on_q(main);
                b.thread_init(binder);
                b.post(binder, t1, main);
                b.post(binder, t2, main);
                b.begin(main, t1);
                b.write(main, loc);
                b.end(main, t1);
                b.begin(main, t2);
                b.read(main, loc);
                b.end(main, t2);
                b.finish()
            },
            {
                let mut b = TraceBuilder::new();
                let main = b.thread("main", ThreadKind::Main, true);
                let bg = b.thread("bg", ThreadKind::App, false);
                let l = b.lock("m");
                let loc = b.loc("o", "C.f");
                b.thread_init(main);
                b.acquire(main, l);
                b.write(main, loc);
                b.release(main, l);
                b.fork(main, bg);
                b.thread_init(bg);
                b.acquire(bg, l);
                b.read(bg, loc);
                b.release(bg, l);
                b.thread_exit(bg);
                b.join(main, bg);
                b.finish()
            },
        ];
        for trace in &traces {
            for mode in HbMode::all() {
                let config = HbConfig {
                    rules: mode.rule_set(),
                    merge_accesses: true,
                };
                let inc = HappensBefore::compute(trace, config);
                let rf = HappensBefore::compute_reference(trace, config);
                let (inc_a, inc_b) = inc.relation_matrices();
                let (ref_a, ref_b) = rf.relation_matrices();
                assert_eq!(inc_a, ref_a, "{mode:?}: primary matrix differs");
                assert_eq!(inc_b, ref_b, "{mode:?}: mt matrix differs");
                let (i, r) = (inc.stats(), rf.stats());
                assert_eq!(
                    (i.base_edges, i.fifo_fired, i.nopre_fired, i.rounds),
                    (r.base_edges, r.fifo_fired, r.nopre_fired, r.rounds),
                    "{mode:?}: semantic counters differ"
                );
                assert_eq!(i.trans_st_edges, r.trans_st_edges, "{mode:?}");
                assert_eq!(i.trans_mt_edges, r.trans_mt_edges, "{mode:?}");
                assert_eq!((r.worklist_pops, r.rows_recomputed), (0, 0));
            }
        }
    }

    /// Row bounds make saturation cheaper than whole-row scanning: the
    /// incremental engine's `word_ops` undercut the reference's, and the
    /// skipped words account for real all-zero prefix/suffix words.
    #[test]
    fn incremental_word_ops_undercut_reference() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let binder = b.thread("binder", ThreadKind::Binder, true);
        let loc = b.loc("o", "C.f");
        b.thread_init(main);
        b.attach_q(main);
        b.loop_on_q(main);
        b.thread_init(binder);
        let mut tasks = Vec::new();
        for i in 0..40 {
            let t = b.task(format!("t{i}"));
            b.post(binder, t, main);
            tasks.push(t);
        }
        for t in tasks {
            b.begin(main, t);
            b.write(main, loc);
            b.end(main, t);
        }
        let trace = b.finish();
        let config = HbConfig::new();
        let inc = HappensBefore::compute(&trace, config);
        let rf = HappensBefore::compute_reference(&trace, config);
        assert_eq!(inc.relation_matrices().0, rf.relation_matrices().0);
        assert!(
            inc.stats().word_ops < rf.stats().word_ops,
            "incremental {} !< reference {}",
            inc.stats().word_ops,
            rf.stats().word_ops
        );
        assert!(inc.stats().skipped_words > 0);
        assert!(inc.stats().worklist_pops > 0, "later rounds used the worklist");
    }

    #[test]
    fn stats_absorb_sums_every_counter() {
        let mut a = EngineStats {
            base_edges: 1,
            fifo_fired: 2,
            nopre_fired: 3,
            trans_st_edges: 4,
            trans_mt_edges: 5,
            rounds: 6,
            word_ops: 7,
            worklist_pops: 8,
            rows_recomputed: 9,
            skipped_words: 10,
        };
        let b = a;
        a.absorb(&b);
        assert_eq!(
            a,
            EngineStats {
                base_edges: 2,
                fifo_fired: 4,
                nopre_fired: 6,
                trans_st_edges: 8,
                trans_mt_edges: 10,
                rounds: 12,
                word_ops: 14,
                worklist_pops: 16,
                rows_recomputed: 18,
                skipped_words: 20,
            }
        );
    }

    /// NOPRE firing is counted separately from FIFO: a delayed first post
    /// blocks the FIFO premise (δ-refinement), but the second task is
    /// posted *from inside* the first, so NOPRE orders them.
    #[test]
    fn stats_count_nopre_separately() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let t1 = b.task("A");
        let t2 = b.task("B");
        b.thread_init(main); // 0
        b.attach_q(main); // 1
        b.loop_on_q(main); // 2
        b.post_delayed(main, t1, main, 100); // 3
        b.begin(main, t1); // 4
        b.post(main, t2, main); // 5 (inside task A)
        b.end(main, t1); // 6
        b.begin(main, t2); // 7
        b.end(main, t2); // 8
        let trace = b.finish();
        let hb = hb(&trace);
        let s = hb.stats();
        assert_eq!(s.fifo_fired, 0, "Delayed→Plain blocks FIFO");
        assert_eq!(s.nopre_fired, 1);
        assert!(hb.ordered(6, 7), "NOPRE edge end(A) ≺ begin(B)");
        assert_eq!(hb.ordered_pairs(), s.base_edges + s.derived_edges());
    }

    /// The counters are deterministic: recomputing the same trace under the
    /// same configuration yields bit-identical stats.
    #[test]
    fn stats_are_deterministic() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg = b.thread("bg", ThreadKind::App, false);
        let loc = b.loc("o", "C.f");
        b.thread_init(main);
        b.fork(main, bg);
        b.write(main, loc);
        b.thread_init(bg);
        b.read(bg, loc);
        let trace = b.finish();
        let a = hb(&trace);
        let b2 = hb(&trace);
        assert_eq!(a.stats(), b2.stats());
    }
}

#[cfg(test)]
mod budget_tests {
    use super::*;
    use crate::robust::{Budget, BudgetReason};
    use droidracer_trace::{ThreadKind, TraceBuilder};
    use std::time::{Duration, Instant};

    /// Budgeted closure of `trace` over a freshly built graph.
    fn compute_budgeted(
        trace: &Trace,
        config: HbConfig,
        budget: &Budget,
    ) -> Result<HappensBefore, BudgetExhausted> {
        let index = trace.index();
        let graph = HbGraph::build(trace, &index, config.merge_accesses);
        HappensBefore::compute_on_graph_budgeted(trace, &index, graph, config, budget)
    }

    /// A trace big enough that the engine does real work: many tasks posted
    /// across threads with interleaved accesses and lock traffic.
    fn busy_trace() -> Trace {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let binder = b.thread("binder", ThreadKind::Binder, true);
        let bg = b.thread("bg", ThreadKind::App, true);
        let l = b.lock("m");
        b.thread_init(main);
        b.attach_q(main);
        b.loop_on_q(main);
        b.thread_init(binder);
        b.thread_init(bg);
        let locs: Vec<_> = (0..8).map(|i| b.loc("o", format!("C.f{i}"))).collect();
        for k in 0..24 {
            let task = b.task(format!("T{k}"));
            b.post(binder, task, main);
            b.begin(main, task);
            b.write(main, locs[k % locs.len()]);
            b.read(main, locs[(k + 3) % locs.len()]);
            b.end(main, task);
            b.acquire(bg, l);
            b.write(bg, locs[k % locs.len()]);
            b.release(bg, l);
        }
        b.finish()
    }

    #[test]
    fn unlimited_budget_matches_plain_compute() {
        let trace = busy_trace();
        let plain = HappensBefore::compute(&trace, HbConfig::new());
        let budgeted = compute_budgeted(&trace, HbConfig::new(), &Budget::unlimited())
            .expect("unlimited budget cannot exhaust");
        assert_eq!(plain.stats(), budgeted.stats());
        assert_eq!(plain.ordered_pairs(), budgeted.ordered_pairs());
    }

    #[test]
    fn op_cap_exhausts_with_partial_stats() {
        let trace = busy_trace();
        let full = HappensBefore::compute(&trace, HbConfig::new());
        assert!(full.stats().word_ops > 8, "trace must exercise the engine");
        let err = compute_budgeted(
            &trace,
            HbConfig::new(),
            &Budget::unlimited().with_max_ops(8),
        )
        .expect_err("tiny op cap must trip");
        assert_eq!(err.reason, BudgetReason::OpCap);
        assert!(err.ops_processed > 8, "cutoff past the cap by at most one poll");
        assert!(
            err.partial.word_ops == err.ops_processed && err.partial.rows_recomputed > 0,
            "partial stats reflect work done: {:?}",
            err.partial
        );
        assert!(err.partial.word_ops < full.stats().word_ops);
        // The input is fine — re-running unbudgeted (and via the reference
        // engine) agrees completely.
        let again = HappensBefore::compute(&trace, HbConfig::new());
        assert_eq!(again.stats(), full.stats());
        let reference = HappensBefore::compute_reference(&trace, HbConfig::new());
        assert_eq!(reference.ordered_pairs(), full.ordered_pairs());
        assert_eq!(reference.stats().base_edges, full.stats().base_edges);
    }

    #[test]
    fn past_deadline_exhausts_immediately() {
        let trace = busy_trace();
        let err = compute_budgeted(
            &trace,
            HbConfig::new(),
            &Budget::unlimited().with_deadline(Instant::now() - Duration::from_millis(1)),
        )
        .expect_err("expired deadline must trip");
        assert_eq!(err.reason, BudgetReason::Deadline);
        // Afterwards the unbudgeted run still works and is deterministic.
        let a = HappensBefore::compute(&trace, HbConfig::new());
        let b2 = HappensBefore::compute(&trace, HbConfig::new());
        assert_eq!(a.stats(), b2.stats());
    }

    #[test]
    fn matrix_bit_cap_blocks_allocation_up_front() {
        let trace = busy_trace();
        let err = compute_budgeted(
            &trace,
            HbConfig::new(),
            &Budget::unlimited().with_max_matrix_bits(64),
        )
        .expect_err("tiny matrix cap must trip");
        assert_eq!(err.reason, BudgetReason::MatrixBits);
        assert_eq!(err.ops_processed, 0, "tripped before any work");
        assert_eq!(err.partial, EngineStats::default());
        // A generous cap admits the same result as the unbudgeted run.
        let n = HappensBefore::compute(&trace, HbConfig::new()).graph().node_count() as u64;
        let ok = compute_budgeted(
            &trace,
            HbConfig::new(),
            &Budget::unlimited().with_max_matrix_bits(2 * n * n),
        )
        .expect("exact cap admits the run");
        assert_eq!(ok.stats(), HappensBefore::compute(&trace, HbConfig::new()).stats());
    }

    #[test]
    fn budgeted_reference_engine_also_polls() {
        let trace = busy_trace();
        let index = trace.index();
        let config = HbConfig::new();
        let graph =
            crate::graph::HbGraph::build(&trace, &index, config.merge_accesses);
        // The reference saturator goes through the same close_over path only
        // via compute_reference (unlimited); exercise the budgeted worklist
        // path on a prebuilt graph instead.
        let err = HappensBefore::compute_on_graph_budgeted(
            &trace,
            &index,
            graph,
            config,
            &Budget::unlimited().with_max_ops(1),
        )
        .expect_err("op cap of 1 must trip");
        assert_eq!(err.reason, BudgetReason::OpCap);
    }

    #[test]
    fn detector_passes_respect_budgets() {
        use crate::robust::BudgetReason;
        let trace = busy_trace();
        let full = crate::fasttrack::detect(&trace);
        let ft = crate::fasttrack::detect_budgeted(&trace, &Budget::unlimited())
            .expect("unlimited budget cannot exhaust");
        assert_eq!(ft, full);
        let err = crate::fasttrack::detect_budgeted(&trace, &Budget::unlimited().with_max_ops(5))
            .expect_err("op cap must trip");
        assert_eq!(err.reason, BudgetReason::OpCap);
        assert_eq!(err.ops_processed, 5);
        let err = crate::fasttrack::detect_budgeted(
            &trace,
            &Budget::unlimited().with_deadline(Instant::now() - Duration::from_millis(1)),
        )
        .expect_err("expired deadline must trip");
        assert_eq!(err.reason, BudgetReason::Deadline);
        let vc_full = crate::vc::detect_multithreaded(&trace);
        let vc_budgeted =
            crate::vc::detect_multithreaded_budgeted(&trace, &Budget::unlimited())
                .expect("unlimited budget cannot exhaust");
        assert_eq!(vc_budgeted, vc_full);
        let err =
            crate::vc::detect_multithreaded_budgeted(&trace, &Budget::unlimited().with_max_ops(3))
                .expect_err("op cap must trip");
        assert_eq!(err.reason, BudgetReason::OpCap);
    }
}
