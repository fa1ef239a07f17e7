//! The generator rules FIFO and NOPRE (Figure 6, with the §4.2 delayed-post
//! refinement) as one sweep per looper, shared by both closure engines.
//!
//! Both rules derive `end(a) ≺ begin(b)` for two tasks `a`, `b` run by one
//! looper thread, `a` ending before `b` begins:
//!
//! * FIFO, when `post(a) ≺ post(b)` and the post kinds allow it
//!   ([`fifo_delay_ok`]);
//! * NOPRE, when some node of `a` is ordered before `post(b)`.
//!
//! Evaluated pair by pair, a looper with `n` tasks has `n(n-1)/2`
//! candidates, and on a looper whose tasks run in posting order nearly all
//! of them hold. Most of those edges are implied by the others: if
//! `end(x) ≺ begin(a)` and `end(a) ≺ begin(b)` hold, then
//! `end(x) ≺ begin(a) ≺ end(a) ≺ begin(b)` is a chain on the looper's own
//! thread, and TRANS-ST derives `end(x) ≺ begin(b)` (TRANS-MT does, when
//! `end(x)` runs elsewhere). Every rule is monotone, so the least fixpoint
//! is the same whichever subset of the firable edges is added, as long as
//! the rest follow; the sweep therefore fires only the edges nothing else
//! implies.
//!
//! # The sweep
//!
//! Each looper keeps its tasks in begin order, and task `b` a *coverage
//! row* `C_b`: a bit set over the earlier tasks `a` for which
//! `end(a) ≺ begin(b)` is known to follow. Sweeping `b` walks `a` from
//! `b − 1` down to the looper's first task, skipping every `a` already in
//! `C_b`, every `a` that never ended, and every `a` that ends after `b`
//! begins. For each remaining `a`:
//!
//! 1. if the relation already orders `end(a) ≺ begin(b)`, `a` joins `C_b`;
//! 2. otherwise FIFO and then NOPRE are evaluated exactly as the pair-wise
//!    rules state them, and on a fire the edge is added and `a` joins `C_b`;
//! 3. when `a` joined and the relation orders `begin(a) ≺ end(a)` — read
//!    from the relation, never assumed from ASYNC-PO, so custom
//!    [`RuleSet`]s stay exact — `C_a` is ORed into `C_b` a word at a time.
//!
//! Row `b` has `⌈b/64⌉` words, so a looper's rows form a triangle. A guard
//! that fails leaves `a` uncovered, and `b` is swept again in the next
//! round (batch) or the next fixpoint iteration of its boundary (stream).
//!
//! The sweep reads the guards against the same relation as the pair-wise
//! rules: an added edge `end(a) → begin(b)` sets no bit a FIFO or NOPRE
//! guard reads, so within one pass the guards see exactly what the
//! pair-wise evaluation sees, and the closure of what the sweep adds
//! contains every edge the pair-wise rules would add.

use droidracer_trace::{PostKind, TaskId, ThreadId, TraceIndex};

use crate::graph::{HbGraph, NodeId};
use crate::robust::BudgetReason;
use crate::rules::RuleSet;

/// What a closure engine lends the sweep: its current relation, a way to
/// add a direct edge, and its budget.
pub(crate) trait SweepHost {
    /// Whether `a ≺ b` holds in the current relation, reflexively (`a == b`
    /// counts as ordered).
    fn ordered(&self, a: NodeId, b: NodeId) -> bool;

    /// Whether some node of `nodes` is ordered before `j` (reflexively).
    fn any_ordered_to(&self, nodes: &[NodeId], j: NodeId) -> bool {
        nodes.iter().any(|&k| self.ordered(k, j))
    }

    /// Adds the direct edge `a → b`; returns whether it was new.
    fn add_edge(&mut self, a: NodeId, b: NodeId) -> bool;

    /// Polls the engine's budget; called once per swept task.
    fn poll(&mut self) -> Result<(), BudgetReason>;
}

/// One task of a looper, as the generator rules see it.
#[derive(Debug)]
struct LooperTask {
    /// Trace index of the task's `begin`.
    begin_op: usize,
    begin: NodeId,
    /// Trace index and node of the task's `end`, once it ended.
    end: Option<(usize, NodeId)>,
    /// Post node and kind, if the task was posted.
    post: Option<(NodeId, PostKind)>,
    /// Every node of the task, for NOPRE.
    nodes: Vec<NodeId>,
    /// Whether the task's `begin` and `end` run on the looper's thread (as
    /// they do in every valid trace). Coverage rows are merged only between
    /// such tasks, where the TRANS-ST chain above exists.
    on_looper: bool,
}

/// The tasks one thread runs, in begin order, with their coverage rows.
#[derive(Debug, Default)]
struct Looper {
    tasks: Vec<LooperTask>,
    /// The triangular coverage rows, row `b` at [`row_offset`]`(b)`.
    /// Allocated by the first sweep after the tasks were added.
    rows: Vec<u64>,
}

/// Which generator rule fired.
#[derive(Debug, Clone, Copy)]
enum Rule {
    Fifo,
    Nopre,
}

/// The FIFO/NOPRE state of one closure: the loopers' task lists, coverage
/// rows, the queue of tasks still to sweep (stream) and the firing
/// counters. The only production code that evaluates FIFO and NOPRE.
#[derive(Debug, Default)]
pub(crate) struct Generators {
    rules: RuleSet,
    /// Loopers in the order they were first seen (thread-id order in the
    /// batch engine).
    loopers: Vec<Looper>,
    /// Looper index per thread index.
    looper_of: Vec<Option<u32>>,
    /// `(looper, position)` per task index.
    slot_of: Vec<Option<(u32, u32)>>,
    /// Tasks begun since the queue was last dropped, in begin order.
    queue: Vec<(u32, u32)>,
    /// Edges FIFO added.
    pub(crate) fifo_fired: usize,
    /// Edges NOPRE added.
    pub(crate) nopre_fired: usize,
}

impl Generators {
    /// An empty generator state; with FIFO and NOPRE both off it stays
    /// empty and every sweep is a no-op.
    pub(crate) fn new(rules: RuleSet) -> Self {
        Generators {
            rules,
            ..Generators::default()
        }
    }

    fn active(&self) -> bool {
        self.rules.fifo || self.rules.nopre
    }

    /// The loopers of a whole trace: every task with a `begin` and a
    /// `target`, grouped by target and sorted by begin index, loopers in
    /// thread-id order.
    pub(crate) fn for_graph(index: &TraceIndex, graph: &HbGraph, rules: RuleSet) -> Self {
        let mut gens = Generators::new(rules);
        if !gens.active() {
            return gens;
        }
        let mut begun: Vec<(ThreadId, usize, TaskId)> = index
            .tasks()
            .filter_map(|(task, info)| Some((info.target?, info.begin?, task)))
            .collect();
        begun.sort_unstable();
        for (target, begin_op, task) in begun {
            let info = index.task(task);
            let begin = graph.node_of(begin_op);
            let end = info.end.map(|e| (e, graph.node_of(e)));
            let on_thread = |n: NodeId| graph.node(n).thread == target;
            gens.push_task(
                target,
                task,
                LooperTask {
                    begin_op,
                    begin,
                    end,
                    post: info.post.map(|p| (graph.node_of(p), info.post_kind)),
                    nodes: Vec::new(),
                    on_looper: on_thread(begin) && end.is_none_or(|(_, n)| on_thread(n)),
                },
            );
        }
        for (id, node) in graph.nodes().iter().enumerate() {
            if let Some(task) = node.task {
                gens.push_node(task, id);
            }
        }
        gens
    }

    /// Appends `task` to `thread`'s looper.
    fn push_task(&mut self, thread: ThreadId, task: TaskId, looper_task: LooperTask) -> (u32, u32) {
        let t = thread.index();
        if t >= self.looper_of.len() {
            self.looper_of.resize(t + 1, None);
        }
        let l = *self.looper_of[t].get_or_insert_with(|| {
            self.loopers.push(Looper::default());
            (self.loopers.len() - 1) as u32
        });
        let tasks = &mut self.loopers[l as usize].tasks;
        let slot = (l, tasks.len() as u32);
        tasks.push(looper_task);
        let k = task.index();
        if k >= self.slot_of.len() {
            self.slot_of.resize(k + 1, None);
        }
        self.slot_of[k] = Some(slot);
        slot
    }

    fn task_mut(&mut self, task: TaskId) -> Option<&mut LooperTask> {
        let (l, p) = (*self.slot_of.get(task.index())?)?;
        Some(&mut self.loopers[l as usize].tasks[p as usize])
    }

    /// Records that `task` began on looper `thread` at trace index
    /// `begin_op`, node `begin`, and queues it for the next
    /// [`Generators::sweep_queued`]. The begin node is the task's first
    /// node. Streaming only: the batch engine builds its loopers whole.
    pub(crate) fn begin(
        &mut self,
        thread: ThreadId,
        task: TaskId,
        begin_op: usize,
        begin: NodeId,
        post: Option<(NodeId, PostKind)>,
    ) {
        if !self.active() {
            return;
        }
        let slot = self.push_task(
            thread,
            task,
            LooperTask {
                begin_op,
                begin,
                end: None,
                post,
                nodes: vec![begin],
                on_looper: true,
            },
        );
        self.queue.push(slot);
    }

    /// Records `task`'s `end` at trace index `end_op`, node `end`.
    pub(crate) fn end(&mut self, task: TaskId, end_op: usize, end: NodeId) {
        if let Some(t) = self.task_mut(task) {
            t.end = Some((end_op, end));
        }
    }

    /// Records `node` as a node of `task` (for NOPRE). Nodes of tasks that
    /// have not begun on a looper are ignored.
    pub(crate) fn push_node(&mut self, task: TaskId, node: NodeId) {
        if let Some(t) = self.task_mut(task) {
            t.nodes.push(node);
        }
    }

    /// Bits the coverage rows take once allocated: they count toward a
    /// budget's matrix-bit cap.
    pub(crate) fn coverage_bits(&self) -> u64 {
        self.loopers
            .iter()
            .map(|l| row_offset(l.tasks.len()) as u64 * 64)
            .sum()
    }

    /// Sweeps every task of every looper once, loopers in order: one
    /// generator pass of the batch fixpoint. Returns whether an edge was
    /// added.
    pub(crate) fn sweep_loopers<H: SweepHost>(
        &mut self,
        host: &mut H,
    ) -> Result<bool, BudgetReason> {
        let mut fired = false;
        for l in 0..self.loopers.len() {
            for b in 0..self.loopers[l].tasks.len() {
                fired |= self.sweep_task(l, b, host)?;
            }
        }
        Ok(fired)
    }

    /// Sweeps every queued task once, in begin order: one generator pass of
    /// the streaming boundary fixpoint. Returns whether an edge was added.
    pub(crate) fn sweep_queued<H: SweepHost>(
        &mut self,
        host: &mut H,
    ) -> Result<bool, BudgetReason> {
        let mut fired = false;
        for q in 0..self.queue.len() {
            let (l, b) = self.queue[q];
            fired |= self.sweep_task(l as usize, b as usize, host)?;
        }
        Ok(fired)
    }

    /// Drops the queue at the end of a streaming boundary. The frozen
    /// columns make this safe: every guard of a queued task reads columns
    /// of nodes older than its `begin`, so a guard that did not fire by the
    /// end of its own boundary never fires later.
    pub(crate) fn drop_queue(&mut self) {
        self.queue.clear();
    }

    /// Sweeps task `b` of looper `l`: recomputes its coverage row and fires
    /// `end(a) ≺ begin(b)` for every earlier task `a` whose guard holds and
    /// which nothing covers yet.
    fn sweep_task<H: SweepHost>(
        &mut self,
        l: usize,
        b: usize,
        host: &mut H,
    ) -> Result<bool, BudgetReason> {
        host.poll()?;
        let rules = self.rules;
        let looper = &mut self.loopers[l];
        let needed = row_offset(looper.tasks.len());
        if looper.rows.len() < needed {
            looper.rows.resize(needed, 0);
        }
        let (earlier, rest) = looper.rows.split_at_mut(row_offset(b));
        let cover = &mut rest[..b.div_ceil(64)];
        cover.fill(0);
        let tb = &looper.tasks[b];
        let mut fired = false;
        let mut limit = b;
        while let Some(a) = prev_uncovered(cover, limit) {
            limit = a;
            let ta = &looper.tasks[a];
            let Some((end_op, end)) = ta.end else {
                continue;
            };
            if end_op >= tb.begin_op {
                continue;
            }
            if !host.ordered(end, tb.begin) {
                let Some(rule) = guard(rules, ta, tb, host) else {
                    continue;
                };
                if host.add_edge(end, tb.begin) {
                    fired = true;
                    match rule {
                        Rule::Fifo => self.fifo_fired += 1,
                        Rule::Nopre => self.nopre_fired += 1,
                    }
                }
            }
            cover[a / 64] |= 1u64 << (a % 64);
            if ta.on_looper && tb.on_looper && host.ordered(ta.begin, end) {
                let start = row_offset(a);
                for (c, &w) in cover
                    .iter_mut()
                    .zip(&earlier[start..start + a.div_ceil(64)])
                {
                    *c |= w;
                }
            }
        }
        Ok(fired)
    }
}

/// FIFO, then NOPRE, for the pair `(a, b)` — the pair-wise rules
/// verbatim. Returns the rule whose guard holds.
fn guard<H: SweepHost>(rules: RuleSet, a: &LooperTask, b: &LooperTask, host: &H) -> Option<Rule> {
    let (p2, k2) = b.post?;
    if rules.fifo {
        if let Some((p1, k1)) = a.post {
            if fifo_delay_ok(k1, k2, rules.delayed_fifo) && host.ordered(p1, p2) {
                return Some(Rule::Fifo);
            }
        }
    }
    (rules.nopre && host.any_ordered_to(&a.nodes, p2)).then_some(Rule::Nopre)
}

/// First word of coverage row `b` in a looper's triangular row store:
/// `Σ_{i<b} ⌈i/64⌉`. With `b` the looper's task count, the store's size.
fn row_offset(b: usize) -> usize {
    let m = b.saturating_sub(1);
    let (k, r) = (m / 64, m % 64);
    64 * k * (k + 1) / 2 + r * (k + 1)
}

/// The largest task index below `limit` not set in `cover`.
fn prev_uncovered(cover: &[u64], limit: usize) -> Option<usize> {
    let mut w = limit.checked_sub(1)? / 64;
    let mut below = match limit % 64 {
        0 => !0u64,
        r => (1u64 << r) - 1,
    };
    loop {
        let free = !cover[w] & below;
        if free != 0 {
            return Some(w * 64 + 63 - free.leading_zeros() as usize);
        }
        w = w.checked_sub(1)?;
        below = !0;
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
    fn row_offsets_are_triangular() {
        let mut sum = 0;
        for b in 0..300 {
            assert_eq!(row_offset(b), sum, "row {b}");
            sum += b.div_ceil(64);
        }
    }

    #[test]
    fn prev_uncovered_skips_set_bits() {
        let mut cover = vec![0u64; 3];
        assert_eq!(prev_uncovered(&cover, 0), None);
        assert_eq!(prev_uncovered(&cover, 130), Some(129));
        assert_eq!(prev_uncovered(&cover, 64), Some(63));
        cover[2] = 0b11;
        cover[1] = !0;
        assert_eq!(prev_uncovered(&cover, 130), Some(63));
        cover[0] = !0 ^ (1 << 5);
        assert_eq!(prev_uncovered(&cover, 130), Some(5));
        cover[0] = !0;
        assert_eq!(prev_uncovered(&cover, 130), None);
    }
}
