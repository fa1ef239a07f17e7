//! The happens-before graph: trace operations as nodes, with the paper's
//! node-merging optimization.
//!
//! §6 (Performance): "contiguous memory accesses without any intervening
//! synchronization operation are modeled by a single node in the graph. This
//! reduced the number of nodes to 1.4% to 24.8% of the original trace length
//! (with avg. 11.1%) without sacrificing on the precision."
//!
//! Merging is precision-preserving because happens-before edges enter and
//! leave a thread only at synchronization operations: two accesses on the
//! same thread inside the same task with no synchronization between them
//! stand in exactly the same ordering relations to every other operation.

use droidracer_trace::{Op, TaskId, ThreadId, Trace, TraceIndex};

use crate::bitmatrix::BitSet;

/// Identifier of a node in the happens-before graph (an index into
/// [`HbGraph::nodes`]).
pub type NodeId = usize;

/// One node of the happens-before graph: either a single synchronization
/// operation or a block of contiguous memory accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node {
    /// The executing thread.
    pub thread: ThreadId,
    /// The task containing the node's operations, if any.
    pub task: Option<TaskId>,
    /// Trace index of the first operation in the node.
    pub first: usize,
    /// Trace index of the last operation in the node (equals `first` for
    /// synchronization nodes).
    pub last: usize,
    /// Whether this node is a merged block of memory accesses.
    pub is_access_block: bool,
}

/// The happens-before graph skeleton: the node set and op↔node mappings.
/// Edges live in the closure engine.
#[derive(Debug, Clone)]
pub struct HbGraph {
    nodes: Vec<Node>,
    op_node: Vec<NodeId>,
    /// Node ids per thread, indexed by `ThreadId`.
    thread_nodes: Vec<Vec<NodeId>>,
    thread_masks: Vec<BitSet>,
    trace_len: usize,
}

impl HbGraph {
    /// Builds the graph for `trace`. When `merge_accesses` is true,
    /// contiguous same-thread same-task accesses with no intervening
    /// synchronization on that thread collapse into one node (the paper's
    /// optimization); otherwise every operation is its own node.
    pub fn build(trace: &Trace, index: &TraceIndex, merge_accesses: bool) -> Self {
        Self::build_with_breaks(trace, index, merge_accesses, &[])
    }

    /// Like [`HbGraph::build`], but the operations at `breaks` are kept as
    /// singleton nodes even under merging (and close their thread's open
    /// block). Used when edges must be anchored at specific operations —
    /// e.g. the assumed orderings of race-coverage analysis.
    pub fn build_with_breaks(
        trace: &Trace,
        index: &TraceIndex,
        merge_accesses: bool,
        breaks: &[usize],
    ) -> Self {
        let mut breaks = breaks.to_vec();
        breaks.sort_unstable();
        breaks.dedup();
        let mut breaks = breaks.into_iter().peekable();
        let mut builder = GraphBuilder::new(merge_accesses);
        builder.op_node.reserve(trace.len());
        for (i, op) in trace.iter() {
            let is_break = breaks.next_if_eq(&i).is_some();
            builder.push_op(i, op, index.task_of(i), is_break);
        }
        let GraphBuilder { nodes, op_node, .. } = builder;
        let n_threads = trace.names().thread_count().max(
            nodes
                .iter()
                .map(|n| n.thread.index() + 1)
                .max()
                .unwrap_or(0),
        );
        let mut thread_nodes = vec![Vec::new(); n_threads];
        let mut thread_masks = vec![BitSet::new(nodes.len()); n_threads];
        for (id, node) in nodes.iter().enumerate() {
            thread_nodes[node.thread.index()].push(id);
            thread_masks[node.thread.index()].insert(id);
        }
        HbGraph {
            nodes,
            op_node,
            thread_nodes,
            thread_masks,
            trace_len: trace.len(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// All nodes in trace order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The node containing the operation at trace index `op_index`.
    ///
    /// # Panics
    ///
    /// Panics if `op_index` is out of bounds.
    pub fn node_of(&self, op_index: usize) -> NodeId {
        self.op_node[op_index]
    }

    /// Node ids on `thread`, in trace order.
    pub fn nodes_of_thread(&self, thread: ThreadId) -> &[NodeId] {
        self.thread_nodes
            .get(thread.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Bit mask (over node ids) of the nodes on `thread`.
    pub fn thread_mask(&self, thread: ThreadId) -> Option<&BitSet> {
        self.thread_masks.get(thread.index())
    }

    /// Length of the underlying trace.
    pub fn trace_len(&self) -> usize {
        self.trace_len
    }

    /// Node count as a fraction of trace length — the paper reports this
    /// reduction ratio (avg 11.1% across its corpus).
    pub fn reduction_ratio(&self) -> f64 {
        if self.trace_len == 0 {
            1.0
        } else {
            self.nodes.len() as f64 / self.trace_len as f64
        }
    }
}

/// What one [`GraphBuilder::push_op`] did to the node set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GraphPush {
    /// The node assigned to the pushed operation.
    pub(crate) node: NodeId,
    /// Whether the push created `node` (false when the op extended an open
    /// access block).
    pub(crate) new_node: bool,
    /// A previously-open access block on the op's thread this push closed:
    /// the block can never grow again. Singleton nodes (sync ops and
    /// unmerged accesses) are closed the moment they are created; open
    /// access blocks close through this field or when the stream finishes.
    pub(crate) closed: Option<NodeId>,
}

/// Incremental construction of the node set: operations are pushed one at a
/// time and the §6 merging decision is made exactly as in the batch fold of
/// [`HbGraph::build_with_breaks`], which delegates here. The streaming
/// engine drives this builder op-by-op and keeps its own growable
/// thread-mask/thread-node indexes.
#[derive(Debug, Clone)]
pub(crate) struct GraphBuilder {
    merge_accesses: bool,
    nodes: Vec<Node>,
    op_node: Vec<NodeId>,
    /// The currently open access block of each thread, indexed by
    /// `ThreadId`.
    open_block: Vec<Option<NodeId>>,
}

impl GraphBuilder {
    pub(crate) fn new(merge_accesses: bool) -> Self {
        GraphBuilder {
            merge_accesses,
            nodes: Vec::new(),
            op_node: Vec::new(),
            open_block: Vec::new(),
        }
    }

    /// Assigns the operation at trace index `i` to a node. Operations must
    /// be pushed in trace order (`i` equals the number of ops pushed so
    /// far); `is_break` forces a singleton node as in
    /// [`HbGraph::build_with_breaks`].
    pub(crate) fn push_op(
        &mut self,
        i: usize,
        op: Op,
        task: Option<TaskId>,
        is_break: bool,
    ) -> GraphPush {
        debug_assert_eq!(i, self.op_node.len(), "ops are pushed in trace order");
        let t = op.thread.index();
        if t >= self.open_block.len() {
            self.open_block.resize(t + 1, None);
        }
        if self.merge_accesses && op.kind.is_access() && !is_break {
            if let Some(block) = self.open_block[t] {
                if self.nodes[block].task == task {
                    self.nodes[block].last = i;
                    self.op_node.push(block);
                    return GraphPush {
                        node: block,
                        new_node: false,
                        closed: None,
                    };
                }
            }
            let id = self.nodes.len();
            self.nodes.push(Node {
                thread: op.thread,
                task,
                first: i,
                last: i,
                is_access_block: true,
            });
            self.op_node.push(id);
            let closed = self.open_block[t].replace(id);
            GraphPush {
                node: id,
                new_node: true,
                closed,
            }
        } else {
            // Any synchronization op (or breakpoint) on the thread closes
            // its block.
            let closed = if op.kind.is_sync() || is_break {
                self.open_block[t].take()
            } else {
                None
            };
            let id = self.nodes.len();
            self.nodes.push(Node {
                thread: op.thread,
                task,
                first: i,
                last: i,
                is_access_block: op.kind.is_access(),
            });
            self.op_node.push(id);
            GraphPush {
                node: id,
                new_node: true,
                closed,
            }
        }
    }

    /// All nodes created so far, in trace order.
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The node containing the operation at trace index `op_index`.
    pub(crate) fn node_of(&self, op_index: usize) -> NodeId {
        self.op_node[op_index]
    }

    /// The still-open access block on `thread`, if any.
    pub(crate) fn open_block_of(&self, thread: ThreadId) -> Option<NodeId> {
        self.open_block.get(thread.index()).copied().flatten()
    }

    /// Every still-open access block, in thread order.
    pub(crate) fn open_blocks(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.open_block.iter().flatten().copied()
    }
}

/// Direct-edge adjacency over graph nodes: forward successor lists plus the
/// reverse predecessor lists the incremental closure uses for dirty-node
/// propagation.
///
/// The closure engine stores *direct* edges here (base rules and generator
/// firings, before transitive saturation). Edges always point forward in
/// trace order, so `succs(a)` holds only ids `> a` and `preds(b)` only ids
/// `< b`.
#[derive(Debug, Clone, Default)]
pub struct DirectEdges {
    succ: Vec<Vec<NodeId>>,
    pred: Vec<Vec<NodeId>>,
    edges: usize,
}

impl DirectEdges {
    /// Creates an edgeless adjacency over `n` nodes.
    pub fn new(n: usize) -> Self {
        DirectEdges {
            succ: vec![Vec::new(); n],
            pred: vec![Vec::new(); n],
            edges: 0,
        }
    }

    /// Grows the adjacency to cover `n` nodes (no-op if already large
    /// enough). The streaming engine discovers nodes one at a time, so its
    /// edge sets grow with the graph instead of being sized up front.
    pub fn grow_to(&mut self, n: usize) {
        if n > self.succ.len() {
            self.succ.resize_with(n, Vec::new);
            self.pred.resize_with(n, Vec::new);
        }
    }

    /// Records the direct edge `a → b`. The caller is responsible for
    /// deduplication (the engine only pushes newly-set relation bits).
    pub fn push(&mut self, a: NodeId, b: NodeId) {
        debug_assert!(a < b, "HB edges point forward in trace order");
        self.succ[a].push(b);
        self.pred[b].push(a);
        self.edges += 1;
    }

    /// Direct successors of `a`.
    pub fn succs(&self, a: NodeId) -> &[NodeId] {
        &self.succ[a]
    }

    /// Direct predecessors of `b`.
    pub fn preds(&self, b: NodeId) -> &[NodeId] {
        &self.pred[b]
    }

    /// Total number of recorded edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use droidracer_trace::{ThreadKind, TraceBuilder};

    fn access_heavy_trace() -> Trace {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg = b.thread("bg", ThreadKind::App, false);
        let loc = b.loc("o", "C.f");
        let l = b.lock("m");
        b.thread_init(main); // 0
        b.write(main, loc); // 1  ┐ block A
        b.read(main, loc); // 2  ┘
        b.fork(main, bg); // 3 (sync: closes block)
        b.read(main, loc); // 4  ┐ block B
        b.read(main, loc); // 5  ┘
        b.thread_init(bg); // 6
        b.write(bg, loc); // 7   block C (bg)
        b.read(main, loc); // 8  joins block B: no intervening sync on main
        b.acquire(bg, l); // 9
        b.release(bg, l); // 10
        b.finish()
    }

    #[test]
    fn merging_collapses_contiguous_accesses() {
        let trace = access_heavy_trace();
        let index = trace.index();
        let g = HbGraph::build(&trace, &index, true);
        // nodes: init, blockA, fork, blockB, init(bg), blockC, acquire, release
        assert_eq!(g.node_count(), 8);
        assert_eq!(g.node_of(1), g.node_of(2));
        assert_eq!(g.node_of(4), g.node_of(5));
        // other-thread ops do not break a block
        assert_eq!(g.node_of(4), g.node_of(8));
        assert_ne!(g.node_of(1), g.node_of(4)); // fork intervened
        assert_ne!(g.node_of(7), g.node_of(4)); // different threads
        let block = g.node(g.node_of(4));
        assert_eq!((block.first, block.last), (4, 8));
        assert!(block.is_access_block);
    }

    #[test]
    fn unmerged_graph_has_one_node_per_op() {
        let trace = access_heavy_trace();
        let index = trace.index();
        let g = HbGraph::build(&trace, &index, false);
        assert_eq!(g.node_count(), trace.len());
        for i in 0..trace.len() {
            assert_eq!(g.node_of(i), i);
        }
        assert!((g.reduction_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn task_boundary_breaks_blocks() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let t1 = b.task("A");
        let t2 = b.task("B");
        let loc = b.loc("o", "C.f");
        b.thread_init(main);
        b.attach_q(main);
        b.loop_on_q(main);
        b.post(main, t1, main);
        b.post(main, t2, main);
        b.begin(main, t1);
        b.read(main, loc);
        b.end(main, t1);
        b.begin(main, t2);
        b.read(main, loc);
        b.end(main, t2);
        let trace = b.finish();
        let index = trace.index();
        let g = HbGraph::build(&trace, &index, true);
        let n1 = g.node(g.node_of(6));
        let n2 = g.node(g.node_of(9));
        assert_ne!(g.node_of(6), g.node_of(9));
        assert_eq!(n1.task, Some(t1));
        assert_eq!(n2.task, Some(t2));
    }

    #[test]
    fn thread_masks_partition_nodes() {
        let trace = access_heavy_trace();
        let index = trace.index();
        let g = HbGraph::build(&trace, &index, true);
        let main_mask = g.thread_mask(ThreadId(0)).unwrap();
        let bg_mask = g.thread_mask(ThreadId(1)).unwrap();
        for id in 0..g.node_count() {
            let on_main = g.node(id).thread == ThreadId(0);
            assert_eq!(main_mask.contains(id), on_main);
            assert_eq!(bg_mask.contains(id), !on_main);
        }
        assert_eq!(
            g.nodes_of_thread(ThreadId(0)).len() + g.nodes_of_thread(ThreadId(1)).len(),
            g.node_count()
        );
    }

    #[test]
    fn direct_edges_mirror_succ_and_pred() {
        let mut e = DirectEdges::new(5);
        assert_eq!(e.edge_count(), 0);
        e.push(0, 3);
        e.push(0, 4);
        e.push(2, 3);
        assert_eq!(e.succs(0), &[3, 4]);
        assert_eq!(e.succs(1), &[] as &[NodeId]);
        assert_eq!(e.preds(3), &[0, 2]);
        assert_eq!(e.preds(0), &[] as &[NodeId]);
        assert_eq!(e.edge_count(), 3);
    }

    #[test]
    fn reduction_ratio_reflects_merging() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let loc = b.loc("o", "C.f");
        b.thread_init(main);
        for _ in 0..99 {
            b.read(main, loc);
        }
        let trace = b.finish();
        let index = trace.index();
        let g = HbGraph::build(&trace, &index, true);
        assert_eq!(g.node_count(), 2); // init + one block
        assert!(g.reduction_ratio() < 0.05);
    }
}
