//! The happens-before relation as the paper states it: the reference the
//! closure engine is checked against.
//!
//! [`Spec`] is the least relation over a trace's *operations* closed under
//! the rules of Figures 6 and 7, FIFO and NOPRE with the §4.2 delay
//! refinement, and front-of-queue posts (this repository's extension). Each
//! rule is one clause below, transcribed from the rule rather than from the
//! engine. The spec shares no code with the engines: it merges no nodes,
//! keeps no trace index, no worklist, no row bounds, no coverage rows and no
//! delay table of theirs, so a fault in any of those shows as a difference.
//!
//! Every clause orders a pair `αi`, `αj` with `i < j`. `task(α)` is the task
//! open on `α`'s thread, its `begin` and its `end` included.
//!
//! | Rule | Clause |
//! |---|---|
//! | NO-Q-PO | same thread `t`, and `i` is at or before `t`'s first `loopOnQ` (any `i` if `t` has none, or under whole-thread program order) |
//! | ASYNC-PO | same thread, and `task(αi) = task(αj) ≠ none` |
//! | POST | `post(_, p, t)` and `begin(t, p)` |
//! | ENABLE | `enable(_, p)` and `post(_, p, _)` |
//! | ATTACH-Q | `attachQ(t)` and `post(t', _, t)`, with `t' ≠ t` |
//! | FORK / JOIN | `fork(_, t)` and `threadinit(t)`; `threadexit(t)` and `join(_, t)` |
//! | LOCK | `release(t, l)` and `acquire(t', l)`, with `t ≠ t'` (also `t = t'` in different tasks, under the same-thread variant) |
//! | FIFO | `end(t, p1)` and `begin(t, p2)`, where some `post(_, p1, t) ≺ post(_, p2, t)` and the §4.2 table lets the two kinds run in order |
//! | NOPRE | `end(t, p1)` and `begin(t, p2)`, where some op of `p1` ≺ some `post(_, p2, t)` |
//! | TRANS-ST | the transitive closure of `≺st` |
//! | TRANS-MT | `αi ≺ αk ≺ αj` with `thread(αi) ≠ thread(αj)` gives `αi ≺mt αj` |
//!
//! An edge between two ops of one thread goes to `≺st`, any other to
//! `≺mt`. Without restricted transitivity there is one relation and the
//! closure is the plain transitive closure.
//!
//! The fixpoint is naive: each round closes the relation by composing every
//! ordered pair with every row until nothing changes, then fires FIFO and
//! NOPRE over every (`end`, `begin`) pair; it stops when none fires. A round
//! costs `O(n³/64)` word operations for `n` ops, so the spec is meant for
//! traces of at most a few thousand ops. Only tests and the fuzzer run it.

use std::collections::HashMap;

use droidracer_trace::{Op, OpKind, PostKind, TaskId, ThreadId, Trace};

use crate::rules::RuleSet;

/// The happens-before relation of one trace, computed from the rules as
/// written. See the [module docs](self) for the clauses.
#[derive(Debug, Clone)]
pub struct Spec {
    ops: usize,
    /// `≺st`, or the whole relation when transitivity is unrestricted.
    st: Matrix,
    /// `≺mt`; `None` when transitivity is unrestricted.
    mt: Option<Matrix>,
}

impl Spec {
    /// The least relation over `trace`'s operations closed under `rules`.
    pub fn compute(trace: &Trace, rules: RuleSet) -> Spec {
        let ops = trace.ops();
        let n = ops.len();
        let task = open_tasks(ops);
        let pre_loop = at_or_before_loop(ops);
        let mut spec = Spec {
            ops: n,
            st: Matrix::new(n),
            mt: rules.restricted_transitivity.then(|| Matrix::new(n)),
        };
        for j in 0..n {
            for i in 0..j {
                if base_rule(&rules, ops, &task, &pre_loop, i, j) {
                    spec.add(ops, i, j);
                }
            }
        }

        // The (end, begin) pairs FIFO and NOPRE may order, with what their
        // guards read: the posts of both tasks to `t`, and the ops of `p1`.
        let mut posts: HashMap<(TaskId, ThreadId), Vec<(usize, PostKind)>> = HashMap::new();
        let mut task_ops: HashMap<TaskId, Vec<usize>> = HashMap::new();
        for (i, op) in ops.iter().enumerate() {
            if let OpKind::Post {
                task: p,
                target,
                kind,
                ..
            } = op.kind
            {
                posts.entry((p, target)).or_default().push((i, kind));
            }
            if let Some(p) = task[i] {
                task_ops.entry(p).or_default().push(i);
            }
        }
        let mut pairs = Vec::new();
        for (i, end) in ops.iter().enumerate() {
            let OpKind::End { task: p1 } = end.kind else {
                continue;
            };
            for (j, begin) in ops.iter().enumerate().skip(i + 1) {
                match begin.kind {
                    OpKind::Begin { task: p2 } if begin.thread == end.thread && p2 != p1 => {
                        pairs.push((i, j, p1, p2, end.thread));
                    }
                    _ => {}
                }
            }
        }
        loop {
            spec.close(ops);
            let mut fired = false;
            for &(i, j, p1, p2, t) in &pairs {
                // Both rules need a post of `p2` to `t`.
                let Some(posts2) = posts.get(&(p2, t)) else {
                    continue;
                };
                if spec.ordered(i, j) {
                    continue;
                }
                let fifo = rules.fifo
                    && posts.get(&(p1, t)).is_some_and(|posts1| {
                        posts1.iter().any(|&(x, k1)| {
                            posts2.iter().any(|&(y, k2)| {
                                spec.ordered(x, y)
                                    && (!rules.delayed_fifo || runs_in_post_order(k1, k2))
                            })
                        })
                    });
                let nopre = rules.nopre
                    && task_ops.get(&p1).is_some_and(|ks| {
                        ks.iter()
                            .any(|&k| posts2.iter().any(|&(y, _)| spec.ordered(k, y)))
                    });
                if fifo || nopre {
                    spec.add(ops, i, j);
                    fired = true;
                }
            }
            if !fired {
                return spec;
            }
        }
    }

    /// Whether `αi ≺ αj`. Reflexive, as in the paper.
    pub fn ordered(&self, i: usize, j: usize) -> bool {
        i == j || self.st.get(i, j) || self.mt.as_ref().is_some_and(|mt| mt.get(i, j))
    }

    /// The op pairs `(i, j)` on which `ordered` and the spec disagree: how
    /// many there are, and the first in row-major order.
    pub fn disagreements(
        &self,
        ordered: impl Fn(usize, usize) -> bool,
    ) -> (usize, Option<(usize, usize)>) {
        let mut count = 0;
        let mut first = None;
        for i in 0..self.ops {
            for j in 0..self.ops {
                if self.ordered(i, j) != ordered(i, j) {
                    count += 1;
                    first.get_or_insert((i, j));
                }
            }
        }
        (count, first)
    }

    /// Records the edge `αi ≺ αj` in `≺st` or `≺mt` by the ops' threads.
    fn add(&mut self, ops: &[Op], i: usize, j: usize) {
        match &mut self.mt {
            Some(mt) if ops[i].thread != ops[j].thread => mt.set(i, j),
            _ => self.st.set(i, j),
        }
    }

    /// TRANS-ST and TRANS-MT (or the plain transitive closure), applied to
    /// every ordered pair until nothing changes.
    fn close(&mut self, ops: &[Op]) {
        let words = self.st.words;
        let mut on_thread: HashMap<ThreadId, Vec<u64>> = HashMap::new();
        for (i, op) in ops.iter().enumerate() {
            on_thread.entry(op.thread).or_insert_with(|| vec![0; words])[i / 64] |= 1 << (i % 64);
        }
        loop {
            let mut changed = false;
            for i in (0..self.ops).rev() {
                let same_thread = &on_thread[&ops[i].thread];
                let succs: Vec<usize> = (i + 1..self.ops).filter(|&k| self.ordered(i, k)).collect();
                for k in succs {
                    let st_ik = self.st.get(i, k);
                    let (st_i, st_k) = self.st.rows(i, k);
                    let Some(mt) = &mut self.mt else {
                        // αi ≺ αk ≺ αj, unrestricted.
                        for w in 0..words {
                            changed |= st_k[w] & !st_i[w] != 0;
                            st_i[w] |= st_k[w];
                        }
                        continue;
                    };
                    let (mt_i, mt_k) = mt.rows(i, k);
                    for w in 0..words {
                        // TRANS-ST: αi ≺st αk ≺st αj.
                        if st_ik {
                            changed |= st_k[w] & !st_i[w] != 0;
                            st_i[w] |= st_k[w];
                        }
                        // TRANS-MT: αi ≺ αk ≺ αj with thread(αi) ≠ thread(αj).
                        let via = (st_k[w] | mt_k[w]) & !same_thread[w];
                        changed |= via & !mt_i[w] != 0;
                        mt_i[w] |= via;
                    }
                }
            }
            if !changed {
                return;
            }
        }
    }
}

/// Whether one of the instantaneous rules orders `αi ≺ αj` (`i < j`).
fn base_rule(
    rules: &RuleSet,
    ops: &[Op],
    task: &[Option<TaskId>],
    pre_loop: &[bool],
    i: usize,
    j: usize,
) -> bool {
    let (a, b) = (ops[i], ops[j]);
    let same_thread = a.thread == b.thread;
    // NO-Q-PO.
    if rules.no_q_po && same_thread && (rules.whole_thread_program_order || pre_loop[i]) {
        return true;
    }
    // ASYNC-PO.
    if rules.async_po && same_thread && task[i].is_some() && task[i] == task[j] {
        return true;
    }
    match (a.kind, b.kind) {
        // POST.
        (
            OpKind::Post {
                task: p, target, ..
            },
            OpKind::Begin { task: q },
        ) => rules.post && p == q && b.thread == target,
        // ENABLE.
        (OpKind::Enable { task: p }, OpKind::Post { task: q, .. }) => rules.enable && p == q,
        // ATTACH-Q.
        (OpKind::AttachQ, OpKind::Post { target, .. }) => {
            rules.attach_q && target == a.thread && !same_thread
        }
        // FORK.
        (OpKind::Fork { child }, OpKind::ThreadInit) => rules.fork && child == b.thread,
        // JOIN.
        (OpKind::ThreadExit, OpKind::Join { child }) => rules.join && child == a.thread,
        // LOCK, and the same-thread variant of the naive combination.
        (OpKind::Release { lock: l }, OpKind::Acquire { lock: m }) if l == m => {
            if same_thread {
                rules.same_thread_lock && task[i] != task[j]
            } else {
                rules.lock
            }
        }
        _ => false,
    }
}

/// The §4.2 table: whether a task posted with kind `k1` runs before one
/// posted later with kind `k2`.
fn runs_in_post_order(k1: PostKind, k2: PostKind) -> bool {
    match (k1, k2) {
        // Anything before front-of-queue: no.
        (_, PostKind::Front) => false,
        // Delayed before plain: no.
        (PostKind::Delayed(_), PostKind::Plain) => false,
        // Delayed `d1` before delayed `d2`: only if `d1 ≤ d2`.
        (PostKind::Delayed(d1), PostKind::Delayed(d2)) => d1 <= d2,
        // Plain before plain or delayed, front before either: yes.
        _ => true,
    }
}

/// For every op, whether it is at or before its thread's first `loopOnQ`
/// (every op of a thread that has none).
fn at_or_before_loop(ops: &[Op]) -> Vec<bool> {
    let mut first_loop: HashMap<ThreadId, usize> = HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        if op.kind == OpKind::LoopOnQ {
            first_loop.entry(op.thread).or_insert(i);
        }
    }
    ops.iter()
        .enumerate()
        .map(|(i, op)| first_loop.get(&op.thread).is_none_or(|&l| i <= l))
        .collect()
}

/// `task(α)` for every op: the task open on its thread, its `begin` and
/// its `end` included.
fn open_tasks(ops: &[Op]) -> Vec<Option<TaskId>> {
    let mut open: HashMap<ThreadId, TaskId> = HashMap::new();
    ops.iter()
        .map(|op| match op.kind {
            OpKind::Begin { task } => {
                open.insert(op.thread, task);
                Some(task)
            }
            OpKind::End { task } => {
                open.remove(&op.thread);
                Some(task)
            }
            _ => open.get(&op.thread).copied(),
        })
        .collect()
}

/// A dense square bit matrix over op indices.
#[derive(Debug, Clone)]
struct Matrix {
    words: usize,
    bits: Vec<u64>,
}

impl Matrix {
    fn new(n: usize) -> Matrix {
        let words = n.div_ceil(64);
        Matrix {
            words,
            bits: vec![0; n * words],
        }
    }

    fn row(&self, i: usize) -> &[u64] {
        &self.bits[i * self.words..(i + 1) * self.words]
    }

    fn get(&self, i: usize, j: usize) -> bool {
        self.row(i)[j / 64] & (1 << (j % 64)) != 0
    }

    fn set(&mut self, i: usize, j: usize) {
        self.bits[i * self.words + j / 64] |= 1 << (j % 64);
    }

    /// Row `i`, mutable, and row `k > i`.
    fn rows(&mut self, i: usize, k: usize) -> (&mut [u64], &[u64]) {
        let (head, tail) = self.bits.split_at_mut(k * self.words);
        (
            &mut head[i * self.words..(i + 1) * self.words],
            &tail[..self.words],
        )
    }
}
