//! Debugging support for reported races — the paper's concluding wish
//! ("we also wish to investigate how to provide better debugging support,
//! e.g., by analyzing the races that fall in the unknown category").
//!
//! [`explain`] renders, for one race, everything a developer needs to judge
//! it: the two access sites with their tasks and threads, the posting
//! chains (`chain(α)` of §4.3), the classification criteria evaluated one
//! by one, and why no happens-before path exists.
//!
//! [`to_dot`] exports the happens-before graph in Graphviz format for
//! visual inspection (nodes grouped per thread, race edges highlighted).

use std::fmt::Write as _;

use droidracer_trace::OpKind;

use crate::classify::RaceCategory;
use crate::race::Race;
use crate::report::Analysis;

/// Renders a human-readable explanation of `race`.
pub fn explain(analysis: &Analysis, race: &Race) -> String {
    let trace = analysis.trace();
    let names = trace.names();
    let index = trace.index();
    let mut out = String::new();
    let _ = writeln!(out, "race on {} ({}):", names.loc_name(race.loc), race.kind);
    for (label, op_idx) in [("first ", race.first), ("second", race.second)] {
        let op = trace.op(op_idx);
        let task = index
            .task_of(op_idx)
            .map(|t| names.task_name(t))
            .unwrap_or_else(|| "<no task>".into());
        let _ = writeln!(
            out,
            "  {label}: op {op_idx} `{op}` on thread `{}` in task `{task}`",
            names.thread_name(op.thread),
        );
        let chain = index.chain(op_idx);
        if chain.is_empty() {
            let _ = writeln!(out, "          posting chain: (none)");
        } else {
            let rendered: Vec<String> = chain
                .iter()
                .map(|&p| {
                    let post = trace.op(p);
                    let extra = match post.kind {
                        OpKind::Post { kind, event, .. } => {
                            let mut tags = Vec::new();
                            if let Some(d) = kind.delay() {
                                tags.push(format!("delay={d}"));
                            }
                            if let Some(e) = event {
                                tags.push(format!("event={}", names.event_name(e)));
                            }
                            if tags.is_empty() {
                                String::new()
                            } else {
                                format!(" [{}]", tags.join(", "))
                            }
                        }
                        _ => String::new(),
                    };
                    format!("op {p} by `{}`{extra}", names.thread_name(post.thread))
                })
                .collect();
            let _ = writeln!(out, "          posting chain: {}", rendered.join(" → "));
        }
    }
    let (i, j) = (race.first, race.second);
    let _ = writeln!(
        out,
        "  ordering: {} ⊀ {} and {} ⊀ {} (no happens-before path in either direction)",
        i, j, j, i
    );
    // Walk the classification criteria in the §4.3 order.
    let t_i = trace.op(i).thread;
    let t_j = trace.op(j).thread;
    if t_i != t_j {
        let _ = writeln!(
            out,
            "  category: multithreaded — the accesses run on `{}` and `{}`",
            names.thread_name(t_i),
            names.thread_name(t_j)
        );
        return out;
    }
    let category = crate::classify::classify(trace, &index, analysis.hb(), race);
    let hint = match category {
        RaceCategory::CoEnabled => {
            "the most recent environment-event posts of the two chains are \
             unordered — check whether the two events are really co-enabled"
        }
        RaceCategory::Delayed => {
            "the chains differ in their most recent delayed posts — inspect \
             the timing constraints of the delayed posts"
        }
        RaceCategory::CrossPosted => {
            "the chains differ in their most recent posts from another \
             thread — resolving this needs thread-local AND inter-thread \
             reasoning"
        }
        RaceCategory::Unknown => "none of the §4.3 criteria matched",
        RaceCategory::Multithreaded => unreachable!("handled above"),
    };
    let _ = writeln!(out, "  category: {category} — {hint}");
    out
}

/// Exports the happens-before graph as Graphviz DOT. Nodes are grouped per
/// thread; only *direct-ish* edges are drawn (an edge `a → b` is drawn when
/// no intermediate node `c` satisfies `a ≺ c ≺ b`), keeping the picture
/// readable. Racing node pairs are connected with dashed red edges.
pub fn to_dot(analysis: &Analysis) -> String {
    let trace = analysis.trace();
    let names = trace.names();
    let hb = analysis.hb();
    let graph = hb.graph();
    let n = graph.node_count();
    let mut out =
        String::from("digraph happens_before {\n  rankdir=TB;\n  node [shape=box, fontsize=9];\n");
    // Cluster per thread.
    let mut threads: Vec<droidracer_trace::ThreadId> = graph
        .nodes()
        .iter()
        .map(|node| node.thread)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    threads.sort();
    for t in threads {
        let _ = writeln!(
            out,
            "  subgraph \"cluster_{}\" {{\n    label=\"{}\";",
            t,
            names.thread_name(t)
        );
        for id in graph.nodes_of_thread(t) {
            let node = graph.node(*id);
            let label = if node.is_access_block {
                format!("[{}..{}] accesses", node.first, node.last)
            } else {
                format!("{}", trace.op(node.first))
            };
            let _ = writeln!(out, "    n{id} [label=\"{}\"];", label.replace('"', "'"));
        }
        let _ = writeln!(out, "  }}");
    }
    // Transitive reduction (approximate, cubic — fine at graph scale).
    for a in 0..n {
        for b in a + 1..n {
            if !hb.ordered_nodes(a, b) {
                continue;
            }
            let covered = (a + 1..b).any(|c| hb.ordered_nodes(a, c) && hb.ordered_nodes(c, b));
            if !covered {
                let _ = writeln!(out, "  n{a} -> n{b};");
            }
        }
    }
    for cr in analysis.races() {
        let (na, nb) = (graph.node_of(cr.race.first), graph.node_of(cr.race.second));
        let _ = writeln!(
            out,
            "  n{na} -> n{nb} [dir=none, style=dashed, color=red, label=\"{}\"];",
            cr.category
        );
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::AnalysisBuilder;
    use droidracer_trace::{ThreadKind, TraceBuilder};

    fn racy_analysis() -> Analysis {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg = b.thread("bg", ThreadKind::App, false);
        let loc = b.loc("obj", "C.state");
        b.thread_init(main);
        b.fork(main, bg);
        b.thread_init(bg);
        b.write(bg, loc);
        b.read(main, loc);
        AnalysisBuilder::new().analyze(&b.finish()).unwrap()
    }

    #[test]
    fn explain_names_threads_and_category() {
        let analysis = racy_analysis();
        let race = analysis.races()[0].race;
        let text = explain(&analysis, &race);
        assert!(text.contains("C.state"), "{text}");
        assert!(text.contains("multithreaded"), "{text}");
        assert!(text.contains("`bg`"), "{text}");
        assert!(text.contains("`main`"), "{text}");
    }

    #[test]
    fn explain_prints_posting_chains_for_single_threaded_races() {
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
        b.post(bg1, t1, main);
        b.post(bg2, t2, main);
        b.begin(main, t1);
        b.write(main, loc);
        b.end(main, t1);
        b.begin(main, t2);
        b.write(main, loc);
        b.end(main, t2);
        let analysis = AnalysisBuilder::new().analyze(&b.finish()).unwrap();
        let race = analysis.races()[0].race;
        let text = explain(&analysis, &race);
        assert!(text.contains("posting chain"), "{text}");
        assert!(text.contains("cross-posted"), "{text}");
        assert!(text.contains("by `bg1`"), "{text}");
    }

    #[test]
    fn dot_export_contains_clusters_edges_and_race() {
        let analysis = racy_analysis();
        let dot = to_dot(&analysis);
        assert!(dot.starts_with("digraph happens_before"));
        assert!(dot.contains("cluster_t0"), "{dot}");
        assert!(dot.contains("cluster_t1"), "{dot}");
        assert!(dot.contains("->"), "{dot}");
        assert!(dot.contains("color=red"), "{dot}");
        assert!(dot.ends_with("}\n"));
    }
}
