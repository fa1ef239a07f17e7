//! The differential oracle stack.
//!
//! Every feasible trace produced by the fuzzer passes through four layers
//! (plus the separately-invoked streaming differential, [`check_stream`]):
//!
//! 1. **Closure against the spec** — the engine ([`HappensBefore::compute`])
//!    against the rules as written ([`Spec`]), on every trace the Figure 5
//!    checker accepts. The engine's op-level `ordered(i, j)` must equal the
//!    spec's on every op pair, and its counters must partition its
//!    relation.
//! 2. **Detector differential** — `vc::detect_multithreaded` (DJIT⁺) vs
//!    `fasttrack::detect`: two independent implementations of the
//!    multi-threaded restriction must flag the same racy locations.
//! 3. **Internal invariants** — the relation is irreflexive, never orders an
//!    op before a trace-earlier op, and classification partitions the race
//!    set (category totals equal the race count).
//!
//! The engine and the spec take *separate* configurations so the mutation
//! self-test can flip one rule on the engine's side and prove the harness
//! notices.

use std::collections::BTreeSet;
use std::fmt;

use droidracer_core::spec::Spec;
use droidracer_core::{classify, detect, fasttrack, vc, HappensBefore, HbConfig};
use droidracer_core::{CategoryCounts, Race, RaceCategory, StreamOptions, StreamingAnalysis};
use droidracer_trace::{validate, Trace};

/// The oracle layer a divergence was caught by. Discriminants double as the
/// shrinker's "same bug" predicate: a candidate reproduces a failure when it
/// triggers a divergence of the same kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DivergenceKind {
    /// The trace failed the Figure 5 feasibility checker.
    Infeasible,
    /// The engine orders some op pair unlike the spec.
    ClosureMatrix,
    /// The engine's counters do not partition its relation.
    ClosureStats,
    /// DJIT⁺ and FastTrack flag different racy-location sets.
    VcVsFastTrack,
    /// `op ≺ op` holds for some operation.
    Irreflexivity,
    /// The relation orders an operation before a trace-earlier one.
    TraceOrder,
    /// Classification does not partition the race set.
    Partition,
    /// Replaying a recorded decision vector produced a different trace.
    Replay,
    /// The streaming engine disagrees with the batch engine on the race
    /// set, the classification, or (unsummarized) a relation matrix.
    StreamedVsBatch,
}

impl fmt::Display for DivergenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DivergenceKind::Infeasible => "infeasible-trace",
            DivergenceKind::ClosureMatrix => "closure-matrix",
            DivergenceKind::ClosureStats => "closure-stats",
            DivergenceKind::VcVsFastTrack => "vc-vs-fasttrack",
            DivergenceKind::Irreflexivity => "irreflexivity",
            DivergenceKind::TraceOrder => "trace-order",
            DivergenceKind::Partition => "partition",
            DivergenceKind::Replay => "replay",
            DivergenceKind::StreamedVsBatch => "streamed-vs-batch",
        };
        f.write_str(s)
    }
}

/// One oracle failure: the layer that fired plus a human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Which oracle layer fired.
    pub kind: DivergenceKind,
    /// What exactly disagreed.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind, self.detail)
    }
}

/// The oracle verdict for one trace: any divergences plus the artifacts the
/// witnessing and coverage stages reuse (the stripped trace, the closed
/// relation, classified races).
#[derive(Debug)]
pub struct OracleReport {
    /// Divergences found, empty on a clean pass.
    pub divergences: Vec<Divergence>,
    /// The cancellation-stripped trace race indices refer to.
    pub stripped: Trace,
    /// The engine's relation over `stripped`.
    pub hb: HappensBefore,
    /// Races with their §4.3 categories.
    pub races: Vec<(Race, RaceCategory)>,
    /// Category totals.
    pub counts: CategoryCounts,
}

impl OracleReport {
    /// Whether every oracle layer passed.
    pub fn clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Runs the full oracle stack over `trace`.
///
/// `engine` configures [`HappensBefore::compute`], and `spec`'s rules the
/// [`Spec`]; production callers pass the same configuration twice, the
/// mutation self-test flips one rule on the engine's side.
pub fn check_trace(trace: &Trace, engine: HbConfig, spec: HbConfig) -> OracleReport {
    let mut divergences = Vec::new();

    let feasible = validate(trace);
    if let Err(e) = &feasible {
        divergences.push(Divergence {
            kind: DivergenceKind::Infeasible,
            detail: format!("{e}"),
        });
    }

    let stripped = trace.without_cancelled();
    let hb = HappensBefore::compute(&stripped, engine);
    if feasible.is_ok() {
        let spec = Spec::compute(&stripped, spec.rules);
        divergences.extend(closure_against_spec(&hb, &spec));
    }
    divergences.extend(detector_differential(&stripped));
    divergences.extend(relation_invariants(&stripped, &hb));

    let index = stripped.index();
    let races = detect(&stripped, &hb);
    let mut counts = CategoryCounts::default();
    let races: Vec<(Race, RaceCategory)> = races
        .into_iter()
        .map(|r| {
            let cat = classify(&stripped, &index, &hb, &r);
            counts.add(cat, 1);
            (r, cat)
        })
        .collect();
    if counts.total() != races.len() {
        divergences.push(Divergence {
            kind: DivergenceKind::Partition,
            detail: format!(
                "category totals {} != race count {}",
                counts.total(),
                races.len()
            ),
        });
    }

    OracleReport {
        divergences,
        stripped,
        hb,
        races,
        counts,
    }
}

/// Layer 5: the streaming differential. Streams the *original* trace
/// (cancels included, so the replay machinery is exercised) through
/// [`StreamingAnalysis`] in `chunk`-sized pieces under the same engine
/// configuration as `expected`, and demands the batch result: identical
/// classified race set, and — when not summarizing — bit-identical
/// relation matrices.
pub fn check_stream(
    trace: &Trace,
    config: HbConfig,
    chunk: usize,
    summarize: bool,
    expected: &OracleReport,
) -> Vec<Divergence> {
    let mut out = Vec::new();
    let mut session = StreamingAnalysis::new(
        config,
        StreamOptions {
            summarize,
            window: 16,
            budget: None,
        },
    );
    for piece in trace.ops().chunks(chunk.max(1)) {
        if let Err(e) = session.push_chunk(piece) {
            return vec![Divergence {
                kind: DivergenceKind::StreamedVsBatch,
                detail: format!("unbudgeted session exhausted mid-stream: {e}"),
            }];
        }
    }
    let outcome = match session.finish(trace.names()) {
        Ok(o) => o,
        Err(e) => {
            return vec![Divergence {
                kind: DivergenceKind::StreamedVsBatch,
                detail: format!("unbudgeted session exhausted at finish: {e}"),
            }]
        }
    };
    if outcome.stats.degenerate {
        out.push(Divergence {
            kind: DivergenceKind::StreamedVsBatch,
            detail: "degenerate fallback on a feasible trace".to_owned(),
        });
    }
    let streamed: Vec<(Race, RaceCategory)> = outcome
        .races
        .iter()
        .map(|cr| (cr.race, cr.category))
        .collect();
    if streamed != expected.races {
        out.push(Divergence {
            kind: DivergenceKind::StreamedVsBatch,
            detail: format!(
                "race sets differ at chunk={chunk} summarize={summarize}: \
                 streamed {} race(s), batch {}",
                streamed.len(),
                expected.races.len()
            ),
        });
    }
    if !summarize {
        let (bst, bmt) = expected.hb.relation_matrices();
        match outcome.matrices.as_ref() {
            Some((st, mt)) => {
                if st != bst {
                    out.push(Divergence {
                        kind: DivergenceKind::StreamedVsBatch,
                        detail: format!(
                            "st matrix differs at chunk={chunk}: streamed {} set bits, batch {}",
                            st.count_ones(),
                            bst.count_ones()
                        ),
                    });
                }
                if mt.as_ref() != bmt {
                    out.push(Divergence {
                        kind: DivergenceKind::StreamedVsBatch,
                        detail: format!(
                            "mt matrix differs at chunk={chunk}: streamed {:?} set bits, batch {:?}",
                            mt.as_ref().map(|m| m.count_ones()),
                            bmt.map(|m| m.count_ones())
                        ),
                    });
                }
            }
            // The degenerate fallback under no budget still returns
            // matrices; reaching here means the contract broke.
            None => out.push(Divergence {
                kind: DivergenceKind::StreamedVsBatch,
                detail: "unsummarized session returned no matrices".to_owned(),
            }),
        }
    }
    out
}

/// Layer 1: the engine against the rules as written, op pair by op pair,
/// and the engine's counters against its own relation.
fn closure_against_spec(hb: &HappensBefore, spec: &Spec) -> Vec<Divergence> {
    let mut out = Vec::new();
    let (count, first) = spec.disagreements(|i, j| hb.ordered(i, j));
    if let Some((i, j)) = first {
        let (in_engine, in_spec) = (hb.ordered(i, j), spec.ordered(i, j));
        out.push(Divergence {
            kind: DivergenceKind::ClosureMatrix,
            detail: format!(
                "{count} op pair(s) ordered unlike the spec; first: op {i} ≺ op {j} is \
                 {in_engine} in the engine, {in_spec} in the spec"
            ),
        });
    }
    let s = hb.stats();
    if s.base_edges + s.derived_edges() != hb.ordered_pairs() {
        out.push(Divergence {
            kind: DivergenceKind::ClosureStats,
            detail: format!(
                "base {} + derived {} != ordered pairs {}",
                s.base_edges,
                s.derived_edges(),
                hb.ordered_pairs()
            ),
        });
    }
    out
}

/// Layer 2: DJIT⁺ vs FastTrack on the multi-threaded restriction. The two
/// detectors report representative races differently (DJIT⁺ one per
/// location, FastTrack per epoch check), so they are compared on the set of
/// racy *locations*, which both guarantee to flag.
fn detector_differential(stripped: &Trace) -> Vec<Divergence> {
    let djit: BTreeSet<_> = vc::detect_multithreaded(stripped)
        .into_iter()
        .map(|r| r.loc)
        .collect();
    let ft: BTreeSet<_> = fasttrack::detect(stripped)
        .into_iter()
        .map(|r| r.loc)
        .collect();
    if djit != ft {
        let names = stripped.names();
        let only_djit: Vec<String> = djit.difference(&ft).map(|l| names.loc_name(*l)).collect();
        let only_ft: Vec<String> = ft.difference(&djit).map(|l| names.loc_name(*l)).collect();
        return vec![Divergence {
            kind: DivergenceKind::VcVsFastTrack,
            detail: format!(
                "racy locations disagree: only DJIT+ {only_djit:?}, only FastTrack {only_ft:?}"
            ),
        }];
    }
    Vec::new()
}

/// Layer 3: irreflexivity and trace-order consistency. `ordered` is
/// deliberately reflexive at the *op* level (as in the paper), so strict
/// irreflexivity is checked on the closed matrices: a set diagonal bit
/// would mean the closure derived a cycle. Every happens-before edge points
/// forward in the trace, so `j ≺ i` with `j` after `i` indicates a closure
/// bug too.
fn relation_invariants(stripped: &Trace, hb: &HappensBefore) -> Vec<Divergence> {
    let mut out = Vec::new();
    let (primary, mt) = hb.relation_matrices();
    for (name, matrix) in [("st/plain", Some(primary)), ("mt", mt)] {
        let Some(matrix) = matrix else { continue };
        if let Some(a) = (0..matrix.len()).find(|&a| matrix.get(a, a)) {
            out.push(Divergence {
                kind: DivergenceKind::Irreflexivity,
                detail: format!("{name} matrix has node {a} ≺ itself"),
            });
        }
    }
    let n = stripped.len();
    'outer: for i in 0..n {
        for j in i + 1..n {
            if hb.ordered(j, i) {
                out.push(Divergence {
                    kind: DivergenceKind::TraceOrder,
                    detail: format!("op {j} ≺ op {i} against trace order"),
                });
                break 'outer;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use droidracer_core::RuleSet;
    use droidracer_trace::{ThreadKind, TraceBuilder};

    fn racy_trace() -> Trace {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg = b.thread("bg", ThreadKind::App, false);
        let loc = b.loc("obj", "C.state");
        b.thread_init(main);
        b.fork(main, bg);
        b.thread_init(bg);
        b.write(bg, loc);
        b.read(main, loc);
        b.finish_validated().expect("feasible")
    }

    #[test]
    fn clean_trace_passes_all_layers() {
        let report = check_trace(&racy_trace(), HbConfig::new(), HbConfig::new());
        assert!(report.clean(), "{:?}", report.divergences);
        assert_eq!(report.races.len(), 1);
        assert_eq!(report.counts.total(), 1);
    }

    #[test]
    fn rule_flip_is_caught_by_the_spec() {
        let mutated = HbConfig {
            rules: RuleSet {
                fork: false,
                ..RuleSet::full()
            },
            merge_accesses: true,
        };
        let report = check_trace(&racy_trace(), mutated, HbConfig::new());
        assert!(
            report.divergences.iter().any(|d| matches!(
                d.kind,
                DivergenceKind::ClosureMatrix | DivergenceKind::ClosureStats
            )),
            "{:?}",
            report.divergences
        );
    }

    #[test]
    fn infeasible_trace_is_flagged() {
        let mut b = TraceBuilder::new();
        let t = b.thread("main", ThreadKind::Main, true);
        let task = b.task("T");
        b.thread_init(t);
        b.begin(t, task);
        let trace = b.finish();
        let report = check_trace(&trace, HbConfig::new(), HbConfig::new());
        assert!(report
            .divergences
            .iter()
            .any(|d| d.kind == DivergenceKind::Infeasible));
    }
}
