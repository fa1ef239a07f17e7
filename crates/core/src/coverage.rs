//! Race coverage — the triage technique of Raychev, Vechev and Sridharan
//! (OOPSLA 2013) that §6 of the paper points to for taming ad-hoc
//! synchronization false positives.
//!
//! A race `a` *covers* a race `b` when assuming `a` resolves in its observed
//! order (adding the happens-before edge `a.first ≺ a.second`) makes `b`'s
//! accesses ordered. Covered races share their root cause with a covering
//! race: the classic instance is a hand-rolled flag hand-off, where the
//! "race" on the flag covers every data race the flag guards. Reporting
//! only the *root* races focuses triage on independent causes.

use droidracer_trace::Trace;

use crate::engine::HappensBefore;
use crate::report::{Analysis, ClassifiedRace};

/// The result of coverage-based triage.
#[derive(Debug, Clone)]
pub struct CoverageReport {
    /// Uncovered (root) races, in trace order.
    pub roots: Vec<ClassifiedRace>,
    /// Covered races, each with the index into `roots` of a covering root
    /// when one exists (`None` when only covered by other covered races —
    /// a coverage chain).
    pub covered: Vec<(ClassifiedRace, Option<usize>)>,
}

impl CoverageReport {
    /// Total number of triaged races.
    pub fn total(&self) -> usize {
        self.roots.len() + self.covered.len()
    }
}

fn recompute(trace: &Trace, analysis: &Analysis, assumed: &[(usize, usize)]) -> HappensBefore {
    let index = trace.index();
    HappensBefore::compute_with_assumed_edges(trace, &index, *analysis.hb().config(), assumed)
}

/// Triage the representative races of `analysis` by coverage.
///
/// Computes the pairwise covers-relation (assume race `a`'s observed order;
/// does race `b` become ordered?). A race is *covered* when some other race
/// covers it and is not itself covered back (mutual coverage ties break by
/// trace order, earlier wins). Uncovered races are the roots.
pub fn race_coverage(analysis: &Analysis) -> CoverageReport {
    let trace = analysis.trace();
    let mut reps = analysis.representatives();
    reps.sort_by_key(|cr| (cr.race.first, cr.race.second));
    let n = reps.len();
    if n == 0 {
        return CoverageReport {
            roots: Vec::new(),
            covered: Vec::new(),
        };
    }
    // covers[a][b]: assuming race a orders race b.
    let mut covers = vec![vec![false; n]; n];
    for a in 0..n {
        let edge = (reps[a].race.first, reps[a].race.second);
        let hb = recompute(trace, analysis, &[edge]);
        for b in 0..n {
            if a != b {
                covers[a][b] = !hb.concurrent(reps[b].race.first, reps[b].race.second);
            }
        }
    }
    let is_covered = |b: usize| (0..n).any(|a| a != b && covers[a][b] && (!covers[b][a] || a < b));
    let mut roots = Vec::new();
    let mut root_index = vec![None; n];
    for (b, cr) in reps.iter().enumerate() {
        if !is_covered(b) {
            root_index[b] = Some(roots.len());
            roots.push(*cr);
        }
    }
    let mut covered = Vec::new();
    for (b, cr) in reps.iter().enumerate() {
        if root_index[b].is_some() {
            continue;
        }
        let by_root = (0..n).find_map(|a| {
            (a != b && covers[a][b] && root_index[a].is_some())
                .then(|| root_index[a])
                .flatten()
        });
        covered.push((*cr, by_root));
    }
    CoverageReport { roots, covered }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::AnalysisBuilder;
    use droidracer_trace::{ThreadKind, TraceBuilder};

    /// The canonical ad-hoc synchronization shape: producer writes data then
    /// raises a flag; consumer polls the flag then reads the data. Both
    /// pairs are HB-races, but the flag race covers the data race.
    fn adhoc_flag_trace() -> Trace {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg = b.thread("bg", ThreadKind::App, false);
        let data = b.loc("o", "C.data");
        let flag = b.loc("o", "C.flag");
        b.thread_init(main); // 0
        b.fork(main, bg); // 1
        b.thread_init(bg); // 2
        b.write(bg, data); // 3
        b.write(bg, flag); // 4
        b.read(main, flag); // 5 (the busy-wait poll)
        b.read(main, data); // 6
        b.finish()
    }

    #[test]
    fn flag_race_covers_data_race() {
        let analysis = AnalysisBuilder::new().analyze(&adhoc_flag_trace()).unwrap();
        assert_eq!(analysis.representatives().len(), 2);
        let report = race_coverage(&analysis);
        assert_eq!(report.roots.len(), 1, "one root cause");
        assert_eq!(report.covered.len(), 1);
        let names = analysis.trace().names();
        let root_field = names.field_name(report.roots[0].race.loc.field);
        let covered_field = names.field_name(report.covered[0].0.race.loc.field);
        // Assuming the flag race resolves in order (write flag ≺ read flag)
        // orders the data accesses through program order; the converse does
        // not hold. The flag is the root, the data race is covered.
        assert_eq!(root_field, "C.flag");
        assert_eq!(covered_field, "C.data");
        assert_eq!(report.total(), 2);
    }

    #[test]
    fn independent_races_are_both_roots() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg = b.thread("bg", ThreadKind::App, false);
        let x = b.loc("o", "C.x");
        let y = b.loc("p", "D.y");
        b.thread_init(main);
        b.fork(main, bg);
        b.thread_init(bg);
        b.write(bg, x);
        b.read(main, x);
        b.write(main, y);
        b.read(bg, y);
        let analysis = AnalysisBuilder::new().analyze(&b.finish()).unwrap();
        assert_eq!(analysis.representatives().len(), 2);
        let report = race_coverage(&analysis);
        // x races (bg→main) and y races (main→bg): assuming one edge does
        // not order the other pair (the directions oppose).
        assert_eq!(report.roots.len(), 2);
        assert!(report.covered.is_empty());
    }

    #[test]
    fn covered_race_attributes_a_single_root_when_possible() {
        let analysis = AnalysisBuilder::new().analyze(&adhoc_flag_trace()).unwrap();
        let report = race_coverage(&analysis);
        for (_, root) in &report.covered {
            // In the two-race flag scenario the cover is a single root.
            assert_eq!(*root, Some(0));
        }
    }

    #[test]
    fn no_races_yields_empty_report() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let loc = b.loc("o", "C.f");
        b.thread_init(main);
        b.write(main, loc);
        b.read(main, loc);
        let analysis = AnalysisBuilder::new().analyze(&b.finish()).unwrap();
        let report = race_coverage(&analysis);
        assert_eq!(report.total(), 0);
    }
}
