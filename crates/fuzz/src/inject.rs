//! Fault injection: seeded trace corruption, injected panics, and budget
//! starvation.
//!
//! The robustness contract under test: *no corrupted input or injected
//! fault ever panics the process or poisons sibling results*. Corrupted
//! trace text must parse to either a diagnosed repair
//! ([`droidracer_trace::from_text_lenient`]) or a clean
//! [`droidracer_trace::ParseTraceError`]; a fault injected into one input
//! of an isolated batch ([`analyze_isolated`]) must quarantine exactly
//! that input, leaving every sibling's report bit-identical to a
//! fault-free run.
//!
//! Everything here is deterministic: corruption is a pure function of
//! `(text, seed)`, and batches fan out through
//! [`droidracer_core::par_try_map`], whose merge is index-ordered.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use droidracer_core::{
    par_try_map, AnalysisBuilder, AnalysisError, Budget, ItemError, QuarantineCause, Quarantined,
};
use droidracer_trace::{from_text, from_text_lenient, to_text};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// The byte-level corruption a seed maps to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorruptionKind {
    /// One bit of one byte flipped.
    BitFlip,
    /// The tail of the file cut off mid-record.
    Truncate,
    /// One record (line) duplicated in place.
    DuplicateRecord,
    /// One whitespace-separated field of one record replaced with junk.
    ScrambleField,
}

impl CorruptionKind {
    /// All kinds, in the order seeds select them.
    pub fn all() -> [CorruptionKind; 4] {
        [
            CorruptionKind::BitFlip,
            CorruptionKind::Truncate,
            CorruptionKind::DuplicateRecord,
            CorruptionKind::ScrambleField,
        ]
    }
}

impl fmt::Display for CorruptionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CorruptionKind::BitFlip => "bit-flip",
            CorruptionKind::Truncate => "truncate",
            CorruptionKind::DuplicateRecord => "duplicate-record",
            CorruptionKind::ScrambleField => "scramble-field",
        })
    }
}

/// Applies one seeded corruption to `text`, returning the corrupted bytes
/// (lossily re-decoded, as an ingestion boundary would) and the kind
/// applied. Pure function of `(text, seed)`.
pub fn corrupt(text: &str, seed: u64) -> (String, CorruptionKind) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let kind = CorruptionKind::all()[(rng.next_u64() % 4) as usize];
    let mut bytes = text.as_bytes().to_vec();
    match kind {
        CorruptionKind::BitFlip => {
            if !bytes.is_empty() {
                let at = (rng.next_u64() as usize) % bytes.len();
                let bit = (rng.next_u64() % 8) as u8;
                bytes[at] ^= 1 << bit;
            }
        }
        CorruptionKind::Truncate => {
            if !bytes.is_empty() {
                let at = (rng.next_u64() as usize) % bytes.len();
                bytes.truncate(at);
            }
        }
        CorruptionKind::DuplicateRecord => {
            let lines: Vec<&[u8]> = split_records(&bytes);
            if !lines.is_empty() {
                let at = (rng.next_u64() as usize) % lines.len();
                let mut out = Vec::with_capacity(bytes.len() + lines[at].len());
                for (i, l) in lines.iter().enumerate() {
                    out.extend_from_slice(l);
                    if i == at {
                        out.extend_from_slice(l);
                    }
                }
                bytes = out;
            }
        }
        CorruptionKind::ScrambleField => {
            let line_count = bytes.split(|&b| b == b'\n').count();
            let target = (rng.next_u64() as usize) % line_count.max(1);
            let junk = [b"xyzzy".as_slice(), b"-1", b"t9999999999", b"\"", b"9 9"]
                [(rng.next_u64() % 5) as usize];
            let mut out = Vec::with_capacity(bytes.len());
            for (i, line) in bytes.split(|&b| b == b'\n').enumerate() {
                if i > 0 {
                    out.push(b'\n');
                }
                if i == target {
                    let fields: Vec<&[u8]> = line.split(|&b| b == b' ').collect();
                    if fields.is_empty() {
                        out.extend_from_slice(junk);
                    } else {
                        let f = (rng.next_u64() as usize) % fields.len();
                        for (j, field) in fields.iter().enumerate() {
                            if j > 0 {
                                out.push(b' ');
                            }
                            out.extend_from_slice(if j == f { junk } else { field });
                        }
                    }
                } else {
                    out.extend_from_slice(line);
                }
            }
            bytes = out;
        }
    }
    (String::from_utf8_lossy(&bytes).into_owned(), kind)
}

/// Splits `bytes` into newline-terminated records (terminators kept).
fn split_records(bytes: &[u8]) -> Vec<&[u8]> {
    let mut out = Vec::new();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            out.push(&bytes[start..=i]);
            start = i + 1;
        }
    }
    if start < bytes.len() {
        out.push(&bytes[start..]);
    }
    out
}

/// Outcome tally of a corruption storm ([`storm`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StormReport {
    /// Corruptions applied.
    pub total: u64,
    /// Inputs that parsed with zero diagnostics (the corruption landed in
    /// an already-ignored spot, or cancelled itself out).
    pub clean: u64,
    /// Inputs salvaged by the lenient parser with ≥ 1 repair diagnostic.
    pub repaired: u64,
    /// Inputs rejected with a clean typed `ParseTraceError` (no consistent
    /// prefix — e.g. a corrupted header).
    pub parse_errors: u64,
    /// Parses that panicked. The contract is that this is always zero.
    pub panics: u64,
}

/// Runs `count` seeded corruptions of `text` through the lenient parser,
/// each inside a panic boundary, and tallies the outcomes. For every
/// salvaged input the repair must be a *fixed point*: re-parsing the
/// repaired trace's serialization yields zero further diagnostics. A
/// non-converging repair counts as a panic (contract violation).
pub fn storm(text: &str, base_seed: u64, count: u64) -> StormReport {
    let mut report = StormReport::default();
    for i in 0..count {
        report.total += 1;
        let (bad, _kind) = corrupt(text, base_seed.wrapping_add(i));
        let outcome = catch_unwind(AssertUnwindSafe(|| match from_text_lenient(&bad) {
            Ok((trace, diags)) => {
                match from_text_lenient(&to_text(&trace)) {
                    Ok((again, rediags)) if rediags.is_empty() && again.ops() == trace.ops() => {}
                    _ => return None, // repair must be a fixed point
                }
                Some(if diags.is_empty() {
                    (1u8, 0u8, 0u8)
                } else {
                    (0, 1, 0)
                })
            }
            Err(_) => Some((0, 0, 1)),
        }));
        match outcome {
            Ok(Some((c, r, p))) => {
                report.clean += u64::from(c);
                report.repaired += u64::from(r);
                report.parse_errors += u64::from(p);
            }
            _ => report.panics += 1,
        }
    }
    report
}

/// A fault to inject into exactly one input of an isolated batch.
#[derive(Debug, Clone)]
pub enum InjectedFault {
    /// Panic from the session's fault hook when the named phase starts
    /// (`"prepare"`, `"graph"`, `"closure"`, `"detect"`, …).
    PanicAtPhase(&'static str),
    /// Starve the analysis: a zero-op budget, exhausted on first poll.
    Starvation,
}

/// Analyzes a batch of named trace texts with per-item fault isolation,
/// optionally injecting `fault` into the input at index `fault_at.0`.
///
/// Returns, per input in order, either a deterministic result fingerprint
/// (engine counters + classified races — bit-identical across runs and
/// thread counts) or the [`Quarantined`] verdict. Parse failures quarantine
/// with [`QuarantineCause::Error`]; repairs are applied silently (the
/// fingerprint covers the repaired trace).
pub fn analyze_isolated(
    inputs: &[(String, String)],
    threads: usize,
    fault_at: Option<(usize, InjectedFault)>,
) -> Vec<Result<String, Quarantined>> {
    let results = par_try_map(inputs, threads, |(name, text)| {
        let (trace, _diags) =
            from_text_lenient(text).map_err(|e| AnalysisErrorLike::Parse(e.to_string()))?;
        let mut builder = AnalysisBuilder::new();
        if let Some((at, fault)) = &fault_at {
            if inputs[*at].0 == *name {
                match fault {
                    InjectedFault::PanicAtPhase(phase) => {
                        let phase = *phase;
                        builder = builder.fault_hook(Arc::new(move |p: &str| {
                            assert!(p != phase, "injected fault at phase `{p}`");
                        }));
                    }
                    InjectedFault::Starvation => {
                        builder = builder.budget(Budget::unlimited().with_max_ops(0));
                    }
                }
            }
        }
        let analysis = builder
            .analyze(&trace)
            .map_err(AnalysisErrorLike::Analysis)?;
        let races: Vec<String> = analysis
            .representatives()
            .iter()
            .map(|cr| format!("{}@{:?}", cr.category.label(), cr.race.loc))
            .collect();
        Ok(format!("{:?}|{}", analysis.hb().stats(), races.join(",")))
    });
    results
        .into_iter()
        .zip(inputs)
        .map(|(result, (name, _))| {
            result.map_err(|err| {
                let (cause, payload) = match err {
                    ItemError::Panic(msg) => (QuarantineCause::Panic, msg),
                    ItemError::Err(AnalysisErrorLike::Analysis(
                        AnalysisError::BudgetExhausted(e),
                    )) => (QuarantineCause::BudgetExhausted(e.reason), e.to_string()),
                    ItemError::Err(AnalysisErrorLike::Analysis(e)) => {
                        (QuarantineCause::Error, e.to_string())
                    }
                    ItemError::Err(AnalysisErrorLike::Parse(msg)) => (QuarantineCause::Error, msg),
                };
                Quarantined {
                    input: name.clone(),
                    cause,
                    payload,
                }
            })
        })
        .collect()
}

/// The per-item error of [`analyze_isolated`]: a parse rejection or a
/// session failure.
#[derive(Debug)]
enum AnalysisErrorLike {
    Parse(String),
    Analysis(AnalysisError),
}

/// Sanity check used by tests and the CI smoke: strict parsing of a clean
/// text round-trips (no repairs, identical ops).
pub fn roundtrips_clean(text: &str) -> bool {
    match (from_text(text), from_text_lenient(text)) {
        (Ok(strict), Ok((lenient, diags))) => diags.is_empty() && strict.ops() == lenient.ops(),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use droidracer_trace::{to_text, ThreadKind, Trace, TraceBuilder};

    fn sample_trace() -> Trace {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg = b.thread("bg", ThreadKind::App, true);
        let l = b.lock("m");
        let loc = b.loc("o", "C.f");
        b.thread_init(main);
        b.attach_q(main);
        b.loop_on_q(main);
        b.thread_init(bg);
        for k in 0..6 {
            let t = b.task(format!("T{k}"));
            b.post(bg, t, main);
            b.begin(main, t);
            b.write(main, loc);
            b.end(main, t);
            b.acquire(bg, l);
            b.write(bg, loc);
            b.release(bg, l);
        }
        b.finish()
    }

    fn inputs() -> Vec<(String, String)> {
        (0..4)
            .map(|i| (format!("in{i}"), to_text(&sample_trace())))
            .collect()
    }

    #[test]
    fn corruption_is_deterministic() {
        let text = to_text(&sample_trace());
        for seed in 0..32 {
            assert_eq!(corrupt(&text, seed), corrupt(&text, seed));
        }
    }

    #[test]
    fn all_corruption_kinds_are_reachable() {
        let text = to_text(&sample_trace());
        let mut seen = std::collections::HashSet::new();
        for seed in 0..64 {
            seen.insert(corrupt(&text, seed).1);
        }
        assert_eq!(seen.len(), 4, "{seen:?}");
    }

    #[test]
    fn corruption_storm_never_panics() {
        let report = storm(&to_text(&sample_trace()), 0xFA_17, 300);
        assert_eq!(report.panics, 0, "{report:?}");
        assert_eq!(
            report.clean + report.repaired + report.parse_errors,
            report.total,
            "{report:?}"
        );
        // A storm this size must exercise both salvage and rejection.
        assert!(report.repaired > 0, "{report:?}");
        assert!(report.parse_errors > 0, "{report:?}");
    }

    #[test]
    fn clean_text_roundtrips_without_repairs() {
        assert!(roundtrips_clean(&to_text(&sample_trace())));
    }

    #[test]
    fn injected_panic_quarantines_only_the_target() {
        let inputs = inputs();
        for threads in [1, 4] {
            let clean = analyze_isolated(&inputs, threads, None);
            assert!(clean.iter().all(Result::is_ok));
            for phase in ["prepare", "closure", "detect"] {
                let faulty = analyze_isolated(
                    &inputs,
                    threads,
                    Some((2, InjectedFault::PanicAtPhase(phase))),
                );
                for (i, (a, b)) in clean.iter().zip(&faulty).enumerate() {
                    if i == 2 {
                        let q = b.as_ref().expect_err("target must be quarantined");
                        assert_eq!(q.cause, QuarantineCause::Panic, "phase {phase}");
                        assert!(q.payload.contains(phase), "payload: {}", q.payload);
                    } else {
                        // Sibling bit-identity: with and without the faulty
                        // sibling, byte-for-byte the same fingerprint.
                        assert_eq!(a, b, "sibling {i} poisoned at phase {phase}");
                    }
                }
            }
        }
    }

    #[test]
    fn budget_starvation_quarantines_only_the_target() {
        let inputs = inputs();
        let clean = analyze_isolated(&inputs, 4, None);
        let starved = analyze_isolated(&inputs, 4, Some((1, InjectedFault::Starvation)));
        for (i, (a, b)) in clean.iter().zip(&starved).enumerate() {
            if i == 1 {
                let q = b.as_ref().expect_err("starved input must be quarantined");
                assert!(
                    matches!(q.cause, QuarantineCause::BudgetExhausted(_)),
                    "{q}"
                );
            } else {
                assert_eq!(a, b, "sibling {i} poisoned by starvation");
            }
        }
    }

    #[test]
    fn corrupt_input_quarantines_as_error_when_unsalvageable() {
        let mut inputs = inputs();
        // Destroy the header: no consistent prefix exists.
        inputs[0].1 = format!("garbage\n{}", inputs[0].1);
        let results = analyze_isolated(&inputs, 2, None);
        let q = results[0].as_ref().expect_err("bad header must quarantine");
        assert_eq!(q.cause, QuarantineCause::Error);
        assert!(results[1..].iter().all(Result::is_ok));
    }
}
