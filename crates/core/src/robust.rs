//! Resource budgets and fault-isolation types.
//!
//! DroidRacer is an offline detector meant to chew through large batches of
//! traces unattended; a single adversarial input must never hang, OOM, or
//! crash a whole run. This module defines the vocabulary the pipeline uses
//! to degrade gracefully:
//!
//! * [`Budget`] — per-analysis resource limits (op cap, matrix-allocation
//!   cap, wall-clock deadline), threaded through
//!   [`AnalysisBuilder`](crate::AnalysisBuilder) into the happens-before
//!   engine's worklist loop and the FastTrack / vector-clock passes. The
//!   loops poll cooperatively every few iterations, so exhaustion surfaces
//!   as a typed error — never a hang.
//! * [`BudgetExhausted`] — the typed exhaustion error, carrying the partial
//!   [`EngineStats`] accumulated up to the cutoff.
//! * [`Quarantined`] — the per-input verdict produced by the isolated
//!   fan-out paths ([`par_try_map`](crate::par_try_map) users such as
//!   `analyze_corpus_isolated` and `run_campaign_isolated`): the input is
//!   skipped with a cause and payload, and its siblings are unaffected.

use std::fmt;
use std::time::{Duration, Instant};

use crate::engine::EngineStats;

/// Resource limits for one analysis. The default is unlimited.
///
/// Budgets are *cooperative*: the engine polls them at loop granularity
/// (every row / every ~1024 trace ops), so overshoot is bounded by one poll
/// interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Cap on units of work: bit-matrix words touched for the
    /// happens-before engine, trace operations processed for the
    /// FastTrack / vector-clock detectors.
    pub max_ops: Option<u64>,
    /// Cap on total bits the engine may allocate for its relation matrices
    /// (checked up front, before allocation — the engine's dominant memory).
    pub max_matrix_bits: Option<u64>,
    /// Wall-clock deadline.
    pub deadline: Option<Instant>,
}

impl Budget {
    /// No limits at all (the default).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Returns a copy with the work-unit cap set.
    pub fn with_max_ops(mut self, cap: u64) -> Self {
        self.max_ops = Some(cap);
        self
    }

    /// Returns a copy with the matrix-allocation cap (in bits) set.
    pub fn with_max_matrix_bits(mut self, bits: u64) -> Self {
        self.max_matrix_bits = Some(bits);
        self
    }

    /// Returns a copy with the deadline set.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Returns a copy whose deadline is `timeout` from now.
    pub fn with_timeout(self, timeout: Duration) -> Self {
        self.with_deadline(Instant::now() + timeout)
    }

    /// Whether any limit is set. Unlimited budgets let the hot loops skip
    /// all polling.
    pub fn is_limited(&self) -> bool {
        self.max_ops.is_some() || self.max_matrix_bits.is_some() || self.deadline.is_some()
    }

    /// Whether the deadline (if any) has passed.
    pub fn deadline_passed(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Cooperative budget polling for both closure engines and the batch
/// engine's up-front matrix cap.
///
/// Unlimited budgets reduce every [`Poll::check`] to one branch, keeping
/// the unbudgeted hot path (and its deterministic counters) untouched. The
/// deadline is only sampled every 64 ticks — `Instant::now` is the one
/// non-free part of a poll.
#[derive(Debug)]
pub(crate) struct Poll {
    limited: bool,
    max_ops: Option<u64>,
    max_matrix_bits: Option<u64>,
    deadline: Option<Instant>,
    ticks: u32,
}

impl Poll {
    pub(crate) fn new(budget: &Budget) -> Self {
        Poll {
            limited: budget.is_limited(),
            max_ops: budget.max_ops,
            max_matrix_bits: budget.max_matrix_bits,
            deadline: budget.deadline,
            ticks: 0,
        }
    }

    /// Checks the op cap against `work_done` (the engine's `word_ops`) and,
    /// every 64th call, the deadline.
    #[inline]
    pub(crate) fn check(&mut self, work_done: u64) -> Result<(), BudgetReason> {
        if !self.limited {
            return Ok(());
        }
        if let Some(cap) = self.max_ops {
            if work_done > cap {
                return Err(BudgetReason::OpCap);
            }
        }
        if let Some(deadline) = self.deadline {
            if self.ticks & 63 == 0 && Instant::now() >= deadline {
                return Err(BudgetReason::Deadline);
            }
            self.ticks = self.ticks.wrapping_add(1);
        }
        Ok(())
    }

    /// Checks a relation-matrix footprint of `bits` against the matrix cap.
    pub(crate) fn check_bits(&self, bits: u64) -> Result<(), BudgetReason> {
        match self.max_matrix_bits {
            Some(cap) if bits > cap => Err(BudgetReason::MatrixBits),
            _ => Ok(()),
        }
    }
}

/// Which limit of a [`Budget`] was hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The work-unit cap (`max_ops`) was exceeded.
    OpCap,
    /// The relation matrices would exceed `max_matrix_bits`.
    MatrixBits,
}

impl fmt::Display for BudgetReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetReason::Deadline => write!(f, "deadline"),
            BudgetReason::OpCap => write!(f, "op cap"),
            BudgetReason::MatrixBits => write!(f, "matrix-bit cap"),
        }
    }
}

/// An analysis ran out of [`Budget`]. Carries whatever deterministic
/// counters were accumulated before the cutoff, so callers can report how
/// far the input got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExhausted {
    /// The limit that was hit.
    pub reason: BudgetReason,
    /// Engine counters at the cutoff (all zero when the cutoff happened
    /// before or outside the happens-before engine).
    pub partial: EngineStats,
    /// Work units processed when the limit tripped: bit-matrix word
    /// operations for the engine, trace ops for the detector passes.
    pub ops_processed: u64,
}

impl fmt::Display for BudgetExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "analysis budget exhausted ({}) after {} work units",
            self.reason, self.ops_processed
        )
    }
}

impl std::error::Error for BudgetExhausted {}

/// Why an input was quarantined by an isolated fan-out run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuarantineCause {
    /// The worker panicked while processing the input.
    Panic,
    /// The input blew its [`Budget`].
    BudgetExhausted(BudgetReason),
    /// The input failed with a typed error (parse, validation, compile…).
    Error,
}

impl fmt::Display for QuarantineCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuarantineCause::Panic => write!(f, "panic"),
            QuarantineCause::BudgetExhausted(r) => write!(f, "budget exhausted ({r})"),
            QuarantineCause::Error => write!(f, "error"),
        }
    }
}

/// One quarantined input from an isolated batch run: the batch kept going,
/// this input's result was withheld, and the sibling results are exactly
/// what a run without this input would have produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantined {
    /// Which input was quarantined (corpus entry name, trace path, …).
    pub input: String,
    /// Why.
    pub cause: QuarantineCause,
    /// Human-readable details: the panic message or error rendering.
    pub payload: String,
}

impl fmt::Display for Quarantined {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "quarantined `{}` [{}]: {}",
            self.input, self.cause, self.payload
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_is_not_limited() {
        assert!(!Budget::unlimited().is_limited());
        assert!(!Budget::default().deadline_passed());
    }

    #[test]
    fn builders_set_limits() {
        let b = Budget::unlimited()
            .with_max_ops(10)
            .with_max_matrix_bits(1 << 20);
        assert!(b.is_limited());
        assert_eq!(b.max_ops, Some(10));
        assert_eq!(b.max_matrix_bits, Some(1 << 20));
        let past = Budget::unlimited().with_deadline(Instant::now() - Duration::from_secs(1));
        assert!(past.is_limited() && past.deadline_passed());
    }

    #[test]
    fn displays_are_informative() {
        let e = BudgetExhausted {
            reason: BudgetReason::OpCap,
            partial: EngineStats::default(),
            ops_processed: 42,
        };
        assert!(e.to_string().contains("op cap"));
        assert!(e.to_string().contains("42"));
        let q = Quarantined {
            input: "App".into(),
            cause: QuarantineCause::Panic,
            payload: "boom".into(),
        };
        let s = q.to_string();
        assert!(
            s.contains("App") && s.contains("panic") && s.contains("boom"),
            "{s}"
        );
    }
}
