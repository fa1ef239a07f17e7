//! Injected-mutation self-test: prove every oracle divergence path is
//! actually reachable by deliberately breaking one engine rule and checking
//! the harness (a) notices, (b) shrinks a counterexample to ≤ 25 trace ops
//! that still reproduces the divergence standalone.
//!
//! Each case flips a single [`RuleSet`] switch on the *engine's* side only,
//! leaving the spec (the rules as written) correct — the closure layer must
//! then flag any trace exercising the rule.

use droidracer_core::{HbConfig, RuleSet};
use droidracer_fuzz::oracle::{check_trace, DivergenceKind};
use droidracer_fuzz::{run_fuzz_with_engines, FuzzConfig};

fn mutated(rules: RuleSet) -> HbConfig {
    HbConfig {
        rules,
        merge_accesses: true,
    }
}

/// Rule mutations the harness must catch, labelled for failure messages.
fn mutations() -> Vec<(&'static str, HbConfig)> {
    let full = RuleSet::full;
    vec![
        (
            "fifo-off",
            mutated(RuleSet {
                fifo: false,
                ..full()
            }),
        ),
        (
            "nopre-off",
            mutated(RuleSet {
                nopre: false,
                ..full()
            }),
        ),
        (
            "fork-off",
            mutated(RuleSet {
                fork: false,
                ..full()
            }),
        ),
        (
            "lock-off",
            mutated(RuleSet {
                lock: false,
                ..full()
            }),
        ),
        (
            "post-off",
            mutated(RuleSet {
                post: false,
                ..full()
            }),
        ),
        (
            "delayed-fifo-off",
            mutated(RuleSet {
                delayed_fifo: false,
                ..full()
            }),
        ),
    ]
}

#[test]
fn every_rule_flip_is_reported_and_shrunk() {
    for (label, broken) in mutations() {
        let config = FuzzConfig {
            seed: 0xD201D,
            iters: 400,
            witness_budget: 0,
            witness_races_per_iter: 0,
            max_failures: 1,
            ..FuzzConfig::default()
        };
        let report = run_fuzz_with_engines(&config, broken, HbConfig::new());
        assert!(
            !report.failures.is_empty(),
            "{label}: the harness must notice the broken rule\n{}",
            report.render()
        );
        let failure = &report.failures[0];
        assert!(
            failure.divergences.iter().any(|d| matches!(
                d.kind,
                DivergenceKind::ClosureMatrix | DivergenceKind::ClosureStats
            )),
            "{label}: expected a closure divergence, got {:?}",
            failure.divergences
        );

        // The counterexample must be shrunk and small.
        let shrunk = failure
            .shrunk
            .as_ref()
            .unwrap_or_else(|| panic!("{label}: failure must carry a shrunk trace"));
        assert!(
            shrunk.len() <= 25,
            "{label}: shrunk counterexample has {} ops (> 25)",
            shrunk.len()
        );
        assert!(
            shrunk.len() <= failure.trace.len(),
            "{label}: shrinking must not grow the trace"
        );

        // And it must reproduce the divergence standalone, straight from
        // the trace — the form it would be committed in.
        let recheck = check_trace(shrunk, broken, HbConfig::new());
        assert!(
            recheck.divergences.iter().any(|d| matches!(
                d.kind,
                DivergenceKind::ClosureMatrix | DivergenceKind::ClosureStats
            )),
            "{label}: shrunk trace no longer reproduces: {:?}",
            recheck.divergences
        );
    }
}

/// Sanity inversion: with identical configurations on both sides the same
/// session is clean — the self-test's failures come from the mutation, not
/// from the harness.
#[test]
fn unmutated_control_session_is_clean() {
    let config = FuzzConfig {
        seed: 0xD201D,
        iters: 100,
        witness_budget: 8,
        witness_races_per_iter: 1,
        ..FuzzConfig::default()
    };
    let report = run_fuzz_with_engines(&config, HbConfig::new(), HbConfig::new());
    assert_eq!(report.oracle_divergences(), 0, "{}", report.render());
}
