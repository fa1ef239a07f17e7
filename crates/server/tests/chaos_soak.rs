//! The chaos soak as a test: every fault scenario, zero violations.
//!
//! The soak counts violations in a `ChaosReport`; here they are hard
//! assertions. Two different seeds guard against a fault plan that
//! happens to miss the interesting byte offsets.

use droidracer_server::{run_soak, ChaosPlan, Scenario};

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("droidracer-chaos-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn full_soak_has_zero_violations() {
    for seed in [0xC4A05u64, 0x00D1CE] {
        let dir = scratch(&format!("full-{seed:x}"));
        let plan = ChaosPlan::full(seed, &dir);
        let report = run_soak(&plan).expect("soak infrastructure");
        assert_eq!(report.violations(), 0, "seed {seed:#x}: {report:?}");
        assert_eq!(report.scenarios, Scenario::ALL.len() as u64, "{report:?}");
        assert!(
            report.faults_injected >= Scenario::ALL.len() as u64,
            "every scenario must inject at least one fault: {report:?}"
        );
        assert!(report.jobs_completed > 0, "{report:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn soak_is_deterministic_for_a_seed() {
    let dir_a = scratch("det-a");
    let dir_b = scratch("det-b");
    // Wall-clock-dependent scenarios (stalls, supervisor timing) aside,
    // the *fault plan* and its accounting must replay exactly: same seed,
    // same scenarios, same faults, same completions, same (zero)
    // violations.
    let plan_a = ChaosPlan::full(0x5EED, &dir_a);
    let plan_b = ChaosPlan::full(0x5EED, &dir_b);
    let a = run_soak(&plan_a).expect("soak a");
    let b = run_soak(&plan_b).expect("soak b");
    assert_eq!(a.faults_injected, b.faults_injected);
    assert_eq!(a.jobs_completed, b.jobs_completed);
    assert_eq!(a.violations(), 0);
    assert_eq!(b.violations(), 0);
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

#[test]
fn disk_scenarios_alone_recover_every_acked_entry() {
    // A focused, heavier run of just the durability scenarios: more jobs,
    // so the torn tail and the corruption land in a bigger log.
    let dir = scratch("disk");
    let plan = ChaosPlan {
        seed: 0xBADD15C,
        scenarios: vec![Scenario::TornWalTail, Scenario::CorruptWalRecord],
        jobs_per_scenario: 6,
        scratch_dir: dir.clone(),
    };
    let report = run_soak(&plan).expect("soak infrastructure");
    assert_eq!(report.violations(), 0, "{report:?}");
    assert_eq!(report.faults_injected, 2, "{report:?}");
    // populate + verify both count completions for both scenarios.
    assert!(report.jobs_completed >= 24, "{report:?}");
    std::fs::remove_dir_all(&dir).ok();
}
