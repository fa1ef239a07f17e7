//! The full DroidRacer pipeline on a two-screen app: systematic UI
//! exploration, trace generation, replay, and race detection over every
//! enumerated test — the §5 architecture end-to-end.
//!
//! Run with `cargo run --example explorer_tour`.

use droidracer::core::AnalysisBuilder;
use droidracer::explorer::{run_campaign, ExplorerConfig};
use droidracer::framework::{AppBuilder, Stmt};
use droidracer::trace::validate;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A settings screen opened from the main screen; both mutate the same
    // preferences object, and a background flush thread reads it.
    let mut b = AppBuilder::new("ExplorerTour");
    let home = b.activity("HomeActivity");
    let settings = b.activity("SettingsActivity");
    let prefs = b.var("Prefs-obj", "volume");
    let flusher = b.worker("prefs-flusher", vec![Stmt::Read(prefs)]);
    b.on_create(home, vec![Stmt::Write(prefs), Stmt::ForkWorker(flusher)]);
    let open = b.button(home, "openSettings", vec![Stmt::StartActivity(settings)]);
    let louder = b.button(settings, "volumeUp", vec![Stmt::Write(prefs)]);
    let app = b.finish();
    let _ = (open, louder);

    // Depth-first exploration with k = 2, as the UI Explorer does.
    let config = ExplorerConfig {
        max_depth: 2,
        max_sequences: 64,
        seed: 17,
        max_steps: 100_000,
    };
    let campaign = run_campaign(&app, &config)?;
    println!(
        "explored {} event sequences (k = {})",
        campaign.runs.len(),
        config.max_depth
    );

    let mut racy_tests = 0;
    for (events, result) in &campaign.runs {
        validate(&result.trace)?;
        let analysis = AnalysisBuilder::new().analyze(&result.trace).unwrap();
        if !analysis.races().is_empty() {
            racy_tests += 1;
        }
        println!(
            "  {:<40} {:>5} ops, {} race(s)",
            format!("{events:?}"),
            result.trace.len(),
            analysis.races().len()
        );
    }
    println!(
        "{racy_tests}/{} tests manifested a race",
        campaign.runs.len()
    );
    assert!(racy_tests > 0, "the flusher race appears in every test");

    // Replay the first recorded test bit-identically from the database.
    let replayed = campaign.db.replay(&app, 0).expect("entry 0 exists")?;
    assert_eq!(replayed.trace.ops(), campaign.runs[0].1.trace.ops());
    println!(
        "replay of test #0 reproduced the trace exactly ({} ops)",
        replayed.trace.len()
    );
    Ok(())
}
