//! Lifecycle modeling in action: how `enable` operations prevent false
//! positives, and how screen rotation exposes real lifecycle races.
//!
//! The example app saves its state in `onPause` and restores it in
//! `onCreate`/`onRestart`; a background sync service writes the same state.
//! The lifecycle callbacks themselves never race (the runtime model's
//! `enable` edges order them), but the service's background write races with
//! everything.
//!
//! Run with `cargo run --example lifecycle_race`.

use droidracer::core::{AnalysisBuilder, HbMode, RaceCategory};
use droidracer::framework::{compile, AppBuilder, Stmt, UiEvent};
use droidracer::sim::{run, RandomScheduler, SimConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut b = AppBuilder::new("NotesSync");
    let act = b.activity("NotesActivity");
    let state = b.var("NotesActivity-obj", "draftText");
    let synced = b.var("SyncEngine-obj", "lastSynced");

    // A background sync worker touches both fields without synchronization.
    let sync_worker = b.worker("sync-engine", vec![Stmt::Read(state), Stmt::Write(synced)]);
    let service = b.service(
        "SyncService",
        vec![],                              // onCreate
        vec![Stmt::ForkWorker(sync_worker)], // onStartCommand
        vec![],                              // onDestroy
    );
    b.on_create(act, vec![Stmt::Write(state), Stmt::StartService(service)]);
    b.on_pause(act, vec![Stmt::Write(state)]); // save draft
    b.on_restart(act, vec![Stmt::Read(state)]); // restore draft
    b.on_destroy(act, vec![Stmt::Read(synced)]);
    let app = b.finish();

    // Rotate the screen, then leave: destroy + relaunch + teardown.
    let events = [UiEvent::Rotate, UiEvent::Back];
    let compiled = compile(&app, &events)?;
    let result = run(
        &compiled.program,
        &mut RandomScheduler::new(9),
        &SimConfig::default(),
    )?;
    assert!(result.completed);
    let analysis = AnalysisBuilder::new().analyze(&result.trace).unwrap();
    println!("{}", analysis.render());

    // The lifecycle writes to `draftText` (onCreate, onPause, …) never race
    // with each other: every reported race involves the sync worker.
    for cr in analysis.races() {
        assert_eq!(
            cr.category,
            RaceCategory::Multithreaded,
            "only the background sync races"
        );
    }

    // Without the enable edges (events-as-threads baseline) the lifecycle
    // callbacks appear concurrent and false positives appear.
    let baseline = AnalysisBuilder::new()
        .mode(HbMode::EventsAsThreads)
        .analyze(analysis.trace())
        .unwrap();
    println!(
        "droidracer reports {} races; the events-as-threads baseline reports {}",
        analysis.representatives().len(),
        baseline.representatives().len()
    );
    assert!(baseline.representatives().len() >= analysis.representatives().len());
    Ok(())
}
