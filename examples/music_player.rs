//! The paper's §2 motivating example end-to-end: the music player whose
//! `FileDwTask` checks `isActivityDestroyed` while `onDestroy` may rewrite
//! it.
//!
//! Two scenarios are driven, matching Figures 3 and 4:
//! * PLAY — the user clicks the play button; the flag accesses are all
//!   ordered and no race is reported;
//! * BACK — the user presses BACK; `onDestroy` races with the background
//!   read (multi-threaded) and with the `onPostExecute` read (cross-posted).
//!
//! Run with `cargo run --example music_player`.

use droidracer::core::{AnalysisBuilder, RaceCategory};
use droidracer::framework::{compile, AppBuilder, Stmt, UiEvent, UiEventKind};
use droidracer::sim::{run, RandomScheduler, SimConfig};
use droidracer::trace::validate;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The code of Figure 1, in the framework's statement language.
    let mut b = AppBuilder::new("MusicPlayer");
    let dw_file_act = b.activity("DwFileAct");
    let play_activity = b.activity("MusicPlayActivity");
    let flag = b.var("DwFileAct-obj", "isActivityDestroyed");

    // FileDwTask: doInBackground checks the flag per chunk and publishes
    // progress; onPostExecute checks it again before enabling PLAY.
    let file_dw_task = b.async_task(
        "FileDwTask",
        vec![], // onPreExecute: dialog.show()
        vec![
            Stmt::Read(flag),      // assertTrue(!isActivityDestroyed)
            Stmt::PublishProgress, // publishProgress(progress)
            Stmt::Read(flag),
            Stmt::PublishProgress,
        ],
        vec![],                 // onProgressUpdate: dialog.setProgress
        vec![Stmt::Read(flag)], // onPostExecute: assert + enable PLAY
    );
    b.on_create(dw_file_act, vec![Stmt::Write(flag)]); // field initializer
    b.on_resume(dw_file_act, vec![Stmt::ExecuteAsyncTask(file_dw_task)]);
    b.on_destroy(dw_file_act, vec![Stmt::Write(flag)]); // isActivityDestroyed = true
    let play_btn = b.button(
        dw_file_act,
        "playBtn",
        vec![Stmt::StartActivity(play_activity)], // onPlayClick
    );
    let app = b.finish();

    for (label, events) in [
        (
            "PLAY (Figure 3)",
            vec![UiEvent::Widget(play_btn, UiEventKind::Click)],
        ),
        ("BACK (Figure 4)", vec![UiEvent::Back]),
    ] {
        println!("=== scenario: {label} ===");
        let compiled = compile(&app, &events)?;
        // Analyze several schedules: the representative run plus a few
        // alternates, as the explorer would.
        let mut total = 0;
        let mut mt = 0;
        let mut cross = 0;
        for seed in 0..8 {
            let result = run(
                &compiled.program,
                &mut RandomScheduler::new(seed),
                &SimConfig::default(),
            )?;
            validate(&result.trace)?;
            let analysis = AnalysisBuilder::new().analyze(&result.trace).unwrap();
            total += analysis.races().len();
            mt += analysis.count(RaceCategory::Multithreaded);
            cross += analysis.count(RaceCategory::CrossPosted);
            if seed == 0 {
                print!("{}", analysis.render());
            }
        }
        println!(
            "over 8 schedules: {total} race reports ({mt} multithreaded, {cross} cross-posted)\n"
        );
    }
    println!("Expected shape: PLAY is race-free; BACK reports the two Figure 4 races.");
    Ok(())
}
