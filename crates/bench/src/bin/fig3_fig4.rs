//! Experiment E4 — regenerates the analysis of **Figures 3 and 4**: the
//! music-player execution traces of §2 with their happens-before edges and
//! races.
//!
//! * Figure 3 (the user presses PLAY): the conflicting pairs (7,12) and
//!   (7,16) are *ordered* — via the fork edge (a), the post→begin edge (b)
//!   and the derived thread-local edge (c) — so no race is reported.
//! * Figure 4 (the user presses BACK): `onDestroy` races with both the
//!   background read (operation 12 vs 21, multi-threaded) and the
//!   `onPostExecute` read (16 vs 21, single-threaded); the write pair
//!   (7, 21) is ordered through the enable edge and is NOT a race.
//!
//! The binary builds the exact traces from the paper and prints each edge
//! and verdict, then cross-checks with a simulated run of the framework
//! model of the same app.
//!
//! Run with `cargo run --release -p droidracer-bench --bin fig3_fig4`.

use droidracer_core::{Analysis, AnalysisBuilder, RaceCategory};
use droidracer_framework::{compile, AppBuilder, Stmt, UiEvent, UiEventKind};
use droidracer_sim::{run, RandomScheduler, SimConfig};
use droidracer_trace::{validate, ThreadKind, Trace, TraceBuilder};

/// Builds the trace of Figure 3 (PLAY pressed) or Figure 4 (BACK pressed).
///
/// Operation numbering follows the paper exactly (1-based in the figures;
/// the returned indices are 0-based, so paper op *n* is index *n − 1*).
fn paper_trace(back: bool) -> Trace {
    let mut b = TraceBuilder::new();
    let t0 = b.thread("binder", ThreadKind::Binder, true); // t0
    let t1 = b.thread("main", ThreadKind::Main, true); // t1
    let t2 = b.thread("background", ThreadKind::App, false); // t2
    let launch = b.task("LAUNCH_ACTIVITY");
    let post_execute = b.task("onPostExecute");
    let on_destroy = b.task("onDestroy");
    let on_play = b.task("onPlayClick");
    let on_pause = b.task("onPause");
    let obj = b.loc("DwFileAct-obj", "DwFileAct.isActivityDestroyed");

    b.thread_init(t1); // 1
    b.attach_q(t1); // 2
    b.loop_on_q(t1); // 3
    b.enable(t1, launch); // 4
                          // The binder thread must be running to post (implicit in the paper).
    b.thread_init(t0);
    b.post(t0, launch, t1); // 5
    b.begin(t1, launch); // 6
    b.write(t1, obj); // 7
    b.fork(t1, t2); // 8
    b.enable(t1, on_destroy); // 9
    b.end(t1, launch); // 10
    b.thread_init(t2); // 11
    b.read(t2, obj); // 12
    b.post(t2, post_execute, t1); // 13
    b.thread_exit(t2); // 14
    b.begin(t1, post_execute); // 15
    b.read(t1, obj); // 16
    b.enable(t1, on_play); // 17
    b.end(t1, post_execute); // 18
    if back {
        b.post(t0, on_destroy, t1); // 19
        b.begin(t1, on_destroy); // 20
        b.write(t1, obj); // 21
        b.end(t1, on_destroy); // 22
    } else {
        b.post(t1, on_play, t1); // 19
        b.begin(t1, on_play); // 20
        b.enable(t1, on_pause); // 21
        b.end(t1, on_play); // 22
        b.post(t0, on_pause, t1); // 23
    }
    b.finish()
}

fn check(analysis: &Analysis, label: &str, i: usize, j: usize) {
    // Paper ops are 1-based; adjust for the extra threadinit(t0) we insert
    // before op 5 (index shifts by one from there on).
    let adj = |n: usize| if n >= 5 { n } else { n - 1 };
    let (a, b) = (adj(i), adj(j));
    let ordered = analysis.hb().ordered(a, b);
    let race = analysis.races().iter().find(|cr| {
        (cr.race.first == a && cr.race.second == b) || (cr.race.first == b && cr.race.second == a)
    });
    match race {
        Some(cr) => println!("  ops ({i},{j}) {label}: RACE [{}]", cr.category),
        None => println!(
            "  ops ({i},{j}) {label}: {}",
            if ordered {
                "ordered (no race)"
            } else {
                "no report"
            }
        ),
    }
}

fn main() {
    println!("=== Figure 3: the user presses PLAY ===");
    let fig3 = paper_trace(false);
    validate(&fig3).expect("Figure 3 trace is feasible");
    let analysis = AnalysisBuilder::new().analyze(&fig3).unwrap();
    println!("trace:\n{fig3}");
    println!(
        "happens-before edges of the figure: a (fork→init) {}, b (post→begin) {}, c (end LAUNCH ≺ begin onPostExecute) {}, d (enable→post onPlayClick) {}, e (enable→post onPause) {}",
        analysis.hb().ordered(8, 11),
        analysis.hb().ordered(13, 15),
        analysis.hb().ordered(10, 15),
        analysis.hb().ordered(17, 19),
        analysis.hb().ordered(21, 23),
    );
    check(&analysis, "write vs bg read", 7, 12);
    check(&analysis, "write vs onPostExecute read", 7, 16);
    println!("  total races reported: {}\n", analysis.races().len());

    println!("=== Figure 4: the user presses BACK ===");
    let fig4 = paper_trace(true);
    validate(&fig4).expect("Figure 4 trace is feasible");
    let analysis = AnalysisBuilder::new().analyze(&fig4).unwrap();
    println!("trace:\n{fig4}");
    check(&analysis, "bg read vs onDestroy write", 12, 21);
    check(&analysis, "onPostExecute read vs onDestroy write", 16, 21);
    check(&analysis, "LAUNCH write vs onDestroy write", 7, 21);
    println!("  total races reported: {}\n", analysis.races().len());

    println!("=== Cross-check: simulated music player (framework model) ===");
    let mut b = AppBuilder::new("MusicPlayer");
    let act = b.activity("DwFileAct");
    let player = b.activity("MusicPlayActivity");
    let flag = b.var("DwFileAct-obj", "isActivityDestroyed");
    let dl = b.async_task(
        "FileDwTask",
        vec![],
        vec![Stmt::Read(flag), Stmt::PublishProgress],
        vec![],
        vec![Stmt::Read(flag)],
    );
    b.on_create(act, vec![Stmt::Write(flag)]);
    b.on_resume(act, vec![Stmt::ExecuteAsyncTask(dl)]);
    b.on_destroy(act, vec![Stmt::Write(flag)]);
    let play = b.button(act, "playBtn", vec![Stmt::StartActivity(player)]);
    let app = b.finish();

    for (label, events) in [
        ("PLAY", vec![UiEvent::Widget(play, UiEventKind::Click)]),
        ("BACK", vec![UiEvent::Back]),
    ] {
        let compiled = compile(&app, &events).expect("compiles");
        let result = run(
            &compiled.program,
            &mut RandomScheduler::new(3),
            &SimConfig::default(),
        )
        .expect("runs");
        let analysis = AnalysisBuilder::new().analyze(&result.trace).unwrap();
        let mt = analysis.count(RaceCategory::Multithreaded);
        let xp = analysis.count(RaceCategory::CrossPosted);
        println!(
            "  {label}: {} ops, races on isActivityDestroyed: multithreaded={mt} cross-posted={xp}",
            result.trace.len(),
        );
    }
    println!("\n(paper: PLAY scenario race-free on the flag; BACK scenario has the two races)");
}
