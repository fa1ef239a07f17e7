//! Integration test for experiment E4: the exact traces of Figures 3 and 4
//! and their happens-before analysis, plus the simulated §2 music player.

use droidracer::core::{AnalysisBuilder, RaceCategory};
use droidracer::framework::{compile, AppBuilder, Stmt, UiEvent, UiEventKind};
use droidracer::sim::{run, RandomScheduler, SimConfig};
use droidracer::trace::{ThreadKind, Trace, TraceBuilder};

/// Figure 3 / Figure 4 trace, with paper op `n` at index `n - 1` for
/// `n ≤ 4` and at index `n` afterwards (one extra `threadinit(t0)`).
fn paper_trace(back: bool) -> Trace {
    let mut b = TraceBuilder::new();
    let t0 = b.thread("binder", ThreadKind::Binder, true);
    let t1 = b.thread("main", ThreadKind::Main, true);
    let t2 = b.thread("background", ThreadKind::App, false);
    let launch = b.task("LAUNCH_ACTIVITY");
    let post_execute = b.task("onPostExecute");
    let on_destroy = b.task("onDestroy");
    let on_play = b.task("onPlayClick");
    let on_pause = b.task("onPause");
    let obj = b.loc("DwFileAct-obj", "DwFileAct.isActivityDestroyed");
    b.thread_init(t1); // paper op 1, index 0
    b.attach_q(t1); // 2
    b.loop_on_q(t1); // 3
    b.enable(t1, launch); // 4
    b.thread_init(t0); // (extra)
    b.post(t0, launch, t1); // 5, index 5
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
    b.finish_validated()
        .expect("the Figure 3/4 trace is feasible")
}

#[test]
fn figure_3_trace_is_feasible_and_race_free() {
    let trace = paper_trace(false);
    let analysis = AnalysisBuilder::new().analyze(&trace).unwrap();

    // The figure's edges.
    let hb = analysis.hb();
    assert!(hb.ordered(8, 11), "edge a: fork ≺ threadinit");
    assert!(hb.ordered(13, 15), "edge b: post ≺ begin");
    assert!(
        hb.ordered(10, 15),
        "edge c: end(LAUNCH) ≺ begin(onPostExecute)"
    );
    assert!(hb.ordered(17, 19), "edge d: enable(onPlayClick) ≺ post");
    assert!(hb.ordered(21, 23), "edge e: enable(onPause) ≺ post");

    // The §2.4 discussion: (7,12) and (7,16) are ordered, hence no race.
    assert!(hb.ordered(7, 12), "write ≺ background read (via edge a)");
    assert!(hb.ordered(7, 16), "write ≺ onPostExecute read (via edge c)");
    assert!(analysis.races().is_empty(), "{}", analysis.render());
}

#[test]
fn figure_4_trace_has_exactly_the_two_races() {
    let trace = paper_trace(true);
    let analysis = AnalysisBuilder::new().analyze(&trace).unwrap();
    let hb = analysis.hb();

    // The enable edge kills the (7,21) false positive.
    assert!(hb.ordered(9, 19), "enable(onDestroy) ≺ post(onDestroy)");
    assert!(
        hb.ordered(7, 21),
        "LAUNCH write ≺ onDestroy write — not a race"
    );

    // The two real races.
    assert!(hb.concurrent(12, 21), "background read vs onDestroy write");
    assert!(
        hb.concurrent(16, 21),
        "onPostExecute read vs onDestroy write"
    );
    assert_eq!(analysis.races().len(), 2, "{}", analysis.render());
    let mut categories: Vec<RaceCategory> = analysis.races().iter().map(|cr| cr.category).collect();
    categories.sort();
    assert_eq!(
        categories,
        vec![RaceCategory::Multithreaded, RaceCategory::CrossPosted]
    );
}

fn music_player_app() -> (droidracer::framework::App, droidracer::framework::WidgetId) {
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
    (b.finish(), play)
}

#[test]
fn simulated_play_scenario_is_race_free_on_the_flag() {
    let (app, play) = music_player_app();
    let compiled = compile(&app, &[UiEvent::Widget(play, UiEventKind::Click)]).expect("compiles");
    for seed in 0..12 {
        let result = run(
            &compiled.program,
            &mut RandomScheduler::new(seed),
            &SimConfig::default(),
        )
        .expect("runs");
        assert!(result.completed, "seed {seed}");
        let analysis = AnalysisBuilder::new().analyze(&result.trace).unwrap();
        assert!(
            analysis.races().is_empty(),
            "seed {seed}: {}",
            analysis.render()
        );
    }
}

#[test]
fn simulated_back_scenario_reports_the_figure_4_races() {
    let (app, _) = music_player_app();
    let compiled = compile(&app, &[UiEvent::Back]).expect("compiles");
    let mut seen_mt = false;
    let mut seen_cross = false;
    for seed in 0..24 {
        let result = run(
            &compiled.program,
            &mut RandomScheduler::new(seed),
            &SimConfig::default(),
        )
        .expect("runs");
        let analysis = AnalysisBuilder::new().analyze(&result.trace).unwrap();
        seen_mt |= analysis.count(RaceCategory::Multithreaded) > 0;
        seen_cross |= analysis.count(RaceCategory::CrossPosted) > 0;
    }
    // Depending on how far the download progressed before BACK, the flag
    // race manifests on the background thread and/or in onPostExecute.
    assert!(
        seen_mt || seen_cross,
        "the lifecycle flag race must manifest in some schedule"
    );
}
