//! End-to-end benchmark of the race detector: one execution trace in, one
//! classified race report out, by each of the three ways people use it.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/src/bin/e2e/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path crates/bench/src/bin/e2e/Cargo.toml -- --list
//! ```
//!
//! Each invocation runs one workload in its own process: a closed loop of
//! one client that sends its next request only when the previous verdict
//! arrived, so at most two threads are busy (the client, and the server
//! shard or echo peer it waits on). Requests come in whole laps over the
//! pool, each lap the same multiset of requests in a new seeded order,
//! until `--seconds` of request time has passed and at least 200 requests
//! were timed, so that a p95 rests on ten samples beyond it.
//!
//! # Inputs
//!
//! The 15 paper apps of `droidracer_apps::corpus()`, each re-simulated
//! under 4 scheduler seeds mixed from (`--seed`, app, variant): 60
//! distinct traces, about 1.7 M operations and 36 MB of text. Every one
//! must report exactly its app's planted race truth, which checks the
//! output independently of the engine. Warm-up uses a fifth variant,
//! outside the timed set.
//!
//! # Workloads
//!
//! * `batch-corpus` — `LocalService::submit`, text in, `JobReport` out:
//!   the CLI and CI path. Parse, closure and detect all do real work; the
//!   row closure engine runs and the streaming engine does not.
//! * `stream-corpus` — 4 KiB text pieces through `ChunkedReader` into a
//!   summarizing `StreamingSession` in 64-op chunks, then `finish`. It
//!   runs the column engine and bypasses the row engine, the opposite of
//!   `batch-corpus`; merging the two engines needs both measured.
//! * `served-miss` — `Client::submit_trace` over loopback TCP to an
//!   in-process `Server` with its WAL cache in a scratch directory, every
//!   request a cache miss: transport, analysis and an fsynced cache insert
//!   each time. Set against `batch-corpus`, it shows the serving overhead.
//! * `served-hit` — the 15 variant-0 traces, cached after set-up, then
//!   resubmitted: transport, cache key and cache read with no analysis and
//!   no insert. It isolates the fixed cost of a request.
//!
//! A trace that goes to the server again, as a `served-miss` request on a
//! later lap or as the served probe of a traced run, carries a distinct
//! trailing comment line, which the parser skips, so it misses the cache
//! too; only `served-hit` resubmits the same text.
//!
//! # Metrics
//!
//! `--trace 0` prints the end-to-end metrics:
//!
//! * `setup_s` — generating the pool and starting the server, the median
//!   of five set-ups;
//! * `latency_p50_ms` — wall time from issue to report;
//! * `first_race_p50_ms` — wall time to the first race: its emission when
//!   streamed, the report otherwise;
//! * `cpu_p50_ms`, `cpu_p95_ms` — CPU time the process (client and server
//!   threads alike) spends on one trace;
//! * `peak_rss_mb` — peak resident memory.
//!
//! Every trace is timed once per lap, and each percentile is taken over
//! the traces' best times: the fastest of each trace's laps. Other work on
//! a shared host only ever adds time, so the fastest lap is what it moves
//! least, and it still moves with the code. Preemption that comes every
//! few milliseconds meets every long request on every lap, though, so the
//! long tail is taken from CPU time, which leaves out the time a thread
//! waited for a processor. The wall-time metrics stay at the median, where
//! a request is short enough to run between bursts and where the served
//! path's fixed waits show.
//!
//! `--trace 1` runs an untraced and a traced phase of half the time each
//! and prints the per-layer metrics. Every request of the traced phase
//! goes down all three routes and through probes of the serving layers
//! (wire codec, frame echo over loopback, cache key, cache insert and
//! lookup), one span per layer call, all under the request's span; the
//! spans are written as a Chrome trace to `target/e2e/`. The layers are
//! timed on the workload's own inputs, whichever route the workload takes.
//! The probes put gaps between served requests, so a stall that needs
//! back-to-back traffic, such as a delayed acknowledgement, shows in
//! `server.frame_echo_ms` rather than in `server.rtt_ms`.
//!
//! Every output is checked: each report against the planted truth and
//! against the front-door report of the same text, a streamed one on races
//! and counts only. A wrong output fails its request; any failed request
//! makes the run exit nonzero. The metric set printed must be exactly the
//! one `BENCHMARK.json` declares.

mod calls;
mod declared;
mod pool;
mod run;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use droidracer_obs::{chrome_trace, MetricsRegistry};

use crate::declared::Declared;
use crate::run::{Outcome, Workload};
use crate::stats::{metric_json, metric_line};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

const USAGE: &str =
    "usage: e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> | e2e --list";

fn parse_args(declared: &Declared) -> Result<Option<Args>, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = args.next() {
        if flag == "--list" {
            return Ok(None);
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload =
                    Some(w.ok_or_else(|| format!("unknown workload `{value}`; see --list"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad seconds `{value}`"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`\n{USAGE}")),
        }
    }
    let missing = |what: &str| format!("missing {what}\n{USAGE}");
    Ok(Some(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.unwrap_or(declared.run_seconds),
        traced: traced.unwrap_or(false),
    }))
}

fn main() -> ExitCode {
    let declared = match Declared::load() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("BENCHMARK.json: {e}");
            return ExitCode::FAILURE;
        }
    };
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    if declared.workload_names() != names {
        eprintln!(
            "BENCHMARK.json declares workloads {:?}, the bench runs {names:?}",
            declared.workload_names()
        );
        return ExitCode::FAILURE;
    }
    let args = match parse_args(&declared) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", declared.render());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from("target").join("e2e");
    let scratch = out_dir.join(format!("scratch-{}", std::process::id()));
    let outcome = run::run(
        args.workload,
        args.seed,
        args.seconds,
        args.traced,
        &scratch,
    );
    let cleaned = match std::fs::remove_dir_all(&scratch) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        other => other,
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = cleaned {
        eprintln!("{}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let declared_metrics = if args.traced {
        &declared.per_layer
    } else {
        &declared.end_to_end
    };
    if let Err(e) = declared::matches(declared_metrics, &outcome.metrics) {
        eprintln!("metrics out of step with BENCHMARK.json: {e}");
        return ExitCode::FAILURE;
    }
    report(&args, &outcome, &out_dir)
}

/// Prints every metric as `name value unit`, writes the result file (and
/// the Chrome trace of a traced run), and ends with the one-line JSON
/// result.
fn report(args: &Args, outcome: &Outcome, out_dir: &std::path::Path) -> ExitCode {
    let name = args.workload.name();
    let tally = &outcome.tally;
    let correct = tally.failed == 0;
    println!(
        "workload {name} seed {} trace {}: {} traces, {} bytes, digest {:016x}, {} timed requests",
        args.seed,
        u8::from(args.traced),
        outcome.pool_traces,
        outcome.pool_bytes,
        outcome.pool_digest,
        outcome.samples
    );
    for m in &outcome.metrics {
        println!("{}", metric_line(m.name, m.value, m.unit));
    }
    println!(
        "requests attempted {} failed {}",
        tally.attempted, tally.failed
    );
    for e in &tally.errors {
        println!("error: {e}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| metric_json(m.name, m.value, m.unit))
        .collect();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    );
    let file = out_dir.join(format!(
        "e2e-{name}-seed{}-trace{}.json",
        args.seed,
        u8::from(args.traced)
    ));
    let detail = format!(
        "{{\"workload\": \"{name}\", \"seed\": {}, \"trace\": {}, \"pool_digest\": \"{:016x}\", \"pool_traces\": {}, \"pool_bytes\": {}, \"samples\": {}, \"result\": {result}}}\n",
        args.seed,
        u8::from(args.traced),
        outcome.pool_digest,
        outcome.pool_traces,
        outcome.pool_bytes,
        outcome.samples
    );
    let mut written = std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&file, detail));
    if args.traced {
        let trace_file = out_dir.join(format!("e2e-trace-{name}.json"));
        written = written.and_then(|()| {
            std::fs::write(
                trace_file,
                chrome_trace(&outcome.spans, &MetricsRegistry::new()),
            )
        });
    }
    if let Err(e) = written {
        eprintln!("{}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
