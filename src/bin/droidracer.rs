//! The `droidracer` command-line tool: offline race detection over trace
//! files in the text format of `droidracer_trace`.
//!
//! ```text
//! droidracer analyze <trace-file> [--mode MODE] [--no-merge] [--all]
//!                                  [--validate] [--lenient] [--explain]
//!                                  [--dot FILE] [--coverage] [--profile FILE]
//!                                  [--max-ops N] [--max-matrix-bits N]
//!                                  [--deadline-ms N]
//! droidracer validate <trace-file>
//! droidracer stats <trace-file>
//! droidracer corpus <app-name> [--out FILE]   # dump a corpus trace
//! droidracer corpus --analyze [--threads N] [--fail-fast] [budget flags]
//! droidracer explore <app-name> [depth] [--profile FILE]
//! droidracer fuzz [--seed N] [--iters N] [--time-budget SECS]
//!                 [--profile FILE] [--regressions DIR] [--save-failures DIR]
//! droidracer stream [<trace-file>|-] [--mode MODE] [--no-merge]
//!                   [--chunk-ops N] [--summarize] [--window N] [--quiet]
//!                   [--profile FILE] [budget flags]
//! droidracer serve [--listen ADDR|--socket PATH] [--shards N]
//!                  [--tenants a,b,c] [--max-trace-bytes N] [--cache FILE]
//!                  [--tenant-quota-ops N] [--max-job-ops N]
//!                  [--max-job-matrix-bits N] [--queue-depth N]
//!                  [--conn-timeout-ms MS]
//! droidracer submit <trace-file> [--connect ADDR|--socket PATH]
//!                   [--tenant NAME] [--mode MODE] [--no-merge] [--validate]
//!                   [--lenient] [--retries N] [--retry-timeout-ms MS]
//!                   [budget flags]
//! droidracer submit --status|--shutdown [--connect ADDR|--socket PATH]
//! ```
//!
//! `serve` runs the sharded multi-tenant analysis daemon; `submit` sends a
//! trace to it and exits with the job's own exit class, so a remote
//! submission scripts exactly like a local `analyze`.
//!
//! `stream` analyzes a trace online: operations are parsed and ingested
//! incrementally (from a file or stdin) and races print the moment they
//! become derivable, ahead of end-of-input.
//!
//! Modes: full (default), mt-only, async-only, naive-combined,
//! events-as-threads. `--profile` writes a Chrome `trace_event` JSON
//! profile of the run (load it in `chrome://tracing` or Perfetto) and
//! prints the span tree.
//!
//! Exit codes: 0 — clean; 1 — races found; 2 — inputs quarantined or a
//! budget exhausted; 3 — fatal (usage error, unreadable input, internal
//! failure).

use std::io::{ErrorKind, Write};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

use droidracer::apps;
use droidracer::core::JobSpec;
use droidracer::core::{
    AnalysisBuilder, AnalysisError, Budget, HbConfig, HbMode, RaceEvent, StreamEvent, StreamOptions,
};
use droidracer::fuzz::{corpus::replay_regressions, corpus::save_regression, FuzzConfig};
use droidracer::obs::{chrome_trace, render_span_tree, MetricsRegistry, Recorder};
use droidracer::server::{Client, RetryPolicy, Server, ServerConfig, Submission};
use droidracer::trace::{
    from_text, from_text_lenient, to_text, validate, ChunkedReader, Names, Trace, TraceStats,
};
use droidracer::Error;

/// Exit-code taxonomy (see the module docs): nothing to report.
const EXIT_CLEAN: u8 = 0;
/// Races were found in the analyzed input(s).
const EXIT_RACES: u8 = 1;
/// One or more inputs were quarantined (panic, typed error, blown budget).
const EXIT_QUARANTINE: u8 = 2;
/// The run itself failed: bad usage, unreadable input, internal error.
const EXIT_FATAL: u8 = 3;

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Set once stdout's reader has gone: later output is dropped.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes `args` to stdout, the one way this tool prints a result. A
/// closed pipe (`droidracer analyze t.trace | head -1`) ends the output
/// quietly and the command still exits with the code it computed; any
/// other write error is fatal.
fn write_stdout(args: std::fmt::Arguments) {
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = std::io::stdout().write_fmt(args) {
        stdout_failed(e);
    }
}

/// Handles a failed write or flush of stdout: see [`write_stdout`].
fn stdout_failed(e: std::io::Error) {
    if e.kind() == ErrorKind::BrokenPipe {
        STDOUT_CLOSED.store(true, Ordering::Relaxed);
    } else {
        eprintln!("cannot write to stdout: {e}");
        std::process::exit(EXIT_FATAL.into());
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:
  droidracer analyze <trace-file> [options]
      --mode full|mt-only|async-only|naive-combined|events-as-threads
      --no-merge        disable §6 node merging
      --all             also print the raw block-pair race count
      --validate        reject semantically invalid traces before analyzing
      --lenient         repair malformed traces, printing each diagnostic
      --explain         print a happens-before explanation per representative
      --dot FILE        write the happens-before graph in Graphviz format
      --coverage        print root causes vs covered reports
      --profile FILE    write a Chrome trace_event profile; print the span tree
      --max-ops N       cap analysis work units (exhaustion exits 2)
      --max-matrix-bits N  cap relation-matrix allocation in bits
      --deadline-ms N   wall-clock budget for the analysis
  droidracer validate <trace-file>
  droidracer stats <trace-file>
  droidracer corpus <app-name> [--out FILE]
  droidracer corpus --analyze [options]
      --threads N       fan the corpus out over N workers (default 1)
      --keep-going      quarantine faulty entries, keep analyzing (default)
      --fail-fast       stop at the first quarantined entry
      --max-ops / --max-matrix-bits / --deadline-ms   per-entry budget
  droidracer explore <app-name> [depth] [--profile FILE]
  droidracer stream [<trace-file>|-] [options]
      --mode / --no-merge   as for analyze
      --chunk-ops N     ops ingested per incremental boundary (default 64)
      --summarize       retire closed matrix columns into digests
      --window N        live-column window when summarizing (default 128)
      --quiet           suppress live race events, print only the summary
      --profile FILE    write a Chrome trace_event profile; print span tree
      --max-ops / --max-matrix-bits / --deadline-ms   session budget
  droidracer serve [options]
      --listen ADDR     TCP listen address (default 127.0.0.1:7911)
      --socket PATH     listen on a Unix socket instead of TCP
      --shards N        shard worker threads (default 2)
      --tenants a,b,c   tenant allowlist (default: any tenant)
      --max-trace-bytes N  reject larger submissions (default 8 MiB; one
                        frame caps a trace at 64 MiB whatever N is)
      --tenant-quota-ops N cumulative word-ops quota per tenant
      --max-job-ops N   per-job analysis work cap
      --max-job-matrix-bits N  per-job matrix allocation cap
      --queue-depth N   per-shard admission queue; full queues shed load
                        with a typed Overloaded response (default 64)
      --conn-timeout-ms MS  per-connection read/write deadline; slow or
                        stalled peers are disconnected (default: none)
      --cache FILE      persist the result cache across restarts
                        (crash-safe: an fsynced append-only log at FILE,
                        rewritten on start if it holds dead records)
  droidracer submit <trace-file> [options]
      --connect ADDR    server TCP address (default 127.0.0.1:7911)
      --socket PATH     connect over a Unix socket instead
      --tenant NAME     tenant identity (default `cli`)
      --retries N       retry transient failures and shed load up to N
                        times with jittered exponential backoff;
                        exhausted retries exit 3 (default 0: fail fast)
      --retry-timeout-ms MS  wall-clock budget across all attempts
      --mode / --no-merge / --validate / --lenient   as for analyze
      --max-ops / --max-matrix-bits / --deadline-ms  job budget
  droidracer submit --status|--shutdown [--connect|--socket|--tenant]
  droidracer fuzz [options]
      --seed N          master seed (decimal or 0x-hex; default 0xD201D)
      --iters N         fuzz iterations (default 200)
      --time-budget S   wall-clock cutoff in seconds
      --regressions DIR regression corpus to replay
                        (default tests/data/fuzz_regressions when present)
      --save-failures DIR  write shrunk failing traces into DIR
      --profile FILE    write a Chrome trace_event profile of the session

exit codes: 0 clean, 1 races found, 2 quarantines/budget, 3 fatal"
    );
    ExitCode::from(EXIT_FATAL)
}

fn load(path: &str) -> Result<Trace, Error> {
    let text = std::fs::read_to_string(path)?;
    Ok(from_text(&text)?)
}

fn parse_mode(s: &str) -> Option<HbMode> {
    Some(match s {
        "full" | "droidracer" => HbMode::Full,
        "mt-only" => HbMode::MultithreadedOnly,
        "async-only" => HbMode::AsyncOnly,
        "naive-combined" => HbMode::NaiveCombined,
        "events-as-threads" => HbMode::EventsAsThreads,
        _ => return None,
    })
}

fn find_entry(name: &str) -> Result<apps::CorpusEntry, ExitCode> {
    apps::corpus()
        .into_iter()
        .find(|e| e.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            eprintln!(
                "unknown app `{name}`; available: {}",
                apps::corpus()
                    .iter()
                    .map(|e| e.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            ExitCode::from(EXIT_FATAL)
        })
}

struct AnalyzeOpts {
    mode: HbMode,
    merge: bool,
    show_all: bool,
    validate_first: bool,
    lenient: bool,
    explain_races: bool,
    coverage: bool,
    dot_file: Option<String>,
    profile_file: Option<String>,
    budget: Budget,
}

/// Consumes one budget flag at `args[i]` if present, updating `budget`.
/// Returns the new cursor, or `None` on a malformed value, or `Some(i)`
/// unchanged when the flag is not a budget flag.
fn parse_budget_flag(args: &[String], i: usize, budget: &mut Budget) -> Option<usize> {
    match args[i].as_str() {
        "--max-ops" => {
            *budget = budget.with_max_ops(args.get(i + 1).and_then(|s| parse_u64(s))?);
            Some(i + 2)
        }
        "--max-matrix-bits" => {
            *budget = budget.with_max_matrix_bits(args.get(i + 1).and_then(|s| parse_u64(s))?);
            Some(i + 2)
        }
        "--deadline-ms" => {
            let ms = args.get(i + 1).and_then(|s| parse_u64(s))?;
            *budget = budget.with_timeout(std::time::Duration::from_millis(ms));
            Some(i + 2)
        }
        _ => Some(i),
    }
}

fn parse_analyze_opts(args: &[String]) -> Option<AnalyzeOpts> {
    let mut opts = AnalyzeOpts {
        mode: HbMode::Full,
        merge: true,
        show_all: false,
        validate_first: false,
        lenient: false,
        explain_races: false,
        coverage: false,
        dot_file: None,
        profile_file: None,
        budget: Budget::unlimited(),
    };
    let mut i = 0;
    while i < args.len() {
        let advanced = parse_budget_flag(args, i, &mut opts.budget)?;
        if advanced != i {
            i = advanced;
            continue;
        }
        match args[i].as_str() {
            "--mode" => {
                opts.mode = args.get(i + 1).and_then(|s| parse_mode(s))?;
                i += 2;
            }
            "--no-merge" => {
                opts.merge = false;
                i += 1;
            }
            "--lenient" => {
                opts.lenient = true;
                i += 1;
            }
            "--all" => {
                opts.show_all = true;
                i += 1;
            }
            "--validate" => {
                opts.validate_first = true;
                i += 1;
            }
            "--explain" => {
                opts.explain_races = true;
                i += 1;
            }
            "--coverage" => {
                opts.coverage = true;
                i += 1;
            }
            "--dot" => {
                opts.dot_file = Some(args.get(i + 1)?.clone());
                i += 2;
            }
            "--profile" => {
                opts.profile_file = Some(args.get(i + 1)?.clone());
                i += 2;
            }
            _ => return None,
        }
    }
    Some(opts)
}

fn cmd_analyze(path: &str, opts: &AnalyzeOpts) -> Result<ExitCode, Error> {
    let mut rec = Recorder::new();
    rec.start("analyze");

    rec.start("parse");
    let trace = if opts.lenient {
        let text = std::fs::read_to_string(path)?;
        let (trace, diags) = from_text_lenient(&text)?;
        for d in &diags {
            eprintln!("repair: {d}");
        }
        if !diags.is_empty() {
            eprintln!("{} repair(s) applied to {path}", diags.len());
        }
        trace
    } else {
        load(path)?
    };
    rec.counter("ops", trace.len() as u64);
    rec.end();

    let result = AnalysisBuilder::new()
        .mode(opts.mode)
        .merge_accesses(opts.merge)
        .validate_first(opts.validate_first)
        .with_coverage(opts.coverage)
        .with_explanations(opts.explain_races)
        .budget(opts.budget)
        .clock_origin(rec.origin())
        .analyze(&trace);
    let analysis = match result {
        Ok(a) => a,
        Err(AnalysisError::BudgetExhausted(e)) => {
            eprintln!("{e}");
            return Ok(ExitCode::from(EXIT_QUARANTINE));
        }
        Err(e) => return Err(e.into()),
    };
    rec.adopt(analysis.spans().clone());

    rec.start("report");
    let mut out = format!(
        "mode={} nodes={} ({:.1}% of {} ops), {} fixpoint round(s)\n",
        opts.mode,
        analysis.hb().graph().node_count(),
        analysis.hb().graph().reduction_ratio() * 100.0,
        analysis.trace().len(),
        analysis.hb().rounds(),
    );
    out.push_str(&analysis.render());
    if opts.show_all {
        out.push_str(&format!(
            "all block-pair races: {}\n",
            analysis.races().len()
        ));
    }
    for explanation in analysis.explanations() {
        out.push_str(explanation);
    }
    if let Some(report) = analysis.coverage() {
        out.push_str(&format!(
            "race coverage: {} root cause(s), {} covered report(s)\n",
            report.roots.len(),
            report.covered.len()
        ));
        let names = analysis.trace().names();
        for (k, root) in report.roots.iter().enumerate() {
            out.push_str(&format!(
                "  root #{k}: [{}] {}\n",
                root.category,
                names.loc_name(root.race.loc)
            ));
        }
        for (cr, by) in &report.covered {
            let attribution = by
                .map(|k| format!("root #{k}"))
                .unwrap_or_else(|| "a coverage chain".to_owned());
            out.push_str(&format!(
                "  covered: [{}] {} — by {attribution}\n",
                cr.category,
                names.loc_name(cr.race.loc)
            ));
        }
    }
    rec.counter("races", analysis.representatives().len() as u64);
    rec.end();
    rec.end();
    out!("{out}");

    if let Some(file) = &opts.dot_file {
        std::fs::write(file, droidracer::core::to_dot(&analysis))?;
        outln!("happens-before graph written to {file}");
    }
    if let Some(file) = &opts.profile_file {
        let root = rec.finish_root();
        std::fs::write(
            file,
            chrome_trace(std::slice::from_ref(&root), &analysis.metrics()),
        )?;
        out!("{}", render_span_tree(&root));
        outln!("profile written to {file}");
    }
    Ok(if analysis.races().is_empty() {
        ExitCode::from(EXIT_CLEAN)
    } else {
        ExitCode::from(EXIT_RACES)
    })
}

struct CorpusAnalyzeOpts {
    threads: usize,
    fail_fast: bool,
    budget: Budget,
}

fn parse_corpus_analyze_opts(args: &[String]) -> Option<CorpusAnalyzeOpts> {
    let mut opts = CorpusAnalyzeOpts {
        threads: 1,
        fail_fast: false,
        budget: Budget::unlimited(),
    };
    let mut i = 0;
    while i < args.len() {
        let advanced = parse_budget_flag(args, i, &mut opts.budget)?;
        if advanced != i {
            i = advanced;
            continue;
        }
        match args[i].as_str() {
            "--threads" => {
                opts.threads = args.get(i + 1).and_then(|s| s.parse().ok())?;
                i += 2;
            }
            // Keep-going is the default for corpus mode; the flag is
            // accepted for explicitness.
            "--keep-going" => {
                opts.fail_fast = false;
                i += 1;
            }
            "--fail-fast" => {
                opts.fail_fast = true;
                i += 1;
            }
            _ => return None,
        }
    }
    Some(opts)
}

/// Runs the fault-isolated analysis over the whole corpus: every entry is
/// compiled, simulated and analyzed under the given budget inside a panic
/// boundary; faulty entries are quarantined and reported, not fatal.
fn cmd_corpus_analyze(opts: &CorpusAnalyzeOpts) -> ExitCode {
    let entries = apps::corpus();
    let results = apps::analyze_corpus_isolated(&entries, opts.threads, &opts.budget);
    let mut races = 0usize;
    let mut quarantines = 0usize;
    for (entry, result) in entries.iter().zip(&results) {
        match result {
            Ok(report) => {
                let found = report.analysis.representatives().len();
                races += found;
                outln!(
                    "{:<16} ok: {} representative race(s), reported {}",
                    entry.name,
                    found,
                    report.reported
                );
            }
            Err(q) => {
                quarantines += 1;
                eprintln!("{q}");
                outln!("{:<16} QUARANTINED [{}]", entry.name, q.cause);
                if opts.fail_fast {
                    break;
                }
            }
        }
    }
    outln!(
        "corpus: {} entries, {races} race(s), {quarantines} quarantined",
        results.len()
    );
    if quarantines > 0 {
        ExitCode::from(EXIT_QUARANTINE)
    } else if races > 0 {
        ExitCode::from(EXIT_RACES)
    } else {
        ExitCode::from(EXIT_CLEAN)
    }
}

/// Parses a decimal or `0x`-prefixed hexadecimal integer.
fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

struct FuzzOpts {
    config: FuzzConfig,
    regressions: Option<String>,
    save_failures: Option<String>,
    profile_file: Option<String>,
}

fn parse_fuzz_opts(args: &[String]) -> Option<FuzzOpts> {
    let mut opts = FuzzOpts {
        config: FuzzConfig::default(),
        regressions: None,
        save_failures: None,
        profile_file: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                opts.config.seed = args.get(i + 1).and_then(|s| parse_u64(s))?;
                i += 2;
            }
            "--iters" => {
                opts.config.iters = args.get(i + 1).and_then(|s| parse_u64(s))?;
                i += 2;
            }
            "--time-budget" => {
                let secs = args.get(i + 1).and_then(|s| parse_u64(s))?;
                opts.config.time_budget = Some(std::time::Duration::from_secs(secs));
                i += 2;
            }
            "--regressions" => {
                opts.regressions = Some(args.get(i + 1)?.clone());
                i += 2;
            }
            "--save-failures" => {
                opts.save_failures = Some(args.get(i + 1)?.clone());
                i += 2;
            }
            "--profile" => {
                opts.profile_file = Some(args.get(i + 1)?.clone());
                i += 2;
            }
            _ => return None,
        }
    }
    Some(opts)
}

/// Default regression corpus location, used when it exists and no explicit
/// `--regressions` directory was given.
const DEFAULT_REGRESSIONS: &str = "tests/data/fuzz_regressions";

fn cmd_fuzz(opts: &FuzzOpts) -> Result<ExitCode, Error> {
    let mut failed = false;

    // Replay the committed regression corpus first: fast, deterministic,
    // and exactly what the CI smoke job gates on.
    let regression_dir = opts.regressions.clone().or_else(|| {
        std::path::Path::new(DEFAULT_REGRESSIONS)
            .is_dir()
            .then(|| DEFAULT_REGRESSIONS.to_owned())
    });
    if let Some(dir) = &regression_dir {
        let replays = replay_regressions(std::path::Path::new(dir), HbConfig::new())?;
        let mut clean = 0usize;
        for (path, divergences) in &replays {
            if divergences.is_empty() {
                clean += 1;
            } else {
                failed = true;
                eprintln!("regression {} DIVERGES:", path.display());
                for d in divergences {
                    eprintln!("  {d}");
                }
            }
        }
        outln!("regressions: {clean}/{} clean ({dir})", replays.len());
    }

    let mut rec = Recorder::new();
    rec.start("fuzz");
    let report = droidracer::fuzz::run_fuzz(&opts.config);
    rec.counter("iterations", report.iterations);
    rec.counter("trace_ops", report.total_ops);
    rec.counter("races", report.races_found);
    rec.end();
    out!("{}", report.render());
    if report.oracle_divergences() > 0 {
        failed = true;
    }

    if let Some(dir) = &opts.save_failures {
        for f in &report.failures {
            if let Some(shrunk) = &f.shrunk {
                let name = format!("seed_{:x}_iter_{}", f.master_seed, f.iteration);
                let path = save_regression(std::path::Path::new(dir), &name, shrunk)?;
                outln!("shrunk failing trace written to {}", path.display());
            }
        }
    }

    if let Some(file) = &opts.profile_file {
        let mut metrics = MetricsRegistry::new();
        report.export_metrics(&mut metrics);
        let root = rec.finish_root();
        std::fs::write(file, chrome_trace(std::slice::from_ref(&root), &metrics))?;
        out!("{}", render_span_tree(&root));
        outln!("profile written to {file}");
    }

    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_explore(
    entry: &apps::CorpusEntry,
    depth: usize,
    profile: Option<&str>,
) -> Result<ExitCode, Error> {
    let (summary, span) = entry.explore_profiled(depth, 64, 1)?;
    outln!(
        "{}: {} tests (depth {depth}), {} manifested races; {} racy locations; union {}",
        entry.name,
        summary.tests,
        summary.racy_tests,
        summary.racy_locations,
        summary.union
    );
    if let Some(file) = profile {
        let mut metrics = MetricsRegistry::new();
        metrics.counter_add("explore.tests", summary.tests as u64);
        metrics.counter_add("explore.racy_tests", summary.racy_tests as u64);
        metrics.counter_add("explore.racy_locations", summary.racy_locations as u64);
        std::fs::write(file, chrome_trace(std::slice::from_ref(&span), &metrics))?;
        out!("{}", render_span_tree(&span));
        outln!("profile written to {file}");
    }
    Ok(ExitCode::SUCCESS)
}

struct StreamOpts {
    mode: HbMode,
    merge: bool,
    chunk_ops: usize,
    summarize: bool,
    window: usize,
    quiet: bool,
    profile_file: Option<String>,
    budget: Budget,
}

fn parse_stream_opts(args: &[String]) -> Option<StreamOpts> {
    let mut opts = StreamOpts {
        mode: HbMode::Full,
        merge: true,
        chunk_ops: 64,
        summarize: false,
        window: 128,
        quiet: false,
        profile_file: None,
        budget: Budget::unlimited(),
    };
    let mut i = 0;
    while i < args.len() {
        let advanced = parse_budget_flag(args, i, &mut opts.budget)?;
        if advanced != i {
            i = advanced;
            continue;
        }
        match args[i].as_str() {
            "--mode" => {
                opts.mode = args.get(i + 1).and_then(|s| parse_mode(s))?;
                i += 2;
            }
            "--no-merge" => {
                opts.merge = false;
                i += 1;
            }
            "--chunk-ops" => {
                opts.chunk_ops = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)?;
                i += 2;
            }
            "--summarize" => {
                opts.summarize = true;
                i += 1;
            }
            "--window" => {
                opts.window = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)?;
                i += 2;
            }
            "--quiet" => {
                opts.quiet = true;
                i += 1;
            }
            "--profile" => {
                opts.profile_file = Some(args.get(i + 1)?.clone());
                i += 2;
            }
            _ => return None,
        }
    }
    Some(opts)
}

/// Renders one live stream event; `+` marks an emission, `-` a retraction.
fn render_stream_event(sign: char, ev: &RaceEvent, names: &Names) -> String {
    format!(
        "{sign} [{}] {} on {} (ops {}, {}) at op {}\n",
        ev.category,
        ev.race.kind,
        names.loc_name(ev.race.loc),
        ev.race.first,
        ev.race.second,
        ev.at,
    )
}

fn cmd_stream(path: &str, opts: &StreamOpts) -> Result<ExitCode, Error> {
    use std::io::BufRead;

    let rec = Recorder::new();
    let builder = AnalysisBuilder::new()
        .mode(opts.mode)
        .merge_accesses(opts.merge)
        .budget(opts.budget)
        .clock_origin(rec.origin());
    let mut session = builder.streaming(StreamOptions {
        summarize: opts.summarize,
        window: opts.window,
        budget: None,
    });

    let stdin = std::io::stdin();
    let mut reader: Box<dyn BufRead> = if path == "-" {
        Box::new(stdin.lock())
    } else {
        Box::new(std::io::BufReader::new(std::fs::File::open(path)?))
    };
    let mut chunked = ChunkedReader::new();
    let mut pending: Vec<droidracer::trace::Op> = Vec::new();
    let mut line = String::new();

    let flush = |session: &mut droidracer::core::StreamingSession,
                 pending: &mut Vec<droidracer::trace::Op>,
                 names: &Names|
     -> Result<Option<ExitCode>, Error> {
        match session.push_chunk(pending) {
            Ok(events) => {
                if !opts.quiet {
                    for ev in &events {
                        match ev {
                            StreamEvent::Emitted(e) => {
                                out!("{}", render_stream_event('+', e, names))
                            }
                            StreamEvent::Retracted(e) => {
                                out!("{}", render_stream_event('-', e, names))
                            }
                        }
                    }
                }
                pending.clear();
                Ok(None)
            }
            Err(AnalysisError::BudgetExhausted(e)) => {
                eprintln!("{e}");
                Ok(Some(ExitCode::from(EXIT_QUARANTINE)))
            }
            Err(e) => Err(e.into()),
        }
    };

    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        pending.extend(chunked.push_text(&line)?);
        if pending.len() >= opts.chunk_ops {
            if let Some(code) = flush(&mut session, &mut pending, chunked.names())? {
                return Ok(code);
            }
        }
    }
    let (names, rest, diags) = chunked.finish()?;
    pending.extend(rest);
    for d in &diags {
        eprintln!("repair: {d}");
    }
    if !diags.is_empty() {
        eprintln!("{} malformed line(s) skipped", diags.len());
    }
    if !pending.is_empty() {
        if let Some(code) = flush(&mut session, &mut pending, &names)? {
            return Ok(code);
        }
    }

    let report = match session.finish(&names) {
        Ok(r) => r,
        Err(AnalysisError::BudgetExhausted(e)) => {
            eprintln!("{e}");
            return Ok(ExitCode::from(EXIT_QUARANTINE));
        }
        Err(e) => return Err(e.into()),
    };
    if !opts.quiet {
        for ev in &report.outcome.events {
            match ev {
                StreamEvent::Emitted(e) => out!("{}", render_stream_event('+', e, &names)),
                StreamEvent::Retracted(e) => out!("{}", render_stream_event('-', e, &names)),
            }
        }
    }
    let s = report.outcome.stats;
    outln!(
        "{} race(s) in {} op(s), {} chunk(s); emitted={} retracted={} late={} rebuilds={} retired_rows={}{}",
        report.outcome.races.len(),
        s.ops,
        s.chunks,
        s.races_emitted,
        s.retractions,
        s.late_emissions,
        s.rebuilds,
        s.retired_rows,
        if s.degenerate { " (degenerate: batch fallback)" } else { "" },
    );
    for cat in droidracer::core::RaceCategory::all() {
        let n = report.outcome.counts.get(cat);
        if n > 0 {
            outln!("  {cat}: {n}");
        }
    }
    if let Some(file) = &opts.profile_file {
        std::fs::write(
            file,
            chrome_trace(std::slice::from_ref(&report.spans), &report.metrics),
        )?;
        out!("{}", render_span_tree(&report.spans));
        outln!("profile written to {file}");
    }
    Ok(if report.outcome.races.is_empty() {
        ExitCode::from(EXIT_CLEAN)
    } else {
        ExitCode::from(EXIT_RACES)
    })
}

struct ServeOpts {
    listen: String,
    socket: Option<String>,
    config: ServerConfig,
}

fn parse_serve_opts(args: &[String]) -> Option<ServeOpts> {
    let mut opts = ServeOpts {
        listen: "127.0.0.1:7911".to_owned(),
        socket: None,
        config: ServerConfig {
            shards: 2,
            ..ServerConfig::default()
        },
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--listen" => {
                opts.listen = args.get(i + 1)?.clone();
                i += 2;
            }
            "--socket" => {
                opts.socket = Some(args.get(i + 1)?.clone());
                i += 2;
            }
            "--shards" => {
                opts.config.shards = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)?;
                i += 2;
            }
            "--tenants" => {
                let list = args.get(i + 1)?;
                opts.config.allowed_tenants = Some(list.split(',').map(str::to_owned).collect());
                i += 2;
            }
            "--max-trace-bytes" => {
                opts.config.max_trace_bytes = args.get(i + 1).and_then(|s| s.parse().ok())?;
                i += 2;
            }
            "--tenant-quota-ops" => {
                opts.config.tenant_quota_ops = Some(args.get(i + 1).and_then(|s| parse_u64(s))?);
                i += 2;
            }
            "--max-job-ops" => {
                opts.config.max_job_ops = Some(args.get(i + 1).and_then(|s| parse_u64(s))?);
                i += 2;
            }
            "--max-job-matrix-bits" => {
                opts.config.max_job_matrix_bits = Some(args.get(i + 1).and_then(|s| parse_u64(s))?);
                i += 2;
            }
            "--cache" => {
                opts.config.cache_path = Some(args.get(i + 1)?.into());
                i += 2;
            }
            "--queue-depth" => {
                opts.config.queue_depth = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)?;
                i += 2;
            }
            "--conn-timeout-ms" => {
                opts.config.conn_timeout_ms = Some(
                    args.get(i + 1)
                        .and_then(|s| parse_u64(s))
                        .filter(|&n| n > 0)?,
                );
                i += 2;
            }
            _ => return None,
        }
    }
    Some(opts)
}

fn cmd_serve(opts: ServeOpts) -> ExitCode {
    let bound = match &opts.socket {
        Some(path) => Server::bind_unix(std::path::Path::new(path), opts.config.clone())
            .map(|s| (s, path.clone())),
        None => Server::bind_tcp(&opts.listen, opts.config.clone()).map(|s| {
            let addr = s
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|| opts.listen.clone());
            (s, addr)
        }),
    };
    match bound {
        Ok((server, addr)) => {
            outln!(
                "listening on {addr} ({} shard(s))",
                opts.config.shards.max(1)
            );
            match server.run() {
                Ok(()) => ExitCode::from(EXIT_CLEAN),
                Err(e) => {
                    eprintln!("server failed: {e}");
                    ExitCode::from(EXIT_FATAL)
                }
            }
        }
        Err(e) => {
            eprintln!("cannot bind: {e}");
            ExitCode::from(EXIT_FATAL)
        }
    }
}

/// What a `submit` invocation asks the server to do.
enum SubmitAction {
    Job(String),
    Status,
    Shutdown,
}

struct SubmitOpts {
    action: SubmitAction,
    connect: String,
    socket: Option<String>,
    tenant: String,
    spec: JobSpec,
    retries: u32,
    retry_timeout_ms: Option<u64>,
}

impl SubmitOpts {
    /// The retry policy these flags ask for: fail-fast by default, the
    /// standard backoff schedule (with an optional overall deadline) when
    /// `--retries` is given.
    fn retry_policy(&self) -> RetryPolicy {
        if self.retries == 0 && self.retry_timeout_ms.is_none() {
            return RetryPolicy::none();
        }
        RetryPolicy {
            max_retries: self.retries,
            deadline_ms: self.retry_timeout_ms,
            ..RetryPolicy::standard()
        }
    }
}

fn parse_submit_opts(args: &[String]) -> Option<SubmitOpts> {
    let mut opts = SubmitOpts {
        action: SubmitAction::Job(String::new()),
        connect: "127.0.0.1:7911".to_owned(),
        socket: None,
        tenant: "cli".to_owned(),
        spec: JobSpec::default(),
        retries: 0,
        retry_timeout_ms: None,
    };
    let mut path: Option<String> = None;
    let mut status = false;
    let mut shutdown = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--status" => {
                status = true;
                i += 1;
            }
            "--shutdown" => {
                shutdown = true;
                i += 1;
            }
            "--connect" => {
                opts.connect = args.get(i + 1)?.clone();
                i += 2;
            }
            "--socket" => {
                opts.socket = Some(args.get(i + 1)?.clone());
                i += 2;
            }
            "--tenant" => {
                opts.tenant = args.get(i + 1)?.clone();
                i += 2;
            }
            "--retries" => {
                opts.retries = args.get(i + 1).and_then(|s| s.parse().ok())?;
                i += 2;
            }
            "--retry-timeout-ms" => {
                opts.retry_timeout_ms = Some(
                    args.get(i + 1)
                        .and_then(|s| parse_u64(s))
                        .filter(|&n| n > 0)?,
                );
                i += 2;
            }
            "--mode" => {
                opts.spec.mode = args.get(i + 1).and_then(|s| parse_mode(s))?;
                i += 2;
            }
            "--no-merge" => {
                opts.spec.merge_accesses = false;
                i += 1;
            }
            "--validate" => {
                opts.spec.validate = true;
                i += 1;
            }
            "--lenient" => {
                opts.spec.lenient = true;
                i += 1;
            }
            "--max-ops" => {
                opts.spec.max_ops = Some(args.get(i + 1).and_then(|s| parse_u64(s))?);
                i += 2;
            }
            "--max-matrix-bits" => {
                opts.spec.max_matrix_bits = Some(args.get(i + 1).and_then(|s| parse_u64(s))?);
                i += 2;
            }
            "--deadline-ms" => {
                opts.spec.deadline_ms = Some(args.get(i + 1).and_then(|s| parse_u64(s))?);
                i += 2;
            }
            flag if flag.starts_with("--") => return None,
            file => {
                if path.is_some() {
                    return None;
                }
                path = Some(file.to_owned());
                i += 1;
            }
        }
    }
    opts.action = match (status, shutdown, path) {
        (true, false, None) => SubmitAction::Status,
        (false, true, None) => SubmitAction::Shutdown,
        (false, false, Some(p)) => SubmitAction::Job(p),
        _ => return None,
    };
    Some(opts)
}

fn cmd_submit(opts: &SubmitOpts) -> Result<ExitCode, Error> {
    // Lazy construction: the first dial happens inside the retry loop, so
    // `--retries` also covers a server that is briefly down or restarting.
    let mut client = match &opts.socket {
        Some(path) => Client::lazy_unix(std::path::Path::new(path), opts.tenant.clone()),
        None => Client::lazy_tcp(&opts.connect, opts.tenant.clone()),
    }
    .with_retry_policy(opts.retry_policy())?;
    let path = match &opts.action {
        SubmitAction::Status => {
            out!("{}", client.status()?);
            return Ok(ExitCode::from(EXIT_CLEAN));
        }
        SubmitAction::Shutdown => {
            client.shutdown()?;
            outln!("server shut down");
            return Ok(ExitCode::from(EXIT_CLEAN));
        }
        SubmitAction::Job(path) => path,
    };
    let text = std::fs::read_to_string(path)?;
    match client.submit_trace(&opts.spec, &text)? {
        Submission::Done { cache_hit, report } => {
            outln!("cache {}", if cache_hit { "hit" } else { "miss" });
            out!("{}", report.render());
            Ok(ExitCode::from(report.exit.code()))
        }
        Submission::Rejected { reason } => {
            eprintln!("rejected: {reason}");
            Ok(ExitCode::from(EXIT_FATAL))
        }
        // Load shedding that outlasted the retry budget (or was met with
        // `--retries 0`): a transient refusal, reported as fatal so scripts
        // distinguish "try again later" from a clean/raced/quarantined job.
        Submission::Overloaded { retry_after_ms } => {
            eprintln!("server overloaded; retry after {retry_after_ms} ms");
            Ok(ExitCode::from(EXIT_FATAL))
        }
    }
}

fn main() -> ExitCode {
    let code = run();
    if !STDOUT_CLOSED.load(Ordering::Relaxed) {
        if let Err(e) = std::io::stdout().flush() {
            stdout_failed(e);
        }
    }
    code
}

fn run() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    match command.as_str() {
        "analyze" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let Some(opts) = parse_analyze_opts(&args[2..]) else {
                return usage();
            };
            match cmd_analyze(path, &opts) {
                Ok(code) => code,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(EXIT_FATAL)
                }
            }
        }
        "validate" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            match load(path).map(|t| validate(&t)) {
                Ok(Ok(())) => {
                    outln!("ok: trace satisfies the concurrency semantics");
                    ExitCode::from(EXIT_CLEAN)
                }
                Ok(Err(e)) => {
                    eprintln!("invalid: {e}");
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(EXIT_FATAL)
                }
            }
        }
        "stats" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            match load(path) {
                Ok(t) => {
                    outln!("{}", TraceStats::of(&t));
                    ExitCode::from(EXIT_CLEAN)
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(EXIT_FATAL)
                }
            }
        }
        "corpus" => {
            let Some(name) = args.get(1) else {
                return usage();
            };
            if name == "--analyze" {
                let Some(opts) = parse_corpus_analyze_opts(&args[2..]) else {
                    return usage();
                };
                return cmd_corpus_analyze(&opts);
            }
            let entry = match find_entry(name) {
                Ok(e) => e,
                Err(code) => return code,
            };
            let trace = match entry.generate_trace() {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{}", Error::from(e));
                    return ExitCode::from(EXIT_FATAL);
                }
            };
            let text = to_text(&trace);
            match args.get(2).map(String::as_str) {
                Some("--out") => {
                    let Some(file) = args.get(3) else {
                        return usage();
                    };
                    if let Err(e) = std::fs::write(file, text) {
                        eprintln!("cannot write {file}: {e}");
                        return ExitCode::from(EXIT_FATAL);
                    }
                    outln!("wrote {} ops to {file}", trace.len());
                }
                None => out!("{text}"),
                _ => return usage(),
            }
            ExitCode::from(EXIT_CLEAN)
        }
        "explore" => {
            let Some(name) = args.get(1) else {
                return usage();
            };
            let mut depth = 2usize;
            let mut profile: Option<String> = None;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--profile" => {
                        let Some(f) = args.get(i + 1) else {
                            return usage();
                        };
                        profile = Some(f.clone());
                        i += 2;
                    }
                    d => {
                        let Ok(parsed) = d.parse() else {
                            return usage();
                        };
                        depth = parsed;
                        i += 1;
                    }
                }
            }
            let entry = match find_entry(name) {
                Ok(e) => e,
                Err(code) => return code,
            };
            match cmd_explore(&entry, depth, profile.as_deref()) {
                Ok(code) => code,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(EXIT_FATAL)
                }
            }
        }
        "stream" => {
            let (path, rest) = match args.get(1) {
                Some(a) if !a.starts_with("--") => (a.as_str(), &args[2..]),
                _ => ("-", &args[1..]),
            };
            let Some(opts) = parse_stream_opts(rest) else {
                return usage();
            };
            match cmd_stream(path, &opts) {
                Ok(code) => code,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(EXIT_FATAL)
                }
            }
        }
        "serve" => {
            let Some(opts) = parse_serve_opts(&args[1..]) else {
                return usage();
            };
            cmd_serve(opts)
        }
        "submit" => {
            let Some(opts) = parse_submit_opts(&args[1..]) else {
                return usage();
            };
            match cmd_submit(&opts) {
                Ok(code) => code,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(EXIT_FATAL)
                }
            }
        }
        "fuzz" => {
            let Some(opts) = parse_fuzz_opts(&args[1..]) else {
                return usage();
            };
            match cmd_fuzz(&opts) {
                Ok(code) => code,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(EXIT_FATAL)
                }
            }
        }
        _ => usage(),
    }
}
