//! One benchmark run: set-up, warm-up, the timed closed loop, the checks,
//! and the metrics.

use std::borrow::Cow;
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use droidracer_apps::corpus;
use droidracer_core::JobReport;
use droidracer_obs::{Recorder, SpanRecord};
use droidracer_server::protocol::{read_frame, write_frame};
use droidracer_server::{job_key, status_counter, Request, Response, WalStore};

use crate::calls::{self, Echo, Served};
use crate::pool::{check_truth, Item, Order, Pool, TIMED_VARIANTS, WARMUP_VARIANT};
use crate::stats::{median, ms, percentile, Best};

/// The workloads; the crate documentation says why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Batch,
    Stream,
    ServedMiss,
    ServedHit,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` declares them.
    pub const ALL: [Workload; 4] = [
        Workload::Batch,
        Workload::Stream,
        Workload::ServedMiss,
        Workload::ServedHit,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Batch => "batch-corpus",
            Workload::Stream => "stream-corpus",
            Workload::ServedMiss => "served-miss",
            Workload::ServedHit => "served-hit",
        }
    }

    fn route(self) -> Route {
        match self {
            Workload::Batch => Route::Batch,
            Workload::Stream => Route::Stream,
            Workload::ServedMiss | Workload::ServedHit => Route::Served,
        }
    }

    fn timed_variants(self) -> Vec<u64> {
        match self {
            Workload::ServedHit => vec![0],
            _ => (0..TIMED_VARIANTS).collect(),
        }
    }

    /// The cache outcome every timed request must have.
    fn cache_hit(self) -> Option<bool> {
        match self {
            Workload::ServedMiss => Some(false),
            Workload::ServedHit => Some(true),
            Workload::Batch | Workload::Stream => None,
        }
    }
}

/// The three routes from trace text to a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Batch,
    Stream,
    Served,
}

impl Route {
    const ALL: [Route; 3] = [Route::Batch, Route::Stream, Route::Served];

    /// The name of the span a traced request records for this route.
    fn span(self) -> &'static str {
        match self {
            Route::Batch => "batch",
            Route::Stream => "stream",
            Route::Served => "served",
        }
    }
}

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// A phase stops after this long even when it lacks samples.
const MAX_PHASE: Duration = Duration::from_secs(100);

/// A measured value with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Requests attempted and failed, with the first few failures described.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

/// What one run produced.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    pub pool_digest: u64,
    pub pool_traces: usize,
    pub pool_bytes: usize,
    /// Timed requests of the untraced phase.
    pub samples: usize,
    /// The traced phase's request spans, one root per request.
    pub spans: Vec<SpanRecord>,
}

/// Everything the timed loop needs, built by set-up.
struct Fixture {
    pool: Pool,
    warmup: Pool,
    server: Option<Served>,
}

struct SetupTimes {
    total: Duration,
    generate: Duration,
    server_start: Duration,
}

/// Generates the pool and starts the server if one is needed.
fn set_up(
    workload: Workload,
    seed: u64,
    with_server: bool,
    dir: &Path,
) -> Result<(Fixture, SetupTimes), String> {
    let start = Instant::now();
    let entries = corpus();
    let pool = Pool::generate(&entries, seed, &workload.timed_variants())?;
    let warmup = Pool::generate(&entries, seed, &[WARMUP_VARIANT])?;
    let generate = start.elapsed();
    let t = Instant::now();
    let server = with_server.then(|| Served::start(dir)).transpose()?;
    let server_start = t.elapsed();
    let times = SetupTimes {
        total: start.elapsed(),
        generate,
        server_start,
    };
    Ok((
        Fixture {
            pool,
            warmup,
            server,
        },
        times,
    ))
}

/// One request's result on one route.
struct Verdict {
    report: JobReport,
    latency: Duration,
    /// Time to the first known race: its emission for a stream, the
    /// report otherwise.
    first_race: Duration,
    /// CPU time the process spent meanwhile, the server's threads included.
    cpu: Duration,
    cache_hit: Option<bool>,
}

/// Sends `text` down `route`. With a recorder, the caller has opened the
/// route's span: the batch route then runs layer by layer, and the stream
/// route attaches its layer times and counters.
fn send(
    route: Route,
    text: &str,
    server: Option<&mut Served>,
    rec: Option<&mut Recorder>,
) -> Result<Verdict, String> {
    let cpu = process_cpu();
    let start = Instant::now();
    let (report, first_race, cache_hit) = match route {
        Route::Batch => match rec {
            Some(rec) => (calls::batch_layered(text, rec)?, None, None),
            None => (calls::batch(text), None, None),
        },
        Route::Stream => {
            let s = calls::stream(text)?;
            if let Some(rec) = rec {
                rec.counter("chunked_ns", nanos(s.chunked));
                rec.counter("push_ns", nanos(s.push));
                rec.counter("finish_ns", nanos(s.finish));
                rec.counter("word_ops", s.stats.word_ops);
                rec.counter("peak_matrix_bits", s.stats.peak_matrix_bits);
                rec.counter("first_race_ops", s.first_race_ops.unwrap_or(0) as u64);
            }
            (s.report, s.first_race, None)
        }
        Route::Served => {
            let server = server.ok_or("no server is running")?;
            let (report, hit) = calls::served(&mut server.client, text)?;
            (report, None, Some(hit))
        }
    };
    let latency = start.elapsed();
    let cpu = process_cpu() - cpu;
    Ok(Verdict {
        report,
        latency,
        first_race: first_race.unwrap_or(latency),
        cpu,
        cache_hit,
    })
}

/// Checks a verdict on `item`: the planted truth, and equality with the
/// front-door report — for a stream only races, counts and exit class,
/// since its work counters differ by design.
fn check(
    item: &Item,
    route: Route,
    verdict: &Verdict,
    reference: &JobReport,
) -> Result<(), String> {
    check_truth(item, &verdict.report)?;
    let same = match route {
        Route::Stream => {
            verdict.report.races == reference.races
                && verdict.report.counts == reference.counts
                && verdict.report.exit == reference.exit
        }
        Route::Batch | Route::Served => verdict.report == *reference,
    };
    if !same {
        return Err(format!(
            "{} v{} via {}: report differs from the front door's",
            item.app,
            item.variant,
            route.span()
        ));
    }
    Ok(())
}

/// The probes a traced run makes of the serving layers on every request.
struct Probes {
    echo: Echo,
    store: WalStore,
}

impl Probes {
    /// Times, on one request's text and reference report: the wire codec,
    /// a frame round trip of each message's size, the cache key, and a
    /// cache insert and lookup.
    fn run(&mut self, rec: &mut Recorder, text: &str, reference: &JobReport) -> Result<(), String> {
        let token = calls::spec().to_token();
        let response = Response::Report {
            cache_hit: false,
            record: reference.to_record(),
        }
        .encode();
        rec.start("server.codec");
        let request = Request::Submit {
            tenant: "bench".to_owned(),
            spec: token.clone(),
            trace: text.as_bytes().to_vec(),
        }
        .encode();
        let decoded = match Response::decode(&response) {
            Ok(Response::Report { record, .. }) => JobReport::from_record(&record),
            other => Err(format!("decoded {other:?}")),
        };
        rec.end();
        if decoded.as_ref() != Ok(reference) {
            return Err("report does not survive the wire codec".to_owned());
        }

        rec.start("server.frame_echo");
        let mut echoed = 0;
        for frame in [&request, &response] {
            write_frame(&mut self.echo.stream, frame).map_err(|e| format!("echo: {e}"))?;
            let back = read_frame(&mut self.echo.stream).map_err(|e| format!("echo: {e}"))?;
            echoed += back.map_or(0, |b| b.len());
        }
        rec.end();
        if echoed != request.len() + response.len() {
            return Err("echo peer returned other frames".to_owned());
        }

        let key = rec.time("server.store.key", |_| job_key(&token, text.as_bytes()));
        let inserted = rec.time("server.store.insert", |_| {
            self.store.insert(key, reference.clone())
        });
        inserted.map_err(|e| format!("store insert: {e}"))?;
        let found = rec.time("server.store.get", |_| {
            self.store.get(key) == Some(reference)
        });
        if !found {
            return Err("store lost an inserted report".to_owned());
        }
        Ok(())
    }
}

/// How long a phase measures: whole rounds, or whole laps, until `time`
/// has passed and `samples` requests were timed.
struct Stop {
    time: Duration,
    samples: usize,
    whole_laps: bool,
}

/// A pool position: (round, app).
type Pos = (usize, usize);

/// One timed request.
struct Sample {
    pos: Pos,
    latency_ms: f64,
    first_race_ms: f64,
    cpu_ms: f64,
}

/// Samples of one phase of the timed loop.
#[derive(Default)]
struct Phase {
    samples: Vec<Sample>,
    /// Summed time of the workload's own requests.
    busy: Duration,
    /// One root span per request (traced phases only).
    spans: Vec<SpanRecord>,
}

impl Phase {
    /// Each trace's best time to verdict over the phase's laps.
    fn latency(&self) -> Best<Pos> {
        Best::new(self.samples.iter().map(|s| (s.pos, s.latency_ms)))
    }

    /// Each trace's best time to its first known race.
    fn first_race(&self) -> Best<Pos> {
        Best::new(self.samples.iter().map(|s| (s.pos, s.first_race_ms)))
    }

    /// Each trace's best CPU time.
    fn cpu(&self) -> Best<Pos> {
        Best::new(self.samples.iter().map(|s| (s.pos, s.cpu_ms)))
    }
}

struct Runner {
    workload: Workload,
    seed: u64,
    fixture: Fixture,
    /// Front-door reports by pool position, made when first needed.
    references: HashMap<(usize, usize), JobReport>,
    /// How often each item went to the server after warm-up.
    submissions: HashMap<Pos, u32>,
    tally: Tally,
}

impl Runner {
    /// For `served-hit`, fills the cache with the timed traces; then one
    /// round of the warm-up variant down the workload's route. Runs once,
    /// after the set-ups: cache fills in every set-up would leave the
    /// analysis memory of each discarded server resident.
    fn warm_up(&mut self) {
        if self.workload == Workload::ServedHit {
            for item in self.fixture.pool.items.iter().flatten() {
                let result = send(
                    Route::Served,
                    &item.text,
                    self.fixture.server.as_mut(),
                    None,
                )
                .and_then(|v| match v.cache_hit {
                    Some(false) => check_truth(item, &v.report),
                    hit => Err(format!("{}: filling the cache got hit {hit:?}", item.app)),
                });
                self.tally.record(result);
            }
        }
        let route = self.workload.route();
        for item in self.fixture.warmup.items.iter().flatten() {
            let result = send(route, &item.text, self.fixture.server.as_mut(), None)
                .and_then(|v| check_truth(item, &v.report));
            self.tally.record(result);
        }
    }

    /// The closed loop: one request at a time, whole rounds, in the seeded
    /// order. Untraced, the latency of the workload's own request is its
    /// whole time. Traced, each request also goes down the two other
    /// routes and through the serving-layer probes, all under one request
    /// span; only the workload's own route counts as the request's time.
    fn phase(&mut self, stop: Stop, mut probes: Option<&mut Probes>) -> Result<Phase, String> {
        let route = self.workload.route();
        let apps = self.fixture.pool.items[0].len();
        let mut order = Order::new(self.seed, self.fixture.pool.items.len(), apps);
        let mut rec = probes.is_some().then(Recorder::new);
        let mut phase = Phase::default();
        let started = Instant::now();
        loop {
            for pos in order.next_round() {
                let id = phase.samples.len() as u64;
                let result = self.request(
                    pos,
                    route,
                    id,
                    &mut phase,
                    rec.as_mut(),
                    probes.as_deref_mut(),
                );
                self.tally.record(result);
            }
            let measured = if rec.is_some() {
                started.elapsed()
            } else {
                phase.busy
            };
            if measured >= stop.time
                && phase.samples.len() >= stop.samples
                && (!stop.whole_laps || order.at_lap_start())
            {
                break;
            }
            if started.elapsed() >= MAX_PHASE {
                return Err(format!(
                    "{} requests in {:?}; the phase needs {}",
                    phase.samples.len(),
                    MAX_PHASE,
                    stop.samples
                ));
            }
        }
        phase.spans = rec.map(Recorder::finish).unwrap_or_default();
        Ok(phase)
    }

    fn request(
        &mut self,
        pos: (usize, usize),
        route: Route,
        id: u64,
        phase: &mut Phase,
        mut rec: Option<&mut Recorder>,
        probes: Option<&mut Probes>,
    ) -> Result<(), String> {
        let item = &self.fixture.pool.items[pos.0][pos.1];
        let text = request_text(route, self.workload, &mut self.submissions, pos, item);
        if let Some(rec) = rec.as_deref_mut() {
            rec.start("request");
            rec.counter("id", id);
            rec.start(route.span());
            rec.counter("call", 1);
        }
        let verdict = send(
            route,
            &text,
            self.fixture.server.as_mut(),
            rec.as_deref_mut(),
        );
        if let Some(rec) = rec.as_deref_mut() {
            rec.end();
        }
        let result = verdict.and_then(|v| {
            phase.busy += v.latency;
            phase.samples.push(Sample {
                pos,
                latency_ms: ms(v.latency),
                first_race_ms: ms(v.first_race),
                cpu_ms: ms(v.cpu),
            });
            let expected = self.workload.cache_hit();
            if expected.is_some() && v.cache_hit != expected {
                return Err(format!(
                    "{} v{}: cache hit {:?}",
                    item.app, item.variant, v.cache_hit
                ));
            }
            // An untraced batch request is the front door: the first one
            // of each item is its reference, later laps must repeat it.
            let reference =
                self.references
                    .entry(pos)
                    .or_insert_with(|| match (route, rec.is_none()) {
                        (Route::Batch, true) => v.report.clone(),
                        _ => calls::batch(&item.text),
                    });
            check(item, route, &v, reference)
        });
        let (Some(rec), Some(probes)) = (rec, probes) else {
            return result;
        };
        let reference = self.references.get(&pos).cloned();
        let mut probed = Ok(());
        for other in Route::ALL.into_iter().filter(|&r| r != route) {
            let text = request_text(other, self.workload, &mut self.submissions, pos, item);
            rec.start(other.span());
            let verdict = send(other, &text, self.fixture.server.as_mut(), Some(&mut *rec));
            rec.end();
            if probed.is_ok() {
                probed = match (&verdict, &reference) {
                    (Ok(v), Some(reference)) => check(item, other, v, reference),
                    (Err(e), _) => Err(e.clone()),
                    (Ok(_), None) => Ok(()),
                };
            }
        }
        if let Some(reference) = &reference {
            probed = probed.and(probes.run(rec, &item.text, reference));
        }
        rec.end();
        result.and(probed)
    }
}

/// Runs `workload` under `seed`: set-up, warm-up, then either one untraced
/// phase of whole laps for `seconds` giving the end-to-end metrics, or an
/// untraced and a traced phase of half as long each giving the per-layer
/// metrics.
/// Scratch files go under `scratch`.
///
/// # Errors
///
/// Set-up failures and phases that could not finish; wrong outputs are
/// counted in the outcome's tally instead.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scratch: &Path,
) -> Result<Outcome, String> {
    let with_server = workload.route() == Route::Served || traced;
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut fixture: Option<Fixture> = None;
    for rep in 0..SETUP_REPEATS {
        if let Some(server) = fixture.take().and_then(|f| f.server) {
            server.stop()?;
        }
        let (next, times) = set_up(
            workload,
            seed,
            with_server,
            &scratch.join(format!("server-{rep}")),
        )?;
        fixture = Some(next);
        setups.push(times);
    }
    let fixture = fixture.expect("set-up ran at least once");
    let pool_digest = fixture.pool.digest();
    let pool_traces = fixture.pool.items.iter().map(Vec::len).sum();
    let pool_bytes = fixture.pool.bytes();
    let mut runner = Runner {
        workload,
        seed,
        fixture,
        references: HashMap::new(),
        submissions: HashMap::new(),
        tally: Tally::default(),
    };
    runner.warm_up();
    let time = Duration::from_secs_f64(seconds);
    let (metrics, samples, spans) = if traced {
        let half = time / 2;
        // Whole laps, so every trace the traced phase times has an
        // untraced time to compare with.
        let plain = runner.phase(
            Stop {
                time: half,
                samples: 0,
                whole_laps: true,
            },
            None,
        )?;
        let mut probes = Probes {
            echo: Echo::start()?,
            store: WalStore::open(&scratch.join("probe-store"))
                .map_err(|e| format!("probe store: {e}"))?
                .0,
        };
        let before = runner.status()?;
        let apps = runner.fixture.pool.items[0].len();
        let traced_phase = runner.phase(
            Stop {
                time: half,
                samples: apps,
                whole_laps: false,
            },
            Some(&mut probes),
        )?;
        let after = runner.status()?;
        probes.echo.stop();
        let retries = runner
            .fixture
            .server
            .as_ref()
            .map_or(0, |s| s.client.stats().retries);
        let mut metrics = per_layer(&traced_phase.spans, apps);
        let hits = after.0 - before.0;
        let jobs = after.1 - before.1;
        metrics.extend([
            metric(
                "setup.generate_s",
                median(&secs(setups.iter().map(|s| s.generate))),
                "s",
            ),
            metric(
                "setup.server_start_s",
                median(&secs(setups.iter().map(|s| s.server_start))),
                "s",
            ),
            metric(
                "server.cache.hit_ratio",
                hits as f64 / (hits + jobs).max(1) as f64,
                "ratio",
            ),
            metric("server.client.retries", retries as f64, "count"),
            metric("server.overloaded", after.2 as f64, "count"),
            metric(
                "bench.tracing_overhead",
                tracing_overhead(&plain.latency(), &traced_phase.latency()),
                "ratio",
            ),
        ]);
        (metrics, plain.samples.len(), traced_phase.spans)
    } else {
        let stop = Stop {
            time,
            samples: crate::stats::MIN_P95_SAMPLES,
            whole_laps: true,
        };
        let phase = runner.phase(stop, None)?;
        let cpu = phase.cpu();
        // Neither CPU time nor best-of-laps undoes a slow spell of the
        // shared host that outlasts a run; a mean, weighted to the longest
        // traces, moves most in one, so the tail is reported as cpu_p95_ms
        // and there is no throughput metric.
        let metrics = vec![
            metric(
                "setup_s",
                median(&secs(setups.iter().map(|s| s.total))),
                "s",
            ),
            metric("latency_p50_ms", phase.latency().percentile(0.5)?, "ms"),
            metric(
                "first_race_p50_ms",
                phase.first_race().percentile(0.5)?,
                "ms",
            ),
            metric("cpu_p50_ms", cpu.percentile(0.5)?, "ms"),
            metric("cpu_p95_ms", cpu.percentile(0.95)?, "ms"),
            metric("peak_rss_mb", peak_rss_mb()?, "MB"),
        ];
        (metrics, phase.samples.len(), Vec::new())
    };
    if let Some(server) = runner.fixture.server.take() {
        server.stop()?;
    }
    Ok(Outcome {
        metrics,
        tally: runner.tally,
        pool_digest,
        pool_traces,
        pool_bytes,
        samples,
        spans,
    })
}

impl Runner {
    /// The server's cache hits, executed jobs and shed jobs so far.
    fn status(&mut self) -> Result<(u64, u64, u64), String> {
        let server = self.fixture.server.as_mut().ok_or("no server is running")?;
        let text = server.client.status().map_err(|e| format!("status: {e}"))?;
        let count = |key| status_counter(&text, key).unwrap_or(0);
        Ok((
            count("srv.cache_hits"),
            count("srv.jobs"),
            count("srv.overloaded"),
        ))
    }
}

/// The per-layer metrics read off the traced phase's request spans. Times
/// are means per request, except the served round trip, the direct
/// analysis and their difference, which are medians. Exact counts sum over
/// the first round — one trace of every app, the same ones on every run
/// with the same seed.
fn per_layer(requests: &[SpanRecord], apps: usize) -> Vec<Metric> {
    let batch = |layer: &str| under(requests, &["batch", layer]);
    let stream = under(requests, &["stream"]);
    let stream_ms =
        |name: &str| sum(&stream, |s| counter(s, name) as f64) / stream.len().max(1) as f64 / 1e6;
    let first_round = |spans: &[&SpanRecord], name: &str| {
        sum(&spans[..apps.min(spans.len())], |s| counter(s, name) as f64)
    };

    let parse = batch("trace.parse");
    let closure = batch("core.closure");
    let layers_ns: f64 = [
        "trace.parse",
        "core.prepare",
        "core.graph",
        "core.closure",
        "core.detect",
        "core.classify",
    ]
    .iter()
    .map(|layer| sum(&batch(layer), dur_ns))
    .sum();
    let batch_word_ops = first_round(&closure, "word_ops");
    let stream_word_ops = first_round(&stream, "word_ops");

    let mut rtt = Vec::new();
    let mut direct = Vec::new();
    let mut overhead = Vec::new();
    for r in requests {
        if let (Some(s), Some(b)) = (child(r, "served"), child(r, "batch")) {
            rtt.push(dur_ns(s) / 1e6);
            direct.push(dur_ns(b) / 1e6);
            overhead.push((dur_ns(s) - dur_ns(b)) / 1e6);
        }
    }
    let p50 = |v: &[f64]| percentile(v, 0.5, v.len()).unwrap_or(0.0);

    vec![
        metric("trace.parse.ms", mean_ms(&parse), "ms"),
        metric(
            "trace.parse.mb_per_s",
            sum(&parse, |s| counter(s, "bytes") as f64) / sum(&parse, dur_ns).max(1.0) * 1e3,
            "MB/s",
        ),
        metric("trace.chunked.ms", stream_ms("chunked_ns"), "ms"),
        metric("core.prepare.ms", mean_ms(&batch("core.prepare")), "ms"),
        metric("core.graph.ms", mean_ms(&batch("core.graph")), "ms"),
        metric(
            "core.graph.nodes",
            first_round(&batch("core.graph"), "nodes"),
            "count",
        ),
        metric("core.closure.ms", mean_ms(&closure), "ms"),
        metric("core.closure.word_ops", batch_word_ops, "count"),
        metric(
            "core.closure.ns_per_word_op",
            sum(&closure, dur_ns) / sum(&closure, |s| counter(s, "word_ops") as f64).max(1.0),
            "ns",
        ),
        metric("core.detect.ms", mean_ms(&batch("core.detect")), "ms"),
        metric(
            "core.detect.block_pairs",
            first_round(&batch("core.detect"), "block_pairs"),
            "count",
        ),
        metric("core.classify.ms", mean_ms(&batch("core.classify")), "ms"),
        metric(
            "core.layer_coverage",
            layers_ns / sum(&under(requests, &["batch"]), dur_ns).max(1.0),
            "ratio",
        ),
        metric("core.stream.push_ms", stream_ms("push_ns"), "ms"),
        metric("core.stream.finish_ms", stream_ms("finish_ns"), "ms"),
        metric("core.stream.word_ops", stream_word_ops, "count"),
        metric(
            "core.stream.word_ops_ratio",
            stream_word_ops / batch_word_ops.max(1.0),
            "ratio",
        ),
        metric(
            "core.stream.peak_matrix_bits",
            first_round(&stream, "peak_matrix_bits"),
            "bits",
        ),
        metric(
            "core.stream.first_race_ops",
            first_round(&stream, "first_race_ops"),
            "count",
        ),
        metric("server.rtt_ms", p50(&rtt), "ms"),
        metric("server.direct_ms", p50(&direct), "ms"),
        metric("server.overhead_ms", p50(&overhead), "ms"),
        metric(
            "server.frame_echo_ms",
            mean_ms(&under(requests, &["server.frame_echo"])),
            "ms",
        ),
        metric(
            "server.codec_ms",
            mean_ms(&under(requests, &["server.codec"])),
            "ms",
        ),
        metric(
            "server.store.key_ms",
            mean_ms(&under(requests, &["server.store.key"])),
            "ms",
        ),
        metric(
            "server.store.get_us",
            mean_ms(&under(requests, &["server.store.get"])) * 1e3,
            "us",
        ),
        metric(
            "server.store.insert_ms",
            mean_ms(&under(requests, &["server.store.insert"])),
            "ms",
        ),
    ]
}

/// The text `item` goes down `route` as. Every workload but `served-hit`
/// must miss the server's cache, so an item that already went to the
/// server goes again with a distinct trailing comment line, which the
/// parser skips.
fn request_text<'a>(
    route: Route,
    workload: Workload,
    submissions: &mut HashMap<Pos, u32>,
    pos: Pos,
    item: &'a Item,
) -> Cow<'a, str> {
    if route != Route::Served {
        return Cow::Borrowed(&item.text);
    }
    let sent = submissions.entry(pos).or_default();
    *sent += 1;
    if *sent == 1 || workload == Workload::ServedHit {
        Cow::Borrowed(&item.text)
    } else {
        Cow::Owned(format!("{}# resubmission {}\n", item.text, *sent - 1))
    }
}

/// `1 − traced ÷ untraced throughput` over the traces both phases timed,
/// each at its best time.
fn tracing_overhead(plain: &Best<Pos>, traced: &Best<Pos>) -> f64 {
    let (mut plain_ms, mut traced_ms) = (0.0, 0.0);
    for (pos, t) in traced.iter() {
        if let Some(p) = plain.get(pos) {
            plain_ms += p;
            traced_ms += t;
        }
    }
    1.0 - plain_ms / traced_ms
}

fn child<'a>(span: &'a SpanRecord, name: &str) -> Option<&'a SpanRecord> {
    span.children.iter().find(|c| c.name == name)
}

/// The span at `path` below each request that has one, in request order.
fn under<'a>(requests: &'a [SpanRecord], path: &[&str]) -> Vec<&'a SpanRecord> {
    requests
        .iter()
        .filter_map(|r| path.iter().try_fold(r, |span, name| child(span, name)))
        .collect()
}

fn counter(span: &SpanRecord, name: &str) -> u64 {
    span.counters
        .iter()
        .filter(|(k, _)| k == name)
        .map(|(_, v)| v)
        .sum()
}

fn dur_ns(span: &SpanRecord) -> f64 {
    span.dur_ns as f64
}

fn sum(spans: &[&SpanRecord], value: impl Fn(&SpanRecord) -> f64) -> f64 {
    spans.iter().map(|s| value(s)).sum()
}

fn mean_ms(spans: &[&SpanRecord]) -> f64 {
    sum(spans, dur_ns) / spans.len().max(1) as f64 / 1e6
}

fn secs(durations: impl Iterator<Item = Duration>) -> Vec<f64> {
    durations.map(|d| d.as_secs_f64()).collect()
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// CPU time the whole process has used, the server's threads included.
/// Unlike wall time it leaves out time a thread waited for a processor,
/// whether the kernel gave it to another task or the host to another
/// machine.
fn process_cpu() -> Duration {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        sec: c_long,
        nsec: c_long,
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec`, and Linux defines
    // the clock id.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// The process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}
