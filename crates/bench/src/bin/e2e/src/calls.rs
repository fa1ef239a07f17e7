//! The three ways a trace reaches a verdict — batch, stream, served — each
//! timed from outside through public functions only.
//!
//! With a [`Recorder`] every call opens one span named after its path
//! (`batch`, `stream`, `served`) under the request span. The batch path
//! then runs layer by layer instead of through the front door, with one
//! child span per layer; the stream path attaches its accumulated layer
//! times as counters, since one span per 64-op chunk would swamp the trace.

use std::collections::BTreeMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use droidracer_core::{
    classify, detect, AnalysisService, CategoryCounts, ClassifiedRace, ExitClass, HappensBefore,
    HbConfig, HbGraph, JobReport, JobSpec, JobStats, LocalService, ReportedRace, StreamEvent,
    StreamOptions, StreamStats, StreamingSession,
};
use droidracer_obs::Recorder;
use droidracer_server::{Client, Server, ServerConfig, Submission};
use droidracer_trace::{from_text, ChunkedReader, Op};

/// Text pieces a streaming client reads at a time.
const PIECE_BYTES: usize = 4096;
/// Operations per streaming-session chunk.
const CHUNK_OPS: usize = 64;

/// The job options every request uses: the paper's configuration.
pub fn spec() -> JobSpec {
    JobSpec::default()
}

/// The batch front door: text in, report out.
pub fn batch(text: &str) -> JobReport {
    LocalService::new()
        .submit(&spec(), text)
        .expect("an in-process submission has no transport to fail")
}

/// The batch pipeline called layer by layer, one span per layer. Builds
/// the same report the front door does.
///
/// # Errors
///
/// Fails on unparseable text.
pub fn batch_layered(text: &str, rec: &mut Recorder) -> Result<JobReport, String> {
    let config = HbConfig::for_mode(spec().mode);
    let trace = rec.time("trace.parse", |r| {
        r.counter("bytes", text.len() as u64);
        from_text(text)
    });
    let trace = trace.map_err(|e| format!("parse: {e}"))?;
    let (trace, index) = rec.time("core.prepare", |_| {
        let trace = trace.without_cancelled();
        let index = trace.index();
        (trace, index)
    });
    let graph = rec.time("core.graph", |r| {
        let graph = HbGraph::build(&trace, &index, config.merge_accesses);
        r.counter("nodes", graph.node_count() as u64);
        graph
    });
    let hb = rec.time("core.closure", |r| {
        let hb = HappensBefore::compute_on_graph(&trace, &index, graph, config);
        r.counter("word_ops", hb.stats().word_ops);
        hb
    });
    let raw = rec.time("core.detect", |r| {
        let raw = detect(&trace, &hb);
        r.counter("block_pairs", raw.len() as u64);
        raw
    });
    let races: Vec<ClassifiedRace> = rec.time("core.classify", |_| {
        raw.into_iter()
            .map(|race| ClassifiedRace {
                category: classify(&trace, &index, &hb, &race),
                race,
            })
            .collect()
    });

    // One representative per (location, category), the first in detection
    // order, listed in key order: how the front door reports.
    let mut reps = BTreeMap::new();
    for cr in &races {
        reps.entry((cr.race.loc, cr.category)).or_insert(*cr);
    }
    let mut counts = CategoryCounts::default();
    let names = trace.names();
    let reported: Vec<ReportedRace> = reps
        .into_values()
        .map(|cr| {
            counts.add(cr.category, 1);
            ReportedRace {
                loc: names.loc_name(cr.race.loc),
                kind: cr.race.kind,
                category: cr.category,
                first: cr.race.first,
                second: cr.race.second,
            }
        })
        .collect();
    let stats = hb.stats();
    Ok(JobReport {
        exit: if reported.is_empty() {
            ExitClass::Clean
        } else {
            ExitClass::Races
        },
        races: reported,
        counts,
        stats: JobStats {
            ops: trace.len() as u64,
            word_ops: stats.word_ops,
            rounds: stats.rounds as u64,
            block_pairs: races.len() as u64,
            streamed: false,
        },
        diagnostics: Vec::new(),
    })
}

/// One streamed trace.
pub struct Streamed {
    /// The session's report.
    pub report: JobReport,
    /// From the first byte pushed to the first emitted race, if any race
    /// was emitted before `finish`.
    pub first_race: Option<Duration>,
    /// Operations pushed when the first race was emitted.
    pub first_race_ops: Option<usize>,
    /// Time in `ChunkedReader::push_text` and `finish`.
    pub chunked: Duration,
    /// Time in `StreamingSession::push_chunk`.
    pub push: Duration,
    /// Time in `StreamingSession::finish`.
    pub finish: Duration,
    /// The session's counters.
    pub stats: StreamStats,
}

/// Streams `text` as a client reading a file would: 4 KiB text pieces
/// through a [`ChunkedReader`], 64-op chunks into a summarizing streaming
/// session, then `finish`.
///
/// # Errors
///
/// Fails on unparseable text.
pub fn stream(text: &str) -> Result<Streamed, String> {
    let mut pusher = Pusher {
        session: spec().builder().streaming(StreamOptions {
            summarize: true,
            ..StreamOptions::default()
        }),
        start: Instant::now(),
        time: Duration::ZERO,
        first_race: None,
    };
    let mut reader = ChunkedReader::new();
    let mut chunked = Duration::ZERO;
    let mut pending: Vec<Op> = Vec::new();
    for piece in pieces(text) {
        let t = Instant::now();
        let ops = reader
            .push_text(piece)
            .map_err(|e| format!("chunked read: {e}"))?;
        chunked += t.elapsed();
        pending.extend(ops);
        let full = pending.len() / CHUNK_OPS * CHUNK_OPS;
        for chunk in pending[..full].chunks(CHUNK_OPS) {
            pusher.push(chunk)?;
        }
        pending.drain(..full);
    }
    let t = Instant::now();
    let (names, ops, diagnostics) = reader.finish().map_err(|e| format!("chunked read: {e}"))?;
    chunked += t.elapsed();
    pending.extend(ops);
    for chunk in pending.chunks(CHUNK_OPS) {
        pusher.push(chunk)?;
    }
    let t = Instant::now();
    let finished = pusher
        .session
        .finish(&names)
        .map_err(|e| format!("stream finish: {e}"))?;
    let finish = t.elapsed();
    let first_race = pusher
        .first_race
        .or_else(|| (!finished.outcome.races.is_empty()).then(|| (pusher.start.elapsed(), 0)));
    Ok(Streamed {
        report: JobReport::from_stream(
            &finished.outcome,
            &names,
            diagnostics.iter().map(|d| format!("repair: {d}")).collect(),
        ),
        first_race: first_race.map(|(at, _)| at),
        first_race_ops: pusher.first_race.map(|(_, ops)| ops),
        chunked,
        push: pusher.time,
        finish,
        stats: finished.outcome.stats,
    })
}

/// `text` in [`PIECE_BYTES`] pieces, each cut at a character boundary.
fn pieces(text: &str) -> impl Iterator<Item = &str> {
    let mut rest = text;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let mut cut = PIECE_BYTES.min(rest.len());
        while !rest.is_char_boundary(cut) {
            cut += 1;
        }
        let (piece, tail) = rest.split_at(cut);
        rest = tail;
        Some(piece)
    })
}

/// A streaming session that times its pushes and notes the first emission.
struct Pusher {
    session: StreamingSession,
    start: Instant,
    time: Duration,
    /// Time since `start` and operations pushed at the first emission.
    first_race: Option<(Duration, usize)>,
}

impl Pusher {
    fn push(&mut self, ops: &[Op]) -> Result<(), String> {
        let t = Instant::now();
        let events = self
            .session
            .push_chunk(ops)
            .map_err(|e| format!("stream: {e}"))?;
        self.time += t.elapsed();
        if self.first_race.is_none() {
            if let Some(StreamEvent::Emitted(e)) = events.first() {
                self.first_race = Some((self.start.elapsed(), e.at));
            }
        }
        Ok(())
    }
}

/// Submits `text` over the client's connection.
///
/// # Errors
///
/// Transport failures, and a refused or shed job.
pub fn served(client: &mut Client, text: &str) -> Result<(JobReport, bool), String> {
    match client.submit_trace(&spec(), text) {
        Ok(Submission::Done { cache_hit, report }) => Ok((report, cache_hit)),
        Ok(other) => Err(format!("server did not run the job: {other:?}")),
        Err(e) => Err(format!("transport: {e}")),
    }
}

/// An in-process server on a loopback port, with its WAL cache in its own
/// directory, and the one client connection that talks to it.
pub struct Served {
    /// The connection every request uses.
    pub client: Client,
    thread: JoinHandle<io::Result<()>>,
    dir: PathBuf,
}

impl Served {
    /// Binds a server with default shards and a WAL cache under `dir`,
    /// runs it, and connects. Returns once the server answered a status
    /// request, so the cache is open.
    ///
    /// # Errors
    ///
    /// Bind, WAL and connect failures.
    pub fn start(dir: &Path) -> Result<Served, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let config = ServerConfig {
            cache_path: Some(dir.join("cache")),
            ..ServerConfig::default()
        };
        let server = Server::bind_tcp("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .ok_or("a TCP server has an address")?
            .to_string();
        let thread = std::thread::spawn(move || server.run());
        let mut client =
            Client::connect_tcp(&addr, "bench").map_err(|e| format!("connect: {e}"))?;
        client.status().map_err(|e| format!("status: {e}"))?;
        Ok(Served {
            client,
            thread,
            dir: dir.to_owned(),
        })
    }

    /// Shuts the server down, waits for it, and removes its directory.
    ///
    /// # Errors
    ///
    /// A server that would not stop cleanly.
    pub fn stop(mut self) -> Result<(), String> {
        self.client
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        match self.thread.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => return Err(format!("server: {e}")),
            Err(_) => return Err("server thread panicked".to_owned()),
        }
        std::fs::remove_dir_all(&self.dir).map_err(|e| format!("{}: {e}", self.dir.display()))
    }
}

/// A loopback peer that echoes every frame back, for timing frame I/O the
/// way the server and client do it.
pub struct Echo {
    /// The bench's end of the connection.
    pub stream: TcpStream,
    thread: JoinHandle<()>,
}

impl Echo {
    /// Starts the peer and connects to it.
    ///
    /// # Errors
    ///
    /// Bind and connect failures.
    pub fn start() -> Result<Echo, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("bind: {e}"))?;
        let thread = std::thread::spawn(move || {
            let Ok((mut peer, _)) = listener.accept() else {
                return;
            };
            while let Ok(Some(frame)) = droidracer_server::protocol::read_frame(&mut peer) {
                if droidracer_server::protocol::write_frame(&mut peer, &frame).is_err() {
                    return;
                }
            }
        });
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        Ok(Echo { stream, thread })
    }

    /// Closes the connection and waits for the peer to end.
    pub fn stop(self) {
        drop(self.stream);
        // The peer only reads and writes frames; it cannot panic.
        let _ = self.thread.join();
    }
}
