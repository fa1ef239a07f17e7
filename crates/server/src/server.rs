//! The sharded multi-tenant analysis daemon.
//!
//! One acceptor thread owns the listening socket; each connection gets its
//! own handler thread speaking the framed [`protocol`](crate::protocol).
//! Analysis work never runs on a connection thread: jobs are routed to one
//! of N *shard* workers by a stable hash of the tenant name, so one
//! abusive tenant can back up only its own shard's queue while sibling
//! tenants' jobs flow through the other shards untouched.
//!
//! Isolation is layered per job, reusing the batch pipeline's primitives:
//!
//! * every job runs inside [`droidracer_core::run_isolated`] — a panicking
//!   worker is quarantined into a `Resource` report and the shard thread
//!   survives;
//! * every job's spec is clamped to the server's per-job [`Budget`] caps
//!   and to the tenant's remaining cumulative word-ops quota, so runaway
//!   inputs hit a typed `Resource` cutoff;
//! * results of completed jobs land in the content-addressed result
//!   cache, keyed by spec token + trace bytes — a resubmission is
//!   answered from the cache with zero recomputation (the tenant's
//!   `hb.word_ops` counter does not move).
//!
//! On top of per-job isolation the serving layer degrades gracefully under
//! infrastructure faults:
//!
//! * **admission control** — each shard's queue is bounded
//!   ([`ServerConfig::queue_depth`]); when it fills, jobs are shed with a
//!   typed [`Response::Overloaded`] carrying a retry-after hint instead of
//!   queueing unboundedly (`srv.overloaded`);
//! * **connection deadlines** — [`ServerConfig::conn_timeout_ms`] bounds
//!   every read and write, so a stalled peer costs one timeout, not a
//!   pinned thread forever (`srv.conn_timeouts`);
//! * **shard supervision** — a supervisor thread per shard detects a dead
//!   worker (a panic that escaped even the quarantine boundary), answers
//!   the in-flight job with a `Resource` quarantine report, and respawns
//!   the worker on the same queue (`srv.shard_respawns`);
//! * **crash-safe cache** — with [`ServerConfig::cache_path`] set the
//!   cache is a [`WalStore`]: inserts are fsynced to its append-only log
//!   *before* the response frame is written, so an acknowledged result
//!   survives `kill -9` at any byte offset and is recovered on restart.
//!
//! Accounting is per tenant through `droidracer-obs` registries: each
//! executed job's deterministic counters (`hb.word_ops`, `trace.ops`,
//! representative race counts) are absorbed into the owning tenant's
//! registry, and the `srv.*` service counters are kept both globally and
//! per tenant. [`Request::Status`] renders the whole picture as
//! `key=value` lines.

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use droidracer_core::{
    run_isolated, AnalysisService, ExitClass, FaultHook, ItemError, JobReport, JobSpec,
    LocalService,
};
use droidracer_obs::{MetricValue, MetricsRegistry, Recorder};

use crate::protocol::{read_frame, write_frame, Conn, Request, Response};
use crate::store::{job_key, WalStore};

/// The retry-after hint sent with [`Response::Overloaded`].
const RETRY_AFTER_MS: u64 = 100;

/// Server tuning knobs. `Default` is permissive: any tenant, 2 shards,
/// 8 MiB traces, 64-deep queues, no budgets, no connection deadline, no
/// cache persistence.
#[derive(Clone, Default)]
pub struct ServerConfig {
    /// Number of shard worker threads (clamped to ≥ 1).
    pub shards: usize,
    /// Tenant allowlist; `None` admits any tenant name.
    pub allowed_tenants: Option<Vec<String>>,
    /// Largest accepted trace upload in bytes (0 = default 8 MiB).
    pub max_trace_bytes: usize,
    /// Per-job cap on happens-before word-ops, applied on top of (i.e.
    /// `min` with) whatever the job's own spec asks for.
    pub max_job_ops: Option<u64>,
    /// Per-job cap on relation-matrix bits, applied the same way.
    pub max_job_matrix_bits: Option<u64>,
    /// Cumulative word-ops quota per tenant; once a tenant has spent it,
    /// further jobs are refused with a `Resource` report.
    pub tenant_quota_ops: Option<u64>,
    /// Persist the result cache here: one append-only log at this path,
    /// replayed on start.
    pub cache_path: Option<PathBuf>,
    /// Bound on each shard's admission queue (0 = default 64). A full
    /// queue sheds with [`Response::Overloaded`] instead of queueing.
    pub queue_depth: usize,
    /// Per-connection read/write deadline; `None` blocks forever (the
    /// pre-hardening behavior). A timed-out connection is dropped.
    pub conn_timeout_ms: Option<u64>,
    /// Fault-injection hook, invoked as `job.<tenant>` on each job inside
    /// the quarantine boundary and as `shard.<tenant>` on the worker
    /// thread *outside* it (a panic there kills the worker and exercises
    /// the supervisor). Test/bench only — never reachable from the wire.
    pub fault_hook: Option<FaultHook>,
}

impl ServerConfig {
    fn shards(&self) -> usize {
        self.shards.max(1)
    }

    fn max_trace_bytes(&self) -> usize {
        if self.max_trace_bytes == 0 {
            8 << 20
        } else {
            self.max_trace_bytes
        }
    }

    fn queue_depth(&self) -> usize {
        if self.queue_depth == 0 {
            64
        } else {
            self.queue_depth
        }
    }
}

/// Per-tenant accounting: cumulative word-ops spent and the tenant's
/// metrics registry.
#[derive(Default)]
struct TenantState {
    used_ops: u64,
    metrics: MetricsRegistry,
}

/// The in-memory cache plus, when persistence is on, its durable form.
enum Cache {
    Mem(BTreeMap<u64, JobReport>),
    Wal(WalStore),
}

impl Cache {
    fn get(&self, key: u64) -> Option<&JobReport> {
        match self {
            Cache::Mem(s) => s.get(&key),
            Cache::Wal(s) => s.get(key),
        }
    }

    /// Inserts, durably when WAL-backed: the record is fsynced before this
    /// returns, so callers may acknowledge the result afterwards.
    fn insert(&mut self, key: u64, report: JobReport) -> io::Result<()> {
        match self {
            Cache::Mem(s) => {
                s.insert(key, report);
                Ok(())
            }
            Cache::Wal(s) => s.insert(key, report),
        }
    }
}

/// State shared by the acceptor, connection handlers and shard workers.
struct Shared {
    config: ServerConfig,
    cache: Mutex<Cache>,
    tenants: Mutex<BTreeMap<String, TenantState>>,
    metrics: Mutex<MetricsRegistry>,
    shutdown: AtomicBool,
}

impl Shared {
    fn bump(&self, key: &str) {
        self.metrics.lock().unwrap().counter_add(key, 1);
    }

    fn bump_tenant(&self, tenant: &str, key: &str, delta: u64) {
        let mut tenants = self.tenants.lock().unwrap();
        tenants
            .entry(tenant.to_owned())
            .or_default()
            .metrics
            .counter_add(key, delta);
    }

    fn observe(&self, key: &str, value: u64) {
        self.metrics.lock().unwrap().observe(key, value);
    }

    /// Renders the status snapshot: global `srv.*` metrics first, then
    /// `tenant.<name>.*` lines, all sorted (BTreeMap order).
    fn render_status(&self) -> String {
        let mut out = String::new();
        render_metrics(&mut out, "", &self.metrics.lock().unwrap());
        for (tenant, state) in self.tenants.lock().unwrap().iter() {
            out.push_str(&format!("tenant.{tenant}.used_ops={}\n", state.used_ops));
            render_metrics(&mut out, &format!("tenant.{tenant}."), &state.metrics);
        }
        out
    }
}

/// Appends `metrics` as integer `key=value` lines (the form
/// [`status_counter`] parses): a counter as itself, a histogram as
/// `<name>.count`, `<name>.p50_le` and `<name>.p99_le` — power-of-two
/// bucket upper bounds. Gauges are skipped.
fn render_metrics(out: &mut String, prefix: &str, metrics: &MetricsRegistry) {
    for (name, value) in metrics.iter() {
        match value {
            MetricValue::Counter(v) => out.push_str(&format!("{prefix}{name}={v}\n")),
            MetricValue::Histogram(h) => out.push_str(&format!(
                "{prefix}{name}.count={}\n{prefix}{name}.p50_le={}\n{prefix}{name}.p99_le={}\n",
                h.count,
                h.quantile_upper(0.5),
                h.quantile_upper(0.99)
            )),
            MetricValue::Gauge(_) => {}
        }
    }
}

/// One unit of shard work.
struct Job {
    tenant: String,
    spec: JobSpec,
    trace_text: String,
    reply: mpsc::Sender<JobReport>,
}

/// Executes one job on a shard worker: quota gate, budget clamp,
/// quarantined run, per-tenant accounting.
fn execute_job(shared: &Shared, job: Job) {
    let mut spec = job.spec;
    // Quota gate + per-job clamps. The tenant's remaining quota caps the
    // job's op budget, so a tenant can never spend past its quota even
    // in one giant job.
    let remaining = {
        let mut tenants = shared.tenants.lock().unwrap();
        let state = tenants.entry(job.tenant.clone()).or_default();
        shared
            .config
            .tenant_quota_ops
            .map(|quota| quota.saturating_sub(state.used_ops))
    };
    if remaining == Some(0) {
        shared.bump("srv.budget_exhausted");
        shared.bump_tenant(&job.tenant, "srv.budget_exhausted", 1);
        let _ = job.reply.send(JobReport::aborted(
            ExitClass::Resource,
            format!("tenant `{}` word-ops quota exhausted", job.tenant),
        ));
        return;
    }
    for cap in [shared.config.max_job_ops, remaining].into_iter().flatten() {
        spec.max_ops = Some(spec.max_ops.map_or(cap, |own| own.min(cap)));
    }
    if let Some(cap) = shared.config.max_job_matrix_bits {
        spec.max_matrix_bits = Some(spec.max_matrix_bits.map_or(cap, |own| own.min(cap)));
    }

    // The quarantine boundary: fault hook + analysis. A panic anywhere in
    // here becomes a Resource report; the shard thread survives.
    let hook = shared.config.fault_hook.clone();
    let tenant = job.tenant.clone();
    let mut rec = Recorder::new();
    rec.start("job");
    let outcome = run_isolated(move || -> Result<JobReport, io::Error> {
        if let Some(hook) = hook {
            hook(&format!("job.{tenant}"));
        }
        LocalService::new().submit(&spec, &job.trace_text)
    });
    rec.end();
    let spans = rec.finish();
    let mut quarantined = false;
    let report = match outcome {
        Ok(report) => report,
        Err(ItemError::Err(e)) => JobReport::aborted(ExitClass::Invalid, e.to_string()),
        Err(ItemError::Panic(msg)) => {
            quarantined = true;
            shared.bump("srv.quarantined");
            shared.bump_tenant(&job.tenant, "srv.quarantined", 1);
            JobReport::aborted(ExitClass::Resource, format!("worker quarantined: {msg}"))
        }
    };

    // Per-tenant accounting of the deterministic counters actually spent.
    {
        let mut tenants = shared.tenants.lock().unwrap();
        let state = tenants.entry(job.tenant.clone()).or_default();
        state.used_ops += report.stats.word_ops;
        state
            .metrics
            .counter_add("hb.word_ops", report.stats.word_ops);
        state.metrics.counter_add("trace.ops", report.stats.ops);
        state
            .metrics
            .counter_add("races.representatives", report.counts.total() as u64);
        state.metrics.counter_add("srv.jobs", 1);
        state
            .metrics
            .counter_add("srv.job_spans", spans.len() as u64);
    }
    shared.bump("srv.jobs");
    if report.exit == ExitClass::Resource && !quarantined {
        shared.bump("srv.budget_exhausted");
        shared.bump_tenant(&job.tenant, "srv.budget_exhausted", 1);
    }
    if report.exit == ExitClass::Invalid {
        shared.bump("srv.invalid");
    }
    let _ = job.reply.send(report);
}

/// The shard a tenant's jobs are routed to: a stable hash of the tenant
/// name modulo the shard count.
fn shard_of(tenant: &str, shards: usize) -> usize {
    (job_key("tenant-shard", tenant.as_bytes()) % shards as u64) as usize
}

/// The job the shard worker is executing right now, published so the
/// supervisor can answer it if the worker dies mid-job.
struct InFlight {
    tenant: String,
    reply: mpsc::Sender<JobReport>,
}

/// One supervised shard: a worker thread pulling from a shared (Mutex'd)
/// receiver, and a supervisor loop that respawns the worker when it dies.
///
/// The worker can only die from a panic *outside* the per-job quarantine
/// boundary — in practice the `shard.<tenant>` fault hook, standing in for
/// "anything `catch_unwind` can't contain" (abort-on-double-panic is the
/// one real gap a same-process supervisor can't cover; the WAL covers it).
/// The supervisor quarantines the in-flight job with a `Resource` report
/// (same contract as `run_isolated`'s) and hands the queue — with every
/// not-yet-started job intact — to a fresh worker.
fn supervise_shard(shared: Arc<Shared>, rx: Arc<Mutex<mpsc::Receiver<Job>>>) {
    loop {
        let inflight: Arc<Mutex<Option<InFlight>>> = Arc::new(Mutex::new(None));
        let worker = {
            let shared = Arc::clone(&shared);
            let rx = Arc::clone(&rx);
            let inflight = Arc::clone(&inflight);
            std::thread::spawn(move || {
                loop {
                    // Hold the receiver lock only while dequeueing, never
                    // while executing.
                    let job = match rx.lock().unwrap().recv() {
                        Ok(job) => job,
                        Err(_) => return, // all senders gone: clean drain
                    };
                    *inflight.lock().unwrap() = Some(InFlight {
                        tenant: job.tenant.clone(),
                        reply: job.reply.clone(),
                    });
                    if let Some(hook) = &shared.config.fault_hook {
                        // Outside run_isolated on purpose: a panic here is
                        // a worker death, not a quarantined job.
                        hook(&format!("shard.{}", job.tenant));
                    }
                    execute_job(&shared, job);
                    *inflight.lock().unwrap() = None;
                }
            })
        };
        match worker.join() {
            Ok(()) => return, // queue drained; shard is done
            Err(_) => {
                shared.bump("srv.shard_respawns");
                if let Some(poison) = inflight.lock().unwrap().take() {
                    shared.bump("srv.quarantined");
                    shared.bump_tenant(&poison.tenant, "srv.quarantined", 1);
                    let _ = poison.reply.send(JobReport::aborted(
                        ExitClass::Resource,
                        "shard worker died; job quarantined and worker respawned".to_owned(),
                    ));
                }
            }
        }
    }
}

/// Whether an I/O error is a connection deadline expiring (both kinds
/// occur depending on platform and socket family).
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Handles one client connection until EOF, timeout, or shutdown.
fn handle_conn(
    shared: &Shared,
    shard_txs: &[mpsc::SyncSender<Job>],
    wake: &dyn Fn(),
    mut conn: Box<dyn Conn>,
) {
    loop {
        let payload = match read_frame(&mut conn) {
            Ok(Some(payload)) => payload,
            Ok(None) => return,
            Err(e) => {
                // A stalled peer hit the connection deadline; a torn frame
                // or disconnect just drops. Either way the connection is
                // unusable.
                if is_timeout(&e) {
                    shared.bump("srv.conn_timeouts");
                }
                return;
            }
        };
        // Latency runs from the fully read frame to the fully written
        // response: decode, admission, queue wait, analysis or cache
        // lookup, the WAL insert, encode and write.
        let started = Instant::now();
        let response = match Request::decode(&payload) {
            // Typed decode errors are answered, not fatal: the framing is
            // intact, so the conversation can continue.
            Err(e) => {
                shared.bump("srv.rejected");
                Response::Rejected {
                    reason: format!("bad request: {e}"),
                }
            }
            Ok(Request::Submit {
                tenant,
                spec,
                trace,
            }) => submit_response(shared, shard_txs, tenant, &spec, trace),
            Ok(Request::Status) => Response::Status {
                text: shared.render_status(),
            },
            Ok(Request::Shutdown) => {
                shared.shutdown.store(true, Ordering::SeqCst);
                let _ = write_frame(&mut conn, &Response::Bye.encode());
                wake();
                return;
            }
        };
        // Linux charges a running thread's time to the process CPU clock
        // only at a scheduling event; yield so an in-process client that
        // reads it once the reply lands counts this request (DESIGN §15).
        std::thread::yield_now();
        if let Err(e) = write_frame(&mut conn, &response.encode()) {
            if is_timeout(&e) {
                shared.bump("srv.conn_timeouts");
            }
            return;
        }
        shared.observe("srv.request_us", started.elapsed().as_micros() as u64);
    }
}

/// Admission checks: a nonempty tenant name on the allowlist, if any.
fn admit(shared: &Shared, tenant: &str) -> Result<(), String> {
    if tenant.is_empty() {
        return Err("empty tenant name".to_owned());
    }
    if let Some(allowed) = &shared.config.allowed_tenants {
        if !allowed.iter().any(|t| t == tenant) {
            return Err(format!("unknown tenant `{tenant}`"));
        }
    }
    Ok(())
}

fn parse_spec(token: &str) -> Result<JobSpec, String> {
    JobSpec::from_token(token).map_err(|e| format!("bad job spec: {e}"))
}

/// Full submit path: admission → cache → bounded shard dispatch → durable
/// cache fill. The cache insert (WAL append + fsync when persistent)
/// happens *before* the `Response` is returned for framing, so a response
/// the client managed to read always refers to a durable result.
fn submit_response(
    shared: &Shared,
    shard_txs: &[mpsc::SyncSender<Job>],
    tenant: String,
    spec_token: &str,
    trace: Vec<u8>,
) -> Response {
    let admitted = admit(shared, &tenant)
        .and_then(|()| parse_spec(spec_token))
        .and_then(|spec| {
            if trace.len() > shared.config.max_trace_bytes() {
                return Err(format!(
                    "trace of {} bytes exceeds limit {}",
                    trace.len(),
                    shared.config.max_trace_bytes()
                ));
            }
            String::from_utf8(trace)
                .map(|text| (spec, text))
                .map_err(|_| "trace is not valid UTF-8".to_owned())
        });
    let (spec, text) = match admitted {
        Ok(parsed) => parsed,
        Err(reason) => {
            shared.bump("srv.rejected");
            return Response::Rejected { reason };
        }
    };

    // Content-addressed cache: same spec token + same trace bytes, same
    // report.
    let key = job_key(spec_token, text.as_bytes());
    if let Some(report) = shared.cache.lock().unwrap().get(key) {
        shared.bump("srv.cache_hits");
        shared.bump_tenant(&tenant, "srv.cache_hits", 1);
        return Response::Report {
            cache_hit: true,
            record: report.to_record(),
        };
    }

    let (reply_tx, reply_rx) = mpsc::channel();
    let shard = shard_of(&tenant, shard_txs.len());
    let job = Job {
        tenant: tenant.clone(),
        spec,
        trace_text: text,
        reply: reply_tx,
    };
    // Bounded admission: a full queue sheds the job *before* any work or
    // cache mutation, so the client can resubmit with no duplication risk.
    match shard_txs[shard].try_send(job) {
        Ok(()) => {}
        Err(mpsc::TrySendError::Full(_)) => {
            shared.bump("srv.overloaded");
            shared.bump_tenant(&tenant, "srv.overloaded", 1);
            return Response::Overloaded {
                retry_after_ms: RETRY_AFTER_MS,
            };
        }
        Err(mpsc::TrySendError::Disconnected(_)) => {
            return Response::Rejected {
                reason: "server is shutting down".to_owned(),
            }
        }
    }
    let report = match reply_rx.recv() {
        Ok(report) => report,
        Err(_) => {
            return Response::Rejected {
                reason: "shard worker lost".to_owned(),
            }
        }
    };
    // Cache completed analyses, durably (fsynced) when the cache is
    // WAL-backed — this runs before the response frame is written, so an
    // acknowledged report is a recoverable report. Resource reports depend
    // on quota state at execution time, so they are not memoizable.
    if report.exit != ExitClass::Resource {
        match shared.cache.lock().unwrap().insert(key, report.clone()) {
            Ok(()) => shared.bump("srv.cache_stores"),
            Err(_) => {
                // The disk failed under the WAL; the result still serves
                // from memory for this process's lifetime.
                shared.bump("srv.wal_errors");
            }
        }
    }
    Response::Report {
        cache_hit: false,
        record: report.to_record(),
    }
}

/// The listening socket, TCP or Unix.
enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

/// A bound (but not yet running) analysis server.
pub struct Server {
    listener: Listener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds a TCP listener (`127.0.0.1:0` picks an ephemeral port —
    /// read it back with [`Server::local_addr`]).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind_tcp(addr: &str, config: ServerConfig) -> io::Result<Server> {
        Ok(Server {
            listener: Listener::Tcp(TcpListener::bind(addr)?),
            shared: Arc::new(Shared::new(config)),
        })
    }

    /// Binds a Unix-domain listener at `path` (removing a stale socket
    /// file first).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind_unix(path: &Path, config: ServerConfig) -> io::Result<Server> {
        if path.exists() {
            std::fs::remove_file(path)?;
        }
        Ok(Server {
            listener: Listener::Unix(UnixListener::bind(path)?, path.to_owned()),
            shared: Arc::new(Shared::new(config)),
        })
    }

    /// The bound TCP address (`None` for Unix sockets).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match &self.listener {
            Listener::Tcp(l) => l.local_addr().ok(),
            Listener::Unix(..) => None,
        }
    }

    /// Serves until a [`Request::Shutdown`] arrives, then drains the
    /// shard queues. Opens the durable store first: the log is replayed,
    /// truncating any torn tail; a foreign header and damaged records are
    /// skipped (counted under `srv.cache_load_skipped`), and the same open
    /// compacts them out of the file. Shutdown leaves the log as it is:
    /// every acknowledged result is already in it.
    ///
    /// # Errors
    ///
    /// Fatal listener or cache-I/O errors only; per-connection errors drop
    /// that connection.
    pub fn run(self) -> io::Result<()> {
        let shared = self.shared;
        if let Some(path) = &shared.config.cache_path {
            let (wal, diags) = WalStore::open(path)?;
            let stats = wal.stats();
            let mut metrics = shared.metrics.lock().unwrap();
            metrics.counter_add("srv.cache_load_skipped", diags.len() as u64);
            metrics.counter_add("srv.cache_preloaded", wal.len() as u64);
            metrics.counter_add("srv.wal_replayed", stats.replayed);
            metrics.counter_add("srv.wal_skipped", stats.skipped);
            metrics.counter_add("srv.wal_torn_truncated", stats.torn_truncated);
            drop(metrics);
            *shared.cache.lock().unwrap() = Cache::Wal(wal);
        }
        let shards = shared.config.shards();
        let depth = shared.config.queue_depth();
        let mut shard_txs = Vec::with_capacity(shards);
        let mut shard_rxs = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = mpsc::sync_channel::<Job>(depth);
            shard_txs.push(tx);
            shard_rxs.push(Arc::new(Mutex::new(rx)));
        }
        let wake: Arc<dyn Fn() + Send + Sync> = match &self.listener {
            Listener::Tcp(l) => {
                let addr = l.local_addr()?;
                Arc::new(move || {
                    let _ = TcpStream::connect(addr);
                })
            }
            Listener::Unix(_, path) => {
                let path = path.clone();
                Arc::new(move || {
                    let _ = UnixStream::connect(&path);
                })
            }
        };

        let mut supervisors = Vec::with_capacity(shards);
        for rx in shard_rxs {
            let shared = Arc::clone(&shared);
            supervisors.push(std::thread::spawn(move || supervise_shard(shared, rx)));
        }
        let conn_timeout = shared.config.conn_timeout_ms.map(Duration::from_millis);
        loop {
            let conn: Box<dyn Conn> = match &self.listener {
                Listener::Tcp(l) => Box::new(l.accept()?.0),
                Listener::Unix(l, _) => Box::new(l.accept()?.0),
            };
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            if conn.configure(conn_timeout).is_err() {
                continue; // can't configure it: refuse rather than risk a pin
            }
            let shared = Arc::clone(&shared);
            let txs = shard_txs.clone();
            let wake = Arc::clone(&wake);
            std::thread::spawn(move || handle_conn(&shared, &txs, &*wake, conn));
        }
        // Dropping our senders ends the shard workers once every
        // connection's clone is gone and the queues drain; joining the
        // supervisors lets every accepted job finish before `run` returns.
        drop(shard_txs);
        for supervisor in supervisors {
            let _ = supervisor.join();
        }

        if let Listener::Unix(_, path) = &self.listener {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

impl Shared {
    fn new(config: ServerConfig) -> Self {
        Shared {
            config,
            cache: Mutex::new(Cache::Mem(BTreeMap::new())),
            tenants: Mutex::new(BTreeMap::new()),
            metrics: Mutex::new(MetricsRegistry::new()),
            shutdown: AtomicBool::new(false),
        }
    }
}

/// Parses one counter out of a [`Request::Status`] snapshot.
pub fn status_counter(status_text: &str, key: &str) -> Option<u64> {
    status_text.lines().find_map(|line| {
        let (k, v) = line.split_once('=')?;
        if k == key {
            v.parse().ok()
        } else {
            None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        for shards in [1, 2, 7] {
            for tenant in ["alice", "bob", "mallory", ""] {
                let s = shard_of(tenant, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(tenant, shards), "stable");
            }
        }
        // Distinct tenants can land on distinct shards (sanity, not proof).
        let hits: std::collections::HashSet<usize> = ["a", "b", "c", "d", "e", "f"]
            .iter()
            .map(|t| shard_of(t, 4))
            .collect();
        assert!(hits.len() > 1, "all tenants on one shard of 4");
    }

    #[test]
    fn status_counter_parses_lines() {
        let text = "srv.jobs=3\ntenant.alice.hb.word_ops=120\nnoise\n";
        assert_eq!(status_counter(text, "srv.jobs"), Some(3));
        assert_eq!(status_counter(text, "tenant.alice.hb.word_ops"), Some(120));
        assert_eq!(status_counter(text, "missing"), None);
    }
}
