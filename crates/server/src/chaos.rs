//! A deterministic chaos harness for the serving layer.
//!
//! [`run_soak`] executes a seeded [`ChaosPlan`]: for each [`Scenario`] it
//! stands up a real in-process server, injects one class of fault —
//! network (torn frames, stalls past the connection deadline), process (shard-worker kill via the `fault_hook`),
//! or disk (torn write-ahead-log tails, corrupt WAL records) — and then
//! checks the serving invariants the resilience layer promises:
//!
//! * **the server never crashes** — every scenario ends in a clean
//!   shutdown with `Server::run` returning `Ok`;
//! * **no accepted job is lost or duplicated** — a report the client
//!   actually received is durable: resubmitting the same content is a
//!   cache hit (never a re-execution), in the same process and, for the
//!   disk scenarios, across a simulated `kill -9` + restart (a clean
//!   shutdown leaves the log exactly as such a kill after the last ack
//!   would);
//! * **every completed report is bit-identical** to a direct
//!   [`LocalService`] run of the same spec and trace.
//!
//! Violations are *counted, not panicked*: the soak returns a
//! [`ChaosReport`] whose violation counts are all zero on a healthy
//! build, and `tests/chaos_soak.rs` asserts them. Every fault site (torn
//! offsets, flipped bytes, the corrupted record) derives from [`ChaosPlan::seed`] —
//! replaying a seed replays the exact fault plan, in the spirit of
//! reproducible-nondeterminism testing.

use std::io::{self, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use droidracer_core::{AnalysisService, ExitClass, JobReport, JobSpec, LocalService};
use droidracer_trace::{to_text, ThreadKind, TraceBuilder};

use crate::client::{Client, RetryPolicy, Submission};
use crate::server::{status_counter, Server, ServerConfig};
use crate::store::{wal_record_ranges, wal_torn_tail_bytes, WAL_PREFIX};

/// One fault class the soak can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// A rogue connection writes half a frame and disconnects.
    TornFrame,
    /// A peer opens a connection and then stalls past the deadline.
    StalledPeer,
    /// The `shard.*` fault hook kills a shard worker thread mid-queue.
    ShardPanic,
    /// The WAL ends in a half-written record (`kill -9` mid-append).
    TornWalTail,
    /// A bit flips inside a non-final WAL record (disk corruption).
    CorruptWalRecord,
}

impl Scenario {
    /// Every scenario, in canonical soak order.
    pub const ALL: [Scenario; 5] = [
        Scenario::TornFrame,
        Scenario::StalledPeer,
        Scenario::ShardPanic,
        Scenario::TornWalTail,
        Scenario::CorruptWalRecord,
    ];

    /// Stable name for logs and reports.
    pub fn label(self) -> &'static str {
        match self {
            Scenario::TornFrame => "torn-frame",
            Scenario::StalledPeer => "stalled-peer",
            Scenario::ShardPanic => "shard-panic",
            Scenario::TornWalTail => "torn-wal-tail",
            Scenario::CorruptWalRecord => "corrupt-wal-record",
        }
    }
}

/// What to soak and how hard.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// Seeds every fault site; same seed, same faults.
    pub seed: u64,
    /// Scenarios to run, in order.
    pub scenarios: Vec<Scenario>,
    /// Distinct jobs submitted per scenario (clamped to ≥ 2).
    pub jobs_per_scenario: usize,
    /// Scratch directory for sockets/caches; each scenario gets a
    /// subdirectory, removed afterwards.
    pub scratch_dir: std::path::PathBuf,
}

impl ChaosPlan {
    /// The full five-scenario soak under `scratch_dir`.
    pub fn full(seed: u64, scratch_dir: impl Into<std::path::PathBuf>) -> Self {
        ChaosPlan {
            seed,
            scenarios: Scenario::ALL.to_vec(),
            jobs_per_scenario: 3,
            scratch_dir: scratch_dir.into(),
        }
    }
}

/// Soak results. The `VIOLATION` fields are all zero on a healthy build;
/// the activity fields record how much chaos actually ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Scenarios executed.
    pub scenarios: u64,
    /// Individual faults injected (torn frames, flipped bytes, panics…).
    pub faults_injected: u64,
    /// Jobs that completed with a report in hand.
    pub jobs_completed: u64,
    /// Client-side retries spent absorbing the faults.
    pub client_retries: u64,
    /// VIOLATION: a submission ended with no report despite retries.
    pub lost_jobs: u64,
    /// VIOLATION: completed work re-executed (a resubmission of an
    /// already-reported job missed the cache).
    pub duplicated_jobs: u64,
    /// VIOLATION: a completed report differed from the direct
    /// [`LocalService`] run.
    pub mismatched_reports: u64,
    /// VIOLATION: `Server::run` returned an error or its thread panicked.
    pub server_crashes: u64,
    /// VIOLATION: a durably-acknowledged cache entry was gone after a
    /// simulated kill + restart (corruption-skipped records excepted —
    /// those are re-executed by design and checked for bit-identity).
    pub unrecovered_entries: u64,
}

impl ChaosReport {
    /// Total invariant violations (0 = the soak passed).
    pub fn violations(&self) -> u64 {
        self.lost_jobs
            + self.duplicated_jobs
            + self.mismatched_reports
            + self.server_crashes
            + self.unrecovered_entries
    }
}

/// xorshift64*: the soak's only randomness source, fully seed-determined.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// A value in `[1, bound)` (for offsets that must not be zero).
    fn nonzero_below(&mut self, bound: usize) -> usize {
        1 + (self.next() as usize) % bound.saturating_sub(1).max(1)
    }
}

/// The `i`-th soak trace: a deterministic racy trace whose shape (and
/// therefore cache key and report) varies with `i`.
fn soak_trace(i: usize) -> String {
    let mut b = TraceBuilder::new();
    let main = b.thread("main", ThreadKind::Main, true);
    let bg = b.thread("bg", ThreadKind::App, false);
    b.thread_init(main);
    b.fork(main, bg);
    b.thread_init(bg);
    for field in 0..=i {
        let loc = b.loc("obj", format!("Chaos.f{field}"));
        b.write(bg, loc);
        b.read(main, loc);
    }
    to_text(&b.finish())
}

/// The ground truth a served report must be bit-identical to.
fn reference(spec: &JobSpec, text: &str) -> JobReport {
    LocalService::new()
        .submit(spec, text)
        .expect("local reference run cannot fail on a soak trace")
}

/// Everything one scenario needs, plus the running tallies.
struct Soak<'a> {
    plan: &'a ChaosPlan,
    rng: Rng,
    report: ChaosReport,
}

/// One live server under test.
struct Harness {
    addr: String,
    handle: std::thread::JoinHandle<io::Result<()>>,
}

impl Harness {
    fn start(config: ServerConfig) -> io::Result<Harness> {
        let server = Server::bind_tcp("127.0.0.1:0", config)?;
        let addr = server
            .local_addr()
            .ok_or_else(|| io::Error::other("no local addr"))?
            .to_string();
        Ok(Harness {
            addr,
            handle: std::thread::spawn(move || server.run()),
        })
    }

    fn client(&self, tenant: &str, seed: u64) -> io::Result<Client> {
        Client::connect_tcp(&self.addr, tenant)?.with_retry_policy(RetryPolicy {
            max_retries: 6,
            base_backoff_ms: 5,
            max_backoff_ms: 100,
            deadline_ms: Some(30_000),
            connect_timeout_ms: Some(2_000),
            io_timeout_ms: Some(10_000),
            seed,
        })
    }

    /// Clean shutdown; a run error or thread panic is a server crash.
    fn stop(self, soak: &mut Soak<'_>) {
        let clean = Client::connect_tcp(&self.addr, "janitor")
            .and_then(|mut c| c.shutdown())
            .is_ok();
        match self.handle.join() {
            Ok(Ok(())) if clean => {}
            _ => soak.report.server_crashes += 1,
        }
    }
}

impl Soak<'_> {
    /// Submits trace `i`, tallies the outcome, and proves no-duplication
    /// by resubmitting: the immediate resubmission of a completed job must
    /// be answered from the cache.
    fn submit_and_check(&mut self, client: &mut Client, spec: &JobSpec, i: usize) {
        let text = soak_trace(i);
        match client.submit_trace(spec, &text) {
            Ok(Submission::Done { report, .. }) => {
                self.report.jobs_completed += 1;
                if report != reference(spec, &text) {
                    self.report.mismatched_reports += 1;
                }
                match client.submit_trace(spec, &text) {
                    Ok(sub) if sub.cache_hit() => {}
                    _ => self.report.duplicated_jobs += 1,
                }
            }
            _ => self.report.lost_jobs += 1,
        }
    }

    /// Polls the server's status until `key` reaches `at_least` (bounded
    /// wait — timeouts and thread scheduling are not instant).
    fn await_counter(&mut self, harness: &Harness, key: &str, at_least: u64) -> bool {
        for _ in 0..100 {
            let count = Client::connect_tcp(&harness.addr, "probe")
                .and_then(|mut c| c.status())
                .ok()
                .and_then(|s| status_counter(&s, key));
            if count.is_some_and(|c| c >= at_least) {
                return true;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        false
    }
}

/// Runs the plan. See the [module docs](self) for the invariants checked.
///
/// # Errors
///
/// Infrastructure failures only (cannot bind, cannot create scratch
/// space). Invariant *violations* are reported in the returned
/// [`ChaosReport`], not as errors.
pub fn run_soak(plan: &ChaosPlan) -> io::Result<ChaosReport> {
    std::fs::create_dir_all(&plan.scratch_dir)?;
    let mut soak = Soak {
        plan,
        rng: Rng::new(plan.seed),
        report: ChaosReport::default(),
    };
    for (idx, scenario) in plan.scenarios.iter().enumerate() {
        let dir = plan.scratch_dir.join(format!("{idx}-{}", scenario.label()));
        std::fs::create_dir_all(&dir)?;
        match scenario {
            Scenario::TornFrame => torn_frame(&mut soak)?,
            Scenario::StalledPeer => stalled_peer(&mut soak)?,
            Scenario::ShardPanic => shard_panic(&mut soak)?,
            Scenario::TornWalTail => torn_wal_tail(&mut soak, &dir)?,
            Scenario::CorruptWalRecord => corrupt_wal_record(&mut soak, &dir)?,
        }
        soak.report.scenarios += 1;
        std::fs::remove_dir_all(&dir).ok();
    }
    Ok(soak.report)
}

/// Rogue connections write torn frames (a truncated length prefix, and a
/// full prefix with a truncated payload) and vanish; polite traffic on
/// other connections must be unaffected.
fn torn_frame(soak: &mut Soak<'_>) -> io::Result<()> {
    let harness = Harness::start(ServerConfig::default())?;
    let spec = JobSpec::default();
    let mut client = harness.client("polite", soak.plan.seed ^ 0x7f)?;
    for i in 0..soak.plan.jobs_per_scenario.max(2) {
        // Interleave: one torn frame before every polite job.
        let payload = crate::protocol::Request::Submit {
            tenant: "rogue".to_owned(),
            spec: spec.to_token(),
            trace: soak_trace(i).into_bytes(),
        }
        .encode();
        let framed = crate::protocol::frame(&payload)?;
        let cut = soak.rng.nonzero_below(framed.len());
        let mut rogue = TcpStream::connect(&harness.addr)?;
        rogue.write_all(&framed[..cut])?;
        drop(rogue);
        soak.report.faults_injected += 1;

        soak.submit_and_check(&mut client, &spec, i);
    }
    let retries = client.stats().retries;
    soak.report.client_retries += retries;
    drop(client);
    harness.stop(soak);
    Ok(())
}

/// A peer connects and stalls; the connection deadline must reap it
/// (visible as `srv.conn_timeouts`) while sibling connections flow.
fn stalled_peer(soak: &mut Soak<'_>) -> io::Result<()> {
    let harness = Harness::start(ServerConfig {
        conn_timeout_ms: Some(100),
        ..ServerConfig::default()
    })?;
    let spec = JobSpec::default();
    // The staller: half a length prefix, then silence past the deadline.
    let mut staller = TcpStream::connect(&harness.addr)?;
    staller.write_all(&[0, 0])?;
    soak.report.faults_injected += 1;

    let mut client = harness.client("polite", soak.plan.seed ^ 0x57a1)?;
    for i in 0..soak.plan.jobs_per_scenario.max(2) {
        soak.submit_and_check(&mut client, &spec, i);
    }
    if !soak.await_counter(&harness, "srv.conn_timeouts", 1) {
        // The stall was never reaped: the deadline mechanism is broken,
        // which in production is a pinned thread — count it as a loss.
        soak.report.lost_jobs += 1;
    }
    drop(staller);
    soak.report.client_retries += client.stats().retries;
    drop(client);
    harness.stop(soak);
    Ok(())
}

/// The fault hook kills a shard worker outside the quarantine boundary.
/// The supervisor must answer the poison job with a `Resource` quarantine
/// report, respawn the worker, and the very next job on that shard must
/// succeed bit-identically.
fn shard_panic(soak: &mut Soak<'_>) -> io::Result<()> {
    let armed = Arc::new(AtomicBool::new(true));
    let hook_armed = Arc::clone(&armed);
    let harness = Harness::start(ServerConfig {
        shards: 2,
        fault_hook: Some(Arc::new(move |phase: &str| {
            if phase == "shard.victim" && hook_armed.swap(false, Ordering::SeqCst) {
                panic!("chaos: injected shard-worker death at {phase}");
            }
        })),
        ..ServerConfig::default()
    })?;
    let spec = JobSpec::default();
    let mut victim = harness.client("victim", soak.plan.seed ^ 0x5a)?;

    // The poison job: the worker dies holding it; the supervisor must
    // still answer with a typed Resource quarantine.
    soak.report.faults_injected += 1;
    match victim.submit_trace(&spec, &soak_trace(0)) {
        Ok(Submission::Done { report, .. }) if report.exit == ExitClass::Resource => {}
        Ok(Submission::Done { .. }) => soak.report.mismatched_reports += 1,
        _ => soak.report.lost_jobs += 1,
    }
    if !soak.await_counter(&harness, "srv.shard_respawns", 1) {
        soak.report.lost_jobs += 1;
    }

    // Same tenant, same shard, fresh worker: jobs complete and match.
    for i in 1..=soak.plan.jobs_per_scenario.max(2) {
        soak.submit_and_check(&mut victim, &spec, i);
    }
    soak.report.client_retries += victim.stats().retries;
    drop(victim);
    harness.stop(soak);
    Ok(())
}

/// Builds a WAL-backed server, runs `jobs` acknowledged submissions, and
/// shuts down — leaving exactly the on-disk state a `kill -9` after the
/// last acknowledgement would: every acked record in the log.
fn populate_wal(soak: &mut Soak<'_>, cache: &Path, spec: &JobSpec, jobs: usize) -> io::Result<()> {
    let harness = Harness::start(ServerConfig {
        cache_path: Some(cache.to_owned()),
        ..ServerConfig::default()
    })?;
    let mut client = harness.client("durable", soak.plan.seed ^ 0xd0)?;
    for i in 0..jobs {
        soak.submit_and_check(&mut client, spec, i);
    }
    soak.report.client_retries += client.stats().retries;
    drop(client);
    harness.stop(soak);
    Ok(())
}

/// Restarts on the same cache and verifies recovery: every previously
/// acknowledged job must be answered from the recovered cache, except keys
/// in `recompute_ok` (corruption-skipped), which must recompute to the
/// bit-identical report.
fn verify_recovery(
    soak: &mut Soak<'_>,
    cache: &Path,
    spec: &JobSpec,
    jobs: usize,
    recompute_ok: Option<usize>,
    expect_counter: (&str, u64),
) -> io::Result<()> {
    let harness = Harness::start(ServerConfig {
        cache_path: Some(cache.to_owned()),
        ..ServerConfig::default()
    })?;
    let mut client = harness.client("durable", soak.plan.seed ^ 0xd1)?;
    for i in 0..jobs {
        let text = soak_trace(i);
        match client.submit_trace(spec, &text) {
            Ok(Submission::Done { cache_hit, report }) => {
                soak.report.jobs_completed += 1;
                if report != reference(spec, &text) {
                    soak.report.mismatched_reports += 1;
                }
                if !cache_hit && recompute_ok != Some(i) {
                    // A durably-acked entry should have been recovered.
                    soak.report.unrecovered_entries += 1;
                }
            }
            _ => soak.report.lost_jobs += 1,
        }
    }
    let (key, at_least) = expect_counter;
    if !soak.await_counter(&harness, key, at_least) {
        soak.report.unrecovered_entries += 1;
    }
    soak.report.client_retries += client.stats().retries;
    drop(client);
    harness.stop(soak);
    Ok(())
}

/// `kill -9` mid-append: the WAL gains a torn tail (a partial record at a
/// seeded byte offset). Restart must truncate the tail and recover every
/// previously acknowledged entry.
fn torn_wal_tail(soak: &mut Soak<'_>, dir: &Path) -> io::Result<()> {
    let cache = dir.join("cache.txt");
    let spec = JobSpec::default();
    let jobs = soak.plan.jobs_per_scenario.max(2);
    populate_wal(soak, &cache, &spec, jobs)?;

    // Tear: append a prefix of a record that was "in flight" at the kill.
    // Real crashes can only tear the unsynced tail — every acked record
    // was fsynced whole — so the tear goes after the last whole record.
    let mut bytes = std::fs::read(&cache)?;
    let torn = wal_torn_tail_bytes(0xfeed_face, b"in-flight record the kill interrupted");
    let cut = soak.rng.nonzero_below(torn.len());
    bytes.extend_from_slice(&torn[..cut]);
    std::fs::write(&cache, &bytes)?;
    soak.report.faults_injected += 1;

    verify_recovery(
        soak,
        &cache,
        &spec,
        jobs,
        None,
        ("srv.wal_torn_truncated", 1),
    )
}

/// Disk corruption: a byte flips inside a non-final WAL record, in its
/// prefix, body or terminator. Restart must skip exactly that record
/// (recovering its neighbors, including later ones) and recompute it
/// bit-identically on resubmission.
fn corrupt_wal_record(soak: &mut Soak<'_>, dir: &Path) -> io::Result<()> {
    let cache = dir.join("cache.txt");
    let spec = JobSpec::default();
    let jobs = soak.plan.jobs_per_scenario.max(3);
    populate_wal(soak, &cache, &spec, jobs)?;

    let mut bytes = std::fs::read(&cache)?;
    let ranges = wal_record_ranges(&bytes);
    if ranges.len() < jobs {
        // Fewer durable records than acked jobs: durability already broke.
        soak.report.unrecovered_entries += (jobs - ranges.len()) as u64;
        return Ok(());
    }
    // Flip one byte of a record that is NOT the last, proving replay
    // resyncs past the corruption instead of truncating at it. Records
    // land in ack order, so record k holds soak trace k.
    let victim = (soak.rng.next() as usize) % (ranges.len() - 1);
    let body = &ranges[victim];
    let record = body.start - WAL_PREFIX..body.end + 1;
    let offset = record.start + soak.rng.nonzero_below(record.len() + 1) - 1;
    bytes[offset] ^= 0x20;
    std::fs::write(&cache, &bytes)?;
    soak.report.faults_injected += 1;

    verify_recovery(
        soak,
        &cache,
        &spec,
        jobs,
        Some(victim),
        ("srv.wal_skipped", 1),
    )
}
