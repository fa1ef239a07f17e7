//! Live end-to-end tests: a real server on an ephemeral TCP port (and a
//! Unix socket), real clients over the framed protocol.

use std::path::PathBuf;
use std::sync::Arc;

use droidracer_core::{AnalysisService, ExitClass, JobSpec, LocalService};
use droidracer_server::protocol::{read_frame, write_frame};
use droidracer_server::{
    status_counter, Client, Request, Response, Server, ServerConfig, Submission, WIRE_VERSION,
};
use droidracer_trace::{to_text, ThreadKind, TraceBuilder};

/// A small racy trace (one multithreaded race).
fn racy_text() -> String {
    let mut b = TraceBuilder::new();
    let main = b.thread("main", ThreadKind::Main, true);
    let bg = b.thread("bg", ThreadKind::App, false);
    let loc = b.loc("obj", "C.state");
    b.thread_init(main);
    b.fork(main, bg);
    b.thread_init(bg);
    b.write(bg, loc);
    b.read(main, loc);
    to_text(&b.finish())
}

/// Starts a server on an ephemeral TCP port; returns its address and the
/// join handle (joined after a clean shutdown).
fn start_tcp(config: ServerConfig) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind_tcp("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().expect("tcp addr").to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

#[test]
fn submit_twice_second_is_cache_hit() {
    let (addr, server) = start_tcp(ServerConfig::default());
    let mut client = Client::connect_tcp(&addr, "alice").expect("connect");
    let spec = JobSpec::default();
    let text = racy_text();

    let first = client.submit_trace(&spec, &text).expect("submit");
    assert!(!first.cache_hit());
    let report = first.report().expect("completed").clone();
    assert_eq!(report.exit, ExitClass::Races);

    // Direct equality: the server's report is exactly the local one.
    let local = LocalService::new().submit(&spec, &text).expect("local");
    assert_eq!(report, local);

    let second = client.submit_trace(&spec, &text).expect("submit");
    assert!(second.cache_hit(), "second submission must hit the cache");
    assert_eq!(second.report(), Some(&report), "cached report identical");

    // The cache hit did zero analysis work: the tenant's word-ops counter
    // did not move between the two submissions.
    let status = client.status().expect("status");
    assert_eq!(
        status_counter(&status, "tenant.alice.hb.word_ops"),
        Some(local.stats.word_ops),
        "{status}"
    );
    assert_eq!(
        status_counter(&status, "srv.cache_hits"),
        Some(1),
        "{status}"
    );
    assert_eq!(status_counter(&status, "srv.jobs"), Some(1), "{status}");

    client.shutdown().expect("shutdown");
    drop(client);
    server.join().expect("join").expect("clean run");
}

/// One miss and one hit: both take a digest and a cache lookup, only the
/// miss queues a job and inserts its report, and every answered request
/// is decoded and replied to.
#[test]
fn layer_histograms_count_what_each_request_reached() {
    let (addr, server) = start_tcp(ServerConfig::default());
    let mut client = Client::connect_tcp(&addr, "alice").expect("connect");
    let text = racy_text();
    assert!(!client
        .submit_trace(&JobSpec::default(), &text)
        .unwrap()
        .cache_hit());
    assert!(client
        .submit_trace(&JobSpec::default(), &text)
        .unwrap()
        .cache_hit());
    let status = client.status().expect("status");
    for (layer, count) in [
        ("decode", 2),
        ("key", 2),
        ("cache", 2),
        ("job", 1),
        ("insert", 1),
        ("reply", 2),
    ] {
        let name = format!("srv.layer.{layer}_us");
        assert_eq!(
            status_counter(&status, &format!("{name}.count")),
            Some(count),
            "{status}"
        );
        let p50 = status_counter(&status, &format!("{name}.p50_le")).expect("p50");
        let p99 = status_counter(&status, &format!("{name}.p99_le")).expect("p99");
        assert!(p50 <= p99, "{status}");
    }
    client.shutdown().expect("shutdown");
    drop(client);
    server.join().expect("join").expect("clean run");
}

/// Many small round trips on one reused TCP connection must cost
/// microseconds each, not the ~40 ms of a Nagle + delayed-ACK stall (which
/// a frame split over two writes without `TCP_NODELAY` pays every time).
#[test]
fn reused_connection_round_trips_do_not_stall() {
    let dir = std::env::temp_dir().join(format!("droidracer-stall-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (addr, server) = start_tcp(ServerConfig {
        cache_path: Some(dir.join("cache.txt")),
        ..ServerConfig::default()
    });
    let mut client = Client::connect_tcp(&addr, "alice").expect("connect");
    let spec = JobSpec::default();
    let text = racy_text();

    let first = client.submit_trace(&spec, &text).expect("submit");
    assert!(!first.cache_hit());
    let report = first.report().expect("completed").clone();

    let started = std::time::Instant::now();
    for _ in 0..40 {
        let hit = client.submit_trace(&spec, &text).expect("resubmit");
        assert!(hit.cache_hit());
        assert_eq!(hit.report(), Some(&report), "cached report identical");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "40 hits took {elapsed:?}"
    );

    // Every answered request so far is one latency observation: the miss
    // and the 40 hits.
    let status = client.status().expect("status");
    let requests = 1 + 40;
    assert_eq!(
        status_counter(&status, "srv.request_us.count"),
        Some(requests),
        "{status}"
    );
    let p50 = status_counter(&status, "srv.request_us.p50_le").expect("p50");
    let p99 = status_counter(&status, "srv.request_us.p99_le").expect("p99");
    assert!(p50 <= p99, "{status}");
    assert_eq!(
        status_counter(&status, "srv.cache_hits"),
        Some(40),
        "{status}"
    );

    client.shutdown().expect("shutdown");
    drop(client);
    server.join().expect("join").expect("clean run");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn distinct_specs_do_not_share_cache_entries() {
    let (addr, server) = start_tcp(ServerConfig::default());
    let mut client = Client::connect_tcp(&addr, "alice").expect("connect");
    let text = racy_text();
    let full = JobSpec::default();
    let mt_only = JobSpec {
        mode: droidracer_core::HbMode::MultithreadedOnly,
        ..JobSpec::default()
    };
    assert!(!client.submit_trace(&full, &text).unwrap().cache_hit());
    assert!(
        !client.submit_trace(&mt_only, &text).unwrap().cache_hit(),
        "different spec, same bytes: must be a distinct cache key"
    );
    assert!(client.submit_trace(&full, &text).unwrap().cache_hit());
    client.shutdown().expect("shutdown");
    drop(client);
    server.join().expect("join").expect("clean run");
}

#[test]
fn tenant_isolation_rejections_and_quota() {
    let config = ServerConfig {
        allowed_tenants: Some(vec!["alice".into(), "greedy".into()]),
        max_trace_bytes: 4096,
        tenant_quota_ops: Some(1), // one word-op: exhausted by the first job
        ..ServerConfig::default()
    };
    let (addr, server) = start_tcp(config);

    // Unknown tenant: rejected, never runs.
    let mut mallory = Client::connect_tcp(&addr, "mallory").expect("connect");
    let text = racy_text();
    match mallory.submit_trace(&JobSpec::default(), &text).unwrap() {
        Submission::Rejected { reason } => assert!(reason.contains("unknown tenant"), "{reason}"),
        other => panic!("expected rejection, got {other:?}"),
    }

    // Oversized trace: rejected.
    let mut alice = Client::connect_tcp(&addr, "alice").expect("connect");
    let huge = "x".repeat(5000);
    match alice.submit_trace(&JobSpec::default(), &huge).unwrap() {
        Submission::Rejected { reason } => assert!(reason.contains("exceeds limit"), "{reason}"),
        other => panic!("expected rejection, got {other:?}"),
    }

    // Quota: the first job is clamped to 1 word-op (Resource), after which
    // the tenant is refused outright — while alice still works.
    let mut greedy = Client::connect_tcp(&addr, "greedy").expect("connect");
    let first = greedy.submit_trace(&JobSpec::default(), &text).unwrap();
    assert_eq!(first.report().expect("ran").exit, ExitClass::Resource);
    let second = greedy.submit_trace(&JobSpec::default(), &text).unwrap();
    let report = second.report().expect("refused with a report");
    assert_eq!(report.exit, ExitClass::Resource);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.contains("quota exhausted")),
        "{:?}",
        report.diagnostics
    );

    let status = alice.status().expect("status");
    assert!(
        status_counter(&status, "srv.budget_exhausted").unwrap_or(0) >= 1,
        "{status}"
    );
    assert!(
        status_counter(&status, "srv.rejected").unwrap_or(0) >= 2,
        "{status}"
    );

    alice.shutdown().expect("shutdown");
    drop((alice, mallory, greedy));
    server.join().expect("join").expect("clean run");
}

#[test]
fn panicking_job_is_quarantined_and_shard_survives() {
    let hostile = "hostile";
    let config = ServerConfig {
        shards: 2,
        fault_hook: Some(Arc::new(move |phase: &str| {
            if phase == "job.hostile" {
                panic!("injected fault for {phase}");
            }
        })),
        ..ServerConfig::default()
    };
    let (addr, server) = start_tcp(config);
    let text = racy_text();

    let mut bad = Client::connect_tcp(&addr, hostile).expect("connect");
    let report = bad
        .submit_trace(&JobSpec::default(), &text)
        .unwrap()
        .report()
        .expect("quarantined report")
        .clone();
    assert_eq!(report.exit, ExitClass::Resource);
    assert!(
        report.diagnostics.iter().any(|d| d.contains("quarantined")),
        "{:?}",
        report.diagnostics
    );

    // The sibling tenant's job still runs — possibly on the same shard
    // thread that just caught the panic — and matches the local result.
    let mut good = Client::connect_tcp(&addr, "good").expect("connect");
    let sibling = good
        .submit_trace(&JobSpec::default(), &text)
        .unwrap()
        .report()
        .expect("ran")
        .clone();
    let local = LocalService::new()
        .submit(&JobSpec::default(), &text)
        .unwrap();
    assert_eq!(sibling, local);

    let status = good.status().expect("status");
    assert_eq!(
        status_counter(&status, "srv.quarantined"),
        Some(1),
        "{status}"
    );

    good.shutdown().expect("shutdown");
    drop((good, bad));
    server.join().expect("join").expect("clean run");
}

#[test]
fn full_queue_sheds_with_overloaded_and_retry_policy_rides_it_out() {
    use droidracer_server::RetryPolicy;

    // One shard, one queue slot, and a worker that naps on every job: the
    // first job occupies the worker, the second fills the queue, and
    // everything past that must be shed with a typed Overloaded.
    let config = ServerConfig {
        shards: 1,
        queue_depth: 1,
        fault_hook: Some(Arc::new(|phase: &str| {
            if phase.starts_with("shard.") {
                std::thread::sleep(std::time::Duration::from_millis(150));
            }
        })),
        ..ServerConfig::default()
    };
    let (addr, server) = start_tcp(config);
    let text = racy_text();

    // Fire more concurrent no-retry submissions than worker + queue can
    // hold. Distinct specs (per-thread deadline values) dodge the cache.
    let mut handles = Vec::new();
    for i in 0..6u64 {
        let addr = addr.clone();
        let text = text.clone();
        handles.push(std::thread::spawn(move || {
            let mut c = Client::connect_tcp(&addr, "flood").expect("connect");
            let spec = JobSpec {
                deadline_ms: Some(60_000 + i),
                ..JobSpec::default()
            };
            c.submit_trace(&spec, &text).expect("transport ok")
        }));
    }
    let results: Vec<Submission> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let shed = results
        .iter()
        .filter(|s| matches!(s, Submission::Overloaded { .. }))
        .count();
    let done = results.iter().filter(|s| s.report().is_some()).count();
    assert!(
        shed >= 1,
        "a 1-deep queue under 6 concurrent jobs must shed: {results:?}"
    );
    assert!(done >= 1, "the queue must still serve someone: {results:?}");
    if let Some(Submission::Overloaded { retry_after_ms }) = results
        .iter()
        .find(|s| matches!(s, Submission::Overloaded { .. }))
    {
        assert!(*retry_after_ms > 0, "retry-after hint must be actionable");
    }

    // A retry-policy client treats Overloaded as backpressure, not
    // failure: it backs off (honoring the hint) until the queue drains.
    let mut patient = Client::connect_tcp(&addr, "patient")
        .expect("connect")
        .with_retry_policy(RetryPolicy {
            max_retries: 20,
            base_backoff_ms: 25,
            max_backoff_ms: 200,
            deadline_ms: Some(30_000),
            ..RetryPolicy::standard()
        })
        .expect("policy");
    let sub = patient
        .submit_trace(&JobSpec::default(), &text)
        .expect("submit");
    assert!(
        sub.report().is_some(),
        "retrying client must eventually land: {sub:?}"
    );

    let status = patient.status().expect("status");
    assert!(
        status_counter(&status, "srv.overloaded").unwrap_or(0) >= 1,
        "{status}"
    );

    patient.shutdown().expect("shutdown");
    drop(patient);
    server.join().expect("join").expect("clean run");
}

#[test]
fn unix_socket_and_cache_persistence() {
    let dir = std::env::temp_dir().join(format!("droidracer-server-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sock: PathBuf = dir.join("daemon.sock");
    let cache: PathBuf = dir.join("cache.txt");
    let config = ServerConfig {
        cache_path: Some(cache.clone()),
        ..ServerConfig::default()
    };
    let text = racy_text();

    // First server run: compute and persist.
    let server = Server::bind_unix(&sock, config.clone()).expect("bind unix");
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect_unix(&sock, "alice").expect("connect");
    assert!(!client
        .submit_trace(&JobSpec::default(), &text)
        .unwrap()
        .cache_hit());
    client.shutdown().expect("shutdown");
    drop(client);
    handle.join().expect("join").expect("clean run");
    assert!(cache.exists(), "cache persisted on shutdown");
    assert!(!sock.exists(), "socket file removed on shutdown");

    // Second server run: the very first submission hits the preloaded cache.
    let server = Server::bind_unix(&sock, config).expect("rebind unix");
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect_unix(&sock, "alice").expect("reconnect");
    let sub = client.submit_trace(&JobSpec::default(), &text).unwrap();
    assert!(sub.cache_hit(), "preloaded cache answers across restarts");
    client.shutdown().expect("shutdown");
    drop(client);
    handle.join().expect("join").expect("clean run");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn invalid_and_torn_traffic_keeps_the_connection_and_server_alive() {
    let (addr, server) = start_tcp(ServerConfig::default());
    let mut client = Client::connect_tcp(&addr, "alice").expect("connect");

    // Unparseable trace: an Invalid report, not a dropped connection.
    let report = client
        .submit_trace(&JobSpec::default(), "complete garbage\n")
        .unwrap()
        .report()
        .expect("invalid report")
        .clone();
    assert_eq!(report.exit, ExitClass::Invalid);

    // A raw connection writing a torn frame: the server drops that
    // connection; everyone else is unaffected.
    {
        use std::io::Write;
        let mut raw = std::net::TcpStream::connect(&addr).expect("raw connect");
        raw.write_all(&[0, 0]).expect("torn prefix");
    }

    // An old client opening the retired chunked upload (opcode 0x02:
    // tenant, spec token, u32 chunk size) is rejected by name, and the
    // same connection still serves a whole-trace submission.
    {
        let mut raw = std::net::TcpStream::connect(&addr).expect("raw connect");
        let mut open = WIRE_VERSION.to_be_bytes().to_vec();
        open.push(0x02);
        for field in ["alice".to_owned(), JobSpec::default().to_token()] {
            open.extend_from_slice(&(field.len() as u32).to_be_bytes());
            open.extend_from_slice(field.as_bytes());
        }
        open.extend_from_slice(&64u32.to_be_bytes());
        let mut roundtrip = |payload: &[u8]| {
            write_frame(&mut raw, payload).expect("write");
            let reply = read_frame(&mut raw).expect("read").expect("a reply frame");
            Response::decode(&reply).expect("decodable reply")
        };
        match roundtrip(&open) {
            Response::Rejected { reason } => {
                assert!(reason.contains("unknown opcode 0x02"), "{reason}")
            }
            other => panic!("expected a rejection, got {other:?}"),
        }
        let submit = Request::Submit {
            tenant: "alice".to_owned(),
            spec: JobSpec::default().to_token(),
            trace: racy_text().into_bytes(),
        };
        assert!(
            matches!(roundtrip(&submit.encode()), Response::Report { .. }),
            "the connection must survive the rejection"
        );
    }

    // The polite client still works.
    let ok = client
        .submit_trace(&JobSpec::default(), &racy_text())
        .unwrap();
    assert!(ok.report().is_some());
    let status = client.status().expect("status");
    assert_eq!(status_counter(&status, "srv.invalid"), Some(1), "{status}");
    client.shutdown().expect("shutdown");
    drop(client);
    server.join().expect("join").expect("clean run");
}

/// A trace that forks a thread it never declared, with an id a per-thread
/// table could not be sized to, is refused as invalid input; the same
/// server then analyzes a corpus trace and answers a status request.
#[test]
fn undeclared_thread_id_is_invalid_and_the_server_lives_on() {
    let (addr, server) = start_tcp(ServerConfig::default());
    let mut client = Client::connect_tcp(&addr, "alice").expect("connect");
    let hostile = "droidracer-trace v1\n\
        thread t0 main initial \"main\"\n\
        op threadinit t0\n\
        op fork t0 t300000000\n";
    let report = client
        .submit_trace(&JobSpec::default(), hostile)
        .expect("submit")
        .report()
        .expect("invalid report")
        .clone();
    assert_eq!(report.exit, ExitClass::Invalid, "{report:?}");

    let corpus_trace = include_str!("../../../tests/data/aard_dictionary.trace");
    let spec = JobSpec::default();
    let served = client
        .submit_trace(&spec, corpus_trace)
        .expect("submit")
        .report()
        .expect("completed")
        .clone();
    let local = LocalService::new()
        .submit(&spec, corpus_trace)
        .expect("local");
    assert_eq!(served, local);
    assert_eq!(served.exit, ExitClass::Races);

    let status = client.status().expect("status");
    assert_eq!(status_counter(&status, "srv.invalid"), Some(1), "{status}");
    assert_eq!(status_counter(&status, "srv.jobs"), Some(2), "{status}");
    client.shutdown().expect("shutdown");
    drop(client);
    server.join().expect("join").expect("clean run");
}

#[test]
fn lazy_client_retries_cover_a_server_that_starts_late() {
    use droidracer_server::RetryPolicy;

    // Reserve an ephemeral port, release it, and only bring the server up
    // on it after a delay: the lazy client's first dials are refused and
    // must be absorbed by the retry budget, not returned as an error.
    let port = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
        probe.local_addr().expect("probe addr").port()
    };
    let addr = format!("127.0.0.1:{port}");
    let server_addr = addr.clone();
    let server = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(150));
        let server = Server::bind_tcp(&server_addr, ServerConfig::default()).expect("bind");
        server.run()
    });

    let mut client = Client::lazy_tcp(&addr, "late")
        .with_retry_policy(RetryPolicy {
            max_retries: 50,
            base_backoff_ms: 10,
            max_backoff_ms: 50,
            deadline_ms: Some(30_000),
            ..RetryPolicy::standard()
        })
        .expect("policy");
    let sub = client
        .submit_trace(&JobSpec::default(), &racy_text())
        .expect("submit");
    assert_eq!(sub.report().expect("completed").exit, ExitClass::Races);
    assert!(
        client.stats().retries > 0,
        "the refused dials must have cost retries"
    );
    assert_eq!(client.stats().gave_up, 0);

    client.shutdown().expect("shutdown");
    drop(client);
    server.join().expect("join").expect("clean run");
}
