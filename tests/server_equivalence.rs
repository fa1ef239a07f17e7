//! The serving contract over the real corpus: a report served over the
//! wire is the report `AnalysisBuilder` computes directly — for every
//! corpus trace, under concurrent multi-tenant load, and with a hostile
//! tenant attacking its own shard.

use std::sync::Arc;

use droidracer::apps::corpus;
use droidracer::core::{AnalysisBuilder, AnalysisService, ExitClass, JobReport, JobSpec};
use droidracer::server::{status_counter, Client, RetryPolicy, Server, ServerConfig};
use droidracer::trace::to_text;

/// Corpus trace texts with their directly-computed reference reports.
fn corpus_reports() -> Vec<(&'static str, String, JobReport)> {
    corpus()
        .into_iter()
        .map(|entry| {
            let trace = entry.generate_trace().expect("corpus generates");
            let analysis = AnalysisBuilder::new().analyze(&trace).expect("infallible");
            (
                entry.name,
                to_text(&trace),
                JobReport::from_analysis(&analysis, Vec::new()),
            )
        })
        .collect()
}

#[test]
fn served_corpus_reports_equal_direct_analysis() {
    let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || server.run());

    let spec = JobSpec::default();
    // The standard retry policy: against a healthy server it must never
    // actually retry.
    let mut client = Client::connect_tcp(&addr, "corpus")
        .expect("connect")
        .with_retry_policy(RetryPolicy::standard())
        .expect("retry policy");
    let expected = corpus_reports();
    for (name, text, want) in &expected {
        let sub = client.submit_trace(&spec, text).expect("submit");
        assert!(!sub.cache_hit(), "{name}: cache hit on first submission");
        assert_eq!(sub.report(), Some(want), "{name}: served report diverged");
    }

    // Second pass: all answered from the cache, reports bit-identical, and
    // the tenant's word-ops counter unchanged — the hits did zero work.
    let before = client.status().expect("status");
    for (name, text, want) in &expected {
        let sub = client.submit_trace(&spec, text).expect("submit");
        assert!(
            sub.cache_hit(),
            "{name}: second submission missed the cache"
        );
        assert_eq!(sub.report(), Some(want), "{name}: cached report diverged");
    }
    let after = client.status().expect("status");
    let key = "tenant.corpus.hb.word_ops";
    assert_eq!(
        status_counter(&before, key),
        status_counter(&after, key),
        "cache hits must not spend analysis work\nbefore:\n{before}\nafter:\n{after}"
    );
    assert_eq!(
        status_counter(&after, "srv.cache_hits"),
        Some(expected.len() as u64)
    );
    assert_eq!(
        client.stats().retries,
        0,
        "healthy corpus passes needed retries"
    );
    assert_eq!(
        client.stats().gave_up,
        0,
        "healthy corpus passes abandoned a submission"
    );

    client.shutdown().expect("shutdown");
    drop(client);
    handle.join().expect("join").expect("clean run");
}

#[test]
fn concurrent_tenants_with_a_hostile_sibling_stay_bit_identical() {
    // Hostile jobs panic inside the shard worker; everyone else's traffic
    // must come back bit-identical to the direct analysis anyway.
    let config = ServerConfig {
        shards: 3,
        fault_hook: Some(Arc::new(|phase: &str| {
            if phase == "job.hostile" {
                panic!("soak-injected fault");
            }
        })),
        ..ServerConfig::default()
    };
    let server = Server::bind_tcp("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || server.run());

    let expected = Arc::new(corpus_reports());
    let rounds = 3usize;

    std::thread::scope(|scope| {
        // Three well-behaved tenants hammer the corpus concurrently.
        for tenant in ["alpha", "beta", "gamma"] {
            let addr = addr.clone();
            let expected = Arc::clone(&expected);
            scope.spawn(move || {
                let spec = JobSpec::default();
                let mut client = Client::connect_tcp(&addr, tenant).expect("connect");
                for round in 0..rounds {
                    for (name, text, want) in expected.iter() {
                        let sub = client.submit_trace(&spec, text).expect("submit");
                        assert_eq!(
                            sub.report(),
                            Some(want),
                            "{tenant}/{name} round {round}: report diverged under load"
                        );
                    }
                }
            });
        }
        // The hostile tenant's every job panics in the worker. Distinct
        // specs per round dodge the shared content-addressed cache so the
        // fault hook actually fires each time.
        let addr = addr.clone();
        let expected = Arc::clone(&expected);
        scope.spawn(move || {
            let mut client = Client::connect_tcp(&addr, "hostile").expect("connect");
            for round in 0..rounds {
                let spec = JobSpec {
                    max_matrix_bits: Some(u64::MAX - round as u64),
                    ..JobSpec::default()
                };
                let (_, text, _) = &expected[round % expected.len()];
                let report = client
                    .submit_trace(&spec, text)
                    .expect("transport survives")
                    .report()
                    .expect("quarantined report")
                    .clone();
                assert_eq!(report.exit, ExitClass::Resource);
                assert!(
                    report.diagnostics.iter().any(|d| d.contains("quarantined")),
                    "round {round}: {:?}",
                    report.diagnostics
                );
            }
        });
    });

    let mut client = Client::connect_tcp(&addr, "alpha").expect("connect");
    let status = client.status().expect("status");
    assert_eq!(
        status_counter(&status, "srv.quarantined"),
        Some(rounds as u64),
        "{status}"
    );
    client.shutdown().expect("shutdown");
    drop(client);
    handle.join().expect("join").expect("clean run");
}

#[test]
fn client_is_an_analysis_service() {
    // Code written against the trait cannot tell a remote client from the
    // in-process service.
    let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || server.run());

    fn run(service: &mut dyn AnalysisService, text: &str) -> JobReport {
        service
            .submit(&JobSpec::default(), text)
            .expect("submission succeeds")
    }

    let (_, text, want) = corpus_reports()
        .into_iter()
        .next()
        .expect("corpus nonempty");
    let mut remote = Client::connect_tcp(&addr, "trait").expect("connect");
    let mut local = droidracer::core::LocalService::new();
    assert_eq!(run(&mut remote, &text), want);
    assert_eq!(run(&mut local, &text), want);

    remote.shutdown().expect("shutdown");
    drop(remote);
    handle.join().expect("join").expect("clean run");
}
