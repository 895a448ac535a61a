//! End-to-end over real loopback TCP: a bound [`AnnsServer`], real
//! driver threads, and the blocking [`Client`] — proving the protocol
//! grammar (hello → welcome, query → ticket → answer, shutdown → ack),
//! that wire answers are byte-identical to solo execution, that every
//! refusal reaches the client typed (throttle, unknown shard, garbage
//! bytes), and that the drain report's accounting reconciles with what
//! the clients actually did.
//!
//! Timing discipline: these tests run on the real clock (sockets need
//! one), so they assert *counts and values*, never latencies — the
//! timing-sensitive claims live in `fairness.rs` on the virtual clock.

use std::io::{Read, Write};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use anns_cellprobe::{execute_with, ExecOptions};
use anns_core::serve::SoloServable;
use anns_core::AnnIndex;
use anns_engine::admission::AdmissionOptions;
use anns_engine::testkit::{clustered_index, hot_set_workload};
use anns_engine::RealClock;
use anns_engine::{Engine, EngineOptions, Registry};
use anns_hamming::Point;
use anns_server::client::{Client, ClientError};
use anns_server::frame::{read_frame, ErrorCode, Frame};
use anns_server::server::{AnnsServer, ServerOptions};
use anns_server::tenant::TenantPolicy;

const D: u32 = 192;

fn index() -> Arc<AnnIndex> {
    static INDEX: OnceLock<Arc<AnnIndex>> = OnceLock::new();
    Arc::clone(INDEX.get_or_init(|| clustered_index(8, 12, D, 0.05, 4040)))
}

fn workload(seed: u64, count: usize) -> Vec<Point> {
    hot_set_workload(&index(), count, 8, 5, seed)
}

fn engine() -> Arc<Engine> {
    let mut registry = Registry::new();
    registry.register_alg1("alg1-k3", index(), 3);
    registry.register_lambda("lambda-8", index(), 8.0);
    Arc::new(Engine::new(
        registry,
        EngineOptions {
            generation: 4,
            exec: ExecOptions::default(),
            batch_threads: 1,
        },
    ))
}

/// Binds a server on an ephemeral loopback port and runs it on a
/// background thread; returns the handle to join at shutdown.
fn serve(opts: ServerOptions) -> (AnnsServer, std::thread::JoinHandle<()>) {
    let server = AnnsServer::bind("127.0.0.1:0", engine(), opts, Arc::new(RealClock::new()))
        .expect("bind ephemeral loopback");
    let runner = server.clone();
    let handle = std::thread::spawn(move || runner.run());
    (server, handle)
}

fn options() -> ServerOptions {
    ServerOptions {
        admission: AdmissionOptions {
            max_generation: 4,
            max_wait: Duration::from_millis(2),
            capacity: 64,
        },
        drivers: 2,
        default_policy: TenantPolicy::default(),
        policies: Vec::new(),
        adapt_max_wait: false,
        max_connections: 256,
    }
}

#[test]
fn answers_over_the_wire_match_solo_execution() {
    let (server, handle) = serve(options());
    let addr = server.local_addr();

    let (mut client, shards) = Client::connect(addr).expect("connect + hello");
    // The welcome lists every mounted shard with its query dimension.
    let names: Vec<&str> = shards.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["alg1-k3", "lambda-8"]);
    assert!(shards.iter().all(|s| s.dim == D));

    let queries = workload(51, 12);
    let solo = engine();
    for (i, query) in queries.iter().enumerate() {
        let shard = if i % 2 == 0 { "alg1-k3" } else { "lambda-8" };
        let reply = client.query("acme", shard, query).expect("served");
        // Byte-identical to solo execution of the same query.
        let id = solo.registry().resolve(shard).unwrap();
        let (answer, ledger, _) = execute_with(
            &SoloServable(solo.registry().scheme(id)),
            query,
            ExecOptions::default(),
        );
        assert_eq!(reply.answer.index, answer.index(), "query {i}");
        assert_eq!(reply.answer.rounds, ledger.rounds() as u64);
        assert_eq!(reply.answer.probes, ledger.total_probes() as u64);
        assert!(reply.answer.within_budget);
        assert!(
            reply.ticket_rtt_ns <= reply.answer_rtt_ns,
            "the ticket precedes the answer"
        );
    }

    let served = client.shutdown_server().expect("shutdown ack");
    assert_eq!(served, queries.len() as u64);
    handle.join().expect("server drains and exits");

    // The drain report reconciles with what the client did.
    let report = server.report();
    assert_eq!(report.queries, queries.len() as u64);
    assert_eq!(report.enqueued, queries.len() as u64);
    assert_eq!(report.shed, 0);
    // Requested 2 drivers; the pool clamps to available_parallelism,
    // so on a single-core host this is legitimately 1.
    assert_eq!(report.drivers, server.drivers() as u64);
    assert!((1..=2).contains(&report.drivers));
    let acme = report.tenant("acme").expect("tenant row exists");
    assert_eq!(acme.served, queries.len() as u64);
    assert_eq!(acme.enqueued, queries.len() as u64);
    assert_eq!((acme.throttled, acme.shed, acme.failed), (0, 0, 0));
    assert!(acme.probes > 0, "served queries cost probes");
}

#[test]
fn refusals_reach_the_client_typed() {
    let mut opts = options();
    // "miser" gets one token, ever: the second query must throttle.
    opts.policies = vec![(
        "miser".to_string(),
        TenantPolicy {
            rate_per_sec: 0.0,
            burst: 1.0,
        },
    )];
    let (server, handle) = serve(opts);
    let (mut client, _) = Client::connect(server.local_addr()).expect("connect");
    let queries = workload(52, 3);

    // An unknown shard is admitted (names resolve at execution, inside
    // the pinned epoch) and fails *after* the ticket — the two-step
    // error path.
    match client.query("miser", "no-such-shard", &queries[0]) {
        Err(ClientError::Server(fault)) => {
            assert_eq!(fault.code, ErrorCode::UnknownShard);
            assert!(fault.message.contains("no-such-shard"));
        }
        other => panic!("expected typed unknown-shard, got {other:?}"),
    }

    // That admission spent miser's only token: now the bucket refuses,
    // before the queue — and the connection survives both refusals.
    match client.query("miser", "alg1-k3", &queries[1]) {
        Err(ClientError::Server(fault)) => {
            assert_eq!(fault.code, ErrorCode::Throttled);
            assert_eq!(fault.capacity, 1, "the fault quotes the burst");
        }
        other => panic!("expected typed throttle, got {other:?}"),
    }

    // A different tenant on the same connection is unaffected.
    assert!(client.query("acme", "alg1-k3", &queries[2]).is_ok());

    client.shutdown_server().expect("shutdown ack");
    handle.join().expect("server exits");

    let report = server.report();
    let miser = report.tenant("miser").expect("miser row");
    assert_eq!(miser.enqueued, 1);
    assert_eq!(miser.failed, 1, "the unknown-shard query failed typed");
    assert_eq!(miser.throttled, 1);
    assert_eq!(miser.served, 0);
    let acme = report.tenant("acme").expect("acme row");
    assert_eq!(acme.served, 1);
}

#[test]
fn connection_cap_refuses_typed_and_recovers_when_a_slot_frees() {
    let (server, handle) = serve(ServerOptions {
        max_connections: 1,
        ..options()
    });
    let addr = server.local_addr();

    // The first client takes the only slot and works normally.
    let (mut first, _) = Client::connect(addr).expect("first connect");
    let query = workload(54, 1).pop().unwrap();
    assert!(first.query("acme", "alg1-k3", &query).is_ok());

    // The second is refused *typed* — the Overloaded frame arrives
    // before any hello processing, so connect itself fails.
    match Client::connect(addr) {
        Err(ClientError::Server(fault)) => {
            assert_eq!(fault.code, ErrorCode::Overloaded);
            assert_eq!(fault.capacity, 1, "the fault quotes the cap");
            assert!(fault.message.contains("connection limit"));
        }
        Err(other) => panic!("expected typed overload refusal, got {other:?}"),
        Ok(_) => panic!("expected typed overload refusal, got a welcome"),
    }

    // Releasing the slot re-admits: the handler thread drops its guard
    // after the socket closes, so poll until the server notices.
    drop(first);
    let mut second = None;
    for _ in 0..200 {
        match Client::connect(addr) {
            Ok((client, _)) => {
                second = Some(client);
                break;
            }
            Err(ClientError::Server(fault)) => {
                assert_eq!(fault.code, ErrorCode::Overloaded);
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(other) => panic!("unexpected connect failure: {other:?}"),
        }
    }
    let mut second = second.expect("slot frees after the first client hangs up");
    assert!(second.query("acme", "alg1-k3", &query).is_ok());

    second.shutdown_server().expect("shutdown ack");
    handle.join().expect("server exits");
}

#[test]
fn garbage_bytes_get_a_typed_bad_request_then_a_hangup() {
    let (server, handle) = serve(options());
    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n")
        .expect("write garbage");
    // The server answers one typed error frame…
    match read_frame(&mut raw).expect("a frame, not a slammed socket") {
        Some(Frame::Error(fault)) => assert_eq!(fault.code, ErrorCode::BadRequest),
        other => panic!("expected typed bad-request, got {other:?}"),
    }
    // …then hangs up. The close may surface as a clean EOF or — when
    // the server discards unread bytes — a reset; both are "no further
    // frames", which is the guarantee under test.
    let mut rest = Vec::new();
    match raw.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "no frames after the typed error"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset),
    }

    // The server itself is unharmed: a well-formed session still works.
    let (mut client, _) = Client::connect(server.local_addr()).expect("connect");
    let query = workload(53, 1).pop().unwrap();
    assert!(client.query("acme", "alg1-k3", &query).is_ok());
    client.shutdown_server().expect("shutdown ack");
    handle.join().expect("server exits");
}

#[test]
fn out_of_protocol_frames_are_rejected_typed() {
    let (server, handle) = serve(options());
    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    // A server-to-client frame sent *to* the server.
    raw.write_all(&Frame::Ticket { depth: 1 }.encode()).unwrap();
    match read_frame(&mut raw).expect("typed answer") {
        Some(Frame::Error(fault)) => {
            assert_eq!(fault.code, ErrorCode::BadRequest);
            assert!(fault.message.contains("ticket"));
        }
        other => panic!("expected typed rejection, got {other:?}"),
    }
    drop(raw);
    server.shutdown();
    handle.join().expect("external shutdown drains too");
}
