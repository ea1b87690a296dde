//! End-to-end service tests: concurrent tenants sharing the plan cache
//! with bit-identical results, protocol robustness (truncated, oversized,
//! malformed frames; mid-stream disconnects), typed bind errors, and
//! drain-on-shutdown.

use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spdistal::prelude::*;
use spdistal::OutputValue;
use spdistal_client::{read_frame, write_frame, Client, ClientError, Event, DEFAULT_MAX_FRAME};
use spdistal_sparse::{dense_vector, generate, reference, SpTensor};

/// Bind an ephemeral TCP server, run it on a background thread, and hand
/// back everything a test needs to drive and then join it.
struct Harness {
    addr: SocketAddr,
    engine: Engine,
    handle: spdistal_server::ShutdownHandle,
    thread: std::thread::JoinHandle<Result<(), spdistal_server::ServeError>>,
}

fn start(config: spdistal_server::ServerConfig) -> Harness {
    let server = spdistal_server::Server::bind_tcp("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().expect("tcp addr");
    let engine = server.engine().clone();
    let handle = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run());
    Harness {
        addr,
        engine,
        handle,
        thread,
    }
}

impl Harness {
    fn client(&self) -> Client {
        Client::connect_tcp(&self.addr.to_string()).expect("connect")
    }

    fn raw(&self) -> TcpStream {
        TcpStream::connect(self.addr).expect("connect raw")
    }

    fn finish(self) {
        self.handle.request_shutdown();
        self.thread.join().expect("join").expect("run");
    }
}

fn demo_tensors() -> (SpTensor, Vec<f64>) {
    let b_data = generate::banded(400, 7, 42);
    let c_data = generate::dense_vec(b_data.dims()[1], 7);
    (b_data, c_data)
}

fn register_demo(client: &mut Client, b_data: &SpTensor, c_data: &[f64]) {
    let n = b_data.dims()[0];
    client
        .register_tensor("a", "blocked_dense_vec", &dense_vector(vec![0.0; n]))
        .expect("register a");
    client
        .register_tensor("B", "blocked_csr", b_data)
        .expect("register B");
    client
        .register_tensor("c", "replicated_dense_vec", &dense_vector(c_data.to_vec()))
        .expect("register c");
}

const STMT: &str = "a(i) = B(i,j) * c(j)";

#[test]
fn concurrent_tenants_share_the_plan_cache_and_match_single_process() {
    let harness = start(spdistal_server::ServerConfig::default());
    let (b_data, c_data) = demo_tensors();

    // The single-process reference: same machine shape, same tensors,
    // same pinned schedule — the service must be bit-identical to this.
    let mut local = Program::on(Machine::grid1d(4, MachineProfile::lassen_cpu()))
        .tensor(
            "a",
            Format::blocked_dense_vec(),
            dense_vector(vec![0.0; b_data.dims()[0]]),
        )
        .tensor("B", Format::blocked_csr(), b_data.clone())
        .tensor(
            "c",
            Format::replicated_dense_vec(),
            dense_vector(c_data.clone()),
        )
        .stmt(STMT)
        .schedule(ScheduleSpec::outer_dim())
        .build()
        .expect("local build");
    local.run().expect("local run");
    let expect = match local.value(0) {
        Some(OutputValue::Dense(v)) => v.clone(),
        Some(OutputValue::Tensor(t)) => t.vals().to_vec(),
        None => panic!("local program produced no output"),
    };
    assert!(reference::approx_eq(
        &expect,
        &reference::spmv(&b_data, &c_data),
        1e-12
    ));

    let tenants = ["t0", "t1", "t2"];
    let results: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = tenants
            .iter()
            .map(|tenant| {
                let harness = &harness;
                let (b_data, c_data) = (&b_data, &c_data);
                scope.spawn(move || {
                    let mut client = harness.client();
                    client.hello(tenant).expect("hello");
                    register_demo(&mut client, b_data, c_data);
                    let outcome = client
                        .submit(&[(STMT, "outer-dim")], 1, true, |_| {})
                        .expect("submit");
                    outcome.results.into_iter().next().expect("result").1
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });

    for vals in &results {
        assert_eq!(vals.len(), expect.len());
        for (got, want) in vals.iter().zip(&expect) {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "served result must be bit-identical to single-process"
            );
        }
    }

    // All three tenants submitted the same (stmt, schedule, formats):
    // exactly one compile, two shared hits, both cross-tenant (a single
    // worker serializes the jobs, so there is no compile race).
    let cache = harness.engine.plan_cache();
    assert_eq!(cache.len(), 1);
    assert_eq!(cache.misses(), 1);
    assert_eq!(cache.hits(), 2);
    assert_eq!(cache.cross_tenant_hits(), 2);

    // The merged run report attributes the lookups per tenant and in the
    // shared `plan_cache.*` namespace.
    let mut client = harness.client();
    let report = client.report().expect("report");
    assert!(report.contains("plan_cache.hit"), "report: {report}");
    assert!(
        report.contains("plan_cache.hit.cross_tenant"),
        "report: {report}"
    );
    let per_tenant: usize = tenants
        .iter()
        .filter(|t| report.contains(&format!("tenant.{t}.plan_cache.")))
        .count();
    assert_eq!(per_tenant, 3, "report: {report}");

    harness.finish();
}

#[test]
fn truncated_frame_is_answered_with_a_typed_error_and_the_server_survives() {
    let harness = start(spdistal_server::ServerConfig::default());

    let mut raw = harness.raw();
    raw.write_all(&50u32.to_be_bytes()).expect("header");
    raw.write_all(b"hello").expect("partial payload");
    raw.shutdown(Shutdown::Write).expect("half-close");
    let frame = read_frame(&mut raw, DEFAULT_MAX_FRAME).expect("error frame");
    match Event::parse(&frame).expect("parse") {
        Event::Error { code, message } => {
            assert_eq!(code, "truncated_frame");
            assert!(message.contains("truncated"), "message: {message}");
        }
        other => panic!("expected error event, got {other:?}"),
    }

    // The violating connection is gone; the server still serves others.
    let mut client = harness.client();
    client.hello("after-truncation").expect("hello");
    harness.finish();
}

#[test]
fn oversized_frame_is_rejected_before_the_payload_is_read() {
    let config = spdistal_server::ServerConfig {
        max_frame: 1024,
        ..Default::default()
    };
    let harness = start(config);

    let mut raw = harness.raw();
    raw.write_all(&4096u32.to_be_bytes()).expect("header");
    let frame = read_frame(&mut raw, DEFAULT_MAX_FRAME).expect("error frame");
    match Event::parse(&frame).expect("parse") {
        Event::Error { code, .. } => assert_eq!(code, "frame_too_large"),
        other => panic!("expected error event, got {other:?}"),
    }
    harness.finish();
}

#[test]
fn malformed_json_keeps_the_connection_alive() {
    let harness = start(spdistal_server::ServerConfig::default());

    let mut raw = harness.raw();
    write_frame(&mut raw, b"this is not json").expect("send garbage");
    let frame = read_frame(&mut raw, DEFAULT_MAX_FRAME).expect("error frame");
    match Event::parse(&frame).expect("parse") {
        Event::Error { code, .. } => assert_eq!(code, "bad_json"),
        other => panic!("expected error event, got {other:?}"),
    }

    // Framing stayed in sync: the same connection completes a hello.
    write_frame(
        &mut raw,
        spdistal_client::Request::Hello {
            tenant: "recovered".to_string(),
        }
        .to_json()
        .as_bytes(),
    )
    .expect("hello after garbage");
    let frame = read_frame(&mut raw, DEFAULT_MAX_FRAME).expect("welcome frame");
    match Event::parse(&frame).expect("parse") {
        Event::Welcome { tenant, .. } => assert_eq!(tenant, "recovered"),
        other => panic!("expected welcome, got {other:?}"),
    }
    harness.finish();
}

/// A submit asking for more passes than `MAX_ITERS` (or for a count past
/// 2^53) is refused before it reaches a worker, and the connection serves
/// on: one request cannot hold a worker, or a `shutdown` drain, forever.
#[test]
fn oversized_iters_are_refused_and_the_connection_serves_on() {
    let harness = start(spdistal_server::ServerConfig::default());

    let mut raw = harness.raw();
    let too_many = (spdistal_client::proto::MAX_ITERS + 1).to_string();
    for iters in [too_many.as_str(), "1e300"] {
        let submit = format!(
            r#"{{"type":"submit","stmts":[{{"tin":"{STMT}","schedule":"outer-dim"}}],"iters":{iters},"pipelined":false}}"#
        );
        write_frame(&mut raw, submit.as_bytes()).expect("send submit");
        let frame = read_frame(&mut raw, DEFAULT_MAX_FRAME).expect("error frame");
        match Event::parse(&frame).expect("parse") {
            Event::Error { code, message } => {
                assert_eq!(code, "bad_json");
                assert!(message.contains("'iters'"), "{message}");
            }
            other => panic!("iters {iters}: expected error event, got {other:?}"),
        }
    }

    write_frame(
        &mut raw,
        spdistal_client::Request::Hello {
            tenant: "bounded".to_string(),
        }
        .to_json()
        .as_bytes(),
    )
    .expect("hello after refusals");
    let frame = read_frame(&mut raw, DEFAULT_MAX_FRAME).expect("welcome frame");
    match Event::parse(&frame).expect("parse") {
        Event::Welcome { tenant, .. } => assert_eq!(tenant, "bounded"),
        other => panic!("expected welcome, got {other:?}"),
    }
    harness.finish();
}

#[test]
fn disconnect_mid_flush_does_not_take_the_server_down() {
    let harness = start(spdistal_server::ServerConfig::default());
    let (b_data, c_data) = demo_tensors();

    {
        // Submit and vanish without reading a single event: the worker
        // still runs the job (warming the shared cache), the connection
        // thread hits a typed disconnect, and the server keeps serving.
        let mut client = harness.client();
        client.hello("ghost").expect("hello");
        register_demo(&mut client, &b_data, &c_data);
        let submit = spdistal_client::Request::Submit {
            stmts: vec![spdistal_client::StmtSpec {
                tin: STMT.to_string(),
                schedule: "outer-dim".to_string(),
            }],
            iters: 1,
            pipelined: true,
        };
        client.send_request(&submit).expect("send");
        // drop without reading: the stream closes mid-flush
    }

    // A well-behaved tenant still gets a full, correct round trip — and
    // inherits the ghost's compiled plan if the job already landed.
    let mut client = harness.client();
    client.hello("survivor").expect("hello");
    register_demo(&mut client, &b_data, &c_data);
    let outcome = client
        .submit(&[(STMT, "outer-dim")], 1, true, |_| {})
        .expect("submit after ghost");
    let vals = &outcome.results.first().expect("result").1;
    assert!(reference::approx_eq(
        vals,
        &reference::spmv(&b_data, &c_data),
        1e-12
    ));
    harness.finish();
}

/// A client that submits and then stops reading cannot hold shutdown
/// hostage: its result (2^20 values, ~11 MB on the wire) cannot fit in the
/// socket buffers, so the connection thread's write times out and ends the
/// connection as a disconnect while a second tenant is served as usual.
#[test]
fn a_client_that_stops_reading_cannot_hang_shutdown() {
    let harness = start(spdistal_server::ServerConfig::default());
    let rows = 1 << 20;
    let mut b = spdistal_sparse::CooTensor::new(vec![rows, 1]);
    b.push(&[0, 0], 1.0);
    let b_data = b.build(&Format::blocked_csr().levels);
    let mut stalled = harness.client();
    stalled.hello("stalled").expect("hello");
    register_demo(&mut stalled, &b_data, &[2.0]);
    let submit = spdistal_client::Request::Submit {
        stmts: vec![spdistal_client::StmtSpec {
            tin: STMT.to_string(),
            schedule: "outer-dim".to_string(),
        }],
        iters: 1,
        pipelined: true,
    };
    stalled.send_request(&submit).expect("send");
    // `stalled` stays open and never reads again.

    let (b_data, c_data) = demo_tensors();
    let mut client = harness.client();
    client.hello("neighbour").expect("hello");
    register_demo(&mut client, &b_data, &c_data);
    let outcome = client
        .submit(&[(STMT, "outer-dim")], 1, true, |_| {})
        .expect("the second tenant is served");
    let vals = &outcome.results.first().expect("result").1;
    assert!(reference::approx_eq(
        vals,
        &reference::spmv(&b_data, &c_data),
        1e-12
    ));

    // The server gives a frame 5 s; the rest is slack for a debug build on
    // a loaded host. Without the deadline, this never ends.
    let Harness {
        engine,
        handle,
        thread,
        ..
    } = harness;
    handle.request_shutdown();
    let (done, joined) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(thread.join()));
    let outcome = joined
        .recv_timeout(Duration::from_secs(15))
        .expect("shutdown waits on a client that stopped reading");
    outcome.expect("join").expect("run");
    let report = spdistal_obs::json::Json::parse(&engine.trace().run_report_json("service"))
        .expect("report is json");
    assert_eq!(counter(&report, "server.client_disconnects"), 1);
    drop(stalled);
}

/// A client that reads, but only a trickle, cannot hold shutdown either: a
/// frame has a deadline, not only each write call. A raw client reads
/// 4 KiB every 50 ms of a 2^20-value result (~11 MB on the wire, over two
/// minutes' worth), so the connection thread's writes keep making
/// progress and only the frame's deadline ends the connection. (Loopback
/// reopens a full receive window one 64 KiB segment at a time, so a
/// trickle under 64 KiB per 2 s would stall a write for 2 s and be cut
/// off by a per-call timeout; this one never stalls that long.)
#[test]
fn a_client_that_reads_a_trickle_cannot_hang_shutdown() {
    let harness = start(spdistal_server::ServerConfig::default());
    let rows = 1 << 20;
    let mut b = spdistal_sparse::CooTensor::new(vec![rows, 1]);
    b.push(&[0, 0], 1.0);
    let b_data = b.build(&Format::blocked_csr().levels);
    let mut raw = harness.raw();
    let hello = spdistal_client::Request::Hello {
        tenant: "trickle".to_string(),
    };
    assert!(matches!(
        exchange(&mut raw, hello.to_json().as_bytes()),
        Event::Welcome { .. }
    ));
    let a = dense_vector(vec![0.0; rows]);
    let c = dense_vector(vec![2.0]);
    for (name, format, data) in [
        ("a", "blocked_dense_vec", &a),
        ("B", "blocked_csr", &b_data),
        ("c", "replicated_dense_vec", &c),
    ] {
        let (coords, vals) = spdistal_client::tensor_to_wire(data);
        let register = spdistal_client::Request::Register {
            name: name.to_string(),
            format: format.to_string(),
            dims: data.dims().to_vec(),
            coords,
            vals,
        };
        let answer = exchange(&mut raw, register.to_json().as_bytes());
        assert!(matches!(answer, Event::Ok), "register {name}: {answer:?}");
    }
    let submit = spdistal_client::Request::Submit {
        stmts: vec![spdistal_client::StmtSpec {
            tin: STMT.to_string(),
            schedule: "outer-dim".to_string(),
        }],
        iters: 1,
        pipelined: true,
    };
    write_frame(&mut raw, submit.to_json().as_bytes()).expect("send submit");
    let stop = Arc::new(AtomicBool::new(false));
    let (streaming, first_bytes) = std::sync::mpsc::channel();
    let trickle = std::thread::spawn({
        let stop = Arc::clone(&stop);
        move || {
            let mut buf = [0u8; 4096];
            while !stop.load(Ordering::Relaxed) {
                match std::io::Read::read(&mut raw, &mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {
                        let _ = streaming.send(());
                    }
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    });
    // Bytes of the submission's events have arrived, so its connection
    // thread is in the event stream and ends only when the stream does.
    first_bytes
        .recv_timeout(Duration::from_secs(30))
        .expect("the submission streams its events");

    // The frame deadline is 5 s; the rest is slack for a debug build on a
    // loaded host. A timeout per write call alone never ends this.
    let asked = Instant::now();
    let Harness {
        engine,
        handle,
        thread,
        ..
    } = harness;
    handle.request_shutdown();
    let (done, joined) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(thread.join()));
    let outcome = joined
        .recv_timeout(Duration::from_secs(15))
        .expect("shutdown waits on a client that reads a trickle");
    outcome.expect("join").expect("run");
    assert!(
        asked.elapsed() >= Duration::from_secs(3),
        "the trickle was cut off by its frame's deadline, not sooner"
    );
    let report = spdistal_obs::json::Json::parse(&engine.trace().run_report_json("service"))
        .expect("report is json");
    assert_eq!(counter(&report, "server.client_disconnects"), 1);
    // The socket still holds megabytes the trickle would take minutes to
    // drain: stop reading them.
    stop.store(true, Ordering::Relaxed);
    trickle.join().expect("trickle");
}

#[test]
fn unknown_schedules_and_formats_are_typed_server_errors() {
    let harness = start(spdistal_server::ServerConfig::default());
    let mut client = harness.client();
    client.hello("typo").expect("hello");

    let err = client
        .register_tensor("B", "no_such_format", &generate::banded(8, 2, 1))
        .expect_err("unknown format must fail");
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, "bad_format"),
        other => panic!("expected server error, got {other}"),
    }

    let err = client
        .submit(&[(STMT, "fastest-please")], 1, true, |_| {})
        .expect_err("unknown schedule must fail");
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, "bad_schedule"),
        other => panic!("expected server error, got {other}"),
    }

    // A statement no leaf computes is refused at compile: a terminal `exec`
    // error naming it, on a connection that stays usable, beside a
    // neighbour whose results do not move by a bit.
    let (b_data, c_data) = demo_tensors();
    let healthy = |client: &mut Client| -> Vec<u64> {
        let outcome = client
            .submit(&[(STMT, "outer-dim")], 1, true, |_| {})
            .expect("healthy submit");
        outcome.results[0].1.iter().map(|v| v.to_bits()).collect()
    };
    let mut neighbour = harness.client();
    neighbour.hello("neighbour").expect("hello");
    register_demo(&mut neighbour, &b_data, &c_data);
    let before = healthy(&mut neighbour);

    register_demo(&mut client, &b_data, &c_data);
    for (name, format) in [
        ("S", "blocked_csr"),
        ("P", "blocked_coo"),
        ("Q", "blocked_coo"),
        ("R", "blocked_coo"),
    ] {
        client
            .register_tensor(name, format, &b_data)
            .expect("register");
    }
    for (tin, named) in [
        ("a(i) = c(i)", "a(iv0) = c(iv0)"),
        (
            "a(i) = 2 * B(i,j) * c(j)",
            "a(iv0) = 2 * B(iv0,iv1) * c(iv1)",
        ),
        (
            "S(i,j) = P(i,j) + Q(i,j) + R(i,j)",
            "S(iv0,iv1) = P(iv0,iv1) + Q(iv0,iv1) + R(iv0,iv1)",
        ),
    ] {
        match client.submit(&[(tin, "outer-dim")], 1, true, |_| {}) {
            Err(ClientError::Server { code, message }) => {
                assert_eq!(code, "exec", "{tin}: {message}");
                assert!(message.contains(named), "{tin}: {message}");
            }
            other => panic!("'{tin}' must be refused, got {other:?}"),
        }
    }
    assert_eq!(healthy(&mut client), before);
    assert_eq!(healthy(&mut neighbour), before);
    harness.finish();
}

#[test]
fn bind_errors_are_typed_with_endpoint_context() {
    let config = spdistal_server::ServerConfig::default();
    let first = spdistal_server::Server::bind_tcp("127.0.0.1:0", config.clone()).expect("bind");
    let addr = first.local_addr().expect("addr");
    let err = spdistal_server::Server::bind_tcp(&addr.to_string(), config.clone())
        .err()
        .expect("double bind must fail");
    match &err {
        spdistal_server::ServeError::Bind { endpoint, source } => {
            assert!(endpoint.contains(&addr.to_string()), "endpoint: {endpoint}");
            assert_eq!(source.kind(), std::io::ErrorKind::AddrInUse);
        }
        other => panic!("expected bind error, got {other}"),
    }
    assert!(err.to_string().contains("failed to bind tcp"));

    #[cfg(unix)]
    {
        let missing = "/nonexistent-spdistal-dir/spd.sock";
        let err = spdistal_server::Server::bind_uds(missing, config)
            .err()
            .expect("bind in a missing directory must fail");
        match err {
            spdistal_server::ServeError::Bind { endpoint, .. } => {
                assert!(endpoint.contains(missing), "endpoint: {endpoint}");
            }
            other => panic!("expected bind error, got {other}"),
        }
    }
}

#[cfg(unix)]
#[test]
fn shutdown_drains_in_flight_work_and_unlinks_the_socket() {
    let path = std::env::temp_dir().join(format!("spd-server-test-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let server = spdistal_server::Server::bind_uds(&path, spdistal_server::ServerConfig::default())
        .expect("bind uds");
    let thread = std::thread::spawn(move || server.run());

    let (b_data, c_data) = demo_tensors();
    let mut client = Client::connect_uds(&path).expect("connect uds");
    client.hello("drainer").expect("hello");
    register_demo(&mut client, &b_data, &c_data);
    let outcome = client
        .submit(&[(STMT, "outer-dim")], 2, true, |_| {})
        .expect("submit over uds");
    assert_eq!(outcome.iterations, 2);

    // Ask for shutdown over the wire; run() must drain and return Ok,
    // removing the socket file on the way out.
    let mut client = Client::connect_uds(&path).expect("connect for shutdown");
    client.shutdown_server().expect("shutdown");
    thread.join().expect("join").expect("run");
    for _ in 0..50 {
        if !path.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(!path.exists(), "socket file must be unlinked at shutdown");
}

#[test]
fn streamed_deltas_run_incrementally_and_match_a_full_submission() {
    let harness = start(spdistal_server::ServerConfig::default());
    let (b_data, c_data) = demo_tensors();

    // Two hand-placed value-only batches over the lexicographically first
    // stored coordinates: every dirty row lands in the first color of the
    // 4-piece row distribution, so the other three colors must be skipped.
    let coo = b_data.to_coo();
    let batches: Vec<Vec<spdistal_sparse::CoordDelta>> = vec![
        coo.iter()
            .take(4)
            .map(|(c, v)| spdistal_sparse::CoordDelta::overwrite(c.clone(), v * 2.0 + 1.0))
            .collect(),
        coo.iter()
            .skip(2)
            .take(4)
            .map(|(c, v)| spdistal_sparse::CoordDelta::overwrite(c.clone(), v - 0.5))
            .collect(),
    ];

    let mut client = harness.client();
    client.hello("streamer").expect("hello");
    register_demo(&mut client, &b_data, &c_data);

    // Deltas against an unregistered tensor are a typed error, and the
    // connection keeps serving.
    match client.update_batch("missing", &batches[0]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "unknown_tensor"),
        other => panic!("expected unknown_tensor error, got {other:?}"),
    }

    for batch in &batches {
        client.update_batch("B", batch).expect("queue batch");
    }
    let mut reports = Vec::new();
    let outcome = client
        .submit_incremental(&[(STMT, "outer-dim")], |ev| {
            if let Event::IncrementalReport {
                iteration,
                rows_dirty,
                spans_reexecuted,
                spans_skipped,
                fallback,
                ..
            } = ev
            {
                reports.push((
                    *iteration,
                    *rows_dirty,
                    *spans_reexecuted,
                    *spans_skipped,
                    *fallback,
                ));
            }
        })
        .expect("incremental submit");
    // One cold pass + one incremental pass per batch.
    assert_eq!(outcome.iterations, 1 + batches.len());
    assert_eq!(reports.len(), batches.len());
    for (iteration, rows_dirty, _rerun, skipped, fallback) in &reports {
        assert!(!fallback, "batch {iteration} fell back");
        assert!(*rows_dirty > 0, "batch {iteration} saw no dirty rows");
        assert!(*skipped > 0, "batch {iteration} skipped no spans");
    }

    // The incremental result must be bit-identical to a plain full
    // submission over the mutated matrix from a second tenant.
    let mut mutated: std::collections::BTreeMap<Vec<i64>, f64> = coo.into_iter().collect();
    for d in batches.iter().flatten() {
        mutated.insert(d.coord.clone(), d.val);
    }
    let mut rebuilt = spdistal_sparse::CooTensor::new(b_data.dims().to_vec());
    for (coord, val) in &mutated {
        rebuilt.push(coord, *val);
    }
    let mutated = rebuilt.build(&b_data.formats());

    let mut full = harness.client();
    full.hello("oracle").expect("hello");
    register_demo(&mut full, &mutated, &c_data);
    let full_outcome = full
        .submit(&[(STMT, "outer-dim")], 1, true, |_| {})
        .expect("full submit");

    let got = &outcome.results.first().expect("incremental result").1;
    let want = &full_outcome.results.first().expect("full result").1;
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "incremental service result must be bit-identical to a full run"
        );
    }

    harness.finish();
}

// ---- the request path: resident programs, the value block, stage timing ----

fn bits(vals: &[f64]) -> Vec<u64> {
    vals.iter().map(|v| v.to_bits()).collect()
}

/// The server's merged run report, parsed.
fn report(client: &mut Client) -> spdistal_obs::json::Json {
    spdistal_obs::json::Json::parse(&client.report().expect("report")).expect("report is json")
}

fn counter(report: &spdistal_obs::json::Json, name: &str) -> u64 {
    let value = report.get("counters").and_then(|c| c.get(name));
    value.and_then(|v| v.as_f64()).unwrap_or(0.0) as u64
}

/// `count × mean` of a `*_us` histogram of the report: the microseconds
/// observed into it so far.
fn hist_total_us(report: &spdistal_obs::json::Json, name: &str) -> f64 {
    let field = |key: &str| {
        let hist = report.get("hist").and_then(|h| h.get(name));
        hist.and_then(|h| h.get(key)).and_then(|v| v.as_f64())
    };
    field("count").unwrap_or(0.0) * field("mean").unwrap_or(0.0)
}

/// The feedback pair: the second statement rewrites what the first reads,
/// so a program that ran once no longer holds the registered `c`.
const FEEDBACK: [(&str, &str); 2] = [
    ("a(i) = B(i,j) * c(j)", "outer-dim"),
    ("c(i) = B(i,j) * a(j)", "outer-dim"),
];

/// What a freshly built in-process program answers for `stmts`, each run
/// `iters` times: the oracle a warm served program must equal bit for bit.
fn fresh_in_process(
    b_data: &SpTensor,
    c_data: &[f64],
    stmts: &[(&str, &str)],
    iters: usize,
) -> Vec<Vec<u64>> {
    let mut program = Program::on(Machine::grid1d(4, MachineProfile::lassen_cpu()))
        .tensor(
            "a",
            Format::blocked_dense_vec(),
            dense_vector(vec![0.0; b_data.dims()[0]]),
        )
        .tensor("B", Format::blocked_csr(), b_data.clone())
        .tensor(
            "c",
            Format::replicated_dense_vec(),
            dense_vector(c_data.to_vec()),
        );
    for (tin, _) in stmts {
        program = program.stmt(tin).schedule(ScheduleSpec::outer_dim());
    }
    let mut program = program.build().expect("local build");
    program.run_iters(iters).expect("local run");
    (0..stmts.len())
        .map(|k| match program.value(k) {
            Some(OutputValue::Dense(v)) => bits(v),
            Some(OutputValue::Tensor(t)) => bits(t.vals()),
            None => panic!("statement {k} produced no output"),
        })
        .collect()
}

fn served(client: &mut Client, stmts: &[(&str, &str)], iters: usize) -> Vec<Vec<u64>> {
    let outcome = client.submit(stmts, iters, true, |_| {}).expect("submit");
    assert_eq!(outcome.iterations, iters, "`done` counts this job's passes");
    outcome.results.iter().map(|(_, v)| bits(v)).collect()
}

#[test]
fn a_warm_program_answers_what_a_fresh_one_does() {
    let harness = start(spdistal_server::ServerConfig::default());
    let (b_data, c_data) = demo_tensors();
    let mut client = harness.client();
    client.hello("warm").expect("hello");
    register_demo(&mut client, &b_data, &c_data);

    // (i) Three submits on one connection: the second and third run the
    // resident program, whose `c` the first one rewrote — without the
    // live-in restore they would start from the wrong vector.
    let want = fresh_in_process(&b_data, &c_data, &FEEDBACK, 2);
    for round in 0..3 {
        assert_eq!(served(&mut client, &FEEDBACK, 2), want, "submit {round}");
    }
    let seen = report(&mut client);
    assert_eq!(counter(&seen, "server.program.built"), 1);
    assert_eq!(counter(&seen, "server.program.reused"), 2);

    // (v) A reused program reports its job, not its life: no compile, one
    // cache hit per statement per iteration.
    let outcome = client.submit(&FEEDBACK, 3, true, |_| {}).expect("submit");
    assert_eq!(
        (outcome.iterations, outcome.compiles, outcome.cache_hits),
        (3, 0, 2 * 3)
    );

    // (ii) Re-registering an input changes the answer to the fresh-build one.
    let c_other = generate::dense_vec(b_data.dims()[1], 99);
    client
        .register_tensor("c", "replicated_dense_vec", &dense_vector(c_other.clone()))
        .expect("re-register c");
    let want_other = fresh_in_process(&b_data, &c_other, &FEEDBACK, 2);
    assert_ne!(want_other, want);
    assert_eq!(served(&mut client, &FEEDBACK, 2), want_other);
    assert_eq!(served(&mut client, &FEEDBACK, 2), want_other);
    harness.finish();
}

#[test]
fn a_program_dies_with_its_statement_list_or_a_failed_job() {
    let harness = start(spdistal_server::ServerConfig::default());
    let (b_data, c_data) = demo_tensors();
    let mut client = harness.client();
    client.hello("lists").expect("hello");
    register_demo(&mut client, &b_data, &c_data);
    let spmv = [(STMT, "outer-dim")];
    let want_spmv = fresh_in_process(&b_data, &c_data, &spmv, 1);
    let want_feedback = fresh_in_process(&b_data, &c_data, &FEEDBACK, 1);

    // (iii) A different statement list, then the first again: one resident
    // program per connection, so each change builds.
    assert_eq!(served(&mut client, &spmv, 1), want_spmv);
    assert_eq!(served(&mut client, &FEEDBACK, 1), want_feedback);
    assert_eq!(served(&mut client, &spmv, 1), want_spmv);
    let seen = report(&mut client);
    assert_eq!(counter(&seen, "server.program.built"), 3);
    assert_eq!(counter(&seen, "server.program.dropped"), 2);
    assert_eq!(counter(&seen, "server.program.reused"), 0);

    // The same list under another schedule name or launch mode is another
    // program too.
    assert_eq!(
        served(&mut client, &[(STMT, "non-zero")], 1).len(),
        want_spmv.len()
    );
    let outcome = client.submit(&spmv, 1, false, |_| {}).expect("submit");
    assert_eq!(bits(&outcome.results[0].1), want_spmv[0]);
    assert_eq!(
        counter(&report(&mut client), "server.program.built"),
        5,
        "schedule names and `pipelined` are part of the key"
    );

    // (iv) A submit that fails at compile takes its program with it, and the
    // next healthy one is built and correct.
    match client.submit(&[("a(i) = c(i)", "outer-dim")], 1, true, |_| {}) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "exec"),
        other => panic!("expected an exec error, got {other:?}"),
    }
    let seen = report(&mut client);
    assert_eq!(
        counter(&seen, "server.program.built"),
        counter(&seen, "server.program.dropped"),
        "nothing is resident after a failed job"
    );
    assert_eq!(served(&mut client, &spmv, 1), want_spmv);
    assert_eq!(served(&mut client, &spmv, 1), want_spmv);
    let seen = report(&mut client);
    assert_eq!(counter(&seen, "server.program.built"), 7);
    assert_eq!(counter(&seen, "server.program.reused"), 1);
    harness.finish();
}

#[test]
fn a_plain_submit_after_an_incremental_one_sees_the_base_tensors() {
    // (vi) Streamed deltas live for one `run_incremental` job: it builds its
    // own program and leaves none behind, so the registered B is what the
    // next submit multiplies.
    let harness = start(spdistal_server::ServerConfig::default());
    let (b_data, c_data) = demo_tensors();
    let mut client = harness.client();
    client.hello("base").expect("hello");
    register_demo(&mut client, &b_data, &c_data);
    let spmv = [(STMT, "outer-dim")];
    let want = fresh_in_process(&b_data, &c_data, &spmv, 1);
    assert_eq!(served(&mut client, &spmv, 1), want);

    let (coord, val) = b_data.to_coo().swap_remove(0);
    let delta = spdistal_sparse::CoordDelta::overwrite(coord, val + 100.0);
    client.update_batch("B", &[delta]).expect("queue batch");
    let streamed = client
        .submit_incremental(&spmv, |_| {})
        .expect("incremental submit");
    assert_ne!(bits(&streamed.results[0].1), want[0], "the delta applied");

    assert_eq!(served(&mut client, &spmv, 1), want);
    let seen = report(&mut client);
    assert_eq!(counter(&seen, "server.program.built"), 3);
    assert_eq!(counter(&seen, "server.program.reused"), 0);
    harness.finish();
}

#[test]
fn the_request_explains_itself() {
    let harness = start(spdistal_server::ServerConfig::default());
    // Sized so that the stages, not the thread hand-offs between them or
    // the client's own decoding, are the request: eight passes over 84 000
    // non-zeros for one 32 KB result.
    let b_data = generate::banded(4_000, 21, 42);
    let c_data = generate::dense_vec(b_data.dims()[1], 7);
    let mut client = harness.client();
    client.hello("stages").expect("hello");
    register_demo(&mut client, &b_data, &c_data);
    let spmv = [(STMT, "outer-dim")];
    let iters = 8;
    served(&mut client, &spmv, iters);
    served(&mut client, &spmv, iters);
    let after_two = report(&mut client);
    assert_eq!(counter(&after_two, "server.program.built"), 1);
    assert_eq!(counter(&after_two, "server.program.reused"), 1);
    let hist = after_two.get("hist").expect("hist");
    let count = |name: &str| hist.get(name).and_then(|h| h.get("count")?.as_f64());
    assert_eq!(
        count("req.build_us"),
        Some(1.0),
        "built once, not per request"
    );
    for stage in ["decode", "queue_wait", "execute", "encode", "write"] {
        assert_eq!(count(&format!("req.{stage}_us")), Some(2.0), "{stage}");
    }

    // Warm submits: what the server attributes to its stages accounts for
    // what the client waited. (Encoding and writing an iteration's flush
    // events overlaps the next iteration, so the sum may exceed the wait by
    // those few small frames.) Other tests share the machine, and a thread
    // that waits for a core waits in no stage: the best of a few rounds is
    // the reading.
    const STAGES: [&str; 6] = [
        "decode",
        "queue_wait",
        "build",
        "execute",
        "encode",
        "write",
    ];
    let stage_total_us = |report: &spdistal_obs::json::Json| -> f64 {
        let total = |s: &&str| hist_total_us(report, &format!("req.{s}_us"));
        STAGES.iter().map(total).sum()
    };
    let mut before = stage_total_us(&after_two);
    let mut best = 0.0f64;
    for _ in 0..5 {
        let t0 = std::time::Instant::now();
        for _ in 0..5 {
            served(&mut client, &spmv, iters);
        }
        let waited_us = t0.elapsed().as_secs_f64() * 1e6;
        let after = stage_total_us(&report(&mut client));
        best = best.max((after - before) / waited_us);
        before = after;
    }
    assert!(
        best >= 0.9,
        "the stages account for only {best:.3} of a warm request"
    );
    harness.finish();
}

#[test]
fn tcp_submits_do_not_wait_for_nagle() {
    // Without TCP_NODELAY on both ends and one write per frame, a
    // four-event answer is eight small writes into Nagle x delayed ACK: the
    // *fastest* submit took 44 ms.
    let harness = start(spdistal_server::ServerConfig::default());
    let (b_data, c_data) = demo_tensors();
    let mut client = harness.client();
    client.hello("nagle").expect("hello");
    register_demo(&mut client, &b_data, &c_data);
    let spmv = [(STMT, "outer-dim")];
    served(&mut client, &spmv, 1);
    let mut took: Vec<Duration> = (0..30)
        .map(|_| {
            let t0 = std::time::Instant::now();
            served(&mut client, &spmv, 1);
            t0.elapsed()
        })
        .collect();
    took.sort();
    let p50 = took[took.len() / 2];
    assert!(p50 < Duration::from_millis(20), "TCP submit p50 {p50:?}");
    harness.finish();
}

#[test]
fn non_finite_results_arrive_bit_exactly() {
    // diag(1e308, 1e308) x (1e308, -1e308) overflows to (+inf, -inf); the
    // decimal encoding answered [0, 0].
    let harness = start(spdistal_server::ServerConfig::default());
    let mut b = spdistal_sparse::CooTensor::new(vec![2, 2]);
    b.push(&[0, 0], 1e308);
    b.push(&[1, 1], 1e308);
    let b_data = b.build(&Format::blocked_csr().levels);
    let mut client = harness.client();
    client.hello("overflow").expect("hello");
    register_demo(&mut client, &b_data, &[1e308, -1e308]);
    let got = served(&mut client, &[(STMT, "outer-dim")], 1);
    assert_eq!(got, [bits(&[f64::INFINITY, f64::NEG_INFINITY])]);
    harness.finish();
}

/// Send one raw frame and read the one event it is answered with.
fn exchange(raw: &mut TcpStream, payload: &[u8]) -> Event {
    write_frame(raw, payload).expect("send");
    let frame = read_frame(raw, DEFAULT_MAX_FRAME).expect("answer frame");
    Event::parse(&frame).expect("parse")
}

fn expect_error(ev: Event, want: &str) -> String {
    match ev {
        Event::Error { code, message } if code == want => message,
        other => panic!("expected a '{want}' error, got {other:?}"),
    }
}

#[test]
fn malformed_registrations_are_typed_and_the_connection_is_kept() {
    let harness = start(spdistal_server::ServerConfig::default());
    let (b_data, c_data) = demo_tensors();
    let mut neighbour = harness.client();
    neighbour.hello("neighbour").expect("hello");
    register_demo(&mut neighbour, &b_data, &c_data);
    let spmv = [(STMT, "outer-dim")];
    let before = served(&mut neighbour, &spmv, 1);

    let mut raw = harness.raw();
    let register = |dims: &str, coords: &str, block: &str| {
        format!(
            r#"{{"type":"register","name":"B","format":"blocked_csr","dims":{dims},"coords":{coords},"vals_b64":"{block}"}}"#
        )
    };
    // "AAAAAAAA+D8=" is the one value 1.5.
    for (frame, named) in [
        (register("[4,4]", "[[0,1]]", "AAAAAAAA-D8="), "alphabet"),
        (register("[4,4]", "[[0,1]]", "AAAAAAAA+D8"), "padding"),
        (register("[4,4]", "[[0,1]]", "AAAAAAAA"), "multiple of 8"),
        (
            register("[4,4]", "[[0,1],[1,1]]", "AAAAAAAA+D8="),
            "lengths differ",
        ),
        (
            r#"{"type":"register","name":"B","format":"blocked_csr","dims":[4,4],"coords":[[0,1]],"vals":[1.5]}"#
                .to_string(),
            "vals_b64",
        ),
    ] {
        let message = expect_error(exchange(&mut raw, frame.as_bytes()), "bad_json");
        assert!(message.contains(named), "{frame}: {message}");
    }

    // 110 bytes that used to abort the whole process inside the packer
    // (`memory allocation of 17592186044416 bytes failed`): the dense
    // level of a 2^40-row CSR is refused before anything is allocated.
    let huge = register("[1099511627776,4]", "[[0,1]]", "AAAAAAAA+D8=");
    let message = expect_error(exchange(&mut raw, huge.as_bytes()), "bad_tensor");
    assert!(
        message.contains("1099511627776") && message.contains(&DEFAULT_MAX_FRAME.to_string()),
        "names dims and bound: {message}"
    );
    // ... as is one whose byte count overflows `usize`.
    let wrapped = register("[4611686018427387904,4]", "[]", "");
    expect_error(exchange(&mut raw, wrapped.as_bytes()), "bad_tensor");

    // Zero extents stay legal, the connection kept serving throughout, and
    // the neighbour never noticed.
    let empty = register("[0,0]", "[]", "");
    assert_eq!(exchange(&mut raw, empty.as_bytes()), Event::Ok);
    let ok = register("[4,4]", "[[0,1]]", "AAAAAAAA+D8=");
    assert_eq!(exchange(&mut raw, ok.as_bytes()), Event::Ok);
    assert_eq!(served(&mut neighbour, &spmv, 1), before);
    harness.finish();
}

// ---- shutdown and admission under pressure ----

/// Two value-only batches over the first stored coordinates of `b`.
fn value_batches(b: &SpTensor) -> Vec<Vec<spdistal_sparse::CoordDelta>> {
    let coo = b.to_coo();
    let batch = |skip: usize, f: fn(f64) -> f64| {
        let entries = coo.iter().skip(skip).take(4);
        let deltas = entries.map(|(c, v)| spdistal_sparse::CoordDelta::overwrite(c.clone(), f(*v)));
        deltas.collect()
    };
    vec![batch(0, |v| v * 2.0 + 1.0), batch(2, |v| v - 0.5)]
}

/// What an in-process program answers for `STMT` after a cold pass and one
/// incremental pass per batch: the oracle of a served `submit_incremental`.
fn incremental_in_process(
    b_data: &SpTensor,
    c_data: &[f64],
    batches: &[Vec<spdistal_sparse::CoordDelta>],
) -> Vec<u64> {
    let n = b_data.dims()[0];
    let mut program = Program::on(Machine::grid1d(4, MachineProfile::lassen_cpu()))
        .tensor("a", Format::blocked_dense_vec(), dense_vector(vec![0.0; n]))
        .tensor("B", Format::blocked_csr(), b_data.clone())
        .tensor(
            "c",
            Format::replicated_dense_vec(),
            dense_vector(c_data.to_vec()),
        )
        .stmt(STMT)
        .schedule(ScheduleSpec::outer_dim())
        .build()
        .expect("local build");
    program.run().expect("cold pass");
    for batch in batches {
        program.update_batch("B", batch).expect("local batch");
        program.run_incremental().expect("local incremental pass");
    }
    match program.value(0) {
        Some(OutputValue::Tensor(t)) => bits(t.vals()),
        other => panic!("unexpected value {other:?}"),
    }
}

/// Shutdown asked while a `submit_incremental` is on its way in, or while
/// it runs: `run` returns within a deadline, and the job's client gets
/// either the answer an in-process program gives, bit for bit, or a typed
/// refusal — never a hang or a wrong answer.
#[test]
fn shutdown_racing_an_incremental_submit_answers_or_refuses_in_time() {
    let (b_data, c_data) = demo_tensors();
    let batches = value_batches(&b_data);
    let want = incremental_in_process(&b_data, &c_data, &batches);
    for wait_until_running in [false, true] {
        let harness = start(spdistal_server::ServerConfig::default());
        let (ready, submitting) = std::sync::mpsc::channel();
        let (started, running) = std::sync::mpsc::channel();
        let mut client = harness.client();
        let (b, c, batches) = (b_data.clone(), c_data.clone(), batches.clone());
        let job = std::thread::spawn(move || {
            client.hello("racer").expect("hello");
            register_demo(&mut client, &b, &c);
            for batch in &batches {
                client.update_batch("B", batch).expect("queue batch");
            }
            ready.send(()).expect("main thread waits");
            client.submit_incremental(&[(STMT, "outer-dim")], |_| {
                let _ = started.send(());
            })
        });
        submitting
            .recv()
            .expect("the client got as far as its submit");
        if wait_until_running {
            running.recv().expect("the job streams an event");
        }
        let asked = Instant::now();
        harness.handle.request_shutdown();
        harness.thread.join().expect("join").expect("run");
        let took = asked.elapsed();
        assert!(took < Duration::from_secs(15), "shutdown took {took:?}");
        match job.join().expect("the client never panics") {
            Ok(outcome) => {
                let got = &outcome.results.first().expect("a result").1;
                assert_eq!(bits(got), want, "a drained job answers bit for bit");
            }
            Err(ClientError::Server { code, .. }) => {
                assert!(!wait_until_running, "a running job is drained, not refused");
                assert_eq!(code, "server_shutdown");
            }
            Err(e) => {
                assert!(!wait_until_running, "a running job is drained: {e}");
                assert!(
                    matches!(e, ClientError::Io(_) | ClientError::Frame(_)),
                    "{e}"
                );
            }
        }
    }
}

/// With the one worker busy and the one queue slot taken, a burst of
/// submits from eight more connections is refused `queue_full`, each
/// connection goes on serving — a `hello`, then a full submit once the
/// queue drains — and the admitted job answers what it answers alone.
#[test]
fn a_burst_of_queue_full_refusals_leaves_every_connection_serving() {
    const BURST: usize = 8;
    let config = spdistal_server::ServerConfig {
        capacity: 1,
        workers: 1,
        ..spdistal_server::ServerConfig::default()
    };
    let harness = start(config);
    let (b_data, c_data) = demo_tensors();
    let want = fresh_in_process(&b_data, &c_data, &[(STMT, "outer-dim")], 1);

    // Hold the worker: many passes over a larger matrix, running once its
    // first flush report arrives.
    let (started, running) = std::sync::mpsc::channel();
    let mut holder = harness.client();
    let holder = std::thread::spawn(move || {
        let big = generate::banded(30_000, 9, 5);
        let c = generate::dense_vec(big.dims()[1], 3);
        holder.hello("holder").expect("hello");
        register_demo(&mut holder, &big, &c);
        // About a second either way: far longer than the burst takes.
        let iters = if cfg!(debug_assertions) { 256 } else { 1024 };
        holder.submit(&[(STMT, "outer-dim")], iters, true, |_| {
            let _ = started.send(());
        })
    });
    running.recv().expect("the holder's job runs");

    // Take the queue slot.
    let mut admitted = harness.client();
    admitted.hello("admitted").expect("hello");
    register_demo(&mut admitted, &b_data, &c_data);
    let admitted = std::thread::spawn(move || served(&mut admitted, &[(STMT, "outer-dim")], 1));
    std::thread::sleep(Duration::from_millis(100));

    let mut burst: Vec<Client> = (0..BURST).map(|_| harness.client()).collect();
    for (k, client) in burst.iter_mut().enumerate() {
        match client.submit(&[(STMT, "outer-dim")], 1, true, |_| {}) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, "queue_full", "burst {k}"),
            other => panic!("burst {k}: expected queue_full, got {other:?}"),
        }
        client
            .hello(&format!("burst{k}"))
            .expect("a refused connection serves on");
    }

    assert_eq!(admitted.join().expect("admitted client"), want);
    holder.join().expect("holder client").expect("holder job");
    for client in &mut burst {
        register_demo(client, &b_data, &c_data);
        assert_eq!(served(client, &[(STMT, "outer-dim")], 1), want);
    }
    harness.finish();
}
