//! End-to-end service tests: concurrent tenants sharing the plan cache
//! with bit-identical results, protocol robustness (truncated, oversized,
//! malformed frames; mid-stream disconnects), typed bind errors, and
//! drain-on-shutdown.

use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

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
