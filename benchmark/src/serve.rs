//! `serve_closed`: two closed-loop clients against a spawned release
//! `spd-server`, over Unix sockets, two tenants on one shared plan cache.
//!
//! Owns: building and spawning the server, the client connections, the
//! per-request verification, reading the server's memory/CPU/report.
//! Does not own: timing and statistics (`measure`).
//!
//! Callers each wait for a reply, so the loop is closed: a slow server
//! receives less load, and latency is measured from the moment a request
//! is sent.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use spdistal::prelude::Trace;
use spdistal_client::client::{Client as WireClient, ClientError};
use spdistal_sparse::reference;

use crate::host::{self, Pid};
use crate::spans::SpanRecorder;
use crate::spec::{self, Checksum, Expected, ProgramSpec, TOLERANCE};
use crate::workloads::{Client, LayerCounts, Workload};

/// Connections from the one generator process, one tenant each (`nproc`
/// is 2: more clients would only queue behind the server's one worker).
pub const CONNECTIONS: usize = 2;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Build (or refresh) the release `spd-server` next to this binary and
/// return its path. Not part of set-up time: it is the program's build.
pub fn ensure_server_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(err)?;
    let profile_dir = exe.parent().ok_or("benchmark binary has no directory")?;
    let target_dir = profile_dir
        .parent()
        .ok_or("benchmark binary is not inside a cargo target directory")?;
    let root = host::package_dir()
        .parent()
        .ok_or("benchmark package has no parent directory")?;
    if !root.join("Cargo.toml").is_file() {
        return Err(format!(
            "no Cargo.toml in {}: serve_closed needs the repo's spdistal-server package",
            root.display()
        ));
    }
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "--offline"])
        .args(["-p", "spdistal-server"])
        .arg("--target-dir")
        .arg(target_dir)
        .current_dir(root)
        // stdout carries this run's result line; keep cargo off it.
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build -p spdistal-server failed: {status}"));
    }
    let bin = target_dir.join("release").join("spd-server");
    if !bin.is_file() {
        return Err(format!("{} was not built", bin.display()));
    }
    Ok(bin)
}

/// A running server; killed and reaped on drop so no path leaks it.
struct Server {
    child: Child,
    socket: PathBuf,
}

impl Server {
    fn spawn(bin: &Path, tag: &str, chrome_trace: Option<&Path>) -> Result<Server, String> {
        let out = host::out_dir().map_err(err)?;
        let name = format!("spd-{}-{tag}.sock", std::process::id());
        let socket = out.join(&name);
        let _ = std::fs::remove_file(&socket);
        let log = std::fs::File::create(out.join(format!("server_{tag}.log"))).map_err(err)?;
        let mut cmd = Command::new(bin);
        // Relative to the server's directory: socket paths are short-capped.
        cmd.current_dir(&out).arg("--uds").arg(&name);
        if let Some(path) = chrome_trace {
            cmd.arg("--trace").arg(path);
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(log.try_clone().map_err(err)?)
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut server = Server { child, socket };
        // Ready when a connection is accepted (the socket file appears at
        // bind, a moment before the server listens on it).
        let deadline = Instant::now() + Duration::from_secs(20);
        while server.connect().is_err() {
            if let Some(status) = server.child.try_wait().map_err(err)? {
                return Err(format!("spd-server exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("spd-server accepted no connection within 20 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(server)
    }

    fn connect(&self) -> Result<WireClient, String> {
        WireClient::connect_uds(host::short_path(&self.socket)).map_err(err)
    }

    /// Ask for a drain-and-exit, wait for it, fall back to kill.
    fn stop(&mut self) -> Result<(), String> {
        if self.child.try_wait().map_err(err)?.is_some() {
            return Ok(());
        }
        let asked = self
            .connect()
            .and_then(|mut c| c.shutdown_server().map_err(err));
        let deadline = Instant::now() + Duration::from_secs(10);
        while asked.is_ok() && Instant::now() < deadline {
            if let Some(status) = self.child.try_wait().map_err(err)? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("spd-server exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        Err(format!(
            "spd-server had to be killed (shutdown request: {asked:?})"
        ))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

pub struct ServeWorkload {
    spec: ProgramSpec,
    server: Server,
    clients: Vec<ServeClient>,
    /// Seconds the `register_tensor` calls of set-up took.
    register_seconds: f64,
    cpu_at_setup: f64,
}

struct ServeClient {
    conn: WireClient,
    stmts: Vec<(String, String)>,
    spec: ProgramSpec,
    expected: Option<Vec<Expected>>,
    first_sum: Option<Checksum>,
    last: Vec<(usize, Vec<f64>)>,
    counts: LayerCounts,
}

impl ServeWorkload {
    /// Spawn the server (`bin` from [`ensure_server_binary`]), connect,
    /// `hello`, register the tensors and send one warm-up request per
    /// connection (the first compiles the plan, the second is the
    /// cross-tenant hit).
    pub fn setup(bin: &Path, spec: ProgramSpec, trace: Trace) -> Result<ServeWorkload, String> {
        let traced = trace.is_enabled();
        let tag = if traced { "traced" } else { "plain" };
        // The server's own trace is always on; `--trace` additionally
        // makes it write its Chrome trace when it stops.
        let chrome = match traced {
            true => Some(host::out_dir().map_err(err)?.join("trace_spd-server.json")),
            false => None,
        };
        let server = Server::spawn(bin, tag, chrome.as_deref())?;
        let stmts: Vec<(String, String)> = spec
            .stmts
            .iter()
            .map(|s| (s.tin.clone(), s.sched.wire_name().to_string()))
            .collect();
        let mut register_seconds = 0.0;
        let mut clients = Vec::new();
        for k in 0..CONNECTIONS {
            let mut conn = server.connect()?;
            conn.hello(&format!("tenant-{k}")).map_err(err)?;
            let t0 = Instant::now();
            for t in &spec.tensors {
                conn.register_tensor(&t.name, t.format_name, &t.data)
                    .map_err(err)?;
            }
            register_seconds += t0.elapsed().as_secs_f64();
            let mut client = ServeClient {
                conn,
                stmts: stmts.clone(),
                spec: spec.clone(),
                expected: None,
                first_sum: None,
                last: Vec::new(),
                counts: LayerCounts::default(),
            };
            client.op(&mut SpanRecorder::new(false, Instant::now(), 0))?;
            client.counts = LayerCounts::default();
            clients.push(client);
        }
        let cpu_at_setup = host::cpu_seconds(Pid::Child(server.child.id())).unwrap_or(0.0);
        Ok(ServeWorkload {
            spec,
            server,
            clients,
            register_seconds: register_seconds / CONNECTIONS as f64,
            cpu_at_setup,
        })
    }
}

impl Client for ServeClient {
    fn op(&mut self, rec: &mut SpanRecorder) -> Result<(), String> {
        let stmts: Vec<(&str, &str)> = self
            .stmts
            .iter()
            .map(|(t, s)| (t.as_str(), s.as_str()))
            .collect();
        let conn = &mut self.conn;
        let outcome = rec.span("client.submit", || conn.submit(&stmts, 1, true, |_| {}));
        match outcome {
            Ok(o) => {
                self.counts.cache_hits += o.cache_hits as u64;
                self.counts.cache_misses += o.compiles as u64;
                self.counts.server_exec_seconds += o.wall_seconds;
                self.last = o.results;
                Ok(())
            }
            Err(ClientError::Server { code, message }) => {
                if code == "queue_full" {
                    self.counts.refused += 1;
                }
                Err(format!("server error {code}: {message}"))
            }
            Err(e) => Err(err(e)),
        }
    }

    fn account(&mut self) {
        self.counts.ops += 1;
    }

    fn check(&mut self, full: bool) -> Result<(), String> {
        let mut sum = Checksum::new();
        for (_, vals) in &self.last {
            sum.fold(vals);
        }
        sum.same_as_first(&mut self.first_sum)?;
        if full {
            let spec = &self.spec;
            let expected = self.expected.get_or_insert_with(|| spec::oracle(spec));
            if self.last.len() != expected.len() {
                return Err(format!(
                    "{} results for {} statements",
                    self.last.len(),
                    expected.len()
                ));
            }
            for (stmt, vals) in &self.last {
                // Every served statement here has a dense output.
                let Some(Expected::Vals(e)) = expected.get(*stmt) else {
                    return Err(format!("no dense oracle for served statement {stmt}"));
                };
                if !reference::approx_eq(vals, e, TOLERANCE) {
                    return Err(format!(
                        "served statement {stmt} differs from the serial reference"
                    ));
                }
            }
        }
        Ok(())
    }

    fn counts(&self) -> LayerCounts {
        self.counts
    }
}

/// A counter of the server's merged run report (0 when absent).
fn report_counter(report: &spdistal_obs::json::Json, name: &str) -> f64 {
    report
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0)
}

impl Workload for ServeWorkload {
    fn clients(&mut self) -> Vec<&mut dyn Client> {
        self.clients
            .iter_mut()
            .map(|c| c as &mut dyn Client)
            .collect()
    }

    fn pid(&self) -> Pid {
        Pid::Child(self.server.child.id())
    }

    fn spec(&self) -> &ProgramSpec {
        &self.spec
    }

    /// What only the server can tell: its report's counters, its CPU and
    /// memory. Read over a third connection after the window.
    fn probe(&mut self, rec: &mut SpanRecorder) -> Result<Vec<(&'static str, f64)>, String> {
        let pid = self.pid();
        let ops: u64 = self.clients.iter().map(|c| c.counts.ops).sum();
        let cpu = host::cpu_seconds(pid).unwrap_or(0.0) - self.cpu_at_setup;
        let mut conn = self.server.connect()?;
        let json = rec.span("client.report", || conn.report()).map_err(err)?;
        let report = spdistal_obs::json::Json::parse(&json)?;
        let count = |name: &str| report_counter(&report, name);
        let iterations = count("iterations").max(1.0);
        let dispatched = count("kernel.specialized") + count("kernel.fallback");
        let field = |name: &str| report.get(name).and_then(|v| v.as_f64()).unwrap_or(0.0);
        Ok(vec![
            ("client.register_ms", self.register_seconds * 1e3),
            ("server.cpu_ms_per_req", cpu * 1e3 / ops.max(1) as f64),
            ("server.rss_mb", host::peak_rss_mib(pid).unwrap_or(0.0)),
            (
                "server.cross_tenant_hit",
                count("plan_cache.hit.cross_tenant"),
            ),
            (
                "kernels.specialized_share",
                if dispatched > 0.0 {
                    count("kernel.specialized") / dispatched
                } else {
                    0.0
                },
            ),
            ("model.launches", count("model_launches") / iterations),
            ("model.fences", count("model_fences") / iterations),
            ("sched.spans", count("spans") / iterations),
            ("sched.steals", count("steals") / iterations),
            ("obs.events", field("events")),
            ("obs.events_dropped", field("events_dropped")),
        ])
    }

    fn finish(&mut self) -> Result<(), String> {
        self.server.stop()
    }
}
