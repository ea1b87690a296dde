//! The `spd-server` daemon under a termination signal: its own binary in
//! its own process, so the latch it sets cannot stop anything else.

#![cfg(unix)]

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// SIGTERM reaches the daemon's latching handler (`signal::install`) and
/// the ordinary drain path follows: `spd-server` says it drained, exits 0
/// and unlinks its socket.
#[test]
fn sigterm_drains_the_daemon_and_unlinks_its_socket() {
    let path = std::env::temp_dir().join(format!("spd-sigterm-test-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let daemon = Command::new(env!("CARGO_BIN_EXE_spd-server"))
        .arg("--uds")
        .arg(&path)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn spd-server");
    // The handler is installed before the socket is bound.
    let deadline = Instant::now() + Duration::from_secs(20);
    while !path.exists() {
        assert!(
            Instant::now() < deadline,
            "spd-server never bound its socket"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let killed = Command::new("kill")
        .args(["-TERM", &daemon.id().to_string()])
        .status()
        .expect("run kill");
    assert!(killed.success());
    let out = daemon.wait_with_output().expect("wait for spd-server");
    assert!(out.status.success(), "spd-server exited {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("drained and stopped"), "{stdout}");
    assert!(!path.exists(), "socket file must be unlinked at shutdown");
}
