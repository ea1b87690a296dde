//! What machine produced a number, and what a process cost it.
//!
//! Owns: the host fingerprint every result file carries, `/proc` readers
//! for peak resident memory and CPU ticks, and where the benchmark may
//! write (its own `out/` directory, nowhere else).

use std::path::{Path, PathBuf};

/// The benchmark package directory (`benchmark/` of the checkout the
/// binary was built from).
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `benchmark/out/`: traces, result files, server logs and sockets.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = package_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// `path` relative to the current directory when it lies below it —
/// Unix socket paths are capped near 100 bytes, and a checkout can sit
/// deep in the file system.
pub fn short_path(path: &Path) -> PathBuf {
    std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(&cwd).ok().map(Path::to_path_buf))
        .unwrap_or_else(|| path.to_path_buf())
}

/// The glibc malloc settings every measured process runs under: keep
/// freed memory in the heap (never trim it back to the kernel, serve
/// blocks up to 32 MiB from the heap instead of `mmap`/`munmap`).
///
/// Why: with the defaults, an op that frees and re-allocates megabytes
/// (`update_batch` rebuilds a tensor through a `BTreeMap`) hands its pages
/// back and faults them in again every time, and on this VM the cost of a
/// page fault swings with the host. A/B on the same binary and seed,
/// alternating runs: `stream_delta` p50 43.4-47.4 ms with the defaults,
/// 37.7-39.3 ms with a retained heap. The setting is the same for every
/// commit measured and is part of what the numbers mean; a deployment
/// that cares about tail latency sets it too.
pub const MALLOC_TUNABLES: &str = "glibc.malloc.mmap_threshold=33554432:\
glibc.malloc.trim_threshold=17179869184:glibc.malloc.top_pad=268435456";

/// Re-execute this process under [`MALLOC_TUNABLES`] unless it already
/// runs under them (glibc reads the variable once, at start-up). Children
/// — the spawned `spd-server` — inherit it.
#[cfg(unix)]
pub fn pin_allocator() -> Result<(), String> {
    use std::os::unix::process::CommandExt;
    const VAR: &str = "GLIBC_TUNABLES";
    if std::env::var(VAR).is_ok_and(|v| v == MALLOC_TUNABLES) {
        return Ok(());
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let failed = std::process::Command::new(exe)
        .args(std::env::args_os().skip(1))
        .env(VAR, MALLOC_TUNABLES)
        .exec();
    Err(format!("cannot re-execute under {VAR}: {failed}"))
}

#[cfg(not(unix))]
pub fn pin_allocator() -> Result<(), String> {
    Ok(())
}

#[derive(Clone, Debug, PartialEq)]
pub struct Fingerprint {
    pub cpu_model: String,
    pub nproc: usize,
    pub rustc: String,
    pub avx: bool,
}

impl Fingerprint {
    pub fn detect() -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        #[cfg(target_arch = "x86_64")]
        let avx = std::is_x86_feature_detected!("avx");
        #[cfg(not(target_arch = "x86_64"))]
        let avx = false;
        Fingerprint {
            cpu_model,
            nproc: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            rustc,
            avx,
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpu_model\":\"{}\",\"nproc\":{},\"rustc\":\"{}\",\"avx\":{}}}",
            spdistal_obs::json::escape(&self.cpu_model),
            self.nproc,
            spdistal_obs::json::escape(&self.rustc),
            self.avx
        )
    }
}

/// Which process a workload's memory and CPU are read from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Pid {
    /// The benchmark process itself (in-process workloads).
    Own,
    /// A spawned `spd-server`.
    Child(u32),
}

impl Pid {
    fn proc_file(&self, file: &str) -> String {
        match self {
            Pid::Own => format!("/proc/self/{file}"),
            Pid::Child(pid) => format!("/proc/{pid}/{file}"),
        }
    }
}

/// `VmHWM` (peak resident set) in MiB.
pub fn peak_rss_mib(pid: Pid) -> Option<f64> {
    let status = std::fs::read_to_string(pid.proc_file("status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User + system CPU seconds consumed so far, threads that already
/// exited included. The kernel reports ticks of 1/100 s (`USER_HZ`).
pub fn cpu_seconds(pid: Pid) -> Option<f64> {
    let stat = std::fs::read_to_string(pid.proc_file("stat")).ok()?;
    // The command name may hold spaces; fields are counted after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_is_readable() {
        assert!(peak_rss_mib(Pid::Own).unwrap() > 0.5);
        let before = cpu_seconds(Pid::Own).unwrap();
        let mut x = 0u64;
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds(Pid::Own).unwrap() >= before);
    }

    #[test]
    fn fingerprint_round_trips_as_json() {
        let fp = Fingerprint::detect();
        assert!(fp.nproc >= 1);
        let v = spdistal_obs::json::Json::parse(&fp.to_json()).unwrap();
        assert_eq!(v.get("cpu_model").unwrap().as_str().unwrap(), fp.cpu_model);
        assert_eq!(v.get("nproc").unwrap().as_f64().unwrap() as usize, fp.nproc);
    }
}
