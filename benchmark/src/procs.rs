//! The program under test: building its release binaries from the
//! checkout, and starting and stopping its server processes.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::http;

/// The release binaries the benchmark drives: the two servers, and the
/// figure binaries whose standard output is, by contract, the served body.
const BINS: [&str; 9] =
    ["hbc-serve", "hbc-cluster", "fig1", "fig3", "fig4", "fig5", "fig6", "table1", "table2"];

/// Cargo's target directory for the checkout in the current directory.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Where the built binaries are.
#[derive(Debug, Clone)]
pub struct Bins {
    dir: PathBuf,
}

impl Bins {
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

/// Builds the release binaries of the checkout in the current directory
/// and refuses any binary older than a source file it was built from.
pub fn build() -> Result<Bins, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("crates").is_dir() {
        return Err("no Cargo.toml and crates/ here: run from the repository root".to_string());
    }
    let mut cargo = Command::new("cargo");
    cargo.args(["build", "--release", "--offline", "--quiet", "--workspace"]);
    for bin in BINS {
        cargo.args(["--bin", bin]);
    }
    run_quietly(&mut cargo, "cargo build --release")?;
    let bins = Bins { dir: target_dir().join("release") };
    for bin in BINS {
        check_fresh(&bins.dir, bin)?;
    }
    Ok(bins)
}

/// Builds the per-layer probe binary (`benchmark/layers`) in its own
/// target subdirectory and returns its path.
pub fn build_layers() -> Result<PathBuf, String> {
    let target = target_dir().join("benchmark-layers");
    let mut cargo = Command::new("cargo");
    cargo.args(["build", "--release", "--offline", "--quiet"]);
    cargo.args(["--manifest-path", "benchmark/layers/Cargo.toml", "--target-dir"]);
    cargo.arg(&target);
    run_quietly(&mut cargo, "cargo build of benchmark/layers")?;
    Ok(target.join("release").join("hbc-benchmark-layers"))
}

/// Runs `cmd` with its standard output sent to standard error, so the
/// benchmark's own last stdout line stays the result.
fn run_quietly(cmd: &mut Command, what: &str) -> Result<(), String> {
    let status = cmd
        .stdin(Stdio::null())
        .stdout(std::io::stderr())
        .status()
        .map_err(|e| format!("{what}: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("{what} failed ({status})"))
    }
}

/// Errors if `bin` is missing or older than any source in its cargo
/// dep-info file.
fn check_fresh(dir: &Path, bin: &str) -> Result<(), String> {
    let modified = |p: &Path| std::fs::metadata(p).and_then(|m| m.modified());
    let built = modified(&dir.join(bin)).map_err(|e| format!("{bin} was not built: {e}"))?;
    let dep_info = std::fs::read_to_string(dir.join(format!("{bin}.d")))
        .map_err(|e| format!("{bin}.d unreadable: {e}"))?;
    let sources = dep_info.split_once(": ").map_or("", |(_, deps)| deps);
    for source in sources.split_whitespace() {
        if modified(Path::new(source)).is_ok_and(|t| t > built) {
            return Err(format!("{bin} is older than {source}: rebuild it"));
        }
    }
    Ok(())
}

/// One server process, started and listening.
pub struct Proc {
    child: Child,
    /// Held open so the server's later prints never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Proc {
    /// Starts `bin args…` and waits for its `… listening on [http://]ADDR`
    /// line.
    fn spawn(bin: &Path, args: &[String]) -> Result<Proc, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.split_whitespace().last())
            .and_then(|a| a.trim_start_matches("http://").parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("{} did not report a listening address", bin.display()));
        };
        Ok(Proc { child, _stdout: stdout, addr })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits up to ten seconds for a requested exit, then kills.
    fn wait_exit(mut self) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // Drop kills and reaps.
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Server-side settings every process shares: an ephemeral port and
/// (traced runs only) a span ring large enough that nothing is dropped.
/// Processes that hold a result cache also get `--cache-dir none`: no
/// disk tier.
fn common_args(traced: bool, caches: bool) -> Vec<String> {
    let mut args: Vec<String> = ["--addr", "127.0.0.1:0"].map(String::from).into();
    if caches {
        args.extend(["--cache-dir".to_string(), "none".to_string()]);
    }
    if traced {
        args.extend(["--span-capacity".to_string(), TRACED_SPAN_CAPACITY.to_string()]);
    }
    args
}

/// Span ring size for traced runs: 500 req/s for 60 s at ~8 spans each.
const TRACED_SPAN_CAPACITY: usize = 1 << 18;

/// The service a workload talks to: one `hbc-serve`, or a coordinator in
/// front of cluster workers.
pub struct Service {
    front: Proc,
    workers: Vec<Proc>,
}

impl Service {
    /// `hbc-serve --workers 2`.
    pub fn single(bins: &Bins, traced: bool) -> Result<Service, String> {
        let mut args = common_args(traced, true);
        args.extend(["--workers".to_string(), "2".to_string()]);
        let front = Proc::spawn(&bins.path("hbc-serve"), &args)?;
        Ok(Service { front, workers: Vec::new() })
    }

    /// Two `hbc-cluster worker`s behind `hbc-cluster coordinator --handlers 2`.
    pub fn cluster(bins: &Bins, traced: bool) -> Result<Service, String> {
        let cluster = bins.path("hbc-cluster");
        let mut workers = Vec::new();
        for _ in 0..2 {
            let mut args = vec!["worker".to_string()];
            args.extend(common_args(traced, true));
            workers.push(Proc::spawn(&cluster, &args)?);
        }
        let mut args = vec!["coordinator".to_string()];
        for w in &workers {
            args.extend(["--worker".to_string(), w.addr.to_string()]);
        }
        args.extend(common_args(traced, false));
        args.extend(["--handlers".to_string(), "2".to_string()]);
        let front = Proc::spawn(&cluster, &args)?;
        Ok(Service { front, workers })
    }

    /// The HTTP front door.
    pub fn addr(&self) -> SocketAddr {
        self.front.addr
    }

    pub fn is_cluster(&self) -> bool {
        !self.workers.is_empty()
    }

    /// Peak resident memory of every server process, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let kib: u64 = self.pids().filter_map(vm_hwm_kib).sum();
        kib as f64 / 1024.0
    }

    /// Memory maps held by the cluster workers.
    pub fn worker_maps(&self) -> usize {
        self.workers.iter().filter_map(|w| map_count(w.pid())).sum()
    }

    fn pids(&self) -> impl Iterator<Item = u32> + '_ {
        std::iter::once(&self.front).chain(&self.workers).map(Proc::pid)
    }

    /// Graceful stop: `POST /shutdown` to the front, then a wire `Drain`
    /// to each worker; anything still running after ten seconds is killed.
    pub fn stop(self, bins: &Bins) {
        let _ = http::request(self.addr(), "POST", "/shutdown", b"", Duration::from_secs(5));
        self.front.wait_exit();
        for worker in self.workers {
            let _ = Command::new(bins.path("hbc-cluster"))
                .args(["drain", "--addr", &worker.addr.to_string()])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .status();
            worker.wait_exit();
        }
    }
}

/// `VmHWM` (peak resident set) of a live process, in KiB.
fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Number of memory maps of a live process.
fn map_count(pid: u32) -> Option<usize> {
    std::fs::read_to_string(format!("/proc/{pid}/maps")).ok().map(|m| m.lines().count())
}
