//! The server-side processes of a run: the real `hermes-serve` and
//! `hermes-coord` release binaries as children on ephemeral ports, their
//! CPU time and peak memory read from `/proc`, and the scratch directories
//! they write to.

use std::io::{BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn sysconf(name: i32) -> i64;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}
const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;
const SC_CLK_TCK: i32 = 2;

/// Moves the calling thread to the real-time round-robin class at the lowest
/// priority, so that an open-loop sending thread waking for a scheduled send
/// runs at once: under the default class it waits out the time slice of
/// whatever server thread holds the core, 1–15 ms on a busy two-core box.
/// The thread only sleeps and writes a few bytes, so it cannot starve
/// anything. Needs the privilege to change scheduling class; without it the
/// call fails, nothing changes, and `client.late_frac` shows it.
pub fn wake_on_time() {
    const SCHED_RR: i32 = 2;
    let lowest_priority: i32 = 1;
    // SAFETY: `sched_param` is one int, read through a valid pointer for the
    // duration of the call; pid 0 names the calling thread.
    unsafe {
        sched_setscheduler(0, SCHED_RR, &lowest_priority);
    }
}

/// A server binary next to this executable — `run.sh` builds all of them
/// into one target directory.
pub fn sibling_binary(name: &str) -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let path = me.with_file_name(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} not found; build it with `cargo build --release -p hermes-server -p hermes-coord` \
             into the same target directory (benchmark/run.sh does)",
            path.display()
        ))
    }
}

/// One child process, killed and reaped when dropped — also on a panic, and
/// by the kernel should this process die first.
pub struct Server {
    child: Child,
    /// Kept open so the child never sees a closed stdout.
    _stdout: BufReader<ChildStdout>,
    /// The wire-protocol address from the `listening on` line.
    pub addr: String,
    /// The `--metrics-addr` endpoint from the `metrics listening on` line.
    pub metrics_addr: String,
}

impl Server {
    /// Spawns `binary` with `args` plus `--port 0 --metrics-addr
    /// 127.0.0.1:0` and blocks until it has announced both addresses.
    pub fn spawn(binary: &Path, args: &[String]) -> Result<Server, String> {
        let mut command = Command::new(binary);
        command
            .args(args)
            .args(["--port", "0", "--metrics-addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        // SAFETY: the closure runs between fork and exec and makes one
        // async-signal-safe system call that touches no memory.
        unsafe {
            command.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
                Ok(())
            });
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut announced = || -> Result<String, String> {
            let mut line = String::new();
            match stdout.read_line(&mut line) {
                Ok(n) if n > 0 => line
                    .trim()
                    .rsplit_once("listening on ")
                    .map(|(_, addr)| addr.to_string())
                    .ok_or_else(|| format!("unexpected announce line '{}'", line.trim())),
                _ => Err("exited before announcing its address".to_string()),
            }
        };
        let addrs = announced().and_then(|addr| Ok((addr, announced()?)));
        match addrs {
            Ok((addr, metrics_addr)) => Ok(Server {
                child,
                _stdout: stdout,
                addr,
                metrics_addr,
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("{}: {e}", binary.display()))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// utime + stime of the process so far, all threads, in milliseconds.
    pub fn cpu_ms(&self) -> f64 {
        let stat =
            std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).unwrap_or_default();
        // The command name (field 2) may hold spaces; fields resume after
        // its closing parenthesis, utime and stime being fields 14 and 15.
        let after_comm = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
        let fields: Vec<&str> = after_comm.split_whitespace().collect();
        let ticks = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        // SAFETY: sysconf reads a system constant and touches no memory.
        let per_second = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
        (ticks(11) + ticks(12)) * 1_000.0 / per_second
    }

    /// `VmHWM`, the peak resident set, in MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .unwrap_or(0.0)
    }

    /// SIGKILL, then wait until the process is gone: the crash of the
    /// durability check. Dropping the handle does the same.
    pub fn kill(self) {}
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `benchmark/out`, where traces, reports and scratch directories go.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A directory under `benchmark/out/`, removed when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(label: &str) -> Result<ScratchDir, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = out_dir().join(format!(
            "{label}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
