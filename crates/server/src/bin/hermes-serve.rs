//! `hermes-serve` — the Hermes network server.
//!
//! ```text
//! hermes-serve                          # listen on 127.0.0.1:8650
//! hermes-serve --addr 0.0.0.0:9000     # explicit bind address
//! hermes-serve --addr 127.0.0.1:0      # ephemeral port (printed on stdout)
//! hermes-serve --port 0                # shorthand for --addr 127.0.0.1:0
//! hermes-serve --max-connections 16    # cap simultaneous connections
//! hermes-serve --threads 8             # intra-query compute threads
//! hermes-serve --data-dir ./hermes     # durable engine: recover on start,
//!                                      # checkpoint on SIGTERM/SIGINT
//! ```
//!
//! Without `--data-dir` the server starts with an empty in-memory engine;
//! clients create datasets and load data over the wire (`hermes-cli load
//! data.csv --connect host:port`, or `HermesClient::ingest`) and everything
//! is lost when the process exits. With `--data-dir` the engine recovers the
//! newest snapshot plus the write-ahead log on startup, journals every
//! mutation, and a graceful shutdown (SIGTERM or Ctrl-C) checkpoints before
//! exiting — clients can also run `CHECKPOINT;` at any time. See
//! `docs/STORAGE.md` for the on-disk formats and recovery semantics.
//!
//! The bound address is announced on stdout as `hermes-serve listening on
//! <addr>` — one line, fixed prefix, address last — so scripts (the CI smoke
//! tests, multi-shard launchers) can scrape the ephemeral port
//! machine-parseably: `sed -n 's/.*listening on //p'`. With `--metrics-addr`
//! a second line `hermes-serve metrics listening on <addr>` announces the
//! Prometheus endpoint the same way (see `docs/OBSERVABILITY.md`).
//!
//! Serving is unix-only (`docs/SERVER.md`): elsewhere the binary builds, says
//! so and exits non-zero.

#[cfg(unix)]
use hermes_core::{ExecPolicy, HermesEngine, SharedEngine};
#[cfg(unix)]
use hermes_obs::serve_metrics;
#[cfg(unix)]
use hermes_server::{Server, ServerConfig};
#[cfg(unix)]
use std::io::Write;
use std::process::ExitCode;

#[cfg(unix)]
const HELP: &str = "\
hermes-serve — the Hermes network server

USAGE:
    hermes-serve [--addr <host:port> | --port <n>] [--max-connections <n>]
                 [--threads <n>] [--data-dir <dir>]
                 [--metrics-addr <host:port>] [--slow-query-ms <n>]
                 [--workers <n>] [--max-pending <n>] [--deadline-ms <n>]

OPTIONS:
    --addr <host:port>       Bind address (default 127.0.0.1:8650; port 0
                             picks an ephemeral port)
    --port <n>               Shorthand for --addr 127.0.0.1:<n>; the bound
                             port is announced on stdout as
                             'hermes-serve listening on <addr>'
    --max-connections <n>    Simultaneous connection cap (default 64)
    --workers <n>            Statement-executing worker threads behind the
                             serving loop (default: one per core, at least
                             2 and at most 8)
    --max-pending <n>        Most admitted-but-unanswered requests across
                             all connections before further pipelined
                             requests get a typed backpressure error
                             (default 1024)
    --deadline-ms <n>        Answer any request not completed within n
                             milliseconds of arrival with a typed deadline
                             error instead of its late result
    --threads <n>            Intra-query compute threads for S2T/QuT/BUILD
                             INDEX (default: HERMES_THREADS or all cores;
                             1 = serial). Clients can change it at runtime
                             with SET threads = n;
    --data-dir <dir>         Durable engine over <dir>: recover snapshot +
                             WAL on start, journal every mutation, and
                             checkpoint on SIGTERM/SIGINT. Clients can also
                             run CHECKPOINT; at any time.
    --metrics-addr <h:p>     Serve the Prometheus text exposition of the
                             process metrics registry at GET /metrics on
                             this address (port 0 picks one; announced as
                             'hermes-serve metrics listening on <addr>')
    --slow-query-ms <n>      Log one structured JSON line to stderr (and
                             bump the slow_queries counter) for every
                             statement slower than n milliseconds
    -h, --help               Print this text
";

#[cfg(not(unix))]
fn main() -> ExitCode {
    fail("hermes-serve serves on unix targets only")
}

#[cfg(unix)]
fn main() -> ExitCode {
    let mut addr = "127.0.0.1:8650".to_string();
    let mut config = ServerConfig::default();
    let mut policy = ExecPolicy::from_env();
    let mut data_dir: Option<String> = None;
    let mut metrics_addr: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(a) => addr = a,
                None => return fail("--addr requires a host:port value"),
            },
            "--port" => match args.next().and_then(|n| n.parse::<u16>().ok()) {
                Some(port) => addr = format!("127.0.0.1:{port}"),
                None => return fail("--port requires a port number (0 picks one)"),
            },
            "--max-connections" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) if n > 0 => config.max_connections = n,
                _ => return fail("--max-connections requires a positive integer"),
            },
            "--workers" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) if n > 0 => config.workers = n,
                _ => return fail("--workers requires a positive integer"),
            },
            "--max-pending" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) if n > 0 => config.max_pending = n,
                _ => return fail("--max-pending requires a positive integer"),
            },
            "--deadline-ms" => match args.next().and_then(|n| n.parse().ok()) {
                Some(ms) => config.deadline_ms = Some(ms),
                None => return fail("--deadline-ms requires a millisecond count"),
            },
            "--threads" => match args
                .next()
                .and_then(|n| n.parse().ok())
                .map(ExecPolicy::new)
            {
                Some(Ok(p)) => policy = p,
                Some(Err(m)) => return fail(&format!("--{m}")),
                None => return fail("--threads requires a positive integer"),
            },
            "--data-dir" => match args.next() {
                Some(dir) => data_dir = Some(dir),
                None => return fail("--data-dir requires a directory path"),
            },
            "--metrics-addr" => match args.next() {
                Some(a) => metrics_addr = Some(a),
                None => return fail("--metrics-addr requires a host:port value"),
            },
            "--slow-query-ms" => match args.next().and_then(|n| n.parse().ok()) {
                Some(ms) => config.slow_query_ms = Some(ms),
                None => return fail("--slow-query-ms requires a millisecond count"),
            },
            "-h" | "--help" => {
                print!("{HELP}");
                return ExitCode::SUCCESS;
            }
            other => return fail(&format!("unknown argument '{other}'\n\n{HELP}")),
        }
    }

    let durable = data_dir.is_some();
    let engine = match &data_dir {
        Some(dir) => match HermesEngine::open_with_exec_policy(dir, policy) {
            Ok(engine) => {
                let stats = engine.stats();
                eprintln!(
                    "recovered {} dataset(s) from {dir} (snapshot {} B, wal {} B)",
                    stats.datasets, stats.snapshot_bytes, stats.wal_bytes
                );
                SharedEngine::new(engine)
            }
            Err(e) => return fail(&format!("cannot open data directory {dir}: {e}")),
        },
        None => SharedEngine::new(HermesEngine::with_exec_policy(policy)),
    };

    let server = match Server::bind(&addr, engine.clone(), config) {
        Ok(s) => s,
        Err(e) => return fail(&format!("cannot bind {addr}: {e}")),
    };
    let bound = match server.local_addr() {
        Ok(a) => a,
        Err(e) => return fail(&format!("cannot resolve bound address: {e}")),
    };
    let handle = match server.spawn() {
        Ok(h) => h,
        Err(e) => return fail(&format!("cannot start the serving loop: {e}")),
    };
    println!("hermes-serve listening on {bound}");
    // Keep the scrape listener alive for the life of the process.
    let _metrics_handle = match &metrics_addr {
        Some(maddr) => match serve_metrics(maddr.as_str(), handle.registry()) {
            Ok(h) => {
                println!("hermes-serve metrics listening on {}", h.addr());
                Some(h)
            }
            Err(e) => return fail(&format!("cannot bind metrics address {maddr}: {e}")),
        },
        None => None,
    };
    let _ = std::io::stdout().flush();

    // Block until the process is asked to stop, then shut down gracefully:
    // stop accepting connections, and on a durable engine make the current
    // state the recovery point.
    wait_for_termination();
    eprintln!("hermes-serve: shutting down");
    handle.shutdown();
    if durable {
        match engine.with_write(|e| e.checkpoint()) {
            Ok(info) => eprintln!(
                "hermes-serve: checkpointed {} B (discarded {} B of wal) in {} ms",
                info.snapshot_bytes, info.wal_bytes_discarded, info.elapsed_ms
            ),
            Err(e) => return fail(&format!("shutdown checkpoint failed: {e}")),
        }
    }
    ExitCode::SUCCESS
}

fn fail(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    ExitCode::FAILURE
}

/// Blocks until SIGTERM or SIGINT arrives. Signal handlers may only
/// do async-signal-safe work, so the handler writes one byte into a
/// self-pipe and the main thread blocks reading it — the classic self-pipe
/// trick, built on the C library symbols std already links against.
#[cfg(unix)]
fn wait_for_termination() {
    use std::sync::atomic::{AtomicI32, Ordering};

    static WRITE_FD: AtomicI32 = AtomicI32::new(-1);

    extern "C" {
        fn pipe(fds: *mut i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        let fd = WRITE_FD.load(Ordering::SeqCst);
        if fd >= 0 {
            let _ = unsafe { write(fd, b"x".as_ptr(), 1) };
        }
    }

    let mut fds = [-1i32; 2];
    if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
        // No pipe, no graceful shutdown — behave like the pre-durability
        // server and simply run until killed.
        loop {
            std::thread::park();
        }
    }
    WRITE_FD.store(fds[1], Ordering::SeqCst);
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
    let mut buf = [0u8; 1];
    loop {
        let n = unsafe { read(fds[0], buf.as_mut_ptr(), 1) };
        if n >= 1 {
            return;
        }
        // n < 0 is EINTR from the very signal we are waiting for (or a
        // spurious wakeup): retry, the handler's byte is (or will be) in
        // the pipe.
    }
}
