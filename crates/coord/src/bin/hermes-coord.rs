//! `hermes-coord` — the Hermes sharding coordinator.
//!
//! ```text
//! hermes-coord --shard a=host1:8650@min..3600000 \
//!              --shard b=host2:8650@3600000..max
//! hermes-coord --shard a=host1:8650,host2:8650@min..max --hedge-ms 30
//! hermes-coord --shard-map shards.toml --addr 0.0.0.0:8651
//! hermes-coord --shard solo=host1:8650 --port 0    # ephemeral upstream port
//! ```
//!
//! The coordinator owns a static shard map (temporal sub-chunk → replica
//! set), speaks the normal wire protocol downstream to each `hermes-serve`
//! endpoint, and upstream exposes the same protocol — `hermes-cli --connect`
//! works unchanged. Multi-shard reads fan out in parallel and are merged
//! bit-identically to a single-node engine, failing over (and optionally
//! hedging) across a shard's replicas; writes route by shard key or
//! broadcast to every replica all-or-error. See `docs/SHARDING.md`.
//!
//! The bound address is announced on stdout as `hermes-coord listening on
//! <addr>` so scripts can scrape the ephemeral port, mirroring
//! `hermes-serve`. With `--metrics-addr` a second line `hermes-coord metrics
//! listening on <addr>` announces the Prometheus endpoint the same way.
//!
//! Upstream connections are served by `hermes-server`'s one serving loop
//! (pipelining, admission control, typed error codes), which is unix-only
//! (`docs/SERVER.md`): elsewhere the binary builds, says so and exits
//! non-zero.

#[cfg(unix)]
use hermes_coord::{
    parse_shard_flag, parse_shard_map, validate_shard_map, Coordinator, FailoverPolicy, ShardSpec,
};
#[cfg(unix)]
use hermes_exec::ExecPolicy;
#[cfg(unix)]
use hermes_obs::serve_metrics;
#[cfg(unix)]
use hermes_server::{ConnectOptions, Server, ServerConfig};
#[cfg(unix)]
use std::io::Write;
use std::process::ExitCode;
#[cfg(unix)]
use std::time::Duration;

#[cfg(unix)]
const HELP: &str = "\
hermes-coord — the Hermes sharding coordinator

USAGE:
    hermes-coord (--shard <name=addr[,addr2,…][@start..end]>)...
                 [--shard-map <file>]
                 [--addr <host:port> | --port <n>] [--max-connections <n>]
                 [--threads <n>] [--connect-timeout-ms <n>]
                 [--read-timeout-ms <n>] [--retries <n>]
                 [--hedge-ms <n>] [--failover-backoff-ms <n>]
                 [--metrics-addr <host:port>] [--slow-query-ms <n>]

OPTIONS:
    --shard <spec>           One shard: name=addr[,addr2,…][@start..end].
                             The address list is the shard's replica set
                             (primary first; replicas receive every write
                             and serve reads on failover). The half-open
                             slice bounds are epoch ms, 'min' or 'max'
                             (both default to unbounded). Repeatable.
    --shard-map <file>       Shard map file: [[shard]] tables with name,
                             addr (same comma-separated replica syntax)
                             and optional start_ms / end_ms keys.
                             Combines with --shard flags.
    --addr <host:port>       Upstream bind address (default 127.0.0.1:8651;
                             port 0 picks an ephemeral port)
    --port <n>               Shorthand for --addr 127.0.0.1:<n>
    --max-connections <n>    Simultaneous upstream connection cap
                             (default 64)
    --threads <n>            Fan-out/merge compute threads (default:
                             HERMES_THREADS or all cores; 1 = serial).
                             SET threads = n; also rebroadcasts to shards.
    --connect-timeout-ms <n> Per-attempt shard connect timeout
                             (default 5000)
    --read-timeout-ms <n>    Per-request shard deadline: an endpoint
                             exceeding it fails the attempt and the read
                             fails over to the next replica
                             (default: block forever)
    --retries <n>            Extra connect attempts per endpoint dial
                             (default 3, exponential backoff)
    --hedge-ms <n>           Hedged reads: when a primary has not answered
                             within n ms, fire a duplicate of the read at a
                             replica and take the first answer (the loser
                             is ignored). Off by default.
    --failover-backoff-ms <n> Base pause before retrying a read on the next
                             replica; doubles per attempt, jittered ±50%
                             (default 10)
    --metrics-addr <h:p>     Serve the Prometheus text exposition of the
                             process metrics registry (coordinator counters
                             plus per-shard hermes_shard_* series) at
                             GET /metrics on this address (port 0 picks one;
                             announced as 'hermes-coord metrics listening
                             on <addr>')
    --slow-query-ms <n>      Log one structured JSON line (with the
                             statement's distributed trace id) to stderr for
                             every statement slower than n milliseconds
    -h, --help               Print this text

The slices must partition the whole time axis (first starts at min, last
ends at max, no gaps or overlaps) and interior boundaries must be multiples
of the BUILD INDEX chunk duration — the coordinator enforces both.
";

#[cfg(not(unix))]
fn main() -> ExitCode {
    fail("hermes-coord serves on unix targets only")
}

#[cfg(unix)]
fn main() -> ExitCode {
    let mut addr = "127.0.0.1:8651".to_string();
    let mut config = ServerConfig::default();
    let mut policy = ExecPolicy::from_env();
    let mut opts = ConnectOptions::default();
    let mut failover = FailoverPolicy::default();
    let mut shards: Vec<ShardSpec> = Vec::new();
    let mut metrics_addr: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--shard" => match args.next().map(|v| parse_shard_flag(&v)) {
                Some(Ok(spec)) => shards.push(spec),
                Some(Err(e)) => return fail(&e.to_string()),
                None => return fail("--shard requires a name=addr[@start..end] value"),
            },
            "--shard-map" => match args.next() {
                Some(path) => match std::fs::read_to_string(&path) {
                    Ok(text) => match parse_shard_map(&text) {
                        Ok(mut specs) => shards.append(&mut specs),
                        Err(e) => return fail(&format!("{path}: {e}")),
                    },
                    Err(e) => return fail(&format!("cannot read shard map {path}: {e}")),
                },
                None => return fail("--shard-map requires a file path"),
            },
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
            "--threads" => match args
                .next()
                .and_then(|n| n.parse().ok())
                .map(ExecPolicy::new)
            {
                Some(Ok(p)) => policy = p,
                Some(Err(m)) => return fail(&format!("--{m}")),
                None => return fail("--threads requires a positive integer"),
            },
            "--connect-timeout-ms" => match args.next().and_then(|n| n.parse().ok()) {
                Some(ms) => opts.connect_timeout = Duration::from_millis(ms),
                None => return fail("--connect-timeout-ms requires a millisecond count"),
            },
            "--read-timeout-ms" => match args.next().and_then(|n| n.parse().ok()) {
                Some(ms) if ms > 0 => opts.read_timeout = Some(Duration::from_millis(ms)),
                _ => return fail("--read-timeout-ms requires a positive millisecond count"),
            },
            "--retries" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => opts.retries = n,
                None => return fail("--retries requires an attempt count"),
            },
            "--hedge-ms" => match args.next().and_then(|n| n.parse().ok()) {
                Some(ms) if ms > 0 => failover.hedge = Some(Duration::from_millis(ms)),
                _ => return fail("--hedge-ms requires a positive millisecond count"),
            },
            "--failover-backoff-ms" => match args.next().and_then(|n| n.parse().ok()) {
                Some(ms) => failover.backoff = Duration::from_millis(ms),
                None => return fail("--failover-backoff-ms requires a millisecond count"),
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

    if shards.is_empty() {
        return fail(
            "no shards configured; pass --shard or --shard-map\n\nRun with --help for the syntax",
        );
    }
    if let Err(e) = validate_shard_map(&mut shards) {
        return fail(&e.to_string());
    }

    let coordinator = Coordinator::with_failover(shards, opts, policy, failover);
    // Startup health probes: report each endpoint's reachability, but start
    // regardless — an endpoint that is still coming up will be retried on
    // its first query, and SHOW STATS tracks liveness from then on.
    for (name, endpoint_addr, alive) in coordinator.probe_all() {
        if alive {
            eprintln!("shard '{name}' ({endpoint_addr}): reachable");
        } else {
            eprintln!("shard '{name}' ({endpoint_addr}): UNREACHABLE (will retry per query)");
        }
    }
    // A shard is reachable while any endpoint of its replica set is.
    let reachable = coordinator.shards().iter().filter(|s| s.is_alive()).count();
    let total = coordinator.shards().len();
    eprintln!("{reachable}/{total} shard(s) reachable");

    let server = match Server::bind(&addr, coordinator, config) {
        Ok(s) => s,
        Err(e) => return fail(&format!("cannot bind {addr}: {e}")),
    };
    let bound = match server.local_addr() {
        Ok(a) => a,
        Err(e) => return fail(&format!("cannot resolve bound address: {e}")),
    };
    // Keep the handle alive for the life of the process; dropping it would
    // stop the serving loop.
    let _handle = match server.spawn() {
        Ok(h) => h,
        Err(e) => return fail(&format!("cannot start the serving loop: {e}")),
    };
    println!("hermes-coord listening on {bound}");
    // Keep the scrape listener alive for the life of the process.
    let _metrics_handle = match &metrics_addr {
        Some(maddr) => match serve_metrics(maddr.as_str(), _handle.registry()) {
            Ok(h) => {
                println!("hermes-coord metrics listening on {}", h.addr());
                Some(h)
            }
            Err(e) => return fail(&format!("cannot bind metrics address {maddr}: {e}")),
        },
        None => None,
    };
    let _ = std::io::stdout().flush();

    // The coordinator holds no durable state, so there is nothing to flush
    // on shutdown: run until the process is killed.
    loop {
        std::thread::park();
    }
}

fn fail(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    ExitCode::FAILURE
}
