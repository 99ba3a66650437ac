//! The stats schema, pinned, and the observability doc checked against it.
//!
//! One scripted session runs on a node and through a two-shard coordinator.
//! `stats_schema.txt` holds what each then exposes, without values: the
//! sorted `(scope, metric)` list of `SHOW STATS`, and the `# HELP` / `# TYPE`
//! lines and series-plus-labels of `/metrics`. Values are left out because
//! the latency and `*_ms` numbers are timings. A renamed row, a renamed or
//! relabelled series, a changed help text or kind, or a number gained or
//! lost on either side fails here by name.
//!
//! The second test reads the naming table of `docs/OBSERVABILITY.md`: every
//! series family a node or a coordinator exports is in it, and every
//! `hermes_*` series it names is exported.

use hermes::coord::{validate_shard_map, Coordinator, ShardSpec};
use hermes::core::SharedEngine;
use hermes::exec::ExecPolicy;
use hermes::server::{ConnectOptions, HermesClient, Server, ServerConfig, ServerHandle};
use hermes::sql::{QueryOutcome, Value};
use hermes_bench::urban_with;

const GOLDEN: &str = include_str!("stats_schema.txt");
const DOC: &str = include_str!("../docs/OBSERVABILITY.md");

/// The BUILD INDEX chunk; the shard cut is a multiple of it.
const CHUNK_MS: i64 = 360_000;

/// What one process exposes after the session.
struct Exposed {
    /// `SHOW STATS` as `scope metric`, sorted.
    rows: Vec<String>,
    /// The Prometheus text, every shard address replaced by its name.
    metrics: String,
}

/// Creates, ingests and indexes an urban set through `client`, then runs
/// every statement kind that moves a counter, and returns `SHOW STATS`.
fn session(client: &mut HermesClient) -> Vec<String> {
    let trajectories = urban_with(24, 0x5A).trajectories;
    let lo = trajectories.iter().map(|t| t.start_time().millis()).min();
    let hi = trajectories.iter().map(|t| t.lifespan().end.millis()).max();
    let (lo, hi) = (lo.unwrap(), hi.unwrap());
    client.query("CREATE DATASET data;").expect("create");
    client.ingest("data", &trajectories).expect("ingest");
    for sql in [
        "BUILD INDEX ON data WITH CHUNK 0.1 HOURS SIGMA 60 EPSILON 250;".to_string(),
        "SELECT INFO(data);".to_string(),
        format!("SELECT RANGE(data, {lo}, {hi});"),
        format!("SELECT QUT(data, {lo}, {hi}, 0.35, 0.05, 180000, 250, 600000);"),
        format!(
            "SELECT QUT(data, {}, {hi}, 0.35, 0.05, 180000, 250, 600000);",
            lo + 100_000
        ),
        format!("SELECT HISTOGRAM(data, {lo}, {hi}, {CHUNK_MS});"),
        "SELECT S2T(data, 60, 0.35, 0.05, 180000, 250);".to_string(),
        "SELECT RANGE(nope, 0, 10);".to_string(),
    ] {
        let _ = client.query(&sql);
    }
    let QueryOutcome::Rows { frame, .. } = client.query("SHOW STATS;").expect("stats") else {
        panic!("SHOW STATS answered without rows");
    };
    let mut rows: Vec<String> = (0..frame.num_rows())
        .map(|r| match (frame.get(r, "scope"), frame.get(r, "metric")) {
            (Some(Value::Text(scope)), Some(Value::Text(metric))) => format!("{scope} {metric}"),
            other => panic!("row {r} is not (scope, metric, value): {other:?}"),
        })
        .collect();
    rows.sort();
    rows
}

fn spawn_node() -> ServerHandle {
    Server::bind(
        "127.0.0.1:0",
        SharedEngine::default(),
        ServerConfig::default(),
    )
    .expect("bind")
    .spawn()
    .expect("spawn")
}

/// The session on one node.
fn on_a_node() -> Exposed {
    let node = spawn_node();
    let mut client = HermesClient::connect(node.addr()).expect("connect");
    let rows = session(&mut client);
    Exposed {
        rows,
        metrics: node.registry().render_prometheus(),
    }
}

/// The session through a coordinator over two shards cut at the middle of
/// the urban set's span.
fn through_a_coordinator() -> Exposed {
    // The endpoint label holds the address, and series sort by label text:
    // naming the shards in address order keeps the series order fixed.
    let mut shards = [spawn_node(), spawn_node()];
    shards.sort_by_key(|shard| shard.addr().to_string());
    let span = urban_with(24, 0x5A).trajectories;
    let lo = span.iter().map(|t| t.start_time().millis()).min().unwrap();
    let hi = span
        .iter()
        .map(|t| t.lifespan().end.millis())
        .max()
        .unwrap();
    let cut = (lo + (hi - lo) / 2).div_euclid(CHUNK_MS) * CHUNK_MS;
    let mut specs: Vec<ShardSpec> = shards
        .iter()
        .enumerate()
        .map(|(k, shard)| ShardSpec {
            name: format!("s{k}"),
            addr: shard.addr().to_string(),
            replicas: Vec::new(),
            start_ms: if k == 0 { i64::MIN } else { cut },
            end_ms: if k == 0 { cut } else { i64::MAX },
        })
        .collect();
    validate_shard_map(&mut specs).expect("valid shard map");
    let coordinator = Coordinator::new(specs, ConnectOptions::default(), ExecPolicy::from_env());
    let coord = Server::bind("127.0.0.1:0", coordinator, ServerConfig::default())
        .expect("bind coordinator")
        .spawn()
        .expect("spawn coordinator");
    let mut client = HermesClient::connect(coord.addr()).expect("connect");
    let rows = session(&mut client);
    let mut metrics = coord.registry().render_prometheus();
    for (k, shard) in shards.iter().enumerate() {
        metrics = metrics.replace(&shard.addr().to_string(), &format!("<s{k}>"));
    }
    Exposed { rows, metrics }
}

/// `# HELP` and `# TYPE` lines as they are, every series line without its
/// value.
fn skeleton(metrics: &str) -> Vec<String> {
    metrics
        .lines()
        .map(|line| match line.starts_with('#') {
            true => line.to_string(),
            false => line.rsplit_once(' ').expect("series value").0.to_string(),
        })
        .collect()
}

/// The series families a Prometheus text declares.
fn families(metrics: &str) -> Vec<String> {
    metrics
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .map(|rest| rest.split(' ').next().unwrap().to_string())
        .collect()
}

#[test]
fn the_stats_schema_matches_the_golden() {
    let (node, coord) = (on_a_node(), through_a_coordinator());
    let mut text = String::new();
    for (title, lines) in [
        ("node SHOW STATS", node.rows),
        ("node /metrics", skeleton(&node.metrics)),
        ("coordinator SHOW STATS", coord.rows),
        ("coordinator /metrics", skeleton(&coord.metrics)),
    ] {
        text.push_str(&format!("== {title}\n"));
        for line in lines {
            text.push_str(&line);
            text.push('\n');
        }
    }
    if text != GOLDEN {
        let first = text
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(text.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "the stats schema differs from tests/stats_schema.txt from line {}:\n{text}",
            first + 1
        );
    }
}

#[test]
fn the_observability_doc_names_every_exported_series() {
    // The naming table's rows: `| \`hermes_<layer>_*\` | … | examples |`.
    // A name followed by `*` is a prefix, not a series.
    let mut documented = Vec::new();
    for line in DOC.lines().filter(|l| l.starts_with("| `hermes_")) {
        for quoted in line.split('`').skip(1).step_by(2) {
            let name: String = quoted
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if name.starts_with("hermes_") && !quoted[name.len()..].starts_with('*') {
                documented.push(name);
            }
        }
    }
    let mut exported = families(&on_a_node().metrics);
    exported.extend(families(&through_a_coordinator().metrics));
    exported.sort();
    exported.dedup();
    let undocumented: Vec<&String> = exported
        .iter()
        .filter(|s| !documented.contains(s))
        .collect();
    let unexported: Vec<&String> = documented
        .iter()
        .filter(|s| !exported.contains(s))
        .collect();
    assert!(
        undocumented.is_empty() && unexported.is_empty(),
        "docs/OBSERVABILITY.md's naming table lacks {undocumented:?} and names \
         {unexported:?}, which nothing exports"
    );
}
