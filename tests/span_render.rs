//! Pins the rendered text of every span kind: the `name` and the exact
//! `attributes` column `SHOW TRACE` prints for the server's spans (`query`,
//! `prepare`, `execute_prepared`, `ingest`, `qut_partial`, an error) and the
//! coordinator's (the root, `shard:<name>`, `merge`, a failed shard call).
//! `tests/tracing.rs` checks the span tree's shape; this checks its text, so
//! a reordered, renamed or re-formatted attribute fails here.
//!
//! Timings differ run to run, so a QuT partial's `*_ms` values are pinned by
//! format (three decimals) and by equality: the shard's `qut_partial` span
//! and the coordinator's span around that call render the same stats.

use hermes::coord::{validate_shard_map, Coordinator, ShardSpec};
use hermes::core::SharedEngine;
use hermes::exec::ExecPolicy;
use hermes::server::{ConnectOptions, HermesClient, Server, ServerConfig, ServerHandle};
use hermes::sql::{Frame, QueryOutcome, Value};
use hermes::trajectory::Trajectory;
use hermes_bench::urban_with;

const BUILD: &str = "BUILD INDEX ON data WITH CHUNK 0.1 HOURS SIGMA 60 EPSILON 250;";

/// One `SHOW TRACE` row: name, parent id, span id, attributes.
#[derive(Debug, Clone)]
struct Row {
    span: i64,
    parent: i64,
    name: String,
    attrs: String,
}

fn frame(outcome: QueryOutcome) -> Frame {
    match outcome {
        QueryOutcome::Rows { frame, .. } => frame,
        other => panic!("expected rows, got {other:?}"),
    }
}

fn int_at(frame: &Frame, row: usize, col: &str) -> i64 {
    match frame.get(row, col) {
        Some(Value::Int(v)) => *v,
        v => panic!("expected an Int in {col}[{row}], got {v:?}"),
    }
}

fn text_at(frame: &Frame, row: usize, col: &str) -> String {
    match frame.get(row, col) {
        Some(Value::Text(v)) => v.clone(),
        v => panic!("expected Text in {col}[{row}], got {v:?}"),
    }
}

/// The newest trace's id and root name (`SHOW TRACES` row 0).
fn newest(client: &mut HermesClient) -> (i64, String) {
    let f = frame(client.query("SHOW TRACES;").expect("show traces"));
    (int_at(&f, 0, "trace"), text_at(&f, 0, "root"))
}

fn trace(client: &mut HermesClient, id: i64) -> Vec<Row> {
    let f = frame(
        client
            .query(&format!("SHOW TRACE {id};"))
            .expect("show trace"),
    );
    (0..f.num_rows())
        .map(|r| Row {
            span: int_at(&f, r, "span"),
            parent: int_at(&f, r, "parent"),
            name: text_at(&f, r, "name"),
            attrs: text_at(&f, r, "attributes"),
        })
        .collect()
}

/// The single span the last statement recorded on a server: its trace must
/// be a lone root, listed under the same name by `SHOW TRACES`.
fn last_span(client: &mut HermesClient) -> (String, String) {
    let (id, root) = newest(client);
    let rows = trace(client, id);
    assert_eq!(rows.len(), 1, "one span per server statement: {rows:?}");
    assert_eq!(rows[0].parent, 0, "a local statement is a root");
    assert_eq!(rows[0].name, root, "SHOW TRACES names the root");
    (rows[0].name.clone(), rows[0].attrs.clone())
}

fn spawn_node() -> ServerHandle {
    Server::bind(
        "127.0.0.1:0",
        SharedEngine::default(),
        ServerConfig::default(),
    )
    .expect("bind node")
    .spawn()
    .expect("spawn node")
}

fn workload() -> Vec<Trajectory> {
    urban_with(36, 0xC0).trajectories
}

fn span_of(trajectories: &[Trajectory]) -> (i64, i64) {
    let lo = trajectories.iter().map(|t| t.start_time().millis()).min();
    let hi = trajectories.iter().map(|t| t.lifespan().end.millis()).max();
    (lo.expect("non-empty"), hi.expect("non-empty"))
}

/// Checks the text of a QuT partial's stats attributes: the phase timings
/// (three decimals) then the kernel counters, in that order.
fn assert_qut_stats(attrs: &str) {
    let keys = [
        "index_build_ms",
        "voting_ms",
        "segmentation_ms",
        "sampling_ms",
        "clustering_ms",
        "kernel_evaluated",
        "kernel_pruned",
    ];
    let pairs: Vec<(&str, &str)> = attrs
        .split(',')
        .map(|p| p.split_once('=').expect("key=value"))
        .collect();
    assert_eq!(
        pairs.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
        keys,
        "{attrs}"
    );
    for (k, v) in pairs {
        if k.ends_with("_ms") {
            let (whole, frac) = v.split_once('.').expect("a decimal point");
            assert!(
                whole.parse::<u64>().is_ok()
                    && frac.len() == 3
                    && frac.bytes().all(|b| b.is_ascii_digit()),
                "{k}={v} is not {{:.3}}"
            );
        } else {
            assert_eq!(v.parse::<u64>().unwrap().to_string(), v, "{k}={v}");
        }
    }
}

#[test]
fn server_spans_render_exactly() {
    let node = spawn_node();
    let mut client = HermesClient::connect(node.addr()).expect("connect");

    client.query("CREATE DATASET data;").expect("create");
    assert_eq!(
        last_span(&mut client),
        (
            "query".into(),
            "statement=CREATE DATASET data;,status=ok".into()
        )
    );

    client.ingest("data", &workload()).expect("ingest");
    assert_eq!(
        last_span(&mut client),
        ("ingest".into(), "status=ok".into())
    );

    client.query(BUILD).expect("build");
    let range = "SELECT RANGE(data, 0, 5000000);";
    client.query(range).expect("range");
    assert_eq!(
        last_span(&mut client),
        ("query".into(), format!("statement={range},status=ok"))
    );

    let prepared = client
        .prepare("SELECT  RANGE(data, $1, $2)")
        .expect("prepare");
    assert_eq!(
        last_span(&mut client),
        (
            "prepare".into(),
            "statement=SELECT  RANGE(data, $1, $2),status=ok".into()
        )
    );
    // An executed handle is named by its statement as the parser rendered
    // it, placeholders and all, not by the text that prepared it.
    client
        .execute_prepared(prepared, &[Value::Int(0), Value::Int(5_000_000)])
        .expect("execute prepared");
    assert_eq!(
        last_span(&mut client),
        (
            "execute_prepared".into(),
            "statement=SELECT RANGE(data, $1, $2);,status=ok".into()
        )
    );

    let missing = "SELECT RANGE(nope, 0, 1);";
    assert!(client.query(missing).is_err());
    assert_eq!(
        last_span(&mut client),
        ("query".into(), format!("statement={missing},status=error"))
    );
}

#[test]
fn coordinator_spans_render_exactly() {
    let trajectories = workload();
    let (lo, hi) = span_of(&trajectories);
    let chunk_ms = 360_000;
    let cut = (lo + (hi - lo) / 2 + chunk_ms / 2).div_euclid(chunk_ms) * chunk_ms;
    let shards = [spawn_node(), spawn_node()];
    let mut specs: Vec<ShardSpec> = [(i64::MIN, cut), (cut, i64::MAX)]
        .iter()
        .zip(&shards)
        .enumerate()
        .map(|(k, (&(start_ms, end_ms), handle))| ShardSpec {
            name: format!("s{k}"),
            addr: handle.addr().to_string(),
            replicas: Vec::new(),
            start_ms,
            end_ms,
        })
        .collect();
    validate_shard_map(&mut specs).expect("valid shard map");
    let coordinator = Coordinator::new(specs, ConnectOptions::default(), ExecPolicy::from_env());
    let coord = Server::bind("127.0.0.1:0", coordinator, ServerConfig::default())
        .expect("bind coordinator")
        .spawn()
        .expect("spawn coordinator");
    let mut client = HermesClient::connect(coord.addr()).expect("connect");
    client.query("CREATE DATASET data;").expect("create");
    client.ingest("data", &trajectories).expect("ingest");
    client.query(BUILD).expect("build");

    // A spanning QUT: the root, one span per shard around its partial, and
    // the border merge.
    let qut = format!(
        "SELECT QUT(data, {}, {}, 0.35, 0.05, 180000, 250, 600000);",
        lo + 1,
        hi - 1
    );
    client.query(&qut).expect("spanning qut");
    let (id, root) = newest(&mut client);
    assert_eq!(root, "query");
    let rows = trace(&mut client, id);
    let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(
        sorted,
        ["merge", "query", "shard:s0", "shard:s1"],
        "{rows:?}"
    );
    let by_name = |name: &str| rows.iter().find(|r| r.name == name).unwrap().clone();
    let root = by_name("query");
    assert_eq!(root.attrs, format!("statement={qut},status=ok"));
    let merge = by_name("merge");
    let merges = merge.attrs.strip_prefix("merges=").expect("merges=");
    assert_eq!(merges.parse::<u64>().unwrap().to_string(), merges);
    for (k, name) in ["shard:s0", "shard:s1"].iter().enumerate() {
        let span = by_name(name);
        assert_qut_stats(&span.attrs);
        // The shard's own span renders the same stats, then its status.
        let mut direct = HermesClient::connect(shards[k].addr()).expect("connect shard");
        let on_shard = trace(&mut direct, id);
        assert_eq!(on_shard.len(), 1, "{on_shard:?}");
        assert_eq!(on_shard[0].name, "qut_partial");
        assert_eq!(on_shard[0].parent, span.span);
        assert_eq!(on_shard[0].attrs, format!("{},status=ok", span.attrs));
    }

    // A spanning RANGE: each shard span carries its owned count.
    let range = format!("SELECT RANGE(data, {}, {});", lo + 1, hi - 1);
    let total =
        match frame(client.query(&range).expect("range")).get(0, "sub_trajectories_in_window") {
            Some(Value::Int(n)) => *n,
            v => panic!("expected a count, got {v:?}"),
        };
    let (id, _) = newest(&mut client);
    let rows = trace(&mut client, id);
    let mut sum = 0;
    for row in rows.iter().filter(|r| r.name.starts_with("shard:")) {
        let n = row.attrs.strip_prefix("count=").expect("count=");
        sum += n.parse::<i64>().unwrap();
    }
    assert_eq!(sum, total, "{rows:?}");

    // A prepared statement's root is named by the text that prepared it.
    let text = "SELECT QUT(data, $1, $2, 0.35, 0.05, 180000, 250, 600000);";
    let handle = client.prepare(text).expect("prepare");
    client
        .execute_prepared(handle, &[Value::Int(lo + 1), Value::Int(hi - 1)])
        .expect("execute prepared");
    let (id, root) = newest(&mut client);
    assert_eq!(root, "execute_prepared");
    let rows = trace(&mut client, id);
    let root = rows.iter().find(|r| r.parent == 0).unwrap();
    assert_eq!(root.attrs, format!("statement={text},status=ok"));

    // Failed shard calls: a dataset no shard has indexed.
    client.query("CREATE DATASET raw;").expect("create raw");
    client.ingest("raw", &trajectories).expect("ingest raw");
    let failing = qut.replace("data", "raw");
    let err = client.query(&failing).expect_err("unindexed qut");
    let (id, _) = newest(&mut client);
    let rows = trace(&mut client, id);
    let root = rows.iter().find(|r| r.parent == 0).unwrap();
    assert_eq!(root.name, "query");
    assert_eq!(root.attrs, format!("statement={failing},status=error"));
    let message = "dataset 'raw' has no ReTraTree index; build it first";
    assert!(err.to_string().contains(message), "{err}");
    let shard_spans: Vec<&Row> = rows.iter().filter(|r| r.parent == root.span).collect();
    assert_eq!(shard_spans.len(), 2, "{rows:?}");
    for span in shard_spans {
        assert!(span.name.starts_with("shard:s"), "{span:?}");
        assert_eq!(span.attrs, format!("error={message}"));
    }
}
