//! Distributed per-query tracing: trace contexts propagated over the wire,
//! spans recorded into a ring-buffered in-process store, and a structured
//! slow-query log line.
//!
//! The model is deliberately small. Every traced statement gets a 63-bit
//! `trace_id`; every timed section inside it gets a `span_id` with a
//! `parent_span_id` (0 marks the root). The coordinator allocates one child
//! span per contacted shard and sends the shard a [`TraceContext`] naming
//! that child as the parent, so the shard's locally recorded span slots into
//! the coordinator's tree under the same trace id. Each process keeps its own
//! [`SpanStore`]; `SHOW TRACE <id>` against any node returns the spans that
//! node recorded for the trace.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Trace identity propagated over the wire with a request: which trace the
/// work belongs to and which span is its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The 63-bit id of the distributed trace.
    pub trace_id: u64,
    /// Span id of the parent on the sending side (never 0 on the wire).
    pub parent_span_id: u64,
}

/// Allocate a process-unique, non-zero 63-bit id.
///
/// Ids mix a per-process random-ish seed (boot time in nanoseconds xor'd
/// with ASLR address entropy) with an atomic sequence through a splitmix64
/// finalizer, so concurrent processes on one host produce disjoint ids
/// without coordination.
pub fn next_id() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    static SEED: OnceLock<u64> = OnceLock::new();
    let seed = *SEED.get_or_init(|| {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        nanos ^ ((&SEQ as *const AtomicU64 as u64) << 16)
    });
    let n = SEQ.fetch_add(1, Ordering::Relaxed).wrapping_add(1);
    let mut x = seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    let id = x & (i64::MAX as u64);
    if id == 0 {
        1
    } else {
        id
    }
}

/// One recorded timed section of a trace: a fixed record of typed fields,
/// rendered to text only when someone reads it (`SHOW TRACE`).
#[derive(Debug, Clone, Default)]
pub struct Span {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// Unique id of this span.
    pub span_id: u64,
    /// Parent span id; 0 marks a root span.
    pub parent_span_id: u64,
    /// Human-readable name (`query`, `merge`, `qut_partial`); owned only for
    /// a coordinator's per-shard `shard:<name>` span.
    pub name: Cow<'static, str>,
    /// Start offset in microseconds from the local trace origin (0 when the
    /// origin is remote — wall clocks are not assumed synchronized).
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub duration_us: u64,
    /// The statement text, shared rather than copied: the span, the
    /// slow-query log and a prepared handle hold one allocation.
    pub statement: Option<Arc<str>>,
    /// Whether the statement succeeded; `None` for a span of part of one.
    pub status: Option<Status>,
    /// The other attributes (per-phase timings, counts, an error), in the
    /// order they are rendered.
    pub attrs: Vec<(&'static str, String)>,
}

/// How a traced statement ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Answered with a result.
    Ok,
    /// Answered with an error.
    Error,
}

impl Status {
    /// The attribute value: `ok` or `error`.
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Error => "error",
        }
    }
}

/// Summary of one trace held in a [`SpanStore`].
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// The trace id.
    pub trace_id: u64,
    /// Name of the root span, or of the first recorded span if no root was
    /// captured locally.
    pub root: Cow<'static, str>,
    /// Number of spans recorded locally for this trace.
    pub spans: usize,
    /// Duration of the root span, or the longest local span as a fallback.
    pub duration_us: u64,
}

/// Fixed-capacity ring of recorded spans, oldest overwritten first. Every
/// slot is built when the store is created, so recording moves one span
/// into a slot under one short lock and never grows or allocates the ring.
#[derive(Debug)]
pub struct SpanStore {
    ring: Mutex<Ring>,
}

#[derive(Debug)]
struct Ring {
    slots: Vec<Span>,
    /// Slots written so far: `slots[..len]` are held, all of them once the
    /// ring has wrapped.
    len: usize,
    /// The slot the next span overwrites: the oldest held one once full.
    next: usize,
}

impl Ring {
    /// The held spans, oldest first.
    fn held(&self) -> impl DoubleEndedIterator<Item = &Span> {
        let (newer, older) = self.slots[..self.len].split_at(self.next);
        older.iter().chain(newer)
    }
}

/// Default ring capacity: enough for a few thousand statements of history
/// without unbounded growth.
pub const DEFAULT_SPAN_CAPACITY: usize = 4096;

impl Default for SpanStore {
    fn default() -> Self {
        SpanStore::new(DEFAULT_SPAN_CAPACITY)
    }
}

impl SpanStore {
    /// Create a store holding at most `capacity` spans, all of its slots
    /// built now.
    pub fn new(capacity: usize) -> SpanStore {
        SpanStore {
            ring: Mutex::new(Ring {
                slots: vec![Span::default(); capacity.max(1)],
                len: 0,
                next: 0,
            }),
        }
    }

    /// Record one finished span over the oldest slot.
    pub fn record(&self, span: Span) {
        let mut ring = lock(&self.ring);
        let next = ring.next;
        ring.slots[next] = span;
        ring.len = ring.len.max(next + 1);
        ring.next = (next + 1) % ring.slots.len();
    }

    /// All locally recorded spans of one trace, ordered by start offset then
    /// span id (deterministic for a fixed store state).
    pub fn trace(&self, trace_id: u64) -> Vec<Span> {
        let ring = lock(&self.ring);
        let mut out: Vec<Span> = ring
            .held()
            .filter(|s| s.trace_id == trace_id)
            .cloned()
            .collect();
        out.sort_by_key(|s| (s.start_us, s.span_id));
        out
    }

    /// Summaries of the traces currently held, newest first (by most recent
    /// recorded span).
    pub fn recent(&self) -> Vec<TraceSummary> {
        let ring = lock(&self.ring);
        let mut out: Vec<TraceSummary> = Vec::new();
        // Each trace's row in `out`, and whether its root was seen.
        let mut rows: HashMap<u64, (usize, bool)> = HashMap::new();
        // Walk newest to oldest so `out` lists traces by recency.
        for s in ring.held().rev() {
            let (row, rooted) = rows.entry(s.trace_id).or_insert_with(|| {
                out.push(TraceSummary {
                    trace_id: s.trace_id,
                    ..TraceSummary::default()
                });
                (out.len() - 1, false)
            });
            let entry = &mut out[*row];
            entry.spans += 1;
            // The root's name and duration once one is held; else the
            // oldest span's name and the longest span's duration.
            if s.parent_span_id == 0 {
                entry.root = s.name.clone();
                entry.duration_us = s.duration_us;
                *rooted = true;
            } else if !*rooted {
                entry.root = s.name.clone();
                entry.duration_us = entry.duration_us.max(s.duration_us);
            }
        }
        out
    }
}

/// Per-statement tracing handle used by a serving edge (server or
/// coordinator): owns the trace id and root span id, and hands out child
/// spans for fan-out work. `Sync`, so it can be shared with the exec-pool
/// closures that contact shards in parallel.
#[derive(Debug)]
pub struct QueryTrace {
    store: Arc<SpanStore>,
    trace_id: u64,
    root_span_id: u64,
    origin: Instant,
}

impl QueryTrace {
    /// Start a new root trace recording into `store`.
    pub fn root(store: Arc<SpanStore>) -> QueryTrace {
        QueryTrace {
            store,
            trace_id: next_id(),
            root_span_id: next_id(),
            origin: Instant::now(),
        }
    }

    /// The trace id.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Allocate a child span and the [`TraceContext`] to propagate to the
    /// remote side so its spans parent under that child: the context's
    /// `parent_span_id` is the child's span id.
    pub fn child_ctx(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            parent_span_id: next_id(),
        }
    }

    /// Record a finished child span of the root. `started` must come from
    /// the same process (offsets are computed against the trace origin).
    pub fn record_child(
        &self,
        span_id: u64,
        name: impl Into<Cow<'static, str>>,
        started: Instant,
        duration: Duration,
        attrs: Vec<(&'static str, String)>,
    ) {
        self.store.record(Span {
            trace_id: self.trace_id,
            span_id,
            parent_span_id: self.root_span_id,
            name: name.into(),
            start_us: started.saturating_duration_since(self.origin).as_micros() as u64,
            duration_us: duration.as_micros() as u64,
            attrs,
            ..Span::default()
        });
    }

    /// Record the root span itself once the statement has finished.
    pub fn finish_root(
        &self,
        name: &'static str,
        duration: Duration,
        statement: Arc<str>,
        status: Status,
    ) {
        self.store.record(Span {
            trace_id: self.trace_id,
            span_id: self.root_span_id,
            parent_span_id: 0,
            name: Cow::Borrowed(name),
            start_us: 0,
            duration_us: duration.as_micros() as u64,
            statement: Some(statement),
            status: Some(status),
            attrs: Vec::new(),
        });
    }
}

/// Render the structured slow-query log line: one JSON object per offending
/// statement, written to stderr by the serving edge.
pub fn slow_query_line(elapsed_ms: f64, trace_id: u64, statement: &str) -> String {
    let mut line = format!(
        "{{\"event\":\"slow_query\",\"ms\":{elapsed_ms:.3},\"trace_id\":{trace_id},\"statement\":\""
    );
    for c in statement.chars() {
        match c {
            '"' => line.push_str("\\\""),
            '\\' => line.push_str("\\\\"),
            '\n' => line.push_str("\\n"),
            '\r' => line.push_str("\\r"),
            '\t' => line.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(line, "\\u{:04x}", c as u32).unwrap(),
            c => line.push(c),
        }
    }
    line.push_str("\"}");
    line
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_nonzero_unique_and_63_bit() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = next_id();
            assert!(id != 0);
            assert!(id <= i64::MAX as u64);
            assert!(seen.insert(id), "duplicate id {id}");
        }
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let store = SpanStore::new(3);
        for i in 0..5u64 {
            store.record(Span {
                trace_id: 1,
                span_id: i + 10,
                parent_span_id: 0,
                name: format!("s{i}").into(),
                start_us: i,
                duration_us: 1,
                ..Span::default()
            });
        }
        let spans = store.trace(1);
        assert_eq!(
            spans.iter().map(|s| s.span_id).collect::<Vec<_>>(),
            vec![12, 13, 14]
        );
        // Slots never written hold no span; a written one is held whatever
        // its ids.
        let store = SpanStore::new(3);
        assert!(store.trace(0).is_empty());
        store.record(Span::default());
        assert_eq!(store.trace(0).len(), 1);
    }

    #[test]
    fn query_trace_builds_a_tree() {
        let store = Arc::new(SpanStore::default());
        let qt = QueryTrace::root(store.clone());
        let ctx = qt.child_ctx();
        let child_id = ctx.parent_span_id;
        assert_eq!(ctx.trace_id, qt.trace_id());
        let t = Instant::now();
        qt.record_child(
            child_id,
            format!("shard:{}", "early"),
            t,
            Duration::from_micros(250),
            vec![("voting_ms", "1.5".to_string())],
        );
        let statement: Arc<str> = Arc::from("SELECT 1;");
        qt.finish_root(
            "query",
            Duration::from_micros(400),
            Arc::clone(&statement),
            Status::Ok,
        );

        let spans = store.trace(qt.trace_id());
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.parent_span_id == 0).unwrap();
        assert_eq!(root.name, "query");
        assert_eq!(root.statement.as_deref(), Some("SELECT 1;"));
        assert_eq!(root.status, Some(Status::Ok));
        let child = spans.iter().find(|s| s.span_id == child_id).unwrap();
        assert_eq!(child.parent_span_id, root.span_id);
        assert_eq!(child.name, "shard:early");
        assert_eq!((child.statement.clone(), child.status), (None, None));
        assert_eq!(child.attrs[0].0, "voting_ms");

        let recent = store.recent();
        assert_eq!(recent.len(), 1);
        assert_eq!(recent[0].root, "query");
        assert_eq!(recent[0].spans, 2);
        assert_eq!(recent[0].duration_us, 400);
    }

    #[test]
    fn recent_lists_newest_trace_first() {
        let store = SpanStore::default();
        for trace_id in [7u64, 8, 9] {
            store.record(Span {
                trace_id,
                span_id: next_id(),
                parent_span_id: 0,
                name: format!("q{trace_id}").into(),
                duration_us: trace_id,
                ..Span::default()
            });
        }
        let recent = store.recent();
        assert_eq!(
            recent.iter().map(|t| t.trace_id).collect::<Vec<_>>(),
            vec![9, 8, 7]
        );
    }

    #[test]
    fn a_summary_takes_the_roots_duration_or_else_the_longest_span() {
        let store = SpanStore::default();
        let span = |trace_id, parent_span_id, duration_us| Span {
            trace_id,
            span_id: next_id(),
            parent_span_id,
            name: format!("s{duration_us}").into(),
            duration_us,
            ..Span::default()
        };
        // Trace 1 has no local root; its newer span is the shorter one.
        store.record(span(1, 5, 300));
        store.record(span(1, 5, 100));
        // Trace 2's root took 0 µs; an older child took longer.
        store.record(span(2, 6, 50));
        store.record(span(2, 0, 0));
        let recent = store.recent();
        assert_eq!((recent[1].trace_id, recent[1].duration_us), (1, 300));
        // ... and is named after its first recorded (oldest) span.
        assert_eq!(recent[1].root, "s300");
        assert_eq!(recent[0].trace_id, 2);
        assert_eq!((&*recent[0].root, recent[0].duration_us), ("s0", 0));
    }

    #[test]
    fn slow_query_line_is_valid_json_shape() {
        let line = slow_query_line(12.3456, 42, "SELECT \"x\"\nFROM t;");
        assert!(line.starts_with("{\"event\":\"slow_query\",\"ms\":12.346,"));
        assert!(line.contains("\"trace_id\":42"));
        assert!(line.contains("SELECT \\\"x\\\"\\nFROM t;"));
        assert!(line.ends_with("\"}"));
        // Balanced quoting: an even number of unescaped double quotes.
        let unescaped = line.replace("\\\"", "");
        assert_eq!(unescaped.matches('"').count() % 2, 0);
        // Every other control character is a `\u` escape.
        assert_eq!(
            slow_query_line(0.5, 7, "a\tb\r\\\u{1}\u{1f}é"),
            "{\"event\":\"slow_query\",\"ms\":0.500,\"trace_id\":7,\
             \"statement\":\"a\\tb\\r\\\\\\u0001\\u001fé\"}"
        );
    }
}
