//! Client-side spans of a traced run. The generator keeps the step times of
//! each traced operation in memory; at the end of the run they become spans
//! — one root per operation with the five steps as its children — and are
//! written out as one JSON array. Spans inside the servers are a later
//! change (ROADMAP item 5).

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// The step times of one operation, nanoseconds since the measured section
/// began.
#[derive(Debug, Clone, Copy)]
pub struct OpSteps {
    pub conn: usize,
    pub kind: &'static str,
    pub due_ns: u64,
    pub send_ns: u64,
    pub encoded_ns: u64,
    pub sent_ns: u64,
    pub reply_ns: u64,
    pub decoded_ns: u64,
    pub done_ns: u64,
}

/// One span: `parent` is 0 for the root of an operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The spans of `ops`: per operation a root (`due` → `done`) and its steps
/// `schedule_wait`, `encode`, `send`, `wait`, `decode`, `verify`, which tile
/// the root, so the generator's self time per operation is zero and `wait`
/// is the time spent in the network and the servers.
pub fn spans_of(ops: &[OpSteps]) -> Vec<Span> {
    let mut spans = Vec::with_capacity(ops.len() * 7);
    for (op, steps) in ops.iter().enumerate() {
        let op = op as u64 + 1;
        let root = spans.len() as u64 + 1;
        spans.push(Span {
            id: root,
            parent: 0,
            op,
            name: steps.kind,
            start_ns: steps.due_ns,
            end_ns: steps.done_ns,
        });
        let edges = [
            ("schedule_wait", steps.due_ns, steps.send_ns),
            ("encode", steps.send_ns, steps.encoded_ns),
            ("send", steps.encoded_ns, steps.sent_ns),
            ("wait", steps.sent_ns, steps.reply_ns),
            ("decode", steps.reply_ns, steps.decoded_ns),
            ("verify", steps.decoded_ns, steps.done_ns),
        ];
        for (name, start_ns, end_ns) in edges {
            spans.push(Span {
                id: spans.len() as u64 + 1,
                parent: root,
                op,
                name,
                start_ns,
                // A pipelined reply can arrive before the sender has
                // recorded the end of its write.
                end_ns: end_ns.max(start_ns),
            });
        }
    }
    spans
}

/// Total nanoseconds per step name over `ops`, in the order of `spans_of`.
pub fn step_totals(ops: &[OpSteps]) -> Vec<(&'static str, u64)> {
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for span in spans_of(ops).iter().filter(|s| s.parent != 0) {
        match totals.iter_mut().find(|(name, _)| *name == span.name) {
            Some((_, total)) => *total += span.end_ns - span.start_ns,
            None => totals.push((span.name, span.end_ns - span.start_ns)),
        }
    }
    totals
}

/// Writes the spans of `ops` to `path` as a JSON array.
pub fn write(path: &Path, ops: &[OpSteps]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut json = String::from("[\n");
    let spans = spans_of(ops);
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 < spans.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"conn\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{comma}",
            s.id,
            s.parent,
            s.op,
            ops[s.op as usize - 1].conn,
            s.name,
            s.start_ns,
            s.end_ns
        );
    }
    json.push_str("]\n");
    std::fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_tile_the_root_span() {
        let ops = [OpSteps {
            conn: 1,
            kind: "qut_unaligned",
            due_ns: 100,
            send_ns: 150,
            encoded_ns: 160,
            sent_ns: 170,
            reply_ns: 900,
            decoded_ns: 950,
            done_ns: 1000,
        }];
        let spans = spans_of(&ops);
        assert_eq!(spans.len(), 7);
        let root = &spans[0];
        assert_eq!((root.parent, root.start_ns, root.end_ns), (0, 100, 1000));
        let children: u64 = spans[1..]
            .iter()
            .inspect(|s| assert_eq!(s.parent, root.id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        assert_eq!(children, root.end_ns - root.start_ns, "self time is zero");
        assert_eq!(step_totals(&ops)[3], ("wait", 730));
    }
}
