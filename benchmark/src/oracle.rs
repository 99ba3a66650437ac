//! The correctness oracle: every distinct read statement of a plan answered
//! by an embedded single-node engine on one thread. An answer from the
//! servers is right when its result frame, encoded as the wire encodes it
//! without the wall-clock statistics frame, equals the reference byte for
//! byte — the comparison `tests/sharding.rs` uses.

use crate::workload::{Body, OpKind, Plan};
use hermes_core::{ExecPolicy, HermesEngine};
use hermes_server::protocol::{write_response, Response};
use hermes_sql::QueryOutcome;
use std::collections::HashMap;

/// The comparable bytes of a rows response; `None` for any other response.
pub fn canonical(response: Response) -> Option<Vec<u8>> {
    let Response::Rows { frame, .. } = response else {
        return None;
    };
    let mut bytes = Vec::new();
    write_response(&mut bytes, &Response::Rows { frame, stats: None })
        .expect("writing to a Vec cannot fail");
    Some(bytes)
}

/// Reference answers by statement text.
pub struct Reference(HashMap<String, Vec<u8>>);

impl Reference {
    /// Loads the plan's resident flights into a fresh engine, builds the
    /// index, applies every `data` ingest of the plan in order, and answers
    /// each distinct read statement. The reads of a plan are chosen so that
    /// no ingest changes their answer, which is what lets one reference
    /// serve the whole run.
    pub fn build(plan: &Plan) -> Result<Reference, String> {
        let serial = ExecPolicy::new(1).map_err(|e| e.to_string())?;
        let mut engine = HermesEngine::with_exec_policy(serial);
        engine.create_dataset("data").map_err(|e| e.to_string())?;
        engine
            .load_trajectories("data", plan.resident.clone())
            .map_err(|e| e.to_string())?;
        hermes_sql::execute(&mut engine, crate::workload::BUILD_INDEX)
            .map_err(|e| format!("reference BUILD INDEX: {e}"))?;
        for op in plan.warmup.iter().chain(&plan.conns).flatten() {
            if let (
                OpKind::Ingest,
                Body::Ingest {
                    dataset: "data",
                    first,
                    count,
                },
            ) = (op.kind, &op.body)
            {
                engine
                    .load_trajectories("data", plan.stream[*first..first + count].to_vec())
                    .map_err(|e| e.to_string())?;
            }
        }
        let mut answers = HashMap::new();
        for sql in plan.read_statements() {
            let outcome = hermes_sql::execute(&mut engine, sql)
                .map_err(|e| format!("reference `{sql}`: {e}"))?;
            let QueryOutcome::Rows { frame, .. } = outcome else {
                return Err(format!("reference `{sql}` produced no rows"));
            };
            let bytes = canonical(Response::Rows { frame, stats: None }).expect("a rows response");
            answers.insert(sql.to_string(), bytes);
        }
        Ok(Reference(answers))
    }

    /// True when `response` is the reference answer to `sql`.
    pub fn matches(&self, sql: &str, response: Response) -> bool {
        match (self.0.get(sql), canonical(response)) {
            (Some(want), Some(got)) => *want == got,
            _ => false,
        }
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}
