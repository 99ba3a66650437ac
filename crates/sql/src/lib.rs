//! # hermes-sql
//!
//! The SQL face of the engine: the demo's selling point is that
//! sub-trajectory clustering runs "via simple SQL" inside the DBMS, e.g.
//!
//! ```sql
//! SELECT QUT(D, Wi, We, τ, δ, t, d, γ);
//! ```
//!
//! This crate implements a small SQL dialect covering exactly the statements
//! the demonstration walks through, parsed by a hand-written recursive
//! descent parser and executed against a [`HermesEngine`]:
//!
//! | Statement | Effect | Result |
//! |---|---|---|
//! | `CREATE DATASET name;` | register a dataset | command status |
//! | `DROP DATASET name;` | remove it | command status |
//! | `SHOW DATASETS;` | list registered datasets | frame |
//! | `BUILD INDEX ON name WITH CHUNK <hours> HOURS [SIGMA <σ>] [EPSILON <ε>];` | build the ReTraTree (σ/ε tune the per-sub-chunk S2T runs) | command status (trajectories indexed) |
//! | `SELECT INFO(name);` | dataset summary | frame |
//! | `SELECT S2T(name, σ, τ, δ, t, ε);` | whole-dataset sub-trajectory clustering | frame + stats |
//! | `SELECT S2T_NAIVE(name, σ, τ, δ, t, ε);` | the index-free baseline | frame + stats |
//! | `SELECT QUT(name, Wi, We, τ, δ, t, d, γ);` | window-constrained clustering from the ReTraTree | frame + stats |
//! | `SELECT QUT_REBUILD(name, Wi, We, τ, δ, t);` | the rebuild-from-scratch strategy QuT is compared against | frame + stats |
//! | `SELECT RANGE(name, Wi, We);` | temporal range query (row count) | frame |
//! | `SELECT HISTOGRAM(name, Wi, We, bucket_ms);` | cluster-cardinality time histogram over the window (Fig. 1 middle) | frame |
//! | `CHECKPOINT;` | snapshot the engine state, truncate the WAL (durable engines only, see `docs/STORAGE.md`) | command status (snapshot bytes) |
//! | `SHOW TRACES;` | list recently traced statements (served at the serving edge, see `docs/OBSERVABILITY.md`) | frame |
//! | `SHOW TRACE <id>;` | span tree of one trace | frame |
//!
//! Numeric parameters follow the paper's ordering; times are milliseconds.
//!
//! ## Placeholders and prepared statements
//!
//! Every numeric argument position also accepts a PostgreSQL-style `$n`
//! placeholder (1-based):
//!
//! ```sql
//! SELECT QUT(data, $1, $2, 0.35, 0.05, 300000, 6000, 1800000);
//! ```
//!
//! A statement with placeholders is prepared through a [`Session`], which
//! parses it once and binds typed [`Value`]s (ints, floats, timestamps,
//! intervals) per execution — see [`Session::prepare`] and
//! [`Session::execute_prepared`]. Results come back as columnar, typed
//! [`Frame`]s (or a [`CommandStatus`] for DDL); rendering to text happens
//! only at the display edge, in [`fmt`].
//!
//! [`HermesEngine`]: hermes_core::HermesEngine

#![deny(missing_docs)]

pub mod backend;
pub mod executor;
pub mod fmt;
pub mod frame;
pub mod parser;
pub mod session;
pub mod value;

pub use backend::EngineBackend;
pub use executor::{
    clusters_frame, execute, execute_read_statement, execute_statement, histogram_frame,
    info_frame, is_write_statement, push_stat, push_trace_span, push_trace_summary, query_window,
    qut_stats_frame, range_frame, s2t_stats_frame, sort_stats_rows, stats_frame, trace_frame,
    traces_frame, SqlError,
};
pub use frame::{ColumnDef, CommandStatus, CommandTag, Frame, QueryOutcome};
pub use parser::{parse, ParseError, Scalar, Statement};
pub use session::{Prepared, Session, SessionStats};
pub use value::{Value, ValueType};
