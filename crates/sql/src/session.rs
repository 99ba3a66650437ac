//! The client-facing [`Session`]: a connection-like wrapper around the
//! engine that owns prepared statements.
//!
//! ```
//! use hermes_core::HermesEngine;
//! use hermes_sql::{Session, Value};
//!
//! let mut engine = HermesEngine::new();
//! let mut session = Session::new(&mut engine);
//! session.execute("CREATE DATASET flights;").unwrap();
//! // Parse once…
//! let range = session.prepare("SELECT RANGE(flights, $1, $2);").unwrap();
//! // …bind per execution (would run if the dataset were indexed):
//! let _ = session.execute_prepared(range, &[Value::Int(0), Value::Int(3_600_000)]);
//! let _ = session.execute_prepared(range, &[Value::Int(0), Value::Int(7_200_000)]);
//! assert_eq!(session.stats().parses, 2); // CREATE + the prepared RANGE
//! ```

use crate::backend::EngineBackend;
use crate::executor::{push_stat, sort_stats_rows, SqlError};
use crate::frame::QueryOutcome;
use crate::parser::{parse, Statement};
use crate::value::Value;
use hermes_core::HermesEngine;
use std::collections::HashMap;

/// Most distinct statement texts [`Session::execute`] will cache implicitly
/// (also available as `Session::IMPLICIT_CACHE_CAP`). Explicit
/// [`Session::prepare`] calls are not capped.
pub const IMPLICIT_CACHE_CAP: usize = 256;

/// Handle to a statement prepared in a [`Session`]. Copyable; only
/// meaningful with the session that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prepared(usize);

/// Parser- and cache-activity counters of a session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Times the parser actually ran.
    pub parses: usize,
    /// Statement texts answered from the prepared-statement cache.
    pub cache_hits: usize,
    /// Statements executed (prepared or direct).
    pub executions: usize,
}

/// A client session over an engine backend.
///
/// The session owns the prepared-statement cache: [`Session::prepare`] parses
/// a statement once and returns a [`Prepared`] handle; every
/// [`Session::execute_prepared`] binds fresh parameter [`Value`]s into the
/// cached AST without touching the parser again. Plain [`Session::execute`]
/// also consults the cache (keyed by statement text), so a front end looping
/// over the same statement re-parses nothing.
///
/// The backend decides how the engine is reached: `&mut HermesEngine` for
/// exclusive single-threaded use, or a
/// [`SharedEngine`](hermes_core::SharedEngine) where each server connection
/// opens its own session (with its own statement cache) over one engine and
/// read statements proceed concurrently.
pub struct Session<B: EngineBackend> {
    backend: B,
    statements: Vec<Statement>,
    by_text: HashMap<String, Prepared>,
    stats: SessionStats,
}

impl<B: EngineBackend> Session<B> {
    /// Most distinct statement texts [`Session::execute`] will cache
    /// implicitly. Explicit [`Session::prepare`] calls are not capped.
    pub const IMPLICIT_CACHE_CAP: usize = IMPLICIT_CACHE_CAP;

    /// Opens a session over a backend.
    pub fn new(backend: B) -> Self {
        Session {
            backend,
            statements: Vec::new(),
            by_text: HashMap::new(),
            stats: SessionStats::default(),
        }
    }

    /// Parses `sql` once and caches the AST, keyed by the (trimmed)
    /// statement text. Preparing the same text again is a cache hit and
    /// returns the existing handle.
    pub fn prepare(&mut self, sql: &str) -> Result<Prepared, SqlError> {
        let key = sql.trim();
        if let Some(&handle) = self.by_text.get(key) {
            self.stats.cache_hits += 1;
            return Ok(handle);
        }
        self.stats.parses += 1;
        let stmt = parse(key)?;
        let handle = Prepared(self.statements.len());
        self.statements.push(stmt);
        self.by_text.insert(key.to_string(), handle);
        Ok(handle)
    }

    /// The cached AST behind a handle.
    pub fn statement(&self, handle: Prepared) -> Option<&Statement> {
        self.statements.get(handle.0)
    }

    /// Executes a prepared statement with `params` bound to its `$n`
    /// placeholders (`params[0]` binds `$1`). The cached AST is not
    /// re-parsed and stays available for further executions.
    pub fn execute_prepared(
        &mut self,
        handle: Prepared,
        params: &[Value],
    ) -> Result<QueryOutcome, SqlError> {
        let stmt = self
            .statements
            .get(handle.0)
            .ok_or_else(|| SqlError::Bind(format!("unknown prepared statement {handle:?}")))?;
        let bound = stmt.bind(params).map_err(|e| SqlError::Bind(e.0))?;
        self.stats.executions += 1;
        let mut outcome = self.backend.execute(&bound)?;
        self.append_session_stats(&bound, &mut outcome);
        Ok(outcome)
    }

    /// Prepares (or finds in the cache) and executes a placeholder-free
    /// statement in one call.
    ///
    /// Unlike explicit [`Session::prepare`], the implicit caching here is
    /// capped at [`Session::IMPLICIT_CACHE_CAP`] distinct statement texts: a
    /// front end looping over literal-only statements (every window a new
    /// text) must not grow the session without bound. Past the cap the
    /// statement still executes, just without being cached.
    pub fn execute(&mut self, sql: &str) -> Result<QueryOutcome, SqlError> {
        let key = sql.trim();
        if self.by_text.contains_key(key) || self.by_text.len() < Self::IMPLICIT_CACHE_CAP {
            let handle = self.prepare(key)?;
            return self.execute_prepared(handle, &[]);
        }
        self.stats.parses += 1;
        let stmt = parse(key)?;
        let bound = stmt.bind(&[]).map_err(|e| SqlError::Bind(e.0))?;
        self.stats.executions += 1;
        let mut outcome = self.backend.execute(&bound)?;
        self.append_session_stats(&bound, &mut outcome);
        Ok(outcome)
    }

    /// `SHOW STATS` results gain a `session` scope on top of the executor's
    /// `engine` rows: this session's parse/cache counters.
    fn append_session_stats(&self, stmt: &Statement, outcome: &mut QueryOutcome) {
        if !matches!(stmt, Statement::ShowStats) {
            return;
        }
        if let QueryOutcome::Rows { frame, .. } = outcome {
            for (metric, value) in [
                ("parses", self.stats.parses),
                ("cache_hits", self.stats.cache_hits),
                ("executions", self.stats.executions),
                ("cached_statements", self.statements.len()),
            ] {
                push_stat(frame, "session", metric, value as i64);
            }
            sort_stats_rows(frame);
        }
    }

    /// Parser/cache counters.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }
}

impl Session<&mut HermesEngine> {
    /// Direct access to the underlying engine (e.g. to load trajectories).
    /// Only exclusive-access sessions expose this; shared sessions go through
    /// [`SharedEngine`](hermes_core::SharedEngine) locks instead.
    pub fn engine(&mut self) -> &mut HermesEngine {
        self.backend
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ValueType;
    use hermes_trajectory::{Point, Timestamp, Trajectory};

    fn traj(id: u64, y: f64) -> Trajectory {
        Trajectory::new(
            id,
            id,
            (0..30)
                .map(|i| Point::new(i as f64 * 100.0, y, Timestamp(i as i64 * 60_000)))
                .collect(),
        )
        .unwrap()
    }

    fn engine() -> HermesEngine {
        let mut e = HermesEngine::new();
        e.create_dataset("flights").unwrap();
        let trajs: Vec<Trajectory> = (0..12).map(|i| traj(i, i as f64 * 10.0)).collect();
        e.load_trajectories("flights", trajs).unwrap();
        e
    }

    #[test]
    fn prepared_statement_executes_twice_without_reparsing() {
        let mut e = engine();
        let mut session = Session::new(&mut e);
        session
            .execute("BUILD INDEX ON flights WITH CHUNK 4 HOURS SIGMA 60 EPSILON 400;")
            .unwrap();
        let parses_before = session.stats().parses;

        let qut = session
            .prepare("SELECT QUT(flights, $1, $2, 0.35, 0.05, 120000, 400, 1800000)")
            .unwrap();
        assert_eq!(session.stats().parses, parses_before + 1);

        let first = session
            .execute_prepared(qut, &[Value::Int(0), Value::Int(900_000)])
            .unwrap();
        let second = session
            .execute_prepared(qut, &[Value::Int(0), Value::Int(1_800_000)])
            .unwrap();
        // Two different windows executed, exactly one parse.
        assert_eq!(session.stats().parses, parses_before + 1);
        assert_eq!(session.stats().executions, 3);
        assert!(first.num_rows() >= 1 && second.num_rows() >= 1);
        // Timestamps may bind as typed values, not just ints.
        let third = session
            .execute_prepared(
                qut,
                &[
                    Value::Timestamp(Timestamp(0)),
                    Value::Timestamp(Timestamp(1_800_000)),
                ],
            )
            .unwrap();
        assert_eq!(third.num_rows(), second.num_rows());
    }

    #[test]
    fn execute_hits_the_cache_on_repeated_text() {
        let mut e = engine();
        let mut session = Session::new(&mut e);
        session.execute("SELECT INFO(flights);").unwrap();
        session.execute("SELECT INFO(flights);").unwrap();
        session.execute("  SELECT INFO(flights);  ").unwrap();
        let stats = session.stats();
        assert_eq!(stats.parses, 1);
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.executions, 3);
        assert_eq!(session.statements.len(), 1);
    }

    #[test]
    fn implicit_cache_is_capped_but_execution_continues() {
        let mut e = engine();
        e.build_index(
            "flights",
            hermes_retratree::ReTraTreeParams::builder()
                .chunk_duration(hermes_trajectory::Duration::from_hours(4))
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut session = Session::new(&mut e);
        // Every statement text is distinct, as in a shell loop over literal
        // windows.
        for i in 0..IMPLICIT_CACHE_CAP + 10 {
            session
                .execute(&format!("SELECT RANGE(flights, 0, {});", 60_000 + i))
                .unwrap();
        }
        assert_eq!(session.statements.len(), IMPLICIT_CACHE_CAP);
        // Everything still executed.
        assert_eq!(session.stats().executions, IMPLICIT_CACHE_CAP + 10);
        // Explicit prepare is not capped.
        let h = session.prepare("SELECT RANGE(flights, $1, $2);").unwrap();
        assert!(session.statements.len() > IMPLICIT_CACHE_CAP);
        assert!(session.statement(h).is_some());
    }

    #[test]
    fn show_stats_includes_the_session_scope() {
        let mut e = engine();
        let mut session = Session::new(&mut e);
        session.execute("SELECT INFO(flights);").unwrap();
        let outcome = session.execute("SHOW STATS;").unwrap();
        let frame = outcome.expect_frame("SHOW STATS");
        let session_row = |metric: &str| -> i64 {
            frame
                .rows()
                .find(|r| r[0].as_str() == Some("session") && r[1].as_str() == Some(metric))
                .and_then(|r| r[2].as_i64())
                .unwrap_or_else(|| panic!("session metric {metric} missing"))
        };
        // Both scopes are present: the executor's engine rows and ours.
        assert!(frame
            .column("scope")
            .unwrap()
            .iter()
            .any(|v| v.as_str() == Some("engine")));
        assert_eq!(session_row("parses"), 2);
        assert_eq!(session_row("executions"), 2);
    }

    #[test]
    fn sessions_share_one_engine_through_a_shared_backend() {
        use hermes_core::SharedEngine;
        let shared = SharedEngine::default();
        shared.with_write(|e| {
            e.create_dataset("flights").unwrap();
            e.load_trajectories(
                "flights",
                (0..12).map(|i| traj(i, i as f64 * 10.0)).collect(),
            )
            .unwrap();
        });
        let mut a = Session::new(shared.clone());
        let mut b = Session::new(shared.clone());
        a.execute("BUILD INDEX ON flights WITH CHUNK 4 HOURS;")
            .unwrap();
        // b sees the index a built, through the read lock.
        assert_eq!(
            b.execute("SELECT RANGE(flights, 0, 1800000);")
                .unwrap()
                .num_rows(),
            1
        );
        // Prepared-statement caches are per session.
        let ha = a.prepare("SELECT RANGE(flights, $1, $2);").unwrap();
        assert!(a.statement(ha).is_some());
        assert!(b.statement(ha).is_none());
        assert_eq!(b.stats().parses, 1);
    }

    #[test]
    fn set_threads_works_through_sessions_and_shared_backends() {
        use hermes_core::SharedEngine;
        let shared = SharedEngine::default();
        let mut a = Session::new(shared.clone());
        let mut b = Session::new(shared.clone());
        // SET goes through the write lock; the engine-wide setting is visible
        // to every session over the same engine.
        a.execute("SET threads = 2;").unwrap();
        let shown = b.execute("SHOW THREADS;").unwrap();
        assert_eq!(
            shown.expect_frame("SHOW THREADS").get(0, "threads"),
            Some(&Value::Int(2))
        );
        // Prepared SET with a placeholder binds like any other statement.
        let h = a.prepare("SET threads = $1;").unwrap();
        a.execute_prepared(h, &[Value::Int(1)]).unwrap();
        assert_eq!(shared.read().exec_policy().threads, 1);
        // N = 0 is rejected with the arity-style message.
        let err = a.execute_prepared(h, &[Value::Int(0)]).unwrap_err();
        assert!(err.to_string().contains("positive thread count"), "{err}");
    }

    #[test]
    fn binding_errors_are_surfaced() {
        let mut e = engine();
        let mut session = Session::new(&mut e);
        let range = session.prepare("SELECT RANGE(flights, $1, $2);").unwrap();
        let err = session
            .execute_prepared(range, &[Value::Int(0)])
            .unwrap_err();
        assert!(
            matches!(err, SqlError::Bind(ref m) if m.contains("$2")),
            "{err}"
        );
        // Executing a statement with placeholders directly is a bind error.
        let err = session
            .execute("SELECT RANGE(flights, $1, $2);")
            .unwrap_err();
        assert!(
            matches!(err, SqlError::Bind(ref m) if m.contains("$1")),
            "{err}"
        );
    }

    #[test]
    fn session_results_are_typed_frames() {
        let mut e = engine();
        let mut session = Session::new(&mut e);
        let info = session.execute("SELECT INFO(flights);").unwrap();
        let frame = info.expect_frame("INFO");
        assert_eq!(frame.schema()[1].ty, ValueType::Int);
        assert_eq!(frame.get(0, "trajectories"), Some(&Value::Int(12)));
        assert!(session
            .engine()
            .list_datasets()
            .contains(&"flights".to_string()));
    }
}
