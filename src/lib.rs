//! # hermes — time-aware sub-trajectory clustering
//!
//! A Rust reproduction of *"Time-aware Sub-Trajectory Clustering in
//! Hermes@PostgreSQL"* (Tampakis et al., ICDE 2018) and of the two algorithms
//! it demonstrates: **S2T-Clustering** (EDBT 2017) and **QuT-Clustering** on
//! the **ReTraTree** index (DMKD 2017).
//!
//! This crate is a façade: it re-exports the workspace crates under one roof
//! so applications can depend on `hermes` alone.
//!
//! ```
//! use hermes::prelude::*;
//!
//! // Generate a small synthetic terminal-area scenario…
//! let scenario = AircraftScenarioBuilder {
//!     num_streams: 2,
//!     waves_per_stream: 1,
//!     flights_per_wave: 4,
//!     num_stragglers: 1,
//!     ..AircraftScenarioBuilder::default()
//! }
//! .build();
//!
//! // …load it into the engine and cluster it through a SQL session.
//! let mut engine = HermesEngine::new();
//! engine.create_dataset("flights").unwrap();
//! engine
//!     .load_trajectories("flights", scenario.trajectories.clone())
//!     .unwrap();
//! let mut session = Session::new(&mut engine);
//! let result = session
//!     .execute("SELECT S2T(flights, 2000, 0.35, 0.05, 120000, 5000);")
//!     .unwrap();
//! // Results are typed, columnar frames — strings appear only when rendering.
//! let frame = result.frame().unwrap();
//! assert!(frame.num_rows() >= 2);
//! assert!(matches!(frame.get(0, "start"), Some(Value::Timestamp(_))));
//! ```
//!
//! The workspace's deeper documentation lives beside the code:
//! `docs/ARCHITECTURE.md` (layer map, execution model, durability),
//! `docs/PROTOCOL.md` (the wire format) and `docs/STORAGE.md` (the on-disk
//! snapshot + WAL formats, normative).

pub use hermes_baselines as baselines;
pub use hermes_coord as coord;
pub use hermes_core as core;
pub use hermes_datagen as datagen;
pub use hermes_exec as exec;
pub use hermes_gist as gist;
pub use hermes_obs as obs;
pub use hermes_retratree as retratree;
pub use hermes_s2t as s2t;
pub use hermes_server as server;
pub use hermes_sql as sql;
pub use hermes_storage as storage;
pub use hermes_trajectory as trajectory;
pub use hermes_va as va;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use hermes_core::{DatasetInfo, EngineError, EngineStats, HermesEngine, SharedEngine};
    pub use hermes_datagen::{
        AircraftScenarioBuilder, MaritimeScenarioBuilder, NoiseModel, UrbanScenarioBuilder,
    };
    pub use hermes_exec::{ExecPolicy, Executor};
    pub use hermes_retratree::{QutParams, QutResult, ReTraTree, ReTraTreeParams};
    pub use hermes_s2t::{run_s2t, ClusteringQuality, ClusteringResult, S2TParams};
    pub use hermes_server::{ClientError, HermesClient};
    #[cfg(unix)]
    pub use hermes_server::{Server, ServerConfig};
    pub use hermes_sql::{Frame, QueryOutcome, Session, SqlError, Value, ValueType};
    pub use hermes_trajectory::{
        Duration, Lifespan, Mbb, Point, SubTrajectory, SubTrajectorySummary, TimeInterval,
        Timestamp, Trajectory,
    };
    pub use hermes_va::{cluster_map_svg, compare_runs, detect_holding_patterns, time_histogram};
}
