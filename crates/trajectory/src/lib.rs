//! # hermes-trajectory
//!
//! Spatio-temporal geometry substrate for the Hermes time-aware sub-trajectory
//! clustering engine.
//!
//! This crate provides the data model that every other crate in the workspace
//! builds upon:
//!
//! * [`Timestamp`] / [`Duration`] — millisecond-resolution time axis,
//! * [`Point`] — a 3D sample `(x, y, t)` of a moving object,
//! * [`Mbb`] — 3D (space + time) minimum bounding boxes, and [`axis_gap`],
//!   the one interval gap every box bound of the workspace is built from,
//! * [`Segment`] — a straight-line movement between two consecutive samples,
//! * [`Trajectory`] — the full history of one moving object,
//! * [`SubTrajectory`] — a contiguous portion of a trajectory (the unit that
//!   the S2T / QuT clustering algorithms group), and its
//!   [`SubTrajectorySummary`] (identity + lifespan, no points),
//! * distance functions (time-synchronized Euclidean, Hausdorff-style) in
//!   [`distance`].
//!
//! The Hermes@PostgreSQL paper (ICDE 2018) operates on "3D trajectory
//! segments"; throughout this workspace the third dimension is always time.
//!
//! **Layer:** the geometry substrate everything else builds on — no
//! dependencies on other workspace crates. The layer map lives in
//! `docs/ARCHITECTURE.md`.

pub mod csvio;
pub mod distance;
pub mod error;
pub mod geo;
pub mod interpolate;
pub mod kernel;
pub mod mbb;
pub mod point;
pub mod segment;
pub mod stats;
pub mod subtrajectory;
pub mod time;
pub mod trajectory;

pub use csvio::{parse_csv, parse_geo_csv, to_csv, CsvImport};
pub use distance::{
    hausdorff_distance, spatiotemporal_distance, sub_trajectory_distance, synchronized_euclidean,
    DistanceCounters,
};
pub use error::TrajectoryError;
pub use geo::{haversine_distance, GeoPoint, LocalProjection};
pub use kernel::{
    mean_sync_distance, mean_sync_distance_batch, mean_sync_distance_batch_at, simd_level,
    SegLanes, SimdLevel, BATCH,
};
pub use mbb::{axis_gap, t_down, t_up, Mbb};
pub use point::Point;
pub use segment::Segment;
pub use stats::TrajectoryStats;
pub use subtrajectory::{Lifespan, SubTrajectory, SubTrajectoryId, SubTrajectorySummary};
pub use time::{Duration, TimeInterval, Timestamp};
pub use trajectory::{ObjectId, Trajectory, TrajectoryBuilder, TrajectoryId};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, TrajectoryError>;
