//! # hermes-s2t
//!
//! **S2T-Clustering** — Sampling-based Sub-Trajectory Clustering — the first
//! of the two clustering modules of the Hermes@PostgreSQL demo (ICDE 2018),
//! following the algorithm of Pelekis et al. (EDBT 2017).
//!
//! The pipeline has two phases:
//!
//! 1. **NaTS** — *Neighborhood-aware Trajectory Segmentation*:
//!    * [`voting`] computes, for every 3D segment of every trajectory, how
//!      many other objects co-move with it (a Gaussian kernel over the
//!      time-synchronized segment-to-trajectory distance). The hot path is
//!      [`arena`]: a structure-of-arrays [`SegmentArena`] whose segments one
//!      sweep over time pairs with every segment they share an instant with,
//!      voted over flat `f64` lanes with no allocation per pair.
//!      [`voting::naive_voting`] is the quadratic baseline the paper
//!      compares against ("corresponding PostgreSQL functions") and the
//!      reference the arena path is proven bit-identical against.
//!    * [`segmentation`] splits each trajectory into sub-trajectories of
//!      homogeneous voting (representativeness), irrespective of shape.
//! 2. **SaCO** — *Sampling, Clustering, Outlier detection*:
//!    * [`sampling`] greedily selects the most representative, least
//!      redundant sub-trajectories as cluster seeds,
//!    * [`clustering`] groups every remaining sub-trajectory around the
//!      closest seed (within a distance bound) and isolates the outliers.
//!
//! [`pipeline::run_s2t`] wires the phases together; [`metrics`] quantifies
//! result quality for the comparison experiments (E1/E2).
//!
//! **Layer:** the whole-dataset clustering compute layer between
//! `hermes-trajectory` and the engine. The flat data layout of the voting
//! hot path is documented in `docs/ARCHITECTURE.md` § "Data layout & hot
//! path".

pub mod arena;
pub mod clustering;
pub mod metrics;
pub mod params;
pub mod pipeline;
pub mod sampling;
pub mod segmentation;
pub mod voting;

pub use arena::{
    arena_voting_counted_with, arena_voting_with, KernelCounters, PackedSegmentIndex, SegmentArena,
};
pub use clustering::{
    cluster_around_representatives, cluster_around_representatives_with, nearest_representative,
};
pub use clustering::{Cluster, ClusterId, ClusteringResult};
pub use metrics::ClusteringQuality;
pub use params::{S2TParams, S2TParamsBuilder};
pub use pipeline::trajectories_from_subs;
pub use pipeline::{
    run_s2t, run_s2t_indexed_with, run_s2t_naive, run_s2t_naive_with, run_s2t_with, S2TOutcome,
    S2TPhaseTimings, S2tIndex,
};
pub use sampling::{select_representatives, select_representatives_with};
pub use segmentation::{segment_all, segment_all_with, segment_trajectory, VotedSubTrajectory};
pub use voting::{naive_voting, naive_voting_with, VotingProfile};
