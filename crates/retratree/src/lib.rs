//! # hermes-retratree
//!
//! The **ReTraTree** (Representative Trajectory Tree) and **QuT-Clustering**
//! — the time-aware, progressive half of the Hermes@PostgreSQL demo
//! (ICDE 2018), following Pelekis et al. (DMKD 2017).
//!
//! The ReTraTree "consists of four levels: the first two levels operate on
//! the temporal dimension, the third level builds clusters upon the
//! spatio-temporal characteristics of the trajectories, and the fourth level
//! is the actual data storage along with the corresponding indexes
//! (3D-RTree) for effective retrieval".
//!
//! * **L1** — [`node::Chunk`]: disjoint, fixed-length temporal chunks,
//! * **L2** — [`node::SubChunk`]: finer temporal partitions inside a chunk,
//! * **L3** — [`node::ClusterEntry`]: one entry per representative
//!   sub-trajectory, pointing at the partition holding its members and
//!   keeping a summary (identity + lifespan) of each beside its locator,
//! * **L4** — per-cluster partitions (`hermes-storage`), plus an outlier
//!   partition per sub-chunk.
//!
//! The only question QuT asks a sub-chunk is which of its records
//! temporally intersect a window, and level 3 already keeps every record's
//! locator and lifespan, so level 3 is the sub-chunk index:
//! [`node::SubChunk::window_records`] walks it and reads no page.
//!
//! [`tree::ReTraTree::insert_trajectory`] implements the incremental
//! maintenance loop of the architecture figure: new data is routed to an
//! existing representative when possible, parked as an outlier otherwise, and
//! when an outlier partition outgrows its threshold, S2T-Clustering is re-run
//! on it and the new representatives are back-propagated into the in-memory
//! part of the structure.
//!
//! [`qut::qut_clustering`] answers `QUT(D, Wi, We, τ, δ, t, d, γ)`: clusters
//! and outliers for an arbitrary temporal window `W`, reusing the L3 entries
//! of every sub-chunk fully covered by `W` — from level 3 alone, members and
//! outliers reported as summaries — re-clustering only the border
//! sub-chunks, and merging cluster entries across chunk boundaries. Finished
//! border partials and the merge distances between stored representatives
//! are kept in byte-bounded [`memo`]s owned by the tree value, so a repeated
//! window edge pays S2T once and a pair of stored representatives is
//! measured once.
//!
//! Durable deployments serialize the whole structure through [`persist`]
//! (parameters, cluster entries, partition pages) so an engine restart
//! restores the index without re-clustering — the on-disk layout is
//! specified in `docs/STORAGE.md`.

pub mod memo;
pub mod node;
pub mod params;
pub mod persist;
pub mod qut;
pub mod tree;

pub use memo::{MemoStats, MEMO_MAX_BYTES};
pub use node::{Chunk, ClusterEntry, StoredRecords, SubChunk};
pub use params::{QutParams, QutParamsBuilder, ReTraTreeParams, ReTraTreeParamsBuilder};
pub use persist::{
    decode_params_from, decode_tree, decode_tree_v1, encode_params_into, encode_tree,
};
pub use qut::{
    merge_qut_partials, qut_clustering, qut_clustering_with, qut_partial_with,
    range_query_then_cluster, range_query_then_cluster_with, OwnedSlice, QutCluster, QutPartial,
    QutResult, QutStats,
};
pub use tree::{MaintenanceStats, ReTraTree};
