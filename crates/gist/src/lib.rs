//! # hermes-gist
//!
//! The packed 3D R-tree, kept as the reference the S2T voting scan is
//! tested against.
//!
//! * [`packed`] — a static [`PackedRTree`]: STR-packed into flat slabs and
//!   queried for the candidates of a distance-cutoff kernel by one scalar
//!   descent with zero per-query allocation. Voting draws its candidates
//!   from a time-ordered scan instead (`hermes-s2t`); the tree is that
//!   scan's reference in tests and what the end-to-end benchmark's
//!   `gist.probe_*` metrics time. The box gap both compute lives once, in
//!   `hermes_trajectory::axis_gap`.
//!
//! The ReTraTree keeps no spatial index: the one question QuT asks a
//! sub-chunk is which of its records temporally intersect a window, and
//! level 3 answers it (see `hermes-retratree`). Where each index sits in a
//! query's life is mapped in `docs/ARCHITECTURE.md`.

pub mod packed;

pub use packed::PackedRTree;
