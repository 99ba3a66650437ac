//! # hermes-gist
//!
//! The packed 3D R-tree and the box-gap arithmetic the S2T voting scan
//! shares with it.
//!
//! * [`packed`] — a static, structure-of-arrays [`PackedRTree`]: STR-packed
//!   into flat lanes, queried for the candidates of a distance-cutoff kernel
//!   with zero per-query allocation. Voting draws its candidates from a
//!   time-ordered scan instead (`hermes-s2t`); the tree is that scan's
//!   reference in tests and what the end-to-end benchmark's `gist.probe_*`
//!   metrics time.
//! * [`axis_gap`], [`t_down`]/[`t_up`] — the one implementation of the
//!   interval gap and of the outward rounding every packed temporal
//!   prefilter relies on, here and in the voting scan.
//!
//! The ReTraTree keeps no spatial index: the one question QuT asks a
//! sub-chunk is which of its records temporally intersect a window, and
//! level 3 answers it (see `hermes-retratree`). Where each index sits in a
//! query's life is mapped in `docs/ARCHITECTURE.md`.

pub mod packed;

pub use packed::{axis_gap, t_down, t_up, PackedRTree};
