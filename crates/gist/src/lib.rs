//! # hermes-gist
//!
//! A from-scratch **Generalized Search Tree (GiST)** framework plus the
//! paper's `pg3D-Rtree` operator class.
//!
//! The ICDE 2018 Hermes@PostgreSQL demo stresses that its 3D R-tree is *not*
//! an ad hoc index: it is "implemented from scratch on top of GiST", i.e. the
//! generic balanced-tree machinery is separated from the domain-specific key
//! operations (`union`, `penalty`, `picksplit`, `consistent`), exactly as in
//! Hellerstein, Naughton & Pfeffer (VLDB 1995). This crate reproduces that
//! layering:
//!
//! * [`OpClass`] — the operator-class trait a key type implements,
//! * [`Gist`] — the generic height-balanced tree parameterized by an
//!   operator class,
//! * [`rtree3d`] — the `pg3D-Rtree` operator class over [`Mbb`]
//!   (spatio-temporal boxes) plus the convenient [`RTree3D`] wrapper used by
//!   the rest of the workspace,
//! * STR bulk loading for building an index over an existing partition in one
//!   pass,
//! * [`packed`] — a static, structure-of-arrays [`PackedRTree`] for
//!   read-mostly hot paths: STR-packed into flat lanes, queried with zero
//!   per-query allocation (the packed base of the ReTraTree's sub-chunk
//!   leaf indexes).
//!
//! [`Mbb`]: hermes_trajectory::Mbb
//!
//! **Layer:** index substrate under `hermes-retratree`; the S2T voting hot
//! path shares its box-gap arithmetic ([`axis_gap`], [`t_down`]/[`t_up`]).
//! Key types: [`Gist`], [`OpClass`], [`RTree3D`], [`PackedRTree`].
//! Where each index sits in a query's life is mapped in
//! `docs/ARCHITECTURE.md`.

pub mod interval;
pub mod opclass;
pub mod packed;
pub mod rtree3d;
pub mod tree;

pub use interval::{IntervalOpClass, IntervalQuery, IntervalTree};
pub use opclass::OpClass;
pub use packed::{axis_gap, t_down, t_up, PackedRTree};
pub use rtree3d::{Box3OpClass, RTree3D, RangeQuery};
pub use tree::{Gist, GistStats};
