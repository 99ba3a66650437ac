//! # hermes-storage
//!
//! The Moving Object Database storage engine underneath the ReTraTree.
//!
//! In the paper's architecture (Fig. 2) trajectories are "archived on disk in
//! dedicated R-tree indexed partitions" — one partition per representative
//! sub-trajectory — plus a separate partition for outliers. When a partition
//! exceeds a pre-defined threshold, S2T-Clustering is re-run on it.
//!
//! This crate reproduces that storage layer natively:
//!
//! * [`page`] — fixed-size slotted pages holding serialized sub-trajectories,
//! * [`codec`] — compact binary serialization of (sub-)trajectories plus the
//!   [`ByteWriter`]/[`ByteReader`] primitives every durable format uses —
//!   and, in their [`BigEndian`] instance, the `hermes-server` wire protocol,
//! * [`partition`] — append-oriented partitions built from pages, with size
//!   accounting to drive the re-clustering threshold. Every page is
//!   resident and shared by refcount, standing in for PostgreSQL's shared
//!   buffers; the store counts its page lookups (the logical I/O the
//!   server exports),
//! * [`catalog`] — the named-dataset catalog used by the SQL layer.
//!
//! Since the durability PR this crate also owns the on-disk formats — the
//! checksummed [`snapshot`] container, the [`wal`] write-ahead log and the
//! [`crc`] checksum both share. The byte-level layouts are normatively
//! specified in `docs/STORAGE.md`; higher layers (`hermes-retratree`,
//! `hermes-core`) encode their state through these building blocks.

#![deny(missing_docs)]

pub mod catalog;
pub mod codec;
pub mod crc;
pub mod error;
pub mod page;
pub mod partition;
pub mod snapshot;
pub mod wal;

pub use catalog::{Catalog, DatasetId, DatasetMeta};
pub use codec::{
    decode_sub_trajectory, encode_sub_trajectory, BigEndian, ByteOrder, ByteReader, ByteWriter,
    LittleEndian,
};
pub use crc::{crc32, Crc32};
pub use error::StorageError;
pub use page::{Page, PageId, SlotId, PAGE_SIZE};
pub use partition::{Partition, PartitionId, PartitionKind, PartitionStore, RecordLocator};
pub use snapshot::{read_snapshot_file, write_snapshot_file};
pub use wal::{Wal, WalRecovery};

/// Result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;
