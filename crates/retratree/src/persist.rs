//! ReTraTree state export/import: the tree's contribution to a snapshot.
//!
//! [`encode_tree`] serializes everything needed to answer queries after a
//! restart *without re-clustering*: the construction parameters, the
//! maintenance counters, the whole level-4 [`PartitionStore`] (raw page
//! images, so record locators stay valid), and for every sub-chunk its
//! cluster entries (representatives included, re-encoded through the storage
//! codec), outlier locators and the entry lists of its [`LeafIndex`]. The
//! member and outlier summaries are not part of the bytes: they are derived
//! state, and [`decode_tree`] reads them back from the record headers.
//! [`decode_tree`] rebuilds an equivalent tree whose query answers are
//! bit-identical to the original's — the restart-equivalence property the
//! tier-1 persistence tests assert.
//!
//! The byte layout rides entirely on [`ByteWriter`]/[`ByteReader`] and is
//! normatively specified in `docs/STORAGE.md` (§ "ReTraTree state encoding").

use crate::memo::BorderMemo;
use crate::node::{Chunk, ClusterEntry, StoredRecords, SubChunk};
use crate::params::ReTraTreeParams;
use crate::tree::{MaintenanceStats, ReTraTree};
use crate::LeafIndex;
use hermes_s2t::S2TParams;
use hermes_storage::codec::{decode_sub_trajectory_from, encode_sub_trajectory_into};
use hermes_storage::{ByteReader, ByteWriter, PartitionStore, RecordLocator, StorageError};
use hermes_trajectory::{Duration, Mbb, TimeInterval, Timestamp};
use std::collections::BTreeMap;

/// Result alias matching the storage error surface.
pub type Result<T> = std::result::Result<T, StorageError>;

/// Serializes the full construction-parameter set (including the nested
/// [`S2TParams`]). Shared with the engine's WAL, whose `BuildIndex` record
/// carries the same parameters.
pub fn encode_params_into(w: &mut ByteWriter, p: &ReTraTreeParams) {
    w.i64(p.chunk_duration.millis());
    w.u32(p.subchunks_per_chunk as u32);
    w.u32(p.reorg_page_threshold as u32);
    w.u32(p.buffer_frames as u32);
    w.f64(p.s2t.sigma);
    w.f64(p.s2t.tau);
    w.f64(p.s2t.delta);
    w.i64(p.s2t.min_duration_ms);
    w.f64(p.s2t.epsilon);
    w.u64(p.s2t.max_representatives as u64);
    w.f64(p.s2t.time_weight);
}

/// Reads parameters written by [`encode_params_into`], re-running
/// [`ReTraTreeParams::validate`] so corrupt input cannot smuggle in an
/// invalid configuration.
pub fn decode_params_from(r: &mut ByteReader<'_>) -> Result<ReTraTreeParams> {
    let params = ReTraTreeParams {
        chunk_duration: Duration::from_millis(r.i64()?),
        subchunks_per_chunk: r.u32()? as usize,
        reorg_page_threshold: r.u32()? as usize,
        buffer_frames: r.u32()? as usize,
        s2t: S2TParams {
            sigma: r.f64()?,
            tau: r.f64()?,
            delta: r.f64()?,
            min_duration_ms: r.i64()?,
            epsilon: r.f64()?,
            max_representatives: r.u64()? as usize,
            time_weight: r.f64()?,
        },
    };
    params.validate().map_err(|reason| StorageError::Corrupt {
        reason: format!("decoded ReTraTree parameters are invalid: {reason}"),
    })?;
    Ok(params)
}

fn encode_locator(w: &mut ByteWriter, loc: &RecordLocator) {
    w.u64(loc.partition);
    w.u64(loc.page);
    w.u16(loc.slot);
}

fn decode_locator(r: &mut ByteReader<'_>) -> Result<RecordLocator> {
    Ok(RecordLocator {
        partition: r.u64()?,
        page: r.u64()?,
        slot: r.u16()?,
    })
}

fn encode_locators(w: &mut ByteWriter, locs: &[RecordLocator]) {
    w.u32(locs.len() as u32);
    for loc in locs {
        encode_locator(w, loc);
    }
}

/// Reads a locator list and derives each record's summary from its header in
/// `store` — the bytes carry locators only. A record that does not read
/// (tombstoned, malformed) keeps its slot and gets no summary.
fn decode_records(r: &mut ByteReader<'_>, store: &PartitionStore) -> Result<StoredRecords> {
    let n = r.u32()? as usize;
    (0..n)
        .map(|_| {
            let loc = decode_locator(r)?;
            Ok((loc, store.summary(loc).ok().flatten()))
        })
        .collect()
}

fn encode_mbb(w: &mut ByteWriter, mbb: &Mbb) {
    w.f64(mbb.x_min);
    w.f64(mbb.x_max);
    w.f64(mbb.y_min);
    w.f64(mbb.y_max);
    w.i64(mbb.t_min.millis());
    w.i64(mbb.t_max.millis());
}

fn decode_mbb(r: &mut ByteReader<'_>) -> Result<Mbb> {
    let x_min = r.f64()?;
    let x_max = r.f64()?;
    let y_min = r.f64()?;
    let y_max = r.f64()?;
    let t_min = Timestamp(r.i64()?);
    let t_max = Timestamp(r.i64()?);
    // `Mbb::new` asserts on inverted bounds; a CRC-valid but malformed
    // snapshot must surface as Corrupt, never as a panic inside recovery.
    if !(x_min <= x_max && y_min <= y_max && t_min <= t_max) {
        return Err(StorageError::Corrupt {
            reason: format!(
                "inverted MBB bounds: x [{x_min}, {x_max}], y [{y_min}, {y_max}], t [{}, {}]",
                t_min.millis(),
                t_max.millis()
            ),
        });
    }
    Ok(Mbb::new(x_min, x_max, y_min, y_max, t_min, t_max))
}

fn encode_entry_list(w: &mut ByteWriter, entries: &[(Mbb, RecordLocator)]) {
    w.u32(entries.len() as u32);
    for (mbb, loc) in entries {
        encode_mbb(w, mbb);
        encode_locator(w, loc);
    }
}

fn decode_entry_list(r: &mut ByteReader<'_>) -> Result<Vec<(Mbb, RecordLocator)>> {
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let mbb = decode_mbb(r)?;
        let loc = decode_locator(r)?;
        out.push((mbb, loc));
    }
    Ok(out)
}

/// Serializes a tree into `w`.
pub fn encode_tree(w: &mut ByteWriter, tree: &ReTraTree) {
    encode_params_into(w, &tree.params);
    let s = tree.stats;
    for counter in [
        s.inserted_trajectories,
        s.inserted_pieces,
        s.assigned_to_existing,
        s.parked_as_outliers,
        s.reorganizations,
        s.promoted_representatives,
    ] {
        w.u64(counter as u64);
    }
    tree.store.encode_into(w);
    w.u32(tree.chunks.len() as u32);
    for (&key, chunk) in &tree.chunks {
        w.i64(key);
        for sc in &chunk.subchunks {
            w.u64(sc.outlier_partition);
            encode_locators(w, sc.outliers());
            w.u32(sc.clusters.len() as u32);
            for entry in &sc.clusters {
                encode_sub_trajectory_into(w, &entry.representative);
                w.f64(entry.representative_vote);
                w.u64(entry.partition);
                match entry.representative_loc {
                    Some(loc) => {
                        w.bool(true);
                        encode_locator(w, &loc);
                    }
                    None => w.bool(false),
                }
                encode_locators(w, entry.members());
            }
            let (base, delta) = sc.index.export_entries();
            encode_entry_list(w, &base);
            encode_entry_list(w, &delta);
        }
    }
}

/// Rebuilds a tree serialized by [`encode_tree`]. Chunk and sub-chunk
/// intervals are re-derived from the chunk keys and the parameters (they are
/// not stored — the layout is a pure function of both).
pub fn decode_tree(r: &mut ByteReader<'_>) -> Result<ReTraTree> {
    let params = decode_params_from(r)?;
    let stats = MaintenanceStats {
        inserted_trajectories: r.u64()? as usize,
        inserted_pieces: r.u64()? as usize,
        assigned_to_existing: r.u64()? as usize,
        parked_as_outliers: r.u64()? as usize,
        reorganizations: r.u64()? as usize,
        promoted_representatives: r.u64()? as usize,
    };
    let store = PartitionStore::decode_from(r, params.reorg_page_threshold, params.buffer_frames)?;

    let num_chunks = r.u32()? as usize;
    let chunk_len = params.chunk_duration.millis();
    let sub_len = params.subchunk_duration().millis();
    let mut chunks = BTreeMap::new();
    for _ in 0..num_chunks {
        let key = r.i64()?;
        let interval = TimeInterval::new(Timestamp(key), Timestamp(key + chunk_len));
        let mut subchunks = Vec::with_capacity(params.subchunks_per_chunk);
        for i in 0..params.subchunks_per_chunk {
            let s = Timestamp(key + i as i64 * sub_len);
            let e = Timestamp(key + (i as i64 + 1) * sub_len);
            let outlier_partition = r.u64()?;
            let outliers = decode_records(r, &store)?;
            let num_clusters = r.u32()? as usize;
            let mut clusters = Vec::with_capacity(num_clusters);
            for _ in 0..num_clusters {
                let representative = decode_sub_trajectory_from(r)?;
                let representative_vote = r.f64()?;
                let partition = r.u64()?;
                let representative_loc = if r.bool()? {
                    Some(decode_locator(r)?)
                } else {
                    None
                };
                let members = decode_records(r, &store)?;
                clusters.push(ClusterEntry::new(
                    representative,
                    representative_vote,
                    partition,
                    representative_loc,
                    members,
                ));
            }
            let base = decode_entry_list(r)?;
            let delta = decode_entry_list(r)?;
            let mut sc = SubChunk::new(TimeInterval::new(s, e), outlier_partition);
            sc.replace_outliers(outlier_partition, outliers);
            sc.clusters = clusters;
            sc.index = LeafIndex::import_entries(base, delta);
            subchunks.push(sc);
        }
        if chunks
            .insert(
                key,
                Chunk {
                    interval,
                    subchunks,
                },
            )
            .is_some()
        {
            return Err(StorageError::Corrupt {
                reason: format!("chunk key {key} appears twice in the tree encoding"),
            });
        }
    }
    Ok(ReTraTree {
        params,
        chunks,
        store,
        stats,
        border_memo: BorderMemo::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_trajectory::{Point, Trajectory};

    fn params() -> ReTraTreeParams {
        ReTraTreeParams {
            chunk_duration: Duration::from_hours(4),
            subchunks_per_chunk: 4,
            reorg_page_threshold: 2,
            buffer_frames: 64,
            s2t: S2TParams {
                sigma: 60.0,
                epsilon: 300.0,
                min_duration_ms: 60_000,
                ..S2TParams::default()
            },
        }
    }

    fn traj(id: u64, y: f64, t0: i64, dur_ms: i64) -> Trajectory {
        let n = 40usize;
        let pts: Vec<Point> = (0..n)
            .map(|i| {
                Point::new(
                    i as f64 * 100.0,
                    y,
                    Timestamp(t0 + dur_ms * i as i64 / (n as i64 - 1)),
                )
            })
            .collect();
        Trajectory::new(id, id, pts).unwrap()
    }

    fn populated_tree() -> ReTraTree {
        let mut tree = ReTraTree::new(params());
        // Enough co-moving trajectories to trigger reorganizations (promoted
        // representatives + cluster partitions), plus post-reorg insertions so
        // the LeafIndex deltas are non-empty.
        for i in 0..30 {
            tree.insert_trajectory(&traj(i, i as f64 * 5.0, 0, 3_500_000));
        }
        tree.insert_trajectory(&traj(100, 52.0, 0, 3_500_000));
        tree.insert_trajectory(&traj(101, 47.0, 3_600_000, 3_000_000));
        tree
    }

    #[test]
    fn params_round_trip_and_validate() {
        let p = params();
        let mut w = ByteWriter::new();
        encode_params_into(&mut w, &p);
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        assert_eq!(decode_params_from(&mut r).unwrap(), p);
        assert!(r.is_empty());

        // An invalid configuration (zero sub-chunks) is rejected on decode.
        let mut bad = p;
        bad.subchunks_per_chunk = 0;
        let mut w = ByteWriter::new();
        encode_params_into(&mut w, &bad);
        let buf = w.into_bytes();
        assert!(matches!(
            decode_params_from(&mut ByteReader::new(&buf)),
            Err(StorageError::Corrupt { .. })
        ));
    }

    #[test]
    fn tree_round_trip_preserves_structure_and_answers() {
        let tree = populated_tree();
        assert!(tree.stats().reorganizations >= 1, "fixture must reorganize");

        let mut w = ByteWriter::new();
        encode_tree(&mut w, &tree);
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        let back = decode_tree(&mut r).unwrap();
        assert!(r.is_empty(), "{} bytes left over", r.remaining());

        assert_eq!(back.params(), tree.params());
        assert_eq!(back.stats(), tree.stats());
        assert_eq!(back.num_chunks(), tree.num_chunks());
        assert_eq!(back.total_population(), tree.total_population());
        assert_eq!(back.total_clusters(), tree.total_clusters());
        assert_eq!(back.describe(), tree.describe());
        assert_eq!(back.lifespan(), tree.lifespan());

        // Cluster entries line up one to one, bit for bit.
        for (ca, cb) in tree.chunks().zip(back.chunks()) {
            assert_eq!(ca.interval, cb.interval);
            for (sa, sb) in ca.subchunks.iter().zip(cb.subchunks.iter()) {
                assert_eq!(sa.interval, sb.interval);
                assert_eq!(sa.outlier_partition, sb.outlier_partition);
                assert_eq!(sa.outliers(), sb.outliers());
                assert_eq!(sa.outlier_summaries(), sb.outlier_summaries());
                assert_eq!(sa.num_clusters(), sb.num_clusters());
                for (ea, eb) in sa.clusters.iter().zip(sb.clusters.iter()) {
                    assert_eq!(ea.representative, eb.representative);
                    assert_eq!(
                        ea.representative_vote.to_bits(),
                        eb.representative_vote.to_bits()
                    );
                    assert_eq!(ea.partition, eb.partition);
                    assert_eq!(ea.representative_loc, eb.representative_loc);
                    assert_eq!(ea.members(), eb.members());
                    assert_eq!(ea.member_summaries(), eb.member_summaries());
                }
                assert_eq!(sa.index.len(), sb.index.len());
                assert_eq!(sa.index.packed_len(), sb.index.packed_len());
                assert_eq!(sa.index.delta_len(), sb.index.delta_len());
            }
        }

        // Window queries answer identically — same records, same order.
        for w in [
            TimeInterval::new(Timestamp(0), Timestamp(3_600_000)),
            TimeInterval::new(Timestamp(1_000_000), Timestamp(5_000_000)),
            TimeInterval::everything(),
        ] {
            assert_eq!(
                tree.window_sub_trajectories(&w),
                back.window_sub_trajectories(&w)
            );
        }

        // The restored tree keeps working: insertions route and reorganize.
        let mut live = decode_tree(&mut ByteReader::new(&buf)).unwrap();
        let before = live.stats().inserted_pieces;
        live.insert_trajectory(&traj(200, 49.0, 0, 3_500_000));
        assert!(live.stats().inserted_pieces > before);
    }

    #[test]
    fn inverted_mbb_bounds_are_corrupt_not_a_panic() {
        let mut w = ByteWriter::new();
        w.f64(10.0); // x_min > x_max
        w.f64(0.0);
        w.f64(0.0);
        w.f64(1.0);
        w.i64(0);
        w.i64(1);
        let buf = w.into_bytes();
        assert!(matches!(
            decode_mbb(&mut ByteReader::new(&buf)),
            Err(StorageError::Corrupt { .. })
        ));
        // NaN bounds fail the same validation (comparisons are false).
        let mut w = ByteWriter::new();
        w.f64(f64::NAN);
        w.f64(1.0);
        w.f64(0.0);
        w.f64(1.0);
        w.i64(0);
        w.i64(1);
        let buf = w.into_bytes();
        assert!(decode_mbb(&mut ByteReader::new(&buf)).is_err());
    }

    #[test]
    fn truncated_tree_bytes_are_corrupt_not_a_panic() {
        let tree = populated_tree();
        let mut w = ByteWriter::new();
        encode_tree(&mut w, &tree);
        let buf = w.into_bytes();
        // A sweep over prefixes: every truncation fails cleanly.
        for cut in (0..buf.len()).step_by(97) {
            let mut r = ByteReader::new(&buf[..cut]);
            assert!(
                decode_tree(&mut r).is_err(),
                "truncation to {cut} bytes must error"
            );
        }
    }
}
