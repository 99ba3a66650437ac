//! ReTraTree state export/import: the tree's contribution to a snapshot.
//!
//! [`encode_tree`] serializes everything needed to answer queries after a
//! restart *without re-clustering*: the construction parameters, the
//! maintenance counters, the whole level-4 [`PartitionStore`] (raw page
//! images, so record locators stay valid), and for every sub-chunk its
//! cluster entries (representatives included, re-encoded through the storage
//! codec) and outlier locators. The member and outlier summaries — and with
//! them the window walk level 3 answers from — are not part of the bytes:
//! they are derived state, and [`decode_tree`] reads them back from the
//! record headers. [`decode_tree`] rebuilds an equivalent tree whose query
//! answers are bit-identical to the original's — the restart-equivalence
//! property the tier-1 persistence tests assert.
//!
//! [`decode_tree_v1`] reads the encoding of snapshot body version 1, which
//! followed every sub-chunk with the two entry lists of a leaf index that no
//! longer exists; they are checked and dropped.
//!
//! The byte layout rides entirely on [`ByteWriter`]/[`ByteReader`] and is
//! normatively specified in `docs/STORAGE.md` (§ "ReTraTree state encoding").

use crate::node::{Chunk, ClusterEntry, StoredRecords, SubChunk};
use crate::params::ReTraTreeParams;
use crate::tree::{MaintenanceStats, ReTraTree};
use hermes_s2t::S2TParams;
use hermes_storage::codec::{decode_sub_trajectory_from, encode_sub_trajectory_into};
use hermes_storage::{ByteReader, ByteWriter, PartitionStore, RecordLocator, StorageError};
use hermes_trajectory::{Duration, TimeInterval, Timestamp};
use std::collections::BTreeMap;

/// Result alias matching the storage error surface.
pub type Result<T> = std::result::Result<T, StorageError>;

/// Encoded size of a record locator.
const LOCATOR_BYTES: usize = 8 + 8 + 2;
/// The fewest bytes a cluster entry encodes to: a two-point representative
/// record with its length prefix, the vote, the partition, the locator flag
/// and the member count.
const ENTRY_MIN_BYTES: usize = 4 + 32 + 2 * 24 + 8 + 8 + 1 + 4;
/// Encoded size of one version-1 leaf-index entry: a box and a locator.
const V1_INDEX_ENTRY_BYTES: usize = 6 * 8 + LOCATOR_BYTES;

/// What the reserved `u32` of the parameter block is written as. It once
/// held a buffer-pool capacity whose default was 256; writing that keeps the
/// bytes of a default-configured engine what they were, and readers ignore
/// the slot whatever it holds.
const RESERVED_PARAMS_SLOT: u32 = 256;

/// Serializes the full construction-parameter set (including the nested
/// [`S2TParams`]). Shared with the engine's WAL, whose `BuildIndex` record
/// carries the same parameters.
pub fn encode_params_into(w: &mut ByteWriter, p: &ReTraTreeParams) {
    w.i64(p.chunk_duration.millis());
    w.u32(p.subchunks_per_chunk as u32);
    w.u32(p.reorg_page_threshold as u32);
    w.u32(RESERVED_PARAMS_SLOT);
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
    let chunk_duration = Duration::from_millis(r.i64()?);
    let subchunks_per_chunk = r.u32()? as usize;
    let reorg_page_threshold = r.u32()? as usize;
    r.u32()?; // reserved
    let params = ReTraTreeParams {
        chunk_duration,
        subchunks_per_chunk,
        reorg_page_threshold,
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
    let n = r.count(LOCATOR_BYTES)?;
    (0..n)
        .map(|_| {
            let loc = decode_locator(r)?;
            Ok((loc, store.summary(loc).ok().flatten()))
        })
        .collect()
}

/// Reads and drops one leaf-index entry list of a version-1 encoding. Its
/// boxes are still checked: an inverted one is corrupt input.
fn skip_v1_entry_list(r: &mut ByteReader<'_>) -> Result<()> {
    for _ in 0..r.count(V1_INDEX_ENTRY_BYTES)? {
        let [x_min, x_max, y_min, y_max] = [r.f64()?, r.f64()?, r.f64()?, r.f64()?];
        let (t_min, t_max) = (r.i64()?, r.i64()?);
        if !(x_min <= x_max && y_min <= y_max && t_min <= t_max) {
            return Err(StorageError::Corrupt {
                reason: format!(
                    "inverted MBB bounds: x [{x_min}, {x_max}], y [{y_min}, {y_max}], t [{t_min}, {t_max}]"
                ),
            });
        }
        decode_locator(r)?;
    }
    Ok(())
}

/// Serializes a tree into `w`.
pub fn encode_tree(w: &mut ByteWriter, tree: &ReTraTree) {
    encode_header(w, tree);
    for (&key, chunk) in &tree.chunks {
        w.i64(key);
        for sc in &chunk.subchunks {
            encode_subchunk(w, sc);
        }
    }
}

/// Everything before the first chunk: parameters, counters, store, and the
/// number of chunks.
fn encode_header(w: &mut ByteWriter, tree: &ReTraTree) {
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
}

fn encode_subchunk(w: &mut ByteWriter, sc: &SubChunk) {
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
}

/// Rebuilds a tree serialized by [`encode_tree`]. Chunk and sub-chunk
/// intervals are re-derived from the chunk keys and the parameters (they are
/// not stored — the layout is a pure function of both).
pub fn decode_tree(r: &mut ByteReader<'_>) -> Result<ReTraTree> {
    decode_tree_with(r, false)
}

/// [`decode_tree`] for the encoding inside a version-1 snapshot body: the
/// same layout with two leaf-index entry lists after every sub-chunk, which
/// are read, checked and dropped.
pub fn decode_tree_v1(r: &mut ByteReader<'_>) -> Result<ReTraTree> {
    decode_tree_with(r, true)
}

fn decode_tree_with(r: &mut ByteReader<'_>, v1_entry_lists: bool) -> Result<ReTraTree> {
    let params = decode_params_from(r)?;
    let stats = MaintenanceStats {
        inserted_trajectories: r.u64()? as usize,
        inserted_pieces: r.u64()? as usize,
        assigned_to_existing: r.u64()? as usize,
        parked_as_outliers: r.u64()? as usize,
        reorganizations: r.u64()? as usize,
        promoted_representatives: r.u64()? as usize,
    };
    let store = PartitionStore::decode_from(r)?;

    let num_chunks = r.u32()?;
    let chunk_len = params.chunk_duration.millis();
    let sub_len = params.subchunk_duration().millis();
    let mut chunks = BTreeMap::new();
    for _ in 0..num_chunks {
        let key = r.i64()?;
        // Keys are multiples of the chunk length (`docs/STORAGE.md`), and the
        // chunk must end on the time axis; then no sub-chunk bound overflows.
        let end = key
            .checked_add(chunk_len)
            .filter(|_| key.rem_euclid(chunk_len) == 0)
            .ok_or_else(|| StorageError::Corrupt {
                reason: format!(
                    "chunk key {key} is not a chunk of {chunk_len} ms on the time axis"
                ),
            })?;
        let subchunks = (0..params.subchunks_per_chunk as i64)
            .map(|i| {
                let start = key + i * sub_len;
                let interval = TimeInterval::new(Timestamp(start), Timestamp(start + sub_len));
                decode_subchunk(r, &store, interval, v1_entry_lists)
            })
            .collect::<Result<Vec<_>>>()?;
        let chunk = Chunk {
            interval: TimeInterval::new(Timestamp(key), Timestamp(end)),
            subchunks,
        };
        if chunks.insert(key, chunk).is_some() {
            return Err(StorageError::Corrupt {
                reason: format!("chunk key {key} appears twice in the tree encoding"),
            });
        }
    }
    Ok(ReTraTree::from_parts(params, chunks, store, stats))
}

fn decode_subchunk(
    r: &mut ByteReader<'_>,
    store: &PartitionStore,
    interval: TimeInterval,
    v1_entry_lists: bool,
) -> Result<SubChunk> {
    let outlier_partition = r.u64()?;
    let mut sc = SubChunk::new(interval, outlier_partition);
    sc.replace_outliers(outlier_partition, decode_records(r, store)?);
    let num_clusters = r.count(ENTRY_MIN_BYTES)?;
    sc.clusters = Vec::with_capacity(num_clusters);
    for _ in 0..num_clusters {
        let representative = decode_sub_trajectory_from(r)?;
        let representative_vote = r.f64()?;
        let partition = r.u64()?;
        let representative_loc = if r.bool()? {
            Some(decode_locator(r)?)
        } else {
            None
        };
        let mut entry = ClusterEntry::new(
            representative,
            representative_vote,
            partition,
            representative_loc,
            decode_records(r, store)?,
        );
        entry.representative_reads =
            representative_loc.is_some_and(|loc| matches!(store.summary(loc), Ok(Some(_))));
        sc.clusters.push(entry);
    }
    if v1_entry_lists {
        skip_v1_entry_list(r)?;
        skip_v1_entry_list(r)?;
    }
    Ok(sc)
}

/// The encoding of snapshot body version 1, as its writer produced it: the
/// layout of [`encode_tree`] plus, after every sub-chunk, the two entry
/// lists of its leaf index — `(box, locator)` of every stored record, the
/// packed base first, then the records inserted since the last
/// reorganisation. The fixture of every version-1 test; which list a record
/// sits in does not matter to [`decode_tree_v1`], so the last record goes in
/// the second.
#[cfg(test)]
pub(crate) fn encode_tree_v1(w: &mut ByteWriter, tree: &ReTraTree) {
    encode_header(w, tree);
    for (&key, chunk) in &tree.chunks {
        w.i64(key);
        for sc in &chunk.subchunks {
            encode_subchunk(w, sc);
            let entries: Vec<_> = sc
                .window_records(&TimeInterval::everything())
                .into_iter()
                .filter_map(|loc| tree.load(loc).map(|sub| (sub.mbb(), loc)))
                .collect();
            let (base, delta) = entries.split_at(entries.len().saturating_sub(1));
            for list in [base, delta] {
                w.u32(list.len() as u32);
                for (mbb, loc) in list {
                    for v in [mbb.x_min, mbb.x_max, mbb.y_min, mbb.y_max] {
                        w.f64(v);
                    }
                    w.i64(mbb.t_min.millis());
                    w.i64(mbb.t_max.millis());
                    encode_locator(w, loc);
                }
            }
        }
    }
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
        // representatives + cluster partitions), plus post-reorg insertions
        // into the entries and outlier lists they left.
        for i in 0..30 {
            tree.insert_trajectory(&traj(i, i as f64 * 5.0, 0, 3_500_000));
        }
        tree.insert_trajectory(&traj(100, 52.0, 0, 3_500_000));
        tree.insert_trajectory(&traj(101, 47.0, 3_600_000, 3_000_000));
        tree
    }

    fn encoded(tree: &ReTraTree) -> Vec<u8> {
        let mut w = ByteWriter::new();
        encode_tree(&mut w, tree);
        w.into_bytes()
    }

    fn encoded_v1(tree: &ReTraTree) -> Vec<u8> {
        let mut w = ByteWriter::new();
        encode_tree_v1(&mut w, tree);
        w.into_bytes()
    }

    /// Where the first chunk key sits in `encoded(tree)`: after the
    /// parameters, the six counters, the store and the chunk count.
    fn first_key_offset(tree: &ReTraTree) -> usize {
        let mut store = ByteWriter::new();
        tree.store.encode_into(&mut store);
        76 + 6 * 8 + store.len() + 4
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
        assert_eq!(buf.len(), 76);

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
    fn the_reserved_params_slot_is_written_as_256_and_read_as_anything() {
        let p = params();
        let mut w = ByteWriter::new();
        encode_params_into(&mut w, &p);
        let buf = w.into_bytes();
        // After the chunk length, the fan-out and the page threshold.
        let slot = 8 + 4 + 4..8 + 4 + 4 + 4;
        assert_eq!(buf[slot.clone()], 256u32.to_le_bytes());
        for held in [0, 64, u32::MAX] {
            let mut other = buf.clone();
            other[slot.clone()].copy_from_slice(&held.to_le_bytes());
            let mut r = ByteReader::new(&other);
            assert_eq!(decode_params_from(&mut r).unwrap(), p, "slot {held}");
            assert!(r.is_empty());
        }
    }

    #[test]
    fn tree_round_trip_preserves_structure_and_answers() {
        let tree = populated_tree();
        assert!(tree.stats().reorganizations >= 1, "fixture must reorganize");

        let buf = encoded(&tree);
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
                    assert_eq!(ea.representative_reads, eb.representative_reads);
                    assert_eq!(ea.members(), eb.members());
                    assert_eq!(ea.member_summaries(), eb.member_summaries());
                }
                let everything = TimeInterval::everything();
                assert_eq!(
                    sa.window_records(&everything),
                    sb.window_records(&everything)
                );
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
    fn a_v1_encoding_decodes_to_the_tree_it_was_written_from() {
        let tree = populated_tree();
        let v1 = encoded_v1(&tree);
        let v2 = encoded(&tree);
        assert!(v1.len() > v2.len(), "the fixture has entry lists to skip");
        let mut r = ByteReader::new(&v1);
        let back = decode_tree_v1(&mut r).unwrap();
        assert!(r.is_empty(), "{} bytes left over", r.remaining());
        // Written again it is the version-2 encoding of the original, byte
        // for byte, and it answers the same.
        assert_eq!(encoded(&back), v2);
        let w = TimeInterval::new(Timestamp(1_000_000), Timestamp(5_000_000));
        assert_eq!(
            back.window_sub_trajectories(&w),
            tree.window_sub_trajectories(&w)
        );
        // Neither reader takes the other's bytes.
        assert!(decode_tree(&mut ByteReader::new(&v1)).is_err());
        assert!(decode_tree_v1(&mut ByteReader::new(&v2)).is_err());
    }

    #[test]
    fn inverted_mbb_bounds_are_corrupt_not_a_panic() {
        // A version-1 entry list whose one box is inverted on an axis, or
        // NaN (comparisons are false), is corrupt; a sound one is skipped.
        let list = |x_min: f64, t_max: i64| {
            let mut w = ByteWriter::new();
            w.u32(1);
            for v in [x_min, 1.0, 0.0, 1.0] {
                w.f64(v);
            }
            w.i64(0);
            w.i64(t_max);
            encode_locator(
                &mut w,
                &RecordLocator {
                    partition: 0,
                    page: 0,
                    slot: 0,
                },
            );
            w.into_bytes()
        };
        let sound = list(0.0, 1);
        let mut r = ByteReader::new(&sound);
        assert!(skip_v1_entry_list(&mut r).is_ok());
        assert!(r.is_empty());
        for bad in [list(10.0, 1), list(f64::NAN, 1), list(0.0, -1)] {
            assert!(matches!(
                skip_v1_entry_list(&mut ByteReader::new(&bad)),
                Err(StorageError::Corrupt { .. })
            ));
        }

        // And inside a whole tree: invert the first box of the first list.
        let tree = populated_tree();
        let mut v1 = encoded_v1(&tree);
        let sc = &tree.chunks().next().unwrap().subchunks[0];
        let mut w = ByteWriter::new();
        encode_subchunk(&mut w, sc);
        let first_box = first_key_offset(&tree) + 8 + w.len() + 4;
        v1[first_box..first_box + 8].copy_from_slice(&f64::MAX.to_le_bytes());
        assert!(matches!(
            decode_tree_v1(&mut ByteReader::new(&v1)),
            Err(StorageError::Corrupt { .. })
        ));
    }

    #[test]
    fn a_chunk_key_off_the_grid_or_the_axis_is_corrupt() {
        let tree = populated_tree();
        let buf = encoded(&tree);
        let at = first_key_offset(&tree);
        let key = i64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
        assert_eq!(key, tree.chunks.keys().next().copied().unwrap());
        let chunk_len = tree.params().chunk_duration.millis();
        // Near the end of the axis: `key + chunk_len` would overflow. The
        // grid's last key as well, and one off the grid.
        let last = i64::MAX - i64::MAX.rem_euclid(chunk_len);
        for bad in [i64::MAX, last, key + 1, key - chunk_len / 2] {
            let mut mutated = buf.clone();
            mutated[at..at + 8].copy_from_slice(&bad.to_le_bytes());
            assert!(
                matches!(
                    decode_tree(&mut ByteReader::new(&mutated)),
                    Err(StorageError::Corrupt { .. })
                ),
                "key {bad}"
            );
        }
        // The grid's first key is a chunk like any other.
        let first = i64::MIN + (chunk_len - i64::MIN.rem_euclid(chunk_len)) % chunk_len;
        let mut mutated = buf.clone();
        mutated[at..at + 8].copy_from_slice(&first.to_le_bytes());
        let back = decode_tree(&mut ByteReader::new(&mutated)).unwrap();
        assert_eq!(back.chunks.keys().next(), Some(&first));
    }

    #[test]
    fn a_count_past_the_end_is_corrupt_before_it_allocates() {
        let tree = populated_tree();
        let buf = encoded(&tree);
        // The first sub-chunk's outlier count, then its entry count.
        let outliers = first_key_offset(&tree) + 8 + 8;
        let sc = &tree.chunks().next().unwrap().subchunks[0];
        let entries = outliers + 4 + sc.outliers().len() * LOCATOR_BYTES;
        for at in [outliers, entries] {
            let mut mutated = buf.clone();
            mutated[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(matches!(
                decode_tree(&mut ByteReader::new(&mutated)),
                Err(StorageError::Corrupt { .. })
            ));
        }
    }

    #[test]
    fn truncated_tree_bytes_are_corrupt_not_a_panic() {
        let tree = populated_tree();
        for (buf, decode) in [
            (
                encoded(&tree),
                decode_tree as fn(&mut ByteReader<'_>) -> Result<ReTraTree>,
            ),
            (encoded_v1(&tree), decode_tree_v1),
        ] {
            // A sweep over prefixes: every truncation fails cleanly.
            for cut in (0..buf.len()).step_by(97) {
                let mut r = ByteReader::new(&buf[..cut]);
                assert!(
                    decode(&mut r).is_err(),
                    "truncation to {cut} bytes must error"
                );
            }
        }
    }
}
