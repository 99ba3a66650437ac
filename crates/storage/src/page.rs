//! Fixed-size slotted pages.
//!
//! Pages mimic the PostgreSQL heap-page layout at the level of behaviour that
//! matters for the reproduction: a fixed 8 KiB size, a slot directory growing
//! from the front, record payloads growing from the back, and tombstoned
//! deletion. The buffer pool and partitions operate exclusively on pages, so
//! the benchmark harness can report logical page reads the same way the
//! paper's in-DBMS implementation would.

use crate::error::StorageError;
use crate::Result;

/// Page size in bytes (PostgreSQL's default block size).
pub const PAGE_SIZE: usize = 8192;

/// Per-slot directory entry size: offset (u16) + length (u16).
const SLOT_ENTRY: usize = 4;
/// Page header: slot count (u16) + free-space pointer (u16).
const HEADER: usize = 4;

/// Identifier of a page within a partition.
pub type PageId = u64;
/// Identifier of a slot within a page.
pub type SlotId = u16;

/// A fixed-size slotted data page.
#[derive(Debug, Clone)]
pub struct Page {
    data: Vec<u8>,
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Page {
    /// Creates an empty page.
    pub fn new() -> Self {
        let mut data = vec![0u8; PAGE_SIZE];
        // slot count = 0
        data[0..2].copy_from_slice(&0u16.to_le_bytes());
        // free space pointer = end of page
        data[2..4].copy_from_slice(&(PAGE_SIZE as u16).to_le_bytes());
        Page { data }
    }

    fn slot_count(&self) -> u16 {
        u16::from_le_bytes([self.data[0], self.data[1]])
    }

    fn set_slot_count(&mut self, n: u16) {
        self.data[0..2].copy_from_slice(&n.to_le_bytes());
    }

    fn free_ptr(&self) -> u16 {
        u16::from_le_bytes([self.data[2], self.data[3]])
    }

    fn set_free_ptr(&mut self, p: u16) {
        self.data[2..4].copy_from_slice(&p.to_le_bytes());
    }

    fn slot(&self, slot: SlotId) -> (u16, u16) {
        let base = HEADER + slot as usize * SLOT_ENTRY;
        let off = u16::from_le_bytes([self.data[base], self.data[base + 1]]);
        let len = u16::from_le_bytes([self.data[base + 2], self.data[base + 3]]);
        (off, len)
    }

    fn set_slot(&mut self, slot: SlotId, off: u16, len: u16) {
        let base = HEADER + slot as usize * SLOT_ENTRY;
        self.data[base..base + 2].copy_from_slice(&off.to_le_bytes());
        self.data[base + 2..base + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Number of live (non-deleted) records.
    pub fn live_records(&self) -> usize {
        (0..self.slot_count())
            .filter(|&s| self.slot(s).1 > 0)
            .count()
    }

    /// Free bytes remaining for one more record (accounting for its slot).
    pub fn free_space(&self) -> usize {
        let used_front = HEADER + self.slot_count() as usize * SLOT_ENTRY;
        let free_back = self.free_ptr() as usize;
        (free_back - used_front).saturating_sub(SLOT_ENTRY)
    }

    /// Largest record this (empty) page could ever hold.
    pub fn max_record_size() -> usize {
        PAGE_SIZE - HEADER - SLOT_ENTRY
    }

    /// Appends a record, returning its slot. Fails when the record would not
    /// fit in the remaining free space.
    pub fn insert(&mut self, record: &[u8]) -> Result<SlotId> {
        if record.len() > Self::max_record_size() {
            return Err(StorageError::RecordTooLarge {
                size: record.len(),
                max: Self::max_record_size(),
            });
        }
        if record.len() > self.free_space() {
            return Err(StorageError::RecordTooLarge {
                size: record.len(),
                max: self.free_space(),
            });
        }
        let slot = self.slot_count();
        let new_free = self.free_ptr() as usize - record.len();
        self.data[new_free..new_free + record.len()].copy_from_slice(record);
        self.set_free_ptr(new_free as u16);
        self.set_slot(slot, new_free as u16, record.len() as u16);
        self.set_slot_count(slot + 1);
        Ok(slot)
    }

    /// Lends the record stored in `slot`; `None` if the slot was deleted.
    ///
    /// A page does not know its own id: the `InvalidSlot` it reports says
    /// page 0, and the partition layer fills in the real one.
    pub fn get(&self, slot: SlotId) -> Result<Option<&[u8]>> {
        if slot >= self.slot_count() {
            return Err(StorageError::InvalidSlot { page: 0, slot });
        }
        let (off, len) = self.slot(slot);
        if len == 0 {
            return Ok(None);
        }
        Ok(Some(&self.data[off as usize..off as usize + len as usize]))
    }

    /// Tombstones the record in `slot` (space is not reclaimed in place, as in
    /// a heap page awaiting vacuum).
    pub fn delete(&mut self, slot: SlotId) -> Result<bool> {
        if slot >= self.slot_count() {
            return Err(StorageError::InvalidSlot { page: 0, slot });
        }
        let (off, len) = self.slot(slot);
        if len == 0 {
            return Ok(false);
        }
        self.set_slot(slot, off, 0);
        Ok(true)
    }

    /// The raw page image — exactly [`PAGE_SIZE`] bytes, written verbatim
    /// into snapshots so record locators survive a restart unchanged.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Rebuilds a page from a raw image produced by [`Page::as_bytes`],
    /// validating the structural invariants (size, slot directory and free
    /// pointer in bounds, every slot inside the payload area) so a corrupt
    /// snapshot cannot build a page whose accessors would slice out of
    /// bounds.
    pub fn from_bytes(bytes: &[u8]) -> Result<Page> {
        if bytes.len() != PAGE_SIZE {
            return Err(StorageError::Corrupt {
                reason: format!("page image is {} bytes, expected {PAGE_SIZE}", bytes.len()),
            });
        }
        let page = Page {
            data: bytes.to_vec(),
        };
        let slots = page.slot_count() as usize;
        let dir_end = HEADER + slots * SLOT_ENTRY;
        let free = page.free_ptr() as usize;
        if dir_end > free || free > PAGE_SIZE {
            return Err(StorageError::Corrupt {
                reason: format!(
                    "page directory ({slots} slots) overlaps the payload area (free pointer {free})"
                ),
            });
        }
        for s in 0..slots {
            let (off, len) = page.slot(s as SlotId);
            if len == 0 {
                continue; // tombstone
            }
            let (off, len) = (off as usize, len as usize);
            if off < free || off + len > PAGE_SIZE {
                return Err(StorageError::Corrupt {
                    reason: format!("slot {s} points outside the payload area ({off}+{len})"),
                });
            }
        }
        Ok(page)
    }

    /// Iterates over `(slot, bytes)` of live records, lending the bytes.
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &[u8])> + '_ {
        (0..self.slot_count()).filter_map(move |s| {
            let (off, len) = self.slot(s);
            (len != 0).then(|| (s, &self.data[off as usize..off as usize + len as usize]))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_round_trip() {
        let mut p = Page::new();
        let a = p.insert(b"hello").unwrap();
        let b = p.insert(b"world!").unwrap();
        assert_eq!(p.get(a).unwrap().unwrap(), b"hello");
        assert_eq!(p.get(b).unwrap().unwrap(), b"world!");
        assert_eq!(p.live_records(), 2);
    }

    #[test]
    fn delete_tombstones_without_moving_other_records() {
        let mut p = Page::new();
        let a = p.insert(b"aaa").unwrap();
        let b = p.insert(b"bbb").unwrap();
        assert!(p.delete(a).unwrap());
        assert!(!p.delete(a).unwrap(), "double delete reports false");
        assert_eq!(p.get(a).unwrap(), None);
        assert_eq!(p.get(b).unwrap().unwrap(), b"bbb");
        assert_eq!(p.live_records(), 1);
        assert_eq!(p.iter().count(), 1);
    }

    #[test]
    fn rejects_records_that_do_not_fit() {
        let mut p = Page::new();
        let big = vec![0u8; PAGE_SIZE];
        assert!(matches!(
            p.insert(&big),
            Err(StorageError::RecordTooLarge { .. })
        ));
        // Fill the page with 1 KiB records until it refuses.
        let rec = vec![7u8; 1024];
        let mut inserted = 0;
        while p.insert(&rec).is_ok() {
            inserted += 1;
        }
        assert!(
            inserted >= 7,
            "an 8 KiB page should hold at least 7 KiB of records"
        );
        assert!(p.free_space() < rec.len());
    }

    #[test]
    fn invalid_slot_is_an_error() {
        let p = Page::new();
        assert!(matches!(p.get(3), Err(StorageError::InvalidSlot { .. })));
        let mut p2 = Page::new();
        assert!(matches!(
            p2.delete(0),
            Err(StorageError::InvalidSlot { .. })
        ));
    }

    #[test]
    fn raw_image_round_trips_and_rejects_corruption() {
        let mut p = Page::new();
        let a = p.insert(b"alpha").unwrap();
        let b = p.insert(b"bravo!").unwrap();
        p.delete(a).unwrap();
        let image = p.as_bytes().to_vec();
        assert_eq!(image.len(), PAGE_SIZE);

        let back = Page::from_bytes(&image).unwrap();
        assert_eq!(back.get(a).unwrap(), None);
        assert_eq!(back.get(b).unwrap().unwrap(), b"bravo!");
        assert_eq!(back.live_records(), 1);

        assert!(matches!(
            Page::from_bytes(&image[..100]),
            Err(StorageError::Corrupt { .. })
        ));
        // A slot count implying a directory past the free pointer is corrupt.
        let mut bad = image.clone();
        bad[0..2].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(matches!(
            Page::from_bytes(&bad),
            Err(StorageError::Corrupt { .. })
        ));
        // A slot offset pointing outside the payload area is corrupt.
        let mut bad = image;
        bad[HEADER + SLOT_ENTRY..HEADER + SLOT_ENTRY + 2].copy_from_slice(&10u16.to_le_bytes());
        assert!(matches!(
            Page::from_bytes(&bad),
            Err(StorageError::Corrupt { .. })
        ));
    }

    #[test]
    fn free_space_decreases_monotonically() {
        let mut p = Page::new();
        let mut last = p.free_space();
        for i in 0..10 {
            p.insert(format!("record-{i}").as_bytes()).unwrap();
            let now = p.free_space();
            assert!(now < last);
            last = now;
        }
    }
}
