//! The in-memory write buffer (Level 0).
//!
//! Inserts, updates and deletes are buffered here. Following the paper's
//! semantics (§2 "Buffering Inserts and Updates"): a delete or update to a
//! key that is still in the buffer replaces the older buffered entry
//! *in place*; otherwise the tombstone/new version is retained to invalidate
//! any older on-disk instances once flushed. Range tombstones are kept in a
//! separate list (they cover intervals, not single keys), mirroring the
//! separate range-tombstone block of real engines.

use crate::clock::Timestamp;
use crate::entry::{DeleteKey, Entry, EntryKind, SeqNum, SortKey};
use bytes::Bytes;
use std::collections::BTreeMap;

/// The mutable, sorted in-memory buffer.
#[derive(Debug, Default, Clone)]
pub struct MemTable {
    /// Point entries (puts and point tombstones), one per sort key — newer
    /// writes replace older buffered ones in place.
    entries: BTreeMap<SortKey, Entry>,
    /// Buffered range tombstones, in insertion order.
    range_tombstones: Vec<Entry>,
    /// Approximate buffered data size in bytes.
    size_bytes: usize,
    /// Insertion time of the oldest buffered tombstone (point or range); a
    /// purge never removes tombstones, so only a drain clears it.
    oldest_tombstone_ts: Option<Timestamp>,
}

impl MemTable {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffers a put of `(sort_key, delete_key, value)`.
    pub fn put(&mut self, sort_key: SortKey, delete_key: DeleteKey, seqnum: SeqNum, value: Bytes) {
        self.insert_point(Entry::put(sort_key, delete_key, seqnum, value));
    }

    /// Buffers a point tombstone for `sort_key`, issued at time `ts`.
    pub fn delete(&mut self, sort_key: SortKey, seqnum: SeqNum, ts: Timestamp) {
        self.oldest_tombstone_ts.get_or_insert(ts);
        self.insert_point(Entry::point_tombstone(sort_key, seqnum));
    }

    /// Buffers a range tombstone covering sort keys `[start, end)`, issued
    /// at time `ts`.
    pub fn delete_range(&mut self, start: SortKey, end: SortKey, seqnum: SeqNum, ts: Timestamp) {
        self.oldest_tombstone_ts.get_or_insert(ts);
        let t = Entry::range_tombstone(start, end, seqnum);
        self.size_bytes += t.encoded_size();
        self.range_tombstones.push(t);
    }

    fn insert_point(&mut self, entry: Entry) {
        debug_assert!(!entry.is_range_tombstone());
        self.size_bytes += entry.encoded_size();
        if let Some(old) = self.entries.insert(entry.sort_key, entry) {
            // replaced in place: the old version no longer occupies space
            self.size_bytes = self.size_bytes.saturating_sub(old.encoded_size());
        }
    }

    /// Looks up the most recent buffered state of `sort_key`, taking buffered
    /// range tombstones into account. Returns `None` if the key was never
    /// buffered; returns a tombstone entry if the buffered state is a delete.
    pub fn get(&self, sort_key: SortKey) -> Option<Entry> {
        let point = self.entries.get(&sort_key).cloned();
        let covering_rt = self
            .range_tombstones
            .iter()
            .filter(|t| t.covers(sort_key))
            .max_by_key(|t| t.seqnum);
        Entry::resolve_point_read(sort_key, point, covering_rt)
    }

    /// Returns buffered point entries whose sort key lies in `[lo, hi)`
    /// (range tombstones are not expanded here; callers merge them).
    pub fn range(&self, lo: SortKey, hi: SortKey) -> Vec<Entry> {
        self.entries.range(lo..hi).map(|(_, e)| e.clone()).collect()
    }

    /// Buffered range tombstones.
    pub fn range_tombstones(&self) -> &[Entry] {
        &self.range_tombstones
    }

    /// Approximate buffered size in bytes (used to decide when to flush).
    pub fn size_bytes(&self) -> usize {
        self.size_bytes
    }

    /// Number of buffered point entries (puts + point tombstones).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing (not even a range tombstone) is buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.range_tombstones.is_empty()
    }

    /// Insertion time of the oldest buffered tombstone, for FADE's age
    /// accounting of the file this buffer flushes into.
    pub fn oldest_tombstone_ts(&self) -> Option<Timestamp> {
        self.oldest_tombstone_ts
    }

    /// Number of buffered tombstones (point + range).
    pub fn tombstone_count(&self) -> usize {
        self.entries.values().filter(|e| e.is_tombstone()).count() + self.range_tombstones.len()
    }

    /// Drains the buffer into a sorted run: point entries sorted on the sort
    /// key followed by the range tombstones (returned separately). The buffer
    /// is left empty.
    pub fn drain_sorted(&mut self) -> (Vec<Entry>, Vec<Entry>) {
        let entries: Vec<Entry> = std::mem::take(&mut self.entries).into_values().collect();
        let rts = std::mem::take(&mut self.range_tombstones);
        self.size_bytes = 0;
        self.oldest_tombstone_ts = None;
        (entries, rts)
    }

    /// Iterates over buffered point entries in sort-key order.
    pub fn iter(&self) -> impl Iterator<Item = &Entry> {
        self.entries.values()
    }

    /// Returns `true` if the buffered state of `sort_key` is a live put
    /// (useful for blind-delete avoidance before consulting filters).
    pub fn contains_live(&self, sort_key: SortKey) -> bool {
        matches!(self.get(sort_key), Some(e) if e.kind == EntryKind::Put)
    }

    /// Removes every buffered put whose **delete key** lies in `[lo, hi)`
    /// (the in-memory portion of a secondary range delete). Tombstones are
    /// never removed. Returns the number of entries purged.
    pub fn purge_by_delete_key(&mut self, lo: DeleteKey, hi: DeleteKey) -> usize {
        let victims: Vec<SortKey> = self
            .entries
            .iter()
            .filter(|(_, e)| !e.is_tombstone() && e.delete_key >= lo && e.delete_key < hi)
            .map(|(&k, _)| k)
            .collect();
        for k in &victims {
            if let Some(old) = self.entries.remove(k) {
                self.size_bytes = self.size_bytes.saturating_sub(old.encoded_size());
            }
        }
        victims.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_then_get() {
        let mut m = MemTable::new();
        m.put(1, 10, 1, Bytes::from_static(b"a"));
        m.put(2, 20, 2, Bytes::from_static(b"b"));
        assert_eq!(m.get(1).unwrap().value, Bytes::from_static(b"a"));
        assert_eq!(m.get(2).unwrap().delete_key, 20);
        assert!(m.get(3).is_none());
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
    }

    #[test]
    fn update_replaces_in_place_and_tracks_size() {
        let mut m = MemTable::new();
        m.put(1, 0, 1, Bytes::from(vec![0u8; 100]));
        let s1 = m.size_bytes();
        m.put(1, 0, 2, Bytes::from(vec![0u8; 10]));
        let s2 = m.size_bytes();
        assert_eq!(m.len(), 1);
        assert!(s2 < s1, "smaller value should shrink the buffer: {s2} vs {s1}");
        assert_eq!(m.get(1).unwrap().seqnum, 2);
    }

    #[test]
    fn delete_replaces_buffered_put_in_place() {
        let mut m = MemTable::new();
        m.put(7, 0, 1, Bytes::from_static(b"v"));
        m.delete(7, 2, 0);
        assert_eq!(m.len(), 1);
        let e = m.get(7).unwrap();
        assert!(e.is_point_tombstone());
        assert!(!m.contains_live(7));
    }

    #[test]
    fn range_tombstone_shadows_older_puts_only() {
        let mut m = MemTable::new();
        m.put(5, 0, 1, Bytes::from_static(b"old"));
        m.delete_range(0, 10, 2, 0);
        m.put(6, 0, 3, Bytes::from_static(b"new"));
        // key 5: covered by the newer range tombstone
        assert!(m.get(5).unwrap().is_tombstone());
        // key 6: written after the range tombstone, still live
        assert_eq!(m.get(6).unwrap().value, Bytes::from_static(b"new"));
        // key 9: never written, but covered → reported as tombstone
        assert!(m.get(9).unwrap().is_tombstone());
        // key 20: outside the range and never written
        assert!(m.get(20).is_none());
        assert_eq!(m.tombstone_count(), 1);
    }

    #[test]
    fn range_query_returns_sorted_points() {
        let mut m = MemTable::new();
        for k in [5u64, 1, 9, 3] {
            m.put(k, 0, k, Bytes::from_static(b"x"));
        }
        let r = m.range(2, 9);
        let keys: Vec<u64> = r.iter().map(|e| e.sort_key).collect();
        assert_eq!(keys, vec![3, 5]);
    }

    #[test]
    fn purge_by_delete_key_removes_only_qualifying_puts() {
        let mut m = MemTable::new();
        m.put(1, 10, 1, Bytes::from_static(b"a"));
        m.put(2, 50, 2, Bytes::from_static(b"b"));
        m.put(3, 90, 3, Bytes::from_static(b"c"));
        m.delete(4, 4, 0);
        let purged = m.purge_by_delete_key(40, 100);
        assert_eq!(purged, 2);
        assert!(m.get(1).is_some());
        assert!(m.get(2).is_none());
        assert!(m.get(3).is_none());
        // the tombstone survives even though its delete key (0) is arbitrary
        assert!(m.get(4).unwrap().is_tombstone());
        assert_eq!(m.purge_by_delete_key(0, 5), 0);
    }

    #[test]
    fn drain_empties_buffer_and_sorts() {
        let mut m = MemTable::new();
        m.put(3, 0, 1, Bytes::from_static(b"c"));
        m.put(1, 0, 2, Bytes::from_static(b"a"));
        m.delete_range(10, 20, 3, 0);
        let (pts, rts) = m.drain_sorted();
        assert_eq!(pts.iter().map(|e| e.sort_key).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(rts.len(), 1);
        assert!(m.is_empty());
        assert_eq!(m.size_bytes(), 0);
    }
}
