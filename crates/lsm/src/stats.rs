//! Engine-level statistics: everything the paper's evaluation measures.
//!
//! Compactions, flushes, ingested bytes and secondary-delete outcomes are
//! counted here; device-level activity (pages/bytes read and written, Bloom
//! probes) lives in [`lethe_storage::IoStats`]. Space amplification and write
//! amplification follow the definitions of §3.2.1 and §3.2.3:
//!
//! * `s_amp = (csize(N) − csize(U)) / csize(U)` — superfluous bytes relative
//!   to the bytes of unique (live, newest-version) entries.
//! * `w_amp = (csize(N⁺) − csize(N)) / csize(N)` — bytes written to the
//!   device beyond the bytes of new/modified data.

use crate::sstable::SecondaryDeleteStats;
use lethe_storage::Timestamp;

/// Counters maintained by the tree across its lifetime.
#[derive(Debug, Clone, Default)]
pub struct TreeStats {
    /// Number of memtable flushes performed.
    pub flushes: u64,
    /// Number of compactions performed (any kind).
    pub compactions: u64,
    /// Number of full-tree compactions performed.
    pub full_tree_compactions: u64,
    /// Compactions the policy picked because a file TTL expired (FADE's
    /// delete-driven trigger, flagged on the `CompactionTask`); a subset of
    /// `compactions`.
    pub ttl_triggered_compactions: u64,
    /// Total entries fed into compactions (a proxy for merge work).
    pub entries_compacted: u64,
    /// Total bytes of *new or modified* data ingested (puts + tombstones),
    /// the denominator of write amplification.
    pub bytes_ingested: u64,
    /// Total entries ingested (puts + tombstones).
    pub entries_ingested: u64,
    /// Point tombstones ingested.
    pub point_deletes_issued: u64,
    /// Range tombstones ingested.
    pub range_deletes_issued: u64,
    /// Point deletes skipped because the key could not exist (blind-delete
    /// suppression, §4.1.5).
    pub blind_deletes_suppressed: u64,
    /// Secondary range delete operations executed.
    pub secondary_range_deletes: u64,
    /// Tombstone-drop decisions suppressed because a live snapshot still
    /// pinned pre-delete history (see `lethe_lsm::snapshot`): each count is
    /// one planned job that would have persisted its tombstones but was
    /// forced to retain them. While this is non-zero and rising, FADE's
    /// `D_th` guarantee is deliberately suspended — the tombstones stay in
    /// their files with their ages intact, so the delete-persistence
    /// accounting (`ContentSnapshot::tombstone_file_ages`) keeps reporting
    /// them as unpersisted rather than claiming a delete completed while a
    /// snapshot could still read the deleted data.
    pub tombstone_gc_delayed: u64,
    /// Aggregate page-drop outcomes of all secondary range deletes.
    pub secondary_delete: SecondaryDeleteStats,
    /// Number of point lookups served.
    pub point_lookups: u64,
    /// Number of range lookups served.
    pub range_lookups: u64,
    /// Bytes of table data written by memtable flushes (the unavoidable
    /// first copy of every ingested byte).
    pub bytes_flushed: u64,
    /// Bytes of table data rewritten by compactions of any kind — the
    /// numerator of [`TreeStats::write_amp`] beyond the flush copy. Whole-file
    /// drops add nothing here: retiring a file writes no data.
    pub bytes_compacted: u64,
    /// Files retired by whole-file drops (a date-tiered TTL expiry retires a
    /// wholly-expired time window without reading a single page).
    pub whole_file_drops: u64,
}

impl TreeStats {
    /// Records a batch of ingested bytes/entries.
    pub fn record_ingest(&mut self, bytes: u64) {
        self.bytes_ingested += bytes;
        self.entries_ingested += 1;
    }

    /// Accumulates the counters of `other` into `self`; used by the sharded
    /// front-end to aggregate per-shard statistics into one combined view.
    pub fn absorb(&mut self, other: &TreeStats) {
        self.flushes += other.flushes;
        self.compactions += other.compactions;
        self.full_tree_compactions += other.full_tree_compactions;
        self.ttl_triggered_compactions += other.ttl_triggered_compactions;
        self.entries_compacted += other.entries_compacted;
        self.bytes_ingested += other.bytes_ingested;
        self.entries_ingested += other.entries_ingested;
        self.point_deletes_issued += other.point_deletes_issued;
        self.range_deletes_issued += other.range_deletes_issued;
        self.blind_deletes_suppressed += other.blind_deletes_suppressed;
        self.secondary_range_deletes += other.secondary_range_deletes;
        self.tombstone_gc_delayed += other.tombstone_gc_delayed;
        self.secondary_delete.merge(&other.secondary_delete);
        self.point_lookups += other.point_lookups;
        self.range_lookups += other.range_lookups;
        self.bytes_flushed += other.bytes_flushed;
        self.bytes_compacted += other.bytes_compacted;
        self.whole_file_drops += other.whole_file_drops;
    }

    /// Write amplification given the total bytes the device has absorbed.
    pub fn write_amplification(&self, device_bytes_written: u64) -> f64 {
        if self.bytes_ingested == 0 {
            return 0.0;
        }
        device_bytes_written.saturating_sub(self.bytes_ingested) as f64 / self.bytes_ingested as f64
    }

    /// Write amplification from the tree's own counters: table bytes written
    /// by flushes and compactions per byte of ingested data. Unlike
    /// [`TreeStats::write_amplification`] this needs no device snapshot, so
    /// it compares compaction strategies without WAL/manifest noise and
    /// absorbs cleanly across shards.
    pub fn write_amp(&self) -> f64 {
        if self.bytes_ingested == 0 {
            return 0.0;
        }
        (self.bytes_flushed + self.bytes_compacted) as f64 / self.bytes_ingested as f64
    }
}

/// A measurement-time snapshot of the tree contents (space amplification,
/// tombstone ages), produced by `LsmTree::snapshot_contents`.
#[derive(Debug, Clone, Default)]
pub struct ContentSnapshot {
    /// Cumulative encoded size of every entry in the tree (`csize(N)`).
    pub total_bytes: u64,
    /// Cumulative encoded size of the newest live version of every unique key
    /// (`csize(U)`).
    pub unique_bytes: u64,
    /// Total entries in the tree, including tombstones and stale versions.
    pub total_entries: u64,
    /// Unique live keys.
    pub unique_entries: u64,
    /// Tombstones (point + range) present anywhere in the tree.
    pub tombstones: u64,
    /// For every file that contains at least one tombstone: `(file age in
    /// logical µs, number of tombstones in it)`. This is the raw data behind
    /// Figure 6(E).
    pub tombstone_file_ages: Vec<(Timestamp, u64)>,
    /// Number of disk levels with data.
    pub populated_levels: usize,
    /// Total files on disk.
    pub files: usize,
    /// In-memory footprint of filters and fence pointers in bytes.
    pub metadata_bytes: u64,
}

impl ContentSnapshot {
    /// Accumulates `other` into `self`; used by the sharded front-end to
    /// combine per-shard snapshots. Additive counters are summed;
    /// `populated_levels` becomes the maximum across shards (the depth of the
    /// deepest shard tree).
    pub fn absorb(&mut self, other: &ContentSnapshot) {
        self.total_bytes += other.total_bytes;
        self.unique_bytes += other.unique_bytes;
        self.total_entries += other.total_entries;
        self.unique_entries += other.unique_entries;
        self.tombstones += other.tombstones;
        self.tombstone_file_ages.extend_from_slice(&other.tombstone_file_ages);
        self.populated_levels = self.populated_levels.max(other.populated_levels);
        self.files += other.files;
        self.metadata_bytes += other.metadata_bytes;
    }

    /// Space amplification `(csize(N) − csize(U)) / csize(U)` (§3.2.1).
    pub fn space_amplification(&self) -> f64 {
        if self.unique_bytes == 0 {
            return 0.0;
        }
        self.total_bytes.saturating_sub(self.unique_bytes) as f64 / self.unique_bytes as f64
    }

    /// Cumulative distribution of tombstone counts by file age: for each of
    /// the provided age thresholds (in µs), how many tombstones live in files
    /// of that age or younger.
    pub fn cumulative_tombstones_by_age(&self, thresholds: &[Timestamp]) -> Vec<(Timestamp, u64)> {
        thresholds
            .iter()
            .map(|&th| {
                let count = self
                    .tombstone_file_ages
                    .iter()
                    .filter(|(age, _)| *age <= th)
                    .map(|(_, n)| n)
                    .sum();
                (th, count)
            })
            .collect()
    }

    /// The age of the oldest file that still contains a tombstone, if any.
    pub fn oldest_tombstone_file_age(&self) -> Option<Timestamp> {
        self.tombstone_file_ages.iter().map(|(age, _)| *age).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_amplification_definition() {
        let mut s = TreeStats::default();
        assert_eq!(s.write_amplification(1000), 0.0);
        s.record_ingest(1000);
        // 5000 bytes hit the device for 1000 bytes of new data → wamp 4
        assert!((s.write_amplification(5000) - 4.0).abs() < 1e-9);
        // device wrote less than ingested (still buffered) → 0, not negative
        assert_eq!(s.write_amplification(500), 0.0);
        assert_eq!(s.entries_ingested, 1);
    }

    #[test]
    fn counter_based_write_amp() {
        let mut s = TreeStats::default();
        assert_eq!(s.write_amp(), 0.0);
        s.record_ingest(1000);
        s.bytes_flushed = 1000;
        s.bytes_compacted = 3000;
        assert!((s.write_amp() - 4.0).abs() < 1e-9);
        let mut other = TreeStats::default();
        other.record_ingest(1000);
        other.bytes_flushed = 1000;
        other.whole_file_drops = 2;
        s.absorb(&other);
        assert_eq!(s.bytes_flushed, 2000);
        assert_eq!(s.bytes_compacted, 3000);
        assert_eq!(s.whole_file_drops, 2);
        assert!((s.write_amp() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn space_amplification_definition() {
        let snap = ContentSnapshot {
            total_bytes: 1500,
            unique_bytes: 1000,
            ..Default::default()
        };
        assert!((snap.space_amplification() - 0.5).abs() < 1e-9);
        let empty = ContentSnapshot::default();
        assert_eq!(empty.space_amplification(), 0.0);
    }

    #[test]
    fn cumulative_tombstone_age_distribution() {
        let snap = ContentSnapshot {
            tombstone_file_ages: vec![(100, 5), (500, 10), (900, 20)],
            ..Default::default()
        };
        let cdf = snap.cumulative_tombstones_by_age(&[50, 100, 600, 1000]);
        assert_eq!(cdf, vec![(50, 0), (100, 5), (600, 15), (1000, 35)]);
        assert_eq!(snap.oldest_tombstone_file_age(), Some(900));
        assert_eq!(ContentSnapshot::default().oldest_tombstone_file_age(), None);
    }
}
