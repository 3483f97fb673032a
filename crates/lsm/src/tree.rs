//! The LSM tree engine.
//!
//! [`LsmTree`] wires together the memtable, the leveled/tiered on-device
//! structure, a pluggable [`CompactionPolicy`]
//! and the KiWi file layout into a complete storage engine: puts, point and
//! range deletes on the sort key, secondary range deletes on the delete key,
//! point lookups, range scans, flushing and compaction.
//!
//! The same type serves as the state-of-the-art baseline (saturation-driven
//! policies, `h = 1`, full-tree compaction for secondary deletes) and as the
//! substrate that the `lethe-core` crate configures into Lethe (FADE policy,
//! `h > 1`, KiWi page drops).
//!
//! ## Concurrency model
//!
//! The tree is split into a *write surface* (`&mut self`: puts, deletes,
//! flushes, compactions — serialised by the owner, e.g. a shard mutex) and a
//! *read surface* that is lock-free with respect to the writer: disk levels
//! live in an immutable, `Arc`-shared [`VersionSet`] and the write buffer in
//! shared `active`/`frozen` memtables, so [`TreeReader`] handles obtained
//! from [`LsmTree::reader`] serve `get`/`range`/secondary scans from any
//! thread while flushes and compactions run. A point-in-time snapshot
//! ([`LsmTree::capture_snapshot`]) is the same [`TreeReader`] type over a
//! private copy of the buffers and a version set holding one pinned
//! version, so live and snapshot reads run one implementation. Structural
//! work is further split into **plan → execute → apply** phases
//! ([`LsmTree::plan_job`], [`JobPlan::execute`], [`LsmTree::apply_job`]):
//! planning and applying need the write lock but are cheap pointer work,
//! while the expensive execute phase (page reads, merging, building output
//! files) runs against pinned immutable state and needs no lock at all. A
//! background worker (see `lethe-core`) drives exactly this cycle; the
//! inline `flush`/`maintain` paths drive the same cycle synchronously.
//!
//! Every flush, compaction and whole-file drop is one [`JobPlan`] shape:
//! pinned *victims* (newest first) and a *placement* for the merged output
//! (run 0 of a level, a new run at an index of a level, or none for a
//! drop). The planners only choose those two; one `execute` merges the
//! victims (behind the frozen buffer, for a flush), and one `apply_job`
//! removes the victims, places the output and commits. Apply refuses a plan
//! that any version install since planning, or a change of the frozen slot,
//! has made stale.

use crate::compaction::{CompactionPolicy, CompactionTask, TreeView};
use crate::config::{LsmConfig, MergePolicy, SecondaryDeleteMode};
use crate::cursor::{
    probe, EntryCursor, MergeIterator, SharedSliceCursor, SsTableCursor, VecCursor,
};
use crate::level::{Level, Run};
use crate::merge::merge_entries;
use crate::snapshot::SnapshotTracker;
use crate::sstable::{SecondaryDeleteStats, SsTable};
use crate::stats::{ContentSnapshot, TreeStats};
use crate::version::{Version, VersionSet};
use bytes::Bytes;
use crate::batch::WriteBatch;
use lethe_storage::{
    BatchOp, DeleteKey, Entry, EntryKind, FailPoint, Histogram, IoSnapshot, LogicalClock,
    Manifest, ManifestState, MemTable, PageId, Result, SeqNum, SortKey, StorageBackend,
    StorageError, Timestamp, Wal, WalRecord,
};
use lethe_sync::{LockRank, RwLock};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Safety bound on back-to-back compactions triggered by a single flush.
const MAX_MAINTENANCE_ROUNDS: usize = 10_000;

/// What [`LsmTree::recover`] found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Files rebuilt from the manifest (Bloom filters and fence pointers
    /// re-derived from their pages).
    pub files_recovered: usize,
    /// Device pages released because the durable manifest state did not
    /// reference them (half-written flush output, pages dropped after the
    /// last committed edit).
    pub pages_released: usize,
    /// WAL records replayed on top of the recovered tree.
    pub wal_records_replayed: usize,
}

/// Who runs flushes and compactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaintenanceMode {
    /// The classic single-threaded behaviour: a put that fills the buffer
    /// flushes and runs the compaction loop inline before returning.
    #[default]
    Inline,
    /// A filled buffer is only *frozen*; a background worker owned by the
    /// embedding layer drains it through [`LsmTree::plan_job`] /
    /// [`JobPlan::execute`] / [`LsmTree::apply_job`], and the writer applies
    /// backpressure via [`LsmTree::write_stalled`].
    Background,
}

/// Lock-free read-side operation counters (the read surface has no `&mut`
/// access to [`TreeStats`]); folded into [`LsmTree::stats`] on demand.
#[derive(Debug, Default)]
struct ReadCounters {
    point_lookups: AtomicU64,
    range_lookups: AtomicU64,
}

/// An immutable snapshot of a drained write buffer, awaiting its flush.
///
/// Readers consult it between the moment the active memtable is frozen and
/// the moment the flushed version is installed, so no acknowledged write is
/// ever invisible.
#[derive(Debug, Clone)]
struct FrozenBuffer {
    /// Point entries, sorted on the sort key, one (newest) version per key.
    entries: Vec<Entry>,
    /// Range tombstones in insertion order.
    range_tombstones: Vec<Entry>,
    /// Insertion time of the oldest tombstone in the buffer.
    oldest_tombstone_ts: Option<Timestamp>,
    /// WAL position at freeze time: the flush that persists this buffer may
    /// discard exactly the first `wal_upto` records, keeping records that
    /// were appended concurrently with the background flush.
    wal_upto: u64,
}

impl FrozenBuffer {
    fn get(&self, sort_key: SortKey) -> Option<Entry> {
        let point = self
            .entries
            .binary_search_by(|e| e.sort_key.cmp(&sort_key))
            .ok()
            .map(|i| self.entries[i].clone());
        let covering_rt = self
            .range_tombstones
            .iter()
            .filter(|t| t.covers(sort_key))
            .max_by_key(|t| t.seqnum);
        Entry::resolve_point_read(sort_key, point, covering_rt)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn purge_by_delete_key(&mut self, lo: DeleteKey, hi: DeleteKey) -> usize {
        let before = self.entries.len();
        self.entries
            .retain(|e| e.is_tombstone() || e.delete_key < lo || e.delete_key >= hi);
        before - self.entries.len()
    }
}

/// Adapter exposing a pinned frozen buffer's point entries as a sorted
/// slice, so a scan streams them through a [`SharedSliceCursor`] instead of
/// copying the buffer.
#[derive(Clone)]
struct FrozenEntries(Arc<FrozenBuffer>);

impl AsRef<[Entry]> for FrozenEntries {
    fn as_ref(&self) -> &[Entry] {
        &self.0.entries
    }
}

/// The write-buffer state a reader sees: the active memtable plus at most
/// one frozen buffer being flushed. In a live tree writers mutate `active`
/// under its write lock, and readers take brief read locks in the order the
/// data moves (active → frozen → version set), so an entry is always
/// visible in at least one of the three places. A captured snapshot owns a
/// private copy that nothing writes to.
#[derive(Debug)]
struct MemState {
    active: RwLock<MemTable>,
    /// `Arc` so the flush plan pins the buffer with a pointer clone instead
    /// of copying it under the shard lock; the rare in-place mutation
    /// (secondary-delete purge, which runs with the worker paused) goes
    /// through [`Arc::make_mut`], leaving pinned clones untouched.
    frozen: RwLock<Option<Arc<FrozenBuffer>>>,
}

impl MemState {
    fn new(active: MemTable, frozen: Option<Arc<FrozenBuffer>>) -> Self {
        MemState {
            active: RwLock::new(LockRank::MemtableActive, active),
            frozen: RwLock::new(LockRank::MemtableFrozen, frozen),
        }
    }
}

/// A cheap-to-clone, `Send + Sync` handle serving snapshot-isolated reads
/// without the tree's write lock.
///
/// A *live* reader, from [`LsmTree::reader`], shares the tree's buffers and
/// version set. Every operation pins the current [`Version`] (one `Arc`
/// clone) and reads the shared memtables under brief read locks, so a
/// reader is never blocked by a running flush or compaction, and never
/// observes a half-committed version: version installation is a single
/// pointer swap, and the pages of a pinned version are not reclaimed until
/// the pin is dropped.
///
/// Consistency: point lookups are linearizable with respect to the writer
/// (a write is visible the moment it is acknowledged). Multi-key operations
/// (`range`, `secondary_range_scan`) read the buffer and the version at
/// slightly different instants and are therefore *weakly* consistent with
/// concurrent writers — exactly the contract the sharded front-end already
/// documents for fan-out reads.
///
/// A *captured* reader, from [`LsmTree::capture_snapshot`], runs the same
/// code over private buffers and a version set holding one pinned version.
/// Nothing writes to either, so it answers every read as of capture time.
#[derive(Clone)]
pub struct TreeReader {
    config: LsmConfig,
    backend: Arc<dyn StorageBackend>,
    mem: Arc<MemState>,
    versions: Arc<VersionSet>,
    counters: Arc<ReadCounters>,
}

impl TreeReader {
    /// Point lookup: returns the current value of `sort_key`, or `None` if
    /// the key does not exist or has been deleted.
    pub fn get(&self, sort_key: SortKey) -> Result<Option<Bytes>> {
        self.counters.point_lookups.fetch_add(1, Ordering::Relaxed);
        Ok(match self.get_entry(sort_key)? {
            Some(e) if e.kind == EntryKind::Put => Some(e.value),
            _ => None,
        })
    }

    /// Newest version (possibly a tombstone) of `sort_key`, or `None`.
    fn get_entry(&self, sort_key: SortKey) -> Result<Option<Entry>> {
        match self.buffered_entry(sort_key) {
            Some(e) => Ok(Some(e)),
            None => self.disk_entry(&self.versions.current(), sort_key),
        }
    }

    /// Newest buffered version of `sort_key`: active buffer, then frozen.
    fn buffered_entry(&self, sort_key: SortKey) -> Option<Entry> {
        if let Some(e) = self.mem.active.read().get(sort_key) {
            return Some(e);
        }
        self.mem.frozen.read().as_ref().and_then(|f| f.get(sort_key))
    }

    /// Newest on-device version of `sort_key` within a pinned version.
    fn disk_entry(&self, version: &Version, sort_key: SortKey) -> Result<Option<Entry>> {
        let backend = self.backend.as_ref();
        let stats = backend.stats();
        for level in &version.levels {
            for run in &level.runs {
                // a key normally maps to one file, but range tombstones can
                // stretch a file's range over its neighbours
                let mut candidate: Option<Entry> = None;
                for table in run.tables() {
                    if !table.key_in_range(sort_key) {
                        continue;
                    }
                    if let Some(e) = table.get(sort_key, backend, &stats)? {
                        candidate = match candidate {
                            Some(c) if c.seqnum >= e.seqnum => Some(c),
                            _ => Some(e),
                        };
                    }
                }
                if candidate.is_some() {
                    return Ok(candidate);
                }
            }
        }
        Ok(None)
    }

    /// Builds the k-way merge a sort-key scan runs on: one cursor per source
    /// (active snapshot, pinned frozen buffer, fence-pruned lazy file
    /// cursors of the pinned version), newest source first, plus every
    /// source's range tombstones for the shadowing window.
    /// `drop_tombstones` selects between the user-facing view (resolved,
    /// tombstones consumed) and the checkpoint stream (full entries,
    /// tombstones retained). The returned version pin must be held for as
    /// long as the merge is consumed.
    fn build_merge(
        &self,
        lo: SortKey,
        hi: SortKey,
        drop_tombstones: bool,
    ) -> Result<(MergeIterator, Arc<Version>)> {
        let mut cursors: Vec<Box<dyn EntryCursor>> = Vec::new();
        let mut rts: Vec<Entry> = Vec::new();
        {
            // the active memtable is mutable, so its in-range slice is the
            // one source a streaming scan snapshots eagerly (bounded by the
            // buffer capacity, not by the scan length)
            let active = self.mem.active.read();
            cursors.push(Box::new(VecCursor::from_sorted(active.range(lo, hi))));
            rts.extend(active.range_tombstones().iter().cloned());
        }
        if let Some(f) = self.mem.frozen.read().as_ref() {
            let start = f.entries.partition_point(|e| e.sort_key < lo);
            let end = f.entries.partition_point(|e| e.sort_key < hi);
            rts.extend(f.range_tombstones.iter().cloned());
            cursors.push(Box::new(SharedSliceCursor::new(
                FrozenEntries(Arc::clone(f)),
                start,
                end,
            )));
        }
        let version = self.versions.current();
        for table in version.overlapping_tables(lo, hi) {
            rts.extend(table.range_tombstones.iter().cloned());
            cursors.push(Box::new(SsTableCursor::new(
                table,
                Arc::clone(&self.backend),
                lo,
                hi,
                false,
            )));
        }
        Ok((MergeIterator::new(cursors, rts, drop_tombstones)?, version))
    }

    /// Range lookup on the sort key: returns the live `(key, value)` pairs in
    /// `[lo, hi)`, newest version per key, in key order: the collected
    /// [`TreeReader::iter_range`] stream. Callers that do not need the whole
    /// result at once should use the iterator directly.
    pub fn range(&self, lo: SortKey, hi: SortKey) -> Result<Vec<(SortKey, Bytes)>> {
        self.iter_range(lo, hi)?.collect()
    }

    /// Streaming range scan over `[lo, hi)`: yields the live `(key, value)`
    /// pairs in key order, newest version per key, decoding file pages
    /// lazily one delete tile at a time as the iterator is advanced — a long
    /// scan that stops early never reads the tail, and no scan materialises
    /// the tables it crosses.
    ///
    /// The iterator owns a stable snapshot taken at creation: the current
    /// version is pinned (its pages cannot be reclaimed by concurrent
    /// flushes, compactions or secondary deletes until the iterator is
    /// dropped) and the write buffer's in-range slice is captured, so the
    /// stream is unaffected by concurrent writes and maintenance.
    pub fn iter_range(&self, lo: SortKey, hi: SortKey) -> Result<RangeIter> {
        self.counters.range_lookups.fetch_add(1, Ordering::Relaxed);
        if hi <= lo {
            return Ok(RangeIter { merge: None, _pin: None });
        }
        let (merge, pin) = self.build_merge(lo, hi, true)?;
        Ok(RangeIter { merge: Some(merge), _pin: Some(pin) })
    }

    /// The checkpoint source stream: every entry in sort-key order, newest
    /// version per key, **retaining tombstones** and their delete keys and
    /// seqnums, so a store rebuilt from a captured reader's stream is
    /// byte-identical to its view (including not resurrecting deleted
    /// history a restore-side compaction has yet to persist). The file
    /// cursors own their tables, which keeps the pages they still have to
    /// read from being reclaimed.
    pub fn entry_merge(&self) -> Result<MergeIterator> {
        Ok(self.build_merge(SortKey::MIN, SortKey::MAX, false)?.0)
    }

    /// Every range tombstone visible to this reader, from all sources
    /// (checkpoints persist them alongside the point entries).
    pub fn all_range_tombstones(&self) -> Vec<Entry> {
        let mut rts: Vec<Entry> = self.mem.active.read().range_tombstones().to_vec();
        if let Some(f) = self.mem.frozen.read().as_ref() {
            rts.extend(f.range_tombstones.iter().cloned());
        }
        for table in self.versions.current().levels.iter().flat_map(Level::all_tables) {
            rts.extend(table.range_tombstones.iter().cloned());
        }
        rts.sort_by(|a, b| a.sort_key.cmp(&b.sort_key).then(a.seqnum.cmp(&b.seqnum)));
        rts.dedup_by(|a, b| a.sort_key == b.sort_key && a.seqnum == b.seqnum);
        rts
    }

    /// Insertion time of the oldest tombstone visible to this reader, for
    /// the FADE age accounting of files a checkpoint builds from it.
    pub fn oldest_tombstone_ts(&self) -> Option<Timestamp> {
        let mut oldest = self.mem.active.read().oldest_tombstone_ts();
        if let Some(f) = self.mem.frozen.read().as_ref() {
            oldest = min_opt(oldest, f.oldest_tombstone_ts);
        }
        for table in self.versions.current().levels.iter().flat_map(Level::all_tables) {
            oldest = min_opt(oldest, table.meta.oldest_tombstone_ts);
        }
        oldest
    }

    /// Secondary range lookup: returns every live entry whose **delete key**
    /// lies in `[d_lo, d_hi)`.
    pub fn secondary_range_scan(&self, d_lo: DeleteKey, d_hi: DeleteKey) -> Result<Vec<Entry>> {
        self.counters.range_lookups.fetch_add(1, Ordering::Relaxed);
        if d_hi <= d_lo {
            return Ok(Vec::new());
        }
        let qualifies =
            |e: &Entry| !e.is_tombstone() && e.delete_key >= d_lo && e.delete_key < d_hi;
        let mut hits: Vec<Entry> = self.mem.active.read().iter().filter(|e| qualifies(e)).cloned().collect();
        if let Some(f) = self.mem.frozen.read().as_ref() {
            hits.extend(f.entries.iter().filter(|e| qualifies(e)).cloned());
        }
        // the install counter is read BEFORE the version is pinned: an
        // install racing these two reads then shows up as a counter
        // mismatch in `verify_newest` (counter already advanced past the
        // captured generation), forcing the fresh re-pin. Read the other
        // way around, a racing install could be counted into `generation`
        // while the pin still holds the pre-install version, and the
        // short-circuit would validate candidates against a stale snapshot.
        let generation = self.versions.installs();
        let version = self.versions.current();
        for table in version.levels.iter().flat_map(Level::all_tables) {
            // KiWi fence pruning at file granularity: a file whose
            // delete-key bounds cannot intersect the scanned range holds no
            // qualifying page, so none of its delete fences (let alone
            // pages) need to be consulted
            let meta = &table.meta;
            if meta.num_entries == 0 || meta.max_delete < d_lo || meta.min_delete >= d_hi {
                continue;
            }
            hits.extend(table.secondary_range_scan(d_lo, d_hi, self.backend.as_ref())?);
        }
        // keep only the globally newest version of each key, and only if that
        // version is live and still qualifies
        hits.sort_by(|a, b| a.sort_key.cmp(&b.sort_key).then_with(|| b.seqnum.cmp(&a.seqnum)));
        let mut out: Vec<Entry> = Vec::with_capacity(hits.len());
        for e in hits {
            if out.last().map(|p: &Entry| p.sort_key) == Some(e.sort_key) {
                continue;
            }
            // verify this is the newest version tree-wide (it may have been
            // updated or deleted by a newer entry outside the delete-key
            // range)
            if let Some(newest) = self.verify_newest(&version, generation, e.sort_key)? {
                if newest.seqnum == e.seqnum && newest.kind == EntryKind::Put {
                    out.push(e);
                }
            }
        }
        Ok(out)
    }

    /// The newest tree-wide version of `sort_key`, for re-validating a scan
    /// candidate collected against `pinned` (taken when the version set's
    /// install counter read `generation`).
    ///
    /// The buffered sources are always consulted live (they mutate without
    /// version installs). For the disk portion the collection-time pin is
    /// reused when no version has been installed since — skipping the
    /// per-candidate re-pin (version lock + `Arc` bump) the seed paid on
    /// every key — and only a mismatch falls back to a fresh pin. A captured
    /// reader's version set never installs, so it always takes the pin.
    ///
    /// Safety of the short-circuit against a concurrent flush: `apply_job`
    /// installs the new version *before* clearing the frozen slot, and the
    /// frozen slot's lock synchronises this thread with the worker. So if an
    /// entry has left the buffers by the time they are read here, the
    /// covering install has already happened, the counter check below
    /// observes it, and the fresh re-pin finds the entry at its new home. An
    /// acknowledged write can therefore never be missed by both probes.
    fn verify_newest(
        &self,
        pinned: &Arc<Version>,
        generation: u64,
        sort_key: SortKey,
    ) -> Result<Option<Entry>> {
        if let Some(e) = self.buffered_entry(sort_key) {
            return Ok(Some(e));
        }
        if self.versions.installs() == generation {
            self.disk_entry(pinned, sort_key)
        } else {
            let fresh = self.versions.current();
            self.disk_entry(&fresh, sort_key)
        }
    }

    /// Returns `true` if `sort_key` may exist in the tree (memtable check
    /// plus Bloom probes; no page reads). Used for blind-delete suppression.
    pub fn key_may_exist(&self, sort_key: SortKey) -> Result<bool> {
        if self.mem.active.read().get(sort_key).is_some() {
            return Ok(true);
        }
        if let Some(f) = self.mem.frozen.read().as_ref() {
            if f.get(sort_key).is_some() || !f.range_tombstones.is_empty() {
                return Ok(true);
            }
        }
        let stats = self.backend.stats();
        let version = self.versions.current();
        for level in &version.levels {
            for run in &level.runs {
                for table in run.tables() {
                    if !table.key_in_range(sort_key) {
                        continue;
                    }
                    if !table.range_tombstones.is_empty() {
                        return Ok(true);
                    }
                    if let Some(tile_idx) = table.tile_fences.locate(sort_key) {
                        let tile = &table.tiles[tile_idx];
                        stats.record_bloom_probes(tile.pages.len() as u64);
                        if tile.pages.iter().any(|p| {
                            sort_key >= p.min_sort
                                && sort_key <= p.max_sort
                                && p.bloom.may_contain(sort_key)
                        }) {
                            return Ok(true);
                        }
                    }
                }
            }
        }
        Ok(false)
    }

    /// Pins and returns the current version (white-box snapshot access for
    /// tests and tools).
    pub fn pin_version(&self) -> Arc<Version> {
        self.versions.current()
    }

    /// Number of runs in the first disk level — the write-backpressure
    /// signal, exposed on the reader so the check needs no shard lock.
    pub fn l0_run_count(&self) -> usize {
        self.versions.current().l0_run_count()
    }

    /// True when the writer should stall (full active buffer behind an
    /// unflushed frozen one); see [`LsmTree::write_stalled`]. Exposed on the
    /// reader so backpressure checks need no shard lock.
    pub fn write_stalled(&self) -> bool {
        // active before frozen: the `&&` keeps its first operand's guard
        // alive across the second, so this order must match the lock ranks
        // (MemtableActive < MemtableFrozen) — the reverse order was a real
        // rank inversion against the freeze path
        self.mem.active.read().size_bytes() >= self.config.buffer_capacity_bytes()
            && self.mem.frozen.read().is_some()
    }
}

/// A streaming range scan over a stable snapshot of one tree; obtained from
/// [`TreeReader::iter_range`] (or `Lethe::iter_range` in `lethe-core`).
///
/// Yields `Result<(key, value)>` in ascending key order, newest version per
/// key, tombstones resolved. Pages are decoded lazily as the iterator is
/// advanced, so partial consumption (paging, `take(n)`, early break) only
/// pays for the prefix actually read. The iterator pins the version it was
/// created against: concurrent flushes and compactions can neither change
/// its results nor reclaim the pages it still has to visit. After an I/O
/// error the iterator is fused (yields `None` forever).
pub struct RangeIter {
    merge: Option<MergeIterator>,
    /// Pins the snapshot's disk pages for the lifetime of the scan.
    _pin: Option<Arc<Version>>,
}

impl Iterator for RangeIter {
    type Item = Result<(SortKey, Bytes)>;

    fn next(&mut self) -> Option<Self::Item> {
        let merge = self.merge.as_mut()?;
        match merge.next_merged() {
            Ok(Some(e)) => Some(Ok((e.sort_key, e.value))),
            Ok(None) => {
                self.merge = None;
                None
            }
            Err(e) => {
                self.merge = None;
                Some(Err(e))
            }
        }
    }
}

/// Everything the lock-free execute phase needs to build output files:
/// captured from the tree at plan time so no lock is held while pages are
/// read, merged and written.
#[derive(Clone)]
pub struct BuildCtx {
    config: LsmConfig,
    backend: Arc<dyn StorageBackend>,
    now: Timestamp,
    next_file_id: Arc<AtomicU64>,
}

/// The structural decision of one unit of maintenance work, taken under the
/// write lock against a pinned version. Executing it performs the expensive
/// I/O without any lock; applying it back under the write lock commits the
/// result atomically (manifest edit + version install).
///
/// Every flush, compaction and whole-file drop has this one shape: pinned
/// *victims* that the new version no longer holds, and a *placement* for
/// the merged output. The planners differ only in how they choose the two.
pub struct JobPlan {
    kind: JobKind,
    /// The pinned frozen buffer (flushes only): the newest merge source,
    /// and the slot [`LsmTree::apply_job`] clears. A pointer clone of the
    /// frozen slot, so planning copies nothing; the entries are read in the
    /// lock-free execute phase.
    frozen: Option<Arc<FrozenBuffer>>,
    /// The pinned input files, newest first: the merge's shadowing order.
    victims: Vec<Arc<SsTable>>,
    /// Where the output goes; `None` for a whole-file drop, which reads and
    /// writes nothing.
    placement: Option<Placement>,
    drop_tombstones: bool,
    /// Also drop surviving puts whose delete key falls in this range (the
    /// full-tree secondary-delete baseline).
    delete_key_filter: Option<(DeleteKey, DeleteKey)>,
    /// [`VersionSet::installs`] at plan time: any install since makes the
    /// plan stale.
    installs: u64,
}

/// What a job is for. Decides only which counters the job bumps and
/// whether the whole-file-drop kill points fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobKind {
    Flush,
    /// `ttl_trigger`: the policy picked it for an expired TTL (FADE's
    /// delete-driven trigger).
    Compaction { ttl_trigger: bool },
    FullTree,
    Drop,
}

/// Where a job's output lands in the new version.
#[derive(Debug, Clone, Copy)]
enum Placement {
    /// Added to run 0 of the level (leveling).
    Run0 { level: usize },
    /// Inserted as a new run at `index` of the level's run list (tiering).
    /// Removing the victims first leaves the slot a merged segment held.
    NewRun { level: usize, index: usize },
}

impl JobPlan {
    /// The execute phase: reads the input pages, merges, and builds the
    /// output files on the device. Requires **no** tree lock — all inputs
    /// are immutable (pinned `Arc<SsTable>`s and the pinned frozen buffer)
    /// and the device is thread-safe. The output references freshly written
    /// pages that no version knows about yet; it becomes visible only via
    /// [`LsmTree::apply_job`].
    ///
    /// The merge is *streaming*: input files are read through lazy per-tile
    /// cursors (cache-bypassing `nofill` reads, like every bulk maintenance
    /// scan) into a heap merge, and output files are cut as the stream
    /// passes each file-size boundary. Peak memory is one delete tile per
    /// input plus one output file's entries — independent of the total
    /// number of input entries, so arbitrarily large compactions run in
    /// bounded space.
    pub fn execute(&self, ctx: &BuildCtx) -> Result<JobOutput> {
        // a whole-file drop reads and writes nothing: the entire effect is
        // the apply phase's version/manifest edit
        if self.placement.is_none() {
            return Ok(JobOutput { tables: Vec::new() });
        }
        let mut cursors: Vec<Box<dyn EntryCursor>> = Vec::with_capacity(1 + self.victims.len());
        let mut rts = Vec::new();
        let mut oldest = None;
        if let Some(buffer) = &self.frozen {
            if let Some(Placement::NewRun { .. }) = self.placement {
                // a tiered flush appends the buffer as a fresh run as-is: it
                // already holds one version per key, and a merge would drop
                // puts shadowed by the buffer's own range tombstones
                let mut builder = TableStreamBuilder::new(
                    ctx,
                    buffer.range_tombstones.clone(),
                    buffer.oldest_tombstone_ts,
                );
                for e in &buffer.entries {
                    builder.push(e.clone())?;
                }
                return Ok(JobOutput { tables: builder.finish()? });
            }
            // the pinned buffer streams without being copied
            cursors.push(Box::new(SharedSliceCursor::new(
                FrozenEntries(Arc::clone(buffer)),
                0,
                buffer.entries.len(),
            )));
            rts.extend(buffer.range_tombstones.iter().cloned());
            oldest = buffer.oldest_tombstone_ts;
        }
        for table in &self.victims {
            cursors.push(Box::new(SsTableCursor::full(
                Arc::clone(table),
                Arc::clone(&ctx.backend),
                true,
            )));
            rts.extend(table.range_tombstones.iter().cloned());
            oldest = min_opt(oldest, table.meta.oldest_tombstone_ts);
        }
        let (surviving_rts, oldest) =
            if self.drop_tombstones { (Vec::new(), None) } else { (rts.clone(), oldest) };
        let mut merge = MergeIterator::new(cursors, rts, self.drop_tombstones)?;
        let mut builder = TableStreamBuilder::new(ctx, surviving_rts, oldest);
        while let Some(e) = merge.next_merged()? {
            if let Some((d_lo, d_hi)) = self.delete_key_filter {
                if !e.is_tombstone() && e.delete_key >= d_lo && e.delete_key < d_hi {
                    continue;
                }
            }
            builder.push(e)?;
        }
        Ok(JobOutput { tables: builder.finish()? })
    }
}

/// The output of [`JobPlan::execute`]: freshly built files awaiting
/// [`LsmTree::apply_job`].
pub struct JobOutput {
    tables: Vec<Arc<SsTable>>,
}

/// Streams a merged, sorted entry sequence into successive output files
/// (each at most `max_pages_per_file` pages) without ever holding more than
/// one file's entries. File ids come from the shared atomic allocator so
/// concurrent builders never collide.
///
/// Range tombstones (the small, already-in-memory survivors of the merge)
/// are attached to the output file whose key range their start falls into;
/// the final file absorbs whatever is left, exactly like the seed's
/// materialising builder.
struct TableStreamBuilder<'a> {
    ctx: &'a BuildCtx,
    per_file: usize,
    chunk: Vec<Entry>,
    /// Surviving range tombstones not yet attached, sorted by start key.
    rts_remaining: Vec<Entry>,
    oldest_tombstone_ts: Option<Timestamp>,
    tables: Vec<Arc<SsTable>>,
}

impl<'a> TableStreamBuilder<'a> {
    fn new(
        ctx: &'a BuildCtx,
        mut range_tombstones: Vec<Entry>,
        oldest_tombstone_ts: Option<Timestamp>,
    ) -> Self {
        range_tombstones.sort_by_key(|e| e.sort_key);
        TableStreamBuilder {
            per_file: ctx.config.entries_per_file().max(1),
            ctx,
            chunk: Vec::new(),
            rts_remaining: range_tombstones,
            oldest_tombstone_ts,
            tables: Vec::new(),
        }
    }

    /// Appends the next entry of the merged stream (must arrive in sort-key
    /// order), cutting a file whenever one is full.
    fn push(&mut self, e: Entry) -> Result<()> {
        if self.chunk.len() >= self.per_file {
            self.flush_file(false)?;
        }
        probe::add(1);
        self.chunk.push(e);
        Ok(())
    }

    /// Builds one output file from the accumulated chunk. A non-final file
    /// takes the pending range tombstones starting within its key range; the
    /// final file absorbs all that remain.
    fn flush_file(&mut self, last: bool) -> Result<()> {
        // nothing to build — except a final rts-only file when point entries
        // ran out but surviving range tombstones remain
        let rts_only_file = last && !self.rts_remaining.is_empty();
        if self.chunk.is_empty() && !rts_only_file {
            return Ok(());
        }
        let rts: Vec<Entry> = if last {
            std::mem::take(&mut self.rts_remaining)
        } else {
            let upper = self.chunk.last().map(|e| e.sort_key).unwrap_or(0);
            let split = self.rts_remaining.partition_point(|rt| rt.sort_key <= upper);
            let keep = self.rts_remaining.split_off(split);
            std::mem::replace(&mut self.rts_remaining, keep)
        };
        let chunk = std::mem::take(&mut self.chunk);
        probe::sub(chunk.len() as u64);
        let has_tombstones = !rts.is_empty() || chunk.iter().any(|e| e.is_tombstone());
        let id = self.ctx.next_file_id.fetch_add(1, Ordering::Relaxed);
        let table = SsTable::build(
            id,
            chunk,
            rts,
            self.ctx.now,
            if has_tombstones { self.oldest_tombstone_ts } else { None },
            &self.ctx.config,
            self.ctx.backend.as_ref(),
        )?;
        if table.meta.num_entries > 0 {
            self.tables.push(Arc::new(table));
        }
        Ok(())
    }

    /// Cuts the final file (which absorbs the remaining range tombstones)
    /// and returns every file built.
    fn finish(mut self) -> Result<Vec<Arc<SsTable>>> {
        self.flush_file(true)?;
        Ok(self.tables)
    }
}

fn min_opt(a: Option<Timestamp>, b: Option<Timestamp>) -> Option<Timestamp> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// A complete LSM storage engine instance.
pub struct LsmTree {
    config: LsmConfig,
    backend: Arc<dyn StorageBackend>,
    clock: LogicalClock,
    policy: Box<dyn CompactionPolicy>,
    mem: Arc<MemState>,
    versions: Arc<VersionSet>,
    /// Sequence-number allocator. Shared across every shard of a sharded
    /// store so one cross-shard batch commits under one seqnum range.
    next_seqnum: Arc<AtomicU64>,
    /// Cross-shard batch ids proven committed by the batch-commit log;
    /// replay rolls back any `WalRecord::Batch { id: Some(_), .. }` whose id
    /// is missing here (prepared but never committed).
    committed_batches: HashSet<u64>,
    /// Every cross-shard batch id seen in the WAL during recovery (committed
    /// or rolled back). The sharded front-end unions these across shards to
    /// compact its batch-commit log down to ids some WAL still references.
    replayed_batch_ids: HashSet<u64>,
    next_file_id: Arc<AtomicU64>,
    /// Live-snapshot registry. Shared across every shard of a sharded store
    /// (like the seqnum allocator) so one cross-shard snapshot gates
    /// tombstone GC in all shards at once.
    snapshots: Arc<SnapshotTracker>,
    stats: TreeStats,
    counters: Arc<ReadCounters>,
    reader: TreeReader,
    sort_key_histogram: Histogram,
    delete_key_histogram: Histogram,
    wal: Option<Box<dyn Wal>>,
    manifest: Option<Manifest>,
    mode: MaintenanceMode,
    /// Crash-injection hook for the tree's own commit steps (currently the
    /// whole-file-drop commit); disarmed in production.
    failpoint: Option<FailPoint>,
}

impl LsmTree {
    /// Creates an engine on `backend` with the given compaction policy.
    pub fn new(
        config: LsmConfig,
        backend: Arc<dyn StorageBackend>,
        clock: LogicalClock,
        policy: Box<dyn CompactionPolicy>,
    ) -> Result<Self> {
        config.validate().map_err(StorageError::InvalidOperation)?;
        let domain = config.key_domain.max(2);
        let mem = Arc::new(MemState::new(MemTable::default(), None));
        let versions = Arc::new(VersionSet::new());
        let counters = Arc::new(ReadCounters::default());
        let reader = TreeReader {
            config: config.clone(),
            backend: Arc::clone(&backend),
            mem: Arc::clone(&mem),
            versions: Arc::clone(&versions),
            counters: Arc::clone(&counters),
        };
        Ok(LsmTree {
            sort_key_histogram: Histogram::new(0, domain, config.histogram_buckets),
            delete_key_histogram: Histogram::new(0, domain, config.histogram_buckets),
            config,
            backend,
            clock,
            policy,
            mem,
            versions,
            next_seqnum: Arc::new(AtomicU64::new(1)),
            committed_batches: HashSet::new(),
            replayed_batch_ids: HashSet::new(),
            next_file_id: Arc::new(AtomicU64::new(1)),
            snapshots: Arc::new(SnapshotTracker::new()),
            stats: TreeStats::default(),
            counters,
            reader,
            wal: None,
            manifest: None,
            mode: MaintenanceMode::Inline,
            failpoint: None,
        })
    }

    /// Attaches a crash-injection failpoint checked at the tree's own commit
    /// sites (`drop.commit`, `drop.retire` — the whole-file-drop steps).
    /// Share the same [`FailPoint`] with the backend, WAL and manifest so one
    /// armed site crashes whichever layer reaches it first.
    pub fn with_failpoint(mut self, fp: FailPoint) -> Self {
        self.failpoint = Some(fp);
        self
    }

    /// Attaches a write-ahead log; every subsequent mutation is logged before
    /// it is buffered.
    pub fn with_wal(mut self, wal: Box<dyn Wal>) -> Self {
        self.wal = Some(wal);
        self
    }

    /// Attaches a durable manifest; every subsequent flush, compaction and
    /// secondary page drop commits an edit describing the new tree state
    /// before the WAL is allowed to forget the covered records. Attach it
    /// *before* calling [`LsmTree::recover`] so the recorded state is
    /// rebuilt first.
    pub fn with_manifest(mut self, manifest: Manifest) -> Self {
        self.manifest = Some(manifest);
        self
    }

    /// Shares a sequence-number allocator with other trees (the shards of
    /// one store), so every shard draws from one monotonic seqnum space and
    /// a cross-shard batch commits under a single seqnum range. Call before
    /// [`LsmTree::recover`]; recovery raises the shared counter with
    /// `fetch_max`, never lowers it.
    pub fn with_seqnum_allocator(mut self, alloc: Arc<AtomicU64>) -> Self {
        alloc.fetch_max(self.next_seqnum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.next_seqnum = alloc;
        self
    }

    /// Shares a live-snapshot tracker with other trees (the shards of one
    /// store): one registered snapshot fence gates tombstone GC in every
    /// shard at once.
    pub fn with_snapshot_tracker(mut self, tracker: Arc<SnapshotTracker>) -> Self {
        self.snapshots = tracker;
        self
    }

    /// The tree's live-snapshot tracker.
    pub fn snapshot_tracker(&self) -> &Arc<SnapshotTracker> {
        &self.snapshots
    }

    /// The next sequence number this tree will assign — every write applied
    /// so far carries a strictly smaller one. Loaded from the (possibly
    /// shared) allocator; read it under the tree's write serialisation when
    /// it must fence a consistent cut, as the sharded snapshot path does.
    pub fn next_seqnum(&self) -> SeqNum {
        self.next_seqnum.load(Ordering::Relaxed)
    }

    /// Captures a frozen point-in-time view of this tree: a [`TreeReader`]
    /// over a private clone of the active memtable (bounded by the buffer
    /// capacity), the frozen buffer pinned by `Arc`, and a version set that
    /// holds only the current [`Version`] — which defers page reclamation of
    /// its tables for as long as the view lives. Nothing writes to any of
    /// the three, so later writes, flushes, compactions and secondary
    /// deletes cannot change what the view returns.
    ///
    /// Call while holding the tree's write serialisation (the shard's
    /// engine lock in the sharded store): under it no write, flush commit
    /// or version install can interleave, so the three captured sources
    /// describe one instant. The view's reads take only its own,
    /// uncontended read locks. The caller is responsible for registering
    /// the covering seqnum fence with the [`SnapshotTracker`] so tombstone
    /// GC is gated while the view is alive.
    pub fn capture_snapshot(&self) -> TreeReader {
        let mem = MemState::new(self.mem.active.read().clone(), self.mem.frozen.read().clone());
        TreeReader {
            config: self.config.clone(),
            backend: Arc::clone(&self.backend),
            mem: Arc::new(mem),
            versions: Arc::new(VersionSet::pinned(self.versions.current())),
            counters: Arc::default(),
        }
    }

    /// Provides the set of cross-shard batch ids the batch-commit log proves
    /// committed. Call before [`LsmTree::recover`]: WAL replay applies a
    /// `WalRecord::Batch { id: Some(id), .. }` slice only when `id` is in
    /// this set, rolling back batches that prepared but never committed.
    pub fn set_committed_batches(&mut self, ids: HashSet<u64>) {
        self.committed_batches = ids;
    }

    /// The cross-shard batch ids this tree's WAL still carried at recovery
    /// time (committed or rolled back). Empty until [`LsmTree::recover`] runs
    /// and for trees that never logged a cross-shard slice.
    pub fn wal_batch_ids(&self) -> &HashSet<u64> {
        &self.replayed_batch_ids
    }

    /// Selects who runs flushes and compactions (default
    /// [`MaintenanceMode::Inline`]).
    pub fn set_maintenance_mode(&mut self, mode: MaintenanceMode) {
        self.mode = mode;
    }

    /// The current maintenance mode.
    pub fn maintenance_mode(&self) -> MaintenanceMode {
        self.mode
    }

    /// Returns a cheap-to-clone handle serving lock-free snapshot reads; see
    /// [`TreeReader`].
    pub fn reader(&self) -> TreeReader {
        self.reader.clone()
    }

    /// Recovers a freshly-constructed engine from its durable artifacts:
    /// rebuilds levels, runs and files from the attached manifest (re-deriving
    /// Bloom filters and fence pointers from page contents), releases device
    /// pages the manifest does not reference (half-written flush output,
    /// pages dropped after the last manifest edit), then replays the WAL on
    /// top through the internal replay path. The WAL is *not* truncated here:
    /// its records stay until the next flush commits a manifest edit that
    /// covers them, so a crash during or right after recovery loses nothing.
    pub fn recover(&mut self, wal: &dyn Wal) -> Result<RecoveryReport> {
        let mut report = RecoveryReport::default();
        if !self.versions.current().levels.is_empty()
            || !self.mem.active.read().is_empty()
            || self.mem.frozen.read().is_some()
        {
            return Err(StorageError::InvalidOperation(
                "recover() requires a freshly-constructed (empty) tree".into(),
            ));
        }
        if let Some(manifest) = &self.manifest {
            let state = manifest.state().clone();
            self.next_file_id.fetch_max(state.next_file_id, Ordering::Relaxed);
            self.next_seqnum.fetch_max(state.next_seqnum, Ordering::Relaxed);
            self.clock.advance_to(state.clock_micros);
            let mut levels = Vec::with_capacity(state.levels.len());
            for level_desc in &state.levels {
                let mut level = Level::new();
                for run_desc in level_desc {
                    let mut tables = Vec::with_capacity(run_desc.len());
                    for fd in run_desc {
                        let table = SsTable::recover(fd, &self.config, self.backend.as_ref())?;
                        self.next_file_id.fetch_max(fd.id + 1, Ordering::Relaxed);
                        self.next_seqnum.fetch_max(fd.max_seqnum + 1, Ordering::Relaxed);
                        report.files_recovered += 1;
                        self.versions.register_table(&table);
                        tables.push(Arc::new(table));
                    }
                    level.runs.push(Run::new(tables));
                }
                level.prune_empty_runs();
                levels.push(level);
            }
            // the device scan resurfaces every frame in the data file; drop
            // whatever the durable state does not reference
            let referenced: HashSet<PageId> =
                state.files().flat_map(|f| f.tiles.iter().flatten().copied()).collect();
            for id in self.backend.page_ids() {
                if !referenced.contains(&id) {
                    crate::reclaim::retire_page(self.backend.as_ref(), id);
                    report.pages_released += 1;
                }
            }
            self.versions.install(levels);
        }
        report.wal_records_replayed = self.recover_from(wal)?;
        Ok(report)
    }

    /// Replays a WAL into the engine through the internal replay path:
    /// unlike the public write path it never suppresses a logged tombstone as
    /// blind, never re-counts ingest statistics or histograms (they were
    /// counted when the record was first acknowledged), and re-applies each
    /// record at its *logged* timestamp instead of re-stamping it.
    pub fn recover_from(&mut self, wal: &dyn Wal) -> Result<usize> {
        let records = wal.replay()?;
        let n = records.len();
        for r in records {
            self.replay_record(r)?;
        }
        Ok(n)
    }

    /// Applies one logged record to the buffer, bypassing acknowledgement-time
    /// bookkeeping (see [`LsmTree::recover_from`]).
    fn replay_record(&mut self, record: WalRecord) -> Result<()> {
        match record {
            WalRecord::Put { sort_key, delete_key, value, ts } => {
                self.clock.advance_to(ts);
                let seq = self.next_seq();
                self.mem.active.write().put(sort_key, delete_key, seq, value);
            }
            WalRecord::Delete { sort_key, ts } => {
                self.clock.advance_to(ts);
                let seq = self.next_seq();
                self.mem.active.write().delete(sort_key, seq, ts);
            }
            WalRecord::DeleteRange { start, end, ts } => {
                if end <= start {
                    return Ok(());
                }
                self.clock.advance_to(ts);
                let seq = self.next_seq();
                self.mem.active.write().delete_range(start, end, seq, ts);
            }
            WalRecord::SecondaryDelete { d_lo, d_hi, ts } => {
                self.clock.advance_to(ts);
                // re-purges buffered entries replayed so far and re-drops
                // any on-device pages the pre-crash run did not get to
                // (idempotent on the ones it did)
                self.apply_secondary_range_delete(d_lo, d_hi)?;
            }
            WalRecord::Batch { id, ops, ts } => {
                // a prepared cross-shard slice replays only when the batch
                // commit log proves its id committed; otherwise the whole
                // slice rolls back — a batch is never half-applied
                if let Some(id) = id {
                    self.replayed_batch_ids.insert(id);
                    if !self.committed_batches.contains(&id) {
                        return Ok(());
                    }
                }
                self.clock.advance_to(ts);
                self.apply_batch_ops(&ops, ts, false)?;
            }
        }
        self.maybe_flush()
    }

    // ----------------------------------------------------------------- writes

    /// Inserts (or updates) `sort_key` with the given delete key and value.
    pub fn put(&mut self, sort_key: SortKey, delete_key: DeleteKey, value: Bytes) -> Result<()> {
        self.advance_clock_for_ingest();
        let now = self.clock.now();
        if let Some(wal) = &self.wal {
            wal.append(WalRecord::Put { sort_key, delete_key, value: value.clone(), ts: now })?;
        }
        let seq = self.next_seq();
        let entry = Entry::put(sort_key, delete_key, seq, value);
        self.stats.record_ingest(entry.encoded_size() as u64);
        self.sort_key_histogram.add(sort_key);
        self.delete_key_histogram.add(delete_key);
        self.mem.active.write().put(sort_key, delete_key, seq, entry.value);
        self.maybe_flush()
    }

    /// Issues a point delete for `sort_key`. Returns `false` when the delete
    /// was suppressed as *blind* (the key cannot exist anywhere in the tree —
    /// only checked when `suppress_blind_deletes` is enabled).
    pub fn delete(&mut self, sort_key: SortKey) -> Result<bool> {
        self.advance_clock_for_ingest();
        if self.config.suppress_blind_deletes && !self.key_may_exist(sort_key)? {
            self.stats.blind_deletes_suppressed += 1;
            return Ok(false);
        }
        let now = self.clock.now();
        if let Some(wal) = &self.wal {
            wal.append(WalRecord::Delete { sort_key, ts: now })?;
        }
        let seq = self.next_seq();
        let entry = Entry::point_tombstone(sort_key, seq);
        self.stats.record_ingest(entry.encoded_size() as u64);
        self.stats.point_deletes_issued += 1;
        self.mem.active.write().delete(sort_key, seq, now);
        self.maybe_flush()?;
        Ok(true)
    }

    /// Issues a range delete on the **sort key** for `[start, end)`.
    pub fn delete_range(&mut self, start: SortKey, end: SortKey) -> Result<()> {
        if end <= start {
            return Ok(());
        }
        self.advance_clock_for_ingest();
        let now = self.clock.now();
        if let Some(wal) = &self.wal {
            wal.append(WalRecord::DeleteRange { start, end, ts: now })?;
        }
        let seq = self.next_seq();
        let entry = Entry::range_tombstone(start, end, seq);
        self.stats.record_ingest(entry.encoded_size() as u64);
        self.stats.range_deletes_issued += 1;
        self.mem.active.write().delete_range(start, end, seq, now);
        self.maybe_flush()
    }

    /// Executes a secondary range delete: removes every entry whose **delete
    /// key** lies in `[d_lo, d_hi)`, using the strategy selected by
    /// [`LsmConfig::secondary_delete_mode`]. Logged to the WAL before it
    /// runs: the purge of *buffered* entries would otherwise be resurrected
    /// by replaying their still-logged puts after a crash.
    pub fn secondary_range_delete(
        &mut self,
        d_lo: DeleteKey,
        d_hi: DeleteKey,
    ) -> Result<SecondaryDeleteStats> {
        if let Some(wal) = &self.wal {
            wal.append(WalRecord::SecondaryDelete { d_lo, d_hi, ts: self.clock.now() })?;
        }
        self.stats.secondary_range_deletes += 1;
        let result = self.apply_secondary_range_delete(d_lo, d_hi)?;
        self.stats.secondary_delete.merge(&result);
        Ok(result)
    }

    // ----------------------------------------------------------------- batches

    /// Atomically applies `batch`: the whole batch is logged as **one** WAL
    /// frame (crash recovery replays it entirely or discards it entirely —
    /// a torn tail can never split it), made durable per the sync policy,
    /// and its point operations are applied to the write buffer under a
    /// single memtable write lock (concurrent readers never observe a
    /// prefix). Operations apply in insertion order under one commit
    /// timestamp and consecutive sequence numbers. An empty batch is a
    /// no-op.
    pub fn write_batch(&mut self, batch: WriteBatch) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let ts = self.stage_batch(batch.ops(), None)?;
        self.wal_commit()?;
        self.apply_batch(batch.into_ops(), ts)
    }

    /// Stages `ops` in the WAL as one atomic batch frame **without** the
    /// sync-policy barrier. A group-commit leader stages every queued batch
    /// with this, pays one [`LsmTree::wal_commit`] for the combined tail,
    /// then applies each batch at the returned commit timestamp with
    /// [`LsmTree::apply_batch`]. `id` tags a prepared cross-shard slice
    /// (replay holds it back until the batch-commit log shows `id`);
    /// `None` marks the frame itself as the commit point.
    pub fn stage_batch(&mut self, ops: &[BatchOp], id: Option<u64>) -> Result<Timestamp> {
        self.advance_clock_for_ingest();
        let now = self.clock.now();
        if let Some(wal) = &self.wal {
            wal.append_nosync(WalRecord::Batch { id, ops: ops.to_vec(), ts: now })?;
        }
        Ok(now)
    }

    /// One durability barrier covering everything staged since the last
    /// commit (the group-commit fsync). A no-op without a WAL.
    pub fn wal_commit(&mut self) -> Result<()> {
        if let Some(wal) = &self.wal {
            wal.commit()?;
        }
        Ok(())
    }

    /// Applies a staged batch to the write buffer at its commit timestamp.
    pub fn apply_batch(&mut self, ops: Vec<BatchOp>, ts: Timestamp) -> Result<()> {
        self.apply_batch_ops(&ops, ts, true)?;
        self.maybe_flush()
    }

    /// Applies batch operations in order. Consecutive point operations
    /// (puts, deletes) are applied under a single memtable write lock so
    /// concurrent readers observe them all-or-nothing; a secondary range
    /// delete releases the guard (it touches the frozen buffer and the
    /// version set) — it only purges data that predates the batch. With
    /// `ack_time` false (WAL replay) the acknowledgement-time bookkeeping
    /// (ingest stats, histograms) is skipped, mirroring the single-op
    /// replay arms.
    fn apply_batch_ops(&mut self, ops: &[BatchOp], ts: Timestamp, ack_time: bool) -> Result<()> {
        let mem = Arc::clone(&self.mem);
        let alloc = Arc::clone(&self.next_seqnum);
        let mut i = 0;
        while i < ops.len() {
            match &ops[i] {
                BatchOp::SecondaryDelete { d_lo, d_hi } => {
                    if ack_time {
                        self.stats.secondary_range_deletes += 1;
                    }
                    let result = self.apply_secondary_range_delete(*d_lo, *d_hi)?;
                    if ack_time {
                        self.stats.secondary_delete.merge(&result);
                    }
                    i += 1;
                }
                _ => {
                    let run_end = ops[i..]
                        .iter()
                        .position(|o| matches!(o, BatchOp::SecondaryDelete { .. }))
                        .map_or(ops.len(), |p| i + p);
                    let mut active = mem.active.write();
                    for op in &ops[i..run_end] {
                        let seq = alloc.fetch_add(1, Ordering::Relaxed);
                        match op {
                            BatchOp::Put { sort_key, delete_key, value } => {
                                if ack_time {
                                    let entry =
                                        Entry::put(*sort_key, *delete_key, seq, value.clone());
                                    self.stats.record_ingest(entry.encoded_size() as u64);
                                    self.sort_key_histogram.add(*sort_key);
                                    self.delete_key_histogram.add(*delete_key);
                                }
                                active.put(*sort_key, *delete_key, seq, value.clone());
                            }
                            BatchOp::Delete { sort_key } => {
                                if ack_time {
                                    let entry = Entry::point_tombstone(*sort_key, seq);
                                    self.stats.record_ingest(entry.encoded_size() as u64);
                                    self.stats.point_deletes_issued += 1;
                                }
                                active.delete(*sort_key, seq, ts);
                            }
                            BatchOp::SecondaryDelete { .. } => {
                                // lint:allow(no-panic): the op split above routes these out
                                unreachable!("split above")
                            }
                        }
                    }
                    i = run_end;
                }
            }
        }
        Ok(())
    }

    /// The logging- and statistics-free body of a secondary range delete,
    /// shared by the public path and WAL replay.
    fn apply_secondary_range_delete(
        &mut self,
        d_lo: DeleteKey,
        d_hi: DeleteKey,
    ) -> Result<SecondaryDeleteStats> {
        // the buffered portion (active and frozen) is purged in place in
        // both modes
        self.mem.active.write().purge_by_delete_key(d_lo, d_hi);
        if let Some(f) = self.mem.frozen.write().as_mut() {
            Arc::make_mut(f).purge_by_delete_key(d_lo, d_hi);
        }
        match self.config.secondary_delete_mode {
            SecondaryDeleteMode::KiwiPageDrops => self.secondary_delete_with_drops(d_lo, d_hi),
            SecondaryDeleteMode::FullTreeCompaction => {
                self.secondary_delete_with_full_compaction(d_lo, d_hi)
            }
        }
    }

    /// KiWi page drops, committed as one new version: fully-covered pages
    /// are never read, partially-covered pages are rewritten, and the
    /// obsolete pages are retired through the version set so concurrently
    /// pinned snapshots stay readable until they are released.
    fn secondary_delete_with_drops(
        &mut self,
        d_lo: DeleteKey,
        d_hi: DeleteKey,
    ) -> Result<SecondaryDeleteStats> {
        let now = self.clock.now();
        let mut total = SecondaryDeleteStats::default();
        let mut levels = self.versions.current().levels.clone();
        let mut retired: Vec<Arc<SsTable>> = Vec::new();
        let mut replacements: Vec<Arc<SsTable>> = Vec::new();
        for level in &mut levels {
            for run in &mut level.runs {
                let ids: Vec<u64> = run.tables().iter().map(|t| t.meta.id).collect();
                for id in ids {
                    let table = match run.find_by_id(id) {
                        Some(t) => Arc::clone(t),
                        None => continue,
                    };
                    if table.meta.num_entries == 0
                        || table.meta.max_delete < d_lo
                        || table.meta.min_delete >= d_hi
                    {
                        continue;
                    }
                    // the obsolete-page list is implied by the reference
                    // counts: retiring the original releases exactly the
                    // pages its replacement does not share
                    let (replacement, stats, _obsolete) = table.secondary_range_delete(
                        d_lo,
                        d_hi,
                        &self.config,
                        self.backend.as_ref(),
                        now,
                    )?;
                    total.merge(&stats);
                    let replacement = replacement.map(Arc::new);
                    if let Some(r) = &replacement {
                        replacements.push(Arc::clone(r));
                    }
                    run.replace(id, replacement);
                    retired.push(table);
                }
            }
            level.prune_empty_runs();
        }
        self.commit_version(levels, &replacements, retired, false)?;
        Ok(total)
    }

    fn secondary_delete_with_full_compaction(
        &mut self,
        d_lo: DeleteKey,
        d_hi: DeleteKey,
    ) -> Result<SecondaryDeleteStats> {
        // the state-of-the-art path: read, merge and rewrite the whole tree
        let mut stats = SecondaryDeleteStats::default();
        let before = self.versions.current();
        let before_entries: u64 = before.levels.iter().map(|l| l.total_entries()).sum();
        drop(before);
        self.full_tree_compaction_filtered(Some((d_lo, d_hi)))?;
        let after = self.versions.current();
        let after_entries: u64 = after.levels.iter().map(|l| l.total_entries()).sum();
        stats.entries_deleted = before_entries.saturating_sub(after_entries);
        // every surviving page was read and rewritten
        stats.partial_page_drops =
            after.levels.iter().flat_map(|l| l.all_tables()).map(|t| t.page_count() as u64).sum();
        Ok(stats)
    }

    /// Forces a full-tree compaction (reads, merges and rewrites every file
    /// into the last level). This is the operation Lethe is designed to make
    /// unnecessary; it is exposed for the baselines and experiments.
    pub fn force_full_compaction(&mut self) -> Result<()> {
        self.full_tree_compaction_filtered(None)
    }

    fn full_tree_compaction_filtered(
        &mut self,
        delete_key_range: Option<(DeleteKey, DeleteKey)>,
    ) -> Result<()> {
        let plan = self.plan_full(delete_key_range);
        self.run_job(plan)?;
        Ok(())
    }

    // ----------------------------------------------------------------- reads

    /// Point lookup: returns the current value of `sort_key`, or `None` if
    /// the key does not exist or has been deleted. Lock-free with respect to
    /// flushes and compactions (see [`TreeReader`]).
    pub fn get(&self, sort_key: SortKey) -> Result<Option<Bytes>> {
        self.reader.get(sort_key)
    }

    /// Range lookup on the sort key: returns the live `(key, value)` pairs in
    /// `[lo, hi)`, newest version per key, in key order.
    pub fn range(&self, lo: SortKey, hi: SortKey) -> Result<Vec<(SortKey, Bytes)>> {
        self.reader.range(lo, hi)
    }

    /// Secondary range lookup: returns every live entry whose **delete key**
    /// lies in `[d_lo, d_hi)`.
    pub fn secondary_range_scan(&self, d_lo: DeleteKey, d_hi: DeleteKey) -> Result<Vec<Entry>> {
        self.reader.secondary_range_scan(d_lo, d_hi)
    }

    /// Returns `true` if `sort_key` may exist in the tree (memtable check
    /// plus Bloom probes; no page reads). Used for blind-delete suppression.
    pub fn key_may_exist(&self, sort_key: SortKey) -> Result<bool> {
        self.reader.key_may_exist(sort_key)
    }

    // ------------------------------------------------------------ flush/compact

    fn next_seq(&mut self) -> SeqNum {
        self.next_seqnum.fetch_add(1, Ordering::Relaxed)
    }

    fn advance_clock_for_ingest(&self) {
        if self.config.auto_advance_clock {
            self.clock.advance_micros(self.config.micros_per_ingest());
        }
    }

    /// Describes a prospective tree state for the manifest.
    fn describe_state(&self, levels: &[Level]) -> ManifestState {
        ManifestState {
            next_file_id: self.next_file_id.load(Ordering::Relaxed),
            next_seqnum: self.next_seqnum.load(Ordering::Relaxed),
            clock_micros: self.clock.now(),
            levels: levels
                .iter()
                .map(|l| {
                    l.runs
                        .iter()
                        .map(|r| r.tables().iter().map(|t| t.describe()).collect())
                        .collect()
                })
                .collect(),
        }
    }

    /// Commits `levels` to the attached manifest (if any): syncs the device
    /// first so the manifest never references pages that could be lost, then
    /// appends the edit. A no-op without a manifest. Called *before* the
    /// version is installed, so a failed commit leaves the in-memory tree
    /// unchanged.
    fn commit_manifest_for(&mut self, levels: &[Level]) -> Result<()> {
        if self.manifest.is_none() {
            return Ok(());
        }
        self.backend.sync()?;
        let state = self.describe_state(levels);
        // lint:allow(no-panic): the is_none() early-return above guarantees presence
        self.manifest.as_mut().expect("manifest presence checked above").commit(state)
    }

    fn maybe_flush(&mut self) -> Result<()> {
        if self.mem.active.read().size_bytes() >= self.config.buffer_capacity_bytes() {
            match self.mode {
                MaintenanceMode::Inline => {
                    self.flush()?;
                    self.maintain()?;
                }
                MaintenanceMode::Background => {
                    // only freeze — the worker flushes; if the frozen slot is
                    // still occupied the embedding layer stalls the writer
                    self.freeze()?;
                }
            }
        }
        Ok(())
    }

    /// Moves the active buffer into the frozen slot, making it immutable and
    /// ready to flush. Returns `false` if the active buffer is empty or the
    /// frozen slot is still occupied by an unflushed buffer. Readers never
    /// observe a gap: the frozen slot is populated before the active lock is
    /// released.
    pub fn freeze(&mut self) -> Result<bool> {
        if self.mem.frozen.read().is_some() {
            return Ok(false);
        }
        let wal_upto = match &self.wal {
            Some(w) => w.position()?,
            None => 0,
        };
        let mut active = self.mem.active.write();
        if active.is_empty() {
            return Ok(false);
        }
        let oldest_tombstone_ts = active.oldest_tombstone_ts();
        let (entries, range_tombstones) = active.drain_sorted();
        *self.mem.frozen.write() = Some(Arc::new(FrozenBuffer {
            entries,
            range_tombstones,
            oldest_tombstone_ts,
            wal_upto,
        }));
        Ok(true)
    }

    /// True if a frozen buffer is waiting to be flushed.
    pub fn has_frozen(&self) -> bool {
        self.mem.frozen.read().is_some()
    }

    /// True when the writer should stall: the active buffer is full *and*
    /// the frozen slot is still occupied (the background flush has not
    /// caught up). The embedding layer blocks the writer until the worker
    /// clears the frozen slot. Delegates to the reader so the read and
    /// write surfaces can never disagree on the condition.
    pub fn write_stalled(&self) -> bool {
        self.reader.write_stalled()
    }

    /// Number of runs in the first disk level (the slowdown/stall
    /// backpressure signal; see [`LsmConfig::l0_slowdown_runs`]).
    pub fn l0_run_count(&self) -> usize {
        self.reader.l0_run_count()
    }

    /// Flushes the write buffer (frozen remainder first, then the active
    /// buffer) to the first disk level. A no-op when nothing is buffered.
    ///
    /// Durability ordering: the flushed files' pages are synced and a
    /// manifest edit describing the new tree state is committed **before**
    /// the WAL records it covers are discarded, so at no instant is an
    /// acknowledged write covered by neither log.
    pub fn flush(&mut self) -> Result<()> {
        let plan = self.plan_flush();
        self.run_job(plan)?;
        if self.freeze()? {
            let plan = self.plan_flush();
            self.run_job(plan)?;
        }
        Ok(())
    }

    /// Runs the compaction loop inline: repeatedly asks the policy for work
    /// until it reports none is needed.
    pub fn maintain(&mut self) -> Result<()> {
        for _ in 0..MAX_MAINTENANCE_ROUNDS {
            let plan = self.plan_compaction();
            if !self.run_job(plan)? {
                break;
            }
        }
        Ok(())
    }

    /// Plans, executes and applies one job inline: the synchronous form of
    /// the background worker's cycle. Returns whether a job was applied.
    fn run_job(&mut self, plan: Option<JobPlan>) -> Result<bool> {
        let Some(plan) = plan else { return Ok(false) };
        let out = plan.execute(&self.build_ctx())?;
        self.apply_job(plan, out)
    }

    /// Captures the context the lock-free execute phase needs.
    pub fn build_ctx(&self) -> BuildCtx {
        BuildCtx {
            config: self.config.clone(),
            backend: Arc::clone(&self.backend),
            now: self.clock.now(),
            next_file_id: Arc::clone(&self.next_file_id),
        }
    }

    /// Plans the next unit of maintenance work, flush first: the frozen
    /// buffer if one is waiting (when `include_flush`), otherwise whatever
    /// compaction the policy picks. Returns `None` when the tree needs no
    /// work right now. The plan pins its inputs; execute it without the
    /// lock via [`JobPlan::execute`] and commit with [`LsmTree::apply_job`].
    pub fn plan_job(&mut self, include_flush: bool) -> Option<JobPlan> {
        if include_flush {
            if let Some(p) = self.plan_flush() {
                return Some(p);
            }
        }
        self.plan_compaction()
    }

    /// True while a live snapshot pins history older than the newest write.
    /// Conservative fence: the current `next_seqnum` — any snapshot taken
    /// before the latest write blocks drops, and a snapshot with no writes
    /// after it (which already observes every tombstone) does not.
    fn tombstone_gc_gated(&self) -> bool {
        !self.snapshots.may_drop_tombstones(self.next_seqnum.load(Ordering::Relaxed))
    }

    /// Applies the snapshot gate to a planned job's tombstone-drop decision,
    /// counting each suppression so the delete-persistence accounting can
    /// show that `D_th` was deliberately suspended rather than violated.
    fn gate_tombstone_drop(&mut self, want_drop: bool) -> bool {
        if want_drop && self.tombstone_gc_gated() {
            self.stats.tombstone_gc_delayed += 1;
            return false;
        }
        want_drop
    }

    /// A plan of `kind` pinning `victims` at the current install
    /// generation, its tombstone drop routed through the snapshot gate.
    fn job(
        &mut self,
        kind: JobKind,
        victims: Vec<Arc<SsTable>>,
        placement: Option<Placement>,
        want_drop: bool,
    ) -> JobPlan {
        JobPlan {
            kind,
            frozen: None,
            victims,
            placement,
            drop_tombstones: self.gate_tombstone_drop(want_drop),
            delete_key_filter: None,
            installs: self.versions.installs(),
        }
    }

    /// Plans the flush of the frozen buffer into the first disk level: as a
    /// new newest run under tiering, otherwise sort-merged with the level's
    /// resident run.
    fn plan_flush(&mut self) -> Option<JobPlan> {
        let buffer = Arc::clone(self.mem.frozen.read().as_ref()?);
        let mut plan = if self.config.merge_policy == MergePolicy::Tiering {
            self.job(JobKind::Flush, Vec::new(), Some(Placement::NewRun { level: 0, index: 0 }), false)
        } else {
            let version = self.versions.current();
            let resident: Vec<Arc<SsTable>> =
                version.levels.first().map(|l| l.all_tables().cloned().collect()).unwrap_or_default();
            let drop = version.deepest_nonempty_level().is_none_or(|d| d == 0);
            self.job(JobKind::Flush, resident, Some(Placement::Run0 { level: 0 }), drop)
        };
        plan.frozen = Some(buffer);
        Some(plan)
    }

    fn plan_compaction(&mut self) -> Option<JobPlan> {
        let version = self.versions.current();
        self.policy.on_tree_growth(version.levels.len());
        let task = {
            let view = TreeView {
                levels: &version.levels,
                capacities: (0..version.levels.len())
                    .map(|i| self.config.level_capacity_bytes(i + 1))
                    .collect(),
                now: self.clock.now(),
                config: &self.config,
                sort_key_histogram: &self.sort_key_histogram,
                tombstone_gc_gated: self.tombstone_gc_gated(),
            };
            self.policy.pick(&view)?
        };
        match task {
            CompactionTask::LeveledMulti { level, file_ids, ttl_trigger } => {
                self.plan_files(&version, level, &file_ids, ttl_trigger)
            }
            CompactionTask::TieredLevel { level, ttl_trigger } => {
                let victims: Vec<Arc<SsTable>> =
                    version.levels.get(level)?.all_tables().cloned().collect();
                if victims.is_empty() {
                    return None;
                }
                // Tiering merges only the source level's runs; runs already
                // resident in deeper levels are not part of the merge, so
                // tombstones may only be discarded when *nothing* exists at
                // the destination level or below — otherwise an older
                // version they cover could resurface.
                let deepest_other = (0..version.levels.len())
                    .rev()
                    .find(|&i| i != level && !version.levels[i].is_empty());
                Some(self.job(
                    JobKind::Compaction { ttl_trigger },
                    victims,
                    Some(Placement::NewRun { level: level + 1, index: 0 }),
                    deepest_other.is_none_or(|d| d < level + 1),
                ))
            }
            CompactionTask::MergeRuns { level, file_ids } => {
                self.plan_merge_runs(&version, level, &file_ids)
            }
            CompactionTask::DropFiles { file_ids } => self.plan_drop_files(&version, &file_ids),
            CompactionTask::FullTree => self.plan_full(None),
        }
    }

    /// Plans a tiered subset merge: whole runs of `level`, contiguous in its
    /// run list and jointly holding exactly `file_ids`, merged into one run
    /// that replaces them in place. Rejects partial runs and non-adjacent
    /// selections — merging around a surviving run of intermediate recency
    /// would invert the version order reads depend on.
    fn plan_merge_runs(
        &mut self,
        version: &Version,
        level: usize,
        file_ids: &[u64],
    ) -> Option<JobPlan> {
        if file_ids.is_empty() {
            return None;
        }
        let l = version.levels.get(level)?;
        let want: HashSet<u64> = file_ids.iter().copied().collect();
        let mut picked: Vec<usize> = Vec::new();
        for (i, run) in l.runs.iter().enumerate() {
            let selected = run.tables().iter().filter(|t| want.contains(&t.meta.id)).count();
            if selected == 0 {
                continue;
            }
            if selected != run.len() {
                return None; // partial run selected
            }
            picked.push(i);
        }
        let (start, end) = (*picked.first()?, *picked.last()? + 1);
        if picked.len() != end - start {
            return None; // non-adjacent runs selected
        }
        let covered: usize = picked.iter().map(|&i| l.runs[i].len()).sum();
        if covered != want.len() {
            return None; // some wanted id is not in this level
        }
        let victims: Vec<Arc<SsTable>> =
            l.runs[start..end].iter().flat_map(|r| r.tables().iter().cloned()).collect();
        // The merge may persist tombstones only when it covers the oldest
        // data of the tree: the segment reaches the level's oldest run and
        // every deeper level is empty.
        let oldest = end == l.runs.len()
            && version.levels.iter().skip(level + 1).all(|deeper| deeper.is_empty());
        // the merged run takes the segment's position, preserving the
        // level's recency order around it
        Some(self.job(
            JobKind::Compaction { ttl_trigger: false },
            victims,
            Some(Placement::NewRun { level, index: start }),
            oldest,
        ))
    }

    /// Plans a whole-file drop of `file_ids`, resolved across all levels.
    /// Routed through the snapshot gate: while a live snapshot pins history
    /// the plan is refused and the delay is counted in
    /// `TreeStats::tombstone_gc_delayed` — the expired files stay in place
    /// (and readable) until the snapshot is released.
    fn plan_drop_files(&mut self, version: &Version, file_ids: &[u64]) -> Option<JobPlan> {
        if file_ids.is_empty() {
            return None;
        }
        let victims: Vec<Arc<SsTable>> = file_ids
            .iter()
            .filter_map(|id| {
                version
                    .levels
                    .iter()
                    .find_map(|l| l.runs.iter().find_map(|r| r.find_by_id(*id).map(Arc::clone)))
            })
            .collect();
        if victims.len() != file_ids.len() {
            return None;
        }
        // A drop erases data versions outright, which is only invisible to
        // readers because the TTL already expired them; a held snapshot must
        // still see the expired window, so the gate defers the whole job.
        if !self.gate_tombstone_drop(true) {
            return None;
        }
        Some(self.job(JobKind::Drop, victims, None, false))
    }

    /// Plans a leveling compaction of `file_ids` out of `level`, mirroring
    /// FADE's placement rules: TTL-driven jobs on an unsaturated deepest
    /// level rewrite in place, everything else spills to `level + 1`.
    fn plan_files(
        &mut self,
        version: &Version,
        level: usize,
        file_ids: &[u64],
        ttl_trigger: bool,
    ) -> Option<JobPlan> {
        let sources: Vec<Arc<SsTable>> = {
            let run = version.levels.get(level)?.runs.first()?;
            file_ids.iter().filter_map(|id| run.find_by_id(*id).map(Arc::clone)).collect()
        };
        if sources.is_empty() {
            return None;
        }
        let deepest = version.deepest_nonempty_level().unwrap_or(level);
        // Files picked from the deepest level while that level still has
        // headroom are being compacted only to persist their tombstones (a
        // TTL-driven compaction): rewrite them in place instead of growing
        // the tree by a level. A saturated deepest level still spills down.
        let saturated =
            version.levels[level].total_bytes() > self.config.level_capacity_bytes(level + 1);
        let dst_level = if level == deepest && !saturated { level } else { level + 1 };

        let overlapping: Vec<Arc<SsTable>> = if dst_level == level {
            Vec::new()
        } else {
            version
                .levels
                .get(dst_level)
                .and_then(|l| l.runs.first())
                .map(|r| {
                    r.tables()
                        .iter()
                        .filter(|t| sources.iter().any(|s| t.overlaps_table(s)))
                        .cloned()
                        .collect()
                })
                .unwrap_or_default()
        };
        // sources first: they are newer than the level below
        let victims = sources.into_iter().chain(overlapping).collect();
        Some(self.job(
            JobKind::Compaction { ttl_trigger },
            victims,
            Some(Placement::Run0 { level: dst_level }),
            dst_level >= deepest,
        ))
    }

    fn plan_full(&mut self, delete_key_filter: Option<(DeleteKey, DeleteKey)>) -> Option<JobPlan> {
        let version = self.versions.current();
        let deepest = version.deepest_nonempty_level()?;
        let victims: Vec<Arc<SsTable>> =
            version.levels.iter().flat_map(|l| l.all_tables().cloned()).collect();
        let mut plan =
            self.job(JobKind::FullTree, victims, Some(Placement::Run0 { level: deepest }), true);
        plan.delete_key_filter = delete_key_filter;
        Some(plan)
    }

    /// Commits an executed job: removes the victims from a copy of the
    /// current levels, places the output, commits the manifest edit,
    /// installs the new version (one atomic pointer swap — readers see the
    /// old or the new tree, never a mixture), retires the victims for
    /// deferred page reclamation, and — for flushes — clears the frozen
    /// buffer and discards the covered WAL prefix.
    ///
    /// Returns `false` (and releases the output's pages) if the plan is
    /// stale: a version was installed since it was planned, or the frozen
    /// slot no longer holds the buffer a flush pinned (a secondary delete
    /// purges the frozen buffer by copy-on-write). This cannot happen under
    /// the serialisation discipline (one worker per tree; foreground
    /// structural operations pause the worker) but is checked anyway so a
    /// discipline bug degrades to wasted work, never to resurrected data.
    pub fn apply_job(&mut self, plan: JobPlan, out: JobOutput) -> Result<bool> {
        let frozen_unchanged = match &plan.frozen {
            Some(buffer) => {
                self.mem.frozen.read().as_ref().is_some_and(|f| Arc::ptr_eq(f, buffer))
            }
            None => true,
        };
        if self.versions.installs() != plan.installs || !frozen_unchanged {
            self.abort_output(out);
            return Ok(false);
        }
        let JobPlan { kind, frozen, victims, placement, .. } = plan;
        let mut levels = self.versions.current().levels.clone();
        let victim_ids: Vec<u64> = victims.iter().map(|t| t.meta.id).collect();
        for level in &mut levels {
            for run in &mut level.runs {
                run.remove_ids(&victim_ids);
            }
            level.prune_empty_runs();
        }
        if let Some(placement) = placement {
            let (Placement::Run0 { level } | Placement::NewRun { level, .. }) = placement;
            while levels.len() <= level {
                levels.push(Level::new());
            }
            if !out.tables.is_empty() {
                let runs = &mut levels[level].runs;
                match placement {
                    Placement::Run0 { .. } => {
                        if runs.is_empty() {
                            runs.push(Run::default());
                        }
                        runs[0].add_tables(out.tables.clone());
                    }
                    Placement::NewRun { index, .. } => {
                        runs.insert(index, Run::new(out.tables.clone()));
                    }
                }
            }
        }
        let written: u64 = out.tables.iter().map(|t| t.meta.data_bytes).sum();
        let input_entries: u64 = victims.iter().map(|t| t.meta.num_entries).sum();
        let victim_count = victims.len() as u64;
        self.commit_version(levels, &out.tables, victims, kind == JobKind::Drop)?;
        match kind {
            JobKind::Flush => {
                self.stats.flushes += 1;
                self.stats.bytes_flushed += written;
            }
            JobKind::Drop => self.stats.whole_file_drops += victim_count,
            JobKind::Compaction { .. } | JobKind::FullTree => {
                self.stats.compactions += 1;
                self.stats.entries_compacted += input_entries;
                self.stats.bytes_compacted += written;
                if kind == JobKind::FullTree {
                    self.stats.full_tree_compactions += 1;
                }
                if matches!(kind, JobKind::Compaction { ttl_trigger: true }) {
                    self.stats.ttl_triggered_compactions += 1;
                }
            }
        }
        // the slot is cleared only after the install, so a reader that
        // misses the buffer finds its entries on disk
        if let Some(buffer) = frozen {
            *self.mem.frozen.write() = None;
            if let Some(wal) = &self.wal {
                wal.truncate_prefix(buffer.wal_upto)?;
            }
        }
        Ok(true)
    }

    /// Releases the pages of a job output that will never be installed
    /// (skipping any page shared with a live, registered table).
    fn abort_output(&self, out: JobOutput) {
        for t in out.tables {
            self.versions.release_unregistered_pages(&t, self.backend.as_ref());
        }
    }

    /// Commits `levels` to the manifest; if the commit fails, the freshly
    /// built `new_tables` are released before the error propagates (the
    /// version is never installed, so nothing references their pages and
    /// they would otherwise leak until a reopen's unreferenced-page GC).
    fn commit_or_release(&mut self, levels: &[Level], new_tables: &[Arc<SsTable>]) -> Result<()> {
        match self.commit_manifest_for(levels) {
            Ok(()) => Ok(()),
            Err(e) => {
                for t in new_tables {
                    // skip pages shared with live tables: a secondary-delete
                    // replacement keeps the original's surviving pages, and
                    // the original is still installed after a failed commit
                    self.versions.release_unregistered_pages(t, self.backend.as_ref());
                }
                Err(e)
            }
        }
    }

    /// The shared commit tail of every structural change: manifest edit
    /// (releasing `new_tables` if it fails), page-reference registration,
    /// atomic version install, retirement of the replaced file objects, and
    /// a garbage-collection pass. Used by [`LsmTree::apply_job`] and by the
    /// secondary-delete page-drop path, so the commit ordering lives in
    /// exactly one place.
    ///
    /// `drop_job` arms the whole-file-drop kill points, so crash injection
    /// can land between the two durability steps of a drop: the manifest
    /// edit that forgets the files must be committed *before* their pages
    /// are retired — the reverse order could reclaim pages a recovered
    /// manifest still references.
    fn commit_version(
        &mut self,
        levels: Vec<Level>,
        new_tables: &[Arc<SsTable>],
        retired: Vec<Arc<SsTable>>,
        drop_job: bool,
    ) -> Result<()> {
        if let Some(fp) = self.failpoint.as_ref().filter(|_| drop_job) {
            fp.check("drop.commit")?;
        }
        self.commit_or_release(&levels, new_tables)?;
        if let Some(fp) = self.failpoint.as_ref().filter(|_| drop_job) {
            fp.check("drop.retire")?;
        }
        for t in new_tables {
            self.versions.register_table(t);
        }
        self.versions.install(levels);
        for t in retired {
            self.versions.retire_table(t);
        }
        self.versions.collect_garbage(self.backend.as_ref());
        Ok(())
    }

    // ---------------------------------------------------------- introspection

    /// Engine configuration.
    pub fn config(&self) -> &LsmConfig {
        &self.config
    }

    /// The logical clock driving TTLs and tombstone ages.
    pub fn clock(&self) -> &LogicalClock {
        &self.clock
    }

    /// Lifetime operation counters (write-side counters plus the lock-free
    /// read-side lookup counters, folded together).
    pub fn stats(&self) -> TreeStats {
        let mut s = self.stats.clone();
        s.point_lookups += self.counters.point_lookups.load(Ordering::Relaxed);
        s.range_lookups += self.counters.range_lookups.load(Ordering::Relaxed);
        s
    }

    /// Snapshot of the device's I/O counters, with the WAL's and the
    /// manifest's durability barriers folded into `fsyncs` (the backend
    /// counts its own).
    pub fn io_snapshot(&self) -> IoSnapshot {
        let mut snap = self.backend.stats().snapshot();
        if let Some(wal) = &self.wal {
            snap.fsyncs += wal.fsync_count();
        }
        if let Some(manifest) = &self.manifest {
            snap.fsyncs += manifest.fsync_count();
        }
        snap
    }

    /// Durability barriers issued by the attached WAL (0 without one).
    /// Group commit exists to keep this sublinear in the record count.
    pub fn wal_fsync_count(&self) -> u64 {
        self.wal.as_ref().map_or(0, |w| w.fsync_count())
    }

    /// The storage device the tree writes to.
    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.backend
    }

    /// The version set publishing the disk levels (white-box access for
    /// tests: install counts, pinned snapshots, garbage length).
    pub fn versions(&self) -> &Arc<VersionSet> {
        &self.versions
    }

    /// Number of disk levels currently allocated.
    pub fn level_count(&self) -> usize {
        self.versions.current().levels.len()
    }

    /// Number of files per level (index 0 = first disk level).
    pub fn files_per_level(&self) -> Vec<usize> {
        self.versions.current().levels.iter().map(|l| l.file_count()).collect()
    }

    /// Total entries currently stored on disk (including tombstones and
    /// stale versions).
    pub fn disk_entries(&self) -> u64 {
        self.versions.current().levels.iter().map(|l| l.total_entries()).sum()
    }

    /// Total bytes currently stored on disk.
    pub fn disk_bytes(&self) -> u64 {
        self.versions.current().levels.iter().map(|l| l.total_bytes()).sum()
    }

    /// Number of entries currently buffered in memory (active + frozen).
    pub fn buffered_entries(&self) -> usize {
        self.mem.active.read().len()
            + self.mem.frozen.read().as_ref().map(|f| f.len()).unwrap_or(0)
    }

    /// A copy of the current disk levels (used by policies' tests, KiWi
    /// planning and the benchmark harness for white-box inspection; the
    /// `Arc`-shared files make this cheap).
    pub fn levels(&self) -> Vec<Level> {
        self.versions.current().levels.clone()
    }

    /// Write amplification so far (paper §3.2.3): device bytes written beyond
    /// the bytes of new/modified data, relative to the latter.
    pub fn write_amplification(&self) -> f64 {
        self.stats().write_amplification(self.io_snapshot().bytes_written)
    }

    /// In-memory footprint of all filters and fence pointers, in bytes.
    pub fn metadata_footprint(&self) -> u64 {
        self.versions
            .current()
            .levels
            .iter()
            .flat_map(|l| l.all_tables())
            .map(|t| t.memory_footprint() as u64)
            .sum()
    }

    /// Produces a measurement-time snapshot of the tree contents: space
    /// amplification inputs, tombstone counts and tombstone-age distribution.
    ///
    /// Note: this reads every page of the tree through the backend, so take
    /// an [`LsmTree::io_snapshot`] *before* calling it if you are measuring
    /// I/O activity.
    pub fn snapshot_contents(&self) -> Result<ContentSnapshot> {
        let now = self.clock.now();
        let mut all: Vec<Entry> = Vec::new();
        let mut rts: Vec<Entry> = Vec::new();
        let mut tombstone_file_ages = Vec::new();
        let mut files = 0usize;
        let mut metadata_bytes = 0u64;
        let version = self.versions.current();
        for level in &version.levels {
            for run in &level.runs {
                for table in run.tables() {
                    files += 1;
                    metadata_bytes += table.memory_footprint() as u64;
                    if table.has_tombstones() {
                        tombstone_file_ages.push((table.tombstone_age(now), table.tombstone_count()));
                    }
                    all.extend(table.read_all_entries(self.backend.as_ref())?);
                    rts.extend(table.range_tombstones.iter().cloned());
                }
            }
        }
        // include the buffer (active + frozen)
        {
            let active = self.mem.active.read();
            all.extend(active.iter().cloned());
            rts.extend(active.range_tombstones().iter().cloned());
        }
        if let Some(f) = self.mem.frozen.read().as_ref() {
            all.extend(f.entries.iter().cloned());
            rts.extend(f.range_tombstones.iter().cloned());
        }

        let total_entries = (all.len() + rts.len()) as u64;
        let total_bytes: u64 = all.iter().map(|e| e.encoded_size() as u64).sum::<u64>()
            + rts.iter().map(|e| e.encoded_size() as u64).sum::<u64>();
        let tombstones =
            all.iter().filter(|e| e.is_tombstone()).count() as u64 + rts.len() as u64;

        let merged = merge_entries(vec![all], rts, true);
        let unique_entries = merged.entries.len() as u64;
        let unique_bytes: u64 = merged.entries.iter().map(|e| e.encoded_size() as u64).sum();

        Ok(ContentSnapshot {
            total_bytes,
            unique_bytes,
            total_entries,
            unique_entries,
            tombstones,
            tombstone_file_ages,
            populated_levels: version.levels.iter().filter(|l| !l.is_empty()).count(),
            files,
            metadata_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compaction::{FileSelection, SaturationPolicy};

    fn tree(config: LsmConfig) -> LsmTree {
        let backend = lethe_storage::InMemoryBackend::new_shared();
        LsmTree::new(
            config,
            backend,
            LogicalClock::new(),
            Box::new(SaturationPolicy::new(FileSelection::MinOverlap)),
        )
        .unwrap()
    }

    fn value(i: u64) -> Bytes {
        Bytes::from(format!("value-{i:08}"))
    }

    #[test]
    fn put_get_roundtrip_through_flushes() {
        let mut t = tree(LsmConfig::small_for_test());
        for k in 0..500u64 {
            t.put(k, k, value(k)).unwrap();
        }
        t.flush().unwrap();
        t.maintain().unwrap();
        for k in (0..500u64).step_by(7) {
            assert_eq!(t.get(k).unwrap(), Some(value(k)), "key {k}");
        }
        assert_eq!(t.get(10_000).unwrap(), None);
        assert!(t.level_count() >= 1);
        assert!(t.stats().flushes > 0);
    }

    #[test]
    fn write_batch_applies_all_ops_in_order() {
        let mut t = tree(LsmConfig::small_for_test());
        t.put(5, 50, value(5)).unwrap();
        let mut b = WriteBatch::new();
        b.put(1, 10, value(1)).put(2, 20, value(2)).delete(5).put(1, 11, value(100));
        t.write_batch(b).unwrap();
        // last op wins within the batch; the pre-existing key is deleted
        assert_eq!(t.get(1).unwrap(), Some(value(100)));
        assert_eq!(t.get(2).unwrap(), Some(value(2)));
        assert_eq!(t.get(5).unwrap(), None);
        // empty batches are free
        t.write_batch(WriteBatch::new()).unwrap();
        // batches survive flush + compaction churn
        for k in 100..600u64 {
            t.put(k, k, value(k)).unwrap();
        }
        t.flush().unwrap();
        t.maintain().unwrap();
        assert_eq!(t.get(1).unwrap(), Some(value(100)));
        assert_eq!(t.get(5).unwrap(), None);
    }

    #[test]
    fn write_batch_secondary_delete_purges_range() {
        let mut t = tree(LsmConfig::small_for_test());
        for k in 0..20u64 {
            t.put(k, k, value(k)).unwrap();
        }
        let mut b = WriteBatch::new();
        b.secondary_range_delete(0, 10).put(50, 5, value(50));
        t.write_batch(b).unwrap();
        for k in 0..10u64 {
            assert_eq!(t.get(k).unwrap(), None, "delete key {k} in purge range");
        }
        assert_eq!(t.get(15).unwrap(), Some(value(15)));
        // the put rides in the same batch even though its delete key (5)
        // falls in the purged range: ops apply in order
        assert_eq!(t.get(50).unwrap(), Some(value(50)));
    }

    #[test]
    fn batches_replay_from_wal_and_respect_commit_filter() {
        use lethe_storage::MemWal;
        let wal = MemWal::new();
        // stage one local batch (commit point = the frame) and one prepared
        // cross-shard slice for an id that never committed
        {
            let t = tree(LsmConfig::small_for_test());
            let mut t = t.with_wal(Box::new(MemWal::new()));
            let mut b = WriteBatch::new();
            b.put(1, 10, value(1)).delete(2);
            t.write_batch(b).unwrap();
            // copy the records into the outer wal plus an uncommitted slice
            for r in t.wal.as_ref().unwrap().replay().unwrap() {
                wal.append(r).unwrap();
            }
            wal.append(WalRecord::Batch {
                id: Some(99),
                ops: vec![BatchOp::Put { sort_key: 7, delete_key: 70, value: value(7) }],
                ts: 1,
            })
            .unwrap();
            wal.append(WalRecord::Batch {
                id: Some(100),
                ops: vec![BatchOp::Put { sort_key: 8, delete_key: 80, value: value(8) }],
                ts: 2,
            })
            .unwrap();
        }
        let mut t = tree(LsmConfig::small_for_test());
        t.set_committed_batches([100u64].into_iter().collect());
        let replayed = t.recover_from(&wal).unwrap();
        assert_eq!(replayed, 3);
        assert_eq!(t.get(1).unwrap(), Some(value(1)));
        assert_eq!(t.get(2).unwrap(), None);
        assert_eq!(t.get(7).unwrap(), None, "uncommitted prepared slice must roll back");
        assert_eq!(t.get(8).unwrap(), Some(value(8)), "committed slice must apply");
    }

    #[test]
    fn shared_seqnum_allocator_spans_trees() {
        let alloc = Arc::new(AtomicU64::new(1));
        let mut a =
            tree(LsmConfig::small_for_test()).with_seqnum_allocator(Arc::clone(&alloc));
        let mut b =
            tree(LsmConfig::small_for_test()).with_seqnum_allocator(Arc::clone(&alloc));
        a.put(1, 1, value(1)).unwrap();
        b.put(2, 2, value(2)).unwrap();
        a.put(3, 3, value(3)).unwrap();
        assert_eq!(alloc.load(Ordering::Relaxed), 4, "three writes drew three seqnums");
    }

    #[test]
    fn updates_return_newest_value() {
        let mut t = tree(LsmConfig::small_for_test());
        for k in 0..200u64 {
            t.put(k, k, value(k)).unwrap();
        }
        for k in 0..200u64 {
            t.put(k, k, Bytes::from(format!("new-{k}"))).unwrap();
        }
        t.flush().unwrap();
        for k in (0..200u64).step_by(11) {
            assert_eq!(t.get(k).unwrap(), Some(Bytes::from(format!("new-{k}"))));
        }
    }

    #[test]
    fn point_delete_hides_key_everywhere() {
        let mut t = tree(LsmConfig::small_for_test());
        for k in 0..300u64 {
            t.put(k, k, value(k)).unwrap();
        }
        t.flush().unwrap();
        t.maintain().unwrap();
        for k in (0..300u64).step_by(3) {
            t.delete(k).unwrap();
        }
        // visible immediately (from the buffer)
        assert_eq!(t.get(0).unwrap(), None);
        assert_eq!(t.get(3).unwrap(), None);
        assert_eq!(t.get(1).unwrap(), Some(value(1)));
        // and still deleted after flush + compaction
        t.flush().unwrap();
        t.maintain().unwrap();
        assert_eq!(t.get(0).unwrap(), None);
        assert_eq!(t.get(299).unwrap(), Some(value(299)));
    }

    #[test]
    fn range_delete_on_sort_key() {
        let mut t = tree(LsmConfig::small_for_test());
        for k in 0..200u64 {
            t.put(k, k, value(k)).unwrap();
        }
        t.flush().unwrap();
        t.delete_range(50, 100).unwrap();
        assert_eq!(t.get(49).unwrap(), Some(value(49)));
        assert_eq!(t.get(50).unwrap(), None);
        assert_eq!(t.get(99).unwrap(), None);
        assert_eq!(t.get(100).unwrap(), Some(value(100)));
        // after flush and compaction the result is identical
        t.flush().unwrap();
        t.maintain().unwrap();
        assert_eq!(t.get(75).unwrap(), None);
        let live = t.range(0, 200).unwrap();
        assert_eq!(live.len(), 150);
        // empty range delete is a no-op
        t.delete_range(10, 10).unwrap();
        assert_eq!(t.get(10).unwrap(), Some(value(10)));
    }

    #[test]
    fn range_scan_merges_memtable_and_disk() {
        let mut t = tree(LsmConfig::small_for_test());
        for k in 0..100u64 {
            t.put(k, k, value(k)).unwrap();
        }
        t.flush().unwrap();
        // overwrite some keys in the buffer only
        for k in 40..60u64 {
            t.put(k, k, Bytes::from_static(b"fresh")).unwrap();
        }
        let got = t.range(30, 70).unwrap();
        assert_eq!(got.len(), 40);
        for (k, v) in got {
            if (40..60).contains(&k) {
                assert_eq!(v, Bytes::from_static(b"fresh"));
            } else {
                assert_eq!(v, value(k));
            }
        }
    }

    #[test]
    fn tree_grows_levels_under_load() {
        let mut cfg = LsmConfig::small_for_test();
        cfg.size_ratio = 3;
        let mut t = tree(cfg);
        for k in 0..3000u64 {
            t.put(k % 1000, k, value(k)).unwrap();
        }
        t.flush().unwrap();
        t.maintain().unwrap();
        assert!(t.level_count() >= 2, "levels: {}", t.level_count());
        assert!(t.stats().compactions > 0);
        assert!(t.write_amplification() > 0.0);
        assert!(t.disk_entries() > 0);
        assert!(t.disk_bytes() > 0);
        assert!(t.metadata_footprint() > 0);
    }

    #[test]
    fn tiering_keeps_multiple_runs() {
        let mut cfg = LsmConfig::small_for_test();
        cfg.merge_policy = MergePolicy::Tiering;
        cfg.size_ratio = 4;
        let mut t = tree(cfg);
        for k in 0..2000u64 {
            t.put(k % 500, k, value(k)).unwrap();
        }
        t.flush().unwrap();
        t.maintain().unwrap();
        for k in (0..500u64).step_by(13) {
            assert!(t.get(k).unwrap().is_some(), "key {k}");
        }
        assert!(t.stats().compactions > 0);
    }

    #[test]
    fn secondary_range_delete_with_page_drops() {
        let mut cfg = LsmConfig::small_for_test();
        cfg.pages_per_delete_tile = 4;
        cfg.max_pages_per_file = 8;
        cfg.secondary_delete_mode = SecondaryDeleteMode::KiwiPageDrops;
        let mut t = tree(cfg);
        // delete key is decorrelated from sort key
        for k in 0..1000u64 {
            t.put(k, (k * 7919) % 10_000, value(k)).unwrap();
        }
        t.flush().unwrap();
        t.maintain().unwrap();
        let stats = t.secondary_range_delete(0, 5_000).unwrap();
        assert!(stats.entries_deleted > 300, "{stats:?}");
        assert!(stats.full_page_drops > 0, "{stats:?}");
        // all surviving entries have delete keys outside the range
        let survivors = t.secondary_range_scan(0, 10_000).unwrap();
        assert!(survivors.iter().all(|e| e.delete_key >= 5_000));
        // point lookups agree
        for k in 0..1000u64 {
            let deleted = (k * 7919) % 10_000 < 5_000;
            assert_eq!(t.get(k).unwrap().is_none(), deleted, "key {k}");
        }
    }

    #[test]
    fn secondary_range_delete_with_full_compaction_baseline() {
        let mut cfg = LsmConfig::small_for_test();
        cfg.secondary_delete_mode = SecondaryDeleteMode::FullTreeCompaction;
        let mut t = tree(cfg);
        for k in 0..500u64 {
            t.put(k, (k * 31) % 1000, value(k)).unwrap();
        }
        t.flush().unwrap();
        let before = t.stats().full_tree_compactions;
        let stats = t.secondary_range_delete(0, 500).unwrap();
        assert_eq!(t.stats().full_tree_compactions, before + 1);
        assert!(stats.entries_deleted > 100);
        for k in 0..500u64 {
            let deleted = (k * 31) % 1000 < 500;
            assert_eq!(t.get(k).unwrap().is_none(), deleted, "key {k}");
        }
    }

    #[test]
    fn blind_delete_suppression() {
        let mut cfg = LsmConfig::small_for_test();
        cfg.suppress_blind_deletes = true;
        let mut t = tree(cfg);
        for k in 0..100u64 {
            t.put(k, k, value(k)).unwrap();
        }
        t.flush().unwrap();
        // deleting an existing key inserts a tombstone
        assert!(t.delete(5).unwrap());
        // deleting a key that never existed is suppressed
        assert!(!t.delete(1_000_000).unwrap());
        assert_eq!(t.stats().blind_deletes_suppressed, 1);
        assert_eq!(t.get(5).unwrap(), None);
    }

    #[test]
    fn force_full_compaction_collapses_tree() {
        let mut cfg = LsmConfig::small_for_test();
        cfg.size_ratio = 3;
        let mut t = tree(cfg);
        for k in 0..2000u64 {
            t.put(k % 700, k, value(k)).unwrap();
        }
        for k in (0..700u64).step_by(2) {
            t.delete(k).unwrap();
        }
        t.flush().unwrap();
        t.maintain().unwrap();
        t.force_full_compaction().unwrap();
        let snap = t.snapshot_contents().unwrap();
        // a full compaction persists every delete: no tombstones remain
        assert_eq!(snap.tombstones, 0);
        assert_eq!(snap.populated_levels, 1);
        // and queries still work
        assert!(t.get(1).unwrap().is_some());
        assert_eq!(t.get(0).unwrap(), None);
    }

    #[test]
    fn snapshot_reports_space_amplification() {
        let mut t = tree(LsmConfig::small_for_test());
        for k in 0..400u64 {
            t.put(k % 100, k, value(k)).unwrap();
        }
        t.flush().unwrap();
        let snap = t.snapshot_contents().unwrap();
        assert_eq!(snap.unique_entries, 100);
        assert!(snap.total_entries >= snap.unique_entries);
        assert!(snap.space_amplification() >= 0.0);
        assert!(snap.files > 0);
    }

    #[test]
    fn wal_recovery_restores_unflushed_writes() {
        // large buffer so nothing is flushed (and the WAL never truncated):
        // the whole working set must be recoverable from the log alone
        let mut cfg = LsmConfig::small_for_test();
        cfg.buffer_pages = 1024;
        let wal = std::sync::Arc::new(lethe_storage::MemWal::new());

        struct SharedWal(std::sync::Arc<lethe_storage::MemWal>);
        impl Wal for SharedWal {
            fn append(&self, r: WalRecord) -> Result<()> {
                self.0.append(r)
            }
            fn replay(&self) -> Result<Vec<WalRecord>> {
                self.0.replay()
            }
            fn truncate(&self) -> Result<()> {
                self.0.truncate()
            }
            fn sync(&self) -> Result<()> {
                self.0.sync()
            }
            fn purge_older_than(&self, cutoff: Timestamp) -> Result<usize> {
                self.0.purge_older_than(cutoff)
            }
        }

        let mut t = tree(cfg.clone()).with_wal(Box::new(SharedWal(std::sync::Arc::clone(&wal))));
        for k in 0..50u64 {
            t.put(k, k, value(k)).unwrap();
        }
        t.delete(7).unwrap();
        // simulate a crash: build a fresh tree and replay the WAL
        let mut recovered = tree(cfg);
        let replayed = recovered.recover_from(wal.as_ref()).unwrap();
        assert_eq!(replayed, 51);
        assert_eq!(recovered.get(3).unwrap(), Some(value(3)));
        assert_eq!(recovered.get(7).unwrap(), None);
    }

    #[test]
    fn wal_replay_preserves_tombstones_stats_and_timestamps() {
        // regression: the old replay path went through the public put/delete
        // API, so blind-delete suppression could drop a legitimately logged
        // tombstone, ingest stats were double-counted across restarts, and
        // replayed records were re-stamped by the ingest clock
        let mut cfg = LsmConfig::small_for_test();
        cfg.buffer_pages = 1024;
        cfg.suppress_blind_deletes = true;
        let wal = lethe_storage::MemWal::new();
        // a tombstone whose key was flushed before the crash: the reopened
        // buffer has no trace of it, so the public path would call it blind
        wal.append(WalRecord::Delete { sort_key: 5, ts: 12_345 }).unwrap();
        wal.append(WalRecord::Put {
            sort_key: 6,
            delete_key: 6,
            value: Bytes::from_static(b"v"),
            ts: 12_400,
        })
        .unwrap();
        let mut t = tree(cfg);
        assert_eq!(t.recover_from(&wal).unwrap(), 2);
        // the logged tombstone survives replay
        assert_eq!(t.buffered_entries(), 2);
        assert_eq!(t.get(5).unwrap(), None);
        assert_eq!(t.get(6).unwrap(), Some(Bytes::from_static(b"v")));
        // ingest statistics are not re-counted
        assert_eq!(t.stats().entries_ingested, 0);
        assert_eq!(t.stats().point_deletes_issued, 0);
        assert_eq!(t.stats().blind_deletes_suppressed, 0);
        // the clock sits at the logged watermark, not a re-stamped one
        assert_eq!(t.clock().now(), 12_400);
    }

    #[test]
    fn manifest_recovery_restores_flushed_tree() {
        use lethe_storage::{FileBackend, FileWal, Manifest};
        let dir = std::env::temp_dir().join(format!("lethe-tree-rec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = LsmConfig::small_for_test();
        cfg.size_ratio = 3;
        let open = |cfg: &LsmConfig| -> (LsmTree, FileWal) {
            let backend = Arc::new(FileBackend::open(&dir).unwrap());
            let wal = FileWal::open(dir.join("lethe.wal")).unwrap();
            let manifest = Manifest::open(dir.join("lethe.manifest")).unwrap();
            let t = LsmTree::new(
                cfg.clone(),
                backend,
                LogicalClock::new(),
                Box::new(crate::compaction::SaturationPolicy::new(
                    crate::compaction::FileSelection::MinOverlap,
                )),
            )
            .unwrap()
            .with_manifest(manifest);
            (t, wal)
        };
        let (files_before, seq_hwm);
        {
            let (mut t, wal) = open(&cfg);
            t.recover(&wal).unwrap();
            let mut t = t.with_wal(Box::new(wal));
            for k in 0..2000u64 {
                t.put(k % 700, k, value(k)).unwrap();
            }
            for k in (0..700u64).step_by(5) {
                t.delete(k).unwrap();
            }
            t.flush().unwrap();
            t.maintain().unwrap();
            files_before = t.files_per_level();
            seq_hwm = t.next_seqnum.load(Ordering::Relaxed);
            assert!(t.level_count() >= 2, "need a multi-level tree to make this meaningful");
        }
        {
            let (mut t, wal) = open(&cfg);
            let report = t.recover(&wal).unwrap();
            assert_eq!(report.files_recovered, files_before.iter().sum::<usize>());
            assert_eq!(t.files_per_level(), files_before);
            assert!(
                t.next_seqnum.load(Ordering::Relaxed) >= seq_hwm,
                "seqnums must not regress across restarts"
            );
            for k in 0..700u64 {
                let expect_deleted = k % 5 == 0;
                let got = t.get(k).unwrap();
                if expect_deleted {
                    assert_eq!(got, None, "key {k} should stay deleted after recovery");
                } else {
                    let newest = (0..2000u64).filter(|v| v % 700 == k).max().unwrap();
                    assert_eq!(got, Some(value(newest)), "key {k}");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clock_advances_with_ingestion() {
        let mut cfg = LsmConfig::small_for_test();
        cfg.ingestion_rate = 1000; // 1000 entries/s → 1ms per entry
        let mut t = tree(cfg);
        for k in 0..100u64 {
            t.put(k, k, value(k)).unwrap();
        }
        assert_eq!(t.clock().now(), 100_000);
    }

    #[test]
    fn frozen_buffer_stays_readable_until_version_installed() {
        // background mode: a full buffer is only frozen; every write must
        // stay visible from the reader between freeze and flush
        let mut t = tree(LsmConfig::small_for_test());
        t.set_maintenance_mode(MaintenanceMode::Background);
        let reader = t.reader();
        for k in 0..200u64 {
            t.put(k, k, value(k)).unwrap();
        }
        assert!(t.has_frozen(), "filling the buffer in background mode must freeze it");
        for k in (0..200u64).step_by(17) {
            assert_eq!(reader.get(k).unwrap(), Some(value(k)), "key {k} invisible while frozen");
        }
        // the worker-equivalent cycle: plan → execute (lock-free) → apply
        while let Some(plan) = t.plan_job(true) {
            let ctx = t.build_ctx();
            let out = plan.execute(&ctx).unwrap();
            assert!(t.apply_job(plan, out).unwrap());
        }
        assert!(!t.has_frozen());
        assert!(t.level_count() >= 1);
        for k in (0..200u64).step_by(17) {
            assert_eq!(reader.get(k).unwrap(), Some(value(k)), "key {k} lost by flush");
        }
    }

    #[test]
    fn pinned_snapshot_survives_full_compaction() {
        let mut cfg = LsmConfig::small_for_test();
        cfg.size_ratio = 3;
        let mut t = tree(cfg);
        for k in 0..1000u64 {
            t.put(k % 300, k, value(k)).unwrap();
        }
        t.flush().unwrap();
        t.maintain().unwrap();
        let reader = t.reader();
        let pinned = reader.pin_version();
        let files_before: usize = pinned.levels.iter().map(|l| l.file_count()).sum();
        assert!(files_before > 0);
        // rewrite the whole tree under the pin
        t.force_full_compaction().unwrap();
        // the pinned version still reads every page it references
        for level in &pinned.levels {
            for run in &level.runs {
                for table in run.tables() {
                    table.read_all_entries(t.backend().as_ref()).unwrap();
                }
            }
        }
        assert!(t.versions().garbage_len() > 0, "replaced files must await the pin");
        drop(pinned);
        t.versions().collect_garbage(t.backend().as_ref());
        assert_eq!(t.versions().garbage_len(), 0);
    }

    #[test]
    fn iter_range_streams_a_stable_snapshot_through_maintenance() {
        let mut t = tree(LsmConfig::small_for_test());
        for k in 0..300u64 {
            t.put(k, k, value(k)).unwrap();
        }
        t.flush().unwrap();
        t.maintain().unwrap();
        let reader = t.reader();
        let expected = reader.range(50, 250).unwrap();
        let mut iter = reader.iter_range(50, 250).unwrap();
        let mut got: Vec<(SortKey, Bytes)> = Vec::new();
        for _ in 0..20 {
            got.push(iter.next().unwrap().unwrap());
        }
        // restructure the whole tree mid-iteration: deletes, a flush and a
        // full compaction retire every file the iterator still has to read
        for k in (0..300u64).step_by(3) {
            t.delete(k).unwrap();
        }
        t.flush().unwrap();
        t.force_full_compaction().unwrap();
        got.extend(iter.map(|r| r.unwrap()));
        assert_eq!(got, expected, "a live iterator must stream its creation-time snapshot");
        // a scan opened now observes the deletes
        let after = reader.range(50, 250).unwrap();
        assert!(after.len() < expected.len());
        // and dropping the iterator released its version pin: the retired
        // files become reclaimable
        t.versions().collect_garbage(t.backend().as_ref());
        assert_eq!(t.versions().garbage_len(), 0);
    }

    #[test]
    fn capture_with_occupied_frozen_slot_stays_frozen() {
        // everything a captured reader returns, in one comparable value
        type View = (
            Vec<Option<Bytes>>,
            Vec<(SortKey, Bytes)>,
            Vec<(SortKey, Bytes)>,
            Vec<Entry>,
            Vec<Entry>,
            Vec<Entry>,
            Option<Timestamp>,
        );
        fn view(r: &TreeReader) -> View {
            let gets = (0..300u64).chain([1000, 1001, 2000]).map(|k| r.get(k).unwrap()).collect();
            let mut merge = r.entry_merge().unwrap();
            let mut stream = Vec::new();
            while let Some(e) = merge.next_merged().unwrap() {
                stream.push(e);
            }
            (
                gets,
                r.range(0, 5000).unwrap(),
                r.iter_range(0, 5000).unwrap().collect::<Result<Vec<_>>>().unwrap(),
                r.secondary_range_scan(0, 5000).unwrap(),
                stream,
                r.all_range_tombstones(),
                r.oldest_tombstone_ts(),
            )
        }

        let mut cfg = LsmConfig::small_for_test();
        cfg.secondary_delete_mode = SecondaryDeleteMode::KiwiPageDrops;
        let mut t = tree(cfg);
        for k in 0..200u64 {
            t.put(k, k, value(k)).unwrap();
        }
        t.flush().unwrap();
        t.maintain().unwrap();
        // no worker: a full buffer freezes and stays frozen
        t.set_maintenance_mode(MaintenanceMode::Background);
        t.delete_range(10, 20).unwrap();
        let first_tombstone_ts = t.clock().now();
        t.delete(30).unwrap();
        let mut k = 1000u64;
        while !t.has_frozen() {
            t.put(k, k, value(k)).unwrap();
            k += 1;
        }
        // the active buffer shadows disk keys too
        t.delete_range(40, 50).unwrap();
        t.delete(60).unwrap();
        t.put(70, 70, value(7070)).unwrap();
        t.put(2000, 2000, value(2000)).unwrap();
        assert!(t.has_frozen());

        let snap = t.capture_snapshot();
        let captured = view(&snap);
        assert_eq!(captured.0[15], None);
        assert_eq!(captured.0[30], None);
        assert_eq!(captured.0[45], None);
        assert_eq!(captured.0[60], None);
        assert_eq!(captured.0[70], Some(value(7070)));
        assert_eq!(captured.0[100], Some(value(100)));
        assert_eq!(captured.5.len(), 2);
        assert_eq!(captured.6, Some(first_tombstone_ts));

        // purge the frozen buffer in place, then drain the pending flush
        // the way the worker does and keep restructuring the tree
        t.secondary_range_delete(100, 1500).unwrap();
        while let Some(plan) = t.plan_job(true) {
            let ctx = t.build_ctx();
            let out = plan.execute(&ctx).unwrap();
            t.apply_job(plan, out).unwrap();
        }
        assert!(!t.has_frozen());
        for k in 0..100u64 {
            t.delete(k).unwrap();
        }
        t.delete_range(0, 5000).unwrap();
        t.put(5, 5, value(555)).unwrap();
        t.flush().unwrap();
        t.force_full_compaction().unwrap();
        t.versions().collect_garbage(t.backend().as_ref());
        assert_eq!(t.get(100).unwrap(), None);
        assert_eq!(t.get(5).unwrap(), Some(value(555)));

        assert!(view(&snap) == captured, "a captured reader must keep its capture-time view");
    }

    #[test]
    fn write_stall_signal_tracks_frozen_and_full_buffer() {
        let mut t = tree(LsmConfig::small_for_test());
        t.set_maintenance_mode(MaintenanceMode::Background);
        assert!(!t.write_stalled());
        for k in 0..200u64 {
            t.put(k, k, value(k)).unwrap();
        }
        assert!(t.has_frozen());
        // keep writing without a worker: active fills up again → stall
        for k in 200..400u64 {
            t.put(k, k, value(k)).unwrap();
        }
        assert!(t.write_stalled());
        t.flush().unwrap();
        assert!(!t.write_stalled());
        assert_eq!(t.range(0, 400).unwrap().len(), 400);
    }

    /// A background-mode tree with KiWi page drops and delete key = sort
    /// key, so `secondary_range_delete(lo, hi)` deletes keys `lo..hi`.
    fn kiwi_background_tree() -> LsmTree {
        let mut cfg = LsmConfig::small_for_test();
        cfg.secondary_delete_mode = SecondaryDeleteMode::KiwiPageDrops;
        let mut t = tree(cfg);
        t.set_maintenance_mode(MaintenanceMode::Background);
        t
    }

    /// Runs plan → execute → apply until no work is left, as the worker
    /// does, requiring every fresh plan to apply.
    fn drain_jobs(t: &mut LsmTree) {
        while let Some(plan) = t.plan_job(true) {
            let out = plan.execute(&t.build_ctx()).unwrap();
            assert!(t.apply_job(plan, out).unwrap(), "a fresh plan must apply");
        }
    }

    #[test]
    fn flush_plan_made_stale_by_a_frozen_buffer_purge_is_refused() {
        let mut t = kiwi_background_tree();
        let mut n = 0u64;
        while !t.has_frozen() {
            t.put(n, n, value(n)).unwrap();
            n += 1;
        }
        assert!(n <= 100, "the frozen buffer must lie inside the deleted range");
        let plan = t.plan_job(true).expect("a frozen buffer is waiting");
        let pages_before = t.backend().live_pages();
        let out = plan.execute(&t.build_ctx()).unwrap();
        // the purge rewrites the frozen slot by copy-on-write: the plan still
        // holds the pre-delete buffer, whose flush would resurrect the keys
        t.secondary_range_delete(0, 100).unwrap();
        assert!(!t.apply_job(plan, out).unwrap(), "a stale flush plan must be refused");
        assert_eq!(t.backend().live_pages(), pages_before, "the refused output leaked pages");
        drain_jobs(&mut t);
        for k in 0..n {
            assert_eq!(t.get(k).unwrap(), None, "key {k} resurrected");
        }
    }

    #[test]
    fn compaction_plan_made_stale_by_an_install_is_refused() {
        let mut t = kiwi_background_tree();
        let mut n = 0u64;
        let plan = loop {
            t.put(n, n, value(n)).unwrap();
            n += 1;
            if t.has_frozen() {
                t.flush().unwrap();
                if let Some(plan) = t.plan_job(false) {
                    break plan;
                }
            }
        };
        let pages_before = t.backend().live_pages();
        let out = plan.execute(&t.build_ctx()).unwrap();
        let written = t.backend().live_pages() - pages_before;
        // a partial KiWi delete replaces the touched file under its old id,
        // so only the install generation shows that the plan's victim is
        // out of date; merging the pre-delete pages would resurrect keys
        t.secondary_range_delete(5, 15).unwrap();
        let after_delete = t.backend().live_pages();
        assert!(!t.apply_job(plan, out).unwrap(), "a stale compaction plan must be refused");
        assert_eq!(t.backend().live_pages(), after_delete - written, "the refused output leaked pages");
        drain_jobs(&mut t);
        for k in 0..n {
            let expected = if (5..15).contains(&k) { None } else { Some(value(k)) };
            assert_eq!(t.get(k).unwrap(), expected, "key {k}");
        }
    }
}
