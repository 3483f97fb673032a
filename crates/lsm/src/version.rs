//! Immutable version sets: snapshot-isolated views of the on-device tree.
//!
//! The tree's disk levels are published as an immutable [`Version`] behind an
//! `Arc`. Readers *pin* the current version (one `Arc` clone under a brief
//! read lock) and then walk levels, runs and files without any further
//! synchronisation — a concurrently running flush or compaction builds a new
//! `Vec<Level>` (structure copied, files shared by `Arc`) and *installs* it
//! with a single pointer swap. A reader therefore always observes either the
//! complete pre-compaction tree or the complete post-compaction tree, never a
//! half-committed mixture.
//!
//! ## Deferred page reclamation
//!
//! Under the old inline design a compaction dropped its input pages the
//! moment the merge finished. With pinned snapshots that would be a
//! use-after-free: a reader holding the previous version could still need
//! those pages. Two mechanisms work together instead:
//!
//! * Obsolete files are *retired* into a garbage list when the version that
//!   removed them is installed; a retired file is only processed once the
//!   garbage list holds its last strong reference (no installed version or
//!   pinned snapshot can reach it any more).
//! * Device pages are **reference-counted across file generations**. A
//!   secondary range delete replaces a file with a new `SsTable` object that
//!   *shares* the surviving pages with the original, so the same page can be
//!   reachable from several table objects across versions. Every table
//!   increments its pages' counts when it enters the version set
//!   ([`VersionSet::register_table`]) and decrements them when its garbage
//!   entry is processed; a page is dropped exactly when its count reaches
//!   zero.

use crate::level::Level;
use crate::reclaim;
use crate::sstable::SsTable;
use lethe_storage::{PageId, SortKey, StorageBackend};
use lethe_sync::{LockRank, Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An immutable snapshot of the tree's disk levels.
///
/// `levels[0]` is the first disk level ("Level 1" of the paper). The
/// structure is never mutated after installation; files are shared with
/// other versions through `Arc<SsTable>`.
#[derive(Debug, Default)]
pub struct Version {
    /// Disk levels of this snapshot.
    pub levels: Vec<Level>,
}

impl Version {
    /// An empty tree.
    pub fn empty() -> Self {
        Version::default()
    }

    /// Index of the deepest level that currently holds data, if any.
    pub fn deepest_nonempty_level(&self) -> Option<usize> {
        (0..self.levels.len()).rev().find(|&i| !self.levels[i].is_empty())
    }

    /// Number of runs in the first disk level (the write-backpressure
    /// signal: flushed-but-not-yet-compacted buffers pile up here).
    pub fn l0_run_count(&self) -> usize {
        self.levels.first().map(|l| l.run_count()).unwrap_or(0)
    }

    /// Every file whose sort-key range overlaps `[lo, hi)`, in read
    /// precedence order (shallowest level first, newest run first). The
    /// source order a range scan's merge requires: when two files hold the
    /// same `(key, seqnum)` — a flush racing its own install — the earlier
    /// (newer) source must win.
    pub fn overlapping_tables(&self, lo: SortKey, hi: SortKey) -> Vec<Arc<SsTable>> {
        let mut out = Vec::new();
        for level in &self.levels {
            for run in &level.runs {
                for table in run.tables() {
                    if table.overlaps_sort_range(lo, hi) {
                        out.push(Arc::clone(table));
                    }
                }
            }
        }
        out
    }
}

/// The shared, swappable pointer to the current [`Version`] plus the garbage
/// list of retired files and the cross-generation page reference counts.
#[derive(Debug)]
pub struct VersionSet {
    current: RwLock<Arc<Version>>,
    garbage: Mutex<Vec<Arc<SsTable>>>,
    /// How many *table objects* (across all versions, pinned snapshots and
    /// the garbage list) reference each live page. Maintained by
    /// [`VersionSet::register_table`] / garbage collection.
    page_refs: Mutex<HashMap<PageId, u32>>,
    installs: AtomicU64,
}

impl Default for VersionSet {
    fn default() -> Self {
        Self::new()
    }
}

impl VersionSet {
    /// Creates a version set holding an empty tree.
    pub fn new() -> Self {
        Self::pinned(Arc::new(Version::empty()))
    }

    /// Creates a version set whose current version is `version`. Nothing
    /// installs into a captured snapshot's set, so it pins that version for
    /// as long as it lives.
    pub fn pinned(version: Arc<Version>) -> Self {
        VersionSet {
            current: RwLock::new(LockRank::VersionCurrent, version),
            garbage: Mutex::new(LockRank::VersionGarbage, Vec::new()),
            page_refs: Mutex::new(LockRank::PageRefs, HashMap::new()),
            installs: AtomicU64::new(0),
        }
    }

    /// Pins the current version: the returned snapshot stays fully readable
    /// (including its device pages) until dropped, regardless of concurrent
    /// flushes and compactions.
    pub fn current(&self) -> Arc<Version> {
        Arc::clone(&self.current.read())
    }

    /// Atomically publishes `levels` as the new current version. Readers
    /// pinning concurrently observe either the old or the new version in its
    /// entirety.
    pub fn install(&self, levels: Vec<Level>) {
        let next = Arc::new(Version { levels });
        *self.current.write() = next;
        self.installs.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of versions installed so far (diagnostic).
    pub fn installs(&self) -> u64 {
        self.installs.load(Ordering::Relaxed)
    }

    /// Accounts for a table entering the version set (a freshly built or
    /// recovered file, or a secondary-delete replacement that shares pages
    /// with the file it replaces): each of its pages gains one reference.
    /// Must be called exactly once per table object before the version
    /// containing it is installed.
    pub fn register_table(&self, table: &SsTable) {
        let mut refs = self.page_refs.lock();
        for tile in &table.tiles {
            for handle in &tile.pages {
                *refs.entry(handle.id).or_insert(0) += 1;
            }
        }
    }

    /// Retires a table object that the just-installed version no longer
    /// references. Its pages' reference counts are released — and the pages
    /// dropped when unshared — once no installed version or pinned snapshot
    /// holds the table any more.
    pub fn retire_table(&self, table: Arc<SsTable>) {
        self.garbage.lock().push(table);
    }

    /// Processes every retired table that no installed version or pinned
    /// snapshot references any more: each of its pages loses one reference,
    /// and pages reaching zero are released on the device. Returns how many
    /// garbage entries were processed. Errors from already-missing pages are
    /// ignored (reclamation is idempotent across recovery).
    pub fn collect_garbage(&self, backend: &dyn StorageBackend) -> usize {
        let mut garbage = self.garbage.lock();
        let mut refs = self.page_refs.lock();
        let mut reclaimed = 0;
        garbage.retain(|table| {
            // strong_count == 1 ⇒ the garbage list holds the only reference:
            // the file is in no version, and no reader pins a version that
            // contains it. Nobody can clone the Arc back up from here (the
            // list is behind this mutex), so the check cannot race.
            if Arc::strong_count(table) == 1 {
                for tile in &table.tiles {
                    for handle in &tile.pages {
                        match refs.get_mut(&handle.id) {
                            Some(n) if *n > 1 => *n -= 1,
                            _ => {
                                refs.remove(&handle.id);
                                reclaim::retire_page(backend, handle.id);
                            }
                        }
                    }
                }
                reclaimed += 1;
                false
            } else {
                true
            }
        });
        reclaimed
    }

    /// Number of retired files still awaiting reclamation (diagnostic).
    pub fn garbage_len(&self) -> usize {
        self.garbage.lock().len()
    }

    /// Releases the pages of a table that never entered the version set
    /// (a job output whose commit failed, or a stale plan's output),
    /// skipping pages shared with *registered* tables — a secondary-delete
    /// replacement shares its surviving pages with the still-installed
    /// original, and those must survive the abort.
    pub fn release_unregistered_pages(&self, table: &SsTable, backend: &dyn StorageBackend) {
        let refs = self.page_refs.lock();
        for tile in &table.tiles {
            for handle in &tile.pages {
                if !refs.contains_key(&handle.id) {
                    reclaim::retire_page(backend, handle.id);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LsmConfig;
    use crate::level::Run;
    use bytes::Bytes;
    use lethe_storage::{Entry, InMemoryBackend};

    fn table(id: u64, backend: &InMemoryBackend) -> Arc<SsTable> {
        let cfg = LsmConfig::small_for_test();
        let entries: Vec<Entry> =
            (0..8u64).map(|k| Entry::put(k, k, k + 1, Bytes::from_static(b"v"))).collect();
        Arc::new(SsTable::build(id, entries, vec![], 0, None, &cfg, backend).unwrap())
    }

    fn page_ids(t: &SsTable) -> Vec<u64> {
        t.tiles.iter().flat_map(|tile| tile.pages.iter().map(|p| p.id)).collect()
    }

    #[test]
    fn install_swaps_atomically_and_old_pin_stays_readable() {
        let backend = InMemoryBackend::new_shared();
        let vs = VersionSet::new();
        let t1 = table(1, &backend);
        vs.register_table(&t1);
        let mut l0 = Level::new();
        l0.runs.push(Run::new(vec![Arc::clone(&t1)]));
        vs.install(vec![l0]);
        assert_eq!(vs.installs(), 1);

        let pinned = vs.current();
        assert_eq!(pinned.levels[0].file_count(), 1);

        // a "compaction" replaces the file with a new one
        let t2 = table(2, &backend);
        vs.register_table(&t2);
        let mut l0 = Level::new();
        l0.runs.push(Run::new(vec![Arc::clone(&t2)]));
        vs.install(vec![l0]);
        vs.retire_table(Arc::clone(&t1));
        drop(t1);

        // the pin still references the retired file: nothing is reclaimed
        assert_eq!(vs.collect_garbage(backend.as_ref()), 0);
        assert_eq!(pinned.levels[0].runs[0].tables()[0].meta.id, 1);
        // every page of the pinned file is still readable
        for id in page_ids(&pinned.levels[0].runs[0].tables()[0]) {
            backend.read_page(id).unwrap();
        }

        // releasing the pin makes the file reclaimable
        drop(pinned);
        assert_eq!(vs.collect_garbage(backend.as_ref()), 1);
        assert_eq!(vs.garbage_len(), 0);
        // the new version's file is untouched
        let now = vs.current();
        assert_eq!(now.levels[0].runs[0].tables()[0].meta.id, 2);
    }

    /// Regression test for the page-sharing hazard the concurrency stress
    /// test caught: a secondary-delete replacement shares surviving pages
    /// with the file it replaces. Retiring either generation must never
    /// drop a page the other generation (or a pinned snapshot holding it)
    /// can still reach.
    #[test]
    fn shared_pages_across_file_generations_are_refcounted() {
        let backend = InMemoryBackend::new_shared();
        let cfg = LsmConfig::small_for_test();
        let vs = VersionSet::new();
        let original = table(1, &backend);
        vs.register_table(&original);
        let mut l0 = Level::new();
        l0.runs.push(Run::new(vec![Arc::clone(&original)]));
        vs.install(vec![l0]);

        // replacement shares the surviving pages with the original
        let (replacement, _, obsolete) = original
            .secondary_range_delete(0, 3, &cfg, backend.as_ref(), 1)
            .unwrap();
        let replacement = Arc::new(replacement.expect("some keys survive"));
        vs.register_table(&replacement);
        let shared: Vec<u64> =
            page_ids(&replacement).into_iter().filter(|id| page_ids(&original).contains(id)).collect();
        assert!(!shared.is_empty(), "the delete must leave shared pages for this test");
        let mut l0 = Level::new();
        l0.runs.push(Run::new(vec![Arc::clone(&replacement)]));
        vs.install(vec![l0]);
        vs.retire_table(Arc::clone(&original));
        drop(original);

        // the original is unpinned: its exclusive (obsolete) pages go, the
        // shared ones survive because the replacement still references them
        assert_eq!(vs.collect_garbage(backend.as_ref()), 1);
        for id in &obsolete {
            assert!(backend.read_page(*id).is_err(), "obsolete page {id} must be dropped");
        }
        for id in &shared {
            backend.read_page(*id).expect("shared page dropped while still referenced");
        }

        // retiring the replacement finally releases the shared pages
        vs.install(vec![]);
        vs.retire_table(Arc::clone(&replacement));
        drop(replacement);
        assert_eq!(vs.collect_garbage(backend.as_ref()), 1);
        for id in &shared {
            assert!(backend.read_page(*id).is_err(), "shared page {id} leaked");
        }
        assert_eq!(backend.live_pages(), 0, "no pages may leak");
    }

    #[test]
    fn empty_version_helpers() {
        let v = Version::empty();
        assert!(v.deepest_nonempty_level().is_none());
        assert_eq!(v.l0_run_count(), 0);
        let vs = VersionSet::default();
        assert_eq!(vs.current().levels.len(), 0);
        assert_eq!(vs.garbage_len(), 0);
    }
}
