//! Streaming entry cursors and the k-way heap merge.
//!
//! Every multi-source read in the engine — range scans, flushes, compactions
//! — reduces to the same operation: walk several sorted entry streams in
//! lock-step, keep the newest version of every sort key, and apply tombstone
//! semantics. The seed implementation materialised every source into a
//! `Vec<Entry>`, concatenated them and re-sorted the already-sorted runs
//! (O(n log n) work and O(n) memory per scan). This module replaces that
//! with *cursors*:
//!
//! * [`EntryCursor`] — a fallible peekable stream of entries sorted on
//!   `(sort key asc, seqnum desc)`.
//! * [`VecCursor`] / [`SharedSliceCursor`] — in-memory sources (memtable
//!   snapshots, the frozen flush buffer).
//! * [`SsTableCursor`] — a *lazy* file source that decodes one delete tile
//!   at a time (fence-pruned to the requested range, stopping at `hi`), so
//!   a scan never holds more than one tile of one file in memory per input.
//! * [`MergeIterator`] — a binary-heap k-way merge over cursors that yields
//!   the newest version per key with range-tombstone shadowing applied
//!   incrementally through a sorted [`TombstoneWindow`] (O(log t) per entry
//!   instead of a full tombstone-list scan per entry).
//!
//! The consumers are `TreeReader::iter_range` (version-pinned streaming
//! scans, which `range` collects) and `TreeReader::entry_merge` (the
//! checkpoint stream) — one reader type serves live reads and captured
//! snapshots alike — and `JobPlan::execute`, the one merge loop every flush
//! and compaction runs (memory bounded by *output file granularity*, not
//! total input size).

use crate::sstable::SsTable;
use lethe_storage::{Entry, Result, SeqNum, SortKey, StorageBackend};
use std::cmp::Ordering as CmpOrdering;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

/// A fallible stream of entries sorted on `(sort_key asc, seqnum desc)`.
///
/// `peek` exposes the next entry without consuming it; `next_entry` consumes
/// it. Sources that read from a device (the [`SsTableCursor`]) surface I/O
/// errors from either call; in-memory sources never fail.
pub trait EntryCursor: Send {
    /// The next entry this cursor will yield, without consuming it.
    fn peek(&mut self) -> Result<Option<&Entry>>;

    /// Consumes and returns the next entry.
    fn next_entry(&mut self) -> Result<Option<Entry>>;
}

// ------------------------------------------------------------------ probe

/// A per-thread working-set probe for tests: tracks how many entries the
/// streaming machinery (tile buffers, output chunks) holds resident on the
/// current thread, and the peak since the last [`probe::reset`].
///
/// This exists to make the headline memory claim *testable*: a large merge
/// must peak at output-file + per-input-tile granularity, never at
/// total-input granularity. The counters are thread-local `Cell`s, so the
/// probe costs two increments per tile load and adds no synchronisation.
pub mod probe {
    use std::cell::Cell;

    thread_local! {
        static CURRENT: Cell<u64> = const { Cell::new(0) };
        static PEAK: Cell<u64> = const { Cell::new(0) };
    }

    /// Resets both counters on the calling thread.
    pub fn reset() {
        CURRENT.with(|c| c.set(0));
        PEAK.with(|p| p.set(0));
    }

    /// Peak number of simultaneously resident streamed entries on the
    /// calling thread since the last [`reset`].
    pub fn peak() -> u64 {
        PEAK.with(|p| p.get())
    }

    pub(crate) fn add(n: u64) {
        CURRENT.with(|c| {
            let now = c.get() + n;
            c.set(now);
            PEAK.with(|p| {
                if now > p.get() {
                    p.set(now);
                }
            });
        });
    }

    pub(crate) fn sub(n: u64) {
        CURRENT.with(|c| c.set(c.get().saturating_sub(n)));
    }
}

// ---------------------------------------------------------------- sources

/// Orders two entries the way every cursor and the merge expect:
/// ascending sort key, ties broken newest (largest seqnum) first.
pub fn entry_order(a: &Entry, b: &Entry) -> CmpOrdering {
    a.sort_key.cmp(&b.sort_key).then_with(|| b.seqnum.cmp(&a.seqnum))
}

/// An owned in-memory source (a drained memtable snapshot, a test vector).
#[derive(Debug)]
pub struct VecCursor {
    iter: std::vec::IntoIter<Entry>,
    head: Option<Entry>,
}

impl VecCursor {
    /// Builds a cursor over entries that are already sorted on
    /// `(sort_key asc, seqnum desc)`; debug builds assert the precondition.
    pub fn from_sorted(entries: Vec<Entry>) -> Self {
        debug_assert!(entries
            .windows(2)
            .all(|w| entry_order(&w[0], &w[1]) != CmpOrdering::Greater));
        let mut iter = entries.into_iter();
        let head = iter.next();
        VecCursor { iter, head }
    }

    /// Builds a cursor over entries in arbitrary order (sorts them first).
    pub fn from_unsorted(mut entries: Vec<Entry>) -> Self {
        entries.sort_by(entry_order);
        Self::from_sorted(entries)
    }
}

impl EntryCursor for VecCursor {
    fn peek(&mut self) -> Result<Option<&Entry>> {
        Ok(self.head.as_ref())
    }

    fn next_entry(&mut self) -> Result<Option<Entry>> {
        Ok(std::mem::replace(&mut self.head, self.iter.next()))
    }
}

/// A cursor over a *shared* sorted slice (the `Arc`-pinned frozen flush
/// buffer): iterating clones one entry at a time instead of copying the
/// whole buffer up front.
pub struct SharedSliceCursor<T: AsRef<[Entry]> + Send> {
    data: T,
    pos: usize,
    end: usize,
}

impl<T: AsRef<[Entry]> + Send> SharedSliceCursor<T> {
    /// Builds a cursor over `data[start..end)`; the slice must be sorted on
    /// `(sort_key asc, seqnum desc)`.
    pub fn new(data: T, start: usize, end: usize) -> Self {
        debug_assert!(end <= data.as_ref().len() && start <= end);
        SharedSliceCursor { data, pos: start, end }
    }
}

impl<T: AsRef<[Entry]> + Send> EntryCursor for SharedSliceCursor<T> {
    fn peek(&mut self) -> Result<Option<&Entry>> {
        if self.pos < self.end {
            Ok(self.data.as_ref().get(self.pos))
        } else {
            Ok(None)
        }
    }

    fn next_entry(&mut self) -> Result<Option<Entry>> {
        if self.pos < self.end {
            let e = self.data.as_ref()[self.pos].clone();
            self.pos += 1;
            Ok(Some(e))
        } else {
            Ok(None)
        }
    }
}

/// A lazy cursor over one file's point entries in `[lo, hi)`.
///
/// The KiWi layout keeps delete tiles sorted on the sort key but the pages
/// *inside* a tile sorted on the delete key, so sort-key order is only
/// recoverable a tile at a time: the cursor fence-prunes to the tiles
/// overlapping the range, decodes the pages of one tile when it is first
/// needed (skipping pages whose sort-key bounds fall outside the range),
/// sorts that tile's in-range entries, and discards them before loading the
/// next tile. Peak memory is therefore one tile (`h · B` entries), not the
/// file; a scan that stops early never decodes the tiles past `hi`.
///
/// Pages are read through the table's backend — and thus through the block
/// cache when one is configured. `nofill` selects the maintenance read path
/// ([`StorageBackend::read_page_nofill`]): compaction merges stream whole
/// files and must not evict the hot point-read working set.
///
/// The cursor holds an `Arc` to the table, which keeps the version set's
/// deferred page reclamation from dropping the file's pages while the scan
/// is in flight (see `lethe_lsm::version`).
pub struct SsTableCursor {
    table: Arc<SsTable>,
    backend: Arc<dyn StorageBackend>,
    lo: SortKey,
    /// Exclusive upper bound; `None` scans to the end of the key domain
    /// (compaction input — `u64::MAX` itself must not be excluded).
    hi: Option<SortKey>,
    nofill: bool,
    /// Next tile index to decode.
    next_tile: usize,
    /// One past the last tile that may overlap the range.
    end_tile: usize,
    /// The current tile's in-range entries, sorted on `(S asc, seq desc)`.
    buf: Vec<Entry>,
    pos: usize,
}

impl SsTableCursor {
    /// Opens a cursor over `table`'s point entries in `[lo, hi)`.
    pub fn new(
        table: Arc<SsTable>,
        backend: Arc<dyn StorageBackend>,
        lo: SortKey,
        hi: SortKey,
        nofill: bool,
    ) -> Self {
        let (next_tile, end_tile) = match table.tile_fences.locate_range(lo, hi) {
            Some((start, end)) if table.overlaps_sort_range(lo, hi) => {
                (start, (end + 1).min(table.tiles.len()))
            }
            _ => (0, 0),
        };
        SsTableCursor {
            table,
            backend,
            lo,
            hi: Some(hi),
            nofill,
            next_tile,
            end_tile,
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// Opens a cursor over the whole file, **including** a `u64::MAX` sort
    /// key (compaction input; a half-open `[0, u64::MAX)` scan would lose
    /// the largest key).
    pub fn full(table: Arc<SsTable>, backend: Arc<dyn StorageBackend>, nofill: bool) -> Self {
        let end_tile = table.tiles.len();
        SsTableCursor {
            table,
            backend,
            lo: 0,
            hi: None,
            nofill,
            next_tile: 0,
            end_tile,
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// Ensures `buf[pos]` is the next entry, decoding tiles until one yields
    /// in-range entries or the fence-pruned tile range is exhausted.
    fn fill(&mut self) -> Result<()> {
        while self.pos >= self.buf.len() && self.next_tile < self.end_tile {
            // every entry of the previous tile was released as it was
            // yielded (`next_entry` subtracts one per entry), so the buffer
            // can simply be dropped here
            self.buf.clear();
            self.pos = 0;
            let tile = &self.table.tiles[self.next_tile];
            self.next_tile += 1;
            if tile.max_sort < self.lo || self.hi.is_some_and(|hi| tile.min_sort >= hi) {
                continue;
            }
            for handle in &tile.pages {
                if handle.num_entries == 0
                    || handle.max_sort < self.lo
                    || self.hi.is_some_and(|hi| handle.min_sort >= hi)
                {
                    continue;
                }
                let page = if self.nofill {
                    self.backend.read_page_nofill(handle.id)?
                } else {
                    self.backend.read_page(handle.id)?
                };
                match self.hi {
                    Some(hi) => self.buf.extend(page.range(self.lo, hi).iter().cloned()),
                    None => {
                        let all = page.entries();
                        let start = all.partition_point(|e| e.sort_key < self.lo);
                        self.buf.extend(all[start..].iter().cloned());
                    }
                }
            }
            self.buf.sort_by(entry_order);
            probe::add(self.buf.len() as u64);
        }
        Ok(())
    }
}

impl EntryCursor for SsTableCursor {
    fn peek(&mut self) -> Result<Option<&Entry>> {
        self.fill()?;
        Ok(self.buf.get(self.pos))
    }

    fn next_entry(&mut self) -> Result<Option<Entry>> {
        self.fill()?;
        if self.pos < self.buf.len() {
            let e = self.buf[self.pos].clone();
            self.pos += 1;
            probe::sub(1);
            Ok(Some(e))
        } else {
            Ok(None)
        }
    }
}

impl Drop for SsTableCursor {
    fn drop(&mut self) {
        // release whatever part of the current tile was loaded but not
        // yielded (yielded entries were released one by one)
        probe::sub((self.buf.len() - self.pos.min(self.buf.len())) as u64);
    }
}

// ----------------------------------------------------------------- window

/// Incremental range-tombstone shadowing for a stream of entries visited in
/// non-decreasing sort-key order.
///
/// The seed applied range tombstones by scanning the *entire* tombstone
/// list once per merged entry (O(entries × tombstones)). The window instead
/// keeps the tombstones sorted by start key and sweeps once: tombstones
/// whose start has been passed enter an *active* set (a min-heap on their
/// end key for O(log t) expiry, plus a seqnum multiset for an O(1) "newest
/// active covering seqnum" query), and leave it when the key sweeps past
/// their end. Total cost is O((entries + tombstones) · log tombstones).
pub struct TombstoneWindow {
    /// Tombstones sorted by start key (`sort_key`).
    rts: Vec<Entry>,
    /// Next tombstone whose start has not been reached yet.
    idx: usize,
    /// Active tombstones as `(end, seqnum)`, min-heap on `end`.
    active_ends: BinaryHeap<Reverse<(SortKey, SeqNum)>>,
    /// Multiset of active tombstone seqnums.
    active_seqs: BTreeMap<SeqNum, u32>,
}

impl TombstoneWindow {
    /// Builds a window over `range_tombstones` (any order; sorted here).
    pub fn new(mut range_tombstones: Vec<Entry>) -> Self {
        range_tombstones.retain(|e| e.is_range_tombstone());
        range_tombstones.sort_by_key(|e| e.sort_key);
        TombstoneWindow {
            rts: range_tombstones,
            idx: 0,
            active_ends: BinaryHeap::new(),
            active_seqs: BTreeMap::new(),
        }
    }

    /// True if a range tombstone strictly newer than `seqnum` covers `key`.
    ///
    /// Keys must be queried in non-decreasing order (the merge emits them
    /// that way); repeated queries at the same key are fine.
    pub fn shadows(&mut self, key: SortKey, seqnum: SeqNum) -> bool {
        // admit tombstones whose start has been reached
        while self.idx < self.rts.len() && self.rts[self.idx].sort_key <= key {
            let rt = &self.rts[self.idx];
            self.idx += 1;
            let end = rt.range_end().unwrap_or(rt.sort_key);
            if end > key {
                self.active_ends.push(Reverse((end, rt.seqnum)));
                *self.active_seqs.entry(rt.seqnum).or_insert(0) += 1;
            }
        }
        // expire tombstones the key has swept past
        while let Some(Reverse((end, seq))) = self.active_ends.peek().copied() {
            if end > key {
                break;
            }
            self.active_ends.pop();
            if let Some(n) = self.active_seqs.get_mut(&seq) {
                *n -= 1;
                if *n == 0 {
                    self.active_seqs.remove(&seq);
                }
            }
        }
        match self.active_seqs.last_key_value() {
            Some((&newest, _)) => newest > seqnum,
            None => false,
        }
    }
}

// ------------------------------------------------------------------ merge

/// One source's head entry queued in the merge heap. The heap is a max-heap,
/// so `Ord` is inverted to surface the *smallest* sort key (ties: largest
/// seqnum, then the earliest — newest — source).
struct HeapHead {
    entry: Entry,
    src: usize,
}

impl PartialEq for HeapHead {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == CmpOrdering::Equal
    }
}
impl Eq for HeapHead {}
impl PartialOrd for HeapHead {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapHead {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        other
            .entry
            .sort_key
            .cmp(&self.entry.sort_key)
            .then_with(|| self.entry.seqnum.cmp(&other.entry.seqnum))
            .then_with(|| other.src.cmp(&self.src))
    }
}

/// A binary-heap k-way merge over entry cursors that yields the newest
/// version per sort key, with range-tombstone shadowing applied through a
/// [`TombstoneWindow`] and (optionally) tombstones themselves dropped — the
/// streaming equivalent of the seed's materialising `merge_entries`.
///
/// Sources must be supplied **newest first** (active memtable, frozen
/// buffer, then disk levels top-down): when two sources hold an entry with
/// the same key and seqnum (possible in the brief window where a flushed
/// buffer coexists with its installed output), the earlier source wins.
pub struct MergeIterator {
    cursors: Vec<Box<dyn EntryCursor>>,
    heap: BinaryHeap<HeapHead>,
    window: TombstoneWindow,
    drop_tombstones: bool,
    last_key: Option<SortKey>,
}

impl MergeIterator {
    /// Builds a merge over `cursors` (each sorted on `(S asc, seq desc)`,
    /// newest source first) shadowed by `range_tombstones`. When
    /// `drop_tombstones` is set (a merge into the last level, or a read that
    /// only wants live data), surviving point and range tombstones are
    /// discarded from the output.
    pub fn new(
        cursors: Vec<Box<dyn EntryCursor>>,
        range_tombstones: Vec<Entry>,
        drop_tombstones: bool,
    ) -> Result<Self> {
        let mut cursors = cursors;
        let mut heap = BinaryHeap::with_capacity(cursors.len());
        for (src, cursor) in cursors.iter_mut().enumerate() {
            if let Some(entry) = cursor.next_entry()? {
                heap.push(HeapHead { entry, src });
            }
        }
        Ok(MergeIterator {
            cursors,
            heap,
            window: TombstoneWindow::new(range_tombstones),
            drop_tombstones,
            last_key: None,
        })
    }

    /// Returns the next surviving entry of the merge, or `None` when every
    /// source is exhausted.
    pub fn next_merged(&mut self) -> Result<Option<Entry>> {
        while let Some(head) = self.heap.pop() {
            let HeapHead { entry, src } = head;
            if let Some(refill) = self.cursors[src].next_entry()? {
                self.heap.push(HeapHead { entry: refill, src });
            }
            if self.last_key == Some(entry.sort_key) {
                continue; // an older version of a key already decided
            }
            self.last_key = Some(entry.sort_key);
            if self.window.shadows(entry.sort_key, entry.seqnum) {
                continue;
            }
            if self.drop_tombstones && entry.is_tombstone() {
                continue;
            }
            return Ok(Some(entry));
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LsmConfig;
    use bytes::Bytes;
    use lethe_storage::InMemoryBackend;

    fn put(k: u64, seq: u64) -> Entry {
        Entry::put(k, k, seq, Bytes::from_static(b"v"))
    }

    fn collect(mut it: MergeIterator) -> Vec<Entry> {
        let mut out = Vec::new();
        while let Some(e) = it.next_merged().unwrap() {
            out.push(e);
        }
        out
    }

    #[test]
    fn vec_cursor_streams_in_order() {
        let mut c = VecCursor::from_unsorted(vec![put(3, 1), put(1, 2), put(2, 3)]);
        assert_eq!(c.peek().unwrap().unwrap().sort_key, 1);
        assert_eq!(c.next_entry().unwrap().unwrap().sort_key, 1);
        assert_eq!(c.next_entry().unwrap().unwrap().sort_key, 2);
        assert_eq!(c.peek().unwrap().unwrap().sort_key, 3);
        assert_eq!(c.next_entry().unwrap().unwrap().sort_key, 3);
        assert!(c.next_entry().unwrap().is_none());
        assert!(c.peek().unwrap().is_none());
    }

    #[test]
    fn merge_yields_newest_version_per_key_across_sources() {
        let a = VecCursor::from_sorted(vec![put(1, 9), put(3, 1)]);
        let b = VecCursor::from_sorted(vec![put(1, 5), put(2, 2), put(3, 7)]);
        let out = collect(
            MergeIterator::new(vec![Box::new(a), Box::new(b)], vec![], false).unwrap(),
        );
        let got: Vec<(u64, u64)> = out.iter().map(|e| (e.sort_key, e.seqnum)).collect();
        assert_eq!(got, vec![(1, 9), (2, 2), (3, 7)]);
    }

    #[test]
    fn equal_seqnums_prefer_the_earlier_source() {
        // the flush race: the same entry visible in the frozen buffer (src 0)
        // and the freshly installed level (src 1)
        let dup = put(5, 42);
        let a = VecCursor::from_sorted(vec![dup.clone()]);
        let b = VecCursor::from_sorted(vec![dup.clone()]);
        let out = collect(
            MergeIterator::new(vec![Box::new(a), Box::new(b)], vec![], false).unwrap(),
        );
        assert_eq!(out, vec![dup]);
    }

    #[test]
    fn tombstone_window_shadows_covered_older_entries_only() {
        let rts = vec![Entry::range_tombstone(10, 20, 100), Entry::range_tombstone(15, 30, 50)];
        let mut w = TombstoneWindow::new(rts);
        assert!(!w.shadows(5, 1)); // before any tombstone
        assert!(w.shadows(10, 99)); // covered, older than seq 100
        assert!(!w.shadows(12, 100)); // same seq is not shadowed
        assert!(!w.shadows(15, 150)); // newer than both
        assert!(w.shadows(25, 49)); // only the second still covers
        assert!(!w.shadows(25, 60)); // newer than the second
        assert!(!w.shadows(30, 1)); // past both ends
        assert!(!w.shadows(u64::MAX, 0));
    }

    #[test]
    fn window_handles_nested_and_disjoint_spans() {
        let rts = vec![
            Entry::range_tombstone(0, 100, 10),
            Entry::range_tombstone(40, 60, 99),
            Entry::range_tombstone(200, 201, 5),
        ];
        let mut w = TombstoneWindow::new(rts);
        assert!(w.shadows(0, 9));
        assert!(!w.shadows(0, 10));
        assert!(w.shadows(50, 50)); // inner newer tombstone
        assert!(w.shadows(99, 9));
        assert!(!w.shadows(99, 20)); // inner expired, outer seq 10 <= 20
        assert!(w.shadows(200, 4));
        assert!(!w.shadows(201, 0));
    }

    #[test]
    fn merge_applies_shadowing_and_drops_tombstones_at_last_level() {
        let a = VecCursor::from_sorted(vec![put(5, 1), put(12, 2), put(15, 200)]);
        let b = VecCursor::from_sorted(vec![Entry::point_tombstone(5, 9), put(25, 3)]);
        let rts = vec![Entry::range_tombstone(10, 20, 100)];
        let out = collect(
            MergeIterator::new(vec![Box::new(a), Box::new(b)], rts, true).unwrap(),
        );
        // 5 deleted (point tombstone, dropped), 12 shadowed, 15 newer than
        // the range tombstone, 25 untouched
        let keys: Vec<u64> = out.iter().map(|e| e.sort_key).collect();
        assert_eq!(keys, vec![15, 25]);
    }

    #[test]
    fn sstable_cursor_streams_whole_file_in_order() {
        let backend = InMemoryBackend::new_shared();
        let mut cfg = LsmConfig::small_for_test();
        cfg.pages_per_delete_tile = 4;
        cfg.max_pages_per_file = 16;
        // decorrelated delete keys exercise the within-tile page re-sort
        let entries: Vec<Entry> = (0..128u64)
            .map(|k| Entry::put(k, (k * 37) % 1000, k + 1, Bytes::from_static(b"v")))
            .collect();
        let table = Arc::new(
            SsTable::build(1, entries.clone(), vec![], 0, None, &cfg, backend.as_ref()).unwrap(),
        );
        let mut c = SsTableCursor::full(table, backend, false);
        let mut got = Vec::new();
        while let Some(e) = c.next_entry().unwrap() {
            got.push(e);
        }
        assert_eq!(got, entries);
    }

    #[test]
    fn sstable_cursor_prunes_tiles_and_stops_at_hi() {
        let backend = InMemoryBackend::new_shared();
        let mut cfg = LsmConfig::small_for_test();
        cfg.pages_per_delete_tile = 2;
        cfg.max_pages_per_file = 64;
        let entries: Vec<Entry> =
            (0..256u64).map(|k| Entry::put(k, k, k + 1, Bytes::from_static(b"v"))).collect();
        let table = Arc::new(
            SsTable::build(1, entries, vec![], 0, None, &cfg, backend.as_ref()).unwrap(),
        );
        let total_pages = table.page_count() as u64;
        let before = backend.stats().snapshot().pages_read;
        let mut c = SsTableCursor::new(Arc::clone(&table), backend.clone(), 20, 36, false);
        let mut got = Vec::new();
        while let Some(e) = c.next_entry().unwrap() {
            got.push(e.sort_key);
        }
        assert_eq!(got, (20..36).collect::<Vec<u64>>());
        let read = backend.stats().snapshot().pages_read - before;
        assert!(
            read < total_pages / 2,
            "a narrow scan must not decode the whole file ({read}/{total_pages} pages)"
        );
        // an empty / non-overlapping range reads nothing
        let before = backend.stats().snapshot().pages_read;
        let mut c = SsTableCursor::new(Arc::clone(&table), backend.clone(), 1000, 2000, false);
        assert!(c.next_entry().unwrap().is_none());
        let mut c = SsTableCursor::new(table, backend.clone(), 10, 10, false);
        assert!(c.next_entry().unwrap().is_none());
        assert_eq!(backend.stats().snapshot().pages_read, before);
    }

    #[test]
    fn probe_tracks_resident_tile_entries() {
        probe::reset();
        let backend = InMemoryBackend::new_shared();
        let mut cfg = LsmConfig::small_for_test();
        cfg.pages_per_delete_tile = 2; // 8-entry tiles
        cfg.max_pages_per_file = 64;
        let entries: Vec<Entry> =
            (0..256u64).map(|k| Entry::put(k, k, k + 1, Bytes::from_static(b"v"))).collect();
        let table = Arc::new(
            SsTable::build(1, entries, vec![], 0, None, &cfg, backend.as_ref()).unwrap(),
        );
        let mut c = SsTableCursor::full(table, backend, false);
        let mut n = 0usize;
        while c.next_entry().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 256);
        let tile_entries = (cfg.entries_per_tile()) as u64;
        assert!(
            probe::peak() <= tile_entries,
            "peak {} must stay within one tile ({tile_entries})",
            probe::peak()
        );
    }

    #[test]
    fn empty_merge_is_empty() {
        let out = collect(MergeIterator::new(vec![], vec![], true).unwrap());
        assert!(out.is_empty());
        let c = VecCursor::from_sorted(vec![]);
        let out =
            collect(MergeIterator::new(vec![Box::new(c)], vec![], false).unwrap());
        assert!(out.is_empty());
    }
}
