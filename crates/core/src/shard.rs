//! Sharded concurrent front-end: many [`Lethe`] shards behind one `&self` API.
//!
//! [`ShardedLethe`] scales the single-shard engine out the way industrial
//! LSM stores do: **shared-nothing sharding** for writes, **snapshot
//! isolation** for reads, and **background maintenance** for everything
//! expensive. The sort-key space is hash-partitioned across `N` independent
//! shards, each a complete `Lethe` engine (own memtable, own version set,
//! own FADE policy, own storage device).
//!
//! ## Threading model
//!
//! Three kinds of thread touch a shard, and only writers ever lock it:
//!
//! * **Readers** (`get`/`range`/`scan_by_delete_key`) go through the
//!   shard's [`TreeReader`]: they pin the current immutable version (one
//!   `Arc` clone) and read the shared memtables under brief read locks —
//!   no shard lock, so a reader is *never* blocked by a writer, a flush or
//!   a compaction, and never observes a half-committed version.
//! * **Writers** (`put`/`write`/`delete`/`delete_range`) take the shard's
//!   ranked [`lethe_sync::Mutex`] for the WAL append + memtable insert only. A
//!   full buffer is *frozen*, not flushed: the writer returns immediately
//!   and the worker persists it. Backpressure replaces the old inline
//!   compact-to-completion loop: once level 0 accumulates
//!   [`LsmConfig::l0_slowdown_runs`] runs the writer yields, and at
//!   [`LsmConfig::l0_stall_runs`] (or a full buffer behind an unflushed
//!   frozen one) it blocks until the worker catches up.
//!
//!   Puts and [`WriteBatch`]es go through the shard's **group-commit
//!   queue**: the writer that joins an empty queue is the elected *leader*;
//!   everyone who joins while a leader is active is a *follower* and parks
//!   on the queue's condvar without ever touching the shard lock. The
//!   leader takes the shard lock once and drains the queue in convoys —
//!   stages every joined request as its own WAL frame, pays **one**
//!   durability barrier for the combined tail, applies the requests in
//!   order, posts each outcome and wakes the followers — looping until the
//!   queue is empty (requests that arrive mid-fsync are simply the next
//!   convoy). Under `SyncPolicy::Always` the fsync count therefore scales
//!   with commit convoys, not with records.
//! * **One [`Compactor`] worker per shard** drains flushes and FADE/
//!   saturation compactions through the tree's plan → execute → apply
//!   cycle, holding the shard lock only for the cheap plan and apply
//!   phases; the merge I/O runs lock-free against pinned files.
//!
//! Foreground structural operations (secondary range deletes, white-box
//! [`ShardedLethe::with_shard`] access) pause the worker first so exactly
//! one thread at a time restructures a shard's tree.
//!
//! ## Semantics
//!
//! * `put`/`get`/`delete` route to the owning shard by a multiply-shift hash
//!   of the sort key.
//! * [`write`](ShardedLethe::write) applies a [`WriteBatch`] atomically.
//!   A batch confined to one shard is one WAL frame (crash- and
//!   reader-atomic); a batch spanning shards runs a two-phase commit over
//!   the per-shard WALs with the store's batch-commit log (`BATCHES`) as
//!   the commit point, so recovery never surfaces half a batch.
//! * `delete_range`/`range` fan out to every shard (hash partitioning
//!   scatters sort-key ranges) and `range` merges the per-shard results back
//!   into global sort-key order.
//! * Secondary (delete-key) operations — `scan_by_delete_key` and
//!   `delete_where_delete_key_in` — fan out to every shard and aggregate; the
//!   delete key is independent of the partitioning key, so every shard may
//!   hold qualifying entries.
//! * All shards share one [`LogicalClock`], so FADE's per-level TTLs and the
//!   delete persistence threshold `D_th` hold per shard against a single
//!   consistent notion of time; [`ShardedLethe::maintain`] wakes every
//!   shard's worker and waits for all of them to quiesce (the workers run
//!   concurrently — no shard blocks behind another).
//! * `stats`/`io_snapshot`/`snapshot_contents` aggregate the per-shard
//!   [`TreeStats`]/[`IoSnapshot`]/[`ContentSnapshot`] into one combined view.
//! * **Fan-out operations are not atomic snapshots.** Shards are visited
//!   one at a time, so a `range`/`scan_by_delete_key`/`stats` call that is
//!   concurrent with writers may observe some shards before and some after
//!   a given write — e.g. see a writer's second put but not its first when
//!   the two route to different shards. Per-key operations are always
//!   consistent; when a point-in-time multi-shard view is required, take a
//!   [`ShardedLethe::snapshot`]: it fences every shard at one shared
//!   seqnum (no batch straddles it) and serves `get`/`range`/`iter_range`/
//!   `scan_by_delete_key` at that instant for as long as the handle lives.
//! * [`ShardedLethe::checkpoint`] streams a pinned snapshot into a target
//!   directory as a self-contained store — an online backup taken while
//!   writers continue — which [`Lethe::restore`] reopens after verifying
//!   the checkpoint's completeness marker.
//!
//! Each shard owns a full-size write buffer: an `N`-shard store has `N×` the
//! configured buffer memory. Divide `buffer_pages` by the shard count if a
//! fixed total memory budget matters.
//!
//! ```
//! use lethe_core::{ShardedLethe, ShardedLetheBuilder};
//! use std::thread;
//!
//! let db = ShardedLetheBuilder::new()
//!     .shards(4)
//!     .buffer(8, 4, 64)
//!     .size_ratio(4)
//!     .delete_persistence_threshold_secs(60.0)
//!     .build()
//!     .unwrap();
//!
//! // &self API: share the engine across threads without any external lock
//! thread::scope(|s| {
//!     for t in 0..4u64 {
//!         let db = &db;
//!         s.spawn(move || {
//!             for k in (t * 100)..(t * 100 + 100) {
//!                 db.put(k, k, format!("v{k}")).unwrap();
//!             }
//!         });
//!     }
//! });
//! assert_eq!(db.get(123).unwrap().unwrap(), &b"v123"[..]);
//! assert_eq!(db.range(0, 400).unwrap().len(), 400);
//!
//! // stream a long scan without materialising it: page through the first 10
//! let page: Vec<_> = db.iter_range(0, 400).take(10).map(|r| r.unwrap()).collect();
//! assert_eq!(page.len(), 10);
//! ```

use crate::compactor::Compactor;
use crate::engine::{Lethe, LetheBuilder};
use crate::fade::SaturationSelection;
use crate::tuning::WorkloadProfile;
use bytes::Bytes;
use lethe_lsm::batch::WriteBatch;
use lethe_lsm::config::{LsmConfig, MergePolicy};
use lethe_lsm::snapshot::SnapshotTracker;
use lethe_lsm::sstable::{SecondaryDeleteStats, SsTable};
use lethe_lsm::stats::{ContentSnapshot, TreeStats};
use lethe_lsm::tree::{MaintenanceMode, RangeIter, TreeReader};
use lethe_storage::{
    write_marker, BatchCommitLog, BatchOp, CacheSnapshot, CheckpointMarker,
    DeleteKey, Entry, FileBackend, IoSnapshot, LogicalClock, Manifest, ManifestState, PageCache,
    Result, SeqNum, SortKey, StorageBackend, StorageError, Timestamp,
};
use lethe_storage::barrier;
use lethe_sync::{Condvar, LockRank, Mutex};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Builder for a [`ShardedLethe`] engine.
///
/// Wraps a [`LetheBuilder`] (every single-shard knob is re-exposed) plus the
/// one sharding knob: [`shards`](ShardedLetheBuilder::shards).
#[derive(Debug, Clone)]
pub struct ShardedLetheBuilder {
    inner: LetheBuilder,
    shards: usize,
    /// Deferred Equation (3) tuning request `(profile, total expected
    /// entries)`: resolved against the *final* shard count at build time so
    /// the builder is order-independent.
    tune: Option<(WorkloadProfile, u64)>,
    /// Copy of the crash fail point (if any) so [`open`](Self::open) can arm
    /// the store-wide batch-commit log with the same shared countdown as the
    /// per-shard WALs, manifests and backends.
    failpoint: Option<lethe_storage::FailPoint>,
}

impl Default for ShardedLetheBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedLetheBuilder {
    /// Starts from the single-shard reference configuration with 4 shards.
    pub fn new() -> Self {
        ShardedLetheBuilder { inner: LetheBuilder::new(), shards: 4, tune: None, failpoint: None }
    }

    /// Wraps an already-configured single-shard builder.
    pub fn from_builder(inner: LetheBuilder) -> Self {
        ShardedLetheBuilder { inner, shards: 4, tune: None, failpoint: None }
    }

    /// Sets the number of shards (clamped to at least 1).
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// Sets the delete persistence threshold `D_th` in seconds of logical
    /// time (applies to every shard).
    pub fn delete_persistence_threshold_secs(mut self, secs: f64) -> Self {
        self.inner = self.inner.delete_persistence_threshold_secs(secs);
        self
    }

    /// Sets the delete persistence threshold in microseconds of logical time.
    pub fn delete_persistence_threshold_micros(mut self, micros: Timestamp) -> Self {
        self.inner = self.inner.delete_persistence_threshold_micros(micros);
        self
    }

    /// Sets the delete-tile granularity `h` (pages per delete tile).
    /// Last call wins: this cancels any earlier
    /// [`tune_delete_tiles_for`](Self::tune_delete_tiles_for) request.
    pub fn delete_tile_pages(mut self, h: usize) -> Self {
        self.tune = None;
        self.inner = self.inner.delete_tile_pages(h);
        self
    }

    /// Derives the delete-tile granularity from a workload description using
    /// Equation (3). `expected_entries` is the total across all shards; each
    /// shard is tuned for its `1/N` slice. The tuning is deferred to
    /// [`build`](Self::build)/[`open`](Self::open) so it always uses the
    /// final shard count, regardless of method-call order.
    pub fn tune_delete_tiles_for(mut self, profile: &WorkloadProfile, expected_entries: u64) -> Self {
        self.tune = Some((*profile, expected_entries));
        self
    }

    /// The per-shard builder with any deferred tuning resolved against the
    /// final shard count.
    fn resolved_inner(&self) -> LetheBuilder {
        match &self.tune {
            Some((profile, total)) => {
                let per_shard = (total / self.shards.max(1) as u64).max(1);
                self.inner.clone().tune_delete_tiles_for(profile, per_shard)
            }
            None => self.inner.clone(),
        }
    }

    /// Sets the size ratio `T`.
    pub fn size_ratio(mut self, t: usize) -> Self {
        self.inner = self.inner.size_ratio(t);
        self
    }

    /// Sets the per-shard buffer geometry: pages, entries per page and entry
    /// size.
    pub fn buffer(mut self, pages: usize, entries_per_page: usize, entry_size: usize) -> Self {
        self.inner = self.inner.buffer(pages, entries_per_page, entry_size);
        self
    }

    /// Sets the Bloom filter budget in bits per entry.
    pub fn bits_per_key(mut self, bits: f64) -> Self {
        self.inner = self.inner.bits_per_key(bits);
        self
    }

    /// Selects leveling or tiering.
    pub fn merge_policy(mut self, policy: MergePolicy) -> Self {
        self.inner = self.inner.merge_policy(policy);
        self
    }

    /// Selects the compaction strategy every shard runs; see
    /// [`LetheBuilder::compaction_strategy`]. The tiered strategies switch
    /// the merge policy to tiering, and under date-tiered each shard retires
    /// its own wholly-expired windows via whole-file drops (the combined
    /// [`TreeStats::whole_file_drops`](lethe_lsm::stats::TreeStats) counter
    /// sums them across shards).
    pub fn compaction_strategy(mut self, strategy: lethe_lsm::CompactionStrategy) -> Self {
        self.inner = self.inner.compaction_strategy(strategy);
        self
    }

    /// Sets the ingestion rate `I` (entries per second of logical time).
    pub fn ingestion_rate(mut self, entries_per_sec: u64) -> Self {
        self.inner = self.inner.ingestion_rate(entries_per_sec);
        self
    }

    /// Sets the secondary optimisation goal of saturation-driven compactions.
    pub fn saturation_selection(mut self, selection: SaturationSelection) -> Self {
        self.inner = self.inner.saturation_selection(selection);
        self
    }

    /// Sets when every shard's write-ahead log fsyncs appends (durable
    /// stores default to fsync-per-append; see
    /// [`LetheBuilder::wal_sync_policy`]).
    pub fn wal_sync_policy(mut self, policy: lethe_storage::SyncPolicy) -> Self {
        self.inner = self.inner.wal_sync_policy(policy);
        self
    }

    /// Sets the **total** block-cache budget in bytes, shared by every shard
    /// (`0`, the default, disables caching). One [`PageCache`] is created at
    /// build time and handed to all shards, so hot shards naturally take a
    /// larger slice of the budget; size it for the whole store, not per
    /// shard.
    pub fn block_cache_bytes(mut self, bytes: usize) -> Self {
        self.inner = self.inner.block_cache_bytes(bytes);
        self
    }

    /// If `true`, every shard warms the shared block cache with its flush/
    /// compaction output pages as they are written.
    pub fn warm_block_cache_on_write(mut self, warm: bool) -> Self {
        self.inner = self.inner.warm_block_cache_on_write(warm);
        self
    }

    /// Shares an existing [`PageCache`] with every shard of this store —
    /// and, because the cache keys entries per device, with whatever *other*
    /// stores also hold it — instead of creating a private cache at build
    /// time. Implies caching regardless of `block_cache_bytes`.
    pub fn shared_block_cache(mut self, cache: Arc<PageCache>) -> Self {
        self.inner = self.inner.shared_block_cache(cache);
        self
    }

    /// Attaches one crash-injection fail point to the durable components of
    /// *every* shard opened by [`ShardedLetheBuilder::open`] (testing aid;
    /// the clones share a single countdown, so the injected failure fires
    /// exactly once across the whole store).
    pub fn crash_failpoint(mut self, fp: lethe_storage::FailPoint) -> Self {
        self.failpoint = Some(fp.clone());
        self.inner = self.inner.crash_failpoint(fp);
        self
    }

    /// Overrides the low-level configuration applied to every shard.
    /// Last call wins: this cancels any earlier
    /// [`tune_delete_tiles_for`](Self::tune_delete_tiles_for) request (the
    /// supplied config's `pages_per_delete_tile` is authoritative).
    pub fn with_config(mut self, config: LsmConfig) -> Self {
        self.tune = None;
        self.inner = self.inner.with_config(config);
        self
    }

    /// The per-shard configuration being built.
    pub fn config(&self) -> &LsmConfig {
        self.inner.config()
    }

    /// Builds the sharded engine on per-shard in-memory simulated devices
    /// sharing one logical clock.
    pub fn build(self) -> Result<ShardedLethe> {
        let clock = LogicalClock::new();
        let (inner, cache) = self.shared_cache_inner();
        // one seqnum space across all shards: a cross-shard batch commits
        // under one consecutive seqnum range, and a snapshot fence is one
        // number covering the whole store. One snapshot tracker likewise:
        // a registered fence gates tombstone GC in every shard at once.
        let seqnums = Arc::new(AtomicU64::new(1));
        let snapshots = Arc::new(SnapshotTracker::new());
        let inner = inner
            .seqnum_allocator(Arc::clone(&seqnums))
            .snapshot_tracker(Arc::clone(&snapshots));
        let mut shards = Vec::with_capacity(self.shards);
        for i in 0..self.shards {
            let engine = inner
                .clone()
                .build_on(lethe_storage::InMemoryBackend::new_shared(), clock.clone())?;
            shards.push(Shard::spawn(engine, i));
        }
        Ok(ShardedLethe {
            shards,
            clock,
            cache,
            batch_log: None,
            manifest_fsyncs: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            slowdowns: AtomicU64::new(0),
            seqnums,
            snapshots,
            snapshot_registry: Arc::new(Mutex::new(LockRank::SnapshotRegistry, HashMap::new())),
            snapshot_ids: AtomicU64::new(1),
            failpoint: self.failpoint,
        })
    }

    /// Resolves the per-shard builder and the **one** cache instance every
    /// shard will share, through [`LetheBuilder::resolve_cache`]'s policy
    /// (an externally supplied cache wins, otherwise a private one is
    /// created when `block_cache_bytes > 0`); the resolved cache is pinned
    /// back onto the builder so every shard wraps the same instance.
    fn shared_cache_inner(&self) -> (LetheBuilder, Option<Arc<PageCache>>) {
        let mut inner = self.resolved_inner();
        let cache = inner.resolve_cache();
        if let Some(c) = &cache {
            inner = inner.shared_block_cache(Arc::clone(c));
        }
        (inner, cache)
    }

    /// Opens (or creates) a durable sharded engine rooted at `dir`. Each
    /// shard gets a namespaced data file, write-ahead log and manifest in
    /// the shared directory (`shard-000.data`/`shard-000.wal`/
    /// `shard-000.manifest`, `shard-001.…`), each shard recovers its own
    /// manifest + WAL on open, and all shards share one logical clock.
    /// Re-opening with a different shard count than the store was created
    /// with is rejected (routing is a function of the count), as is a store
    /// with committed shard state but no readable `SHARDS` super-manifest —
    /// both would otherwise silently misroute keys.
    pub fn open(self, dir: impl AsRef<Path>) -> Result<ShardedLethe> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        validate_shard_manifest(dir, self.shards)?;
        // the batch-commit log opens first: WAL replay consults the
        // committed-id set to decide which prepared cross-shard slices apply
        let mut batch_log = BatchCommitLog::open(dir.join("BATCHES"))?;
        if let Some(fp) = &self.failpoint {
            batch_log = batch_log.with_failpoint(fp.clone());
        }
        let batch_log = Arc::new(batch_log);
        let clock = LogicalClock::new();
        let (inner, cache) = self.shared_cache_inner();
        let seqnums = Arc::new(AtomicU64::new(1));
        let snapshots = Arc::new(SnapshotTracker::new());
        let inner = inner
            .seqnum_allocator(Arc::clone(&seqnums))
            .snapshot_tracker(Arc::clone(&snapshots))
            .committed_batches(batch_log.committed());
        let mut engines = Vec::with_capacity(self.shards);
        let mut live_ids = HashSet::new();
        for i in 0..self.shards {
            let engine = inner.clone().open_named(dir, &format!("shard-{i:03}"), clock.clone())?;
            live_ids.extend(engine.tree().wal_batch_ids().iter().copied());
            engines.push(engine);
        }
        // rolled-back prepared frames stay in the shard WALs after recovery
        // (nothing rewrites a WAL on open), so the id allocator — rebuilt
        // from committed records only — must be advanced past every id the
        // WALs still hold: reusing one for a batch that then commits would
        // retroactively commit the stale slice and resurrect part of an
        // aborted batch on the next recovery
        if let Some(max) = live_ids.iter().copied().max() {
            batch_log.bump_next_id(max + 1);
        }
        // commit records whose batch no WAL references any more have no
        // reader left (the slices were flushed and truncated away): compact
        // them out so the log is bounded by in-flight batches
        batch_log.retain(&live_ids)?;
        // the super-manifest is written only once every shard opened
        // successfully (a failed open never pins a shard count for a store
        // that was never created), and atomically + fsync'd: once a client
        // can acknowledge writes, the recorded count must survive a crash
        let manifest_fsyncs = AtomicU64::new(0);
        write_shard_manifest(dir, self.shards, &manifest_fsyncs)?;
        Ok(ShardedLethe {
            shards: engines.into_iter().enumerate().map(|(i, e)| Shard::spawn(e, i)).collect(),
            clock,
            cache,
            batch_log: Some(batch_log),
            manifest_fsyncs,
            stalls: AtomicU64::new(0),
            slowdowns: AtomicU64::new(0),
            seqnums,
            snapshots,
            snapshot_registry: Arc::new(Mutex::new(LockRank::SnapshotRegistry, HashMap::new())),
            snapshot_ids: AtomicU64::new(1),
            failpoint: self.failpoint,
        })
    }
}

/// Durably records the shard count: write-to-temporary, atomic rename,
/// parent-directory fsync. Both barriers charge `fsyncs` so the store's
/// [`IoSnapshot`] accounts for them.
fn write_shard_manifest(dir: &Path, shards: usize, fsyncs: &AtomicU64) -> Result<()> {
    use std::io::Write;
    let path = dir.join("SHARDS");
    let tmp = dir.join("SHARDS.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(format!("{shards}\n").as_bytes())?;
        barrier::sync_all_counted(&f, fsyncs)?;
    }
    std::fs::rename(&tmp, &path)?;
    barrier::fsync_dir_counted(&path, fsyncs)?;
    Ok(())
}

/// Validates the recorded shard count of a durable store, if any: routing is
/// a function of the shard count, so re-opening with a different `N` would
/// silently misroute keys.
///
/// A directory with per-shard *manifests* (i.e. committed durable state) but
/// no `SHARDS` super-manifest is partial shard state — someone lost or
/// deleted the routing record — and is rejected rather than guessed at.
/// Leftover data/WAL files without manifests are tolerated: they can only
/// come from a store that never acknowledged a write under a committed shard
/// count (`SHARDS` is durably written before `open` returns).
fn validate_shard_manifest(dir: &Path, shards: usize) -> Result<()> {
    use lethe_storage::StorageError;
    let path = dir.join("SHARDS");
    match std::fs::read_to_string(&path) {
        Ok(raw) => {
            let recorded: usize = raw.trim().parse().map_err(|_| {
                StorageError::Corruption(format!("unreadable shard manifest {path:?}: {raw:?}"))
            })?;
            if recorded != shards {
                return Err(StorageError::Corruption(format!(
                    "store at {dir:?} was created with {recorded} shards, re-opened with {shards}"
                )));
            }
            Ok(())
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            let mut orphaned: Vec<String> = Vec::new();
            for entry in std::fs::read_dir(dir)? {
                let name = entry?.file_name().to_string_lossy().into_owned();
                if name.starts_with("shard-") && name.ends_with(".manifest") {
                    orphaned.push(name);
                }
            }
            if !orphaned.is_empty() {
                orphaned.sort();
                return Err(StorageError::Corruption(format!(
                    "store at {dir:?} has committed shard state ({}) but no SHARDS \
                     super-manifest; refusing to guess a shard count that could \
                     misroute every key",
                    orphaned.join(", ")
                )));
            }
            Ok(())
        }
        Err(e) => Err(e.into()),
    }
}

/// One shard: the engine behind its write lock, the lock-free read handle,
/// the background maintenance worker, and the backpressure thresholds
/// copied out of the engine's configuration.
struct Shard {
    engine: Arc<Mutex<Lethe>>,
    reader: TreeReader,
    worker: Compactor,
    /// Group-commit queue: the writer that joins it empty leads, everyone
    /// else follows; see [`CommitQueue`].
    queue: CommitQueue,
    slowdown_runs: usize,
    stall_runs: usize,
}

impl Shard {
    /// Switches `engine` to background maintenance, wraps it behind its
    /// lock, and spawns the worker. `index` is the shard's position in the
    /// store: engine locks share one rank, so cross-shard writers must take
    /// them in ascending index order, which the ranked mutex enforces
    /// through its same-rank acquisition order.
    fn spawn(mut engine: Lethe, index: usize) -> Shard {
        engine.set_maintenance_mode(MaintenanceMode::Background);
        let reader = engine.reader();
        let slowdown_runs = engine.config().l0_slowdown_runs;
        let stall_runs = engine.config().l0_stall_runs;
        let engine = Arc::new(Mutex::with_order(LockRank::Engine, index as u64, engine));
        let worker = Compactor::spawn(Arc::clone(&engine));
        Shard { engine, reader, worker, queue: CommitQueue::new(), slowdown_runs, stall_runs }
    }
}

/// The group-commit queue of one shard (the RocksDB write-group idiom).
///
/// A writer joins by pushing its request under the state lock; if no leader
/// is active at that moment it becomes the leader, otherwise it parks on
/// `follower_cv` until a leader posts its outcome. Followers never touch
/// the engine lock at all — the leader acquires it once and serves convoys
/// until the queue drains, so the per-writer cost under contention is one
/// condvar round-trip instead of a mutex handoff, and every request that
/// arrives while the leader is inside an fsync lands in the next convoy.
struct CommitQueue {
    state: Mutex<CommitQueueState>,
    /// Followers wait here; the leader locks `state` (empty critical
    /// section) before notifying, so a follower that just saw its slot
    /// empty is guaranteed to be parked before the wakeup fires.
    follower_cv: Condvar,
}

struct CommitQueueState {
    pending: Vec<PendingWrite>,
    leader_active: bool,
}

impl CommitQueue {
    fn new() -> CommitQueue {
        CommitQueue {
            state: Mutex::new(
                LockRank::CommitQueueState,
                CommitQueueState { pending: Vec::new(), leader_active: false },
            ),
            follower_cv: Condvar::new(),
        }
    }

    /// Joins the queue with `ops`; returns the outcome slot and whether the
    /// calling writer must lead.
    fn join(&self, ops: Vec<BatchOp>) -> (Arc<Mutex<Option<Result<()>>>>, bool) {
        let slot = Arc::new(Mutex::new(LockRank::CommitSlot, None));
        let mut state = self.state.lock();
        state.pending.push(PendingWrite { ops, slot: Arc::clone(&slot) });
        let lead = !state.leader_active;
        state.leader_active = true;
        (slot, lead)
    }
}

/// One writer's ops awaiting a group-commit leader, plus the slot the leader
/// posts the outcome into.
struct PendingWrite {
    ops: Vec<BatchOp>,
    slot: Arc<Mutex<Option<Result<()>>>>,
}

/// The shard (out of `n`) owning `key`: multiply-shift hash (Fibonacci
/// hashing), shared by the live store and its snapshot handles so both
/// route a key to the same captured shard view.
fn shard_of_key(key: SortKey, n: usize) -> usize {
    let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 32) as usize) % n
}

/// Whether `ops` contains a secondary range delete — the one batch op that
/// restructures the tree instead of appending to the memtable.
fn has_secondary_delete(ops: &[BatchOp]) -> bool {
    ops.iter().any(|op| matches!(op, BatchOp::SecondaryDelete { .. }))
}

/// Mirrors a group-level failure to every waiter in the group.
/// [`StorageError`] is not `Clone` (it wraps `std::io::Error`), so each
/// waiter gets a fresh error carrying the leader's message; an injected
/// crash stays [`StorageError::Injected`] so the crash harness recognises it.
fn mirror_error(e: &StorageError) -> StorageError {
    match e {
        StorageError::Injected => StorageError::Injected,
        other => StorageError::Io(std::io::Error::other(format!("group commit failed: {other}"))),
    }
}

/// Commits one drained group under the engine lock: stages every request as
/// its own WAL frame, pays **one** durability barrier for the combined tail,
/// then applies each request to the memtable and posts its outcome.
///
/// A request that fails to stage fails alone (its frame never reached the
/// log); a failed group fsync fails every staged request, since none of them
/// can claim durability. Either way every drained slot is filled.
fn commit_group(engine: &mut Lethe, pending: Vec<PendingWrite>) {
    if pending.is_empty() {
        return;
    }
    let tree = engine.tree_mut();
    let mut staged = Vec::with_capacity(pending.len());
    for req in pending {
        match tree.stage_batch(&req.ops, None) {
            Ok(ts) => staged.push((req, ts)),
            Err(e) => *req.slot.lock() = Some(Err(e)),
        }
    }
    if staged.is_empty() {
        return;
    }
    if let Err(e) = tree.wal_commit() {
        for (req, _) in &staged {
            *req.slot.lock() = Some(Err(mirror_error(&e)));
        }
        return;
    }
    for (PendingWrite { ops, slot }, ts) in staged {
        let outcome = tree.apply_batch(ops, ts);
        *slot.lock() = Some(outcome);
    }
}

/// Write-backpressure event counters; see [`ShardedLethe::backpressure`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackpressureStats {
    /// Writes that blocked until the worker made progress (full buffer
    /// behind an unflushed frozen one, or level 0 at the stall threshold).
    pub stalls: u64,
    /// Writes that yielded because level 0 reached the slowdown threshold.
    pub slowdowns: u64,
}

/// A concurrent, hash-sharded Lethe engine with a `&self` API.
///
/// See the [module docs](self) for the threading model. Construct one
/// through [`ShardedLetheBuilder`]. Dropping the store shuts down and joins
/// every shard's background worker.
pub struct ShardedLethe {
    shards: Vec<Shard>,
    clock: LogicalClock,
    /// The block cache shared by every shard, if one was configured.
    cache: Option<Arc<PageCache>>,
    /// The store-wide commit point for cross-shard batches; `None` for
    /// in-memory stores, which have no crash to protect against.
    batch_log: Option<Arc<BatchCommitLog>>,
    /// Durability barriers issued for the `SHARDS` super-manifest.
    manifest_fsyncs: AtomicU64,
    stalls: AtomicU64,
    slowdowns: AtomicU64,
    /// The store-wide seqnum allocator every shard draws from. Its value
    /// read while **all** engine locks are held is a consistent snapshot
    /// fence: no write anywhere in the store can be in flight at that
    /// instant, so every seqnum below the fence is fully applied and every
    /// one at or above it is entirely absent.
    seqnums: Arc<AtomicU64>,
    /// The live-snapshot tracker shared with every shard's tree; registered
    /// fences gate tombstone GC and page reclamation store-wide.
    snapshots: Arc<SnapshotTracker>,
    /// Live snapshot state by handle id. Holding the only strong `Arc` here
    /// (handles hold `Weak`s) lets [`ShardedLethe::expire_snapshots`]
    /// release pinned pages even when a stale handle is still around — the
    /// handle then fails closed instead of reading reclaimed pages.
    snapshot_registry: Arc<Mutex<HashMap<u64, Arc<SnapshotInner>>>>,
    snapshot_ids: AtomicU64,
    /// The crash fail point shared by every durable component (if any);
    /// retained so [`ShardedLethe::checkpoint`] arms the checkpoint target's
    /// backend, manifest and completeness marker with the same countdown.
    failpoint: Option<lethe_storage::FailPoint>,
}

// Compile-time proof of the headline property: the sharded front-end can be
// shared across threads by reference, no external synchronisation needed.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardedLethe>();
};

impl ShardedLethe {
    /// Starts building a sharded engine.
    pub fn builder() -> ShardedLetheBuilder {
        ShardedLetheBuilder::new()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `key`: multiply-shift hash (Fibonacci hashing), so
    /// dense sequential key ranges spread evenly across shards.
    fn shard_of(&self, key: SortKey) -> usize {
        shard_of_key(key, self.shards.len())
    }

    /// Parks the calling writer while `shard` reports a stall condition
    /// (full buffer behind an unflushed frozen one, or level 0 at the stall
    /// threshold). If the worker twice completes a pass without clearing the
    /// condition (it hit an error, or the thresholds are configured below
    /// what the policy considers compactable), the writer proceeds anyway —
    /// the buffer overshoots rather than deadlocks, and the error surfaces
    /// at the next `maintain`/`persist`.
    fn backpressure_wait(&self, shard: &Shard) {
        let mut fruitless = 0u32;
        loop {
            let stalled =
                shard.reader.write_stalled() || shard.reader.l0_run_count() >= shard.stall_runs;
            if !stalled || fruitless >= 2 {
                return;
            }
            self.stalls.fetch_add(1, Ordering::Relaxed);
            let jobs_before = shard.worker.jobs_done();
            shard.worker.wait_for_progress();
            if shard.worker.jobs_done() == jobs_before {
                fruitless += 1;
            }
        }
    }

    /// Post-write worker nudge and stage-1 slowdown, shared by every write
    /// path: wakes the worker when there is a frozen buffer to flush or
    /// level 0 crossed the slowdown threshold, and yields the writer's
    /// scheduling slot inside the slowdown window.
    fn after_write(&self, shard: &Shard, frozen: bool) {
        let l0 = shard.reader.l0_run_count();
        if frozen || l0 >= shard.slowdown_runs {
            shard.worker.wake();
        }
        if l0 >= shard.slowdown_runs && l0 < shard.stall_runs {
            self.slowdowns.fetch_add(1, Ordering::Relaxed);
            std::thread::yield_now();
        }
    }

    /// Runs one write operation against `shard` under its lock, applying
    /// write backpressure first and nudging the worker afterwards.
    fn write_to<R>(&self, shard: &Shard, op: impl FnOnce(&mut Lethe) -> Result<R>) -> Result<R> {
        self.backpressure_wait(shard);
        let mut engine = shard.engine.lock();
        let result = op(&mut engine)?;
        let frozen = engine.tree().has_frozen();
        drop(engine);
        self.after_write(shard, frozen);
        Ok(result)
    }

    /// Routes `ops` through `shard`'s group-commit queue; see the module
    /// docs. The caller blocks until a leader (possibly itself) has staged,
    /// fsynced and applied its request, and gets that request's outcome.
    fn group_write(&self, shard: &Shard, ops: Vec<BatchOp>) -> Result<()> {
        // a secondary range delete restructures the tree (KiWi page drops +
        // a version install), so — exactly like `delete_where_delete_key_in`
        // — park the worker for the whole request. The guard is taken before
        // the queue join and held until the outcome arrives, so whichever
        // leader applies this request finds the worker already parked. A
        // paused worker can't make the progress a stalled writer waits for,
        // so structural requests also skip stall backpressure (matching the
        // direct foreground path).
        let structural = has_secondary_delete(&ops);
        let _parked = structural.then(|| shard.worker.pause());
        if !structural {
            self.backpressure_wait(shard);
        }
        let (slot, lead) = shard.queue.join(ops);
        if lead {
            self.lead_commits(shard);
        } else {
            let mut state = shard.queue.state.lock();
            while slot.lock().is_none() {
                state = shard.queue.follower_cv.wait(state, &shard.queue.state);
            }
            drop(state);
        }
        let outcome = slot.lock().take();
        outcome.expect("a group-commit leader posts an outcome for every joined request")
    }

    /// Leader duty: under one engine-lock acquisition, commit convoys of
    /// queued requests until the queue is empty, waking followers after
    /// every convoy. The leader's own request is part of the first convoy
    /// (it joined before leading), so its slot is filled on return.
    fn lead_commits(&self, shard: &Shard) {
        let mut frozen = false;
        let mut engine = shard.engine.lock();
        loop {
            let pending = {
                let mut state = shard.queue.state.lock();
                if state.pending.is_empty() {
                    // resign while holding the state lock: the next joiner
                    // sees no active leader and takes over
                    state.leader_active = false;
                    break;
                }
                std::mem::take(&mut state.pending)
            };
            // no artificial delay to fatten convoys: followers woken by the
            // previous convoy's ack rejoin the queue while this convoy is
            // inside its fsync — that overlap is what grows groups
            commit_group(&mut engine, pending);
            frozen |= engine.tree().has_frozen();
            // the empty state critical section fences follower check-then-
            // wait: anyone who saw an unfilled slot is parked by now
            drop(shard.queue.state.lock());
            shard.queue.follower_cv.notify_all();
        }
        drop(engine);
        self.after_write(shard, frozen);
    }

    /// Inserts (or updates) `key` with an associated delete key and value.
    ///
    /// Durably logged through the owning shard's group-commit queue, so
    /// concurrent puts against one shard share WAL durability barriers; see
    /// the module docs.
    pub fn put(&self, key: SortKey, delete_key: DeleteKey, value: impl Into<Bytes>) -> Result<()> {
        let shard = &self.shards[self.shard_of(key)];
        let op = BatchOp::Put { sort_key: key, delete_key, value: value.into() };
        self.group_write(shard, vec![op])
    }

    /// Atomically applies a [`WriteBatch`]: all of its operations become
    /// durable and visible together or — across a crash — not at all.
    ///
    /// Ops route to their owning shards like the point API (secondary range
    /// deletes fan out to every shard). A batch whose ops all land in one
    /// shard is logged as a **single WAL frame** through that shard's
    /// group-commit queue: readers observe it all-or-nothing (its point ops
    /// apply under one memtable write guard) and recovery replays it
    /// all-or-nothing (a torn tail discards the whole frame). Unlike
    /// [`delete`](ShardedLethe::delete), batch deletes are never suppressed
    /// as blind.
    ///
    /// A batch spanning shards runs a two-phase commit on durable stores:
    /// every involved shard durably *prepares* its slice in its own WAL,
    /// then the store-wide batch-commit log records the batch id — that
    /// single fsync is the commit point — and only then do the slices apply,
    /// holding every involved shard's lock so no flush outruns an unapplied
    /// slice. Recovery rolls back prepared slices whose id never committed,
    /// so a crash anywhere leaves the batch fully applied or fully absent.
    /// In-memory stores ([`ShardedLetheBuilder::build`]) skip the protocol —
    /// they have no crash to protect against — and commit each slice through
    /// its shard's queue directly.
    ///
    /// # Errors
    ///
    /// An `Err` raised *before* the commit point means the batch did not
    /// (and never will) take effect. An `Err` raised *after* it — an
    /// in-memory apply failure on some shard — means the batch **is**
    /// durably committed: every slice whose apply succeeded is already
    /// visible, and the rest surface when the store is reopened (recovery
    /// replays the committed batch in full). Callers that cannot tolerate
    /// that window should treat such an error as fatal and restart.
    ///
    /// The weakly-consistent fan-out contract (module docs) still applies to
    /// *live* readers of a multi-shard batch: per-shard snapshots are pinned
    /// one at a time, so a concurrent scan may observe one shard's slice
    /// before another's. Single-shard batches are reader-atomic.
    pub fn write(&self, batch: WriteBatch) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let mut slices: Vec<Vec<BatchOp>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        for op in batch.into_ops() {
            match &op {
                BatchOp::Put { sort_key, .. } | BatchOp::Delete { sort_key } => {
                    let i = self.shard_of(*sort_key);
                    slices[i].push(op);
                }
                BatchOp::SecondaryDelete { .. } => {
                    // the delete key is independent of the partitioning key,
                    // so every shard may hold qualifying entries
                    for slice in &mut slices {
                        slice.push(op.clone());
                    }
                }
            }
        }
        let involved: Vec<usize> = (0..slices.len()).filter(|&i| !slices[i].is_empty()).collect();
        match involved.as_slice() {
            [] => Ok(()),
            [i] => self.group_write(&self.shards[*i], std::mem::take(&mut slices[*i])),
            _ => self.write_cross_shard(slices, involved),
        }
    }

    /// Two-phase commit of a batch spanning several shards; see
    /// [`ShardedLethe::write`].
    fn write_cross_shard(&self, mut slices: Vec<Vec<BatchOp>>, involved: Vec<usize>) -> Result<()> {
        let Some(log) = &self.batch_log else {
            // in-memory store: nothing survives a crash, so there is no
            // prepared state that could need rolling back
            for &i in &involved {
                self.group_write(&self.shards[i], std::mem::take(&mut slices[i]))?;
            }
            return Ok(());
        };
        // park the involved workers when the batch restructures trees (see
        // `group_write`); otherwise respect write backpressure before taking
        // any locks
        let structural = involved.iter().any(|&i| has_secondary_delete(&slices[i]));
        let _parked: Option<Vec<_>> =
            structural.then(|| involved.iter().map(|&i| self.shards[i].worker.pause()).collect());
        if !structural {
            for &i in &involved {
                self.backpressure_wait(&self.shards[i]);
            }
        }
        let id = log.allocate_id();
        // lock every involved shard in ascending index order (deadlock-free
        // against other cross-shard writers) and hold the locks through
        // prepare → commit → apply: no freeze/flush can truncate a prepared
        // frame out of a WAL before its slice is applied, so a committed id
        // always finds its slices — in the WALs or already flushed
        let mut guards: Vec<_> = involved.iter().map(|&i| self.shards[i].engine.lock()).collect();
        // prepare: durably log each shard's slice under the shared id. An
        // error aborts the batch — `id` never commits, and recovery rolls
        // the already-prepared slices back on every shard
        let mut stamps = Vec::with_capacity(involved.len());
        for (guard, &i) in guards.iter_mut().zip(&involved) {
            let tree = guard.tree_mut();
            // an abort between stage and commit is the designed 2PC failure path:
            // `id` never reaches the batch-commit log, so on the next recovery the
            // prepared slices roll back on every shard (see rollback_batch)
            // lint:allow(leak-paths): aborted ids are rolled back by recovery, not leaked
            let ts = tree.stage_batch(&slices[i], Some(id))?;
            tree.wal_commit()?;
            stamps.push(ts);
        }
        // commit point: one fsync in the store-wide batch-commit log
        log.commit(id)?;
        // apply: the batch is durable on every shard and will replay in
        // full on the next recovery no matter what happens below, so an
        // apply error must not abort the loop — skipping the remaining
        // slices would leave the batch half-visible to live readers while
        // a restart would surface all of it. Apply every slice, remember
        // the first error, and surface it after the fan-out: an `Err` from
        // here on means "committed, apply incomplete until restart", never
        // "rolled back" (see the `write` docs).
        let mut apply_err = None;
        for ((guard, &i), ts) in guards.iter_mut().zip(&involved).zip(stamps) {
            if let Err(e) = guard.tree_mut().apply_batch(std::mem::take(&mut slices[i]), ts) {
                apply_err.get_or_insert(e);
            }
        }
        let frozen: Vec<bool> = guards.iter().map(|g| g.tree().has_frozen()).collect();
        drop(guards);
        for (&i, frozen) in involved.iter().zip(frozen) {
            self.after_write(&self.shards[i], frozen);
        }
        match apply_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Point lookup — served lock-free from the owning shard's snapshot
    /// read surface; never blocked by writers, flushes or compactions.
    pub fn get(&self, key: SortKey) -> Result<Option<Bytes>> {
        self.shards[self.shard_of(key)].reader.get(key)
    }

    /// Point delete on the sort key. Returns `false` if the owning shard
    /// suppressed the delete as blind (the key cannot exist).
    pub fn delete(&self, key: SortKey) -> Result<bool> {
        let shard = &self.shards[self.shard_of(key)];
        self.write_to(shard, move |engine| engine.delete(key))
    }

    /// Range delete on the sort key over `[start, end)`. Hash partitioning
    /// scatters the range, so the tombstone fans out to every shard.
    pub fn delete_range(&self, start: SortKey, end: SortKey) -> Result<()> {
        for shard in &self.shards {
            self.write_to(shard, |engine| engine.delete_range(start, end))?;
        }
        Ok(())
    }

    /// Secondary range delete: removes every entry whose **delete key** lies
    /// in `[lo, hi)`. Fans out to every shard (the delete key is independent
    /// of the partitioning key) and returns the aggregated page-drop stats.
    ///
    /// A structural foreground operation: each shard's worker is paused (its
    /// in-flight job completes first) while that shard's pages are dropped,
    /// so the delete never races a background version install.
    pub fn delete_where_delete_key_in(
        &self,
        lo: DeleteKey,
        hi: DeleteKey,
    ) -> Result<SecondaryDeleteStats> {
        let mut total = SecondaryDeleteStats::default();
        for shard in &self.shards {
            let _parked = shard.worker.pause();
            let stats = shard.engine.lock().delete_where_delete_key_in(lo, hi)?;
            total.merge(&stats);
        }
        Ok(total)
    }

    /// Range lookup on the sort key over `[lo, hi)`: fans out to every
    /// shard's snapshot reader (no shard locks) and merges the per-shard
    /// results back into global sort-key order.
    ///
    /// Materialises the whole result; use
    /// [`iter_range`](ShardedLethe::iter_range) to stream large scans.
    pub fn range(&self, lo: SortKey, hi: SortKey) -> Result<Vec<(SortKey, Bytes)>> {
        self.iter_range(lo, hi).collect()
    }

    /// Streaming range scan over `[lo, hi)` across every shard: k-way merges
    /// the per-shard streaming cursors into one iterator of live
    /// `(key, value)` pairs in global sort-key order. Each shard's pages are
    /// decoded lazily as the iterator advances, so callers can page through
    /// arbitrarily large scans (backups, analytics, cursors-over-HTTP)
    /// without materialising results, and an early stop never reads the
    /// tail of any shard.
    ///
    /// Consistency matches `range`: each shard's snapshot is pinned when
    /// this is called (no shard locks taken), so the scan is unaffected by
    /// concurrent maintenance, but the per-shard snapshots are taken one
    /// after another — the usual weakly-consistent fan-out contract.
    pub fn iter_range(&self, lo: SortKey, hi: SortKey) -> ShardedRangeIter {
        fan_out_iter_range(self.shards.iter().map(|s| &s.reader), lo, hi)
    }

    /// Secondary range lookup: every live entry whose delete key lies in
    /// `[lo, hi)`, across all shards, in sort-key order. Served from the
    /// per-shard snapshot readers without shard locks.
    pub fn scan_by_delete_key(&self, lo: DeleteKey, hi: DeleteKey) -> Result<Vec<Entry>> {
        fan_out_scan_by_delete_key(self.shards.iter().map(|s| &s.reader), lo, hi)
    }

    /// Captures a consistent cross-shard point-in-time view of the whole
    /// store and returns a [`Snapshot`] handle reading at it.
    ///
    /// Every shard's engine lock is taken in ascending shard order (the
    /// same deadlock-free idiom cross-shard batch commits use), the shared
    /// seqnum allocator is read **once** under all of them as the
    /// snapshot's fence, and each shard's tree is captured. Because the
    /// engine locks are exactly where group-commit leaders, two-phase
    /// cross-shard commits and worker plan/apply phases serialise, no
    /// write — and in particular no multi-op batch — can straddle the
    /// fence: the snapshot observes each batch entirely or not at all,
    /// fixing the weakly-consistent fan-out contract of the live read
    /// path. The capture itself is cheap (per shard: one bounded memtable
    /// clone plus three `Arc` bumps), so writers stall only momentarily.
    ///
    /// The fence is registered with the store's [`SnapshotTracker`]:
    /// while the handle lives, tombstone drops that would discard history
    /// the snapshot still reads are deferred (FADE's accounting counts
    /// them in [`TreeStats::tombstone_gc_delayed`]), and the pinned
    /// versions defer page reclamation. Dropping the handle releases both.
    pub fn snapshot(&self) -> Snapshot {
        let guards: Vec<_> = self.shards.iter().map(|s| s.engine.lock()).collect();
        let fence = self.seqnums.load(Ordering::SeqCst);
        self.snapshots.register(fence);
        let shards: Vec<TreeReader> = guards.iter().map(|g| g.tree().capture_snapshot()).collect();
        drop(guards);
        let inner = Arc::new(SnapshotInner {
            fence,
            shards,
            tracker: Arc::clone(&self.snapshots),
        });
        let id = self.snapshot_ids.fetch_add(1, Ordering::Relaxed);
        let handle = Snapshot {
            id,
            fence,
            inner: Arc::downgrade(&inner),
            registry: Arc::clone(&self.snapshot_registry),
            tracker: Arc::clone(&self.snapshots),
        };
        self.snapshot_registry.lock().insert(id, inner);
        handle
    }

    /// Number of snapshot handles currently pinning store state.
    pub fn live_snapshots(&self) -> usize {
        self.snapshot_registry.lock().len()
    }

    /// Forcibly releases every live snapshot, returning how many were
    /// expired. Their pinned buffers and versions are dropped (so deferred
    /// page reclamation and tombstone GC resume) and the tracker's
    /// lowest-freed watermark advances to the highest expired fence;
    /// outstanding [`Snapshot`] handles fail closed from now on instead of
    /// ever reading reclaimed state. An escape hatch for operators when a
    /// forgotten handle is pinning space — not part of normal snapshot
    /// lifecycle (dropping the handle is).
    pub fn expire_snapshots(&self) -> usize {
        let drained: Vec<Arc<SnapshotInner>> = {
            let mut registry = self.snapshot_registry.lock();
            let ids: Vec<u64> = registry.keys().copied().collect();
            ids.iter().filter_map(|id| registry.remove(id)).collect()
        };
        if let Some(max) = drained.iter().map(|inner| inner.fence).max() {
            self.snapshots.set_lowest_freed(max);
        }
        // dropping the last Arcs releases the tracker registrations and the
        // pinned versions (outside the registry lock)
        drained.len()
    }

    /// Streams a consistent point-in-time image of the whole store into
    /// `dir` — an **online backup** — and returns the completeness marker
    /// it committed. Writers, flushes and compactions continue throughout:
    /// the checkpoint pins its own [`Snapshot`] (released on return) and
    /// reads only captured state.
    ///
    /// The target directory becomes a self-contained single-shard store:
    /// the per-shard checkpoint streams (every entry at the fence, newest
    /// version per key, tombstones and delete keys retained) are k-way
    /// merged into fresh KiWi-laid-out tables on a fresh backend, a fresh
    /// manifest commits the table layout with `next_seqnum` at the fence,
    /// and **last** the checksummed `CHECKPOINT` marker is durably written
    /// — the commit point. A crash anywhere mid-stream leaves a directory
    /// without a valid marker, which [`Lethe::restore`] refuses: a torn
    /// checkpoint is detectably incomplete, never silently short.
    pub fn checkpoint(&self, dir: impl AsRef<Path>) -> Result<CheckpointMarker> {
        let snapshot = self.snapshot();
        self.checkpoint_at(&snapshot, dir)
    }

    /// Streams an already-held [`Snapshot`]'s view into `dir`; see
    /// [`ShardedLethe::checkpoint`]. Lets a caller read through the same
    /// snapshot it backed up (e.g. to verify the backup against the live
    /// view it captured).
    pub fn checkpoint_at(&self, snapshot: &Snapshot, dir: impl AsRef<Path>) -> Result<CheckpointMarker> {
        let inner = snapshot.pinned()?;
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let mut backend = FileBackend::open_named(dir, "checkpoint")?;
        if let Some(fp) = &self.failpoint {
            backend.set_failpoint(fp.clone());
        }
        let backend: Arc<dyn StorageBackend> = Arc::new(backend);
        let config = self.shards[0].engine.lock().config().clone();
        // one source stream per shard; hash partitioning puts every sort
        // key in exactly one shard, so the pick-min merge needs no
        // cross-shard dedup
        let mut streams = Vec::with_capacity(inner.shards.len());
        let mut heads: Vec<Option<Entry>> = Vec::with_capacity(inner.shards.len());
        for shard in &inner.shards {
            let mut stream = shard.entry_merge()?;
            heads.push(stream.next_merged()?);
            streams.push(stream);
        }
        // range tombstones live outside the page stream; carry every one
        // visible at the fence in the first table's range-tombstone block
        // (their shadowing was already applied to the merged entries, so
        // re-applying it on restore is idempotent)
        let mut rts: Vec<Entry> = inner.shards.iter().flat_map(|s| s.all_range_tombstones()).collect();
        rts.sort_by_key(|e| (e.sort_key, e.seqnum));
        let oldest_tombstone_ts =
            inner.shards.iter().filter_map(|s| s.oldest_tombstone_ts()).min();
        let entries_per_file =
            (config.max_pages_per_file.max(1) * config.entries_per_page.max(1)).max(1);
        let created_at = self.clock.now();
        let mut files = Vec::new();
        let mut next_file_id = 1u64;
        loop {
            let mut chunk: Vec<Entry> = Vec::with_capacity(entries_per_file.min(1024));
            while chunk.len() < entries_per_file {
                let best = heads
                    .iter()
                    .enumerate()
                    .filter_map(|(i, h)| h.as_ref().map(|e| (i, e.sort_key)))
                    .min_by_key(|&(_, k)| k);
                let Some((i, _)) = best else { break };
                if let Some(e) = heads[i].take() {
                    chunk.push(e);
                }
                heads[i] = streams[i].next_merged()?;
            }
            let chunk_rts = std::mem::take(&mut rts);
            if chunk.is_empty() && chunk_rts.is_empty() {
                break;
            }
            let holds_tombstones =
                !chunk_rts.is_empty() || chunk.iter().any(|e| e.is_point_tombstone());
            let table = SsTable::build(
                next_file_id,
                chunk,
                chunk_rts,
                created_at,
                if holds_tombstones { oldest_tombstone_ts } else { None },
                &config,
                backend.as_ref(),
            )?;
            files.push(table.describe());
            next_file_id += 1;
        }
        // every page durable before the manifest references it, the
        // manifest durable before the marker declares the stream complete
        backend.sync()?;
        let state = ManifestState {
            next_file_id,
            next_seqnum: inner.fence,
            clock_micros: created_at,
            levels: vec![vec![files]],
        };
        let mut manifest = Manifest::open(dir.join("checkpoint.manifest"))?;
        if let Some(fp) = &self.failpoint {
            manifest.set_failpoint(fp.clone());
        }
        manifest.commit(state)?;
        let marker =
            CheckpointMarker { fence: inner.fence, shards: inner.shards.len() as u32 };
        write_marker(dir, marker, &self.manifest_fsyncs, self.failpoint.as_ref())?;
        Ok(marker)
    }

    /// Flushes every shard's write buffer and waits until every shard's
    /// worker has drained its compaction queue (including TTL-driven
    /// compactions that are due).
    ///
    /// The buffers are frozen under each shard lock in turn (microseconds),
    /// then all workers flush and compact **concurrently**; this call only
    /// blocks for the slowest shard, not for the sum of all shards.
    pub fn persist(&self) -> Result<()> {
        loop {
            let mut pending = false;
            for shard in &self.shards {
                let mut engine = shard.engine.lock();
                // freeze() returns false both for an empty active buffer
                // and for an occupied frozen slot — in the latter case the
                // active buffer may still hold data, so another pass is
                // needed after the workers drain the slot
                if engine.tree_mut().freeze()? || engine.tree().has_frozen() {
                    pending = true;
                }
                drop(engine);
                shard.worker.wake();
            }
            for shard in &self.shards {
                shard.worker.drain()?;
            }
            if !pending {
                return Ok(());
            }
        }
    }

    /// Wakes every shard's worker and waits for all of them to quiesce,
    /// letting FADE react to the passage of logical time; the
    /// delete-persistence threshold `D_th` holds per shard against the
    /// shared clock. The workers run concurrently — no shard blocks
    /// foreground operations on another shard while this drains.
    pub fn maintain(&self) -> Result<()> {
        for shard in &self.shards {
            shard.worker.wake();
        }
        for shard in &self.shards {
            shard.worker.drain()?;
        }
        Ok(())
    }

    /// Write-backpressure event counters accumulated by this store.
    pub fn backpressure(&self) -> BackpressureStats {
        BackpressureStats {
            stalls: self.stalls.load(Ordering::Relaxed),
            slowdowns: self.slowdowns.load(Ordering::Relaxed),
        }
    }

    /// Aggregated lifetime operation counters across all shards.
    ///
    /// The counters are sums of per-shard **physical** operations: one
    /// logical fan-out call (`delete_range`, `delete_where_delete_key_in`)
    /// executes on every shard and therefore counts `N` times here
    /// (`range_deletes_issued`, `secondary_range_deletes`). Divide by
    /// [`shard_count`](Self::shard_count) — or compare equal shard counts —
    /// when reading those counters as logical operation totals.
    pub fn stats(&self) -> TreeStats {
        let mut total = TreeStats::default();
        for shard in &self.shards {
            total.absorb(&shard.engine.lock().stats());
        }
        total
    }

    /// Aggregated device I/O counters across all shards, including the
    /// block-cache hit/miss counts when a cache is configured and the
    /// durability barriers issued by the per-shard WALs and the store-wide
    /// batch-commit log.
    pub fn io_snapshot(&self) -> IoSnapshot {
        let mut snap: IoSnapshot =
            self.shards.iter().map(|shard| shard.engine.lock().io_snapshot()).sum();
        if let Some(log) = &self.batch_log {
            snap.fsyncs += log.fsync_count();
        }
        snap.fsyncs += self.manifest_fsyncs.load(Ordering::Relaxed);
        snap
    }

    /// The block cache shared by every shard, if one is configured.
    pub fn block_cache(&self) -> Option<&Arc<PageCache>> {
        self.cache.as_ref()
    }

    /// Counters and occupancy of the shared block cache, if one is
    /// configured (hit/miss/eviction/invalidation counts plus resident
    /// bytes and pages).
    pub fn cache_snapshot(&self) -> Option<CacheSnapshot> {
        self.cache.as_ref().map(|c| c.snapshot())
    }

    /// Aggregated measurement-time snapshot of all shard trees.
    pub fn snapshot_contents(&self) -> Result<ContentSnapshot> {
        let mut total = ContentSnapshot::default();
        for shard in &self.shards {
            total.absorb(&shard.engine.lock().snapshot_contents()?);
        }
        Ok(total)
    }

    /// Write amplification across all shards (aggregate device bytes written
    /// over aggregate bytes ingested).
    pub fn write_amplification(&self) -> f64 {
        self.stats().write_amplification(self.io_snapshot().bytes_written)
    }

    /// The logical clock shared by every shard; advance it to model the
    /// passage of time between operations.
    pub fn clock(&self) -> &LogicalClock {
        &self.clock
    }

    /// White-box access to one shard for experiments and tests: pauses the
    /// shard's background worker (its in-flight job completes first), then
    /// runs `f` with the shard's engine locked.
    ///
    /// # Panics
    /// Panics if `index >= self.shard_count()`.
    pub fn with_shard<R>(&self, index: usize, f: impl FnOnce(&mut Lethe) -> R) -> R {
        let shard = &self.shards[index];
        let _parked = shard.worker.pause();
        // bind the guard: a tail-expression temporary would outlive
        // `_parked`, making the pause guard re-lock the worker state while
        // the engine lock is still held — a rank inversion
        let mut engine = shard.engine.lock();
        f(&mut engine)
    }
}

/// One shard's stream inside a [`ShardedRangeIter`]: the shard's pinned
/// streaming cursor plus its buffered head item.
struct ShardHead {
    iter: RangeIter,
    next: Option<(SortKey, Bytes)>,
}

impl ShardHead {
    /// Advances the underlying stream into the head slot; an error parks in
    /// `pending_err` (first error wins) and leaves the head empty.
    fn pull(&mut self, pending_err: &mut Option<lethe_storage::StorageError>) {
        match self.iter.next() {
            Some(Ok(kv)) => self.next = Some(kv),
            Some(Err(e)) => {
                self.next = None;
                pending_err.get_or_insert(e);
            }
            None => self.next = None,
        }
    }
}

/// A streaming cross-shard range scan; obtained from
/// [`ShardedLethe::iter_range`].
///
/// Yields `Result<(key, value)>` in global sort-key order (hash partitioning
/// puts every key in exactly one shard, so there are no cross-shard ties).
/// Each shard contributes through its own pinned snapshot cursor; pages are
/// decoded lazily as the merge advances. If any shard's stream fails, the
/// error is yielded once (after the items already merged) and the iterator
/// is fused.
pub struct ShardedRangeIter {
    heads: Vec<ShardHead>,
    pending_err: Option<lethe_storage::StorageError>,
    done: bool,
}

impl Iterator for ShardedRangeIter {
    type Item = Result<(SortKey, Bytes)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        if let Some(e) = self.pending_err.take() {
            self.done = true;
            return Some(Err(e));
        }
        let mut best: Option<(usize, SortKey)> = None;
        for (i, head) in self.heads.iter().enumerate() {
            if let Some((k, _)) = &head.next {
                if best.is_none_or(|(_, bk)| *k < bk) {
                    best = Some((i, *k));
                }
            }
        }
        let Some((i, _)) = best else {
            self.done = true;
            return None;
        };
        let item = self.heads[i].next.take().expect("best head has an item");
        self.heads[i].pull(&mut self.pending_err);
        Some(Ok(item))
    }
}

/// The pinned state behind one [`Snapshot`] handle: the per-shard captured
/// views plus the tracker registration covering them. Lives in the store's
/// snapshot registry (the only strong `Arc`); dropping it — via handle drop
/// or [`ShardedLethe::expire_snapshots`] — releases the tracker fence, the
/// pinned buffers and the pinned versions, letting tombstone GC and page
/// reclamation resume.
struct SnapshotInner {
    fence: SeqNum,
    shards: Vec<TreeReader>,
    tracker: Arc<SnapshotTracker>,
}

impl Drop for SnapshotInner {
    fn drop(&mut self) {
        self.tracker.release(self.fence);
    }
}

/// A consistent cross-shard point-in-time view of a [`ShardedLethe`] store,
/// obtained from [`ShardedLethe::snapshot`].
///
/// All reads (`get`/`range`/`iter_range`/`scan_by_delete_key`) answer as of
/// the snapshot's seqnum fence, no matter how many writes, flushes,
/// compactions or secondary deletes have happened since — and they take no
/// shard locks. While the handle lives, tombstone GC that would discard
/// history it reads is deferred and its disk pages are pinned; dropping it
/// releases both. A handle invalidated by
/// [`ShardedLethe::expire_snapshots`] fails every subsequent read with an
/// explicit error (its pages may have been reclaimed — the tracker's
/// lowest-freed watermark has moved past its fence) instead of returning
/// partial state; iterators obtained *before* the expiry stay safe, since
/// they hold their own pins.
pub struct Snapshot {
    id: u64,
    fence: SeqNum,
    inner: Weak<SnapshotInner>,
    registry: Arc<Mutex<HashMap<u64, Arc<SnapshotInner>>>>,
    tracker: Arc<SnapshotTracker>,
}

impl Snapshot {
    /// The snapshot's seqnum fence: every write with a smaller seqnum is
    /// visible, every one at or above it is not.
    pub fn seqnum(&self) -> SeqNum {
        self.fence
    }

    /// The pinned state, or the fail-closed error for an expired handle.
    fn pinned(&self) -> Result<Arc<SnapshotInner>> {
        self.inner.upgrade().ok_or_else(|| {
            let reclaimed = !self.tracker.is_valid(self.fence);
            StorageError::InvalidOperation(format!(
                "snapshot at seqnum fence {} was expired{}; take a new snapshot",
                self.fence,
                if reclaimed {
                    " and pages it pinned may already be reclaimed \
                     (the lowest-freed watermark passed its fence)"
                } else {
                    ""
                }
            ))
        })
    }

    /// Point lookup at the snapshot: the value of `key` as of the fence.
    pub fn get(&self, key: SortKey) -> Result<Option<Bytes>> {
        let inner = self.pinned()?;
        inner.shards[shard_of_key(key, inner.shards.len())].get(key)
    }

    /// Range lookup over `[lo, hi)` at the snapshot, merged back into
    /// global sort-key order across shards.
    pub fn range(&self, lo: SortKey, hi: SortKey) -> Result<Vec<(SortKey, Bytes)>> {
        self.iter_range(lo, hi)?.collect()
    }

    /// Streaming range scan over `[lo, hi)` at the snapshot: the same
    /// fan-out as [`ShardedLethe::iter_range`], over the captured readers.
    /// The returned iterator owns its own pins, so it remains valid even if
    /// the handle is expired mid-scan.
    pub fn iter_range(&self, lo: SortKey, hi: SortKey) -> Result<ShardedRangeIter> {
        Ok(fan_out_iter_range(&self.pinned()?.shards, lo, hi))
    }

    /// Secondary range lookup at the snapshot: every entry live at the
    /// fence whose delete key lies in `[lo, hi)`, across all shards, in
    /// sort-key order.
    pub fn scan_by_delete_key(&self, lo: DeleteKey, hi: DeleteKey) -> Result<Vec<Entry>> {
        fan_out_scan_by_delete_key(&self.pinned()?.shards, lo, hi)
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        // remove the registry's Arc (usually the last one): the inner drop
        // runs after the registry lock is released
        let inner = self.registry.lock().remove(&self.id);
        drop(inner);
    }
}

/// Streams `[lo, hi)` from one reader per shard, k-way merged into global
/// sort-key order: the fan-out behind both [`ShardedLethe::iter_range`]
/// (live readers) and [`Snapshot::iter_range`] (captured readers). A shard
/// whose scan fails to open parks its error for the iterator to yield.
fn fan_out_iter_range<'a>(
    readers: impl IntoIterator<Item = &'a TreeReader>,
    lo: SortKey,
    hi: SortKey,
) -> ShardedRangeIter {
    let mut heads = Vec::new();
    let mut pending_err = None;
    for reader in readers {
        match reader.iter_range(lo, hi) {
            Ok(iter) => {
                let mut head = ShardHead { iter, next: None };
                head.pull(&mut pending_err);
                heads.push(head);
            }
            Err(e) => {
                pending_err.get_or_insert(e);
            }
        }
    }
    ShardedRangeIter { heads, pending_err, done: false }
}

/// Secondary range scan over one reader per shard, in global sort-key
/// order: the fan-out behind both [`ShardedLethe::scan_by_delete_key`] and
/// [`Snapshot::scan_by_delete_key`]. Each shard's hits arrive sorted and
/// hash partitioning puts every key in exactly one shard, so a stable sort
/// of the concatenation merges the runs without ties.
fn fan_out_scan_by_delete_key<'a>(
    readers: impl IntoIterator<Item = &'a TreeReader>,
    lo: DeleteKey,
    hi: DeleteKey,
) -> Result<Vec<Entry>> {
    let mut hits = Vec::new();
    for reader in readers {
        hits.extend(reader.secondary_range_scan(lo, hi)?);
    }
    hits.sort_by_key(|e| e.sort_key);
    Ok(hits)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ShardedLetheBuilder {
        ShardedLetheBuilder::new()
            .buffer(8, 4, 64)
            .size_ratio(4)
            .delete_tile_pages(2)
            .delete_persistence_threshold_secs(5.0)
    }

    #[test]
    fn routes_points_and_merges_ranges() {
        let db = small().shards(4).build().unwrap();
        assert_eq!(db.shard_count(), 4);
        for k in 0..500u64 {
            db.put(k, k % 97, format!("v{k}")).unwrap();
        }
        db.persist().unwrap();
        assert_eq!(db.get(123).unwrap(), Some(Bytes::from("v123")));
        assert_eq!(db.get(9999).unwrap(), None);
        let all = db.range(0, 500).unwrap();
        assert_eq!(all.len(), 500);
        let keys: Vec<u64> = all.iter().map(|(k, _)| *k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "fan-out range must return global sort-key order");
    }

    #[test]
    fn deletes_fan_out_correctly() {
        let db = small().shards(3).build().unwrap();
        for k in 0..300u64 {
            db.put(k, k, format!("v{k}")).unwrap();
        }
        assert!(db.delete(7).unwrap());
        assert_eq!(db.get(7).unwrap(), None);
        db.delete_range(100, 150).unwrap();
        assert_eq!(db.range(100, 150).unwrap().len(), 0);
        assert_eq!(db.get(150).unwrap(), Some(Bytes::from("v150")));
        // secondary delete covers every shard: drop delete keys [200, 300)
        // (KiWi page drops act on flushed pages, so persist first)
        db.persist().unwrap();
        let stats = db.delete_where_delete_key_in(200, 300).unwrap();
        assert_eq!(stats.entries_deleted, 100);
        assert!(db.scan_by_delete_key(200, 300).unwrap().is_empty());
        assert!(db.get(199).unwrap().is_some());
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let db = small().shards(4).build().unwrap();
        for k in 0..200u64 {
            db.put(k, k, format!("v{k}")).unwrap();
        }
        for k in 0..200u64 {
            db.get(k).unwrap();
        }
        db.persist().unwrap();
        let stats = db.stats();
        assert_eq!(stats.entries_ingested, 200);
        assert_eq!(stats.point_lookups, 200);
        let io = db.io_snapshot();
        assert!(io.pages_written > 0);
        // every shard took a slice of the key space
        for i in 0..db.shard_count() {
            assert!(db.with_shard(i, |s| s.stats().entries_ingested) > 0);
        }
    }

    #[test]
    fn single_shard_matches_unsharded_semantics() {
        let db = small().shards(1).build().unwrap();
        for k in 0..100u64 {
            db.put(k, k, format!("v{k}")).unwrap();
        }
        db.persist().unwrap();
        assert_eq!(db.range(0, 100).unwrap().len(), 100);
        assert!(db.delete(5).unwrap());
        assert!(!db.delete(100_000).unwrap(), "blind delete must be suppressed");
        assert_eq!(db.stats().blind_deletes_suppressed, 1);
    }

    #[test]
    fn durable_sharded_store_roundtrips_and_checks_shard_count() {
        let dir = std::env::temp_dir().join(format!("lethe-sharded-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durable = || small().buffer(64, 4, 64).shards(3);
        {
            let db = durable().open(&dir).unwrap();
            for k in 0..200u64 {
                db.put(k, k, format!("durable-{k}")).unwrap();
            }
            // no flush: data only lives in the per-shard WALs
        }
        {
            let db = durable().open(&dir).unwrap();
            assert_eq!(db.get(42).unwrap(), Some(Bytes::from("durable-42")));
            assert_eq!(db.range(0, 200).unwrap().len(), 200);
        }
        // a mismatched shard count must be rejected, not silently misroute
        assert!(small().shards(5).open(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_sharded_store_recovers_flushed_data() {
        let dir = std::env::temp_dir().join(format!("lethe-sharded-rec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // tiny buffers: the working set is far larger than the write
        // buffers, so reopening must recover per-shard manifests, not just
        // replay the WALs
        let durable = || small().shards(3);
        {
            let db = durable().open(&dir).unwrap();
            for k in 0..500u64 {
                db.put(k, k % 97, format!("flushed-{k}")).unwrap();
            }
            db.persist().unwrap();
            for k in (0..500u64).step_by(7) {
                db.delete(k).unwrap();
            }
            db.persist().unwrap();
        }
        {
            let db = durable().open(&dir).unwrap();
            for k in 0..500u64 {
                let expect = if k % 7 == 0 { None } else { Some(Bytes::from(format!("flushed-{k}"))) };
                assert_eq!(db.get(k).unwrap(), expect, "key {k}");
            }
            assert_eq!(db.range(0, 500).unwrap().len(), 500 - 500usize.div_ceil(7));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn committed_store_without_super_manifest_is_rejected() {
        let dir = std::env::temp_dir().join(format!("lethe-sharded-part-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let db = small().shards(2).open(&dir).unwrap();
            for k in 0..200u64 {
                db.put(k, k, format!("v{k}")).unwrap();
            }
            db.persist().unwrap();
        }
        // lose the routing record: shard manifests exist, SHARDS does not
        std::fs::remove_file(dir.join("SHARDS")).unwrap();
        let err = match small().shards(2).open(&dir) {
            Ok(_) => panic!("partial shard state must be rejected"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("SHARDS"), "unexpected error: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tuning_is_independent_of_builder_call_order() {
        let profile = crate::tuning::WorkloadProfile {
            empty_point_lookups: 100.0,
            point_lookups: 100.0,
            short_range_lookups: 1.0,
            long_range_lookups: 0.0,
            long_range_selectivity: 0.0,
            secondary_range_deletes: 1.0,
            inserts: 0.0,
        };
        let tuned_then_sharded = ShardedLetheBuilder::new()
            .buffer(8, 4, 64)
            .size_ratio(4)
            .tune_delete_tiles_for(&profile, 1 << 16)
            .shards(16)
            .build()
            .unwrap();
        let sharded_then_tuned = ShardedLetheBuilder::new()
            .buffer(8, 4, 64)
            .size_ratio(4)
            .shards(16)
            .tune_delete_tiles_for(&profile, 1 << 16)
            .build()
            .unwrap();
        let h_a = tuned_then_sharded.with_shard(0, |s| s.config().pages_per_delete_tile);
        let h_b = sharded_then_tuned.with_shard(0, |s| s.config().pages_per_delete_tile);
        assert_eq!(h_a, h_b, "Equation (3) tuning must use the final shard count");
    }

    #[test]
    fn failed_open_leaves_no_shard_manifest() {
        let dir = std::env::temp_dir().join(format!("lethe-shardfail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // make shard-000's WAL path unopenable: a directory where the file goes
        std::fs::create_dir_all(dir.join("shard-000.wal")).unwrap();
        assert!(small().shards(2).open(&dir).is_err());
        assert!(
            !dir.join("SHARDS").exists(),
            "a failed open must not pin a shard count for a store that was never created"
        );
        // after clearing the obstruction, any shard count opens fine
        std::fs::remove_dir_all(dir.join("shard-000.wal")).unwrap();
        let db = small().shards(5).open(&dir).unwrap();
        drop(db);
        assert!(dir.join("SHARDS").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persist_flushes_active_buffer_behind_occupied_frozen_slot() {
        // regression: freeze() returning false because the frozen slot was
        // occupied used to end persist()'s loop one pass early, leaving the
        // active buffer (and with relaxed WAL sync policies, unsynced
        // acknowledged writes) unflushed
        let db = small().shards(1).build().unwrap();
        db.with_shard(0, |engine| {
            // occupy the frozen slot and refill the active buffer while the
            // worker is paused (with_shard) and never woken (direct puts
            // bypass the front-end's wake)
            for k in 0..40u64 {
                engine.put(k, k, format!("frozen-{k}")).unwrap();
            }
            engine.tree_mut().freeze().unwrap();
            assert!(engine.tree().has_frozen());
            for k in 40..80u64 {
                engine.put(k, k, format!("active-{k}")).unwrap();
            }
            assert!(engine.tree().buffered_entries() > 0);
        });
        db.persist().unwrap();
        assert_eq!(
            db.with_shard(0, |engine| engine.tree().buffered_entries()),
            0,
            "persist must flush the active buffer even when the frozen slot was occupied"
        );
        assert!(!db.with_shard(0, |engine| engine.tree().has_frozen()));
        for k in 0..80u64 {
            assert!(db.get(k).unwrap().is_some(), "key {k} lost");
        }
    }

    #[test]
    fn two_stores_share_one_block_cache_without_crosstalk() {
        let cache = PageCache::new_shared(1 << 20);
        let a = small().shards(2).shared_block_cache(Arc::clone(&cache)).build().unwrap();
        let b = small().shards(2).shared_block_cache(Arc::clone(&cache)).build().unwrap();
        for k in 0..200u64 {
            a.put(k, k, format!("a{k}")).unwrap();
            b.put(k, k, format!("b{k}")).unwrap();
        }
        a.persist().unwrap();
        b.persist().unwrap();
        // per-source keying: the same page ids exist in both stores, yet
        // every read resolves to its own store's value
        for k in 0..200u64 {
            assert_eq!(a.get(k).unwrap(), Some(Bytes::from(format!("a{k}"))));
            assert_eq!(b.get(k).unwrap(), Some(Bytes::from(format!("b{k}"))));
        }
        for k in 0..200u64 {
            a.get(k).unwrap();
            b.get(k).unwrap();
        }
        let snap = cache.snapshot();
        assert!(snap.hits > 0, "the second pass must hit the shared cache: {snap:?}");
        // both stores report the one shared cache
        assert_eq!(a.cache_snapshot().unwrap(), b.cache_snapshot().unwrap());
    }

    #[test]
    fn write_batch_routes_and_applies_all_ops() {
        let db = small().shards(4).build().unwrap();
        db.put(7, 7, "doomed").unwrap();
        let mut batch = WriteBatch::new();
        for k in 0..64u64 {
            batch.put(k, k % 13, format!("b{k}"));
        }
        batch.delete(7);
        db.write(batch).unwrap();
        // the delete was appended after the put of key 7, so it wins
        assert_eq!(db.get(7).unwrap(), None);
        assert_eq!(db.range(0, 64).unwrap().len(), 63);
        for k in [0u64, 1, 31, 63] {
            if k != 7 {
                assert_eq!(db.get(k).unwrap(), Some(Bytes::from(format!("b{k}"))));
            }
        }
        // a batch-wide secondary delete fans out to every shard
        let mut purge = WriteBatch::new();
        purge.secondary_range_delete(0, 4);
        db.persist().unwrap();
        db.write(purge).unwrap();
        assert!(db.scan_by_delete_key(0, 4).unwrap().is_empty());
        // an empty batch is a no-op
        db.write(WriteBatch::new()).unwrap();
    }

    #[test]
    fn snapshot_is_a_frozen_cross_shard_view() {
        let db = small().shards(3).build().unwrap();
        for k in 0..300u64 {
            db.put(k, k % 31, format!("v{k}")).unwrap();
        }
        db.persist().unwrap();
        let snap = db.snapshot();
        assert_eq!(db.live_snapshots(), 1);
        // mutate heavily after the fence: overwrites, deletes, a range
        // delete, a secondary delete, flushes and compactions
        for k in 0..300u64 {
            db.put(k, k % 31, format!("new{k}")).unwrap();
        }
        db.delete_range(50, 100).unwrap();
        db.delete(7).unwrap();
        db.persist().unwrap();
        db.delete_where_delete_key_in(0, 5).unwrap();
        db.maintain().unwrap();
        // the snapshot still answers as of the fence
        assert_eq!(snap.get(7).unwrap(), Some(Bytes::from("v7")));
        assert_eq!(snap.get(60).unwrap(), Some(Bytes::from("v60")));
        let frozen = snap.range(0, 300).unwrap();
        assert_eq!(frozen.len(), 300);
        for (k, v) in &frozen {
            assert_eq!(v, &Bytes::from(format!("v{k}")));
        }
        // streaming scan agrees with the materialised range
        let streamed: Vec<_> =
            snap.iter_range(0, 300).unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(streamed, frozen);
        // secondary scan at the fence still sees delete keys [0, 5)
        assert!(!snap.scan_by_delete_key(0, 5).unwrap().is_empty());
        // the live view moved on
        assert_eq!(db.get(7).unwrap(), None);
        assert_eq!(db.get(60).unwrap(), None);
        // key 6's delete key (6) is outside the purged [0, 5) range
        assert_eq!(db.get(6).unwrap(), Some(Bytes::from("new6")));
        drop(snap);
        assert_eq!(db.live_snapshots(), 0);
    }

    #[test]
    fn expired_snapshot_handle_fails_closed() {
        let db = small().shards(2).build().unwrap();
        for k in 0..100u64 {
            db.put(k, k, format!("v{k}")).unwrap();
        }
        let snap = db.snapshot();
        assert_eq!(snap.get(1).unwrap(), Some(Bytes::from("v1")));
        // an iterator created before the expiry owns its own pins
        let mut early_iter = snap.iter_range(0, 100).unwrap();
        assert_eq!(db.expire_snapshots(), 1);
        assert_eq!(db.live_snapshots(), 0);
        let err = snap.get(1).unwrap_err();
        assert!(err.to_string().contains("expired"), "got: {err}");
        assert!(snap.range(0, 100).is_err());
        assert!(snap.iter_range(0, 100).is_err());
        assert!(snap.scan_by_delete_key(0, 100).is_err());
        let drained: Vec<_> = early_iter.by_ref().collect::<Result<_>>().unwrap();
        assert_eq!(drained.len(), 100);
        // a fresh snapshot after the expiry works
        let fresh = db.snapshot();
        assert_eq!(fresh.get(1).unwrap(), Some(Bytes::from("v1")));
    }

    #[test]
    fn checkpoint_restores_the_fenced_view() {
        let dir = std::env::temp_dir().join(format!("lethe-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = small().shards(3).build().unwrap();
        for k in 0..400u64 {
            db.put(k, k % 53, format!("v{k}")).unwrap();
        }
        db.delete(13).unwrap();
        db.delete_range(350, 400).unwrap();
        db.persist().unwrap();
        let snap = db.snapshot();
        let expected = snap.range(0, 400).unwrap();
        let marker = db.checkpoint_at(&snap, &dir).unwrap();
        assert_eq!(marker.fence, snap.seqnum());
        assert_eq!(marker.shards, 3);
        // writers continue after (and conceptually during) the stream;
        // none of this reaches the checkpoint
        for k in 0..400u64 {
            db.put(k, k % 53, "after").unwrap();
        }
        let restored = Lethe::restore(&dir).unwrap();
        assert_eq!(restored.range(0, 400).unwrap(), expected);
        assert_eq!(restored.get(13).unwrap(), None);
        assert_eq!(restored.get(360).unwrap(), None);
        assert_eq!(restored.get(12).unwrap(), Some(Bytes::from("v12")));
        // secondary index metadata survived the stream
        let by_delete = restored.scan_by_delete_key(5, 6).unwrap();
        assert!(!by_delete.is_empty());
        assert!(by_delete.iter().all(|e| e.delete_key == 5));
        // the restored store resumes past the fence and accepts writes
        let mut restored = restored;
        restored.put(9999, 1, "fresh").unwrap();
        assert_eq!(restored.get(9999).unwrap(), Some(Bytes::from("fresh")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_refuses_a_markerless_directory() {
        let dir = std::env::temp_dir().join(format!("lethe-ckpt-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = small().shards(2).build().unwrap();
        for k in 0..100u64 {
            db.put(k, k, format!("v{k}")).unwrap();
        }
        db.checkpoint(&dir).unwrap();
        // simulate a checkpoint torn before its commit point
        std::fs::remove_file(dir.join("CHECKPOINT")).unwrap();
        let err = match Lethe::restore(&dir) {
            Ok(_) => panic!("a markerless checkpoint must be refused"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("incomplete"), "got: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cross_shard_batches_survive_reopen_unflushed() {
        let dir = std::env::temp_dir().join(format!("lethe-xshard-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durable = || small().buffer(64, 4, 64).shards(3);
        {
            let db = durable().open(&dir).unwrap();
            let mut batch = WriteBatch::new();
            for k in 0..60u64 {
                batch.put(k, k, format!("x{k}"));
            }
            db.write(batch).unwrap();
            // no persist: the batch lives only in the shard WALs + BATCHES
        }
        assert!(dir.join("BATCHES").exists());
        {
            let db = durable().open(&dir).unwrap();
            assert_eq!(db.range(0, 60).unwrap().len(), 60, "committed batch must replay in full");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_log_compacts_once_wals_forget_the_batch() {
        let dir = std::env::temp_dir().join(format!("lethe-blogret-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durable = || small().shards(3);
        {
            let db = durable().open(&dir).unwrap();
            let mut batch = WriteBatch::new();
            for k in 0..48u64 {
                batch.put(k, k, format!("y{k}"));
            }
            db.write(batch).unwrap();
            // flushing moves the slices into sstables and truncates the WALs
            db.persist().unwrap();
        }
        {
            // this reopen sees no WAL references and compacts the log
            let db = durable().open(&dir).unwrap();
            assert_eq!(db.range(0, 48).unwrap().len(), 48);
        }
        let n = lethe_storage::BatchCommitLog::assert_loadable(dir.join("BATCHES")).unwrap();
        assert_eq!(n, 0, "flushed-out batch ids must be compacted away");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_concurrent_puts_coalesce_fsyncs() {
        let dir = std::env::temp_dir().join(format!("lethe-gc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = small()
            .buffer(256, 4, 64)
            .shards(1)
            .wal_sync_policy(lethe_storage::SyncPolicy::Always)
            .open(&dir)
            .unwrap();
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 40;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let db = &db;
                s.spawn(move || {
                    for k in (t * PER_THREAD)..((t + 1) * PER_THREAD) {
                        db.put(k, k, format!("g{k}")).unwrap();
                    }
                });
            }
        });
        for k in 0..THREADS * PER_THREAD {
            assert_eq!(db.get(k).unwrap(), Some(Bytes::from(format!("g{k}"))), "key {k}");
        }
        let io = db.io_snapshot();
        assert!(io.fsyncs > 0, "durable writes must issue barriers");
        // every record is durable, but racing writers share group barriers,
        // so there can never be more WAL fsyncs than records — and with 8
        // writers against one shard there are reliably fewer (the assert is
        // deliberately loose: scheduling decides the exact group sizes)
        assert!(
            io.fsyncs <= THREADS * PER_THREAD,
            "group commit must not fsync more than once per record: {io:?}"
        );
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_land_all_entries() {
        let db = small().shards(4).build().unwrap();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let db = &db;
                s.spawn(move || {
                    for k in (t * 1000)..(t * 1000 + 1000) {
                        db.put(k, k % 31, format!("v{k}")).unwrap();
                    }
                });
            }
        });
        db.persist().unwrap();
        assert_eq!(db.stats().entries_ingested, 8000);
        assert_eq!(db.range(0, 8000).unwrap().len(), 8000);
    }
}
