//! Compaction policies.
//!
//! A policy answers two questions after every flush (paper §4.1.4): *should a
//! compaction run now*, and *which file should it compact*. The engine calls
//! [`CompactionPolicy::pick`] in a loop until it returns `None`.
//!
//! This crate ships the state-of-the-art baselines:
//!
//! * [`SaturationPolicy`] with [`FileSelection::MinOverlap`] — compact only
//!   when a level exceeds its capacity and pick the file with the least
//!   overlap with the next level (write-amplification optimised; the paper's
//!   "SO" mode and the default of production engines).
//! * [`SaturationPolicy`] with [`FileSelection::MostTombstones`] — RocksDB's
//!   tombstone-count-based file selection (§3.1.3).
//! * [`PeriodicFullCompactionPolicy`] — the industry workaround for delete
//!   persistence: force a full-tree compaction every `period` time units.
//!
//! The FADE policy of the paper lives in the `lethe-core` crate and
//! implements the same trait; the size-tiered and date-tiered strategies
//! live in [`crate::strategy`].
//!
//! Policies only *choose* work. The tree turns each task into one job shape,
//! pinned victim files plus a placement for the output, and executing it
//! ([`crate::tree::JobPlan::execute`]) streams the victims through the
//! lazy cursors and heap merge of [`crate::cursor`], so even a policy that
//! picks an arbitrarily large merge (e.g. a forced full-tree compaction)
//! runs in memory bounded by output-file and delete-tile granularity, never
//! by total input size.

use crate::config::{LsmConfig, MergePolicy};
use crate::level::Level;
use crate::sstable::SsTable;
use lethe_storage::{Histogram, Timestamp};
use std::sync::Arc;

/// A read-only view of the tree handed to compaction policies.
pub struct TreeView<'a> {
    /// Disk levels (index 0 = the first disk level, "Level 1" in the paper).
    pub levels: &'a [Level],
    /// Capacity in bytes of each disk level.
    pub capacities: Vec<u64>,
    /// Current logical time.
    pub now: Timestamp,
    /// Engine configuration.
    pub config: &'a LsmConfig,
    /// System-wide histogram over the sort key, used to estimate how many
    /// entries a range tombstone invalidates (FADE's `b`).
    pub sort_key_histogram: &'a Histogram,
    /// True while a live snapshot gates tombstone GC (see
    /// `lethe_lsm::snapshot`): a compaction planned now must retain its
    /// tombstones, so delete-persistence-driven (TTL) triggers should be
    /// deferred — a gated TTL rewrite would make no progress and be re-picked
    /// forever. Saturation-driven work proceeds normally.
    pub tombstone_gc_gated: bool,
}

impl<'a> TreeView<'a> {
    /// Index of the deepest level that currently holds data, if any.
    pub fn deepest_nonempty_level(&self) -> Option<usize> {
        (0..self.levels.len()).rev().find(|&i| !self.levels[i].is_empty())
    }

    /// True if `level` holds more bytes than its capacity.
    pub fn is_saturated(&self, level: usize) -> bool {
        match self.config.merge_policy {
            MergePolicy::Leveling => {
                self.levels[level].total_bytes() > self.capacities[level]
            }
            // under tiering a level is "full" once it has accumulated T runs
            MergePolicy::Tiering => self.levels[level].run_count() >= self.config.size_ratio,
        }
    }

    /// Estimated number of entries in the whole tree invalidated by the
    /// tombstones of `table`: exact point-tombstone count plus a
    /// histogram-based estimate for its range tombstones (paper §4.1.3).
    pub fn estimated_invalidation_count(&self, table: &SsTable) -> f64 {
        let mut b = table.meta.num_point_tombstones as f64;
        for rt in &table.range_tombstones {
            if let Some(end) = rt.range_end() {
                b += self.sort_key_histogram.estimate_range(rt.sort_key, end);
            }
        }
        b
    }

    /// Total bytes of next-level files overlapping `table`'s key range
    /// (the merge cost proxy used by overlap-driven selection).
    pub fn overlap_bytes(&self, level: usize, table: &SsTable) -> u64 {
        if level + 1 >= self.levels.len() {
            return 0;
        }
        self.levels[level + 1]
            .all_tables()
            .filter(|t| t.overlaps_table(table))
            .map(|t| t.meta.data_bytes)
            .sum()
    }
}

/// A unit of compaction work chosen by a policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompactionTask {
    /// Merge files of `level` into `level + 1` in a single job (leveling):
    /// one file for a saturation-driven partial compaction, or every
    /// TTL-expired file of the level (FADE, paper Figure 4: "all files with
    /// expired TTL are compacted").
    LeveledMulti {
        /// Source level index.
        level: usize,
        /// Ids of the files to move down together.
        file_ids: Vec<u64>,
        /// The policy picked this job because a file TTL expired (FADE's
        /// delete-driven trigger), not because the level is saturated.
        ttl_trigger: bool,
    },
    /// Merge every run of `level` into a single run placed in `level + 1`
    /// (tiering).
    TieredLevel {
        /// Source level index.
        level: usize,
        /// The policy picked this job because a file TTL expired.
        ttl_trigger: bool,
    },
    /// Merge a *subset* of `level`'s runs — identified by the ids of every
    /// file they contain — into one run that **replaces them in place**. The
    /// tiered strategies (see [`crate::strategy`]) use this to merge exactly
    /// one size class or one time window without touching the level's other
    /// runs. The planner only accepts whole runs that are **contiguous** in
    /// the level's run list: the merged run takes the segment's position, so
    /// the global recency order of runs (shallower level first, then newer
    /// run first) is preserved and reads stay correct.
    MergeRuns {
        /// Source level index.
        level: usize,
        /// Ids of every file of the runs to merge (whole adjacent runs only).
        file_ids: Vec<u64>,
    },
    /// Retire whole files without reading them: the files vanish from every
    /// level in one atomic version install, their manifest entries are
    /// removed, and their pages are reclaimed — zero pages read or written.
    /// This is how a date-tiered TTL expiry drops a wholly-expired time
    /// window. The planner routes the task through the snapshot gate: while
    /// a live snapshot pins history the drop is deferred (counted in
    /// `TreeStats::tombstone_gc_delayed`) and the expired files stay
    /// readable.
    DropFiles {
        /// Ids of the files to retire, across all levels.
        file_ids: Vec<u64>,
    },
    /// Read, merge and rewrite the entire tree into its last level.
    FullTree,
}

/// A compaction trigger + file selection strategy.
pub trait CompactionPolicy: Send {
    /// Returns the next compaction to perform, or `None` if the tree needs no
    /// work right now. Called repeatedly until it returns `None`.
    fn pick(&mut self, view: &TreeView<'_>) -> Option<CompactionTask>;

    /// Human-readable policy name (used by the benchmark harness output).
    fn name(&self) -> &'static str;

    /// Notifies the policy that the tree now has `level_count` disk levels
    /// (FADE re-derives its per-level TTLs here).
    fn on_tree_growth(&mut self, level_count: usize) {
        let _ = level_count;
    }
}

/// How saturation-driven policies choose the file to compact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileSelection {
    /// The file with the smallest byte-overlap with the next level
    /// (minimises write amplification; ties broken by most tombstones).
    MinOverlap,
    /// The file containing the most tombstones (RocksDB's delete-triggered
    /// selection; ties broken by smallest overlap).
    MostTombstones,
    /// The oldest file in the level (simple aging heuristic).
    Oldest,
}

/// The classic saturation-driven compaction policy used by state-of-the-art
/// engines: compact only when a level exceeds its size threshold.
#[derive(Debug, Clone)]
pub struct SaturationPolicy {
    selection: FileSelection,
}

impl SaturationPolicy {
    /// Creates a saturation-driven policy with the given file selection.
    pub fn new(selection: FileSelection) -> Self {
        SaturationPolicy { selection }
    }

    /// Picks a file from `level` according to the configured selection.
    fn select_file(&self, view: &TreeView<'_>, level: usize) -> Option<u64> {
        let tables: Vec<&Arc<SsTable>> = view.levels[level].all_tables().collect();
        if tables.is_empty() {
            return None;
        }
        let chosen = match self.selection {
            FileSelection::MinOverlap => tables.iter().min_by(|a, b| {
                view.overlap_bytes(level, a)
                    .cmp(&view.overlap_bytes(level, b))
                    .then_with(|| b.tombstone_count().cmp(&a.tombstone_count()))
            }),
            FileSelection::MostTombstones => tables.iter().max_by(|a, b| {
                a.tombstone_count()
                    .cmp(&b.tombstone_count())
                    .then_with(|| view.overlap_bytes(level, b).cmp(&view.overlap_bytes(level, a)))
            }),
            FileSelection::Oldest => tables.iter().min_by_key(|t| t.meta.created_at),
        };
        chosen.map(|t| t.meta.id)
    }
}

impl CompactionPolicy for SaturationPolicy {
    fn pick(&mut self, view: &TreeView<'_>) -> Option<CompactionTask> {
        // smallest saturated level first (ties among levels go to the
        // smallest level to avoid write stalls, paper §4.1.4)
        for level in 0..view.levels.len() {
            if view.levels[level].is_empty() || !view.is_saturated(level) {
                continue;
            }
            return match view.config.merge_policy {
                MergePolicy::Leveling => self
                    .select_file(view, level)
                    .map(|file_id| CompactionTask::LeveledMulti {
                        level,
                        file_ids: vec![file_id],
                        ttl_trigger: false,
                    }),
                MergePolicy::Tiering => {
                    Some(CompactionTask::TieredLevel { level, ttl_trigger: false })
                }
            };
        }
        None
    }

    fn name(&self) -> &'static str {
        match self.selection {
            FileSelection::MinOverlap => "saturation/min-overlap",
            FileSelection::MostTombstones => "saturation/most-tombstones",
            FileSelection::Oldest => "saturation/oldest",
        }
    }
}

/// The industry workaround the paper argues against: in addition to
/// saturation-driven compactions, force a full-tree compaction every
/// `period` microseconds of logical time so that deletes eventually persist.
#[derive(Debug, Clone)]
pub struct PeriodicFullCompactionPolicy {
    inner: SaturationPolicy,
    period: Timestamp,
    last_full: Timestamp,
}

impl PeriodicFullCompactionPolicy {
    /// Creates the policy with a full-compaction `period` (logical µs).
    pub fn new(selection: FileSelection, period: Timestamp) -> Self {
        PeriodicFullCompactionPolicy {
            inner: SaturationPolicy::new(selection),
            period: period.max(1),
            last_full: 0,
        }
    }
}

impl CompactionPolicy for PeriodicFullCompactionPolicy {
    fn pick(&mut self, view: &TreeView<'_>) -> Option<CompactionTask> {
        if view.now.saturating_sub(self.last_full) >= self.period
            && view.deepest_nonempty_level().is_some()
        {
            self.last_full = view.now;
            return Some(CompactionTask::FullTree);
        }
        self.inner.pick(view)
    }

    fn name(&self) -> &'static str {
        "saturation+periodic-full-compaction"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::Run;
    use bytes::Bytes;
    use lethe_storage::{Entry, InMemoryBackend};

    fn table(id: u64, lo: u64, hi: u64, tombstones: u64, backend: &InMemoryBackend) -> Arc<SsTable> {
        let cfg = LsmConfig::small_for_test();
        let mut entries: Vec<Entry> =
            (lo..hi).map(|k| Entry::put(k, k, k + 1, Bytes::from(vec![0u8; 32]))).collect();
        for i in 0..tombstones {
            entries.push(Entry::point_tombstone(hi + i, 1000 + i));
        }
        entries.sort_by_key(|e| e.sort_key);
        let ts = if tombstones > 0 { Some(10) } else { None };
        Arc::new(SsTable::build(id, entries, vec![], 0, ts, &cfg, backend).unwrap())
    }

    fn histogram() -> Histogram {
        Histogram::new(0, 1 << 20, 16)
    }

    #[test]
    fn no_compaction_when_under_capacity() {
        let backend = InMemoryBackend::new();
        let cfg = LsmConfig::small_for_test();
        let mut levels = vec![Level::new()];
        levels[0].runs.push(Run::new(vec![table(1, 0, 4, 0, &backend)]));
        let hist = histogram();
        let view = TreeView {
            levels: &levels,
            capacities: vec![u64::MAX],
            now: 0,
            config: &cfg,
            sort_key_histogram: &hist,
            tombstone_gc_gated: false,
        };
        let mut policy = SaturationPolicy::new(FileSelection::MinOverlap);
        assert!(policy.pick(&view).is_none());
        assert_eq!(policy.name(), "saturation/min-overlap");
    }

    #[test]
    fn saturated_level_triggers_partial_compaction() {
        let backend = InMemoryBackend::new();
        let cfg = LsmConfig::small_for_test();
        let mut levels = vec![Level::new(), Level::new()];
        levels[0].runs.push(Run::new(vec![
            table(1, 0, 100, 0, &backend),
            table(2, 100, 200, 5, &backend),
        ]));
        // next level holds a file overlapping file 1 only
        levels[1].runs.push(Run::new(vec![table(3, 0, 100, 0, &backend)]));
        let hist = histogram();
        let view = TreeView {
            levels: &levels,
            capacities: vec![1, u64::MAX], // level 0 over capacity
            now: 0,
            config: &cfg,
            sort_key_histogram: &hist,
            tombstone_gc_gated: false,
        };
        // min-overlap picks file 2 (no overlap below)
        let mut policy = SaturationPolicy::new(FileSelection::MinOverlap);
        assert_eq!(
            policy.pick(&view),
            Some(CompactionTask::LeveledMulti { level: 0, file_ids: vec![2], ttl_trigger: false })
        );
        // most-tombstones also picks file 2 (it holds the tombstones)
        let mut policy = SaturationPolicy::new(FileSelection::MostTombstones);
        assert_eq!(
            policy.pick(&view),
            Some(CompactionTask::LeveledMulti { level: 0, file_ids: vec![2], ttl_trigger: false })
        );
        // oldest picks either (same creation time) — must return some task
        let mut policy = SaturationPolicy::new(FileSelection::Oldest);
        assert!(matches!(policy.pick(&view), Some(CompactionTask::LeveledMulti { level: 0, ttl_trigger: false, .. })));
    }

    #[test]
    fn tiering_triggers_when_t_runs_accumulate() {
        let backend = InMemoryBackend::new();
        let mut cfg = LsmConfig::small_for_test();
        cfg.merge_policy = MergePolicy::Tiering;
        cfg.size_ratio = 3;
        let mut levels = vec![Level::new()];
        for id in 0..3 {
            levels[0].runs.push(Run::new(vec![table(id, 0, 10, 0, &backend)]));
        }
        let hist = histogram();
        let view = TreeView {
            levels: &levels,
            capacities: vec![u64::MAX],
            now: 0,
            config: &cfg,
            sort_key_histogram: &hist,
            tombstone_gc_gated: false,
        };
        let mut policy = SaturationPolicy::new(FileSelection::MinOverlap);
        assert_eq!(policy.pick(&view), Some(CompactionTask::TieredLevel { level: 0, ttl_trigger: false }));
    }

    #[test]
    fn periodic_policy_issues_full_compactions() {
        let backend = InMemoryBackend::new();
        let cfg = LsmConfig::small_for_test();
        let mut levels = vec![Level::new()];
        levels[0].runs.push(Run::new(vec![table(1, 0, 10, 1, &backend)]));
        let hist = histogram();
        let mk_view = |now| TreeView {
            levels: &levels,
            capacities: vec![u64::MAX],
            now,
            config: &cfg,
            sort_key_histogram: &hist,
            tombstone_gc_gated: false,
        };
        let mut policy = PeriodicFullCompactionPolicy::new(FileSelection::MinOverlap, 1000);
        // at t=1000 the period elapsed → full tree compaction
        assert_eq!(policy.pick(&mk_view(1000)), Some(CompactionTask::FullTree));
        // immediately afterwards nothing more to do
        assert!(policy.pick(&mk_view(1001)).is_none());
        // after another period elapses it fires again
        assert_eq!(policy.pick(&mk_view(2100)), Some(CompactionTask::FullTree));
        assert_eq!(policy.name(), "saturation+periodic-full-compaction");
    }

    #[test]
    fn estimated_invalidation_counts_points_and_ranges() {
        let backend = InMemoryBackend::new();
        let cfg = LsmConfig::small_for_test();
        let mut hist = Histogram::new(0, 1000, 10);
        for k in 0..1000 {
            hist.add(k);
        }
        let mut entries: Vec<Entry> =
            (0..10u64).map(|k| Entry::put(k, k, k + 1, Bytes::from_static(b"v"))).collect();
        entries.push(Entry::point_tombstone(3, 100));
        entries.sort_by_key(|e| e.sort_key);
        let rt = Entry::range_tombstone(0, 500, 101);
        let t = SsTable::build(9, entries, vec![rt], 0, Some(1), &cfg, &backend).unwrap();
        let levels = vec![Level::new()];
        let view = TreeView {
            levels: &levels,
            capacities: vec![u64::MAX],
            now: 0,
            config: &cfg,
            sort_key_histogram: &hist,
            tombstone_gc_gated: false,
        };
        let b = view.estimated_invalidation_count(&t);
        // 1 point tombstone + ~500 estimated range-invalidations
        assert!(b > 400.0 && b < 600.0, "b = {b}");
    }
}
