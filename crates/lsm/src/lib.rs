//! # lethe-lsm
//!
//! A complete LSM-tree storage engine substrate for the Lethe reproduction
//! (*Lethe: A Tunable Delete-Aware LSM Engine*, SIGMOD 2020).
//!
//! The crate provides the tree itself and the state-of-the-art baselines the
//! paper compares against:
//!
//! * [`config`] — every knob of the paper's Table 1 (size ratio `T`, buffer
//!   geometry, Bloom bits, leveling/tiering, delete-tile granularity `h`,
//!   delete persistence threshold `D_th`).
//! * [`sstable`] — immutable sorted files laid out as delete tiles (the Key
//!   Weaving Storage Layout; `h = 1` is the classic layout).
//! * [`level`] — runs and levels.
//! * [`cursor`] — streaming entry cursors (lazy per-tile file readers) and
//!   the binary-heap k-way [`cursor::MergeIterator`] every scan, flush and
//!   compaction is built on.
//! * [`merge`] — the materialising sort-merge wrapper with tombstone
//!   semantics (content snapshots, tests).
//! * [`compaction`] — the [`compaction::CompactionPolicy`] trait plus the
//!   baseline policies (saturation + min-overlap, saturation + most
//!   tombstones, periodic full-tree compaction).
//! * [`batch`] — [`batch::WriteBatch`], the atomic multi-op unit the
//!   group-commit write path logs as a single WAL frame.
//! * [`tree`] — [`tree::LsmTree`], the engine: puts, deletes, range deletes,
//!   secondary range deletes, lookups, scans, flush and compaction, plus the
//!   plan/execute/apply job cycle a background worker drives. Every read
//!   goes through one type, [`tree::TreeReader`]: a live reader shares the
//!   tree's buffers and version set, and a captured snapshot is the same
//!   type over private buffers and one pinned version.
//! * [`version`] — immutable, `Arc`-shared version sets: snapshot-isolated
//!   reads and deferred page reclamation.
//! * [`reclaim`] — the page-retirement choke point every engine-path
//!   `drop_page` funnels through (enforced by the repo lint).
//! * [`snapshot`] — the live-snapshot tracker: registered seqnum fences
//!   gate tombstone GC and deferred page reclamation, with a lowest-freed
//!   watermark that fails stale handles closed.
//! * [`stats`] — space/write amplification and tombstone-age accounting.
//! * [`strategy`] — pluggable compaction strategies: size-tiered run
//!   bucketing and date-tiered time windows whose wholly-expired windows are
//!   retired as whole files without reading a page.
//!
//! The delete-aware pieces of the paper (the FADE compaction policy and the
//! Lethe engine wrapper) live in the `lethe-core` crate and plug into this
//! substrate through [`compaction::CompactionPolicy`] and [`config::LsmConfig`].

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod compaction;
pub mod config;
pub mod cursor;
pub mod level;
pub mod merge;
pub mod reclaim;
pub mod snapshot;
pub mod sstable;
pub mod stats;
pub mod strategy;
pub mod tree;
pub mod version;

pub use batch::WriteBatch;
pub use compaction::{
    CompactionPolicy, CompactionTask, FileSelection, PeriodicFullCompactionPolicy,
    SaturationPolicy, TreeView,
};
pub use cursor::{EntryCursor, MergeIterator, SsTableCursor, TombstoneWindow, VecCursor};
pub use config::{CompactionStrategy, LsmConfig, MergePolicy, SecondaryDeleteMode};
pub use level::{Level, Run};
pub use merge::{merge_entries, MergeOutput};
pub use snapshot::SnapshotTracker;
pub use sstable::{DeleteTile, PageHandle, SecondaryDeleteStats, SsTable, SsTableMeta};
pub use stats::{ContentSnapshot, TreeStats};
pub use strategy::{DateTieredPolicy, SizeTieredPolicy};
pub use tree::{
    BuildCtx, JobOutput, JobPlan, LsmTree, MaintenanceMode, RangeIter, RecoveryReport, TreeReader,
};
pub use version::{Version, VersionSet};
