//! Layer probes (timed direct calls into lower-layer public functions on a
//! run's own store), the device calibration, and the process and directory
//! figures read from the operating system.

use crate::trace::{quantile, Recorder};
use bytes::Bytes;
use lethe::storage::{FileBackend, FileWal, StorageBackend, SyncPolicy, Wal, WalRecord};
use lethe::ShardedLethe;
use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const PROBE_SAMPLES: usize = 1000;
const PROBE_OP: u64 = 0xFF << 48;

/// Median µs of one 4 KiB append + `fsync` on a scratch file: the device's
/// state when the run started, so drift between runs shows.
pub fn fsync_calibration_us(dir: &Path) -> std::io::Result<f64> {
    let path = dir.join("fsync-calibration");
    let mut f = OpenOptions::new().create(true).append(true).open(&path)?;
    let block = [0x5Au8; 4096];
    let mut samples = Vec::with_capacity(32);
    for _ in 0..32 {
        let t0 = Instant::now();
        f.write_all(&block)?;
        f.sync_data()?;
        samples.push(t0.elapsed().as_nanos() as u64);
    }
    drop(f);
    fs::remove_file(&path)?;
    samples.sort_unstable();
    Ok(quantile(&samples, 0.5) as f64 / 1e3)
}

/// Bytes this process has caused to be written to the block device.
pub fn process_write_bytes() -> u64 {
    proc_field("/proc/self/io", "write_bytes:").unwrap_or(0)
}

/// Current resident set size of this process in MB.
pub fn rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmRSS:").unwrap_or(0) as f64 / 1024.0
}

fn proc_field(path: &str, key: &str) -> Option<u64> {
    let text = fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Total bytes of the files in `dir` whose names satisfy `keep`.
pub fn dir_bytes(dir: &Path, keep: impl Fn(&str) -> bool) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .filter(|e| keep(&e.file_name().to_string_lossy()))
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

/// What the tree probe measured through `ShardedLethe::with_shard`.
#[derive(Debug, Default, Clone)]
pub struct TreeProbe {
    pub get_us: f64,
    pub pages_per_get: f64,
    pub bloom_probes_per_get: f64,
    pub pages_per_empty_get: f64,
    pub cache_hit_read_us: f64,
}

/// Reads `keys` on every shard with the shard's worker paused: the shard
/// that owns a key answers `Some` (a get of an existing key), the others
/// answer `None` (a get of a key the shard does not hold). Then re-reads
/// pages the shard just read through its cached backend.
pub fn tree_probe(db: &ShardedLethe, keys: &[u64], rec: &mut Recorder) -> TreeProbe {
    let mut hit_ns = Vec::new();
    let (mut hit_pages, mut hit_blooms, mut hits) = (0u64, 0u64, 0u64);
    let (mut empty_pages, mut empties) = (0u64, 0u64);
    let mut cache_ns = Vec::new();
    for shard in 0..db.shard_count() {
        db.with_shard(shard, |engine| {
            for &key in keys {
                let before = engine.io_snapshot();
                let span = rec.open("tree.reader_get", 0, PROBE_OP);
                let t0 = Instant::now();
                let found = engine.get(key);
                let dt = t0.elapsed().as_nanos() as u64;
                rec.close(span);
                let d = engine.io_snapshot().since(&before);
                let pages = d.pages_read + d.cache_hits;
                if matches!(found, Ok(Some(_))) {
                    hit_ns.push(dt);
                    hit_pages += pages;
                    hit_blooms += d.bloom_probes;
                    hits += 1;
                } else {
                    empty_pages += pages;
                    empties += 1;
                }
            }
            let backend = engine.tree().backend();
            let ids = backend.page_ids();
            let stride = (ids.len() / PROBE_SAMPLES).max(1);
            for &id in ids.iter().step_by(stride) {
                if backend.read_page(id).is_err() {
                    continue;
                }
                let span = rec.open("cache.hit_read", 0, PROBE_OP);
                let t0 = Instant::now();
                let _ = backend.read_page(id);
                cache_ns.push(t0.elapsed().as_nanos() as u64);
                rec.close(span);
            }
        });
    }
    hit_ns.sort_unstable();
    cache_ns.sort_unstable();
    TreeProbe {
        get_us: quantile(&hit_ns, 0.5) as f64 / 1e3,
        pages_per_get: ratio(hit_pages, hits),
        bloom_probes_per_get: ratio(hit_blooms, hits),
        pages_per_empty_get: ratio(empty_pages, empties),
        cache_hit_read_us: quantile(&cache_ns, 0.5) as f64 / 1e3,
    }
}

/// Median µs of `FileBackend::read_page` on page ids sampled from shard 0's
/// data file, opened after the store was closed (no block cache between).
pub fn backend_probe(dir: &Path, rec: &mut Recorder) -> lethe::storage::Result<f64> {
    let backend = FileBackend::open_named(dir, "shard-000")?;
    let ids = backend.page_ids();
    let stride = (ids.len() / PROBE_SAMPLES).max(1);
    let mut samples = Vec::new();
    for &id in ids.iter().step_by(stride) {
        let span = rec.open("backend.read_page", 0, PROBE_OP);
        let t0 = Instant::now();
        backend.read_page(id)?;
        samples.push(t0.elapsed().as_nanos() as u64);
        rec.close(span);
    }
    samples.sort_unstable();
    Ok(quantile(&samples, 0.5) as f64 / 1e3)
}

/// Median µs of `append_nosync` and of `commit` on a scratch `FileWal`
/// under `SyncPolicy::Always`, one put record of the workload's size each.
pub fn wal_probe(dir: &Path, rec: &mut Recorder) -> lethe::storage::Result<(f64, f64)> {
    let path = dir.join("probe.wal");
    let wal = FileWal::open(&path)?.with_sync_policy(SyncPolicy::Always);
    let (mut append, mut commit) = (Vec::new(), Vec::new());
    for i in 0..200u64 {
        let record = WalRecord::Put {
            sort_key: i,
            delete_key: i,
            value: Bytes::from(crate::workload::value(i, 1)),
            ts: i,
        };
        let span = rec.open("wal.append", 0, PROBE_OP);
        let t0 = Instant::now();
        wal.append_nosync(record)?;
        append.push(t0.elapsed().as_nanos() as u64);
        rec.close(span);
        let span = rec.open("wal.commit", 0, PROBE_OP);
        let t0 = Instant::now();
        wal.commit()?;
        commit.push(t0.elapsed().as_nanos() as u64);
        rec.close(span);
    }
    drop(wal);
    fs::remove_file(&path)?;
    append.sort_unstable();
    commit.sort_unstable();
    Ok((
        quantile(&append, 0.5) as f64 / 1e3,
        quantile(&commit, 0.5) as f64 / 1e3,
    ))
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
