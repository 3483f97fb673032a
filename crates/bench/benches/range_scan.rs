//! Benchmark: the streaming range-scan path.
//!
//! Four measurements:
//!
//! 1. **Long scan, streaming vs seed path** — a full scan of the store
//!    through the cursor stack (`TreeReader::range`, which collects the
//!    `iter_range` heap merge — the one scan path live and snapshot reads
//!    share) against a faithful reconstruction of the seed's
//!    materialise-and-resort path (every overlapping table's entries
//!    collected into vectors, concatenated, re-sorted and deduplicated via
//!    `merge_entries`). Reported, with a no-regression floor gate.
//! 2. **Paged long scan** — a paging client opens a scan over the whole key
//!    space but consumes only the first page (`iter_range().take(k)`). The
//!    seed path must materialise everything regardless; the cursor stack
//!    stops decoding after the first tiles. CI asserts a large multiple.
//! 3. **Warm vs cold block cache** — the same long scan against a durable
//!    store, first with an empty cache (every page is a device read), then
//!    warm (reported; device-speed dependent, so not gated).
//! 4. **1 vs 4 shards** — `ShardedLethe::iter_range` draining the k-way
//!    shard merge (criterion samples; short and long scans).
//!
//! Set `LETHE_BENCH_NO_ASSERT=1` to demote the wall-clock gates to warnings.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use lethe_core::{Lethe, LetheBuilder, ShardedLethe, ShardedLetheBuilder};
use lethe_lsm::merge::merge_entries;
use lethe_storage::Entry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const KEYS: u64 = 100_000;
const PAGE: usize = 1_024;
const VALUE: usize = 64;

fn builder() -> LetheBuilder {
    LetheBuilder::new()
        .buffer(64, 8, VALUE)
        .size_ratio(6)
        .delete_tile_pages(2)
        .delete_persistence_threshold_secs(3600.0)
}

fn populate(db: &mut Lethe) {
    for k in 0..KEYS {
        db.put(k, k % 4096, vec![0u8; VALUE]).unwrap();
    }
    db.persist().unwrap();
}

/// The seed read path, reconstructed faithfully: materialise every
/// overlapping table's in-range entries, concatenate, re-sort, deduplicate
/// and tombstone-resolve via the materialising merge. (The write buffer is
/// empty in this bench — the store is persisted — so the disk tables are
/// the entire seed input set, exactly as they were for the seed's `range`.)
fn seed_path_range(db: &Lethe, lo: u64, hi: u64) -> Vec<(u64, Bytes)> {
    let backend = db.tree().backend().clone();
    let mut inputs: Vec<Vec<Entry>> = Vec::new();
    let mut rts: Vec<Entry> = Vec::new();
    for level in db.tree().levels() {
        for run in &level.runs {
            for table in run.overlapping_range(lo, hi) {
                inputs.push(table.range_scan(lo, hi, backend.as_ref()).unwrap());
                rts.extend(table.range_tombstones.iter().cloned());
            }
        }
    }
    let merged = merge_entries(inputs, rts, true);
    merged
        .entries
        .into_iter()
        .filter(|e| e.sort_key >= lo && e.sort_key < hi)
        .map(|e| (e.sort_key, e.value))
        .collect()
}

fn gate(ok: bool, msg: String) {
    if std::env::var_os("LETHE_BENCH_NO_ASSERT").is_none() {
        assert!(ok, "{msg}");
    } else if !ok {
        println!("WARN: {msg}");
    }
}

/// Best-of-n wall-clock of `f`, in seconds.
fn best_of<R>(n: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..n {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn bench_range_scan(c: &mut Criterion) {
    let mut db = builder().build().unwrap();
    populate(&mut db);

    // 1. long scan: streaming heap merge vs materialise-and-resort
    let streamed = db.range(0, KEYS).unwrap();
    let seeded = seed_path_range(&db, 0, KEYS);
    assert_eq!(streamed, seeded, "the two paths must agree before being timed");
    assert_eq!(streamed.len(), KEYS as usize);
    let t_stream = best_of(5, || db.range(0, KEYS).unwrap());
    let t_seed = best_of(5, || seed_path_range(&db, 0, KEYS));
    let long_speedup = t_seed / t_stream;
    println!(
        "range_scan: long scan ({KEYS} keys) streaming {:.1} ms | seed path {:.1} ms | {long_speedup:.2}x",
        t_stream * 1e3,
        t_seed * 1e3,
    );
    // the full-drain ratio is reported (typically ~1.1-1.3x: same page
    // reads, cheaper merge) but only floor-gated — a hard >1x assertion on
    // two ~20 ms wall-clock samples would flake on noisy shared runners.
    // The enforceable streaming win is the paged gate below, where the
    // seed path's obligatory materialisation costs real work.
    gate(
        long_speedup >= 0.9,
        format!(
            "streaming long scans regressed below the materialise-and-resort path: {long_speedup:.2}x"
        ),
    );

    // 2. paged long scan: open [0, KEYS) but consume one page
    let t_paged = best_of(5, || {
        let iter = db.iter_range(0, KEYS).unwrap();
        let page: Vec<(u64, Bytes)> = iter.take(PAGE).map(|r| r.unwrap()).collect();
        assert_eq!(page.len(), PAGE);
        page
    });
    let paged_speedup = t_seed / t_paged;
    println!(
        "range_scan: paged long scan (first {PAGE} of {KEYS}) streaming {:.2} ms | \
         seed path must materialise all: {paged_speedup:.1}x",
        t_paged * 1e3,
    );
    gate(
        paged_speedup >= 5.0,
        format!("a paged long scan must be >= 5x the materialising path, got {paged_speedup:.1}x"),
    );

    // 3. warm vs cold block cache on a durable store (reported, not gated:
    // device-speed dependent)
    let dir = std::env::temp_dir().join(format!("lethe-rscan-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut durable = builder()
            .wal_sync_policy(lethe_storage::SyncPolicy::OnFlush)
            .block_cache_bytes(256 << 20)
            .open(&dir)
            .unwrap();
        populate(&mut durable);
        let t_cold = best_of(1, || durable.range(0, KEYS).unwrap());
        let t_warm = best_of(3, || durable.range(0, KEYS).unwrap());
        let snap = durable.cache_snapshot().expect("cache configured");
        println!(
            "range_scan: durable long scan cold {:.1} ms | warm {:.1} ms ({:.2}x; {} pages resident)",
            t_cold * 1e3,
            t_warm * 1e3,
            t_cold / t_warm,
            snap.pages_resident,
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    // 4. criterion samples: short scans + sharded 1 vs 4
    let mut group = c.benchmark_group("range_scan");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(0x5CA7);
    group.bench_function("short_scan_256", |b| {
        b.iter(|| {
            let lo = rng.gen_range(0..KEYS - 256);
            db.range(lo, lo + 256).unwrap()
        })
    });
    group.bench_function("paged_stream_1k_of_all", |b| {
        b.iter(|| {
            db.iter_range(0, KEYS)
                .unwrap()
                .take(PAGE)
                .map(|r| r.unwrap())
                .collect::<Vec<_>>()
        })
    });
    for shards in [1usize, 4] {
        let sharded: ShardedLethe = ShardedLetheBuilder::from_builder(builder())
            .shards(shards)
            .build()
            .unwrap();
        for k in 0..KEYS {
            sharded.put(k, k % 4096, vec![0u8; VALUE]).unwrap();
        }
        sharded.persist().unwrap();
        assert_eq!(sharded.iter_range(0, KEYS).count(), KEYS as usize);
        group.bench_function(format!("sharded_{shards}_long_stream"), |b| {
            b.iter(|| {
                let mut n = 0u64;
                for item in sharded.iter_range(0, KEYS) {
                    item.unwrap();
                    n += 1;
                }
                n
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_range_scan);
criterion_main!(benches);
