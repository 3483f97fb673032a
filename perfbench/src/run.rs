//! One pass of a workload: the closed-loop measured phase on one store, or
//! on several freshly set-up stores in turn for the workloads that write,
//! each store set up, reopened, measured, quiesced and verified, with the
//! counters snapshotted at the phase boundaries.

use crate::probe::{self, TreeProbe};
use crate::trace::{self, Recorder, Span, SpanStats};
use crate::workload::{
    band, value, value_matches, BatchItem, Class, Kind, Op, Oracle, Plan, Workload, CLIENTS,
    SCAN_LIMIT,
};
use lethe::{
    BackpressureStats, CacheSnapshot, ContentSnapshot, IoSnapshot, ShardedLethe, TreeStats,
    WriteBatch,
};
use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per pass at least; the pass reports their median.
const SETUPS: usize = 3;
/// Reopens after set-up of a pass's only store; a pass on several stores,
/// and each set-up made only for the set-up median, reopens each once. The
/// pass reports their median.
const REOPENS: usize = 3;
/// Operations of all clients together that one store takes in the
/// workloads that write. The engine does not reclaim the space of dropped
/// pages while a store is open, so each shard's data file only grows (by
/// about 0.8 KB per `ycsb_a_deletes` operation): on one store a fixed-time
/// phase would grow the files with throughput, without bound. So the
/// measured phase moves on to a freshly set-up store after this many
/// operations, every store does the same work, and the file sizes stay
/// the same whatever the engine's speed. Each store is one window: the
/// pass reports medians over stores.
const STORE_OPS: u64 = 240_000;
const PRELOAD_BATCH: usize = 1000;
/// The traced pass samples the oldest tombstone-bearing file every this
/// many operations of client 0.
const DTH_SAMPLE_EVERY: u64 = 20_000;
const RSS_SAMPLE_EVERY: Duration = Duration::from_millis(50);
/// At most this many check failures are kept as messages.
const MAX_PROBLEMS: usize = 5;
const SETUP_OP: u64 = 0xFF << 48;

/// Everything one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    pub setup_s: Vec<f64>,
    /// Stores the measured phase ran on, one after the other.
    pub stores: usize,
    /// Files per level of every shard right after the measured set-up.
    pub shape: Vec<Vec<usize>>,
    pub measured_s: f64,
    pub ops: u64,
    pub failed: u64,
    pub problems: Problems,
    /// Per-class latencies, indexed by [`Class`], tagged with their window
    /// (see [`trace::tag`]) and sorted.
    pub lat: [Vec<u64>; 4],
    /// Tagged, sorted latencies of every operation.
    pub all: Vec<u64>,
    /// Seconds of each whole window of the measured phase. A window is one
    /// second on `read_skew` and one store's full share of work on the
    /// workloads that write; a window the deadline cut short is left out.
    pub windows: Vec<f64>,
    /// Write records acknowledged (batch items count one each).
    pub records: u64,
    pub wrapped: bool,
    pub exhausted: bool,
    /// Peak resident set during a store's share of the measured phase,
    /// median over the stores.
    pub peak_rss_mb: f64,
    /// Counter deltas over the measured phase (summed over the stores),
    /// and gauges at the end of the first store's share of it.
    pub io: IoSnapshot,
    pub stats: TreeStats,
    pub cache: CacheSnapshot,
    pub backpressure: BackpressureStats,
    pub contents: ContentSnapshot,
    /// Write amplification over a store's life up to the end of its share
    /// of the measured phase and the quiesce after it, median over the
    /// stores.
    pub write_amp: f64,
    pub quiesce_s: f64,
    /// Live bytes of the first store as set-up left it; store-directory
    /// bytes and reopen time of the stores as set-up left them (medians).
    pub setup_live_bytes: u64,
    pub setup_disk_bytes: u64,
    pub reopen_s: f64,
    /// Store-directory bytes and reopen time of the first store after its
    /// share of the measured phase.
    pub disk_bytes: u64,
    pub reopen_after_run_s: f64,
    pub data_bytes: u64,
    pub wal_bytes: u64,
    pub manifest_bytes: u64,
    pub batchlog_bytes: u64,
    pub fsync_us: f64,
    pub bytes_written: u64,
    /// Traced pass only.
    pub spans: SpanStats,
    pub dth_age_ratio: f64,
    pub tree: TreeProbe,
    pub backend_read_us: f64,
    pub wal_append_us: f64,
    pub wal_commit_us: f64,
    /// `ycsb_a_deletes` only: median ms of the retention purge probe.
    pub purge_probe_ms: f64,
}

impl Pass {
    pub fn class(&self, class: Class) -> &[u64] {
        &self.lat[class as usize]
    }
}

/// Failed checks: how many, and the first few messages.
#[derive(Debug, Default)]
pub struct Problems {
    pub count: u64,
    pub messages: Vec<String>,
}

impl Problems {
    fn note(&mut self, msg: String) {
        self.count += 1;
        if self.messages.len() < MAX_PROBLEMS {
            self.messages.push(msg);
        }
    }

    fn absorb(&mut self, other: Problems) {
        self.count += other.count;
        let room = MAX_PROBLEMS.saturating_sub(self.messages.len());
        self.messages.extend(other.messages.into_iter().take(room));
    }
}

pub fn run_pass(
    wl: &Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    root: &Path,
) -> Result<Pass, String> {
    fs::create_dir_all(root).map_err(|e| format!("create {}: {e}", root.display()))?;
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, traced);
    let mut pass = Pass {
        fsync_us: probe::fsync_calibration_us(root)
            .map_err(|e| format!("fsync calibration: {e}"))?,
        ..Pass::default()
    };
    let written_before = probe::process_write_bytes();

    let plans: Vec<Plan> = (0..CLIENTS).map(|t| wl.plan(seed, t)).collect();
    // every store starts from the preload, so its clients start from these
    let preloaded: Vec<Oracle> = plans
        .iter()
        .map(|p| {
            let purges = wl.kind == Kind::DurablePurge || (traced && wl.kind == Kind::YcsbADeletes);
            let mut o = Oracle::new(purges);
            for &(k, d) in &p.preload {
                o.put(k, d, 0);
            }
            o
        })
        .collect();
    // read_skew writes nothing, so any client may check any key
    let shared = (wl.kind == Kind::ReadSkew).then(|| {
        let mut all = Oracle::new(false);
        for p in &plans {
            for &(k, d) in &p.preload {
                all.put(k, d, 0);
            }
        }
        all
    });
    let cap = match wl.kind {
        Kind::ReadSkew => u64::MAX,
        _ => STORE_OPS / CLIENTS as u64,
    };

    // space and reopen time are taken on the stores as set-up left them: a
    // fixed amount of work, so an engine that gets through more of the
    // timed phase does not read as using more disk or reopening slower.
    // Background compaction leaves each set-up a slightly different layout,
    // so both are medians, over the set-ups and over the reopens.
    let budget = Duration::from_secs(seconds);
    let mut measured = Duration::ZERO;
    let mut disk = Vec::new();
    let mut reopens = Vec::new();
    let mut spans = SpanStats::default();
    let mut all = Vec::new();
    // (seconds, peak resident set, write amplification) of every store,
    // and whether it got through its share of work
    let mut per_store: Vec<(bool, [f64; 3])> = Vec::new();
    while measured < budget {
        let first = pass.stores == 0;
        let dir = root.join(format!("store-{}", pass.stores));
        pass.stores += 1;
        let (db, secs) = setup(wl, &dir, &plans, &mut rec).map_err(|e| format!("setup: {e}"))?;
        pass.setup_s.push(secs);
        disk.push(probe::dir_bytes(&dir, |_| true) as f64);
        if first {
            pass.shape = (0..db.shard_count())
                .map(|s| db.with_shard(s, |e| e.tree().files_per_level()))
                .collect();
            pass.setup_live_bytes = db
                .snapshot_contents()
                .map_err(|e| format!("snapshot_contents: {e}"))?
                .unique_bytes;
        }
        // counters restart at every open: keep set-up's for the lifetime totals
        let mut lifetime = db.stats();
        let mut db = Some(db);
        for _ in 0..if cap == u64::MAX { REOPENS } else { 1 } {
            drop(db.take());
            let span = rec.open("shard.reopen", 0, SETUP_OP);
            let t0 = Instant::now();
            db = Some(
                wl.builder()
                    .open(&dir)
                    .map_err(|e| format!("reopen after set-up: {e}"))?,
            );
            reopens.push(t0.elapsed().as_secs_f64());
            rec.close(span);
        }
        let db = db.expect("the store was reopened");
        let mut peak_rss_mb = 0.0f64;

        let mut oracles = preloaded.clone();
        let (stats0, io0, cache0, bp0) = counters(&db);
        let start = Instant::now();
        let deadline = start + (budget - measured);
        let offset = measured;
        let window = (cap != u64::MAX).then_some(pass.stores as u64 - 1);
        let outs: Vec<ClientOut> = std::thread::scope(|s| {
            let handles: Vec<_> = oracles
                .iter_mut()
                .zip(&plans)
                .enumerate()
                .map(|(t, (oracle, plan))| {
                    let (db, shared) = (&db, shared.as_ref());
                    let ctx = ClientCtx {
                        start,
                        window,
                        deadline,
                        cap,
                        traced,
                    };
                    s.spawn(move || {
                        let rec = Recorder::new(epoch, traced);
                        client(db, wl, plan, oracle, shared, t, ctx, rec)
                    })
                })
                .collect();
            // the peak resident set of the measured phase, sampled while
            // the clients run
            while !handles.iter().all(|h| h.is_finished()) {
                peak_rss_mb = peak_rss_mb.max(probe::rss_mb());
                std::thread::sleep(RSS_SAMPLE_EVERY);
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let (stats1, io1, cache1, bp1) = counters(&db);

        let full = outs.iter().all(|o| o.ops >= cap);
        let took = outs.iter().map(|o| o.end.duration_since(start)).max();
        for out in outs {
            measured = measured.max(offset + out.end.duration_since(start));
            pass.ops += out.ops;
            pass.failed += out.failed;
            pass.records += out.records;
            pass.wrapped |= out.wrapped;
            pass.exhausted |= out.exhausted;
            pass.dth_age_ratio = pass.dth_age_ratio.max(out.dth_age_ratio);
            pass.problems.absorb(out.problems);
            for (dst, src) in pass.lat.iter_mut().zip(out.lat) {
                all.extend_from_slice(&src);
                dst.extend(src);
            }
            spans.add(&out.spans);
        }
        pass.io = pass.io + io1.since(&io0);
        pass.stats.absorb(&stats_delta(&stats1, &stats0));
        pass.cache = CacheSnapshot {
            hits: pass.cache.hits + cache1.hits - cache0.hits,
            misses: pass.cache.misses + cache1.misses - cache0.misses,
            insertions: pass.cache.insertions + cache1.insertions - cache0.insertions,
            evictions: pass.cache.evictions + cache1.evictions - cache0.evictions,
            invalidations: pass.cache.invalidations + cache1.invalidations - cache0.invalidations,
            ..if first { cache1 } else { pass.cache }
        };
        pass.backpressure = BackpressureStats {
            stalls: pass.backpressure.stalls + bp1.stalls - bp0.stalls,
            slowdowns: pass.backpressure.slowdowns + bp1.slowdowns - bp0.slowdowns,
        };

        // read_skew's clients check against the shared oracle
        let mut view = match &shared {
            Some(all) => vec![all.clone()],
            None => oracles,
        };
        if first {
            first_store_probes(wl, &db, &dir, &mut view, traced, &mut rec, &mut pass)?;
        }
        let span = rec.open("compactor.quiesce", 0, SETUP_OP);
        let t0 = Instant::now();
        db.persist()
            .and_then(|()| db.maintain())
            .map_err(|e| format!("quiesce: {e}"))?;
        let quiesce_s = t0.elapsed().as_secs_f64();
        rec.close(span);
        lifetime.absorb(&db.stats());
        per_store.push((
            full,
            [
                took.unwrap_or_default().as_secs_f64(),
                peak_rss_mb,
                lifetime.write_amp(),
            ],
        ));
        if first {
            // space figures and the check after reopen come from the first
            // store; later stores are checked while open
            pass.quiesce_s = quiesce_s;
            first_store_reopen(wl, db, &dir, &view, traced, &mut rec, &mut pass)?;
        } else {
            verify(&db, &view, &mut pass);
            drop(db);
        }
        fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    }
    // a short phase may need fewer stores than the set-up median wants
    while pass.setup_s.len() < SETUPS {
        let dir = root.join("store-extra");
        let (db, secs) = setup(wl, &dir, &plans, &mut rec).map_err(|e| format!("setup: {e}"))?;
        pass.setup_s.push(secs);
        disk.push(probe::dir_bytes(&dir, |_| true) as f64);
        drop(db);
        let t0 = Instant::now();
        let db = wl
            .builder()
            .open(&dir)
            .map_err(|e| format!("reopen after set-up: {e}"))?;
        reopens.push(t0.elapsed().as_secs_f64());
        drop(db);
        fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    }
    pass.setup_disk_bytes = trace::median(&mut disk) as u64;
    pass.reopen_s = trace::median(&mut reopens);
    pass.measured_s = measured.as_secs_f64();
    // the store-by-store figures are medians over the stores that got
    // through their share of work; a store the deadline cut short counts
    // only when it is the only one
    if per_store.iter().any(|s| s.0) {
        per_store.retain(|s| s.0);
    }
    let column = |i: usize| -> Vec<f64> { per_store.iter().map(|s| s.1[i]).collect() };
    pass.peak_rss_mb = trace::median(&mut column(1));
    pass.write_amp = trace::median(&mut column(2));
    for v in &mut pass.lat {
        v.sort_unstable();
    }
    all.sort_unstable();
    pass.all = all;
    pass.windows = if cap == u64::MAX {
        vec![1.0; seconds as usize]
    } else {
        column(0)
    };

    if traced {
        (pass.wal_append_us, pass.wal_commit_us) =
            probe::wal_probe(root, &mut rec).map_err(|e| format!("wal probe: {e}"))?;
    }
    pass.bytes_written = probe::process_write_bytes().saturating_sub(written_before);
    spans.add(&rec.spans);
    spans.finish();
    pass.spans = spans;
    Ok(pass)
}

/// The first store's gauges and layer probes at the end of its share of
/// the measured phase, before it is quiesced.
fn first_store_probes(
    wl: &Workload,
    db: &ShardedLethe,
    dir: &Path,
    oracles: &mut [Oracle],
    traced: bool,
    rec: &mut Recorder,
    pass: &mut Pass,
) -> Result<(), String> {
    // the WAL is truncated once its records are flushed, so size it now
    pass.wal_bytes = probe::dir_bytes(dir, |n| n.ends_with(".wal"));
    pass.contents = db
        .snapshot_contents()
        .map_err(|e| format!("snapshot_contents: {e}"))?;
    if traced {
        pass.tree = probe::tree_probe(db, &probe_keys(oracles), rec);
        if wl.kind == Kind::YcsbADeletes {
            pass.purge_probe_ms = purge_probe(db, wl, oracles, &mut pass.stats, rec)?;
        }
        pass.dth_age_ratio = pass.dth_age_ratio.max(dth_age_ratio(db, wl));
    }
    Ok(())
}

/// The quiesced first store's file sizes, then drop, reopen, the check of
/// the reopened store against the oracles and the backend probe.
fn first_store_reopen(
    wl: &Workload,
    db: ShardedLethe,
    dir: &Path,
    oracles: &[Oracle],
    traced: bool,
    rec: &mut Recorder,
    pass: &mut Pass,
) -> Result<(), String> {
    pass.data_bytes = probe::dir_bytes(dir, |n| n.ends_with(".data"));
    pass.manifest_bytes = probe::dir_bytes(dir, |n| n.ends_with(".manifest"));
    pass.batchlog_bytes = probe::dir_bytes(dir, |n| n == "BATCHES");
    pass.disk_bytes = probe::dir_bytes(dir, |_| true);
    drop(db);

    let span = rec.open("shard.reopen", 0, SETUP_OP);
    let t0 = Instant::now();
    let db = wl
        .builder()
        .open(dir)
        .map_err(|e| format!("reopen after the run: {e}"))?;
    pass.reopen_after_run_s = t0.elapsed().as_secs_f64();
    rec.close(span);
    verify(&db, oracles, pass);
    drop(db);

    if traced {
        pass.backend_read_us =
            probe::backend_probe(dir, rec).map_err(|e| format!("backend probe: {e}"))?;
    }
    Ok(())
}

/// Opens a fresh store in `dir` and preloads every client's keys through
/// atomic `WriteBatch`es, then persists and quiesces it.
fn setup(
    wl: &Workload,
    dir: &Path,
    plans: &[Plan],
    rec: &mut Recorder,
) -> lethe::storage::Result<(ShardedLethe, f64)> {
    if dir.exists() {
        fs::remove_dir_all(dir)?;
    }
    let t0 = Instant::now();
    let span = rec.open("setup.open", 0, SETUP_OP);
    let db = wl.builder().open(dir)?;
    rec.close(span);
    let longest = plans.iter().map(|p| p.preload.len()).max().unwrap_or(0);
    let interleaved = (0..longest).flat_map(|i| plans.iter().filter_map(move |p| p.preload.get(i)));
    let mut batch = WriteBatch::with_capacity(PRELOAD_BATCH);
    for &(key, dkey) in interleaved {
        batch.put(key, dkey, value(key, 0));
        if batch.len() == PRELOAD_BATCH {
            let span = rec.open("setup.write", 0, SETUP_OP);
            db.write(std::mem::take(&mut batch))?;
            rec.close(span);
        }
    }
    db.write(batch)?;
    let span = rec.open("compactor.persist", 0, SETUP_OP);
    db.persist()?;
    rec.close(span);
    let span = rec.open("compactor.maintain", 0, SETUP_OP);
    db.maintain()?;
    rec.close(span);
    Ok((db, t0.elapsed().as_secs_f64()))
}

fn counters(db: &ShardedLethe) -> (TreeStats, IoSnapshot, CacheSnapshot, BackpressureStats) {
    (
        db.stats(),
        db.io_snapshot(),
        db.cache_snapshot().unwrap_or_default(),
        db.backpressure(),
    )
}

/// The deltas of the counters the per-layer metrics read; every other
/// field is left at zero, so deltas can be summed with `absorb`.
fn stats_delta(after: &TreeStats, before: &TreeStats) -> TreeStats {
    let mut kiwi = after.secondary_delete;
    kiwi.full_page_drops -= before.secondary_delete.full_page_drops;
    kiwi.partial_page_drops -= before.secondary_delete.partial_page_drops;
    kiwi.pages_untouched -= before.secondary_delete.pages_untouched;
    kiwi.entries_deleted -= before.secondary_delete.entries_deleted;
    TreeStats {
        flushes: after.flushes - before.flushes,
        compactions: after.compactions - before.compactions,
        ttl_triggered_compactions: after.ttl_triggered_compactions
            - before.ttl_triggered_compactions,
        entries_compacted: after.entries_compacted - before.entries_compacted,
        bytes_flushed: after.bytes_flushed - before.bytes_flushed,
        bytes_compacted: after.bytes_compacted - before.bytes_compacted,
        tombstone_gc_delayed: after.tombstone_gc_delayed - before.tombstone_gc_delayed,
        secondary_delete: kiwi,
        ..TreeStats::default()
    }
}

/// Purges the oldest tenth of each client's preloaded delete keys through
/// `delete_where_delete_key_in`, so KiWi's page drops are measured on a
/// workload whose mix has no purges; the oracles record the purge for the
/// check after reopen. Returns the median ms per call.
fn purge_probe(
    db: &ShardedLethe,
    wl: &Workload,
    oracles: &mut [Oracle],
    stats: &mut TreeStats,
    rec: &mut Recorder,
) -> Result<f64, String> {
    let per_client = wl.preload_keys / CLIENTS as u64;
    let mut ms = Vec::new();
    for (t, oracle) in oracles.iter_mut().enumerate() {
        let (lo, hi) = (band(0, t), band(per_client / 10 + 1, t));
        let span = rec.open("kiwi.purge_probe", 0, SETUP_OP);
        let t0 = Instant::now();
        let drops = db
            .delete_where_delete_key_in(lo, hi)
            .map_err(|e| format!("purge probe: {e}"))?;
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        rec.close(span);
        stats.secondary_delete.merge(&drops);
        oracle.purge(lo, hi);
    }
    Ok(trace::median(&mut ms))
}

/// The oldest tombstone-bearing file's age over `D_th`, read from the
/// shards' file metadata (each shard's worker pauses for the read).
fn dth_age_ratio(db: &ShardedLethe, wl: &Workload) -> f64 {
    let oldest = (0..db.shard_count())
        .map(|s| {
            db.with_shard(s, |e| {
                let now = e.clock().now();
                e.tree()
                    .levels()
                    .iter()
                    .flat_map(|l| l.all_tables())
                    .filter(|t| t.has_tombstones())
                    .map(|t| t.tombstone_age(now))
                    .max()
                    .unwrap_or(0)
            })
        })
        .max()
        .unwrap_or(0);
    oldest as f64 / (wl.dth_secs * 1e6)
}

/// Up to 1000 live keys spread over the oracles, for the layer probes.
fn probe_keys(oracles: &[Oracle]) -> Vec<u64> {
    let mut keys: Vec<u64> = oracles
        .iter()
        .flat_map(|o| o.live().map(|(k, _)| k))
        .collect();
    keys.sort_unstable();
    let stride = (keys.len() / 1000).max(1);
    keys.into_iter().step_by(stride).collect()
}

struct ClientOut {
    lat: [Vec<u64>; 4],
    ops: u64,
    failed: u64,
    problems: Problems,
    records: u64,
    wrapped: bool,
    exhausted: bool,
    dth_age_ratio: f64,
    end: Instant,
    spans: Vec<Span>,
}

/// When one client's share of a store's measured phase runs.
#[derive(Clone, Copy)]
struct ClientCtx {
    start: Instant,
    /// The window every sample falls in; `None` on a pass's only store,
    /// whose windows are the seconds since `start`.
    window: Option<u64>,
    deadline: Instant,
    /// Operations this client issues on the store at most.
    cap: u64,
    traced: bool,
}

/// One closed-loop client: issues its stream from the start until
/// `deadline` or its cap, timing each call to acknowledgement and checking
/// each answer outside the timer.
#[allow(clippy::too_many_arguments)]
fn client(
    db: &ShardedLethe,
    wl: &Workload,
    plan: &Plan,
    oracle: &mut Oracle,
    shared: Option<&Oracle>,
    t: usize,
    ctx: ClientCtx,
    mut rec: Recorder,
) -> ClientOut {
    let ClientCtx {
        start,
        window,
        deadline,
        cap,
        traced,
    } = ctx;
    let mut out = ClientOut {
        lat: Default::default(),
        ops: 0,
        failed: 0,
        problems: Problems::default(),
        records: 0,
        wrapped: false,
        exhausted: false,
        dth_age_ratio: 0.0,
        end: Instant::now(),
        spans: Vec::new(),
    };
    let sample_dth = traced && t == 0 && wl.kind != Kind::ReadSkew;
    let mut version = 0u64;
    let mut i = 0usize;
    loop {
        if i == plan.ops.len() {
            if !wl.wraps() {
                out.exhausted = true;
                break;
            }
            out.wrapped = true;
            i = 0;
        }
        let op = plan.ops[i];
        i += 1;
        let id = (t as u64) << 48 | out.ops;
        out.ops += 1;
        let class = op.class();
        let (t0, t1) = match op {
            Op::Get(key) => {
                let span = rec.open("shard.get", 0, id);
                let t0 = Instant::now();
                let got = db.get(key);
                let t1 = Instant::now();
                rec.close(span);
                let view = shared.unwrap_or(oracle);
                match (got, view.expect(key)) {
                    (Ok(None), None) => {}
                    (Ok(Some(v)), Some(ver)) if value_matches(&v, key, ver) => {}
                    (Ok(got), want) => out.problems.note(format!(
                        "get({key}) returned {:?}, expected version {want:?}",
                        got.map(|v| v.len())
                    )),
                    (Err(e), _) => {
                        out.failed += 1;
                        out.problems.note(format!("get({key}) failed: {e}"));
                    }
                }
                (t0, t1)
            }
            Op::Scan(start) => {
                let span = rec.open("cursor.scan", 0, id);
                let t0 = Instant::now();
                let inner = rec.open("shard.iter_range", span, id);
                let iter = db.iter_range(start, wl.preload_keys);
                rec.close(inner);
                let got: Vec<_> = iter.take(SCAN_LIMIT).collect();
                let t1 = Instant::now();
                rec.close(span);
                // every key below `preload_keys` exists, so a page is the
                // next consecutive keys from `start`
                let want = SCAN_LIMIT.min((wl.preload_keys - start) as usize);
                let view = shared.unwrap_or(oracle);
                let ok = got.len() == want
                    && got.iter().enumerate().all(|(j, r)| match r {
                        Ok((k, v)) => {
                            *k == start + j as u64
                                && view.expect(*k).is_some_and(|ver| value_matches(v, *k, ver))
                        }
                        Err(_) => false,
                    });
                if got.iter().any(Result::is_err) {
                    out.failed += 1;
                }
                if !ok {
                    out.problems
                        .note(format!("scan from {start} returned a wrong page"));
                }
                (t0, t1)
            }
            Op::Put { key, dkey } => {
                version += 1;
                let v = value(key, version);
                let span = rec.open("shard.put", 0, id);
                let t0 = Instant::now();
                let r = db.put(key, dkey, v);
                let t1 = Instant::now();
                rec.close(span);
                match r {
                    Ok(()) => {
                        oracle.put(key, dkey, version);
                        out.records += 1;
                    }
                    Err(e) => {
                        out.failed += 1;
                        out.problems.note(format!("put({key}) failed: {e}"));
                    }
                }
                (t0, t1)
            }
            Op::Delete(key) => {
                let span = rec.open("shard.delete", 0, id);
                let t0 = Instant::now();
                let r = db.delete(key);
                let t1 = Instant::now();
                rec.close(span);
                match r {
                    Ok(_) => {
                        oracle.delete(key);
                        out.records += 1;
                    }
                    Err(e) => {
                        out.failed += 1;
                        out.problems.note(format!("delete({key}) failed: {e}"));
                    }
                }
                (t0, t1)
            }
            Op::Batch(b) => {
                let items = &plan.batches[b as usize];
                let mut batch = WriteBatch::with_capacity(items.len());
                let first = version + 1;
                for item in items {
                    match *item {
                        BatchItem::Put { key, dkey } => {
                            version += 1;
                            batch.put(key, dkey, value(key, version));
                        }
                        BatchItem::Delete(key) => {
                            batch.delete(key);
                        }
                    }
                }
                let span = rec.open("shard.write", 0, id);
                let t0 = Instant::now();
                let r = db.write(batch);
                let t1 = Instant::now();
                rec.close(span);
                match r {
                    Ok(()) => {
                        let mut ver = first;
                        for item in items {
                            match *item {
                                BatchItem::Put { key, dkey } => {
                                    oracle.put(key, dkey, ver);
                                    ver += 1;
                                }
                                BatchItem::Delete(key) => oracle.delete(key),
                            }
                        }
                        out.records += items.len() as u64;
                    }
                    Err(e) => {
                        out.failed += 1;
                        out.problems
                            .note(format!("write(batch of {}) failed: {e}", items.len()));
                    }
                }
                (t0, t1)
            }
            Op::Purge { lo, hi } => {
                let span = rec.open("shard.srd", 0, id);
                let t0 = Instant::now();
                let r = db.delete_where_delete_key_in(lo, hi);
                let t1 = Instant::now();
                rec.close(span);
                match r {
                    Ok(_) => {
                        oracle.purge(lo, hi);
                        out.records += 1;
                    }
                    Err(e) => {
                        out.failed += 1;
                        out.problems
                            .note(format!("delete_where_delete_key_in failed: {e}"));
                    }
                }
                (t0, t1)
            }
        };
        let w = window.unwrap_or_else(|| t1.duration_since(start).as_secs());
        out.lat[class as usize].push(trace::tag(w, t1.duration_since(t0).as_nanos() as u64));
        if sample_dth && out.ops.is_multiple_of(DTH_SAMPLE_EVERY) {
            out.dth_age_ratio = out.dth_age_ratio.max(dth_age_ratio(db, wl));
        }
        if t1 >= deadline || out.ops >= cap {
            out.end = t1;
            break;
        }
    }
    if out.exhausted {
        out.end = Instant::now();
    }
    out.spans = rec.spans;
    out
}

/// Checks a store against the oracles: a full scan must return
/// exactly the acknowledged live keys with their last versions (so no
/// deleted or purged key may reappear), and point gets of a sample of the
/// live keys must agree.
fn verify(db: &ShardedLethe, oracles: &[Oracle], pass: &mut Pass) {
    let mut want: Vec<(u64, u64)> = oracles.iter().flat_map(|o| o.live()).collect();
    want.sort_unstable();
    let mut seen = 0usize;
    for item in db.iter_range(0, u64::MAX) {
        match item {
            Ok((k, v)) => {
                match want.get(seen) {
                    Some(&(wk, ver)) if wk == k && value_matches(&v, k, ver) => {}
                    other => {
                        pass.problems.note(format!(
                            "after reopen the scan returned key {k} where {other:?} was expected"
                        ));
                        return;
                    }
                }
                seen += 1;
            }
            Err(e) => {
                pass.failed += 1;
                pass.problems
                    .note(format!("after reopen the scan failed: {e}"));
                return;
            }
        }
    }
    if seen != want.len() {
        pass.problems.note(format!(
            "after reopen the scan returned {seen} of {} keys",
            want.len()
        ));
    }
    let stride = (want.len() / 1000).max(1);
    for &(k, ver) in want.iter().step_by(stride) {
        match db.get(k) {
            Ok(Some(v)) if value_matches(&v, k, ver) => {}
            other => pass.problems.note(format!(
                "after reopen get({k}) returned {:?}",
                other.map(|o| o.map(|v| v.len()))
            )),
        }
    }
}
