//! End-to-end and per-layer benchmark of a durable `ShardedLethe` store on
//! `FileBackend`, driven through the public API by closed-loop clients.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload read_skew --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` runs the workload once and reports the end-to-end metrics.
//! `--trace 1` runs it untraced, then again with spans around every public
//! call and the layer probes, and reports the per-layer metrics plus each
//! end-to-end metric of both passes side by side (the tracing overhead).
//! `--workload all` runs every workload in turn and prefixes each metric
//! with its workload's name. The last line of standard output is one JSON
//! object; the exit code is 0 only when every correctness check passed.

mod probe;
mod run;
mod trace;
mod workload;

use run::Pass;
use std::path::PathBuf;
use trace::quantile;
use workload::{Class, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Samples behind a timing.
    samples: Option<usize>,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: None,
    }
}

/// The `q`-quantile over the whole measured phase of tagged samples.
fn timing(name: &'static str, tagged: &[u64], q: f64, scale: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: quantile(&trace::untagged(tagged), q) as f64 / scale,
        unit,
        samples: Some(tagged.len()),
    }
}

/// The median over the windows of each window's `q`-quantile.
fn windowed(p: &Pass, name: &'static str, tagged: &[u64], q: f64) -> Metric {
    Metric {
        name,
        value: trace::windowed_quantile(tagged, p.windows.len(), q) / 1e3,
        unit: "us",
        samples: Some(tagged.len()),
    }
}

/// Operations completed per second in each whole window.
fn timeline(p: &Pass) -> Vec<f64> {
    trace::windows(&p.all, p.windows.len())
        .iter()
        .zip(&p.windows)
        .map(|(w, secs)| w.len() as f64 / secs)
        .collect()
}

/// The median over the windows of the operations completed per second.
fn ops_per_s(p: &Pass) -> f64 {
    trace::median(&mut timeline(p))
}

/// The metrics a user of the store sees; defined and non-zero on every
/// workload. Throughput and latencies are medians over the windows of the
/// measured phase: one second each, or one store each on the workloads
/// that write.
fn end_to_end(p: &Pass) -> Vec<Metric> {
    let live = p.contents.unique_bytes.max(1) as f64;
    let mut setup = p.setup_s.clone();
    vec![
        Metric {
            samples: Some(p.setup_s.len()),
            ..m("setup_s", trace::median(&mut setup), "s")
        },
        Metric {
            samples: Some(p.ops as usize),
            ..m("ops_per_s", ops_per_s(p), "1/s")
        },
        windowed(p, "op_p50_us", &p.all, 0.5),
        windowed(p, "op_p99_us", &p.all, 0.99),
        windowed(p, "get_p50_us", p.class(Class::Get), 0.5),
        windowed(p, "get_p99_us", p.class(Class::Get), 0.99),
        m("write_amp", p.write_amp, "ratio"),
        m(
            "tree_bytes_per_live_byte",
            p.contents.total_bytes as f64 / live,
            "ratio",
        ),
        m(
            "disk_bytes_per_live_byte",
            p.setup_disk_bytes as f64 / p.setup_live_bytes.max(1) as f64,
            "ratio",
        ),
        m("reopen_s", p.reopen_s, "s"),
        m("peak_rss_mb", p.peak_rss_mb, "MB"),
    ]
}

/// Per-class latencies: each exists only on the workloads whose mix has
/// that operation, so they are diagnostics rather than end-to-end metrics.
fn class_latencies(p: &Pass) -> Vec<Metric> {
    vec![
        timing("scan_p50_us", p.class(Class::Scan), 0.5, 1e3, "us"),
        timing("scan_p99_us", p.class(Class::Scan), 0.99, 1e3, "us"),
        timing("write_p50_us", p.class(Class::Write), 0.5, 1e3, "us"),
        timing("write_p99_us", p.class(Class::Write), 0.99, 1e3, "us"),
        timing("srd_p50_ms", p.class(Class::Purge), 0.5, 1e6, "ms"),
    ]
}

/// Layer metrics: class latencies of the untraced pass `u`; spans, probes
/// and counters of the traced pass `t`.
fn per_layer(u: &Pass, t: &Pass) -> Vec<Metric> {
    let s = &t.spans;
    let span = |name: &'static str, span: &str, q: f64| Metric {
        samples: Some(s.count(span)),
        ..m(name, s.quantile_us(span, q), "us")
    };
    let io = &t.io;
    let st = &t.stats;
    let kiwi = &st.secondary_delete;
    let attempted = (u.ops + t.ops).max(1) as f64;
    let mut v = class_latencies(u);
    v.extend([
        m("space_amp", u.contents.space_amplification(), "ratio"),
        m("dth_age_ratio", t.dth_age_ratio, "ratio"),
        m(
            "failed_ops_frac",
            (u.failed + t.failed) as f64 / attempted,
            "ratio",
        ),
        m("cache.hit_rate", t.cache.hit_rate(), "ratio"),
        m("cache.insertions", t.cache.insertions as f64, "count"),
        m("cache.evictions", t.cache.evictions as f64, "count"),
        m("cache.invalidations", t.cache.invalidations as f64, "count"),
        m(
            "cache.bytes_resident",
            t.cache.bytes_resident as f64,
            "bytes",
        ),
        m("cache.hit_read_us", t.tree.cache_hit_read_us, "us"),
        m("tree.pages_per_get", t.tree.pages_per_get, "pages"),
        m(
            "tree.bloom_probes_per_get",
            t.tree.bloom_probes_per_get,
            "count",
        ),
        m(
            "tree.pages_per_empty_get",
            t.tree.pages_per_empty_get,
            "pages",
        ),
        m(
            "tree.pages_per_op",
            probe::ratio(io.pages_read + io.cache_hits, t.ops),
            "pages",
        ),
        m("tree.levels", t.contents.populated_levels as f64, "count"),
        m("tree.files", t.contents.files as f64, "count"),
        m(
            "tree.files_after_setup",
            t.shape.iter().flatten().sum::<usize>() as f64,
            "count",
        ),
        m(
            "tree.metadata_bytes",
            t.contents.metadata_bytes as f64,
            "bytes",
        ),
        m("tree.reader_get_us", t.tree.get_us, "us"),
        span("cursor.scan_us", "cursor.scan", 0.5),
        span("cursor.scan_p99_us", "cursor.scan", 0.99),
        span("shard.iter_range_us", "shard.iter_range", 0.5),
        Metric {
            samples: Some(s.count("cursor.scan")),
            ..m(
                "cursor.self_us",
                s.self_quantile_us("cursor.scan", 0.5),
                "us",
            )
        },
        m("backend.pages_read", io.pages_read as f64, "count"),
        m("backend.bytes_read", io.bytes_read as f64, "bytes"),
        m("backend.pages_written", io.pages_written as f64, "count"),
        m("backend.bytes_written", io.bytes_written as f64, "bytes"),
        m("backend.pages_dropped", io.pages_dropped as f64, "count"),
        m("backend.data_bytes", t.data_bytes as f64, "bytes"),
        m(
            "backend.disk_bytes_per_live_byte",
            t.disk_bytes as f64 / t.contents.unique_bytes.max(1) as f64,
            "ratio",
        ),
        m("backend.read_page_us", t.backend_read_us, "us"),
        m("wal.fsyncs", io.fsyncs as f64, "count"),
        m("wal.bytes", t.wal_bytes as f64, "bytes"),
        m("wal.append_us", t.wal_append_us, "us"),
        m("wal.commit_us", t.wal_commit_us, "us"),
        m(
            "shard.records_per_fsync",
            probe::ratio(t.records, io.fsyncs),
            "ratio",
        ),
        m("shard.reopen_after_run_s", t.reopen_after_run_s, "s"),
        m("shard.stalls", t.backpressure.stalls as f64, "count"),
        m("shard.slowdowns", t.backpressure.slowdowns as f64, "count"),
        span("shard.get_us", "shard.get", 0.5),
        span("shard.get_p99_us", "shard.get", 0.99),
        span("shard.put_us", "shard.put", 0.5),
        span("shard.delete_us", "shard.delete", 0.5),
        span("shard.write_us", "shard.write", 0.5),
        span("shard.srd_us", "shard.srd", 0.5),
        m("compactor.flushes", st.flushes as f64, "count"),
        m("compactor.compactions", st.compactions as f64, "count"),
        m(
            "compactor.ttl_compactions",
            st.ttl_triggered_compactions as f64,
            "count",
        ),
        m(
            "compactor.entries_compacted",
            st.entries_compacted as f64,
            "count",
        ),
        m("compactor.bytes_flushed", st.bytes_flushed as f64, "bytes"),
        m(
            "compactor.bytes_compacted",
            st.bytes_compacted as f64,
            "bytes",
        ),
        m(
            "compactor.gc_delayed",
            st.tombstone_gc_delayed as f64,
            "count",
        ),
        m("compactor.quiesce_s", t.quiesce_s, "s"),
        m("fade.tombstones", t.contents.tombstones as f64, "count"),
        m(
            "fade.tombstone_files",
            t.contents.tombstone_file_ages.len() as f64,
            "count",
        ),
        m(
            "fade.oldest_tombstone_age_s",
            t.contents.oldest_tombstone_file_age().unwrap_or(0) as f64 / 1e6,
            "s",
        ),
        m("kiwi.full_page_drops", kiwi.full_page_drops as f64, "count"),
        m(
            "kiwi.partial_page_drops",
            kiwi.partial_page_drops as f64,
            "count",
        ),
        m("kiwi.pages_untouched", kiwi.pages_untouched as f64, "count"),
        m("kiwi.entries_deleted", kiwi.entries_deleted as f64, "count"),
        m(
            "kiwi.full_drop_ratio",
            probe::ratio(
                kiwi.full_page_drops,
                kiwi.full_page_drops + kiwi.partial_page_drops,
            ),
            "ratio",
        ),
        m("kiwi.purge_probe_ms", t.purge_probe_ms, "ms"),
        m("manifest.bytes", t.manifest_bytes as f64, "bytes"),
        m("batchlog.bytes", t.batchlog_bytes as f64, "bytes"),
        m("device.fsync_us", t.fsync_us, "us"),
        m("device.bytes_written", t.bytes_written as f64, "bytes"),
        m("trace.spans", t.spans.spans as f64, "count"),
        m(
            "trace.overhead_ops_per_s",
            1.0 - ops_per_s(t) / ops_per_s(u).max(1e-9),
            "ratio",
        ),
        m(
            "trace.overhead_op_p50_us",
            (trace::windowed_quantile(&t.all, t.windows.len(), 0.5)
                - trace::windowed_quantile(&u.all, u.windows.len(), 0.5))
                / 1e3,
            "us",
        ),
    ]);
    v
}

fn print_metric(x: &Metric) {
    match x.samples {
        Some(n) => println!("  {:<28} {:>16.4} {:<6} (n={n})", x.name, x.value, x.unit),
        None => println!("  {:<28} {:>16.4} {}", x.name, x.value, x.unit),
    }
}

fn print_pass(label: &str, p: &Pass) {
    println!("{label}:");
    let shape: Vec<String> = p.shape.iter().map(|s| format!("{s:?}")).collect();
    println!(
        "  tree shape after set-up (files per level, per shard): {}",
        shape.join(" ")
    );
    println!(
        "  device: fsync {:.1} us at start, {} bytes written by the pass",
        p.fsync_us, p.bytes_written
    );
    println!(
        "  measured {:.3} s on {} store(s), {} ops, {} failed, {} wrong answers{}{}",
        p.measured_s,
        p.stores,
        p.ops,
        p.failed,
        p.problems.count,
        if p.wrapped { ", stream wrapped" } else { "" },
        if p.exhausted {
            ", stream exhausted before the deadline"
        } else {
            ""
        }
    );
    println!("  ops per second in each window: {:?}", timeline(p));
    for problem in &p.problems.messages {
        println!("  CHECK FAILED: {problem}");
    }
    println!(
        "  after set-up: {} live bytes in the first store; medians over the set-ups: {} bytes \
         in the store directory, reopen {:.3} s",
        p.setup_live_bytes, p.setup_disk_bytes, p.reopen_s
    );
    println!(
        "  first store after its run: paper s_amp {:.4}, {} live bytes, {} bytes in the store \
         directory, reopen {:.3} s",
        p.contents.space_amplification(),
        p.contents.unique_bytes,
        p.disk_bytes,
        p.reopen_after_run_s
    );
    for x in end_to_end(p).iter().chain(&class_latencies(p)) {
        print_metric(x);
    }
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// Runs one workload (one pass, or an untraced and a traced pass) in its
/// own directory under `.bench_run/`, deleted afterwards, and prints it.
fn run_workload(wl: &Workload, args: &Args) -> Result<Outcome, String> {
    let root =
        PathBuf::from(RUNS).join(format!("{}-{}-{}", wl.name, args.seed, std::process::id()));
    println!(
        "{} | seed {} | {} s measured",
        wl.describe(),
        args.seed,
        args.seconds
    );
    let untraced = run::run_pass(wl, args.seed, args.seconds, false, &root.join("untraced"));
    let traced = match (&untraced, args.trace) {
        (Ok(_), true) => Some(run::run_pass(
            wl,
            args.seed,
            args.seconds,
            true,
            &root.join("traced"),
        )),
        _ => None,
    };
    let _ = std::fs::remove_dir_all(&root);
    let u = untraced.map_err(|e| format!("untraced pass failed: {e}"))?;
    print_pass("untraced pass", &u);
    let Some(t) = traced else {
        return Ok(Outcome {
            correct: u.problems.count == 0 && u.failed == 0,
            attempted: u.ops,
            failed: u.failed,
            metrics: end_to_end(&u),
        });
    };
    let t = t.map_err(|e| format!("traced pass failed: {e}"))?;
    print_pass("traced pass", &t);
    println!("tracing overhead (traced - untraced):");
    for (a, b) in end_to_end(&u).iter().zip(end_to_end(&t)) {
        println!(
            "  {:<28} {:>14.4} -> {:>14.4} {:<6} {:+.4} ({:+.2}%)",
            a.name,
            a.value,
            b.value,
            a.unit,
            b.value - a.value,
            100.0 * (b.value - a.value) / a.value.abs().max(1e-12)
        );
    }
    println!("per-layer metrics:");
    let metrics = per_layer(&u, &t);
    for x in &metrics {
        print_metric(x);
    }
    Ok(Outcome {
        correct: u.problems.count + t.problems.count == 0 && u.failed + t.failed == 0,
        attempted: u.ops + t.ops,
        failed: u.failed + t.failed,
        metrics,
    })
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`, each
/// metric name prefixed with `prefix`.
fn json(outcomes: &[(String, Outcome)]) -> String {
    let body: Vec<String> = outcomes
        .iter()
        .flat_map(|(prefix, o)| {
            o.metrics.iter().map(move |x| {
                let value = if x.value.is_finite() { x.value } else { 0.0 };
                format!(
                    "\"{prefix}{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    x.name, x.unit
                )
            })
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcomes.iter().all(|(_, o)| o.correct),
        outcomes
            .iter()
            .map(|(_, o)| o.attempted)
            .sum::<u64>()
            .max(1),
        outcomes.iter().map(|(_, o)| o.failed).sum::<u64>(),
        body.join(", ")
    )
}

const RUNS: &str = ".bench_run";
const WORKLOADS: [&str; 3] = ["read_skew", "ycsb_a_deletes", "durable_purge"];

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <{}|all> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    // `all` runs every workload in turn and prefixes each metric with its
    // workload's name
    let names: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        one => vec![one],
    };
    let Some(workloads) = names
        .iter()
        .map(|n| Workload::by_name(n))
        .collect::<Option<Vec<_>>>()
    else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    println!(
        "cpus: {}",
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get)
    );
    let mut outcomes = Vec::new();
    for wl in &workloads {
        let outcome = run_workload(wl, &args);
        let _ = std::fs::remove_dir(RUNS);
        match outcome {
            Ok(o) => {
                let prefix = if names.len() > 1 {
                    format!("{}.", wl.name)
                } else {
                    String::new()
                };
                outcomes.push((prefix, o));
            }
            Err(e) => {
                eprintln!("perfbench: {}: {e}", wl.name);
                std::process::exit(1);
            }
        }
    }
    let line = json(&outcomes);
    println!("{line}");
    if !outcomes.iter().all(|(_, o)| o.correct) {
        std::process::exit(1);
    }
}
