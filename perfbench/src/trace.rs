//! Spans recorded around the benchmark's own calls into the engine's
//! public API, and the percentile arithmetic shared by every timing.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call: which boundary it crossed, when, what caused it, and
/// which benchmark operation it belongs to.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index + 1 of the enclosing span in the same recorder, 0 for a root.
    pub parent: u32,
    /// `client << 48 | sequence number`; probes and setup use client 0xFF.
    pub op: u64,
}

/// A per-thread span buffer, kept in memory until the run ends. A disabled
/// recorder records nothing, so the untraced pass pays one branch per call.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, enabled: bool) -> Recorder {
        Recorder {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Opens a span now; returns its handle (0 when disabled).
    pub fn open(&mut self, name: &'static str, parent: u32, op: u64) -> u32 {
        if !self.enabled {
            return 0;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
        });
        self.spans.len() as u32
    }

    pub fn close(&mut self, handle: u32) {
        if handle != 0 {
            self.spans[handle as usize - 1].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }
}

/// Per-name span durations and self times (duration minus the time its
/// child spans cover), merged across recorders.
#[derive(Debug, Default)]
pub struct SpanStats {
    total: BTreeMap<&'static str, Vec<u64>>,
    own: BTreeMap<&'static str, Vec<u64>>,
    pub spans: usize,
}

impl SpanStats {
    /// Adds one recorder's spans (parent handles are local to it).
    pub fn add(&mut self, spans: &[Span]) {
        let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in spans.iter().filter(|s| s.parent != 0) {
            let parent = &spans[s.parent as usize - 1];
            debug_assert_eq!(
                parent.op, s.op,
                "a child span belongs to its parent's operation"
            );
            let p = s.parent as usize - 1;
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
        for (s, own) in spans.iter().zip(own) {
            self.total
                .entry(s.name)
                .or_default()
                .push(s.end_ns - s.start_ns);
            self.own.entry(s.name).or_default().push(own);
        }
        self.spans += spans.len();
    }

    pub fn finish(&mut self) {
        for v in self.total.values_mut().chain(self.own.values_mut()) {
            v.sort_unstable();
        }
    }

    /// `q`-quantile of the named span's duration in µs (0 if never seen).
    pub fn quantile_us(&self, name: &str, q: f64) -> f64 {
        self.total
            .get(name)
            .map_or(0.0, |v| quantile(v, q) as f64 / 1e3)
    }

    /// `q`-quantile of the named span's self time in µs.
    pub fn self_quantile_us(&self, name: &str, q: f64) -> f64 {
        self.own
            .get(name)
            .map_or(0.0, |v| quantile(v, q) as f64 / 1e3)
    }

    pub fn count(&self, name: &str) -> usize {
        self.total.get(name).map_or(0, Vec::len)
    }
}

/// Latency samples carry the index of the window of the
/// measured phase they completed in above this bit: sorting tagged samples
/// groups them by window, each window's latencies in order.
const WINDOW_SHIFT: u32 = 40;
const NS_MASK: u64 = (1 << WINDOW_SHIFT) - 1;

pub fn tag(window: u64, ns: u64) -> u64 {
    (window << WINDOW_SHIFT) | ns.min(NS_MASK)
}

/// The latencies of sorted tagged samples, sorted, windows dropped.
pub fn untagged(tagged: &[u64]) -> Vec<u64> {
    let mut v: Vec<u64> = tagged.iter().map(|x| x & NS_MASK).collect();
    v.sort_unstable();
    v
}

/// The samples of windows `0..n` of sorted tagged samples, one slice each.
pub fn windows(tagged: &[u64], n: usize) -> Vec<&[u64]> {
    (0..n as u64)
        .map(|w| {
            let lo = tagged.partition_point(|x| x >> WINDOW_SHIFT < w);
            let hi = tagged.partition_point(|x| x >> WINDOW_SHIFT <= w);
            &tagged[lo..hi]
        })
        .collect()
}

/// The median over windows `0..n` (those with samples) of each window's
/// `q`-quantile latency, in ns: a window the device or the machine stalled
/// in moves it less than it moves a quantile over the whole phase.
pub fn windowed_quantile(tagged: &[u64], n: usize, q: f64) -> f64 {
    let mut per: Vec<f64> = windows(tagged, n)
        .into_iter()
        .filter(|w| !w.is_empty())
        .map(|w| (quantile(w, q) & NS_MASK) as f64)
        .collect();
    median(&mut per)
}

/// The `q`-quantile of sorted samples (nearest rank), 0 when empty.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}
