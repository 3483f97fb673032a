//! The three workloads, their store configuration, the pre-generated
//! per-client operation streams, and the oracle that checks every answer.
//!
//! Clients own disjoint keys (`key % CLIENTS == client`) and disjoint
//! delete-key bands (`client << BAND_SHIFT`), so each client's oracle is
//! exact: no other thread can write, delete or purge a key it checks.

use lethe::storage::SyncPolicy;
use lethe::workload::{BatchWriteOp, Operation, WorkloadGenerator, WorkloadSpec, Zipf};
use lethe::ShardedLetheBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};

pub const CLIENTS: usize = 2;
pub const SHARDS: usize = 2;
pub const VALUE_SIZE: usize = 200;
/// Keys preloaded by `read_skew` and `ycsb_a_deletes`.
const PRELOAD_KEYS: u64 = 200_000;
/// Keys preloaded by `durable_purge`: the retained history the first
/// purges remove.
const PURGE_PRELOAD_KEYS: u64 = 100_000;
/// About 1/6 of the ~45 MB of live data the 200k-key preload leaves.
const CACHE_BYTES: usize = 7_864_320;
/// Operations pre-generated per client. Read-only and update-only streams
/// wrap around when a run outlasts them; `durable_purge` does not (its
/// delete keys must keep rising), so its clients stop instead.
const OPS_PER_CLIENT: usize = 1_000_000;
/// Scans consume one page of a long cursor, like a paging API.
pub const SCAN_LIMIT: usize = 100;
/// Each client's delete keys live in `[client << BAND_SHIFT, ...)`.
const BAND_SHIFT: u32 = 40;
/// Ingestion rate behind the logical clock: every ingested entry advances
/// it by `1/I` seconds, so `D_th` is a budget of ingested entries.
const INGESTION_RATE: u64 = 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ReadSkew,
    YcsbADeletes,
    DurablePurge,
}

/// One named workload: the store it runs on and the mix its clients issue.
#[derive(Debug, Clone)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    pub preload_keys: u64,
    pub sync: SyncPolicy,
    /// Delete persistence threshold in logical seconds.
    pub dth_secs: f64,
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        let base = Workload {
            kind: Kind::ReadSkew,
            name: "read_skew",
            preload_keys: PRELOAD_KEYS,
            sync: SyncPolicy::OnFlush,
            dth_secs: 30.0,
        };
        match name {
            "read_skew" => Some(base),
            "ycsb_a_deletes" => Some(Workload {
                kind: Kind::YcsbADeletes,
                name: "ycsb_a_deletes",
                ..base
            }),
            "durable_purge" => Some(Workload {
                kind: Kind::DurablePurge,
                name: "durable_purge",
                preload_keys: PURGE_PRELOAD_KEYS,
                sync: SyncPolicy::Always,
                dth_secs: 10.0,
            }),
            _ => None,
        }
    }

    pub fn wraps(&self) -> bool {
        self.kind != Kind::DurablePurge
    }

    pub fn describe(&self) -> String {
        let mix = match self.kind {
            Kind::ReadSkew => "85% zipf(0.99) get, 10% absent get, 5% iter_range.take(100)",
            Kind::YcsbADeletes => "50% uniform get, 45% put, 5% delete (YCSB-A with deletes)",
            Kind::DurablePurge => {
                "80% put, 10% delete, 5% get, 5% 8-op batch, 0.1% retention purge"
            }
        };
        format!(
            "workload {}: {} keys x {} B preloaded, cache {} B, {} shards, {:?}, D_th {} s \
             (logical, I = {}/s), {} closed-loop clients, {}",
            self.name,
            self.preload_keys,
            VALUE_SIZE,
            CACHE_BYTES,
            SHARDS,
            self.sync,
            self.dth_secs,
            INGESTION_RATE,
            CLIENTS,
            mix
        )
    }

    pub fn builder(&self) -> ShardedLetheBuilder {
        ShardedLetheBuilder::new()
            .shards(SHARDS)
            .buffer(256, 16, 256)
            .size_ratio(4)
            .delete_tile_pages(4)
            .ingestion_rate(INGESTION_RATE)
            .delete_persistence_threshold_secs(self.dth_secs)
            .wal_sync_policy(self.sync)
            .block_cache_bytes(CACHE_BYTES)
    }

    /// Client `client`'s preload slice and measured-phase stream for `seed`.
    pub fn plan(&self, seed: u64, client: usize) -> Plan {
        let client_seed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(client as u64 + 1);
        let per_client = self.preload_keys / CLIENTS as u64;
        let spec = match self.kind {
            // read_skew draws its own Zipfian stream below; the generator
            // only lays out the preload, dense over the key space
            Kind::ReadSkew | Kind::YcsbADeletes => WorkloadSpec {
                preload_keys: per_client,
                key_space: per_client,
                ..WorkloadSpec::ycsb_a_with_deletes(OPS_PER_CLIENT as u64, 10.0)
            },
            Kind::DurablePurge => WorkloadSpec {
                preload_keys: per_client,
                key_space: 1 << 32,
                update_fraction: 0.799,
                point_lookup_fraction: 0.05,
                point_delete_fraction: 0.10,
                batch_fraction: 0.05,
                batch_size: 8,
                range_lookup_fraction: 0.0,
                ..WorkloadSpec::secondary_delete_mix(OPS_PER_CLIENT as u64, 0.001, 0.5)
            },
        };
        let mut generator = WorkloadGenerator::new(WorkloadSpec {
            seed: client_seed,
            value_size: VALUE_SIZE,
            ..spec
        });
        let mut plan = Plan::default();
        for op in generator.preload() {
            if let Operation::Put { key, delete_key } = op {
                plan.preload
                    .push((own(key, client), band(delete_key, client)));
            }
        }
        if self.kind == Kind::ReadSkew {
            plan.ops = read_skew_ops(self.preload_keys, OPS_PER_CLIENT, client_seed);
            return plan;
        }
        for op in generator.operations() {
            let mapped = match op {
                Operation::Put { key, delete_key } => Op::Put {
                    key: own(key, client),
                    dkey: band(delete_key, client),
                },
                Operation::Get { key } => Op::Get(own(key, client)),
                Operation::GetEmpty { key } => Op::Get(own(key, client)),
                Operation::Delete { key } => Op::Delete(own(key, client)),
                Operation::WriteBatch { ops } => {
                    plan.batches.push(
                        ops.into_iter()
                            .map(|op| match op {
                                BatchWriteOp::Put { key, delete_key } => BatchItem::Put {
                                    key: own(key, client),
                                    dkey: band(delete_key, client),
                                },
                                BatchWriteOp::Delete { key } => BatchItem::Delete(own(key, client)),
                            })
                            .collect(),
                    );
                    Op::Batch(plan.batches.len() as u32 - 1)
                }
                Operation::SecondaryRangeDelete { start, end } => Op::Purge {
                    lo: band(start, client),
                    hi: band(end, client),
                },
                other => panic!("workload {} generated an unexpected {other:?}", self.name),
            };
            plan.ops.push(mapped);
        }
        plan
    }
}

/// `read_skew`'s stream: gets of Zipfian-popular keys (ranks hashed over
/// the key space so the hot set is spread over many pages), gets of keys
/// never written, and short scans from uniform start keys.
fn read_skew_ops(keys: u64, n: usize, seed: u64) -> Vec<Op> {
    let zipf = Zipf::new(keys as usize, 0.99);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen();
            if u < 0.85 {
                let rank = zipf.sample(&mut rng) as u64;
                Op::Get(rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % keys)
            } else if u < 0.95 {
                Op::Get(keys + rng.gen_range(0..keys))
            } else {
                Op::Scan(rng.gen_range(0..keys))
            }
        })
        .collect()
}

fn own(generated: u64, client: usize) -> u64 {
    generated * CLIENTS as u64 + client as u64
}

pub fn band(delete_key: u64, client: usize) -> u64 {
    ((client as u64) << BAND_SHIFT) | delete_key
}

#[derive(Debug, Clone, Copy)]
pub enum Op {
    Get(u64),
    Scan(u64),
    Put {
        key: u64,
        dkey: u64,
    },
    Delete(u64),
    /// Index into [`Plan::batches`].
    Batch(u32),
    Purge {
        lo: u64,
        hi: u64,
    },
}

impl Op {
    pub fn class(&self) -> Class {
        match self {
            Op::Get(_) => Class::Get,
            Op::Scan(_) => Class::Scan,
            Op::Put { .. } | Op::Delete(_) | Op::Batch(_) => Class::Write,
            Op::Purge { .. } => Class::Purge,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
/// Operation classes, numbered to index per-class latency arrays.
pub enum Class {
    Get,
    Scan,
    Write,
    Purge,
}

#[derive(Debug, Clone, Copy)]
pub enum BatchItem {
    Put { key: u64, dkey: u64 },
    Delete(u64),
}

#[derive(Debug, Default)]
pub struct Plan {
    /// `(key, delete key)` of every preloaded key this client owns.
    pub preload: Vec<(u64, u64)>,
    pub ops: Vec<Op>,
    pub batches: Vec<Vec<BatchItem>>,
}

/// The value stored for `(key, version)`: the key, the version, and a
/// filler byte derived from both.
pub fn value(key: u64, version: u64) -> Vec<u8> {
    let mut v = vec![filler(key, version); VALUE_SIZE];
    v[..8].copy_from_slice(&key.to_le_bytes());
    v[8..16].copy_from_slice(&version.to_le_bytes());
    v
}

pub fn value_matches(v: &[u8], key: u64, version: u64) -> bool {
    let fill = filler(key, version);
    v.len() == VALUE_SIZE
        && v[..8] == key.to_le_bytes()
        && v[8..16] == version.to_le_bytes()
        && v[16..].iter().all(|&b| b == fill)
}

fn filler(key: u64, version: u64) -> u8 {
    (key ^ version.rotate_left(8)) as u8 | 1
}

/// The acknowledged state of the keys one client owns.
#[derive(Debug, Default, Clone)]
pub struct Oracle {
    /// key → (version, delete key) of its live version.
    live: HashMap<u64, (u64, u64)>,
    /// `(delete key, key)` of every acknowledged put in arrival order, for
    /// replaying retention purges; kept only when purges can occur.
    by_dkey: Option<VecDeque<(u64, u64)>>,
}

impl Oracle {
    pub fn new(track_purges: bool) -> Oracle {
        Oracle {
            live: HashMap::new(),
            by_dkey: track_purges.then(VecDeque::new),
        }
    }

    pub fn put(&mut self, key: u64, dkey: u64, version: u64) {
        self.live.insert(key, (version, dkey));
        if let Some(q) = &mut self.by_dkey {
            q.push_back((dkey, key));
        }
    }

    pub fn delete(&mut self, key: u64) {
        self.live.remove(&key);
    }

    /// Applies an acknowledged purge of delete keys `[lo, hi)`. A client's
    /// delete keys rise with arrival and every purge starts at the bottom
    /// of its band, so the purged versions are a prefix of `by_dkey`.
    pub fn purge(&mut self, lo: u64, hi: u64) {
        let q = self
            .by_dkey
            .as_mut()
            .expect("purges are tracked for this workload");
        while let Some(&(dkey, key)) = q.front() {
            if dkey >= hi {
                break;
            }
            q.pop_front();
            if dkey >= lo && self.live.get(&key).map(|e| e.1) == Some(dkey) {
                self.live.remove(&key);
            }
        }
    }

    /// The version `key` must read as, `None` if it must be absent.
    pub fn expect(&self, key: u64) -> Option<u64> {
        self.live.get(&key).map(|e| e.0)
    }

    pub fn live(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.live.iter().map(|(k, e)| (*k, e.0))
    }
}
