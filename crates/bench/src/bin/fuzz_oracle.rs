//! Randomised oracle fuzzer: replays random operation sequences against a
//! `BTreeMap` oracle on a Lethe engine, under both leveling and tiering, and
//! greedily shrinks any failing sequence to a minimal reproducer. This
//! complements the proptest suite with a wider seeded search. Exits 1 on the
//! first mismatch, so it can gate CI:
//!
//! ```text
//! cargo run -p lethe-bench --release --bin fuzz_oracle
//! ```
use lethe_core::LetheBuilder;
use lethe_lsm::config::{LsmConfig, MergePolicy, SecondaryDeleteMode};
use rand::{Rng, SeedableRng};
use rand::rngs::StdRng;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op { Put(u64, u8), Del(u64), DelRange(u64, u64), SecDel(u64, u64), Flush }

fn dk(k: u64, ks: u64) -> u64 { k.wrapping_mul(31) % ks }

fn run(ops: &[Op], ks: u64, policy: MergePolicy, verbose: bool) -> Option<u64> {
    let mut cfg = LsmConfig::small_for_test();
    cfg.merge_policy = policy;
    cfg.pages_per_delete_tile = 1;
    cfg.max_pages_per_file = 8;
    cfg.secondary_delete_mode = SecondaryDeleteMode::KiwiPageDrops;
    cfg.key_domain = 1 << 16;
    let mut db = LetheBuilder::new().with_config(cfg).delete_persistence_threshold_secs(1.0).build().unwrap();
    let mut oracle: BTreeMap<u64, u8> = BTreeMap::new();
    for op in ops {
        match op {
            Op::Put(k, v) => { db.put(*k, dk(*k, ks), vec![*v; 9]).unwrap(); oracle.insert(*k, *v); }
            Op::Del(k) => { db.delete(*k).unwrap(); oracle.remove(k); }
            Op::DelRange(s, e) => { db.delete_range(*s, *e).unwrap(); let v: Vec<u64> = oracle.range(*s..*e).map(|(k,_)| *k).collect(); for k in v { oracle.remove(&k); } }
            Op::SecDel(s, e) => { db.delete_where_delete_key_in(*s, *e).unwrap(); let v: Vec<u64> = oracle.iter().filter(|(k, _)| dk(**k, ks) >= *s && dk(**k, ks) < *e).map(|(k,_)| *k).collect(); for k in v { oracle.remove(&k); } }
            Op::Flush => { db.persist().unwrap(); }
        }
    }
    db.persist().unwrap();
    for k in 0..ks {
        let exp = oracle.get(&k).map(|v| vec![*v; 9]);
        let got = db.get(k).unwrap().map(|b| b.to_vec());
        if got != exp {
            if verbose {
                println!("MISMATCH key {k}: got {:?} expected {:?}", got.as_ref().map(|v| v[0]), exp.as_ref().map(|v| v[0]));
                println!("files/level: {:?} levels {}", db.tree().files_per_level(), db.tree().level_count());
            }
            return Some(k);
        }
    }
    None
}

fn main() {
    let ks = 64u64;
    for seed in 0..2000u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(5..60);
        let ops: Vec<Op> = (0..n).map(|_| {
            match rng.gen_range(0..11) {
                0..=5 => Op::Put(rng.gen_range(0..ks), rng.gen()),
                6..=7 => Op::Del(rng.gen_range(0..ks)),
                8 => { let s = rng.gen_range(0..ks); Op::DelRange(s, s + rng.gen_range(1..16)) }
                9 => { let s = rng.gen_range(0..ks); Op::SecDel(s, s + rng.gen_range(1..16)) }
                _ => Op::Flush,
            }
        }).collect();
        for policy in [MergePolicy::Leveling, MergePolicy::Tiering] {
            if run(&ops, ks, policy, false).is_none() {
                continue;
            }
            println!("seed {seed} fails under {policy:?} with {} ops; shrinking...", ops.len());
            // greedy shrink
            let mut cur = ops.clone();
            loop {
                let mut improved = false;
                for i in 0..cur.len() {
                    let mut cand = cur.clone();
                    cand.remove(i);
                    if run(&cand, ks, policy, false).is_some() { cur = cand; improved = true; break; }
                }
                if !improved { break; }
            }
            println!("minimal ({} ops): {:?}", cur.len(), cur);
            run(&cur, ks, policy, true);
            std::process::exit(1);
        }
    }
    println!("no failure found in 2000 seeds under leveling or tiering");
}
