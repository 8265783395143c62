//! The byte-exact `TsueEngine` with real payloads, driven by one writer
//! (this thread) against one recycler. It runs in the traced run of
//! `ali-tsue-closed`, on updates of the same Ali-Cloud sizes: every one of
//! its timings is host time, which cannot gate (see README).

use std::time::{Duration, Instant};

use rscode::CodeParams;
use traces::{OpKind, WorkloadGen, WorkloadParams};
use tsue::engine::{EngineConfig, TsueEngine};

use crate::passes::{self, PassRecord, Run};
use crate::report::{Checks, Metrics};
use crate::Rng;

const K: usize = 6;
const STRIPES: u64 = 16;
const BLOCK: u32 = 1 << 20;
/// Updates one pass issues.
const UPDATES: usize = 10_000;

fn config() -> EngineConfig {
    EngineConfig::builder(CodeParams::new(K, 3).expect("valid RS shape"))
        .block_len(BLOCK)
        .stripes(STRIPES)
        .unit_bytes(1 << 20)
        .max_units(4)
        .pools_per_layer(2)
        .recycler_threads(1)
        .build()
        .expect("valid engine configuration")
}

/// One update: data block `(stripe, idx)`, offset, and the payload's
/// position in the shared payload buffer.
struct Update {
    stripe: u64,
    idx: u16,
    off: u32,
    len: u32,
    src: usize,
}

/// A pass's inputs.
struct Inputs {
    updates: Vec<Update>,
    /// Random bytes the payloads are cut from.
    payload: Vec<u8>,
    /// For each data block (`stripe * K + idx`), the updates that write
    /// it, in issue order.
    by_block: Vec<Vec<u32>>,
}

impl Inputs {
    /// Data block `b` as the updates leave it: each one applied in order
    /// to a zeroed block. Rebuilt one block at a time, so that the check
    /// adds one block, not a shadow copy of the volume, to the peak RSS.
    fn expected(&self, b: usize, block: &mut [u8]) {
        block.fill(0);
        for &i in &self.by_block[b] {
            let u = &self.updates[i as usize];
            let (off, len) = (u.off as usize, u.len as usize);
            block[off..off + len].copy_from_slice(&self.payload[u.src..u.src + len]);
        }
    }
}

/// Ali-Cloud-sized updates (reads dropped, fresh writes kept as updates)
/// over the engine's data blocks, clipped at block ends.
fn inputs(seed: u64) -> Inputs {
    let volume = STRIPES * K as u64 * BLOCK as u64;
    let mut gen = WorkloadGen::new(WorkloadParams::ali_cloud(volume), seed);
    let mut rng = Rng::new(seed);
    let payload: Vec<u8> = (0..2 * BLOCK as usize)
        .map(|_| rng.next_u64() as u8)
        .collect();
    let mut updates = Vec::with_capacity(UPDATES);
    while updates.len() < UPDATES {
        let op = gen.next().expect("the generator is endless");
        if op.kind == OpKind::Read {
            continue;
        }
        let block = op.offset / BLOCK as u64;
        let off = (op.offset % BLOCK as u64) as u32;
        let len = op.len.min(BLOCK - off);
        updates.push(Update {
            stripe: block / K as u64,
            idx: (block % K as u64) as u16,
            off,
            len,
            src: rng.below(BLOCK as u64) as usize,
        });
    }
    let mut by_block = vec![Vec::new(); STRIPES as usize * K];
    for (i, u) in updates.iter().enumerate() {
        by_block[u.stripe as usize * K + u.idx as usize].push(i as u32);
    }
    Inputs {
        updates,
        payload,
        by_block,
    }
}

/// Runs the fewest passes a run makes, each checked byte for byte, and
/// reports the engine's per-layer metrics.
pub fn run(seed: u64, checks: &mut Checks, out: &mut Metrics) {
    let inputs = inputs(seed);
    let mut run = Run::default();
    let mut block = vec![0u8; BLOCK as usize];
    let start = Instant::now();
    while passes::more(run.passes.len(), start, Duration::ZERO) {
        run.passes.push(pass(&inputs, &mut block, checks));
    }

    let bytes: u64 = inputs.updates.iter().map(|u| u.len as u64).sum();
    let host_wall_s = run.median(|p| p.wall_s);
    out.set("engine.front_s", run.median(|p| p.front_s), "s");
    out.set("engine.flush_s", run.median(|p| p.flush_s), "s");
    out.set("engine.merge_ratio", run.median(|p| p.merge_ratio), "ratio");
    out.set(
        "engine.mib_per_s",
        bytes as f64 / (1 << 20) as f64 / host_wall_s,
        "MiB/s",
    );
}

fn pass(inputs: &Inputs, block: &mut [u8], checks: &mut Checks) -> PassRecord {
    let engine = TsueEngine::new(config());

    let t = Instant::now();
    for u in &inputs.updates {
        let src = &inputs.payload[u.src..u.src + u.len as usize];
        engine.update(u.stripe, u.idx, u.off, std::hint::black_box(src));
    }
    let front_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    engine.flush();
    let flush_s = t.elapsed().as_secs_f64();

    // Correctness, outside the timed region: every update acked, parity a
    // fresh re-encode of the data, and the data byte-exact against the
    // updates replayed block by block.
    let n = inputs.updates.len() as u64;
    checks.attempted += n;
    let acked = engine.acked_updates();
    checks.require(acked == n, || {
        format!("engine acked {acked} of {n} updates")
    });
    let parity_ok = engine.verify_parity();
    checks.require(parity_ok, || {
        "engine parity differs from a fresh re-encode".into()
    });
    let mismatched = (0..STRIPES as usize * K)
        .filter(|&b| {
            inputs.expected(b, block);
            engine.raw_block((b / K) as u64, b % K) != *block
        })
        .count() as u64;
    checks.require(mismatched == 0, || {
        format!("{mismatched} data blocks differ from the updates replayed")
    });
    // A pass that breaks any of these leaves every one of its updates in
    // doubt.
    if acked != n || !parity_ok || mismatched > 0 {
        checks.failed += n;
    }
    let merge_ratio = acked as f64 / engine.applied_ranges().max(1) as f64;
    drop(engine);
    PassRecord {
        fp: 0,
        wall_s: front_s + flush_s,
        front_s,
        flush_s,
        merge_ratio,
        ..PassRecord::default()
    }
}
