//! Kernel timings: each layer's hot public function called directly, at
//! the sizes the workloads use, so a per-layer change shows up beside the
//! end-to-end numbers that it should move. Each runs only on the workload
//! whose layer it measures.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rscode::{CodeParams, ReedSolomon};
use simdes::Sim;
use simdisk::{IoOp, Pattern, Ssd, SsdConfig};
use tsue::{AppendOutcome, Ghost, LogPool, MergeMode, PoolConfig, TwoLevelIndex};

use crate::report::{median, Metrics};
use crate::sim::SimWorkload;
use crate::Rng;

/// How long each kernel is timed, split into this many rounds whose
/// median is reported.
const ROUNDS: usize = 5;
const ROUND: Duration = Duration::from_millis(40);

/// Bytes per GF(2^8) slice call: the engine's updates run up to
/// 256 KiB with a mean near 40 KiB.
const SLICE: usize = 64 << 10;
/// Engine block length, the unit a full-stripe encode works on.
const BLOCK: usize = 1 << 20;

/// Times `body` (which does `work` units per call) in `ROUNDS` rounds and
/// returns the median units per second.
fn rate(work: f64, mut body: impl FnMut()) -> f64 {
    let mut rates = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let start = Instant::now();
        let mut calls = 0u64;
        while start.elapsed() < ROUND {
            body();
            calls += 1;
        }
        rates.push(calls as f64 * work / start.elapsed().as_secs_f64());
    }
    median(&rates)
}

const GIB: f64 = (1u64 << 30) as f64;

/// Runs the kernel timings of `w`'s layers and records them into `out`:
/// the scheduler on every workload, `Ssd::submit` past GC on
/// `ten-fo-wear`, and on `ali-tsue-closed` the log index and pool and the
/// byte kernels of the engine that runs beside it.
pub fn run(w: SimWorkload, seed: u64, out: &mut Metrics) {
    let mut rng = Rng::new(seed ^ 0x6b65_726e);
    out.set("simdes.sched_ns", sched_ns(), "ns");
    match w {
        SimWorkload::AliTsueClosed => {
            out.set("tsue.index_insert_ns", index_insert_ns(&mut rng), "ns");
            out.set("tsue.pool_append_ns", pool_append_ns(&mut rng), "ns");
            bytes(&mut rng, out);
        }
        SimWorkload::TenFoWear => {
            out.set("simdisk.ssd_submit_ns", ssd_submit_ns(&mut rng), "ns");
        }
        SimWorkload::TenOpenDegraded => {}
    }
}

/// The `gf256` and `rscode` kernels the engine's updates and recycles run.
fn bytes(rng: &mut Rng, out: &mut Metrics) {
    let src: Vec<u8> = (0..SLICE).map(|_| rng.next_u64() as u8).collect();
    let mut dst = vec![0u8; SLICE];

    let gibps = rate(SLICE as f64 / GIB, || {
        gf256::slice::mul_acc(black_box(&mut dst), black_box(&src), 0x1d)
    });
    out.set("gf256.mul_acc_gibps", gibps, "GiB/s");
    let gibps = rate(SLICE as f64 / GIB, || {
        gf256::slice::xor(black_box(&mut dst), black_box(&src))
    });
    out.set("gf256.xor_gibps", gibps, "GiB/s");

    let code = CodeParams::new(6, 3).expect("valid RS shape");
    let rs = ReedSolomon::new(code);
    let gibps = rate(SLICE as f64 / GIB, || {
        rscode::delta::parity_delta(&rs, 1, 2, black_box(&src), black_box(&mut dst))
    });
    out.set("rscode.parity_delta_gibps", gibps, "GiB/s");

    let data: Vec<Vec<u8>> = (0..code.k())
        .map(|_| (0..BLOCK).map(|_| rng.next_u64() as u8).collect())
        .collect();
    let mut parity = vec![vec![0u8; BLOCK]; code.m()];
    let gibps = rate((code.k() * BLOCK) as f64 / GIB, || {
        let d: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let mut p: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
        rs.encode(black_box(&d), black_box(&mut p))
            .expect("encode of well-shaped blocks");
    });
    out.set("rscode.encode_gibps", gibps, "GiB/s");
}

/// Host nanoseconds per event of a bare `schedule_call` chain.
fn sched_ns() -> f64 {
    const EVENTS: u64 = 1 << 20;
    fn tick(sim: &mut Sim<u64>, left: &mut u64) {
        *left -= 1;
        if *left > 0 {
            sim.schedule_call(1, tick);
        }
    }
    let per_event = (0..ROUNDS)
        .map(|_| {
            let mut sim: Sim<u64> = Sim::new();
            let mut left = EVENTS;
            let start = Instant::now();
            sim.schedule_call(1, tick);
            sim.run(&mut left);
            start.elapsed().as_nanos() as f64 / EVENTS as f64
        })
        .collect::<Vec<_>>();
    median(&per_event)
}

/// Host nanoseconds per 4 KiB random write on a full 64 MiB SSD, past the
/// point where the FTL garbage-collects.
fn ssd_submit_ns(rng: &mut Rng) -> f64 {
    const CAP: u64 = 64 << 20;
    const PAGE: u64 = 4 << 10;
    let mut ssd = Ssd::new(SsdConfig {
        capacity: CAP,
        ..SsdConfig::default()
    });
    let mut now = 0;
    for off in (0..CAP).step_by(1 << 20) {
        now = ssd.submit(now, IoOp::write(off, 1 << 20, Pattern::Sequential));
    }
    let offsets: Vec<u64> = (0..1 << 16).map(|_| rng.below(CAP / PAGE) * PAGE).collect();
    let mut i = 0usize;
    let per_sec = rate(64.0, || {
        for _ in 0..64 {
            let off = offsets[i % offsets.len()];
            i += 1;
            now = ssd.submit(now, IoOp::write(off, PAGE, Pattern::Random));
        }
    });
    assert!(ssd.stats().erases > 0, "the SSD kernel must reach GC");
    1e9 / per_sec
}

/// Host nanoseconds per 4 KiB overwrite insert into the two-level index
/// over 256 blocks of 4 MiB.
fn index_insert_ns(rng: &mut Rng) -> f64 {
    let ops: Vec<(u64, u32)> = (0..1 << 16)
        .map(|_| (rng.below(256), rng.below(1024) as u32 * 4096))
        .collect();
    let mut idx: TwoLevelIndex<u64, Ghost> = TwoLevelIndex::new(MergeMode::Overwrite);
    let mut i = 0usize;
    let per_sec = rate(64.0, || {
        for _ in 0..64 {
            let (key, off) = ops[i % ops.len()];
            i += 1;
            idx.insert(key, off, Ghost(4096));
        }
    });
    black_box(idx.range_count());
    1e9 / per_sec
}

/// Host nanoseconds per 4 KiB append to a paper-default log pool (16 MiB
/// units), recycling each unit as soon as it seals.
fn pool_append_ns(rng: &mut Rng) -> f64 {
    let ops: Vec<(u64, u32)> = (0..1 << 16)
        .map(|_| (rng.below(256), rng.below(1024) as u32 * 4096))
        .collect();
    let mut pool: LogPool<u64, Ghost> = LogPool::new(PoolConfig::paper_default(MergeMode::Xor));
    let mut i = 0usize;
    let per_sec = rate(64.0, || {
        for _ in 0..64 {
            let (key, off) = ops[i % ops.len()];
            i += 1;
            match pool.append(key, off, Ghost(4096), i as u64) {
                AppendOutcome::Appended => {}
                AppendOutcome::AppendedAndSealed(_) => {
                    let unit = pool.take_recyclable().expect("a sealed unit");
                    black_box(unit.contents.len());
                    pool.finish_recycle(unit.id);
                }
                AppendOutcome::Stalled => panic!("pool stalled with a recycler keeping up"),
            }
        }
    });
    1e9 / per_sec
}
