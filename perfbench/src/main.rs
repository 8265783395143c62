//! The repository benchmark: drives the simulated cluster and the
//! byte-exact TSUE engine through their public functions and prints one
//! JSON result line.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload ali-tsue-closed --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics from untraced passes;
//! `--trace 1` runs the same passes and then the traced, per-layer ones
//! (on `ali-tsue-closed` these include the byte-exact engine's).
//! See `perfbench/README.md` for the workloads and what each metric
//! should move.

mod engine;
mod kernels;
mod passes;
mod report;
mod sim;

use std::time::Duration;

use report::{Checks, Metrics};
use sim::SimWorkload;

/// The end-to-end metrics, reported by every `--trace 0` run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("host_peak_rss_mib", "MiB"),
    ("update_iops", "1/s"),
    ("update_mean_us", "us"),
    ("goodput_ops_per_s", "1/s"),
];

/// The per-layer metrics, reported by every `--trace 1` run; 0 where the
/// workload does not exercise the layer.
const PER_LAYER: &[(&str, &str)] = &[
    // Host time of a pass: too unsteady on a shared host to gate (see
    // README).
    ("host_wall_s", "s"),
    // Simulated outcomes that cannot gate across seeds (see README).
    ("update_p99_us", "us"),
    ("read_p99_us", "us"),
    ("queue_delay_p99_us", "us"),
    ("degraded_p99_us", "us"),
    ("flash_erases", "count"),
    ("write_amp", "ratio"),
    ("drain_s", "s"),
    ("failed_op_ratio", "ratio"),
    // simdes
    ("simdes.events", "count"),
    ("simdes.events_per_op", "ratio"),
    ("simdes.host_ns_per_event", "ns"),
    ("simdes.sched_ns", "ns"),
    // traces / workload
    ("traces.gen_s", "s"),
    ("workload.arrivals_s", "s"),
    // ecfs::cluster
    ("cluster.new_s", "s"),
    ("setup.cold_s", "s"),
    ("oracle.check_host_s", "s"),
    // ecfs::replay
    ("replay.update_host_s", "s"),
    ("replay.drain_host_s", "s"),
    // ecfs::methods, simulated stage rollup
    ("stage.update.queue_wait.mean_us", "us"),
    ("stage.update.queue_wait.share", "ratio"),
    ("stage.update.net_send.mean_us", "us"),
    ("stage.update.net_send.share", "ratio"),
    ("stage.update.disk_io.mean_us", "us"),
    ("stage.update.disk_io.share", "ratio"),
    ("stage.update.log_append.mean_us", "us"),
    ("stage.update.log_append.share", "ratio"),
    ("stage.update.parity_io.mean_us", "us"),
    ("stage.update.parity_io.share", "ratio"),
    ("stage.update.ack.mean_us", "us"),
    ("stage.update.ack.share", "ratio"),
    ("stage.bg.recycle.total_ms", "ms"),
    ("stage.bg.repair.total_ms", "ms"),
    ("stage.bg.stage_flush.total_ms", "ms"),
    ("stage.read.cache_hit.count", "count"),
    // tsue logs (Ghost payloads)
    ("tsue.log_memory_bytes", "B"),
    ("tsue.stalls", "count"),
    ("tsue.data_residency_us", "us"),
    ("tsue.delta_residency_us", "us"),
    ("tsue.parity_residency_us", "us"),
    ("tsue.index_insert_ns", "ns"),
    ("tsue.pool_append_ns", "ns"),
    // simdisk
    ("simdisk.read_ops", "count"),
    ("simdisk.write_ops", "count"),
    ("simdisk.overwrite_ops", "count"),
    ("simdisk.random_write_ops", "count"),
    ("simdisk.gc_relocated_pages", "count"),
    ("simdisk.ftl_write_amp", "ratio"),
    ("simdisk.wear_max_bytes", "B"),
    ("simdisk.ssd_submit_ns", "ns"),
    // simnet
    ("simnet.msgs", "count"),
    ("simnet.gib", "GiB"),
    ("simnet.bytes_per_update", "B"),
    ("simnet.repair_gib", "GiB"),
    // ecfs::cache
    ("cache.lookups", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.staged_bytes", "B"),
    ("cache.coalesced_ratio", "ratio"),
    ("cache.stage_flushes", "count"),
    // ecfs::recovery
    ("recovery.mttr_s", "s"),
    ("recovery.degraded_reads", "count"),
    ("recovery.steady_p99_us", "us"),
    // ecfs::telemetry
    ("telemetry.overhead_ratio", "ratio"),
    ("telemetry.dropped_spans", "count"),
    ("telemetry.attribution_err", "ratio"),
    // gf256 / rscode
    ("gf256.mul_acc_gibps", "GiB/s"),
    ("gf256.xor_gibps", "GiB/s"),
    ("rscode.parity_delta_gibps", "GiB/s"),
    ("rscode.encode_gibps", "GiB/s"),
    // tsue::engine
    ("engine.front_s", "s"),
    ("engine.flush_s", "s"),
    ("engine.merge_ratio", "ratio"),
    ("engine.mib_per_s", "MiB/s"),
    // host
    ("host.calib_s", "s"),
];

/// A small deterministic generator (SplitMix64) for benchmark inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <ali-tsue-closed|ten-fo-wear|ten-open-degraded> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    let w = match args.workload.as_str() {
        "ali-tsue-closed" => SimWorkload::AliTsueClosed,
        "ten-fo-wear" => SimWorkload::TenFoWear,
        "ten-open-degraded" => SimWorkload::TenOpenDegraded,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let mut checks = Checks::default();
    let mut all = Metrics::default();
    let calib_start = report::calib_s();
    sim::run(w, args.seed, budget, args.trace, &mut checks, &mut all);
    all.set("host_peak_rss_mib", report::peak_rss_mib(), "MiB");
    if args.trace {
        kernels::run(w, args.seed, &mut all);
        if w == SimWorkload::AliTsueClosed {
            engine::run(args.seed, &mut checks, &mut all);
        }
    }
    all.set(
        "failed_op_ratio",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        "ratio",
    );
    all.set("host.calib_s", (calib_start + report::calib_s()) / 2.0, "s");

    let metrics = all.select(if args.trace { PER_LAYER } else { END_TO_END });
    for msg in &checks.broken {
        eprintln!("perfbench: check failed: {msg}");
    }
    println!("{}", report::result_json(&checks, &metrics));
    if !checks.broken.is_empty() || checks.failed > 0 {
        std::process::exit(1);
    }
}
