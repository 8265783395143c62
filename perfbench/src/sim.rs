//! The three simulated-cluster workloads: their configurations, the
//! untraced end-to-end passes, and the traced pass that attributes host
//! and simulated time to the layers from outside.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use ecfs::methods;
use ecfs::prelude::*;
use simdes::Sim;
use traces::OpKind;

use crate::passes::{self, PassRecord, Run};
use crate::report::{Checks, Metrics};

/// The simulated workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    /// Fig. 5 headline cell: TSUE, RS(6,3), 64 closed-loop clients,
    /// Ali-Cloud mix on the 2 GiB SSD testbed.
    AliTsueClosed,
    /// FO, RS(6,4), Ten-Cloud mix, on SSDs small enough that the FTL
    /// garbage-collects.
    TenFoWear,
    /// Open-loop Poisson below the knee over a staged, cached PL cluster,
    /// with one node failed and repaired mid-schedule.
    TenOpenDegraded,
}

/// Offered rate of `ten-open-degraded` (ops/s, all clients together).
const OPEN_RATE: f64 = 32_000.0;
/// Ops offered by `ten-open-degraded` per pass.
const OPEN_OPS: u64 = 160_000;
/// Node failed in `ten-open-degraded`.
const OPEN_VICTIM: usize = 5;

impl SimWorkload {
    /// The replay one pass runs, generated from `seed`.
    pub fn config(self, seed: u64) -> ReplayConfig {
        let rcfg = match self {
            SimWorkload::AliTsueClosed => {
                let mut cluster = ClusterConfig::ssd_testbed(code(6, 3), MethodKind::Tsue);
                cluster.clients = 64;
                ReplayConfig::builder(cluster, TraceFamily::AliCloud)
                    .ops_per_client(2_000)
                    .volume_bytes(128 << 20)
                    .seed(seed)
                    .build()
            }
            SimWorkload::TenFoWear => {
                let mut cluster = ClusterConfig::ssd_testbed(code(6, 4), MethodKind::Fo);
                cluster.clients = 16;
                cluster.fleet = DiskFleet::uniform(DiskKind::Ssd(SsdConfig {
                    capacity: 176 << 20,
                    ..SsdConfig::default()
                }));
                ReplayConfig::builder(cluster, TraceFamily::TenCloud)
                    .ops_per_client(8_000)
                    .volume_bytes(96 << 20)
                    .seed(seed)
                    .build()
            }
            SimWorkload::TenOpenDegraded => {
                let cluster = ClusterConfig::builder()
                    .code(code(6, 3))
                    .method_name("stage(8MiB,2ms)+lru(16MiB)+PL")
                    .clients(16)
                    .build()
                    .expect("valid open-loop cluster");
                let horizon_ns = (OPEN_OPS as f64 / OPEN_RATE * 1e9) as u64;
                let faults = FaultPlan::new().fail_node(horizon_ns / 4, OPEN_VICTIM);
                ReplayConfig::builder(cluster, TraceFamily::TenCloud)
                    .workload(Workload::Open(
                        OpenLoopSpec::poisson(OPEN_RATE).with_window(4),
                    ))
                    .total_ops(OPEN_OPS)
                    .volume_bytes(32 << 20)
                    .faults(faults)
                    .seed(seed)
                    .build()
            }
        };
        rcfg.expect("benchmark replay configuration validates")
    }

    /// Ops one pass attempts.
    pub fn ops(self, rcfg: &ReplayConfig) -> u64 {
        match self {
            SimWorkload::TenOpenDegraded => OPEN_OPS,
            _ => rcfg.cluster.clients * rcfg.ops_per_client as u64,
        }
    }
}

fn code(k: usize, m: usize) -> CodeParams {
    CodeParams::new(k, m).expect("valid RS shape")
}

/// A hash of the simulated outcome of one pass, bit for bit: every pass
/// of a run must reproduce the first one exactly.
fn fingerprint(r: &RunResult) -> u64 {
    let d = &r.disk;
    let fields = [
        r.completed_updates,
        r.completed_reads,
        r.completed_writes,
        r.duration_s.to_bits(),
        r.update_iops.to_bits(),
        r.latency_mean_us.to_bits(),
        r.latency_p99_us.to_bits(),
        r.read_p99_us.to_bits(),
        r.queue_delay_p99_us.to_bits(),
        r.degraded_p99_us.to_bits(),
        r.goodput_ops_per_s.to_bits(),
        r.drain_s.to_bits(),
        r.erases,
        d.reads.bytes,
        d.writes.bytes,
        d.overwrites.bytes,
        d.gc_relocated_pages,
        r.net_msgs,
        r.net_gib.to_bits(),
        r.net_repair_gib.to_bits(),
        r.log_memory_bytes,
        r.stalls,
        r.cache_lookups,
        r.cache_hits,
        r.staged_bytes,
        r.coalesced_bytes,
        r.repaired_bytes,
        r.mttr_s.to_bits(),
        r.sim_events,
        r.oracle_violations as u64,
        r.failed_ops,
    ];
    // The default hasher's keys are fixed, so the hash is the same in every
    // process.
    let mut h = DefaultHasher::new();
    fields.hash(&mut h);
    h.finish()
}

/// The untraced passes, each checked, with its simulated outcome hashed
/// so that every pass can be compared with the first.
pub fn run(
    w: SimWorkload,
    seed: u64,
    budget: Duration,
    trace: bool,
    checks: &mut Checks,
    out: &mut Metrics,
) {
    let rcfg = w.config(seed);
    let ops = w.ops(&rcfg);
    let mut run = Run::default();
    let start = Instant::now();
    while passes::more(run.passes.len(), start, budget) {
        let t = Instant::now();
        let r = Replay::run(&rcfg).result;
        let wall_s = t.elapsed().as_secs_f64();
        checks.attempted += ops;
        checks.failed += r.failed_ops + r.oracle_violations as u64;
        checks.require(r.oracle_violations == 0, || {
            format!("{} oracle violations", r.oracle_violations)
        });
        if run.passes.is_empty() {
            liveness(w, &r, checks);
            out.set("update_iops", r.update_iops, "1/s");
            out.set("update_mean_us", r.latency_mean_us, "us");
            out.set("goodput_ops_per_s", r.goodput_ops_per_s, "1/s");
        }
        run.passes.push(PassRecord {
            fp: fingerprint(&r),
            wall_s,
            setup_s: r.setup_ms / 1e3,
            ..PassRecord::default()
        });
    }
    run.check_identical(checks);

    let host_wall_s = run.median(|p| p.wall_s);
    out.set("host_wall_s", host_wall_s, "s");
    out.set("setup_s", run.median(|p| p.setup_s), "s");
    out.set("setup.cold_s", run.cold_setup_s(), "s");
    if trace {
        decomposed(w, &rcfg, checks, out);
        let r = traced(w, &rcfg, run.fp(), host_wall_s, checks, out);
        simulated_layers(&r, ops, host_wall_s, out);
    }
}

/// Layer-liveness checks: no layer a workload exists for goes unmeasured.
fn liveness(w: SimWorkload, r: &RunResult, checks: &mut Checks) {
    match w {
        SimWorkload::AliTsueClosed => {}
        SimWorkload::TenFoWear => {
            checks.require(r.erases > 0, || "ten-fo-wear made no flash erases".into());
            checks.require(r.disk.gc_relocated_pages > 0, || {
                "ten-fo-wear relocated no pages in GC".into()
            });
        }
        SimWorkload::TenOpenDegraded => {
            checks.require(r.cache_lookups > 0, || "no cache lookups".into());
            checks.require(r.staged_bytes > 0, || "nothing staged".into());
            checks.require(r.net_repair_gib > 0.0, || "no repair traffic".into());
            checks.require(!r.saturated, || "the open loop saturated".into());
        }
    }
}

/// Per-layer metrics read off a pass's result (tracing changes nothing
/// simulated, so the traced pass's result serves).
fn simulated_layers(r: &RunResult, ops: u64, host_wall_s: f64, out: &mut Metrics) {
    let d = &r.disk;
    out.set("update_p99_us", r.latency_p99_us, "us");
    out.set("read_p99_us", r.read_p99_us, "us");
    out.set("queue_delay_p99_us", r.queue_delay_p99_us, "us");
    out.set("degraded_p99_us", r.degraded_p99_us, "us");
    out.set("flash_erases", r.erases as f64, "count");
    out.set("drain_s", r.drain_s, "s");
    out.set("simdes.events", r.sim_events as f64, "count");
    out.set(
        "simdes.events_per_op",
        r.sim_events as f64 / ops as f64,
        "ratio",
    );
    out.set(
        "simdes.host_ns_per_event",
        host_wall_s * 1e9 / r.sim_events.max(1) as f64,
        "ns",
    );
    out.set("tsue.log_memory_bytes", r.log_memory_bytes as f64, "B");
    out.set("tsue.stalls", r.stalls as f64, "count");
    out.set("tsue.data_residency_us", r.data_residency.total_us(), "us");
    out.set(
        "tsue.delta_residency_us",
        r.delta_residency.total_us(),
        "us",
    );
    out.set(
        "tsue.parity_residency_us",
        r.parity_residency.total_us(),
        "us",
    );
    out.set("simdisk.read_ops", d.reads.ops as f64, "count");
    out.set("simdisk.write_ops", d.writes.ops as f64, "count");
    out.set("simdisk.overwrite_ops", d.overwrites.ops as f64, "count");
    out.set(
        "simdisk.random_write_ops",
        d.random_writes.ops as f64,
        "count",
    );
    out.set(
        "simdisk.gc_relocated_pages",
        d.gc_relocated_pages as f64,
        "count",
    );
    out.set(
        "simdisk.ftl_write_amp",
        d.write_amplification(4096),
        "ratio",
    );
    out.set("simdisk.wear_max_bytes", r.wear_max_bytes as f64, "B");
    out.set("simnet.msgs", r.net_msgs as f64, "count");
    out.set("simnet.gib", r.net_gib, "GiB");
    out.set(
        "simnet.bytes_per_update",
        r.net_gib * (1u64 << 30) as f64 / r.completed_updates.max(1) as f64,
        "B",
    );
    out.set("simnet.repair_gib", r.net_repair_gib, "GiB");
    out.set("cache.lookups", r.cache_lookups as f64, "count");
    out.set("cache.hit_ratio", r.cache_hit_ratio, "ratio");
    out.set("cache.staged_bytes", r.staged_bytes as f64, "B");
    out.set(
        "cache.coalesced_ratio",
        r.coalesced_bytes as f64 / r.staged_bytes.max(1) as f64,
        "ratio",
    );
    out.set("cache.stage_flushes", r.stage_flushes as f64, "count");
    out.set("recovery.mttr_s", r.mttr_s, "s");
    out.set("recovery.degraded_reads", r.degraded_reads as f64, "count");
    out.set("recovery.steady_p99_us", r.steady_p99_us, "us");
}

/// The replay re-run as its public steps, each timed from outside:
/// `Cluster::new`, the workload's op generation, `run_update_phase`, the
/// drain loop and the oracle check.
fn decomposed(w: SimWorkload, rcfg: &ReplayConfig, checks: &mut Checks, out: &mut Metrics) {
    let t = Instant::now();
    let cl = Cluster::new(rcfg.cluster.clone());
    out.set("cluster.new_s", t.elapsed().as_secs_f64(), "s");
    drop(cl);

    let params = WorkloadParams::for_family(rcfg.family, rcfg.volume_bytes);
    let t = Instant::now();
    let user_bytes: u64 = match &rcfg.workload {
        Workload::Open(spec) => {
            let source = spec.source(&params, rcfg.cluster.clients, w.ops(rcfg), rcfg.seed);
            let bytes = source
                .filter(|t| t.op.kind != OpKind::Read)
                .map(|t| t.op.len as u64)
                .sum();
            out.set("workload.arrivals_s", t.elapsed().as_secs_f64(), "s");
            bytes
        }
        _ => {
            let bytes = (0..rcfg.cluster.clients)
                .flat_map(|c| {
                    WorkloadGen::new(params.clone(), rcfg.seed + c).take_ops(rcfg.ops_per_client)
                })
                .filter(|op| op.kind != OpKind::Read)
                .map(|op| op.len as u64)
                .sum();
            out.set("traces.gen_s", t.elapsed().as_secs_f64(), "s");
            bytes
        }
    };

    let t = Instant::now();
    let (mut sim, mut cl): (Sim<Cluster>, Cluster) = run_update_phase(rcfg);
    let update_s = t.elapsed().as_secs_f64() - cl.metrics.setup_ms / 1e3;
    out.set("replay.update_host_s", update_s, "s");

    let t = Instant::now();
    let mut rounds = 0;
    loop {
        methods::drain(&mut sim, &mut cl);
        sim.run(&mut cl);
        rounds += 1;
        if methods::pending_log_bytes(&cl) == 0 || rounds >= 1000 {
            break;
        }
    }
    out.set("replay.drain_host_s", t.elapsed().as_secs_f64(), "s");
    checks.require(methods::pending_log_bytes(&cl) == 0, || {
        "the drain did not converge".into()
    });

    let t = Instant::now();
    let violations = cl.oracle.violations(&cl.layout).len();
    out.set("oracle.check_host_s", t.elapsed().as_secs_f64(), "s");
    checks.require(violations == 0, || {
        format!("{violations} oracle violations in the decomposed replay")
    });

    let written = cl.disk_stats().writes.bytes;
    out.set(
        "write_amp",
        written as f64 / user_bytes.max(1) as f64,
        "ratio",
    );
}

/// One replay with every op traced, for the simulated stage rollup, the
/// attribution check and the tracing overhead.
fn traced(
    w: SimWorkload,
    rcfg: &ReplayConfig,
    untraced: u64,
    host_wall_s: f64,
    checks: &mut Checks,
    out: &mut Metrics,
) -> RunResult {
    let mut rcfg = rcfg.clone();
    rcfg.trace = TraceConfig::on().with_capacity(w.ops(&rcfg) as usize * SPANS_PER_OP);
    let t = Instant::now();
    let RunOutcome { result: r, trace } = Replay::run(&rcfg);
    let wall = t.elapsed().as_secs_f64();
    let trace = trace.expect("a traced replay returns its trace");
    out.set("telemetry.overhead_ratio", wall / host_wall_s, "ratio");
    out.set(
        "telemetry.dropped_spans",
        r.trace_dropped_spans as f64,
        "count",
    );
    checks.require(r.trace_dropped_spans == 0, || {
        format!("the traced pass dropped {} spans", r.trace_dropped_spans)
    });
    checks.require(fingerprint(&r) == untraced, || {
        "tracing changed the simulated outcome".into()
    });

    // Attribution: per op, its stage spans against its latency, two
    // independently derived sums.
    let mut span_ns: HashMap<u64, u64> = HashMap::with_capacity(trace.ops.len());
    for s in trace
        .spans
        .iter()
        .filter(|s| s.class != OpClass::Background.id())
    {
        *span_ns.entry(s.op).or_default() += s.dur();
    }
    let spans: u64 = trace
        .ops
        .iter()
        .map(|o| span_ns.get(&o.op).copied().unwrap_or(0))
        .sum();
    let latency: u64 = trace.ops.iter().map(|o| o.latency).sum();
    out.set(
        "telemetry.attribution_err",
        (spans as f64 / latency.max(1) as f64 - 1.0).abs(),
        "ratio",
    );

    // The rollup, reconciled with the metrics path's mean latency.
    let rows = |class: OpClass| {
        r.stage_breakdown
            .iter()
            .filter(move |row| row.class == class)
    };
    let update_total: f64 = rows(OpClass::Update).map(|row| row.total_us).sum();
    let traced_updates = rows(OpClass::Update)
        .map(|row| row.count)
        .max()
        .unwrap_or(0);
    let rollup_mean = update_total / traced_updates.max(1) as f64;
    let recon_err = (rollup_mean - r.latency_mean_us).abs() / r.latency_mean_us.max(1e-9);
    checks.require(recon_err < 0.01, || {
        format!(
            "stage rollup mean {rollup_mean:.3} us is {:.2}% off latency_mean_us {:.3}",
            recon_err * 100.0,
            r.latency_mean_us
        )
    });
    for stage in [
        Stage::QueueWait,
        Stage::NetSend,
        Stage::DiskIo,
        Stage::LogAppend,
        Stage::ParityIo,
        Stage::Ack,
    ] {
        let row = rows(OpClass::Update).find(|row| row.stage == stage);
        let name = stage.name();
        out.set(
            &format!("stage.update.{name}.mean_us"),
            row.map_or(0.0, |row| row.mean_us),
            "us",
        );
        out.set(
            &format!("stage.update.{name}.share"),
            row.map_or(0.0, |row| row.total_us / update_total.max(1e-9)),
            "ratio",
        );
    }
    for stage in [Stage::Recycle, Stage::Repair, Stage::StageFlush] {
        let total_us: f64 = rows(OpClass::Background)
            .filter(|row| row.stage == stage)
            .map(|row| row.total_us)
            .sum();
        out.set(
            &format!("stage.bg.{}.total_ms", stage.name()),
            total_us / 1e3,
            "ms",
        );
    }
    let hits = rows(OpClass::Read)
        .find(|row| row.stage == Stage::CacheHit)
        .map_or(0, |row| row.count);
    out.set("stage.read.cache_hit.count", hits as f64, "count");

    if w == SimWorkload::AliTsueClosed {
        checks.require(
            out.get("stage.bg.recycle.total_ms").unwrap_or(0.0) > 0.0,
            || "ali-tsue-closed traced no recycle work".into(),
        );
    }
    r
}

/// Trace budget per offered op: enough that nothing drops.
const SPANS_PER_OP: usize = 16;
