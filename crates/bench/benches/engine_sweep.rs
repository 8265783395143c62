//! Engine sweep: the simulation engine's own speed trajectory.
//!
//! Two parts:
//!
//! 1. **Micro** — schedule/pop throughput of the serial event loop, boxed
//!    closures vs the unboxed function-pointer path (`schedule_call`).
//!    This bounds every replay from below: no sweep can retire events
//!    faster than the bare scheduler.
//! 2. **Replay** — the `load_sweep` smoke cell (TSUE, open-loop Poisson
//!    arrivals) replayed once on the serial loop, reporting its event
//!    count and events per wall-clock second.
//!
//! Emits `BENCH_engine_sweep.json` with per-part rows and headline
//! findings (`micro_boxed_mevps`, `micro_unboxed_mevps`) for the
//! regression gate.

use ecfs::prelude::*;
use simdes::Sim;
use traces::TraceFamily;
use tsue_bench::{print_table, ssd_replay, BenchReport};

/// Events in the serial micro chains.
fn micro_events() -> u64 {
    if tsue_bench::smoke() {
        200_000
    } else {
        1_000_000
    }
}

/// One serial chain of `n` events; returns events/second retired.
///
/// `boxed` selects the heap-allocating closure path; otherwise the
/// unboxed `schedule_call` path.
fn micro_chain(boxed: bool, n: u64) -> f64 {
    let mut sim: Sim<u64> = Sim::new();
    let mut remaining = n;
    fn tick(sim: &mut Sim<u64>, remaining: &mut u64) {
        if *remaining > 0 {
            *remaining -= 1;
            sim.schedule_call(1, tick);
        }
    }
    fn tick_boxed(sim: &mut Sim<u64>, remaining: &mut u64) {
        if *remaining > 0 {
            *remaining -= 1;
            sim.schedule(1, tick_boxed);
        }
    }
    if boxed {
        sim.schedule(1, tick_boxed);
    } else {
        sim.schedule_call(1, tick);
    }
    let start = std::time::Instant::now();
    sim.run(&mut remaining);
    let secs = start.elapsed().as_secs_f64();
    sim.events_executed() as f64 / secs.max(1e-9)
}

/// The `load_sweep` smoke cell: TSUE, open-loop Poisson arrivals.
fn replay_cell() -> ReplayConfig {
    let mut r = ssd_replay(6, 3, MethodKind::Tsue, TraceFamily::AliCloud, 6);
    r.ops_per_client = if tsue_bench::smoke() { 100 } else { 400 };
    r.volume_bytes = 32 << 20;
    r.workload = Workload::Open(OpenLoopSpec::poisson(64_000.0).with_window(4));
    r
}

fn main() {
    let mut report = BenchReport::new("engine_sweep");
    let mut rows = Vec::new();

    // Part 1: serial schedule/pop micro-throughput.
    let n = micro_events();
    let boxed_evps = micro_chain(true, n);
    let unboxed_evps = micro_chain(false, n);
    for (label, evps) in [("boxed", boxed_evps), ("unboxed", unboxed_evps)] {
        report.add_row(vec![
            ("part", "micro".into()),
            ("variant", label.into()),
            ("events", n.into()),
            ("events_per_sec", evps.into()),
        ]);
        rows.push(vec![
            "micro".into(),
            label.into(),
            format!("{n}"),
            format!("{:.2}M/s", evps / 1e6),
        ]);
    }
    report.add_finding("micro_boxed_mevps", boxed_evps / 1e6);
    report.add_finding("micro_unboxed_mevps", unboxed_evps / 1e6);

    // Part 2: one serial replay of the load_sweep smoke cell.
    let res = Replay::run(&replay_cell()).result;
    report.add_row(vec![
        ("part", "replay".into()),
        ("events", res.sim_events.into()),
        ("wall_ms", res.wall_ms.into()),
        ("events_per_sec", res.events_per_sec.into()),
    ]);
    rows.push(vec![
        "replay".into(),
        "serial".into(),
        format!("{}", res.sim_events),
        format!("{:.0}k ev/s", res.events_per_sec / 1e3),
    ]);

    print_table(
        "Engine sweep: scheduler micro, serial replay",
        &["part", "config", "events", "rate"],
        &rows,
    );

    // Shape assertion: the unboxed path must not lose to boxed by more
    // than noise.
    assert!(
        unboxed_evps > boxed_evps * 0.9,
        "unboxed scheduling path regressed: {unboxed_evps:.0} vs boxed {boxed_evps:.0} ev/s"
    );

    report.write_and_announce();
}
