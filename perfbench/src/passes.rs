//! The untraced passes of a run and the statistics taken over them.

use std::time::{Duration, Instant};

use crate::report::{quantile, Checks};

/// Passes left out of every statistic. They fill the allocator's free
/// lists and caches (on the engine they pay page faults until glibc
/// raises its mmap threshold past the 1 MiB blocks); the very first one
/// is the cold set-up reported apart.
pub const WARMUP: usize = 2;

/// Whether another pass should run after `done` of them: at least
/// `WARMUP + 5` passes, then more until `budget` has gone by.
pub fn more(done: usize, start: Instant, budget: Duration) -> bool {
    done < WARMUP + 5 || start.elapsed() < budget
}

/// One untraced pass. Engine-only fields are 0 on the sim workloads.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassRecord {
    /// Hash of the pass's simulated outcome (0 for the engine).
    pub fp: u64,
    /// Host seconds of the pass.
    pub wall_s: f64,
    /// Host seconds of its set-up (0 for the engine).
    pub setup_s: f64,
    /// Engine: host seconds of the updates.
    pub front_s: f64,
    /// Engine: host seconds of `flush()`.
    pub flush_s: f64,
    /// Engine: acked updates per applied range.
    pub merge_ratio: f64,
}

/// Every untraced pass of a run, in order.
#[derive(Debug, Default)]
pub struct Run {
    /// The passes, in order.
    pub passes: Vec<PassRecord>,
}

impl Run {
    fn warm(&self, f: impl Fn(&PassRecord) -> f64) -> Vec<f64> {
        self.passes.iter().skip(WARMUP).map(f).collect()
    }

    /// Median of `f` over the warm passes. Host times use it too: a
    /// shared host runs in phases of seconds to minutes in which every
    /// pass, and even a pure ALU loop, is up to 1.7x slower, and across
    /// runs the median of a run spread no more than its mean and less
    /// than its lower quartile or its minimum.
    pub fn median(&self, f: impl Fn(&PassRecord) -> f64) -> f64 {
        quantile(&self.warm(f), 0.5)
    }

    /// Set-up of the first, cold pass.
    pub fn cold_setup_s(&self) -> f64 {
        self.passes.first().map_or(0.0, |p| p.setup_s)
    }

    /// The simulated-outcome hash of the first pass.
    pub fn fp(&self) -> u64 {
        self.passes.first().map_or(0, |p| p.fp)
    }

    /// Checks that every pass had the first pass's simulated outcome.
    pub fn check_identical(&self, checks: &mut Checks) {
        let fp = self.fp();
        let diverged = self.passes.iter().filter(|p| p.fp != fp).count();
        checks.require(diverged == 0, || {
            format!("{diverged} passes diverged from the first pass's simulated outcome")
        });
    }
}
