//! What one benchmark run is given and what it hands back.

use crate::catalog::Metrics;
use crate::stats;
use std::path::PathBuf;
use std::time::Instant;

/// Arguments of one run.
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured phase: a workload repeats its round of fixed
    /// work until this much time is used.
    pub seconds: f64,
    /// Shrink every round to a fraction of its size: a wiring check, not a
    /// measurement.
    pub smoke: bool,
    /// Per-layer run (spans on) instead of the end-to-end run.
    pub trace: bool,
    /// Where the traced run writes its raw spans, if anywhere.
    pub spans_out: Option<PathBuf>,
}

/// One validity or output check of a run.
pub struct Check {
    pub name: &'static str,
    pub pass: bool,
    pub detail: String,
    /// A failed hard check makes the run incorrect; a soft one (a timing
    /// sanity ratio on a noisy host) is reported and nothing more.
    pub hard: bool,
}

pub struct RunOutput {
    /// Requests (or kernel calls) attempted, over every arm and pass.
    pub attempted: u64,
    /// Those that stalled, ended without a clean typed finish or the
    /// requested token count, or failed their output check.
    pub failed: u64,
    pub checks: Vec<Check>,
    pub metrics: Metrics,
    /// Per-round values behind the run's figures; part of the record, not
    /// of the result.
    pub rounds: Vec<(&'static str, Vec<f64>)>,
    pub notes: Vec<String>,
}

impl RunOutput {
    pub fn new(trace: bool) -> Self {
        RunOutput {
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            metrics: Metrics::new(trace),
            rounds: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn check(&mut self, name: &'static str, pass: bool, hard: bool, detail: String) {
        self.checks.push(Check {
            name,
            pass,
            detail,
            hard,
        });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self.checks.iter().all(|c| c.pass || !c.hard)
            && self.metrics.in_order().iter().all(|m| m.2.is_finite())
    }
}

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 5;

/// Run `build` [`SETUP_REPS`] times (once in a smoke run) and return the
/// last product with every build's seconds. Set-up is reported as its own
/// metric (`setup_s`, the median) so work moved into it shows, and the
/// median of several keeps one slow page-in out of it.
pub fn timed_setup<T>(ctx: &Ctx, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let reps = if ctx.smoke { 1 } else { SETUP_REPS };
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        last = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one rep"), times)
}

/// Book a run's set-up: `setup_s` is the median repetition.
pub fn record_setup(out: &mut RunOutput, times: Vec<f64>) {
    if !out.metrics.is_trace() {
        out.metrics.set("setup_s", stats::median(&times));
    }
    out.rounds.push(("setup_s", times));
}
