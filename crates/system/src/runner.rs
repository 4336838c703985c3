//! The experiment runner: one benchmark under one scheduler with the
//! paper's instruction budget and the runner's integrity checks
//! ([`run_one_kernel`]), the process-wide [`RunOpts`], and the benchmark
//! and scheduler lists the figures sweep. Grids of runs go through
//! [`crate::sweep::run_sweep`].

use crate::metrics::RunResult;
use crate::sim::Simulator;
use ldsim_types::config::{SchedulerKind, SimConfig};
use ldsim_types::kernel::KernelProgram;
use ldsim_workloads::Scale;
use std::sync::atomic::{AtomicU8, Ordering};

/// Process-wide options every [`run_one_kernel`] call applies — how the
/// bench binaries' `--audit` / `--trace` / `--hist` flags reach every run
/// of a sweep without each figure threading a config through.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunOpts {
    /// Attach the protocol conformance auditor to every channel; a run
    /// that ends with violations panics with the first few diagnoses.
    pub audit: bool,
    /// Record the event trace and publish its stable hash in the result.
    pub trace: bool,
    /// Arm the in-simulator distribution histograms (`RunResult::hists`).
    pub hist: bool,
}

impl RunOpts {
    fn to_bits(self) -> u8 {
        (self.audit as u8) | (self.trace as u8) << 1 | (self.hist as u8) << 2
    }

    fn from_bits(bits: u8) -> Self {
        Self {
            audit: bits & 1 != 0,
            trace: bits & 2 != 0,
            hist: bits & 4 != 0,
        }
    }
}

static RUN_OPTS: AtomicU8 = AtomicU8::new(0);

/// Set the process-wide run options. Last write wins and takes effect for
/// every *subsequent* run — callers (bench binaries, tests) may flip options
/// between runs. Runs already in flight keep the options they started with.
pub fn set_run_opts(opts: RunOpts) {
    RUN_OPTS.store(opts.to_bits(), Ordering::Relaxed);
}

/// The active process-wide run options (default: all off).
pub fn run_opts() -> RunOpts {
    RunOpts::from_bits(RUN_OPTS.load(Ordering::Relaxed))
}

/// Serialise tests that mutate the process-wide [`RunOpts`] — the unit
/// tests of this crate run concurrently in one process, so any test that
/// calls [`set_run_opts`] must hold this lock for its whole body.
#[cfg(test)]
pub(crate) fn test_opts_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run one benchmark's already-generated kernel under one scheduler, using
/// the paper's fixed instruction budget methodology (Section V): the run
/// stops at 70% of the kernel's total instructions (or completion), so
/// throughput — not the slowest warp's tail — is measured. Every scheduler
/// executes the same instruction budget on the same kernel, and the sweep
/// shares one generation per benchmark across scheduler cells. `tweak`
/// applies on top of the process-wide [`RunOpts`], so it can still
/// override them.
pub fn run_one_kernel(
    kernel: &KernelProgram,
    bench: &str,
    scale: Scale,
    seed: u64,
    kind: SchedulerKind,
    tweak: impl Fn(&mut SimConfig),
) -> RunResult {
    let opts = run_opts();
    let mut cfg = SimConfig::default().with_scheduler(kind);
    cfg.audit = opts.audit;
    cfg.trace = opts.trace;
    cfg.hist = opts.hist;
    cfg.instruction_limit = Some(kernel.total_instructions() * 7 / 10);
    tweak(&mut cfg);
    let audit_on = cfg.audit;
    let result = Simulator::new(cfg, kernel).run();
    if result.dropped_requests > 0 {
        panic!(
            "{} request(s) dropped at a crossbar \
             ({bench}/{kind:?}, scale {scale:?}, seed {seed}) — \
             injection overflow means results are silently corrupt",
            result.dropped_requests
        );
    }
    if audit_on && result.audit_violations > 0 {
        panic!(
            "DRAM protocol audit failed: {} violation(s) in {} commands \
             ({bench}/{kind:?}, scale {scale:?}, seed {seed})",
            result.audit_violations, result.audit_commands
        );
    }
    check_conservation(
        &result,
        kernel.total_instructions(),
        bench,
        scale,
        seed,
        kind,
    );
    result
}

/// Enforce read conservation (the invariant `RunResult::conserves_requests`
/// documents). A surplus of responses is corrupt in any run (duplication);
/// a deficit is corrupt only once every warp retired — a run cut off by the
/// instruction budget or cycle limit legitimately has reads still in
/// flight.
fn check_conservation(
    result: &RunResult,
    kernel_instructions: u64,
    bench: &str,
    scale: Scale,
    seed: u64,
    kind: SchedulerKind,
) {
    if result.mem_read_responses > result.mem_read_requests {
        panic!(
            "read conservation violated: {} responses for {} requests \
             (duplication) ({bench}/{kind:?}, scale {scale:?}, seed {seed})",
            result.mem_read_responses, result.mem_read_requests
        );
    }
    if result.finished && result.instructions == kernel_instructions && !result.conserves_requests()
    {
        panic!(
            "read conservation violated: {} responses for {} requests on a \
             fully drained run ({bench}/{kind:?}, scale {scale:?}, seed {seed})",
            result.mem_read_responses, result.mem_read_requests
        );
    }
}

/// The canonical scheduler ladders used by the figures.
pub const PAPER_SCHEDULERS: &[SchedulerKind] = &[
    SchedulerKind::Gmc,
    SchedulerKind::Wg,
    SchedulerKind::WgM,
    SchedulerKind::WgBw,
    SchedulerKind::WgW,
];

/// The audited ladder the bit-exactness suites and `ladderhash` run: every
/// scheduler the paper evaluates, plus the WAFCFS and SBWAS baselines it
/// compares against.
pub const LADDER: &[SchedulerKind] = &[
    SchedulerKind::Gmc,
    SchedulerKind::Wg,
    SchedulerKind::WgM,
    SchedulerKind::WgBw,
    SchedulerKind::WgW,
    SchedulerKind::Wafcfs,
    SchedulerKind::Sbwas { alpha_q: 2 },
];

/// The busy irregular benchmarks: the read-heavy kernels whose runs are
/// dominated by in-flight memory traffic rather than idle-cycle
/// fast-forwarding (nw finishes in milliseconds and is left out).
pub const BUSY: &[&str] = &["sp", "kmeans", "spmv", "sssp", "bfs"];

/// Names of the irregular benchmarks, in the paper's presentation order.
pub fn irregular_names() -> Vec<&'static str> {
    ldsim_workloads::IRREGULAR.iter().map(|p| p.name).collect()
}

/// Names of the regular (Section VI-A) benchmarks.
pub fn regular_names() -> Vec<&'static str> {
    ldsim_workloads::REGULAR.iter().map(|p| p.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldsim_workloads::benchmark;

    #[test]
    fn run_opts_bits_round_trip() {
        for bits in 0..8u8 {
            assert_eq!(RunOpts::from_bits(bits).to_bits(), bits);
        }
        assert_eq!(RunOpts::default().to_bits(), 0);
    }

    #[test]
    fn flipping_run_opts_between_runs_takes_effect() {
        // Regression: the old OnceLock store was first-call-wins, so a test
        // (or bench binary) arming trace after any earlier run silently kept
        // the stale options.
        let _guard = test_opts_lock();
        let kernel = benchmark("bfs", Scale::Tiny, 3).generate();
        set_run_opts(RunOpts {
            audit: false,
            trace: true,
            hist: false,
        });
        let a = run_one_kernel(&kernel, "bfs", Scale::Tiny, 3, SchedulerKind::Gmc, |_| {});
        assert!(a.trace_hash.is_some(), "first write must apply");
        assert!(a.hists.is_none());
        set_run_opts(RunOpts {
            audit: true,
            trace: false,
            hist: true,
        });
        assert_eq!(run_opts().to_bits(), 0b101);
        let b = run_one_kernel(&kernel, "bfs", Scale::Tiny, 3, SchedulerKind::Gmc, |_| {});
        assert!(b.trace_hash.is_none(), "flipping trace off must apply");
        assert!(b.hists.is_some(), "flipping hist on must apply");
        assert!(b.audit_commands > 0, "flipping audit on must apply");
        set_run_opts(RunOpts::default());
    }

    #[test]
    fn fully_drained_run_conserves_reads() {
        // Lift the instruction budget so the run drains completely; the
        // runner's conservation check must then demand exact equality (and
        // this run must satisfy it).
        let kernel = benchmark("spmv", Scale::Tiny, 5).generate();
        let r = run_one_kernel(&kernel, "spmv", Scale::Tiny, 5, SchedulerKind::Wg, |cfg| {
            cfg.instruction_limit = None;
        });
        assert!(r.finished);
        assert!(r.conserves_requests());
        assert!(r.mem_read_requests > 0);
    }

    #[test]
    #[should_panic(expected = "duplication")]
    fn duplicated_responses_panic_even_unfinished() {
        let r = RunResult {
            mem_read_requests: 10,
            mem_read_responses: 11,
            finished: false,
            ..Default::default()
        };
        check_conservation(&r, 1000, "bfs", Scale::Tiny, 7, SchedulerKind::Gmc);
    }

    #[test]
    #[should_panic(expected = "fully drained")]
    fn lost_responses_panic_on_drained_runs() {
        let r = RunResult {
            mem_read_requests: 10,
            mem_read_responses: 9,
            finished: true,
            instructions: 1000,
            ..Default::default()
        };
        check_conservation(&r, 1000, "bfs", Scale::Tiny, 7, SchedulerKind::Gmc);
    }

    #[test]
    fn budget_cut_run_may_have_reads_in_flight() {
        // A deficit on a run stopped by the instruction budget is legal.
        let r = RunResult {
            mem_read_requests: 10,
            mem_read_responses: 7,
            finished: true,
            instructions: 700,
            ..Default::default()
        };
        check_conservation(&r, 1000, "bfs", Scale::Tiny, 7, SchedulerKind::Gmc);
    }
}
