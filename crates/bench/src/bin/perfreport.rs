//! Wall-clock performance report for the busy-cycle hot paths.
//!
//! Times full simulator runs (kernel generation excluded) of the busy —
//! i.e. not idle-dominated — irregular benchmarks under WG-W, the scheme
//! that exercises every pick path (bank-aware SJF scoring, the MERB gate,
//! the unit-group write pre-drain and the drain bypass), in two modes:
//!
//! * **indexed** — the default incremental-index pick paths plus the
//!   controller's bank-front ready table (DESIGN.md §13);
//! * **reference** — the original scan-based picks, kept behind
//!   `SimConfig::with_reference_picks(true)` for differential testing.
//!
//! Each row also times the intra-run partition pool (`sim_threads = 2`,
//! DESIGN.md §17) against a serial run of the same epoch loop on the
//! indexed build — `thread_speedup` > 1 means the pool wins on this host.
//! The pool is bit-exact with serial, so the rep-determinism assertion
//! doubles as a cross-thread-count determinism check. On single-core hosts
//! the threaded rows measure pure barrier overhead; the report records
//! `host_threads` and the measuring `commit` so a reader can tell which
//! regime and which build produced it.
//!
//! Both modes run on the *current* build, so their ratio isolates the
//! pick-path indexing alone.
//!
//! Each benchmark runs one untimed warm-up per mode, then `reps` timed
//! runs; the reported figure is the median, so one scheduling-noise
//! outlier cannot skew a row. Results go to `BENCH_perf.json` in the
//! working directory (single JSON document, not JSON lines — this file is
//! the perf trajectory artifact CI archives, not figure provenance).

use ldsim_bench::cli;
use ldsim_system::table::Table;
use ldsim_system::Simulator;
use ldsim_types::config::{SchedulerKind, SimConfig};
use ldsim_types::kernel::KernelProgram;
use ldsim_util::json::JsonObject;
use ldsim_workloads::{benchmark, Scale};
use std::io::Write;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Busy benchmarks: every irregular workload whose run is dominated by
/// in-flight memory traffic rather than idle-cycle fast-forwarding (nw is
/// excluded — it finishes in milliseconds and times pure noise).
const BUSY: &[&str] = &["sp", "kmeans", "spmv", "sssp", "bfs"];

/// Thread count for the timed threaded rows: 2 keeps the pool meaningful
/// on small CI hosts without oversubscribing them (the simulator caps at
/// the partition count anyway).
const TIMED_SIM_THREADS: usize = 2;

/// Deterministic epoch-window accounting for one (kernel, scheduler) at
/// the timed thread count — cycle and hand-off *counts*, not wall clock, so
/// the figures are identical on any host (1-core CI included) and CI can
/// gate on them. Each window is one hand-off (a pool barrier when
/// threaded).
struct SyncProfile {
    /// Hand-offs per thousand simulated cycles, auto epoch window.
    epoch_per_kcycle: f64,
    /// Same at the reference cadence (`epoch_max = 1`: one-cycle windows,
    /// one hand-off per stepped cycle).
    percycle_per_kcycle: f64,
    /// `percycle / epoch` hand-off ratio: the amortization factor.
    barrier_cut: f64,
    /// Mean epoch window length in cycles.
    mean_window: f64,
}

fn sync_profile(kernel: &KernelProgram, kind: SchedulerKind) -> SyncProfile {
    // Full runs, no instruction budget: barrier amortization is a property
    // of the epoch engine, and a budget legitimately clamps windows near
    // its edge (the budget lookahead must be conservative), which would
    // measure the budget, not the engine. The timed rows above keep their
    // budget — these two knobs answer different questions.
    let make_cfg = |cap| {
        SimConfig::default()
            .with_scheduler(kind)
            .with_sim_threads(TIMED_SIM_THREADS)
            .with_epoch_max(cap)
    };
    let (r_epoch, epoch) = Simulator::new(make_cfg(0), kernel).run_with_sync_stats();
    let (r_cycle, cycle) = Simulator::new(make_cfg(1), kernel).run_with_sync_stats();
    assert_eq!(
        r_epoch, r_cycle,
        "{kind:?}: epoch cadence changed the simulated work — must be bit-exact"
    );
    SyncProfile {
        epoch_per_kcycle: 1000.0 * epoch.windows as f64 / r_epoch.cycles as f64,
        percycle_per_kcycle: 1000.0 * cycle.windows as f64 / r_cycle.cycles as f64,
        barrier_cut: cycle.windows as f64 / epoch.windows as f64,
        mean_window: epoch.epoch_cycles as f64 / epoch.windows as f64,
    }
}

/// The commit this report measures (short hash, `-dirty` when the
/// working tree has uncommitted changes), or a note when the working
/// directory is not a git checkout.
fn commit() -> String {
    Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

/// Median of `reps` timed runs of one (kernel, mode, thread count), after
/// one warm-up. `cycles_pin`, when given, asserts every rep simulates the
/// exact same work — across reps *and* across thread counts.
fn time_runs(
    kernel: &KernelProgram,
    kind: SchedulerKind,
    reference: bool,
    sim_threads: usize,
    reps: usize,
    cycles_pin: Option<u64>,
) -> (f64, u64) {
    let make_cfg = || {
        let mut cfg = SimConfig::default()
            .with_scheduler(kind)
            .with_reference_picks(reference)
            .with_sim_threads(sim_threads);
        cfg.instruction_limit = Some(kernel.total_instructions() * 7 / 10);
        cfg
    };
    let warm = Simulator::new(make_cfg(), kernel).run();
    assert!(warm.finished, "warm-up run did not finish");
    if let Some(pin) = cycles_pin {
        assert_eq!(
            warm.cycles, pin,
            "sim_threads={sim_threads} changed the simulated work — the pool must be bit-exact"
        );
    }
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = Simulator::new(make_cfg(), kernel).run();
        samples.push(t0.elapsed().as_secs_f64());
        assert_eq!(
            r.cycles, warm.cycles,
            "nondeterministic rep — timing would compare different work"
        );
    }
    samples.sort_by(f64::total_cmp);
    (samples[samples.len() / 2], warm.cycles)
}

fn main() {
    let (scale, seed) = cli();
    let kind = SchedulerKind::WgW;
    // Tiny runs are short enough that more reps cost nothing and steady the
    // median; Small reps are ~0.1 s each, so keep CI wall-clock bounded.
    let reps = if scale == Scale::Tiny { 9 } else { 5 };

    let mut t = Table::new(&[
        "benchmark",
        "indexed s/rep",
        "reference s/rep",
        "pick speedup",
        "threaded s/rep",
        "thread speedup",
    ]);
    let mut sync_t = Table::new(&[
        "benchmark",
        "mean epoch (cyc)",
        "barriers/kcyc epoch",
        "barriers/kcyc W=1",
        "WG-W cut",
        "GMC cut",
    ]);
    let host_threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut rows = Vec::new();
    for &bench in BUSY {
        let kernel = benchmark(bench, scale, seed).generate();
        let (indexed_s, cycles) = time_runs(&kernel, kind, false, 1, reps, None);
        let (reference_s, _) = time_runs(&kernel, kind, true, 1, reps, None);
        let (threaded_s, _) =
            time_runs(&kernel, kind, false, TIMED_SIM_THREADS, reps, Some(cycles));
        let pick_speedup = reference_s / indexed_s;
        let thread_speedup = indexed_s / threaded_s;
        t.row(vec![
            bench.to_string(),
            format!("{indexed_s:.4}"),
            format!("{reference_s:.4}"),
            format!("{pick_speedup:.2}x"),
            format!("{threaded_s:.4}"),
            format!("{thread_speedup:.2}x"),
        ]);
        // Barrier amortization (DESIGN.md §18), reported for both window
        // bounds: the coordinating WG-W (window clamped to the 4-cycle
        // coordination latency, so its ceiling is 4x) and the
        // non-coordinating GMC (full crossbar lookahead — the headline
        // ≥10x figure CI gates on).
        let wgw_sync = sync_profile(&kernel, kind);
        let gmc_sync = sync_profile(&kernel, SchedulerKind::Gmc);
        sync_t.row(vec![
            bench.to_string(),
            format!("{:.1}", wgw_sync.mean_window),
            format!("{:.1}", wgw_sync.epoch_per_kcycle),
            format!("{:.1}", wgw_sync.percycle_per_kcycle),
            format!("{:.2}x", wgw_sync.barrier_cut),
            format!("{:.2}x", gmc_sync.barrier_cut),
        ]);
        let mut row = JsonObject::new();
        row.str("benchmark", bench)
            .f64("indexed_s", indexed_s)
            .f64("reference_s", reference_s)
            .f64("pick_speedup", pick_speedup)
            .u64("sim_threads", TIMED_SIM_THREADS as u64)
            .f64("threaded_s", threaded_s)
            .f64("thread_speedup", thread_speedup)
            .f64("mean_epoch_cycles", wgw_sync.mean_window)
            .f64("barriers_per_kcycle_epoch", wgw_sync.epoch_per_kcycle)
            .f64("barriers_per_kcycle_percycle", wgw_sync.percycle_per_kcycle)
            .f64("barrier_cut", wgw_sync.barrier_cut)
            .f64("gmc_barrier_cut", gmc_sync.barrier_cut);
        rows.push(row.build());
    }

    println!("perfreport — busy-benchmark wall clock, indexed vs reference picks ({kind:?})\n");
    t.print();
    println!(
        "\npick speedup = reference/indexed on this build; thread speedup = \
         serial / {TIMED_SIM_THREADS}-thread partition pool (host has {host_threads} \
         core(s))."
    );

    println!("\nepoch barrier amortization — {TIMED_SIM_THREADS}-thread pool, auto window vs W=1 cadence\n");
    sync_t.print();
    println!(
        "\ncut = W=1 barriers / epoch barriers (deterministic counts, \
         host-independent); WG-W columns use the WG-W run above, GMC cut is \
         the non-coordinating headline CI gates on (DESIGN.md §18)."
    );

    // A git description or the fixed fallback note: neither needs JSON
    // escaping.
    let doc = format!(
        "{{\"report\":\"perfreport\",\"scale\":\"{scale:?}\",\"seed\":{seed},\
         \"scheduler\":\"{kind:?}\",\"reps\":{reps},\"host_threads\":{host_threads},\
         \"commit\":\"{}\",\"rows\":[{}]}}",
        commit(),
        rows.join(",")
    );
    let path = "BENCH_perf.json";
    let mut f = std::fs::File::create(path).unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
    writeln!(f, "{doc}").unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path}");
}
