//! Threaded-vs-serial determinism ladder for the intra-run partition pool.
//!
//! The pool (DESIGN.md §17) stripes the memory partitions over worker
//! threads between deterministic epoch barriers at crossbar hand-off. It is
//! an execution strategy, not a model change, and so is the epoch window
//! length (DESIGN.md §18): every run must produce the *identical*
//! [`RunResult`] — every counter, histogram bucket, and audit tally — and
//! the identical FNV-1a trace hash as the reference cadence (serial,
//! `epoch_max = 1`: one-cycle windows, fast-forward off: every component
//! ticked every cycle), for every scheduler in the audited
//! ladder on the full irregular suite. Histograms and the timing auditor
//! stay armed: both observe per-partition event order, so they would catch
//! a reordered merge that the aggregate counters might mask.
//!
//! The same property is what licenses `sim_threads`' exemption from the
//! sweep cache's `config_fingerprint` — the cache tests at the bottom pin
//! the exemption itself.

use ldsim::prelude::*;
use ldsim::system::runner::LADDER;
use ldsim::system::shard::ShardMap;
use ldsim::system::sweep::{config_fingerprint, run_sweep, Cell, SweepConfig, DEFAULT_SHARDS};
use ldsim::util::parallel_map;

/// Thread counts under test: serial, a 2-wide pool (partitions split
/// between the caller and one worker), and a 6-wide pool (one worker per
/// partition — the widest the simulator will actually use).
const THREADS: &[usize] = &[1, 2, 6];

/// The reference cadence every other run is compared against: serial, one
/// cycle per epoch window, fast-forward off — every component ticks every
/// cycle, so the reference relies on no `next_event` report.
fn reference(cfg: &SimConfig, kernel: &KernelProgram) -> (RunResult, Option<u64>) {
    let reference = cfg
        .clone()
        .with_sim_threads(1)
        .with_epoch_max(1)
        .with_fast_forward(false);
    let (r, trace) = Simulator::new(reference, kernel).run_traced();
    (r, trace.map(|t| t.stable_hash()))
}

/// Run one benchmark × scheduler pair at `scale` across every thread count
/// and demand bit-exact results and traces against the reference cadence.
fn assert_threads_bitexact(bench: &str, kind: SchedulerKind, scale: Scale, seed: u64) {
    let kernel = benchmark(bench, scale, seed).generate();
    let cfg = SimConfig::default()
        .with_scheduler(kind)
        .with_audit()
        .with_trace()
        .with_hist();
    let (serial, serial_hash) = reference(&cfg, &kernel);
    assert!(serial.finished, "{bench}/{kind:?} did not finish");
    assert_eq!(serial.audit_violations, 0, "{bench}/{kind:?}: serial audit");
    for &threads in THREADS {
        let (threaded, threaded_trace) =
            Simulator::new(cfg.clone().with_sim_threads(threads), &kernel).run_traced();
        assert_eq!(
            threaded, serial,
            "{bench}/{kind:?} at {scale:?} with {threads} threads: RunResult diverged from the reference"
        );
        assert_eq!(
            threaded_trace.map(|t| t.stable_hash()),
            serial_hash,
            "{bench}/{kind:?} at {scale:?} with {threads} threads: trace hash diverged"
        );
    }
}

fn ladder_pairs() -> Vec<(&'static str, SchedulerKind)> {
    let mut pairs = Vec::new();
    for bench in ldsim::system::runner::irregular_names() {
        for &kind in LADDER {
            pairs.push((bench, kind));
        }
    }
    pairs
}

#[test]
fn threaded_ladder_tiny() {
    parallel_map(ladder_pairs(), |(bench, kind)| {
        assert_threads_bitexact(bench, kind, Scale::Tiny, 11);
    });
}

/// Small spot-check: the contention-heavy end, where partitions are busy
/// most cycles and any merge-order bug would have the most chances to
/// fire. One benchmark per step topology (WG-W coordinates, GMC does not).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "Small-scale runs are slow without optimisation; run under --release"
)]
fn threaded_spot_check_small() {
    parallel_map(
        vec![("sp", SchedulerKind::WgW), ("spmv", SchedulerKind::Gmc)],
        |(bench, kind)| {
            assert_threads_bitexact(bench, kind, Scale::Small, 11);
        },
    );
}

/// Every epoch cadence is the same simulation: the auto crossbar-lookahead
/// window (the default, what the ladder above runs), one-cycle windows
/// (`epoch_max = 1`) and an intermediate cap must all reproduce the
/// reference cadence bit for bit — same `RunResult`, same trace hash — at
/// every pool width.
#[test]
fn epoch_cadences_are_bit_exact_tiny() {
    parallel_map(
        vec![
            ("bfs", SchedulerKind::Gmc),
            ("spmv", SchedulerKind::WgW),
            ("sssp", SchedulerKind::WgBw),
        ],
        |(bench, kind)| {
            let kernel = benchmark(bench, Scale::Tiny, 11).generate();
            let cfg = SimConfig::default()
                .with_scheduler(kind)
                .with_audit()
                .with_trace()
                .with_hist();
            let (serial, serial_hash) = reference(&cfg, &kernel);
            assert!(serial.finished, "{bench}/{kind:?} did not finish");
            for &threads in THREADS {
                for cap in [0, 1, 4] {
                    let (run, trace) = Simulator::new(
                        cfg.clone().with_sim_threads(threads).with_epoch_max(cap),
                        &kernel,
                    )
                    .run_traced();
                    assert_eq!(
                        run, serial,
                        "{bench}/{kind:?} threads={threads} epoch_max={cap}: diverged"
                    );
                    assert_eq!(
                        trace.map(|t| t.stable_hash()),
                        serial_hash,
                        "{bench}/{kind:?} threads={threads} epoch_max={cap}: trace hash"
                    );
                }
            }
        },
    );
}

/// The point of the epochs, pinned end to end on a real workload: against
/// one-cycle windows (`epoch_max = 1`, one hand-off per stepped cycle), the
/// auto window must cut hand-offs by an order of magnitude for a
/// non-coordinating scheduler (40-cycle crossbar lookahead) and by at
/// least 2.5x for a coordinating one (whose window is clamped to the
/// 4-cycle coordination latency, so its ceiling is 4x).
#[test]
fn epoch_windows_reduce_barriers_on_real_workloads() {
    for (kind, factor) in [(SchedulerKind::Gmc, 10.0), (SchedulerKind::WgW, 2.5)] {
        let kernel = benchmark("bfs", Scale::Tiny, 11).generate();
        let cfg = SimConfig::default()
            .with_scheduler(kind)
            .with_sim_threads(2);
        let (r_epoch, epoch) = Simulator::new(cfg.clone(), &kernel).run_with_sync_stats();
        let (r_cycle, cycle) =
            Simulator::new(cfg.clone().with_epoch_max(1), &kernel).run_with_sync_stats();
        assert_eq!(r_epoch, r_cycle, "{kind:?}: cadences must agree exactly");
        assert!(
            epoch.epoch_cycles > epoch.windows,
            "{kind:?}: no multi-cycle window opened"
        );
        assert_eq!(
            cycle.windows, cycle.epoch_cycles,
            "{kind:?}: epoch_max=1 must run one-cycle windows"
        );
        let cut = cycle.windows as f64 / epoch.windows as f64;
        assert!(
            cut >= factor,
            "{kind:?}: expected a {factor}x hand-off cut, got {cut:.2}x ({} vs {})",
            cycle.windows,
            epoch.windows
        );
    }
}

/// `sim_threads` must not enter the cell fingerprint: it changes how a
/// cell is executed, not what it computes (the ladder above is the proof),
/// so a cached cell is valid at any thread count.
#[test]
fn sim_threads_is_fingerprint_exempt() {
    let base = config_fingerprint(&SimConfig::default());
    for threads in [1, 2, 6, 64] {
        assert_eq!(
            base,
            config_fingerprint(&SimConfig::default().with_sim_threads(threads)),
            "sim_threads={threads} must not change the config fingerprint"
        );
    }
    // The exemption is deliberate, not an accident of a `..` pattern: a
    // *semantic* knob still moves the fingerprint.
    assert_ne!(
        base,
        config_fingerprint(&SimConfig::default().with_fast_forward(false))
    );
}

/// `epoch_max` earns the same exemption for the same reason: the cadence
/// tests above prove every window length computes the identical cell, so a
/// cached result is valid under any epoch cap.
#[test]
fn epoch_max_is_fingerprint_exempt() {
    let base = config_fingerprint(&SimConfig::default());
    for cap in [0, 1, 4, 40] {
        assert_eq!(
            base,
            config_fingerprint(&SimConfig::default().with_epoch_max(cap)),
            "epoch_max={cap} must not change the config fingerprint"
        );
    }
}

/// End to end through the sweep: a cell simulated serially and reloaded
/// from the warm cache at a different thread count is the same cell —
/// same key, zero re-simulation, byte-exact cache shards.
#[test]
fn warm_cache_reload_ignores_thread_count() {
    let dir = std::env::temp_dir().join(format!("ldsim-threaded-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = dir.join("cellcache");
    let shard_bytes = || -> Vec<Vec<u8>> {
        ShardMap::open(&cache, DEFAULT_SHARDS)
            .shard_paths()
            .iter()
            .map(|p| std::fs::read(p).unwrap_or_default())
            .collect()
    };

    let cells = [
        Cell::new("bfs", Scale::Tiny, 11, SchedulerKind::Gmc),
        Cell::new("spmv", Scale::Tiny, 11, SchedulerKind::WgW),
    ];
    let cfg = SweepConfig {
        cache_path: Some(&cache),
        ..SweepConfig::default()
    };

    // Cold pass, serial (the process default).
    let (cold_store, cold) = run_sweep(&cells, &cfg);
    assert_eq!(cold.simulated, 2);
    let cache_bytes = shard_bytes();

    // Warm pass with the process-wide thread count forced to 6: every cell
    // must come from the cache (same key), the file must not change, and
    // the results must match the cold pass bit for bit.
    ldsim::util::set_sim_threads(Some(6));
    let (warm_store, warm) = run_sweep(&cells, &cfg);
    ldsim::util::set_sim_threads(None);
    assert_eq!(
        warm.from_cache, 2,
        "thread count must not change cell keys: {warm:?}"
    );
    assert_eq!(warm.simulated, 0);
    assert_eq!(
        shard_bytes(),
        cache_bytes,
        "warm reload must leave the cache byte-identical"
    );
    for cell in &cells {
        assert_eq!(
            cold_store.get(cell),
            warm_store.get(cell),
            "{cell:?}: warm reload diverged"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
