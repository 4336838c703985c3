//! Event-horizon fast-forward bit-exactness ladder.
//!
//! The skipping main loop (the default) must produce the *identical*
//! [`RunResult`] — every counter, histogram moment and latency statistic —
//! and the identical FNV-1a trace hash as the cycle-by-cycle reference
//! loop, for every scheduler in the audited ladder on the full irregular
//! suite. Fast-forwarding is a pure wall-clock optimisation; any divergence
//! here is a simulation-correctness bug, not a performance regression.

use ldsim::prelude::*;
use ldsim::system::runner::LADDER;
use ldsim::util::parallel_map;

/// Run one benchmark × scheduler pair at `scale` with fast-forward on and
/// off, and demand bit-exact results and traces. Histograms stay armed, so
/// every recorded distribution — including the sampled read-queue depth,
/// which the skip loop replays via bulk adds — must also match bucket for
/// bucket (`RunResult` equality covers `hists`).
fn assert_bitexact(bench: &str, kind: SchedulerKind, scale: Scale, seed: u64) {
    let kernel = benchmark(bench, scale, seed).generate();
    let cfg = SimConfig::default()
        .with_scheduler(kind)
        .with_trace()
        .with_hist();
    let (fast, fast_trace) = Simulator::new(cfg.clone(), &kernel).run_traced();
    let (slow, slow_trace) = Simulator::new(cfg.with_fast_forward(false), &kernel).run_traced();
    assert!(fast.finished, "{bench}/{kind:?} did not finish");
    assert_eq!(
        fast, slow,
        "{bench}/{kind:?} at {scale:?}: fast-forward RunResult diverged from the reference loop"
    );
    assert_eq!(
        fast_trace.as_ref().map(|t| t.stable_hash()),
        slow_trace.as_ref().map(|t| t.stable_hash()),
        "{bench}/{kind:?} at {scale:?}: trace hash diverged"
    );
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
fn bitexact_ladder_tiny() {
    parallel_map(ladder_pairs(), |(bench, kind)| {
        assert_bitexact(bench, kind, Scale::Tiny, 11);
    });
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "Small-scale ladder is slow without optimisation; run under --release"
)]
fn bitexact_ladder_small() {
    parallel_map(ladder_pairs(), |(bench, kind)| {
        assert_bitexact(bench, kind, Scale::Small, 11);
    });
}
