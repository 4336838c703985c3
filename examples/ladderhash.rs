//! Prints a stable digest line per (benchmark, machine) cell of the
//! irregular suite: trace hash, cycles, instructions and the policy
//! counters. The machines are the 7-scheduler ladder plus Fig. 4's two
//! ideal models (ZeroDivergence and GMC with perfect coalescing). Diffing
//! this output across two builds is the quickest way to check cross-build
//! bit-exactness of the simulator; `golden/ladderhash_{tiny,small}.txt`
//! hold the committed digests.
//!
//! Usage: `cargo run --release --example ladderhash [tiny|small]`

use ldsim::prelude::*;

const LADDER: &[SchedulerKind] = &[
    SchedulerKind::Gmc,
    SchedulerKind::Wg,
    SchedulerKind::WgM,
    SchedulerKind::WgBw,
    SchedulerKind::WgW,
    SchedulerKind::Wafcfs,
    SchedulerKind::Sbwas { alpha_q: 2 },
];

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "tiny".into());
    let scale = match arg.as_str() {
        "small" => Scale::Small,
        _ => Scale::Tiny,
    };
    let machines: Vec<(String, SchedulerKind, bool)> = LADDER
        .iter()
        .map(|&kind| (format!("{kind:?}"), kind, false))
        .chain([
            (
                "ZeroDivergence".into(),
                SchedulerKind::ZeroDivergence,
                false,
            ),
            ("Gmc+PerfectCoalesce".into(), SchedulerKind::Gmc, true),
        ])
        .collect();
    for bench in ldsim::system::runner::irregular_names() {
        let kernel = benchmark(bench, scale, 11).generate();
        for (label, kind, perfect) in &machines {
            let mut cfg = SimConfig::default()
                .with_scheduler(*kind)
                .with_trace()
                .with_hist();
            cfg.perfect_coalescing = *perfect;
            cfg.instruction_limit = Some(kernel.total_instructions() * 7 / 10);
            let (r, trace) = Simulator::new(cfg, &kernel).run_traced();
            println!(
                "{bench} {label} hash={:016x} cycles={} insns={} counters={:?} \
                 reads={}/{} gap_p99={}",
                trace.map(|t| t.stable_hash()).unwrap_or(0),
                r.cycles,
                r.instructions,
                r.policy_counters,
                r.mem_read_responses,
                r.mem_read_requests,
                r.gap_p99,
            );
        }
    }
}
