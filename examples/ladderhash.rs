//! Prints a stable digest line per (benchmark, machine) cell: trace hash,
//! cycles, instructions and the policy counters. Diffing this output across
//! two builds is the quickest way to check cross-build bit-exactness of the
//! simulator; `golden/ladderhash_{tiny,small,full}.txt` hold the committed
//! digests.
//!
//! * `tiny` / `small`: the irregular suite under the 7-scheduler ladder,
//!   WG-S (the only scheme that uses the shared-group tie-break) and Fig. 4's
//!   two ideal models (ZeroDivergence and GMC with perfect coalescing).
//! * `full`: the benchmark's busy_full simulations — sp, kmeans, spmv, sssp
//!   and bfs at Full under GMC and WG-W — where the WG-W pick spends most of
//!   its calls finding nothing schedulable.
//!
//! Every run uses seed 11 and the paper's 70 % instruction budget.
//!
//! Usage: `cargo run --release --example ladderhash [tiny|small|full]`

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

/// The busy, read-heavy irregular kernels the `full` mode digests.
const BUSY: &[&str] = &["sp", "kmeans", "spmv", "sssp", "bfs"];

/// A digested machine: label, scheduler, perfect coalescing.
type Machine = (String, SchedulerKind, bool);

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "tiny".into());
    let (scale, benches, machines): (Scale, Vec<&str>, Vec<Machine>) = match arg.as_str() {
        "full" => (
            Scale::Full,
            BUSY.to_vec(),
            [SchedulerKind::Gmc, SchedulerKind::WgW]
                .iter()
                .map(|&kind| (format!("{kind:?}"), kind, false))
                .collect(),
        ),
        _ => (
            if arg == "small" {
                Scale::Small
            } else {
                Scale::Tiny
            },
            ldsim::system::runner::irregular_names(),
            LADDER
                .iter()
                .chain([&SchedulerKind::WgShared])
                .map(|&kind| (format!("{kind:?}"), kind, false))
                .chain([
                    (
                        "ZeroDivergence".into(),
                        SchedulerKind::ZeroDivergence,
                        false,
                    ),
                    ("Gmc+PerfectCoalesce".into(), SchedulerKind::Gmc, true),
                ])
                .collect(),
        ),
    };
    for bench in benches {
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
