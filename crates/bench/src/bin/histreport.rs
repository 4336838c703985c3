//! `histreport` — distribution-grade latency observability.
//!
//! Runs the irregular suite across the paper's scheduler ladder with the
//! in-simulator histograms armed and prints percentile tables: per-load
//! DRAM service gap and effective load latency (p50/p90/p99 per cell), plus
//! every hardware distribution (bank queue depth at enqueue, row-hit streak
//! length, MERB occupancy, sampled read-queue depth) merged across the
//! suite per scheduler. Full bucket arrays land in
//! `results/histreport.hist.jsonl` via the shared dump path.

use ldsim_bench::figures::grid;
use ldsim_bench::{cli, dump_json_to};
use ldsim_system::runner::{irregular_names, PAPER_SCHEDULERS};
use ldsim_system::table::Table;
use ldsim_system::{run_opts, run_sweep, set_run_opts, Cell, RunHists, RunResult, SweepConfig};
use ldsim_types::config::SchedulerKind;
use std::path::Path;

fn main() {
    let (scale, seed) = cli();
    // Histograms are this binary's entire point: force-arm them on top of
    // whatever switches cli() already applied (the swappable run-opts store
    // makes this late write take effect).
    let mut opts = run_opts();
    opts.hist = true;
    set_run_opts(opts);

    let benches = irregular_names();
    let cells = grid(&benches, PAPER_SCHEDULERS, scale, seed);
    let (store, _) = run_sweep(&cells, &SweepConfig::default());
    let cell = |b, k: SchedulerKind| store.get(&Cell::new(b, scale, seed, k));

    let mut header = vec!["benchmark".to_string()];
    header.extend(PAPER_SCHEDULERS.iter().map(|k| format!("{k:?}")));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();

    for (title, pick) in [
        (
            "DRAM service gap (cycles, p50/p90/p99)",
            (|r| (r.gap_p50, r.gap_p90, r.gap_p99)) as fn(&RunResult) -> (u64, u64, u64),
        ),
        ("effective load latency (cycles, p50/p90/p99)", |r| {
            (r.eff_p50, r.eff_p90, r.eff_p99)
        }),
    ] {
        let mut t = Table::new(&header_refs);
        for &b in &benches {
            let mut row = vec![b.to_string()];
            for &k in PAPER_SCHEDULERS {
                let (p50, p90, p99) = pick(cell(b, k));
                row.push(format!("{p50}/{p90}/{p99}"));
            }
            t.row(row);
        }
        println!("histreport — {title}\n");
        t.print();
        println!();
    }

    // Hardware distributions, merged across the suite per scheduler.
    let mut merged: Vec<RunHists> = PAPER_SCHEDULERS.iter().map(|_| RunHists::new()).collect();
    for (i, &k) in PAPER_SCHEDULERS.iter().enumerate() {
        for &b in &benches {
            let hists = cell(b, k)
                .hists
                .as_deref()
                .expect("histreport arms histograms for every run");
            for ((_, dst), (_, src)) in merged[i]
                .iter_named_mut()
                .into_iter()
                .zip(hists.iter_named())
            {
                dst.merge(src);
            }
        }
    }
    let mut hw_header = vec!["distribution"];
    let sched_names: Vec<String> = PAPER_SCHEDULERS.iter().map(|k| format!("{k:?}")).collect();
    hw_header.extend(sched_names.iter().map(|s| s.as_str()));
    let mut t = Table::new(&hw_header);
    let names: Vec<&str> = merged[0].iter_named().iter().map(|(n, _)| *n).collect();
    for (hi, name) in names.iter().enumerate() {
        let mut row = vec![name.to_string()];
        for m in &merged {
            let h = m.iter_named()[hi].1;
            row.push(format!("{}/{}", h.quantile(0.5), h.quantile(0.99)));
        }
        t.row(row);
    }
    println!("histreport — hardware distributions, suite-merged (p50/p99)\n");
    t.print();

    dump_json_to(
        Path::new("results"),
        "histreport",
        scale,
        seed,
        &cells.iter().map(|c| store.get(c)).collect::<Vec<_>>(),
    );
}
