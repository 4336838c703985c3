//! `ldsim-cli` — run any benchmark under any scheduler from the command
//! line and inspect the result (optionally exporting a per-load trace).
//!
//! ```console
//! $ ldsim-cli --bench spmv --scheduler wg-w --scale small
//! $ ldsim-cli --bench bfs --scheduler gmc --trace /tmp/bfs.csv
//! $ ldsim-cli --list
//! ```

use ldsim::prelude::*;
use ldsim::system::table::Table;
use ldsim::util::{cli_fail, cli_parse, cli_pos, cli_value};
use ldsim::workloads::{IRREGULAR, REGULAR};
use std::io::Write;

fn main() {
    let names: Vec<&str> = SchedulerKind::CLI_NAMES.iter().map(|(_, n)| n[0]).collect();
    let usage = &format!(
        "ldsim-cli [--list] --bench <name> [--scheduler <name>] \
         [--scale tiny|small|full] [--seed N] [--threads N] [--trace <csv-path>]\n\
         schedulers: {}",
        names.join(" ")
    );
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut bench = None;
    let mut sched = SchedulerKind::WgW;
    let mut scale = Scale::Small;
    let mut seed = 1u64;
    let mut trace: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--list" => {
                println!("irregular (Table III):");
                for p in IRREGULAR {
                    println!("  {:14} {}", p.name, p.suite);
                }
                println!("regular (Section VI-A):");
                for p in REGULAR {
                    println!("  {:14} {}", p.name, p.suite);
                }
                return;
            }
            "--bench" => {
                bench = Some(cli_value(&args, i, "--bench", usage).to_string());
                i += 1;
            }
            "--scheduler" => {
                let v = cli_value(&args, i, "--scheduler", usage);
                sched = SchedulerKind::parse(v).unwrap_or_else(|| {
                    cli_fail(usage, &format!("--scheduler: unknown scheduler '{v}'"))
                });
                i += 1;
            }
            "--scale" => {
                let v = cli_value(&args, i, "--scale", usage);
                scale = Scale::parse(v).unwrap_or_else(|| {
                    cli_fail(usage, &format!("--scale needs tiny|small|full, got '{v}'"))
                });
                i += 1;
            }
            "--seed" => {
                let v = cli_value(&args, i, "--seed", usage);
                seed = cli_parse(v, "--seed", "a number", usage);
                i += 1;
            }
            "--threads" => {
                let v = cli_value(&args, i, "--threads", usage);
                ldsim::util::set_sim_threads(Some(cli_pos(v, "--threads", usage)));
                i += 1;
            }
            "--trace" => {
                trace = Some(cli_value(&args, i, "--trace", usage).to_string());
                i += 1;
            }
            other => cli_fail(usage, &format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    let Some(bench) = bench else {
        cli_fail(
            usage,
            "--bench is required (use --list to see the benchmark names)",
        )
    };
    if !ldsim::workloads::is_benchmark(&bench) {
        cli_fail(
            usage,
            &format!("--bench: unknown benchmark '{bench}' (use --list to see the names)"),
        );
    }
    // Create the trace file before simulating, so a bad path fails at once.
    let trace = trace.map(|path| match std::fs::File::create(&path) {
        Ok(f) => (f, path),
        Err(e) => cli_fail(usage, &format!("--trace: cannot create '{path}': {e}")),
    });

    let kernel = benchmark(&bench, scale, seed).generate();
    let mut cfg = SimConfig::default().with_scheduler(sched);
    cfg.instruction_limit = Some(kernel.total_instructions() * 7 / 10);
    let (r, records) = Simulator::new(cfg, &kernel).run_with_records();

    let mut t = Table::new(&["metric", "value"]);
    t.row(vec!["benchmark".into(), r.benchmark.clone()]);
    t.row(vec!["scheduler".into(), r.scheduler.clone()]);
    t.row(vec!["cycles".into(), r.cycles.to_string()]);
    t.row(vec!["instructions".into(), r.instructions.to_string()]);
    t.row(vec!["IPC".into(), format!("{:.3}", r.ipc())]);
    t.row(vec!["loads".into(), r.loads.to_string()]);
    t.row(vec![
        "divergent loads".into(),
        format!("{:.1}%", r.divergent_frac() * 100.0),
    ]);
    t.row(vec![
        "requests / load".into(),
        format!("{:.2}", r.avg_reqs_per_load),
    ]);
    t.row(vec![
        "effective latency (cyc)".into(),
        format!("{:.0}", r.avg_effective_latency),
    ]);
    t.row(vec![
        "divergence gap (cyc)".into(),
        format!("{:.0}", r.avg_dram_gap),
    ]);
    t.row(vec![
        "controllers / warp".into(),
        format!("{:.2}", r.avg_channels_touched),
    ]);
    t.row(vec![
        "bus utilisation".into(),
        format!("{:.1}%", r.bw_utilization * 100.0),
    ]);
    t.row(vec![
        "row-hit rate".into(),
        format!("{:.1}%", r.row_hit_rate * 100.0),
    ]);
    t.row(vec![
        "write intensity".into(),
        format!("{:.1}%", r.write_intensity * 100.0),
    ]);
    t.row(vec![
        "DRAM power (W)".into(),
        format!("{:.1}", r.dram_power_w),
    ]);
    t.row(vec![
        "L1 / L2 hit rate".into(),
        format!(
            "{:.1}% / {:.1}%",
            r.l1_hit_rate * 100.0,
            r.l2_hit_rate * 100.0
        ),
    ]);
    t.print();

    if let Some((mut f, path)) = trace {
        writeln!(
            f,
            "sm,warp,lanes,coalesced,mem_reqs,dram_responses,issue,complete,first_dram,last_dram,channels,banks,same_row"
        )
        .unwrap();
        for rec in &records {
            writeln!(
                f,
                "{},{},{},{},{},{},{},{},{},{},{},{},{}",
                rec.warp.sm.0,
                rec.warp.warp.0,
                rec.active_lanes,
                rec.coalesced,
                rec.mem_reqs,
                rec.dram_responses,
                rec.issue,
                rec.complete,
                rec.first_dram,
                rec.last_dram,
                rec.channels_touched,
                rec.banks_touched,
                rec.same_row_reqs
            )
            .unwrap();
        }
        println!("\nwrote {} load records to {path}", records.len());
    }
}
