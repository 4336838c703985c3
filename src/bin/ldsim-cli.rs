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
use ldsim::workloads::{IRREGULAR, REGULAR};
use std::io::Write;

/// Named one-line error + usage + nonzero exit: a typo'd flag must say
/// which flag went wrong, not just dump the usage text.
fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: ldsim-cli [--list] --bench <name> [--scheduler <name>] \
         [--scale tiny|small|full] [--seed N] [--threads N] [--trace <csv-path>]"
    );
    let names: Vec<&str> = SchedulerKind::CLI_NAMES.iter().map(|(_, n)| n[0]).collect();
    eprintln!("schedulers: {}", names.join(" "));
    std::process::exit(2)
}

/// The value following flag `args[i]`, or a named failure.
fn value<'a>(args: &'a [String], i: usize, flag: &str) -> &'a str {
    match args.get(i + 1) {
        Some(v) => v.as_str(),
        None => fail(&format!("{flag} needs a value but none followed")),
    }
}

fn main() {
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
                bench = Some(value(&args, i, "--bench").to_string());
                i += 1;
            }
            "--scheduler" => {
                let v = value(&args, i, "--scheduler");
                sched = SchedulerKind::parse(v)
                    .unwrap_or_else(|| fail(&format!("--scheduler: unknown scheduler '{v}'")));
                i += 1;
            }
            "--scale" => {
                let v = value(&args, i, "--scale");
                scale = Scale::parse(v)
                    .unwrap_or_else(|| fail(&format!("--scale needs tiny|small|full, got '{v}'")));
                i += 1;
            }
            "--seed" => {
                let v = value(&args, i, "--seed");
                seed = v
                    .trim()
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("--seed needs a number, got '{v}'")));
                i += 1;
            }
            "--threads" => {
                let v = value(&args, i, "--threads");
                match v.trim().parse::<usize>() {
                    Ok(n) if n > 0 => ldsim::util::set_sim_threads(Some(n)),
                    _ => fail(&format!("--threads needs a positive integer, got '{v}'")),
                }
                i += 1;
            }
            "--trace" => {
                trace = Some(value(&args, i, "--trace").to_string());
                i += 1;
            }
            other => fail(&format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    let Some(bench) = bench else {
        fail("--bench is required (use --list to see the benchmark names)")
    };
    if !ldsim::workloads::is_benchmark(&bench) {
        fail(&format!(
            "--bench: unknown benchmark '{bench}' (use --list to see the names)"
        ));
    }

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

    if let Some(path) = trace {
        let mut f = std::fs::File::create(&path).expect("create trace file");
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
