//! Every paper figure/table as a data-declared [`FigureSpec`]: the
//! simulation grid as a list of [`Cell`]s plus a render closure that turns
//! shared-store results into the figure's stdout table and
//! `results/<figure>.jsonl` bytes.
//!
//! The `repro` binary is the one way to render them: it feeds the
//! [`registry`] (or the part [`select`] picks for `--only`) to
//! [`ldsim_system::run_sweep`] so shared cells (the irregular suite under
//! GMC appears in six figures) simulate exactly once, then renders every
//! figure from the one store. A render reads only its own cells, so one
//! figure rendered alone writes the same bytes as in the whole sweep —
//! pinned by the root `tests/repro.rs`.

use crate::{dump_json_to, speedup};
use ldsim_system::runner::{irregular_names, regular_names, PAPER_SCHEDULERS};
use ldsim_system::sweep::{Cell, CellStore, CfgTweak, FigureSpec};
use ldsim_system::table::{f2, f3, pct, Table};
use ldsim_system::RunResult;
use ldsim_types::config::{Preset, SchedulerKind};
use ldsim_types::stats::{geomean, mean};
use ldsim_workloads::Scale;

/// Every figure/table spec, in presentation order.
pub fn registry(scale: Scale, seed: u64) -> Vec<FigureSpec> {
    vec![
        fig02(scale, seed),
        fig03(scale, seed),
        fig04(scale, seed),
        fig05(),
        fig07(scale, seed),
        fig08(scale, seed),
        fig09(scale, seed),
        fig10(scale, seed),
        fig11(scale, seed),
        fig12(scale, seed),
        table1(),
        table2(),
        table3(),
        wafcfs(scale, seed),
        sbwas(scale, seed),
        parbs(scale, seed),
        extensions(scale, seed),
        regular(scale, seed),
        power(scale, seed),
        ablation(scale, seed),
        calibration(scale, seed),
        microbench(scale, seed),
        backends(scale, seed),
    ]
}

/// The registry narrowed to the figures named in `only` (all of it for
/// `None`), in registry order — the figure selection behind `repro
/// --only`. `Err` carries the first name the registry does not know.
pub fn select(scale: Scale, seed: u64, only: Option<&[String]>) -> Result<Vec<FigureSpec>, String> {
    let all = registry(scale, seed);
    let Some(names) = only else {
        return Ok(all);
    };
    if let Some(unknown) = names.iter().find(|n| !all.iter().any(|s| s.name == *n)) {
        return Err(unknown.clone());
    }
    Ok(all
        .into_iter()
        .filter(|s| names.iter().any(|n| n == s.name))
        .collect())
}

/// Bench-major × scheduler-minor cell grid — every grid figure's (and
/// `histreport`'s) dump order.
pub fn grid(names: &[&'static str], kinds: &[SchedulerKind], scale: Scale, seed: u64) -> Vec<Cell> {
    names
        .iter()
        .flat_map(|&b| kinds.iter().map(move |&k| Cell::new(b, scale, seed, k)))
        .collect()
}

/// Fetch a grid's results in declaration order, for dumping.
fn fetch<'s>(store: &'s CellStore, cells: &[Cell]) -> Vec<&'s RunResult> {
    cells.iter().map(|c| store.get(c)).collect()
}

fn fig02(scale: Scale, seed: u64) -> FigureSpec {
    let cells = grid(&irregular_names(), &[SchedulerKind::Gmc], scale, seed);
    FigureSpec {
        name: "fig02",
        cells: cells.clone(),
        render: Box::new(move |store, dir| {
            let mut t = Table::new(&["benchmark", "divergent loads", "reqs/load"]);
            let mut dfs = Vec::new();
            let mut rpls = Vec::new();
            for c in &cells {
                let r = store.get(c);
                dfs.push(r.divergent_frac());
                rpls.push(r.avg_reqs_per_load);
                t.row(vec![
                    c.bench.to_string(),
                    pct(r.divergent_frac()),
                    f2(r.avg_reqs_per_load),
                ]);
            }
            t.row(vec![
                "MEAN (paper: 56% / 5.9)".into(),
                pct(mean(&dfs)),
                f2(mean(&rpls)),
            ]);
            println!("Fig. 2 — coalescing efficiency (irregular suite, GMC baseline)\n");
            t.print();
            dump_json_to(dir, "fig02", scale, seed, &fetch(store, &cells));
        }),
    }
}

fn fig03(scale: Scale, seed: u64) -> FigureSpec {
    let cells = grid(&irregular_names(), &[SchedulerKind::Gmc], scale, seed);
    FigureSpec {
        name: "fig03",
        cells: cells.clone(),
        render: Box::new(move |store, dir| {
            let mut t = Table::new(&[
                "benchmark",
                "last/first",
                "controllers",
                "banks",
                "same-row",
            ]);
            let (mut ratios, mut chans, mut rows) = (Vec::new(), Vec::new(), Vec::new());
            for c in &cells {
                let r = store.get(c);
                ratios.push(r.last_first_ratio);
                chans.push(r.avg_channels_touched);
                rows.push(r.same_row_frac);
                t.row(vec![
                    c.bench.to_string(),
                    f2(r.last_first_ratio),
                    f2(r.avg_channels_touched),
                    f2(r.avg_banks_touched),
                    f2(r.same_row_frac),
                ]);
            }
            t.row(vec![
                "MEAN (paper: 1.6 / 2.5 / ~2 banks / 0.30)".into(),
                f2(mean(&ratios)),
                f2(mean(&chans)),
                "-".into(),
                f2(mean(&rows)),
            ]);
            println!("Fig. 3 — DRAM latency divergence under the GMC baseline\n");
            t.print();
            dump_json_to(dir, "fig03", scale, seed, &fetch(store, &cells));
        }),
    }
}

fn fig04(scale: Scale, seed: u64) -> FigureSpec {
    // Dump order is per-bench [base, perfect-coalescing, zero-divergence],
    // exactly the original `results.extend([base, pc, zd])`.
    let cells: Vec<Cell> = irregular_names()
        .iter()
        .flat_map(|&b| {
            [
                Cell::new(b, scale, seed, SchedulerKind::Gmc),
                Cell::new(b, scale, seed, SchedulerKind::Gmc)
                    .with_tweak(CfgTweak::PerfectCoalescing),
                Cell::new(b, scale, seed, SchedulerKind::ZeroDivergence),
            ]
        })
        .collect();
    FigureSpec {
        name: "fig04",
        cells: cells.clone(),
        render: Box::new(move |store, dir| {
            let mut t = Table::new(&["benchmark", "PerfectCoalescing", "ZeroDivergence"]);
            let (mut pcs, mut zds) = (Vec::new(), Vec::new());
            for trio in cells.chunks(3) {
                let b = trio[0].bench;
                let base = store.get(&trio[0]);
                let pc = store.get(&trio[1]);
                let zd = store.get(&trio[2]);
                let pcx = speedup(b, pc.ipc(), base.ipc());
                let zdx = speedup(b, zd.ipc(), base.ipc());
                pcs.push(pcx);
                zds.push(zdx);
                t.row(vec![b.to_string(), f2(pcx), f2(zdx)]);
            }
            t.row(vec![
                "GMEAN (paper: ~5x / 1.43x)".into(),
                f2(geomean(&pcs)),
                f2(geomean(&zds)),
            ]);
            println!("Fig. 4 — upper bounds: speedup over GMC\n");
            t.print();
            dump_json_to(dir, "fig04", scale, seed, &fetch(store, &cells));
        }),
    }
}

fn fig05() -> FigureSpec {
    FigureSpec {
        name: "fig05",
        cells: Vec::new(),
        render: Box::new(|_, _| {
            println!("Fig. 5 — average memory stall of two N-request warps\n");
            let mut t = Table::new(&["N", "interleaved (x NT)", "consecutive (x NT)", "saving"]);
            for n in [2u32, 4, 8, 16, 32] {
                let interleaved = 2.0 - 0.5 / n as f64; // ((2N-1) + 2N) / 2 / N
                let consecutive = 1.5;
                t.row(vec![
                    n.to_string(),
                    f2(interleaved),
                    f2(consecutive),
                    format!("{:.1}%", (1.0 - consecutive / interleaved) * 100.0),
                ]);
            }
            t.print();
            println!("\nWarp-aware scheduling approaches the consecutive bound by servicing");
            println!("one warp-group at a time (Section IV-A).");
        }),
    }
}

fn fig07(scale: Scale, seed: u64) -> FigureSpec {
    let benches = irregular_names();
    let mut kinds = PAPER_SCHEDULERS.to_vec();
    kinds.push(SchedulerKind::Wafcfs);
    kinds.push(SchedulerKind::FrFcfs);
    let cells = grid(&benches, &kinds, scale, seed);
    FigureSpec {
        name: "fig07",
        cells: cells.clone(),
        render: Box::new(move |store, dir| {
            let mut t = Table::new(&["scheduler", "avg divergence gap (cyc)", "bus utilisation"]);
            for k in &kinds {
                let gaps: Vec<f64> = cells
                    .iter()
                    .filter(|c| c.kind == *k)
                    .map(|c| store.get(c).avg_dram_gap)
                    .collect();
                let bws: Vec<f64> = cells
                    .iter()
                    .filter(|c| c.kind == *k)
                    .map(|c| store.get(c).bw_utilization)
                    .collect();
                t.row(vec![k.name().into(), f2(mean(&gaps)), pct(mean(&bws))]);
            }
            println!("Fig. 7 — latency divergence vs bandwidth (irregular suite means)\n");
            t.print();
            dump_json_to(dir, "fig07", scale, seed, &fetch(store, &cells));
        }),
    }
}

fn fig08(scale: Scale, seed: u64) -> FigureSpec {
    let benches = irregular_names();
    let cells = grid(&benches, PAPER_SCHEDULERS, scale, seed);
    FigureSpec {
        name: "fig08",
        cells: cells.clone(),
        render: Box::new(move |store, dir| {
            let mut t = Table::new(&["benchmark", "WG", "WG-M", "WG-Bw", "WG-W"]);
            let mut per_sched: Vec<Vec<f64>> = vec![Vec::new(); 4];
            for &b in &benches {
                let ipc = |k| store.get(&Cell::new(b, scale, seed, k)).ipc();
                let base = ipc(SchedulerKind::Gmc);
                let mut row = vec![b.to_string()];
                // PAPER_SCHEDULERS is GMC followed by the four WG variants.
                for (i, &k) in PAPER_SCHEDULERS[1..].iter().enumerate() {
                    let x = speedup(b, ipc(k), base);
                    per_sched[i].push(x);
                    row.push(f3(x));
                }
                t.row(row);
            }
            let mut gmean = vec!["GMEAN (paper: 1.034/1.062/1.084/1.101)".to_string()];
            gmean.extend(per_sched.iter().map(|xs| f3(geomean(xs))));
            t.row(gmean);
            println!("Fig. 8 — IPC normalised to GMC (irregular suite)\n");
            t.print();
            dump_json_to(dir, "fig08", scale, seed, &fetch(store, &cells));
        }),
    }
}

fn fig09(scale: Scale, seed: u64) -> FigureSpec {
    let benches = irregular_names();
    let cells = grid(&benches, PAPER_SCHEDULERS, scale, seed);
    FigureSpec {
        name: "fig09",
        cells: cells.clone(),
        render: Box::new(move |store, dir| {
            let mut t = Table::new(&["benchmark", "GMC", "WG", "WG-M", "WG-Bw", "WG-W"]);
            let mut sums: Vec<Vec<f64>> = vec![Vec::new(); 5];
            for &b in &benches {
                let mut row = vec![b.to_string()];
                for (i, k) in PAPER_SCHEDULERS.iter().enumerate() {
                    let v = store
                        .get(&Cell::new(b, scale, seed, *k))
                        .avg_effective_latency;
                    sums[i].push(v);
                    row.push(f2(v));
                }
                t.row(row);
            }
            let mut means = vec!["MEAN (cycles)".to_string()];
            means.extend(sums.iter().map(|xs| f2(mean(xs))));
            t.row(means);
            let base = mean(&sums[0]);
            println!("Fig. 9 — effective memory latency (cycles; paper: WG -9.1%, WG-M -16.9%)\n");
            t.print();
            println!();
            for (i, k) in PAPER_SCHEDULERS.iter().enumerate().skip(1) {
                println!(
                    "  {} vs GMC: {:+.1}%",
                    k.name(),
                    (mean(&sums[i]) / base - 1.0) * 100.0
                );
            }
            dump_json_to(dir, "fig09", scale, seed, &fetch(store, &cells));
        }),
    }
}

fn fig10(scale: Scale, seed: u64) -> FigureSpec {
    let benches = irregular_names();
    let cells = grid(&benches, PAPER_SCHEDULERS, scale, seed);
    FigureSpec {
        name: "fig10",
        cells: cells.clone(),
        render: Box::new(move |store, dir| {
            let mut t = Table::new(&["benchmark", "GMC", "WG", "WG-M", "WG-Bw", "WG-W", "ch/warp"]);
            let mut sums: Vec<Vec<f64>> = vec![Vec::new(); 5];
            for &b in &benches {
                let mut row = vec![b.to_string()];
                for (i, k) in PAPER_SCHEDULERS.iter().enumerate() {
                    let v = store.get(&Cell::new(b, scale, seed, *k)).avg_dram_gap;
                    sums[i].push(v);
                    row.push(f2(v));
                }
                row.push(f2(store
                    .get(&Cell::new(b, scale, seed, PAPER_SCHEDULERS[0]))
                    .avg_channels_touched));
                t.row(row);
            }
            let mut means = vec!["MEAN".to_string()];
            means.extend(sums.iter().map(|xs| f2(mean(xs))));
            means.push("-".into());
            t.row(means);
            println!("Fig. 10 — first-to-last DRAM service gap (cycles)\n");
            t.print();
            dump_json_to(dir, "fig10", scale, seed, &fetch(store, &cells));
        }),
    }
}

fn fig11(scale: Scale, seed: u64) -> FigureSpec {
    let benches = irregular_names();
    let cells = grid(&benches, PAPER_SCHEDULERS, scale, seed);
    FigureSpec {
        name: "fig11",
        cells: cells.clone(),
        render: Box::new(move |store, dir| {
            let mut t = Table::new(&["benchmark", "GMC", "WG", "WG-M", "WG-Bw", "WG-W"]);
            let mut sums: Vec<Vec<f64>> = vec![Vec::new(); 5];
            for &b in &benches {
                let mut row = vec![b.to_string()];
                for (i, k) in PAPER_SCHEDULERS.iter().enumerate() {
                    let v = store.get(&Cell::new(b, scale, seed, *k)).bw_utilization;
                    sums[i].push(v);
                    row.push(pct(v));
                }
                t.row(row);
            }
            let mut means = vec!["MEAN".to_string()];
            means.extend(sums.iter().map(|xs| pct(mean(xs))));
            t.row(means);
            println!("Fig. 11 — DRAM data-bus utilisation\n");
            t.print();
            dump_json_to(dir, "fig11", scale, seed, &fetch(store, &cells));
        }),
    }
}

fn fig12(scale: Scale, seed: u64) -> FigureSpec {
    let cells = grid(&irregular_names(), &[SchedulerKind::WgBw], scale, seed);
    FigureSpec {
        name: "fig12",
        cells: cells.clone(),
        render: Box::new(move |store, dir| {
            let mut t = Table::new(&[
                "benchmark",
                "write intensity",
                "stalled groups",
                "unit+orphan frac",
            ]);
            for c in &cells {
                let r = store.get(c);
                t.row(vec![
                    c.bench.to_string(),
                    pct(r.write_intensity),
                    r.drain_stalled_groups.to_string(),
                    pct(r.drain_unit_orphan_frac()),
                ]);
            }
            println!("Fig. 12 — write intensity and drain-stall composition (WG-Bw)\n");
            t.print();
            dump_json_to(dir, "fig12", scale, seed, &fetch(store, &cells));
        }),
    }
}

fn table1() -> FigureSpec {
    FigureSpec {
        name: "table1",
        cells: Vec::new(),
        render: Box::new(|_, _| {
            use ldsim_gddr5::merb::single_bank_utilization;
            use ldsim_gddr5::MerbTable;
            use ldsim_types::clock::ClockDomain;
            use ldsim_types::config::TimingParams;
            let timing = TimingParams::default();
            let merb = MerbTable::from_timing(&timing, ClockDomain::GDDR5, 16);
            let paper = [31u8, 20, 10, 7, 5, 5];
            let mut t = Table::new(&["banks with work", "MERB (ours)", "MERB (paper)"]);
            for b in 1..=16usize {
                let p = paper[(b - 1).min(5)];
                t.row(vec![
                    if b <= 5 {
                        b.to_string()
                    } else {
                        format!("{b} (6-16)")
                    },
                    merb.get(b).to_string(),
                    p.to_string(),
                ]);
                assert_eq!(merb.get(b), p, "Table I mismatch at b={b}");
            }
            println!("Table I — Minimum Efficient Row Burst for GDDR5\n");
            t.print();
            println!(
                "\nsingle-bank utilisation at the 31-burst cap: {} (paper: ~62%)",
                pct(single_bank_utilization(&timing, ClockDomain::GDDR5, 31))
            );
            println!("all 16 entries match the paper exactly.");
        }),
    }
}

fn table2() -> FigureSpec {
    FigureSpec {
        name: "table2",
        cells: Vec::new(),
        render: Box::new(|_, _| {
            use ldsim_types::config::SimConfig;
            let c = SimConfig::default();
            let t_cyc = c.mem.timing.in_cycles(c.clock);
            let mut t = Table::new(&["parameter", "value"]);
            let rows: Vec<(&str, String)> = vec![
                ("compute units (SMs)", c.gpu.num_sms.to_string()),
                ("warp size", c.gpu.warp_size.to_string()),
                (
                    "L1 / SM",
                    format!(
                        "{} KB, {}-way, {} B lines",
                        c.gpu.l1.size_bytes / 1024,
                        c.gpu.l1.ways,
                        c.gpu.l1.line_bytes
                    ),
                ),
                (
                    "L2 / partition",
                    format!(
                        "{} KB, {}-way, {} B lines",
                        c.gpu.l2_slice.size_bytes / 1024,
                        c.gpu.l2_slice.ways,
                        c.gpu.l2_slice.line_bytes
                    ),
                ),
                ("DRAM channels", c.mem.num_channels.to_string()),
                (
                    "banks/channel (groups)",
                    format!(
                        "{} ({} per group)",
                        c.mem.banks_per_channel, c.mem.banks_per_group
                    ),
                ),
                ("read queue / controller", c.mem.read_queue.to_string()),
                (
                    "write queue (hi/lo)",
                    format!(
                        "{} ({}/{})",
                        c.mem.write_queue, c.mem.write_hi, c.mem.write_lo
                    ),
                ),
                ("tCK", format!("{} ns", c.clock.tck_ns)),
                (
                    "tRC",
                    format!("{} ns ({} cyc)", c.mem.timing.t_rc_ns, t_cyc.t_rc),
                ),
                (
                    "tRCD",
                    format!("{} ns ({} cyc)", c.mem.timing.t_rcd_ns, t_cyc.t_rcd),
                ),
                (
                    "tRP",
                    format!("{} ns ({} cyc)", c.mem.timing.t_rp_ns, t_cyc.t_rp),
                ),
                (
                    "tCAS",
                    format!("{} ns ({} cyc)", c.mem.timing.t_cas_ns, t_cyc.t_cas),
                ),
                (
                    "tRAS",
                    format!("{} ns ({} cyc)", c.mem.timing.t_ras_ns, t_cyc.t_ras),
                ),
                (
                    "tRRD",
                    format!("{} ns ({} cyc)", c.mem.timing.t_rrd_ns, t_cyc.t_rrd),
                ),
                (
                    "tWTR",
                    format!("{} ns ({} cyc)", c.mem.timing.t_wtr_ns, t_cyc.t_wtr),
                ),
                (
                    "tFAW",
                    format!("{} ns ({} cyc)", c.mem.timing.t_faw_ns, t_cyc.t_faw),
                ),
                (
                    "tRTP",
                    format!("{} ns ({} cyc)", c.mem.timing.t_rtp_ns, t_cyc.t_rtp),
                ),
                (
                    "tWL / tBURST / tRTRS",
                    format!("{} / {} / {} tCK", t_cyc.t_wl, t_cyc.t_burst, t_cyc.t_rtrs),
                ),
                (
                    "tCCDL / tCCDS",
                    format!("{} / {} tCK", t_cyc.t_ccdl, t_cyc.t_ccds),
                ),
                (
                    "bursts per 128B access",
                    c.mem.bursts_per_access.to_string(),
                ),
            ];
            for (k, v) in rows {
                t.row(vec![k.into(), v]);
            }
            println!("Table II — simulation parameters (defaults)\n");
            t.print();
        }),
    }
}

fn table3() -> FigureSpec {
    FigureSpec {
        name: "table3",
        cells: Vec::new(),
        render: Box::new(|_, _| {
            use ldsim_workloads::{IRREGULAR, REGULAR};
            let mut t = Table::new(&[
                "benchmark",
                "suite",
                "class",
                "div frac",
                "clusters",
                "writes",
            ]);
            for p in IRREGULAR.iter().chain(REGULAR.iter()) {
                t.row(vec![
                    p.name.into(),
                    p.suite.into(),
                    if p.irregular {
                        "irregular".into()
                    } else {
                        "regular".into()
                    },
                    format!("{:.2}", p.divergent_frac),
                    format!("{:.1}", p.clusters_mean),
                    format!("{:.2}", p.write_frac),
                ]);
            }
            println!("Table III — modelled workloads (see DESIGN.md substitution #2)\n");
            t.print();
        }),
    }
}

fn wafcfs(scale: Scale, seed: u64) -> FigureSpec {
    let benches = irregular_names();
    let kinds = [SchedulerKind::Gmc, SchedulerKind::Wafcfs];
    let cells = grid(&benches, &kinds, scale, seed);
    FigureSpec {
        name: "wafcfs",
        cells: cells.clone(),
        render: Box::new(move |store, dir| {
            let mut t = Table::new(&[
                "benchmark",
                "WAFCFS / GMC",
                "hit rate GMC",
                "hit rate WAFCFS",
            ]);
            let mut xs = Vec::new();
            for &b in &benches {
                let base = store.get(&Cell::new(b, scale, seed, SchedulerKind::Gmc));
                let w = store.get(&Cell::new(b, scale, seed, SchedulerKind::Wafcfs));
                xs.push(speedup(b, w.ipc(), base.ipc()));
                t.row(vec![
                    b.to_string(),
                    f3(w.ipc() / base.ipc()),
                    pct(base.row_hit_rate),
                    pct(w.row_hit_rate),
                ]);
            }
            t.row(vec![
                "GMEAN (paper: 0.888)".into(),
                f3(geomean(&xs)),
                "-".into(),
                "-".into(),
            ]);
            println!("Section VI-C.2 — WAFCFS vs GMC\n");
            t.print();
            dump_json_to(dir, "wafcfs", scale, seed, &fetch(store, &cells));
        }),
    }
}

fn sbwas(scale: Scale, seed: u64) -> FigureSpec {
    let benches = irregular_names();
    let kinds = [
        SchedulerKind::Gmc,
        SchedulerKind::Sbwas { alpha_q: 1 },
        SchedulerKind::Sbwas { alpha_q: 2 },
        SchedulerKind::Sbwas { alpha_q: 3 },
        SchedulerKind::WgW,
    ];
    let cells = grid(&benches, &kinds, scale, seed);
    FigureSpec {
        name: "sbwas",
        cells: cells.clone(),
        render: Box::new(move |store, dir| {
            let mut t = Table::new(&["benchmark", "best alpha", "SBWAS/GMC", "WG-W/SBWAS"]);
            let (mut sb, mut wg) = (vec![], vec![]);
            for &b in &benches {
                let ipc = |k| store.get(&Cell::new(b, scale, seed, k)).ipc();
                let base = ipc(SchedulerKind::Gmc);
                let (mut best, mut best_a) = (0.0f64, 0u8);
                for a in 1..=3u8 {
                    let x = ipc(SchedulerKind::Sbwas { alpha_q: a });
                    if x > best {
                        best = x;
                        best_a = a;
                    }
                }
                let wgw = ipc(SchedulerKind::WgW);
                sb.push(speedup(b, best, base));
                wg.push(speedup(b, wgw, best));
                t.row(vec![
                    b.to_string(),
                    format!("0.{}", best_a as u32 * 25),
                    f3(best / base),
                    f3(wgw / best),
                ]);
            }
            t.row(vec![
                "GMEAN (paper: - / 1.025 / 1.073)".into(),
                "-".into(),
                f3(geomean(&sb)),
                f3(geomean(&wg)),
            ]);
            println!("Section VI-C.1 — SBWAS with profiled alpha vs GMC and WG-W\n");
            t.print();
            dump_json_to(dir, "sbwas", scale, seed, &fetch(store, &cells));
        }),
    }
}

fn parbs(scale: Scale, seed: u64) -> FigureSpec {
    let benches = irregular_names();
    let kinds = [SchedulerKind::Gmc, SchedulerKind::ParBs, SchedulerKind::WgW];
    let cells = grid(&benches, &kinds, scale, seed);
    FigureSpec {
        name: "parbs",
        cells: cells.clone(),
        render: Box::new(move |store, dir| {
            let mut t = Table::new(&[
                "benchmark",
                "PAR-BS / GMC",
                "WG-W / PAR-BS",
                "gap PAR-BS",
                "gap WG-W",
            ]);
            let (mut pb, mut wg) = (vec![], vec![]);
            for &b in &benches {
                let get = |k| store.get(&Cell::new(b, scale, seed, k));
                let base = get(SchedulerKind::Gmc).ipc();
                let (p, w) = (get(SchedulerKind::ParBs), get(SchedulerKind::WgW));
                pb.push(speedup(b, p.ipc(), base));
                wg.push(speedup(b, w.ipc(), p.ipc()));
                t.row(vec![
                    b.to_string(),
                    f3(p.ipc() / base),
                    f3(w.ipc() / p.ipc()),
                    f2(p.avg_dram_gap),
                    f2(w.avg_dram_gap),
                ]);
            }
            t.row(vec![
                "GMEAN".into(),
                f3(geomean(&pb)),
                f3(geomean(&wg)),
                "-".into(),
                "-".into(),
            ]);
            println!("Section VI-C.3 (extension) — PAR-BS vs GMC and WG-W\n");
            t.print();
            dump_json_to(dir, "parbs", scale, seed, &fetch(store, &cells));
        }),
    }
}

fn extensions(scale: Scale, seed: u64) -> FigureSpec {
    let benches = irregular_names();
    let kinds = [
        SchedulerKind::Gmc,
        SchedulerKind::AtlasLite,
        SchedulerKind::WgW,
        SchedulerKind::WgShared,
    ];
    let cells = grid(&benches, &kinds, scale, seed);
    FigureSpec {
        name: "extensions",
        cells: cells.clone(),
        render: Box::new(move |store, dir| {
            let mut t = Table::new(&["benchmark", "ATLAS/GMC", "WG-W/GMC", "WG-S/GMC"]);
            let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 3];
            for &b in &benches {
                let ipc = |k| store.get(&Cell::new(b, scale, seed, k)).ipc();
                let base = ipc(SchedulerKind::Gmc);
                let mut row = vec![b.to_string()];
                for (i, &k) in kinds[1..].iter().enumerate() {
                    let x = speedup(b, ipc(k), base);
                    cols[i].push(x);
                    row.push(f3(x));
                }
                t.row(row);
            }
            let mut gmean = vec!["GMEAN".to_string()];
            gmean.extend(cols.iter().map(|xs| f3(geomean(xs))));
            t.row(gmean);
            println!("Extensions — ATLAS-lite (VI-C.3) and WG-S (Section VIII future work)\n");
            t.print();
            dump_json_to(dir, "extensions", scale, seed, &fetch(store, &cells));
        }),
    }
}

fn regular(scale: Scale, seed: u64) -> FigureSpec {
    let benches = regular_names();
    let kinds = [SchedulerKind::Gmc, SchedulerKind::WgW];
    let cells = grid(&benches, &kinds, scale, seed);
    FigureSpec {
        name: "regular",
        cells: cells.clone(),
        render: Box::new(move |store, dir| {
            let mut t = Table::new(&["benchmark", "WG-W / GMC", "GMC bus util"]);
            let mut xs = Vec::new();
            for &b in &benches {
                let base = store.get(&Cell::new(b, scale, seed, SchedulerKind::Gmc));
                let wgw = store.get(&Cell::new(b, scale, seed, SchedulerKind::WgW));
                let x = speedup(b, wgw.ipc(), base.ipc());
                xs.push(x);
                t.row(vec![b.to_string(), f3(x), pct(base.bw_utilization)]);
            }
            t.row(vec![
                "GMEAN (paper: 1.018)".into(),
                f3(geomean(&xs)),
                "-".into(),
            ]);
            println!("Section VI-A — regular benchmarks: WG-W vs GMC\n");
            t.print();
            dump_json_to(dir, "regular", scale, seed, &fetch(store, &cells));
        }),
    }
}

fn power(scale: Scale, seed: u64) -> FigureSpec {
    let benches = irregular_names();
    let kinds = [SchedulerKind::Gmc, SchedulerKind::WgW];
    let cells = grid(&benches, &kinds, scale, seed);
    FigureSpec {
        name: "power",
        cells: cells.clone(),
        render: Box::new(move |store, dir| {
            let mut t = Table::new(&[
                "benchmark",
                "hit rate GMC",
                "hit rate WG-W",
                "power GMC (W)",
                "power WG-W (W)",
            ]);
            let (mut h0, mut h1, mut p0, mut p1) = (vec![], vec![], vec![], vec![]);
            for &b in &benches {
                let a = store.get(&Cell::new(b, scale, seed, SchedulerKind::Gmc));
                let w = store.get(&Cell::new(b, scale, seed, SchedulerKind::WgW));
                h0.push(a.row_hit_rate);
                h1.push(w.row_hit_rate);
                p0.push(a.dram_power_w);
                p1.push(w.dram_power_w);
                t.row(vec![
                    b.to_string(),
                    pct(a.row_hit_rate),
                    pct(w.row_hit_rate),
                    f2(a.dram_power_w),
                    f2(w.dram_power_w),
                ]);
            }
            println!("Section VI-B — row-hit rate and DRAM power, GMC vs WG-W\n");
            t.print();
            println!(
                "\nmean hit-rate change: {:+.1}% relative (paper: -16%)",
                (mean(&h1) / mean(&h0) - 1.0) * 100.0
            );
            println!(
                "mean power change:    {:+.1}% (paper: +1.8%)",
                (mean(&p1) / mean(&p0) - 1.0) * 100.0
            );
            dump_json_to(dir, "power", scale, seed, &fetch(store, &cells));
        }),
    }
}

fn ablation(scale: Scale, seed: u64) -> FigureSpec {
    // No JSONL dump (matching the original binary) — five printed tables.
    let bench = "sssp"; // multi-controller benchmark: most coordination-sensitive
    let mut cells = Vec::new();
    for lat in [1u64, 4, 16, 64, 256] {
        cells.push(
            Cell::new(bench, scale, seed, SchedulerKind::WgM)
                .with_tweak(CfgTweak::CoordLatency(lat)),
        );
    }
    for (hi, lo) in [(8usize, 4usize), (16, 8), (32, 16), (48, 24)] {
        cells.push(
            Cell::new("nw", scale, seed, SchedulerKind::WgW)
                .with_tweak(CfgTweak::WriteWatermarks { hi, lo }),
        );
    }
    cells.push(Cell::new(bench, scale, seed, SchedulerKind::Gmc));
    cells.push(Cell::new(bench, scale, seed, SchedulerKind::Gmc).with_tweak(CfgTweak::FlatCcd));
    cells.push(Cell::new("spmv", scale, seed, SchedulerKind::Gmc));
    cells.push(Cell::new("spmv", scale, seed, SchedulerKind::Gmc).with_tweak(CfgTweak::RefreshOff));
    cells.push(Cell::new("spmv", scale, seed, SchedulerKind::Gmc).with_tweak(CfgTweak::ClosedPage));
    for streak in [2usize, 8, 16, 64] {
        cells.push(
            Cell::new("spmv", scale, seed, SchedulerKind::Gmc)
                .with_tweak(CfgTweak::GmcMaxStreak(streak)),
        );
    }
    FigureSpec {
        name: "ablation",
        cells,
        render: Box::new(move |store, _| {
            println!("Ablation 1 — WG-M coordination latency ({bench})\n");
            let mut t = Table::new(&["coord latency (cyc)", "IPC", "divergence gap"]);
            for lat in [1u64, 4, 16, 64, 256] {
                let r = store.get(
                    &Cell::new(bench, scale, seed, SchedulerKind::WgM)
                        .with_tweak(CfgTweak::CoordLatency(lat)),
                );
                t.row(vec![lat.to_string(), f2(r.ipc()), f2(r.avg_dram_gap)]);
            }
            t.print();

            println!("\nAblation 2 — write-drain watermarks (nw, WG-W)\n");
            let mut t = Table::new(&["hi/lo", "IPC", "drains", "stalled groups"]);
            for (hi, lo) in [(8usize, 4usize), (16, 8), (32, 16), (48, 24)] {
                let r = store.get(
                    &Cell::new("nw", scale, seed, SchedulerKind::WgW)
                        .with_tweak(CfgTweak::WriteWatermarks { hi, lo }),
                );
                t.row(vec![
                    format!("{hi}/{lo}"),
                    f2(r.ipc()),
                    r.drains.to_string(),
                    r.drain_stalled_groups.to_string(),
                ]);
            }
            t.print();

            println!("\nAblation 3 — bank groups: GDDR5 tCCDS vs flat tCCDL ({bench}, GMC)\n");
            let mut t = Table::new(&["column spacing", "IPC", "bus util"]);
            let base = store.get(&Cell::new(bench, scale, seed, SchedulerKind::Gmc));
            t.row(vec![
                "tCCDL=3 / tCCDS=2 (bank groups)".into(),
                f2(base.ipc()),
                pct(base.bw_utilization),
            ]);
            let flat = store.get(
                &Cell::new(bench, scale, seed, SchedulerKind::Gmc).with_tweak(CfgTweak::FlatCcd),
            );
            t.row(vec![
                "flat tCCD=3 (no groups)".into(),
                f2(flat.ipc()),
                pct(flat.bw_utilization),
            ]);
            t.print();

            println!("\nAblation 4 — refresh and page policy (spmv, GMC)\n");
            let mut t = Table::new(&["configuration", "IPC", "row-hit rate", "bus util"]);
            let base = store.get(&Cell::new("spmv", scale, seed, SchedulerKind::Gmc));
            t.row(vec![
                "open page, refresh on (default)".into(),
                f2(base.ipc()),
                pct(base.row_hit_rate),
                pct(base.bw_utilization),
            ]);
            let norefresh = store.get(
                &Cell::new("spmv", scale, seed, SchedulerKind::Gmc)
                    .with_tweak(CfgTweak::RefreshOff),
            );
            t.row(vec![
                "open page, refresh off".into(),
                f2(norefresh.ipc()),
                pct(norefresh.row_hit_rate),
                pct(norefresh.bw_utilization),
            ]);
            let closed = store.get(
                &Cell::new("spmv", scale, seed, SchedulerKind::Gmc)
                    .with_tweak(CfgTweak::ClosedPage),
            );
            t.row(vec![
                "closed page (auto-precharge)".into(),
                f2(closed.ipc()),
                pct(closed.row_hit_rate),
                pct(closed.bw_utilization),
            ]);
            t.print();

            println!("\nAblation 5 — GMC row-hit streak cap (spmv)\n");
            let mut t = Table::new(&["max streak", "IPC", "row-hit rate", "divergence gap"]);
            for streak in [2usize, 8, 16, 64] {
                let r = store.get(
                    &Cell::new("spmv", scale, seed, SchedulerKind::Gmc)
                        .with_tweak(CfgTweak::GmcMaxStreak(streak)),
                );
                t.row(vec![
                    streak.to_string(),
                    f2(r.ipc()),
                    pct(r.row_hit_rate),
                    f2(r.avg_dram_gap),
                ]);
            }
            t.print();
        }),
    }
}

fn calibration(scale: Scale, seed: u64) -> FigureSpec {
    let cells = grid(&irregular_names(), &[SchedulerKind::Gmc], scale, seed);
    FigureSpec {
        name: "calibration",
        cells: cells.clone(),
        render: Box::new(move |store, _| {
            let mut t = Table::new(&["metric", "measured", "paper", "band", "ok"]);
            let (mut df, mut rpl, mut ch, mut sr, mut bk) =
                (vec![], vec![], vec![], vec![], vec![]);
            for c in &cells {
                let r = store.get(c);
                df.push(r.divergent_frac());
                rpl.push(r.avg_reqs_per_load);
                ch.push(r.avg_channels_touched);
                sr.push(r.same_row_frac);
                bk.push(r.avg_banks_touched);
            }
            let checks: Vec<(&str, f64, f64, (f64, f64))> = vec![
                ("divergent load fraction", mean(&df), 0.56, (0.40, 0.72)),
                ("requests per load", mean(&rpl), 5.9, (3.0, 8.0)),
                ("controllers per warp", mean(&ch), 2.5, (1.8, 3.3)),
                ("same-row fraction", mean(&sr), 0.30, (0.15, 0.45)),
                ("(ch,bank) pairs per warp", mean(&bk), 4.0, (2.0, 7.0)),
            ];
            let mut all_ok = true;
            for (name, got, paper, (lo, hi)) in checks {
                let ok = got >= lo && got <= hi;
                all_ok &= ok;
                t.row(vec![
                    name.into(),
                    if name.contains("fraction") {
                        pct(got)
                    } else {
                        f2(got)
                    },
                    f2(paper),
                    format!("[{}, {}]", f2(lo), f2(hi)),
                    if ok { "yes".into() } else { "NO".into() },
                ]);
            }
            println!("Workload calibration vs the paper's reported characteristics\n");
            t.print();
            assert!(all_ok, "calibration drifted outside the paper's bands");
            println!("\nall checks passed.");
        }),
    }
}

/// The `mb_*` pointer-chase calibration grid (latency-regime
/// microbenchmarks; see `ldsim_workloads::microbench`). Observational
/// here — the latency percentiles per regime, cached and dumped like any
/// figure — while the `validate` bin holds the exact closed-form
/// assertions against `golden/validate_bands.jsonl`.
fn microbench(scale: Scale, seed: u64) -> FigureSpec {
    let mut cells: Vec<Cell> = [
        "mb_serial",
        "mb_rowhit",
        "mb_rowmiss",
        "mb_conflict",
        "mb_broadcast",
        "mb_random",
        "mb_l2hit",
        "mb_bypass",
    ]
    .iter()
    .map(|&b| Cell::new(b, scale, seed, SchedulerKind::Gmc))
    .collect();
    // The bypass kernel once more with the L2 actually bypassed — the
    // pairing that shows cache-off traffic reaching DRAM.
    cells.push(
        Cell::new("mb_bypass", scale, seed, SchedulerKind::Gmc).with_tweak(CfgTweak::L2Bypass),
    );
    FigureSpec {
        name: "microbench",
        cells: cells.clone(),
        render: Box::new(move |store, dir| {
            let mut t = Table::new(&["microbench", "eff p50", "eff p99", "gap p50", "reqs/load"]);
            for c in &cells {
                let r = store.get(c);
                let label = if c.tweak == CfgTweak::L2Bypass {
                    format!("{} (bypass)", c.bench)
                } else {
                    c.bench.to_string()
                };
                t.row(vec![
                    label,
                    r.eff_p50.to_string(),
                    r.eff_p99.to_string(),
                    r.gap_p50.to_string(),
                    f2(r.avg_reqs_per_load),
                ]);
            }
            println!("Microbenchmark latency regimes (GMC, default machine)\n");
            t.print();
            dump_json_to(dir, "microbench", scale, seed, &fetch(store, &cells));
        }),
    }
}

/// Does WG-W still win off the Table II machine? Two representative
/// irregular benchmarks under GMC and WG-W on every DRAM backend preset.
/// The preset rides in as an ordinary [`CfgTweak::Backend`] cell dimension
/// — the `gddr5` cells dedupe against the fig08 grid in a full sweep.
fn backends(scale: Scale, seed: u64) -> FigureSpec {
    let benches = ["bfs", "spmv"];
    let kinds = [SchedulerKind::Gmc, SchedulerKind::WgW];
    let mut cells = Vec::with_capacity(benches.len() * Preset::ALL.len() * kinds.len());
    for &b in &benches {
        for &p in &Preset::ALL {
            for &k in &kinds {
                cells.push(Cell::new(b, scale, seed, k).with_tweak(CfgTweak::Backend(p)));
            }
        }
    }
    FigureSpec {
        name: "backends",
        cells: cells.clone(),
        render: Box::new(move |store, dir| {
            let mut t = Table::new(&[
                "benchmark",
                "backend",
                "WG-W/GMC",
                "GMC row-hit",
                "GMC bus util",
            ]);
            for &b in &benches {
                for &p in &Preset::ALL {
                    let gmc = store.get(
                        &Cell::new(b, scale, seed, SchedulerKind::Gmc)
                            .with_tweak(CfgTweak::Backend(p)),
                    );
                    let wgw = store.get(
                        &Cell::new(b, scale, seed, SchedulerKind::WgW)
                            .with_tweak(CfgTweak::Backend(p)),
                    );
                    t.row(vec![
                        b.to_string(),
                        p.name().to_string(),
                        f3(speedup(b, wgw.ipc(), gmc.ipc())),
                        pct(gmc.row_hit_rate),
                        pct(gmc.bw_utilization),
                    ]);
                }
            }
            println!("Backends — WG-W vs GMC across DRAM presets\n");
            t.print();
            // Hand-rolled dump: each row carries its preset, which
            // `RunResult::to_json` knows nothing about.
            if let Err(e) = std::fs::create_dir_all(dir) {
                panic!("cannot create {}: {e}", dir.display());
            }
            let path = dir.join("backends.jsonl");
            let mut f = std::fs::File::create(&path)
                .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
            use std::io::Write as _;
            for c in &cells {
                let CfgTweak::Backend(p) = c.tweak else {
                    unreachable!("every backends cell carries a Backend tweak");
                };
                let json = store.get(c).to_json();
                let row = format!("{{\"preset\":\"{}\",{}", p.name(), &json[1..]);
                writeln!(f, "{}", crate::stamp_row("backends", scale, seed, &row))
                    .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
            }
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_fig06_is_known_absent() {
        let specs = registry(Scale::Tiny, 1);
        let mut names: Vec<&str> = specs.iter().map(|s| s.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate figure names");
        // Fig. 6 is the paper's block diagram — no data, no spec.
        assert!(!names.contains(&"fig06"));
    }

    #[test]
    fn grids_share_cells_across_figures() {
        // The whole point of the global sweep: fig08-fig11 declare the
        // identical PAPER_SCHEDULERS grid, so the registry's unique cell
        // count must be far below the declared total.
        let specs = registry(Scale::Tiny, 1);
        let declared: usize = specs.iter().map(|s| s.cells.len()).sum();
        let mut keys: Vec<u64> = specs
            .iter()
            .flat_map(|s| s.cells.iter())
            .map(|c| c.key(ldsim_system::RunOpts::default()))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert!(
            keys.len() * 2 < declared,
            "expected heavy cross-figure sharing: {} unique of {} declared",
            keys.len(),
            declared
        );
    }
}
