//! Model validation: microbenchmark latencies vs. closed-form arithmetic.
//!
//! Runs the `mb_*` pointer-chase kernels (see `ldsim_workloads::microbench`)
//! and checks the simulator's modeled latencies against
//! [`AnalyticLatency`] — expectations derived *only* from `SimConfig`
//! knobs, never from simulator state. The idle-machine checks demand exact
//! equality, cycle for cycle: a one-cycle drift anywhere on the
//! SM→crossbar→L2→DRAM path fails the suite and the failing check names
//! the timing parameter it pins.
//!
//! Three check families:
//!
//! * **exact** — every `LoadRecord` of an idle chase equals the analytic
//!   value (`lo == hi == expected`);
//! * **hist** — the same samples pushed through [`Histogram::latency`]
//!   must report the analytic value at p50, pinning the log-bucket
//!   quantile semantics the results pipeline relies on;
//! * **loaded** — `mb_broadcast`/`mb_random` run the full grid; their
//!   p50/p99 have no closed form but must land in bands derived from the
//!   same arithmetic (and divergent chases must be slower than coalesced
//!   ones).
//!
//! Everything here is deterministic, so `results/validate.jsonl` is
//! byte-reproducible and CI diffs it against the committed
//! `golden/validate_bands.jsonl`. The same property holds per DRAM backend:
//! [`run_preset_ladder`] re-runs the idle exact checks on every
//! [`Preset`] (kernels rebuilt against that preset's address mapper) and
//! `results/validate_presets.jsonl` diffs against
//! `golden/validate_presets.jsonl`.
//!
//! Runs use refresh disabled: a dependent chase spans several tREFI
//! periods, and a refresh landing mid-chase would perturb the exact
//! checks. Everything else is the Table II default machine (GMC
//! scheduler), with the `TimingAuditor` armed.

use ldsim_gpu::LoadRecord;
use ldsim_system::{RunResult, Simulator};
use ldsim_types::analytic::AnalyticLatency;
use ldsim_types::config::{Preset, SimConfig};
use ldsim_types::stats::Histogram;
use ldsim_workloads::{benchmark, benchmark_with_mem, Scale};
use std::path::{Path, PathBuf};

/// One validation check's outcome.
#[derive(Debug, Clone)]
pub struct CheckRow {
    /// Stable check name (golden-file key).
    pub check: &'static str,
    /// DRAM backend preset the check ran on.
    pub preset: &'static str,
    /// The timing parameter (or path) this check pins.
    pub pins: &'static str,
    pub scale: &'static str,
    /// Accepted band; exact checks have `lo == hi`.
    pub lo: u64,
    pub hi: u64,
    pub measured: u64,
    pub pass: bool,
}

/// The validation configuration: Table II defaults + GMC, refresh off,
/// auditor armed.
pub fn validate_config(bypass: bool) -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.mem.refresh_enabled = false;
    cfg.gpu.l2_bypass = bypass;
    cfg.audit = true;
    cfg
}

fn run(name: &str, scale: Scale, bypass: bool) -> (RunResult, Vec<LoadRecord>) {
    let kernel = benchmark(name, scale, 1).generate();
    let (res, recs) = Simulator::new(validate_config(bypass), &kernel).run_with_records();
    assert_eq!(
        res.audit_violations, 0,
        "{name}: DRAM protocol violations under the timing auditor"
    );
    assert!(!recs.is_empty(), "{name}: no load records");
    (res, recs)
}

/// Exact check: every sample must equal `expect`. On failure `measured`
/// carries the first deviating sample.
fn exact(
    check: &'static str,
    pins: &'static str,
    scale: Scale,
    expect: u64,
    samples: impl IntoIterator<Item = u64>,
) -> CheckRow {
    let mut measured = expect;
    let mut pass = true;
    let mut n = 0usize;
    for s in samples {
        n += 1;
        if s != expect && pass {
            pass = false;
            measured = s;
        }
    }
    if n == 0 {
        pass = false;
    }
    CheckRow {
        check,
        preset: "gddr5",
        pins,
        scale: scale.name(),
        lo: expect,
        hi: expect,
        measured,
        pass,
    }
}

/// Band check: `lo <= measured <= hi`.
fn band(
    check: &'static str,
    pins: &'static str,
    scale: Scale,
    lo: u64,
    hi: u64,
    measured: u64,
) -> CheckRow {
    CheckRow {
        check,
        preset: "gddr5",
        pins,
        scale: scale.name(),
        lo,
        hi,
        measured,
        pass: (lo..=hi).contains(&measured),
    }
}

/// p50 of `samples` through the results pipeline's log-bucketed histogram.
fn hist_p50(samples: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Histogram::latency();
    for s in samples {
        h.add(s);
    }
    h.quantile(0.5)
}

fn eff(r: &LoadRecord) -> u64 {
    r.effective_latency()
}

/// Run the full check suite at one scale.
pub fn run_scale(scale: Scale) -> Vec<CheckRow> {
    let a = AnalyticLatency::from_config(&validate_config(false));
    let mut rows = Vec::new();

    // Idle serial chase: every load opens a fresh closed bank.
    let (_, recs) = run("mb_serial", scale, false);
    rows.push(exact(
        "serial_closed_bank",
        "tRCD",
        scale,
        a.dram_closed(),
        recs.iter().map(eff),
    ));

    // Open/hit pairs: opener pays activate, second read is a pure row hit.
    let (_, recs) = run("mb_rowhit", scale, false);
    rows.push(exact(
        "rowhit_opener",
        "tRCD",
        scale,
        a.dram_closed(),
        recs.iter().step_by(2).map(eff),
    ));
    rows.push(exact(
        "rowhit_open_row",
        "tCAS",
        scale,
        a.dram_row_hit(),
        recs.iter().skip(1).step_by(2).map(eff),
    ));
    rows.push(band(
        "hist_rowhit_p50",
        "tCAS",
        scale,
        a.dram_row_hit(),
        a.dram_row_hit(),
        hist_p50(recs.iter().skip(1).step_by(2).map(eff)),
    ));

    // Open/conflict pairs: second read precharges the row the first opened.
    let (_, recs) = run("mb_rowmiss", scale, false);
    rows.push(exact(
        "rowmiss_precharge",
        "tRP",
        scale,
        a.dram_row_miss(),
        recs.iter().skip(1).step_by(2).map(eff),
    ));
    rows.push(band(
        "hist_rowmiss_p50",
        "tRP",
        scale,
        a.dram_row_miss(),
        a.dram_row_miss(),
        hist_p50(recs.iter().skip(1).step_by(2).map(eff)),
    ));

    // Intra-warp bank conflict: 8 rows of one bank serialise at tRC.
    let (_, recs) = run("mb_conflict", scale, false);
    rows.push(exact(
        "conflict_gap",
        "tRC",
        scale,
        a.conflict_gap(8),
        recs.iter().map(|r| r.dram_gap()),
    ));
    rows.push(exact(
        "conflict_total",
        "tRC",
        scale,
        a.dram_closed() + a.conflict_gap(8),
        recs.iter().map(eff),
    ));
    rows.push(band(
        "hist_conflict_gap_p50",
        "tRC",
        scale,
        a.conflict_gap(8),
        a.conflict_gap(8),
        hist_p50(recs.iter().map(|r| r.dram_gap())),
    ));

    // Prime/probe with the L2 on: probes are pure crossbar round trips.
    let (_, recs) = run("mb_l2hit", scale, false);
    let probes: Vec<&LoadRecord> = recs.iter().filter(|r| r.warp.sm.0 == 1).collect();
    rows.push(exact(
        "l2_hit",
        "xbar_latency",
        scale,
        a.l2_hit(),
        probes.iter().map(|r| eff(r)),
    ));
    rows.push(exact(
        "l2_hit_served_by_l2",
        "L2 path",
        scale,
        0,
        probes.iter().map(|r| r.dram_responses as u64),
    ));

    // Same shape with l2_bypass: probes must reach DRAM and find the
    // primed rows still open. (81 here would mean the bypass knob is
    // silently ignored.)
    let (_, recs) = run("mb_bypass", scale, true);
    let probes: Vec<&LoadRecord> = recs.iter().filter(|r| r.warp.sm.0 == 1).collect();
    rows.push(exact(
        "bypass_row_hit",
        "l2_bypass",
        scale,
        a.dram_row_hit(),
        probes.iter().map(|r| eff(r)),
    ));
    rows.push(exact(
        "bypass_served_by_dram",
        "l2_bypass",
        scale,
        1,
        probes.iter().map(|r| r.dram_responses as u64),
    ));

    // Loaded regimes: no closed form, but the distributions must land in
    // bands derived from the same arithmetic.
    let trc = a.bank_conflict_spacing();
    let (bres, _) = run("mb_broadcast", scale, false);
    rows.push(band(
        "loaded_broadcast_p50",
        "queueing < 2 tRC",
        scale,
        a.l2_hit(),
        a.dram_closed() + 2 * trc,
        bres.eff_p50,
    ));
    rows.push(band(
        "loaded_broadcast_p99",
        "tail < 4 tRC",
        scale,
        a.l2_hit(),
        a.dram_row_miss() + 4 * trc,
        bres.eff_p99,
    ));
    let (rres, _) = run("mb_random", scale, false);
    rows.push(band(
        "loaded_random_p50",
        "divergence",
        scale,
        a.dram_closed(),
        a.dram_row_miss() + 8 * trc,
        rres.eff_p50,
    ));
    rows.push(band(
        "loaded_random_gap_p50",
        "latency divergence",
        scale,
        1,
        8 * trc,
        rres.gap_p50,
    ));
    rows.push(band(
        "loaded_random_exceeds_broadcast",
        "divergence costs",
        scale,
        bres.eff_p50 + 1,
        a.dram_row_miss() + 8 * trc,
        rres.eff_p50,
    ));

    rows
}

/// The per-preset validation configuration: the preset's device description
/// over the default controller, refresh off, auditor armed — the exact
/// analogue of [`validate_config`] for a non-default backend.
pub fn preset_config(p: Preset) -> SimConfig {
    let mut cfg = SimConfig::default().with_preset(p);
    cfg.mem.refresh_enabled = false;
    cfg.audit = true;
    cfg
}

/// The idle latency ladder on one DRAM backend preset, checked exactly
/// (lo == hi) against [`AnalyticLatency`] closed forms under the armed
/// protocol auditor. The microbench kernels are rebuilt against the
/// preset's *own* address mapper ([`benchmark_with_mem`]), so a constructed
/// row hit or 8-way bank conflict lands where that backend says it does.
/// Always Tiny scale: idle-machine checks are scale-invariant.
pub fn run_preset_ladder(p: Preset) -> Vec<CheckRow> {
    let scale = Scale::Tiny;
    let cfg = preset_config(p);
    let a = AnalyticLatency::from_config(&cfg);
    let run = |name: &str| -> Vec<LoadRecord> {
        let kernel = benchmark_with_mem(name, scale, 1, &cfg.mem).generate();
        let (res, recs) = Simulator::new(cfg.clone(), &kernel).run_with_records();
        assert_eq!(
            res.audit_violations,
            0,
            "{name}@{}: DRAM protocol violations under the timing auditor",
            p.name()
        );
        assert!(!recs.is_empty(), "{name}@{}: no load records", p.name());
        recs
    };
    let mut rows = Vec::new();

    let recs = run("mb_serial");
    rows.push(exact(
        "serial_closed_bank",
        "tRCD",
        scale,
        a.dram_closed(),
        recs.iter().map(eff),
    ));

    let recs = run("mb_rowhit");
    rows.push(exact(
        "rowhit_open_row",
        "tCAS",
        scale,
        a.dram_row_hit(),
        recs.iter().skip(1).step_by(2).map(eff),
    ));

    let recs = run("mb_rowmiss");
    rows.push(exact(
        "rowmiss_precharge",
        "tRP",
        scale,
        a.dram_row_miss(),
        recs.iter().skip(1).step_by(2).map(eff),
    ));

    let recs = run("mb_conflict");
    rows.push(exact(
        "conflict_gap",
        "tRC",
        scale,
        a.conflict_gap(8),
        recs.iter().map(|r| r.dram_gap()),
    ));
    rows.push(exact(
        "conflict_total",
        "tRC",
        scale,
        a.dram_closed() + a.conflict_gap(8),
        recs.iter().map(eff),
    ));

    for r in &mut rows {
        r.preset = p.name();
    }
    rows
}

/// Render rows as JSONL (deterministic field order; no timestamps, so the
/// output is byte-comparable against the committed golden file).
pub fn to_jsonl(rows: &[CheckRow]) -> String {
    let mut out = String::new();
    for r in rows {
        out.push_str(&format!(
            "{{\"check\":\"{}\",\"preset\":\"{}\",\"scale\":\"{}\",\"pins\":\"{}\",\"lo\":{},\"hi\":{},\"measured\":{},\"pass\":{}}}\n",
            r.check, r.preset, r.scale, r.pins, r.lo, r.hi, r.measured, r.pass
        ));
    }
    out
}

/// CLI entry point for the `validate` binary: `validate [tiny|small|full]...
/// [--out DIR]`. Runs every requested scale (default: tiny), writes
/// `DIR/validate.jsonl`, and exits non-zero if any check failed.
pub fn standalone_main() {
    const USAGE: &str = "validate [tiny|small|full]... [--out DIR]";
    let mut scales: Vec<Scale> = Vec::new();
    let mut out = PathBuf::from("results");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                out = PathBuf::from(ldsim_util::cli_value(&args, i, "--out", USAGE));
                i += 1;
            }
            other => match Scale::parse(other) {
                Some(s) => scales.push(s),
                None => ldsim_util::cli_fail(USAGE, &format!("unknown argument '{other}'")),
            },
        }
        i += 1;
    }
    if scales.is_empty() {
        scales.push(Scale::Tiny);
    }

    let mut rows = Vec::new();
    for s in scales {
        rows.extend(run_scale(s));
    }
    // The per-preset idle ladders always run (Tiny-only, cheap): one exact
    // lo==hi block per DRAM backend, written to its own golden-diffed file.
    let mut preset_rows = Vec::new();
    for p in Preset::ALL {
        preset_rows.extend(run_preset_ladder(p));
    }

    println!(
        "{:<32} {:<6} {:<6} {:<20} {:>14} {:>9}  status",
        "check", "preset", "scale", "pins", "band", "measured"
    );
    let mut failed = 0usize;
    for r in rows.iter().chain(&preset_rows) {
        let band = if r.lo == r.hi {
            format!("={}", r.lo)
        } else {
            format!("[{}, {}]", r.lo, r.hi)
        };
        println!(
            "{:<32} {:<6} {:<6} {:<20} {:>14} {:>9}  {}",
            r.check,
            r.preset,
            r.scale,
            r.pins,
            band,
            r.measured,
            if r.pass { "ok" } else { "FAIL" }
        );
        if !r.pass {
            failed += 1;
        }
    }
    write_jsonl(&rows, &preset_rows, &out);
    println!(
        "{} checks, {} failed -> {} + {}",
        rows.len() + preset_rows.len(),
        failed,
        out.join("validate.jsonl").display(),
        out.join("validate_presets.jsonl").display()
    );
    if failed > 0 {
        std::process::exit(1);
    }
}

fn write_jsonl(rows: &[CheckRow], preset_rows: &[CheckRow], dir: &Path) {
    std::fs::create_dir_all(dir).expect("create output directory");
    std::fs::write(dir.join("validate.jsonl"), to_jsonl(rows)).expect("write validate.jsonl");
    std::fs::write(dir.join("validate_presets.jsonl"), to_jsonl(preset_rows))
        .expect("write validate_presets.jsonl");
}
