//! ldsim's benchmark: one command that runs a workload for a fixed time,
//! prints every end-to-end metric by name with its unit, checks the
//! simulator's outputs, and — with `--trace 1` — splits a separate traced
//! pass across the simulator's layers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload busy_full|repro_small --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload runs as a closed loop: one pass at a time, each pass in a
//! child process of its own (so its peak memory is its own, and figure
//! renders print into a pipe instead of the report). With `--trace 0` the
//! parent starts passes while another fits in `--seconds` (judged by the
//! median pass so far), at least [`MIN_PASSES`], times the reference
//! workload (`reference.rs`) before the first pass and after each, and
//! reports medians over the passes, host times scaled to a nominal host by
//! the reference time around each pass. With `--trace 1` it runs one
//! untraced pass and one traced pass, and checks that the traced pass
//! reproduced the untraced one. The last line of stdout is the JSON
//! result. Passes work in `.perfbench/` under the current directory; the
//! traced pass leaves its spans there as `trace-<workload>-s<seed>.jsonl`.
//! See `perfbench/README.md` for the workloads and metrics.

mod driver;
mod metrics;
mod reference;
mod span;
mod workloads;

use metrics::{median, result_json, tail_percentile, END_TO_END, PER_LAYER, RAW};
use reference::Reference;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workloads::Workload;

const USAGE: &str = "perfbench --workload busy_full|repro_small \
                     --seed N --seconds S --trace 0|1";

/// Fewest untraced passes a run reports medians over.
const MIN_PASSES: usize = 3;

/// Reference-workload runs before the first pass and after every pass;
/// their median is the host's speed at that point.
const REF_RUNS: usize = 3;

/// The reference workload's time on the nominal host that the reported
/// host times are scaled to: about its time on the 2-vCPU VM this
/// benchmark was written on, when that host was busy.
const REF_NOMINAL_S: f64 = 0.1;

/// The host figures a pass measures, reported scaled to the nominal host;
/// `true` marks a rate, which scales the other way.
const HOST_TIMES: [(&str, bool); 3] = [
    ("wall_s", false),
    ("setup_s", false),
    ("sim_kcycles_per_s", true),
];

/// Workers a repro_small sweep uses (the host this benchmark was
/// written for has two cores).
const SWEEP_WORKERS: usize = 2;

/// Largest share of the traced wall time that may fall outside every
/// layer span. The layers account for the rest; a driver that left a
/// whole phase unwrapped would push the share above this.
const UNATTRIBUTED_LIMIT: f64 = 0.05;

const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                })
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--pass") {
        return pass_main(&args[1..]);
    }
    match parse_args(&args) {
        Ok(a) => {
            run(&a);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}\nusage: {USAGE}");
            ExitCode::from(2)
        }
    }
}

/// The child side: `--pass <workload> <seed> <dir> plain|traced`.
fn pass_main(args: &[String]) -> ExitCode {
    let [w, seed, dir, mode] = args else {
        eprintln!("error: --pass takes <workload> <seed> <dir> <mode>");
        return ExitCode::from(2);
    };
    let (Some(w), Ok(seed)) = (Workload::parse(w), seed.parse::<u64>()) else {
        eprintln!("error: bad --pass arguments {args:?}");
        return ExitCode::from(2);
    };
    ldsim_util::set_jobs(Some(SWEEP_WORKERS));
    ldsim_util::set_sim_threads(Some(1));
    let dir = Path::new(dir);
    let trace_file = Path::new(OUT_DIR).join(format!("trace-{}-s{seed}.jsonl", w.name()));
    match (w, mode.as_str()) {
        (Workload::ReproSmall, "traced") => workloads::traced_repro_pass(seed, dir, &trace_file),
        (Workload::ReproSmall, _) => workloads::repro_pass(seed, dir),
        (Workload::BusyFull, "traced") => workloads::traced_sim_pass(seed, &trace_file),
        (Workload::BusyFull, _) => workloads::sim_pass(seed, dir),
    }
    ExitCode::SUCCESS
}

/// What a child pass reported.
#[derive(Default)]
struct Pass {
    exited_ok: bool,
    values: BTreeMap<String, f64>,
    /// `(label, ok, digest, work)` per simulation.
    ops: Vec<(String, bool, String, String)>,
    lines: Vec<String>,
    digest: String,
}

impl Pass {
    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(f64::NAN)
    }

    fn count(&self, name: &str) -> u64 {
        let x = self.get(name);
        if x.is_finite() {
            x as u64
        } else {
            0
        }
    }
}

fn spawn_pass(w: Workload, seed: u64, dir: &Path, mode: &str) -> Pass {
    let exe = std::env::current_exe().expect("the benchmark knows its own executable");
    let _ = std::fs::create_dir_all(dir);
    let out = Command::new(exe)
        .arg("--pass")
        .arg(w.name())
        .arg(seed.to_string())
        .arg(dir)
        .arg(mode)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    let Ok(out) = out else {
        return Pass::default();
    };
    let mut pass = Pass {
        exited_ok: out.status.success(),
        ..Pass::default()
    };
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let mut f = line.splitn(2, ' ');
        let (tag, rest) = (f.next().unwrap_or(""), f.next().unwrap_or(""));
        match tag {
            "@m" => {
                if let Some((k, v)) = rest.split_once(' ') {
                    pass.values
                        .insert(k.to_string(), v.parse().unwrap_or(f64::NAN));
                }
            }
            "@op" => {
                let p: Vec<&str> = rest.splitn(4, ' ').collect();
                if let [label, ok, digest, work] = p[..] {
                    pass.ops
                        .push((label.into(), ok == "ok", digest.into(), work.into()));
                }
            }
            "@say" => pass.lines.push(rest.to_string()),
            "@digest" => pass.digest = rest.to_string(),
            _ => {}
        }
    }
    pass
}

/// The checkout's commit, when the current directory is a git checkout's
/// root (and not merely somewhere inside another repository).
fn commit() -> String {
    Path::new(".git")
        .exists()
        .then(|| {
            Command::new("git")
                .args(["rev-parse", "--short=12", "HEAD"])
                .stderr(Stdio::null())
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run(a: &Args) {
    let run_dir = PathBuf::from(OUT_DIR).join(format!(
        "{}-s{}-p{}",
        a.workload.name(),
        a.seed,
        std::process::id()
    ));
    println!(
        "perfbench {} · seed {} · commit {} · nproc {} · closed loop: one pass at a time, \
         each in its own process",
        a.workload.name(),
        a.seed,
        commit(),
        nproc()
    );
    let (correct, attempted, failed, defs, values) = if a.trace {
        traced_run(a, &run_dir)
    } else {
        timed_run(a, &run_dir)
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    println!("{}", result_json(correct, attempted, failed, defs, &values));
}

type RunReport = (
    bool,
    u64,
    u64,
    &'static [metrics::Metric],
    BTreeMap<&'static str, f64>,
);

/// Untraced passes for `--seconds`, with the reference workload timed
/// between them; medians of the end-to-end metrics.
fn timed_run(a: &Args, run_dir: &Path) -> RunReport {
    let budget = Duration::from_secs(a.seconds);
    let start = Instant::now();
    let mut reference = Reference::default();
    let mut refs = vec![reference.median_time(REF_RUNS)];
    let mut passes: Vec<Pass> = Vec::new();
    // Start another pass only while it can end inside the budget, judged
    // by the median pass so far.
    let mut walls: Vec<f64> = Vec::new();
    while passes.len() < MIN_PASSES
        || start.elapsed().as_secs_f64() + median(&walls) <= budget.as_secs_f64()
    {
        let i = passes.len();
        let dir = run_dir.join(format!("pass{i}"));
        let t = Instant::now();
        passes.push(spawn_pass(a.workload, a.seed, &dir, "plain"));
        walls.push(t.elapsed().as_secs_f64());
        let _ = std::fs::remove_dir_all(&dir);
        refs.push(reference.median_time(REF_RUNS));
    }
    // Scale a pass's host times to the nominal host by the reference
    // workload's time around it: the mean of its times just before and
    // just after the pass. `host_*` keeps the raw figure.
    for (i, p) in passes.iter_mut().enumerate() {
        let ref_s = (refs[i] + refs[i + 1]) / 2.0;
        let scale = REF_NOMINAL_S / ref_s;
        p.values.insert("ref_s".into(), ref_s);
        for (name, rate) in HOST_TIMES {
            let raw = p.get(name);
            p.values.insert(format!("host_{name}"), raw);
            p.values
                .insert(name.into(), if rate { raw / scale } else { raw * scale });
        }
    }
    let mut problems: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (i, p) in passes.iter().enumerate() {
        for line in &p.lines {
            println!("pass {i}: {line}");
        }
        attempted += p.count("attempted").max(1);
        failed += if p.exited_ok {
            p.count("failed")
        } else {
            problems.push(format!("pass {i} crashed"));
            p.count("attempted").max(1)
        };
    }
    // The same simulations must give the same results in every pass.
    let first = &passes[0];
    for (i, p) in passes.iter().enumerate().skip(1) {
        if p.digest != first.digest {
            problems.push(format!(
                "pass {i} result digest {} != {}",
                p.digest, first.digest
            ));
        }
        for (label, ok, digest, _) in &p.ops {
            let same = first.ops.iter().any(|o| &o.0 == label && &o.2 == digest);
            if *ok && !same {
                failed += 1;
                problems.push(format!("pass {i}: {label} differs from pass 0"));
            }
        }
    }
    let mut values = BTreeMap::new();
    println!(
        "{} passes in {:.1} s · result digest {} · {} ops per pass",
        passes.len(),
        start.elapsed().as_secs_f64(),
        first.digest,
        passes[passes.len() - 1].count("attempted"),
    );
    println!(
        "{:<22} {:>14} {:>18} {:>4}  unit",
        "metric", "median", "tail pct", "n"
    );
    for d in END_TO_END.iter().chain(RAW) {
        let xs: Vec<f64> = passes
            .iter()
            .map(|p| p.get(d.name))
            .filter(|x| x.is_finite())
            .collect();
        let med = median(&xs);
        let tail = tail_percentile(&xs).map_or("-".into(), |(p, x)| format!("p{p} {x:.6}"));
        println!(
            "{:<22} {med:>14.6} {tail:>18} {:>4}  {}",
            d.name,
            xs.len(),
            d.unit
        );
        if !(med.is_finite() && med > 0.0) {
            problems.push(format!("{} was not measured", d.name));
        }
        values.insert(d.name, med);
    }
    println!(
        "ops {attempted} attempted, {failed} failed (simulations or sweep cells, over all passes)"
    );
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    (
        problems.is_empty() && failed == 0,
        attempted,
        failed,
        END_TO_END,
        values,
    )
}

/// One untraced and one traced pass; the per-layer metrics.
fn traced_run(a: &Args, run_dir: &Path) -> RunReport {
    let plain = spawn_pass(a.workload, a.seed, &run_dir.join("plain"), "plain");
    let traced = spawn_pass(a.workload, a.seed, &run_dir.join("traced"), "traced");
    let mut problems: Vec<String> = Vec::new();
    let mut failed = 0;
    for (name, p) in [("untraced", &plain), ("traced", &traced)] {
        if !p.exited_ok {
            problems.push(format!("the {name} pass crashed"));
            failed += p.count("attempted").max(1);
        } else {
            failed += p.count("failed");
        }
    }
    let attempted = plain.count("attempted").max(1) + traced.count("attempted").max(1);
    println!(
        "1 untraced pass ({} ops, result digest {}) and 1 traced pass ({} ops)",
        plain.count("attempted"),
        plain.digest,
        traced.count("attempted")
    );
    for line in plain.lines.iter().chain(&traced.lines) {
        println!("{line}");
    }
    if a.workload == Workload::ReproSmall {
        // The traced sweep must render exactly what the cold sweep did.
        let (cold, mine) = (run_dir.join("plain/cold"), run_dir.join("traced/cold"));
        if let Err(e) = workloads::same_files(&cold, &mine) {
            failed += traced.count("attempted");
            problems.push(format!("traced render differs from the cold render: {e}"));
        }
    } else {
        // The traced driver must reproduce every simulation's work.
        for (label, _, _, work) in &plain.ops {
            match traced.ops.iter().find(|o| &o.0 == label) {
                Some(t) if &t.3 == work => {}
                _ => {
                    failed += 1;
                    problems.push(format!("traced {label} did not reproduce Simulator::run"));
                }
            }
        }
    }
    let wall = traced.get("traced_wall_s");
    let share = traced.get("trace.unattributed_s") / wall;
    println!(
        "unattributed: {:.2} % of the traced wall (limit {:.0} %)",
        100.0 * share,
        100.0 * UNATTRIBUTED_LIMIT
    );
    // Negative would mean layer spans overlapping, counted twice.
    if !(-1e-3..=UNATTRIBUTED_LIMIT).contains(&share) {
        problems.push(format!(
            "the layer spans leave {:.2} % of the traced wall unattributed",
            100.0 * share
        ));
    }
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    for d in PER_LAYER {
        values.insert(d.name, traced.values.get(d.name).copied().unwrap_or(0.0));
    }
    values.insert("trace.overhead", wall / plain.get("wall_s"));
    println!("per-layer metrics (0 = layer not exercised or not split on this workload)");
    for d in PER_LAYER {
        println!("  {:<30} {:>16.6} {}", d.name, values[d.name], d.unit);
    }
    println!("ops {attempted} attempted, {failed} failed");
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    (
        problems.is_empty() && failed == 0,
        attempted,
        failed,
        PER_LAYER,
        values,
    )
}
