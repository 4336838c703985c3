//! One pass of each workload, untraced and traced.
//!
//! A pass runs in a child process of its own (see `main.rs`) and reports
//! to the parent on stdout in `@`-prefixed lines, which keeps the figure
//! renders' own console output out of the report:
//!
//! * `@m <name> <value>` — a number the pass measured;
//! * `@op <label> <ok|fail> <digest|-> <work>` — one simulation: its
//!   `RunResult` digest and its simulated work (see [`Outcome::work`]);
//! * `@say <text>` — a report line for the parent to print.

use crate::driver::{LayerCounts, Outcome, TracedSim};
use crate::metrics::{geomean, median, quantile};
use crate::span::{self, Count, Layer, Recording};
use ldsim_bench::figures::registry;
use ldsim_system::shard::ShardMap;
use ldsim_system::sweep::CfgTweak;
use ldsim_system::sweep::{cache_row, parse_cache_line};
use ldsim_system::{
    run_one_kernel, run_sweep, Cell, CellStore, RunOpts, RunResult, Simulator, SweepConfig,
    DEFAULT_SHARDS, ENGINE_SALT,
};
use ldsim_types::config::{SchedulerKind, SimConfig};
use ldsim_types::kernel::{Instruction, KernelProgram};
use ldsim_util::hash::fnv64;
use ldsim_util::{parallel_map, FnvHashMap};
use ldsim_workloads::{benchmark, Scale, IRREGULAR};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

/// The busy, read-heavy irregular kernels (write_frac <= 0.11).
pub const BUSY: &[&str] = &["sp", "kmeans", "spmv", "sssp", "bfs"];
/// busy_full's schedulers: the paper's baseline and its best WG variant.
const BUSY_KINDS: &[SchedulerKind] = &[SchedulerKind::Gmc, SchedulerKind::WgW];

/// Figure-registry builds per repro_small pass; their median is `setup_s`.
/// A build takes tens of microseconds, so it takes many to steady the median.
const REGISTRY_REPEATS: usize = 101;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BusyFull,
    ReproSmall,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::BusyFull, Workload::ReproSmall];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BusyFull => "busy_full",
            Workload::ReproSmall => "repro_small",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// The configuration `run_one_kernel` simulates `kernel` under with the
/// default run options: the paper's 70 % instruction budget.
pub fn run_config(kernel: &KernelProgram, kind: SchedulerKind) -> SimConfig {
    let mut cfg = SimConfig::default().with_scheduler(kind);
    cfg.instruction_limit = Some(kernel.total_instructions() * 7 / 10);
    cfg
}

/// The runner's integrity checks: no dropped requests, no audit
/// violations, no duplicated read responses, and exact read conservation
/// on a fully drained run.
fn integrity(r: &RunResult, kernel_insns: u64) -> Result<(), String> {
    if r.dropped_requests > 0 {
        return Err(format!("{} request(s) dropped", r.dropped_requests));
    }
    if r.audit_violations > 0 {
        return Err(format!("{} DRAM protocol violation(s)", r.audit_violations));
    }
    if r.mem_read_responses > r.mem_read_requests
        || (r.finished && r.instructions == kernel_insns && !r.conserves_requests())
    {
        return Err(format!(
            "read conservation: {} responses for {} requests",
            r.mem_read_responses, r.mem_read_requests
        ));
    }
    Ok(())
}

pub fn digest(r: &RunResult) -> u64 {
    fnv64(r.to_json().as_bytes())
}

fn label(bench: &str, kind: SchedulerKind) -> String {
    format!("{bench}/{}", kind.name())
}

fn panic_text(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".into())
}

fn emit(name: &str, value: f64) {
    println!("@m {name} {value:?}");
}

fn say(text: &str) {
    println!("@say {text}");
}

fn emit_op(label: &str, ok: bool, digest: Option<u64>, work: &[u64]) {
    let work: Vec<String> = work.iter().map(u64::to_string).collect();
    println!(
        "@op {label} {} {} {}",
        if ok { "ok" } else { "fail" },
        digest.map_or("-".into(), |d| format!("{d:016x}")),
        work.join(",")
    );
}

/// Peak resident memory of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Replay `coalesce_into` over every load of `kernel`:
/// `(seconds, loads, lines)`.
fn replay_coalescer(kernel: &KernelProgram) -> (f64, u64, u64) {
    let shift = SimConfig::default().gpu.l1.line_bytes.trailing_zeros();
    let mut line_addrs = Vec::with_capacity(32);
    let (mut loads, mut lines) = (0u64, 0u64);
    let t = Instant::now();
    for warp in kernel.programs.iter().flatten() {
        for insn in &warp.insns {
            if let Instruction::Load { addrs, mask } = insn {
                loads += 1;
                lines += ldsim_gpu::coalescer::coalesce_into(
                    std::hint::black_box(addrs),
                    *mask,
                    shift,
                    &mut line_addrs,
                ) as u64;
            }
        }
    }
    (secs(t.elapsed()), loads, std::hint::black_box(lines))
}

/// Render every figure into `dir`.
fn render_all(
    specs: &[ldsim_system::FigureSpec],
    store: &CellStore,
    dir: &Path,
) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| {
        for spec in specs {
            (spec.render)(store, dir);
        }
    }))
    .map_err(panic_text)
}

/// Byte-compare every file of two render directories.
pub fn same_files(a: &Path, b: &Path) -> Result<(), String> {
    let list = |d: &Path| -> Result<Vec<_>, String> {
        let mut v: Vec<_> = std::fs::read_dir(d)
            .map_err(|e| format!("{}: {e}", d.display()))?
            .filter_map(|e| e.ok().map(|e| e.file_name()))
            .collect();
        v.sort();
        Ok(v)
    };
    let (la, lb) = (list(a)?, list(b)?);
    if la != lb || la.is_empty() {
        return Err(format!(
            "{} and {} hold different files",
            a.display(),
            b.display()
        ));
    }
    for f in &la {
        let read = |d: &Path| std::fs::read(d.join(f)).map_err(|e| e.to_string());
        if read(a)? != read(b)? {
            return Err(format!("{} differs", f.to_string_lossy()));
        }
    }
    Ok(())
}

/// FNV digest over a render directory's file names and bytes.
fn dir_digest(dir: &Path) -> u64 {
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .map(|rd| rd.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default();
    names.sort();
    let mut h = ldsim_util::Fnv64::new();
    for p in names {
        h.write(p.file_name().map_or(&[][..], |n| n.as_encoded_bytes()));
        h.write(&std::fs::read(&p).unwrap_or_default());
    }
    h.finish()
}

/// Unique cells in declaration order, deduped by content-addressed key.
fn dedupe(cells: &[Cell], opts: RunOpts) -> (Vec<Cell>, FnvHashMap<u64, Cell>) {
    let mut unique = Vec::new();
    let mut by_key = FnvHashMap::default();
    for &c in cells {
        if by_key.insert(c.key(opts), c).is_none() {
            unique.push(c);
        }
    }
    (unique, by_key)
}

/// Geometric-mean simulated IPC of `results`.
fn ipc_gmean(results: &[(Cell, RunResult)]) -> f64 {
    geomean(&results.iter().map(|(_, r)| r.ipc()).collect::<Vec<_>>())
}

/// The paper's Fig. 8 headline over `results`: the geometric mean, over
/// the GMC cells that have a WG-W twin, of IPC(WG-W) / IPC(GMC).
fn wgw_gain(results: &[(Cell, RunResult)]) -> f64 {
    let ipc = |cell: Cell| {
        results
            .iter()
            .find(|(c, _)| *c == cell)
            .map(|(_, r)| r.ipc())
    };
    let gains: Vec<f64> = results
        .iter()
        .filter(|(c, _)| c.kind == SchedulerKind::Gmc)
        .filter_map(|(c, r)| {
            let twin = Cell {
                kind: SchedulerKind::WgW,
                ..*c
            };
            Some(ipc(twin)? / r.ipc())
        })
        .collect();
    geomean(&gains)
}

/// Append `results` to a fresh cell store under `dir`, and check that a
/// warm `run_sweep` over it simulates nothing and returns every result
/// unchanged.
fn warm_reload(results: &[(Cell, RunResult)], dir: &Path) -> Result<(), String> {
    let opts = RunOpts::default();
    let store_dir = dir.join("cellstore");
    let _ = std::fs::remove_dir_all(&store_dir);
    let map = ShardMap::open(&store_dir, DEFAULT_SHARDS);
    for (cell, r) in results {
        map.append(cell.key(opts), &cache_row(cell, opts, ENGINE_SALT, r));
    }
    let cells: Vec<Cell> = results.iter().map(|(c, _)| *c).collect();
    let cfg = SweepConfig {
        cache_path: Some(&store_dir),
        ..SweepConfig::default()
    };
    let (store, stats) = run_sweep(&cells, &cfg);
    if stats.simulated != 0 || stats.from_cache != cells.len() {
        return Err(format!(
            "warm reload simulated {} and loaded {} of {} cells",
            stats.simulated,
            stats.from_cache,
            cells.len()
        ));
    }
    if let Some((cell, _)) = results
        .iter()
        .find(|(c, r)| digest(store.get(c)) != digest(r))
    {
        return Err(format!("{} changed through the cell store", cell.bench));
    }
    Ok(())
}

/// Simulate `kernel` under `kind` with `Simulator`, applying the runner's
/// integrity checks: `(build time, run time, result)`.
fn simulate(
    kernel: &KernelProgram,
    kind: SchedulerKind,
) -> (Duration, Duration, Result<RunResult, String>) {
    let t = Instant::now();
    let machine = Simulator::new(run_config(kernel, kind), kernel);
    let built = t.elapsed();
    let t = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(move || machine.run()))
        .map_err(panic_text)
        .and_then(|r| integrity(&r, kernel.total_instructions()).map(|()| r));
    (built, t.elapsed(), result)
}

/// The simulations of a pass, reported as they finish.
#[derive(Default)]
struct Sims {
    attempted: u64,
    failed: u64,
    results: Vec<(Cell, RunResult)>,
}

impl Sims {
    fn record(&mut self, cell: Cell, result: Result<RunResult, String>) {
        self.attempted += 1;
        let name = label(cell.bench, cell.kind);
        match result {
            Ok(r) => {
                emit_op(&name, true, Some(digest(&r)), &Outcome::work_of(&r));
                self.results.push((cell, r));
            }
            Err(e) => {
                self.failed += 1;
                emit_op(&name, false, None, &[]);
                say(&format!("FAILED {name}: {e}"));
            }
        }
    }
}

/// One untraced pass of busy_full: generate each kernel and simulate it
/// under each scheduler with `Simulator::run`, one simulation at a time;
/// then check that the results come back unchanged through a cell store
/// under `dir`.
pub fn sim_pass(seed: u64, dir: &Path) {
    let (mut setup, mut sim) = (Duration::ZERO, Duration::ZERO);
    let mut sims = Sims::default();
    let t_pass = Instant::now();
    for &bench in BUSY {
        let t = Instant::now();
        let kernel = benchmark(bench, Scale::Full, seed).generate();
        setup += t.elapsed();
        for &kind in BUSY_KINDS {
            let (built, ran, result) = simulate(&kernel, kind);
            setup += built;
            sim += ran;
            sims.record(Cell::new(bench, Scale::Full, seed, kind), result);
        }
    }
    let wall = secs(t_pass.elapsed());
    let rss = peak_rss_mb();
    if let Err(e) = warm_reload(&sims.results, dir) {
        sims.failed += 1;
        say(&format!("FAILED warm reload: {e}"));
    }
    let mut h = ldsim_util::Fnv64::new();
    for (_, r) in &sims.results {
        h.write_u64(digest(r));
    }
    emit("wall_s", wall);
    emit("setup_s", secs(setup));
    let cycles: u64 = sims.results.iter().map(|(_, r)| r.cycles).sum();
    emit("sim_kcycles_per_s", cycles as f64 / 1e3 / secs(sim));
    emit("peak_rss_mb", rss);
    emit("sim_ipc_gmean", ipc_gmean(&sims.results));
    emit("wgw_ipc_gain", wgw_gain(&sims.results));
    emit("attempted", sims.attempted as f64);
    emit("failed", sims.failed as f64);
    println!("@digest {:016x}", h.finish());
}

/// One untraced pass of repro_small: what `repro small --cold` and then
/// `repro small` do, through `registry`, `run_sweep` and each figure's
/// `render`. The cold render lands in `dir/cold`, the warm ones in
/// `dir/warm`.
pub fn repro_pass(seed: u64, dir: &Path) {
    let opts = RunOpts::default();
    let mut setup = Vec::with_capacity(REGISTRY_REPEATS);
    let mut specs = Vec::new();
    for _ in 0..REGISTRY_REPEATS {
        let t = Instant::now();
        specs = registry(Scale::Small, seed);
        setup.push(secs(t.elapsed()));
    }
    let setup_s = median(&setup);
    let cells: Vec<Cell> = specs.iter().flat_map(|s| s.cells.iter().copied()).collect();
    let (unique, _) = dedupe(&cells, opts);
    let cache = dir.join("cellcache");
    let _ = std::fs::remove_dir_all(&cache);
    let cfg = SweepConfig {
        cache_path: Some(&cache),
        ..SweepConfig::default()
    };
    let (cold_dir, warm_dir) = (dir.join("cold"), dir.join("warm"));
    let mut problems = Vec::new();
    let t = Instant::now();
    let swept = catch_unwind(AssertUnwindSafe(|| run_sweep(&cells, &cfg))).map_err(panic_text);
    let sweep_s = secs(t.elapsed());
    let (store, stats) = match swept {
        Ok(s) => s,
        Err(e) => {
            say(&format!("FAILED cold sweep: {e}"));
            emit("attempted", unique.len() as f64);
            emit("failed", unique.len() as f64);
            return;
        }
    };
    if stats.simulated != unique.len() {
        problems.push(format!(
            "cold sweep simulated {} of {}",
            stats.simulated,
            unique.len()
        ));
    }
    let t = Instant::now();
    if let Err(e) = render_all(&specs, &store, &cold_dir) {
        problems.push(format!("cold render: {e}"));
    }
    let wall = setup_s + sweep_s + secs(t.elapsed());
    let rss = peak_rss_mb();
    let (store_again, stats) = run_sweep(&cells, &cfg);
    if stats.simulated != 0 || stats.from_cache != unique.len() {
        problems.push(format!(
            "warm sweep simulated {} and loaded {} of {}",
            stats.simulated,
            stats.from_cache,
            unique.len()
        ));
    }
    if let Err(e) =
        render_all(&specs, &store_again, &warm_dir).and_then(|()| same_files(&cold_dir, &warm_dir))
    {
        problems.push(format!("warm render: {e}"));
    }
    let results: Vec<(Cell, RunResult)> =
        unique.iter().map(|c| (*c, store.get(c).clone())).collect();
    // The paper's Fig. 8 comparison, from the sweep's own irregular cells.
    let fig08: Vec<(Cell, RunResult)> = results
        .iter()
        .filter(|(c, _)| c.tweak == CfgTweak::None && IRREGULAR.iter().any(|p| p.name == c.bench))
        .cloned()
        .collect();
    for p in &problems {
        say(&format!("FAILED {p}"));
    }
    emit("wall_s", wall);
    emit("setup_s", setup_s);
    let cycles: u64 = results.iter().map(|(_, r)| r.cycles).sum();
    emit("sim_kcycles_per_s", cycles as f64 / 1e3 / sweep_s);
    emit("peak_rss_mb", rss);
    emit("sim_ipc_gmean", ipc_gmean(&results));
    emit("wgw_ipc_gain", wgw_gain(&fig08));
    emit("attempted", unique.len() as f64);
    emit(
        "failed",
        if problems.is_empty() {
            0.0
        } else {
            unique.len() as f64
        },
    );
    println!("@digest {:016x}", dir_digest(&cold_dir));
}

/// Print `rows` (layer, self seconds) ranked by share of `wall`, with
/// their total, as report lines.
fn ranked_table(title: &str, wall: f64, rows: &[(&str, f64)]) {
    let mut rows: Vec<(&str, f64)> = rows.iter().copied().filter(|r| r.1 > 0.0).collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    say(&format!("{title}: traced wall {wall:.3} s"));
    say(&format!(
        "  {:<22} {:>10} {:>8}",
        "layer (self time)", "seconds", "share"
    ));
    let mut sum = 0.0;
    for (name, s) in &rows {
        sum += s;
        say(&format!(
            "  {name:<22} {s:>10.4} {:>7.1}%",
            100.0 * s / wall
        ));
    }
    say(&format!(
        "  {:<22} {sum:>10.4} {:>7.1}%",
        "total",
        100.0 * sum / wall
    ));
}

/// Self-time rows of the traced units accepted by `keep`, plus those
/// units' summed wall time and outermost-span time.
fn unit_rows(rec: &Recording, keep: impl Fn(&str) -> bool) -> (Vec<(&'static str, f64)>, f64, f64) {
    let units: Vec<_> = rec.units.iter().filter(|u| keep(&u.label)).collect();
    let rows = Layer::ALL
        .iter()
        .map(|&l| (l.name(), units.iter().map(|u| secs(u.self_time(l))).sum()))
        .collect();
    let wall = units.iter().map(|u| secs(u.wall())).sum();
    let top = units.iter().map(|u| secs(u.top)).sum();
    (rows, wall, top)
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// One traced pass of busy_full through [`TracedSim`].
pub fn traced_sim_pass(seed: u64, trace_file: &Path) {
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut counts: Vec<LayerCounts> = Vec::new();
    let (mut replay_s, mut loads, mut lines) = (0.0, 0u64, 0u64);
    let mut replay_time = Duration::ZERO;
    span::start();
    let t_pass = Instant::now();
    for &bench in BUSY {
        span::begin_unit(format!("gen {bench}"));
        let kernel = {
            let _s = span::span(Layer::Gen);
            benchmark(bench, Scale::Full, seed).generate()
        };
        for &kind in BUSY_KINDS {
            attempted += 1;
            span::begin_unit(label(bench, kind));
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let machine = {
                    let _s = span::span(Layer::SimNew);
                    TracedSim::new(run_config(&kernel, kind), &kernel)
                };
                machine.run()
            }));
            span::end_unit();
            match outcome {
                Ok(o) => {
                    emit_op(
                        &label(bench, kind),
                        o.counts.inject_failed == 0,
                        None,
                        &o.work(),
                    );
                    failed += (o.counts.inject_failed > 0) as u64;
                    counts.push(o.counts);
                }
                Err(e) => {
                    failed += 1;
                    emit_op(&label(bench, kind), false, None, &[]);
                    say(&format!(
                        "FAILED traced {}: {}",
                        label(bench, kind),
                        panic_text(e)
                    ));
                }
            }
        }
        let t = Instant::now();
        let (s, l, n) = replay_coalescer(&kernel);
        replay_time += t.elapsed();
        replay_s += s;
        loads += l;
        lines += n;
    }
    let wall = secs(t_pass.elapsed().saturating_sub(replay_time));
    let rec = span::finish();
    if let Err(e) = rec.write_jsonl(trace_file) {
        say(&format!("cannot write {}: {e}", trace_file.display()));
    }
    let (rows, _, top) = unit_rows(&rec, |_| true);
    let layer = |l: Layer| rows[l as usize].1;
    let picks: u64 = rec.units.iter().map(|u| u.count(Count::PickCalls)).sum();
    let hits: u64 = rec.units.iter().map(|u| u.count(Count::PickHits)).sum();
    let sum = |field: fn(&LayerCounts) -> u64| counts.iter().map(field).sum::<u64>();
    let v: Vec<(&str, f64)> = vec![
        ("workloads.gen_s", layer(Layer::Gen)),
        ("workloads.kernels", BUSY.len() as f64),
        ("sim.new_s", layer(Layer::SimNew)),
        ("gpu.sm.self_s", layer(Layer::Sm)),
        ("gpu.sm.calls", sum(|c| c.sm_ticks) as f64),
        ("gpu.sm.insns", sum(|c| c.sm_insns) as f64),
        ("gpu.sm.reqs_out", sum(|c| c.sm_reqs_out) as f64),
        (
            "gpu.sm.l1_hit_rate",
            ratio(sum(|c| c.l1_hits), sum(|c| c.l1_accesses)),
        ),
        (
            "gpu.coalescer.ns_per_load",
            1e9 * replay_s / loads.max(1) as f64,
        ),
        ("gpu.coalescer.lines_per_load", ratio(lines, loads)),
        ("gpu.xbar.req.self_s", layer(Layer::XbarReq)),
        ("gpu.xbar.resp.self_s", layer(Layer::XbarResp)),
        (
            "gpu.xbar.req.delivered",
            sum(|c| c.xbar_req_delivered) as f64,
        ),
        (
            "gpu.xbar.req.deliver_yield",
            ratio(sum(|c| c.xbar_req_delivered), sum(|c| c.xbar_req_checks)),
        ),
        ("gpu.xbar.inject_failed", sum(|c| c.inject_failed) as f64),
        ("partition.self_s", layer(Layer::Partition)),
        (
            "partition.l2_hit_rate",
            ratio(sum(|c| c.l2_hits), sum(|c| c.l2_accesses)),
        ),
        (
            "partition.input_full_frac",
            ratio(sum(|c| c.input_full), sum(|c| c.partition_cycles)),
        ),
        ("memctrl.self_s", layer(Layer::Memctrl)),
        ("memctrl.dram_reads", sum(|c| c.dram_reads) as f64),
        ("memctrl.dram_writes", sum(|c| c.dram_writes) as f64),
        ("memctrl.drain_cycles", sum(|c| c.drain_cycles) as f64),
        (
            "memctrl.read_latency_cyc",
            ratio(sum(|c| c.read_latency_sum), sum(|c| c.read_latency_cnt)),
        ),
        ("policy.pick_s", layer(Layer::PolicyPick)),
        ("policy.pick_calls", picks as f64),
        ("policy.pick_yield", ratio(hits, picks)),
        ("policy.other_s", layer(Layer::PolicyOther)),
        ("coord.self_s", layer(Layer::Coord)),
        ("coord.msgs", sum(|c| c.coord_msgs) as f64),
        ("hub.next_event_s", layer(Layer::HubNextEvent)),
        ("hub.skip_s", layer(Layer::HubSkip)),
        (
            "hub.skipped_frac",
            ratio(
                sum(|c| c.skipped_cycles),
                sum(|c| c.skipped_cycles + c.stepped_cycles),
            ),
        ),
        ("trace.unattributed_s", wall - top),
    ];
    let mut table = rows.clone();
    table.push(("unattributed", wall - top));
    ranked_table("busy_full hot layers", wall, &table);
    for &kind in BUSY_KINDS {
        let suffix = format!("/{}", kind.name());
        let (mut rows, wall, top) = unit_rows(&rec, |l| l.ends_with(&suffix));
        rows.push(("unattributed", wall - top));
        ranked_table(
            &format!("busy_full hot layers, {} runs", kind.name()),
            wall,
            &rows,
        );
    }
    emit_traced(wall, &v, attempted, failed);
}

/// Report a traced pass: its wall time, its per-layer values (among them
/// `trace.unattributed_s`, the traced wall outside every layer span) and
/// its op counts.
fn emit_traced(wall: f64, values: &[(&str, f64)], attempted: u64, failed: u64) {
    emit("traced_wall_s", wall);
    for (name, x) in values {
        emit(name, *x);
    }
    emit("attempted", attempted as f64);
    emit("failed", failed as f64);
}

/// What one traced sweep did, phase by phase. Worker-side durations are
/// summed over workers; the phases' walls are main-thread time.
struct SweepTrace {
    store: CellStore,
    unique: usize,
    key_s: f64,
    load_s: f64,
    rows: usize,
    skipped: usize,
    kernels: Vec<KernelProgram>,
    gen_s: Vec<f64>,
    gen_wall: f64,
    cell_s: Vec<f64>,
    append_s: f64,
    run_wall: f64,
    tail_s: f64,
    failed: Vec<String>,
    spans: Vec<String>,
}

/// `run_sweep`, rebuilt from the public pieces it is made of — `Cell::key`,
/// `ShardMap`, `parse_cache_line`, `benchmark().generate()`,
/// `run_one_kernel`, `cache_row` — with each piece timed.
fn traced_sweep(cells: &[Cell], cache: &Path, origin: Instant, tag: &str) -> SweepTrace {
    let opts = RunOpts::default();
    let at = |i: Instant| secs(i.duration_since(origin));
    let mut spans = Vec::new();
    let mut span_line = |name: &str, id: usize, label: &str, start: f64, end: f64| {
        spans.push(
            ldsim_util::JsonObject::new()
                .str("span", name)
                .u64("id", id as u64)
                .str("label", label)
                .str("parent", tag)
                .f64("start_s", start)
                .f64("end_s", end)
                .build(),
        );
    };
    let t = Instant::now();
    let (unique, by_key) = dedupe(cells, opts);
    let key_s = secs(t.elapsed());
    span_line("sweep.key", 0, tag, at(t), at(t) + key_s);
    let t = Instant::now();
    let map = ShardMap::open(cache, DEFAULT_SHARDS);
    let mut store = CellStore::new(opts);
    let (mut rows, mut skipped) = (0, 0);
    for path in map.shard_paths() {
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            match parse_cache_line(line, ENGINE_SALT, &by_key, opts) {
                Some((cell, r)) => {
                    store.insert(&cell, r);
                    rows += 1;
                }
                None => skipped += 1,
            }
        }
    }
    let load_s = secs(t.elapsed());
    span_line("store.load", 0, tag, at(t), at(t) + load_s);
    let to_run: Vec<Cell> = unique
        .iter()
        .copied()
        .filter(|c| !store.contains(c))
        .collect();
    let mut ids: Vec<(&'static str, Scale, u64)> = Vec::new();
    for c in &to_run {
        if !ids.contains(&(c.bench, c.scale, c.seed)) {
            ids.push((c.bench, c.scale, c.seed));
        }
    }
    let t = Instant::now();
    let generated = parallel_map(ids.clone(), |(b, s, seed)| {
        let t0 = Instant::now();
        let k = benchmark(b, s, seed).generate();
        (k, at(t0), at(t0) + secs(t0.elapsed()))
    });
    let gen_wall = secs(t.elapsed());
    let mut kernels = Vec::with_capacity(generated.len());
    let mut gen_s = Vec::with_capacity(generated.len());
    for (i, (k, start, end)) in generated.into_iter().enumerate() {
        span_line("workloads.gen", i, ids[i].0, start, end);
        gen_s.push(end - start);
        kernels.push(k);
    }
    let t = Instant::now();
    let ran = parallel_map(to_run, |cell| {
        let t0 = Instant::now();
        let k = ids
            .iter()
            .position(|&id| id == (cell.bench, cell.scale, cell.seed))
            .expect("every cell's kernel was generated");
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_one_kernel(
                &kernels[k],
                cell.bench,
                cell.scale,
                cell.seed,
                cell.kind,
                |cfg| cell.tweak.apply(cfg),
            )
        }))
        .map_err(panic_text);
        let t1 = Instant::now();
        if let Ok(r) = &result {
            map.append(cell.key(opts), &cache_row(&cell, opts, ENGINE_SALT, r));
        }
        let end = at(t1) + secs(t1.elapsed());
        (
            cell,
            result,
            std::thread::current().id(),
            at(t0),
            at(t1),
            end,
        )
    });
    let run_wall = secs(t.elapsed());
    let phase_end = at(t) + run_wall;
    let (mut cell_s, mut append_s, mut failed) = (Vec::new(), 0.0, Vec::new());
    let mut last_end: Vec<(std::thread::ThreadId, f64)> = Vec::new();
    for (i, (cell, result, thread, t0, t1, t2)) in ran.into_iter().enumerate() {
        let name = format!("{}/{}/{:?}", cell.bench, cell.kind.name(), cell.tweak);
        span_line("runner.cell", i, &name, t0, t1);
        span_line("store.append", i, &name, t1, t2);
        cell_s.push(t1 - t0);
        append_s += t2 - t1;
        match last_end.iter_mut().find(|(th, _)| *th == thread) {
            Some(e) => e.1 = e.1.max(t2),
            None => last_end.push((thread, t2)),
        }
        match result {
            Ok(r) => store.insert(&cell, r),
            Err(e) => failed.push(format!("{name}: {e}")),
        }
    }
    let workers = ldsim_util::jobs().min(cell_s.len());
    let tail_s = match last_end.iter().map(|e| e.1).reduce(f64::min) {
        Some(first_idle) if last_end.len() == workers => phase_end - first_idle,
        _ => run_wall,
    };
    SweepTrace {
        store,
        unique: unique.len(),
        key_s,
        load_s,
        rows,
        skipped,
        kernels,
        gen_s,
        gen_wall,
        cell_s,
        append_s,
        run_wall,
        tail_s,
        failed,
        spans,
    }
}

/// One traced pass of repro_small: a cold traced sweep into an empty cell
/// store and its render into `dir/cold`, then a warm traced sweep and its
/// render into `dir/warm`.
pub fn traced_repro_pass(seed: u64, dir: &Path, trace_file: &Path) {
    let origin = Instant::now();
    let t = Instant::now();
    let specs = registry(Scale::Small, seed);
    let registry_s = secs(t.elapsed());
    let cells: Vec<Cell> = specs.iter().flat_map(|s| s.cells.iter().copied()).collect();
    let cache = dir.join("cellcache");
    let _ = std::fs::remove_dir_all(&cache);
    let cold = traced_sweep(&cells, &cache, origin, "cold");
    let (cold_dir, warm_dir) = (dir.join("cold"), dir.join("warm"));
    let t = Instant::now();
    let cold_render = render_all(&specs, &cold.store, &cold_dir);
    let render_cold_s = secs(t.elapsed());
    let warm = traced_sweep(&cells, &cache, origin, "warm");
    let t = Instant::now();
    let warm_render = render_all(&specs, &warm.store, &warm_dir);
    let render_s = render_cold_s + secs(t.elapsed());
    let wall = secs(origin.elapsed());
    let mut problems = cold.failed.clone();
    if cold.rows != 0 || cold.cell_s.len() != cold.unique {
        problems.push(format!(
            "cold sweep simulated {} of {}",
            cold.cell_s.len(),
            cold.unique
        ));
    }
    if warm.rows != warm.unique || !warm.cell_s.is_empty() {
        problems.push(format!(
            "warm sweep loaded {} of {}",
            warm.rows, warm.unique
        ));
    }
    if let Err(e) = cold_render
        .and(warm_render)
        .and_then(|()| same_files(&cold_dir, &warm_dir))
    {
        problems.push(format!("traced renders: {e}"));
    }
    for p in &problems {
        say(&format!("FAILED {p}"));
    }
    let (mut replay_s, mut loads, mut lines) = (0.0, 0u64, 0u64);
    for k in &cold.kernels {
        let (s, l, n) = replay_coalescer(k);
        replay_s += s;
        loads += l;
        lines += n;
    }
    let gen: f64 = cold.gen_s.iter().sum();
    let cells_run: f64 = cold.cell_s.iter().sum();
    let gen_workers = ldsim_util::jobs().min(cold.gen_s.len()).max(1) as f64;
    let workers = ldsim_util::jobs().min(cold.cell_s.len()).max(1) as f64;
    // Worker time counts as wall time shared over the phase's workers; the
    // capacity the workers left idle is the pool's own share.
    let mut rows: Vec<(&str, f64)> = vec![
        ("figures.registry", registry_s),
        ("sweep.key", cold.key_s + warm.key_s),
        ("store.load", cold.load_s + warm.load_s),
        ("workloads.gen", gen / gen_workers),
        ("runner", cells_run / workers),
        ("store.append", cold.append_s / workers),
        (
            "par",
            (cold.gen_wall - gen / gen_workers)
                + (cold.run_wall - (cells_run + cold.append_s) / workers),
        ),
        ("render", render_s),
    ];
    let accounted: f64 = rows.iter().map(|r| r.1).sum();
    rows.push(("unattributed", wall - accounted));
    ranked_table("repro_small hot layers", wall, &rows);
    let v: Vec<(&str, f64)> = vec![
        ("workloads.gen_s", gen),
        ("workloads.kernels", cold.kernels.len() as f64),
        (
            "gpu.coalescer.ns_per_load",
            1e9 * replay_s / loads.max(1) as f64,
        ),
        ("gpu.coalescer.lines_per_load", ratio(lines, loads)),
        ("runner.cells", cold.cell_s.len() as f64),
        ("runner.cell_s.p50", quantile(&cold.cell_s, 0.5)),
        ("runner.cell_s.p90", quantile(&cold.cell_s, 0.9)),
        ("par.busy_frac", cells_run / (workers * cold.run_wall)),
        ("par.tail_s", cold.tail_s),
        ("sweep.key_s", cold.key_s + warm.key_s),
        ("sweep.cells_unique", cold.unique as f64),
        ("store.append_s", cold.append_s),
        ("store.load_s", warm.load_s),
        ("store.rows", warm.rows as f64),
        (
            "store.bytes",
            ShardMap::open(&cache, DEFAULT_SHARDS).total_bytes() as f64,
        ),
        ("store.skipped_rows", warm.skipped as f64),
        (
            "store.hit_ratio",
            ratio(warm.rows as u64, warm.unique as u64),
        ),
        ("render_s", render_cold_s),
        ("trace.unattributed_s", wall - accounted),
    ];
    let spans: Vec<&String> = cold.spans.iter().chain(&warm.spans).collect();
    let text: String = spans.iter().map(|s| format!("{s}\n")).collect();
    if let Err(e) = std::fs::write(trace_file, text) {
        say(&format!("cannot write {}: {e}", trace_file.display()));
    }
    let failed = if problems.is_empty() {
        0
    } else {
        cold.unique as u64
    };
    emit_traced(wall, &v, cold.unique as u64, failed);
}
