//! The global sweep orchestrator: one pass over every figure's cells, with
//! a content-addressed result cache.
//!
//! The paper's evidence is a dozen figures and tables built from heavily
//! overlapping (benchmark × scheduler × scale × seed × config) grids.
//! Running each figure on its own would re-simulate the shared cells once
//! per figure and regenerate every kernel per run. This module turns the
//! whole reproduction into one job:
//!
//! 1. every figure/table declares its grid as a data-only [`FigureSpec`]
//!    (a list of [`Cell`]s plus a render closure over a shared
//!    [`CellStore`]);
//! 2. [`run_sweep`] dedupes cells *globally across figures* by
//!    content-addressed key, consults the crash-safe cache, generates each
//!    distinct kernel once, and runs the remaining unique cells through one
//!    work-stealing [`parallel_map`] pass;
//! 3. each figure renders from the shared store, reading only its own
//!    cells — so one figure swept alone renders the same bytes.
//!
//! ## Cell-key contract
//!
//! A cell's key is FNV-1a over the [`ENGINE_SALT`], the benchmark name,
//! scale, seed, and the *fingerprint of the fully-resolved* [`SimConfig`]
//! (scheduler, run options, and [`CfgTweak`] applied). Two cells with the
//! same key are the same simulation by construction — a tweak that resolves
//! to the default config (e.g. `GmcMaxStreak(16)`) dedupes against the
//! untweaked cell, which is correct: the config *is* the semantics. Only
//! two knobs are excluded from the fingerprint: `instruction_limit`, which
//! the runner derives deterministically from (benchmark, scale, seed) —
//! already part of the key — and `sim_threads`, which changes how a cell is
//! executed but (provably, see tests/threaded.rs) not a bit of what it
//! computes. [`CfgTweak`] is a closed enum (not a closure) precisely so no
//! tweak can sneak an unhashed knob past the key.
//!
//! ## Cache & resume semantics
//!
//! Completed cells append one self-describing JSONL row to their shard of
//! the cache directory ([`crate::shard::ShardMap`]) as they finish (single
//! `write` per row, so a crash leaves at most one torn final line, which
//! the loader skips). Rows are trusted only if their engine salt matches
//! [`ENGINE_SALT`] *and* their key re-derives from a currently-requested
//! cell — stale entries self-invalidate and simply get re-simulated. Re-running after a crash therefore resumes exactly where
//! the sweep died, and a fully-warm run renders every figure without
//! simulating at all.

use crate::metrics::RunResult;
use crate::runner::{run_one_kernel, run_opts, RunOpts};
use crate::shard::ShardMap;
use ldsim_types::clock::ClockDomain;
use ldsim_types::config::{
    CacheConfig, GpuConfig, MemConfig, PagePolicy, Preset, SchedulerKind, SimConfig, TimingParams,
};
use ldsim_types::kernel::KernelProgram;
use ldsim_util::{parallel_map, Fnv64, FnvHashMap, FnvHashSet};
use ldsim_workloads::{benchmark, Scale};
use std::path::Path;

/// Engine-version salt folded into every cell key. Bump it whenever a
/// change alters simulation *results* (scheduler behaviour, timing, metric
/// definitions, workload generation) so every cached cell self-invalidates;
/// leave it alone for pure orchestration/rendering changes. The bit-exact
/// test ladders (fastforward, determinism) and the ladderhash goldens are
/// the guide: if they needed re-blessing, bump the salt.
pub const ENGINE_SALT: &str = "ldsim-engine-2026-08-07";

/// Shard count of a fresh cell cache; an existing cache keeps the count
/// its `shards.meta` records. 8 shards keep individual files small at Full
/// scale while staying trivial to eyeball in a directory listing.
pub const DEFAULT_SHARDS: usize = 8;

/// A data-only configuration variation — everything the figure/ablation
/// grids tweak beyond the scheduler. Closed enum, not a closure: the sweep
/// must be able to *hash* a cell's full configuration, and an arbitrary
/// `Fn(&mut SimConfig)` cannot be content-addressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CfgTweak {
    /// The figure grids' common case: scheduler only, defaults otherwise.
    None,
    /// Fig. 4's ideal coalescer (one request per load).
    PerfectCoalescing,
    /// Ablation 1: WG-M coordination-network hop latency.
    CoordLatency(u64),
    /// Ablation 2: write-drain watermarks.
    WriteWatermarks { hi: usize, lo: usize },
    /// Ablation 3: flat tCCD (no bank groups) — tCCDS raised to tCCDL.
    FlatCcd,
    /// Ablation 4: periodic refresh disabled.
    RefreshOff,
    /// Ablation 4: closed-page (auto-precharge) row management.
    ClosedPage,
    /// Ablation 5: GMC row-hit streak cap.
    GmcMaxStreak(usize),
    /// Calibration: bypass the L2 slices (microbench `mb_bypass` cells).
    L2Bypass,
    /// Run on a different DRAM backend (GDDR3/GDDR6/HBM device description
    /// and command clock; controller policy knobs untouched). The preset is
    /// an ordinary cell dimension: `Backend(Preset::Gddr5)` resolves to the
    /// default machine and therefore dedupes against untweaked cells.
    Backend(Preset),
}

impl CfgTweak {
    /// Apply this variation to a config (scheduler already set).
    pub fn apply(&self, cfg: &mut SimConfig) {
        match *self {
            CfgTweak::None => {}
            CfgTweak::PerfectCoalescing => cfg.perfect_coalescing = true,
            CfgTweak::CoordLatency(lat) => cfg.mem.coord_latency = lat,
            CfgTweak::WriteWatermarks { hi, lo } => {
                cfg.mem.write_hi = hi;
                cfg.mem.write_lo = lo;
            }
            CfgTweak::FlatCcd => cfg.mem.timing.t_ccds_ck = cfg.mem.timing.t_ccdl_ck,
            CfgTweak::RefreshOff => cfg.mem.refresh_enabled = false,
            CfgTweak::ClosedPage => cfg.mem.page_policy = PagePolicy::Closed,
            CfgTweak::GmcMaxStreak(n) => cfg.mem.gmc_max_streak = n,
            CfgTweak::L2Bypass => cfg.gpu.l2_bypass = true,
            CfgTweak::Backend(p) => p.apply(cfg),
        }
    }
}

/// One (benchmark × scheduler × scale × seed × tweak) simulation, as data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    pub bench: &'static str,
    pub scale: Scale,
    pub seed: u64,
    pub kind: SchedulerKind,
    pub tweak: CfgTweak,
}

impl Cell {
    /// An untweaked cell — the overwhelmingly common case.
    pub fn new(bench: &'static str, scale: Scale, seed: u64, kind: SchedulerKind) -> Self {
        Self {
            bench,
            scale,
            seed,
            kind,
            tweak: CfgTweak::None,
        }
    }

    pub fn with_tweak(mut self, tweak: CfgTweak) -> Self {
        self.tweak = tweak;
        self
    }

    /// The fully-resolved configuration this cell runs under, minus the
    /// kernel-derived `instruction_limit`. Mirrors the runner's resolution
    /// order exactly: defaults → scheduler → run options → tweak.
    pub fn config(&self, opts: RunOpts) -> SimConfig {
        let mut cfg = SimConfig::default().with_scheduler(self.kind);
        cfg.audit = opts.audit;
        cfg.trace = opts.trace;
        cfg.hist = opts.hist;
        self.tweak.apply(&mut cfg);
        cfg
    }

    /// Content-addressed cache key: FNV-1a over the engine salt, the
    /// workload coordinates, and the resolved-config fingerprint.
    pub fn key(&self, opts: RunOpts) -> u64 {
        let mut h = Fnv64::new();
        h.write(ENGINE_SALT.as_bytes());
        h.write(self.bench.as_bytes());
        h.write_u8(self.scale as u8);
        h.write_u64(self.seed);
        h.write_u64(config_fingerprint(&self.config(opts)));
        h.finish()
    }
}

/// Stable FNV-1a digest over every [`SimConfig`] knob (except the
/// kernel-derived `instruction_limit` — see the module docs). Any default
/// change, tweak, or scheduler switch changes the fingerprint, so cached
/// cells keyed on it self-invalidate.
///
/// Exhaustive *by construction*: every config struct is fully destructured
/// (no `..` rest patterns), so adding a field to `SimConfig`, `GpuConfig`,
/// `CacheConfig`, `MemConfig`, `TimingParams`, or `ClockDomain` without
/// deciding how it fingerprints is a compile error (E0027), not a silent
/// stale-cache hazard. The hash write order is frozen — it is the cache-key
/// wire format, pinned by a test; append new fields at the end of their
/// section and bump [`ENGINE_SALT`] only if the *semantics* changed.
pub fn config_fingerprint(cfg: &SimConfig) -> u64 {
    // Three deliberate exclusions: `instruction_limit`, which the runner
    // derives deterministically from (benchmark, scale, seed) — already
    // part of the cell key — and `sim_threads` / `epoch_max`, which are
    // execution strategy, not semantics: the threaded partition pool and
    // every epoch window length are pinned bit-exact against the serial
    // one-cycle reference cadence (tests/threaded.rs), so a cached cell is
    // valid at any thread count and any epoch cadence.
    let SimConfig {
        gpu,
        mem,
        scheduler,
        perfect_coalescing,
        max_cycles,
        instruction_limit: _,
        clock,
        audit,
        trace,
        fast_forward,
        hist,
        sim_threads: _,
        epoch_max: _,
    } = cfg;
    let mut h = Fnv64::new();
    // GPU side.
    let GpuConfig {
        num_sms,
        warp_size,
        max_warps_per_sm,
        l1,
        l2_slice,
        xbar_latency,
        xbar_queue,
        l2_bypass,
    } = gpu;
    h.write_u64(*num_sms as u64)
        .write_u64(*warp_size as u64)
        .write_u64(*max_warps_per_sm as u64)
        .write_u64(*xbar_latency)
        .write_u64(*xbar_queue as u64)
        .write_u8(*l2_bypass as u8);
    for c in [l1, l2_slice] {
        let CacheConfig {
            size_bytes,
            line_bytes,
            ways,
            mshr_entries,
            latency,
        } = c;
        h.write_u64(*size_bytes as u64)
            .write_u64(*line_bytes as u64)
            .write_u64(*ways as u64)
            .write_u64(*mshr_entries as u64)
            .write_u64(*latency);
    }
    // Memory side.
    let MemConfig {
        num_channels,
        banks_per_channel,
        banks_per_group,
        row_bytes,
        read_queue,
        write_queue,
        write_hi,
        write_lo,
        timing,
        coord_latency,
        gmc_max_streak,
        gmc_age_threshold,
        wgw_margin,
        bursts_per_access,
        page_policy,
        refresh_enabled,
    } = mem;
    h.write_u64(*num_channels as u64)
        .write_u64(*banks_per_channel as u64)
        .write_u64(*banks_per_group as u64)
        .write_u64(*row_bytes as u64)
        .write_u64(*read_queue as u64)
        .write_u64(*write_queue as u64)
        .write_u64(*write_hi as u64)
        .write_u64(*write_lo as u64)
        .write_u64(*coord_latency)
        .write_u64(*gmc_max_streak as u64)
        .write_u64(*gmc_age_threshold)
        .write_u64(*wgw_margin as u64)
        .write_u64(*bursts_per_access)
        .write_u8(match page_policy {
            PagePolicy::Open => 0,
            PagePolicy::Closed => 1,
        })
        .write_u8(*refresh_enabled as u8)
        // The byte of a retired flag (reference-scan picks), always off:
        // writing it keeps every cell key where it was.
        .write_u8(0);
    let TimingParams {
        t_rc_ns,
        t_rcd_ns,
        t_rp_ns,
        t_cas_ns,
        t_ras_ns,
        t_rrd_ns,
        t_wtr_ns,
        t_faw_ns,
        t_rtp_ns,
        t_wr_ns,
        t_refi_ns,
        t_rfc_ns,
        t_wl_ck,
        t_burst_ck,
        t_rtrs_ck,
        t_ccdl_ck,
        t_ccds_ck,
    } = timing;
    for ns in [
        t_rc_ns, t_rcd_ns, t_rp_ns, t_cas_ns, t_ras_ns, t_rrd_ns, t_wtr_ns, t_faw_ns, t_rtp_ns,
        t_wr_ns, t_refi_ns, t_rfc_ns,
    ] {
        h.write_f64(*ns);
    }
    for ck in [t_wl_ck, t_burst_ck, t_rtrs_ck, t_ccdl_ck, t_ccds_ck] {
        h.write_u64(*ck);
    }
    // Top level.
    let (sched, alpha) = match scheduler {
        SchedulerKind::Fcfs => (0u8, 0u8),
        SchedulerKind::FrFcfs => (1, 0),
        SchedulerKind::Gmc => (2, 0),
        SchedulerKind::Wafcfs => (3, 0),
        SchedulerKind::Sbwas { alpha_q } => (4, *alpha_q),
        SchedulerKind::Wg => (5, 0),
        SchedulerKind::WgM => (6, 0),
        SchedulerKind::WgBw => (7, 0),
        SchedulerKind::WgW => (8, 0),
        SchedulerKind::ZeroDivergence => (9, 0),
        SchedulerKind::ParBs => (10, 0),
        SchedulerKind::AtlasLite => (11, 0),
        SchedulerKind::WgShared => (12, 0),
    };
    let ClockDomain { tck_ns } = clock;
    h.write_u8(sched)
        .write_u8(alpha)
        .write_u8(*perfect_coalescing as u8)
        .write_u64(*max_cycles)
        .write_f64(*tck_ns)
        .write_u8(*audit as u8)
        .write_u8(*trace as u8)
        .write_u8(*fast_forward as u8)
        .write_u8(*hist as u8);
    h.finish()
}

/// The shared result store every figure renders from: cell key →
/// [`RunResult`], under the run options the sweep was planned with.
#[derive(Debug)]
pub struct CellStore {
    opts: RunOpts,
    map: FnvHashMap<u64, RunResult>,
}

impl CellStore {
    pub fn new(opts: RunOpts) -> Self {
        Self {
            opts,
            map: FnvHashMap::default(),
        }
    }

    pub fn insert(&mut self, cell: &Cell, result: RunResult) {
        self.map.insert(cell.key(self.opts), result);
    }

    pub fn contains(&self, cell: &Cell) -> bool {
        self.map.contains_key(&cell.key(self.opts))
    }

    /// Fetch a cell's result; panics naming the cell if it was never
    /// declared — a figure reading a cell outside its spec is a bug, not a
    /// recoverable condition.
    pub fn get(&self, cell: &Cell) -> &RunResult {
        self.map.get(&cell.key(self.opts)).unwrap_or_else(|| {
            panic!(
                "cell not in store: {}/{:?} scale {:?} seed {} tweak {:?} — \
                 was it declared in the figure's spec?",
                cell.bench, cell.kind, cell.scale, cell.seed, cell.tweak
            )
        })
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// One figure or table: its simulation grid as data, plus the render step
/// that turns shared-store cells into the binary's exact stdout and
/// `results/<name>.jsonl` bytes. `render` receives the store and the
/// results directory to write into.
pub struct FigureSpec {
    pub name: &'static str,
    pub cells: Vec<Cell>,
    #[allow(clippy::type_complexity)]
    pub render: Box<dyn Fn(&CellStore, &Path) + Send + Sync>,
}

/// How a sweep executes: where the cache lives, which salt validates it,
/// and the test-only crash injection.
pub struct SweepConfig<'a> {
    /// Where completed cells persist; `None` disables caching (`repro
    /// --hist`, `histreport`, and tests that must not touch disk).
    /// The path is a *shard directory* ([`crate::shard::ShardMap`]) of
    /// files partitioned by cellkey, [`DEFAULT_SHARDS`] of them when fresh.
    pub cache_path: Option<&'a Path>,
    /// Salt cached rows must carry. Production always passes
    /// [`ENGINE_SALT`]; tests pass a different salt to prove invalidation.
    pub salt: &'a str,
    /// Stop after simulating this many cells (cache rows for them are
    /// already appended) — the crash-resume tests' kill switch.
    pub max_simulated: Option<usize>,
}

impl Default for SweepConfig<'_> {
    fn default() -> Self {
        Self {
            cache_path: None,
            salt: ENGINE_SALT,
            max_simulated: None,
        }
    }
}

/// What a sweep did, for logging and the resume/invalidation tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepStats {
    /// Cells declared across all specs (with duplicates).
    pub declared: usize,
    /// Unique cells after global dedup.
    pub unique: usize,
    /// Unique cells satisfied from the cache.
    pub from_cache: usize,
    /// Unique cells actually simulated this run.
    pub simulated: usize,
    /// Cache lines skipped: wrong salt, torn/corrupt, or not requested.
    pub skipped_lines: usize,
}

/// `cells` deduped by content-addressed key under `opts`, with their keys,
/// in first-declaration order (a stable, resumable work list).
fn unique_cells(cells: &[Cell], opts: RunOpts) -> Vec<(u64, Cell)> {
    let mut seen = FnvHashSet::default();
    cells
        .iter()
        .map(|&c| (c.key(opts), c))
        .filter(|&(key, _)| seen.insert(key))
        .collect()
}

/// Run every unique cell of `cells` (deduped by content-addressed key),
/// consulting and appending to the cache per `cfg`, and return the shared
/// store plus what happened. Panics on simulation integrity failures
/// (dropped requests, audit violations, conservation, instruction-count
/// mismatches).
pub fn run_sweep(cells: &[Cell], cfg: &SweepConfig) -> (CellStore, SweepStats) {
    let opts = run_opts();
    let mut store = CellStore::new(opts);
    let mut stats = SweepStats {
        declared: cells.len(),
        unique: 0,
        from_cache: 0,
        simulated: 0,
        skipped_lines: 0,
    };

    let keyed = unique_cells(cells, opts);
    let by_key: FnvHashMap<u64, Cell> = keyed.iter().copied().collect();
    let unique: Vec<Cell> = keyed.into_iter().map(|(_, c)| c).collect();
    stats.unique = unique.len();

    // Warm start: absorb every valid, currently-requested cache row.
    let cache = cfg
        .cache_path
        .map(|path| ShardMap::open(path, DEFAULT_SHARDS));
    if let Some(map) = &cache {
        stats.skipped_lines = map
            .shard_paths()
            .iter()
            .map(|p| load_cache(p, cfg.salt, &by_key, opts, &mut store))
            .sum();
        stats.from_cache = store.len();
    }

    let mut to_run: Vec<Cell> = unique
        .iter()
        .copied()
        .filter(|c| !store.contains(c))
        .collect();
    if let Some(limit) = cfg.max_simulated {
        to_run.truncate(limit);
    }

    // Generate each distinct kernel once, in parallel, then run the unique
    // cells through one work-stealing pass sharing the kernels read-only.
    let mut kernel_ids: Vec<(&'static str, Scale, u64)> = Vec::new();
    for c in &to_run {
        let id = (c.bench, c.scale, c.seed);
        if !kernel_ids.contains(&id) {
            kernel_ids.push(id);
        }
    }
    let generated = parallel_map(kernel_ids.clone(), |(b, s, seed)| {
        benchmark(b, s, seed).generate()
    });
    let kernels: FnvHashMap<_, KernelProgram> = kernel_ids.into_iter().zip(generated).collect();

    let salt = cfg.salt;
    let fresh: Vec<(Cell, RunResult)> = parallel_map(to_run, |cell| {
        let kernel = &kernels[&(cell.bench, cell.scale, cell.seed)];
        let result = run_one_kernel(
            kernel,
            cell.bench,
            cell.scale,
            cell.seed,
            cell.kind,
            |cfg| cell.tweak.apply(cfg),
        );
        if let Some(map) = &cache {
            assert!(
                result.hists.is_none(),
                "refusing to cache an armed-histogram run ({}/{:?}): \
                 distributions do not round-trip through the cell cache — \
                 sweep without a cache (`repro --hist`, histreport) instead",
                cell.bench,
                cell.kind
            );
            // ShardMap::append opens-appends-closes under the hood, so
            // concurrent workers only contend on the OS append lock.
            map.append(cell.key(opts), &cache_row(&cell, opts, salt, &result));
        }
        (cell, result)
    });
    stats.simulated = fresh.len();
    for (cell, result) in fresh {
        store.insert(&cell, result);
    }

    if cfg.max_simulated.is_none() {
        verify_instruction_consistency(&unique, &store);
    }
    (store, stats)
}

/// Serialise one completed cell as a self-describing cache line, the row
/// format of the shard store.
pub fn cache_row(cell: &Cell, opts: RunOpts, salt: &str, result: &RunResult) -> String {
    let result_json = result.to_json();
    format!(
        "{{\"cellkey\":\"{:016x}\",\"engine\":\"{}\",\"scale\":\"{:?}\",\"seed\":{},\
         \"cfg\":\"{:016x}\",{}\n",
        cell.key(opts),
        salt,
        cell.scale,
        cell.seed,
        config_fingerprint(&cell.config(opts)),
        &result_json[1..],
    )
}

/// Load every trustworthy cache row into the store; returns the number of
/// lines skipped (torn, corrupt, wrong salt, or not in the requested set).
fn load_cache(
    path: &Path,
    salt: &str,
    requested: &FnvHashMap<u64, Cell>,
    opts: RunOpts,
    store: &mut CellStore,
) -> usize {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return 0,
        Err(e) => panic!("cannot read cache {}: {e}", path.display()),
    };
    let mut skipped = 0usize;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_cache_line(line, salt, requested, opts) {
            Some((cell, result)) => store.insert(&cell, result),
            None => skipped += 1,
        }
    }
    skipped
}

/// Validate one cache line: parses, salt matches, its key re-derives from a
/// requested cell, and the stored benchmark/config agree with that cell
/// (belt and braces against key collisions and hand-edited files). This is
/// the one parser of the store's rows.
pub fn parse_cache_line(
    line: &str,
    salt: &str,
    requested: &FnvHashMap<u64, Cell>,
    opts: RunOpts,
) -> Option<(Cell, RunResult)> {
    let p = ldsim_util::parse_object(line).ok()?;
    if p.req_str("engine").ok()? != salt {
        return None;
    }
    let key = u64::from_str_radix(p.req_str("cellkey").ok()?, 16).ok()?;
    let cell = *requested.get(&key)?;
    let fingerprint = u64::from_str_radix(p.req_str("cfg").ok()?, 16).ok()?;
    if fingerprint != config_fingerprint(&cell.config(opts)) {
        return None;
    }
    let result = RunResult::from_json(line).ok()?;
    if result.benchmark != cell.bench {
        return None;
    }
    Some((cell, result))
}

/// The cross-scheduler invariant, applied globally: every untweaked cell
/// of one (benchmark, scale, seed) must have retired
/// the identical instruction count — schedulers saw the same workload under
/// the same budget, whether the number came from the cache or a fresh run.
fn verify_instruction_consistency(cells: &[Cell], store: &CellStore) {
    let mut first: FnvHashMap<(&str, Scale, u64), (&Cell, u64)> = FnvHashMap::default();
    for cell in cells {
        if cell.tweak != CfgTweak::None {
            continue;
        }
        let n = store.get(cell).instructions;
        match first.entry((cell.bench, cell.scale, cell.seed)) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert((cell, n));
            }
            std::collections::hash_map::Entry::Occupied(e) => {
                let (ref_cell, ref_n) = *e.get();
                assert_eq!(
                    n, ref_n,
                    "{}: {:?} retired a different instruction count than {:?} — \
                     schedulers did not see the same workload (stale cache?)",
                    cell.bench, cell.kind, ref_cell.kind
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::set_run_opts;
    use ldsim_workloads::Scale;

    fn cell(kind: SchedulerKind) -> Cell {
        Cell::new("bfs", Scale::Tiny, 7, kind)
    }

    /// Every row of the shard store at `dir`, in shard order.
    fn cache_rows(dir: &Path) -> Vec<String> {
        ShardMap::open(dir, DEFAULT_SHARDS)
            .shard_paths()
            .iter()
            .flat_map(|p| {
                let text = std::fs::read_to_string(p).unwrap_or_default();
                text.lines().map(str::to_owned).collect::<Vec<_>>()
            })
            .collect()
    }

    #[test]
    fn keys_are_stable_and_discriminating() {
        let opts = RunOpts::default();
        let a = cell(SchedulerKind::Gmc);
        assert_eq!(a.key(opts), a.key(opts), "key must be deterministic");
        assert_ne!(a.key(opts), cell(SchedulerKind::Wg).key(opts));
        assert_ne!(
            a.key(opts),
            Cell::new("bfs", Scale::Tiny, 8, SchedulerKind::Gmc).key(opts)
        );
        assert_ne!(
            a.key(opts),
            Cell::new("bfs", Scale::Small, 7, SchedulerKind::Gmc).key(opts)
        );
        assert_ne!(
            a.key(opts),
            Cell::new("spmv", Scale::Tiny, 7, SchedulerKind::Gmc).key(opts)
        );
        assert_ne!(
            a.key(opts),
            a.with_tweak(CfgTweak::RefreshOff).key(opts),
            "a config tweak must change the key"
        );
        let armed = RunOpts {
            trace: true,
            ..RunOpts::default()
        };
        assert_ne!(
            a.key(opts),
            a.key(armed),
            "run options change results, so they must change the key"
        );
        // SBWAS alpha is part of the scheduler identity.
        assert_ne!(
            cell(SchedulerKind::Sbwas { alpha_q: 1 }).key(opts),
            cell(SchedulerKind::Sbwas { alpha_q: 2 }).key(opts)
        );
    }

    #[test]
    fn default_valued_tweak_dedupes_against_untweaked() {
        // GmcMaxStreak(16) == the default: identical resolved config,
        // identical key — simulating it twice would be waste, not safety.
        let opts = RunOpts::default();
        let base = cell(SchedulerKind::Gmc);
        let tweaked = base.with_tweak(CfgTweak::GmcMaxStreak(16));
        assert_eq!(base.key(opts), tweaked.key(opts));
        assert_ne!(
            base.key(opts),
            base.with_tweak(CfgTweak::GmcMaxStreak(2)).key(opts)
        );
    }

    #[test]
    fn fingerprint_sees_every_knob_family() {
        let base = config_fingerprint(&SimConfig::default());
        let mut c = SimConfig::default();
        c.mem.write_hi = 33;
        assert_ne!(base, config_fingerprint(&c));
        let mut c = SimConfig::default();
        c.mem.timing.t_cas_ns = 13.0;
        assert_ne!(base, config_fingerprint(&c));
        let mut c = SimConfig::default();
        c.gpu.l2_slice.mshr_entries = 97;
        assert_ne!(base, config_fingerprint(&c));
        let c = SimConfig {
            fast_forward: false,
            ..SimConfig::default()
        };
        assert_ne!(base, config_fingerprint(&c));
    }

    /// The cache-key wire format, pinned: a fingerprint and cell keys as
    /// the write order above produces them. These literals change only
    /// with an [`ENGINE_SALT`] bump or a deliberate key-format change —
    /// a key that moves silently re-simulates every cached cell.
    #[test]
    fn cache_key_format_is_pinned() {
        assert_eq!(
            config_fingerprint(&SimConfig::default()),
            0x9973_ef4e_afc1_f0cc
        );
        assert_eq!(
            config_fingerprint(&SimConfig::default().with_scheduler(SchedulerKind::WgW)),
            0x9951_6896_0e94_b212
        );
        let opts = RunOpts::default();
        let c = Cell::new("spmv", Scale::Small, 1, SchedulerKind::WgW);
        assert_eq!(c.key(opts), 0x9ba4_7786_3315_d593);
        assert_eq!(
            c.with_tweak(CfgTweak::Backend(Preset::Hbm)).key(opts),
            0x924c_3e80_dad9_8119
        );
        assert_eq!(
            c.with_tweak(CfgTweak::ClosedPage).key(opts),
            0x2b55_3d75_a850_94b7
        );
    }

    #[test]
    fn backend_gddr5_dedupes_and_other_presets_split() {
        // Backend(Gddr5) resolves to the default machine: same config, same
        // key, no wasted simulation. Every other preset must split the key.
        let opts = RunOpts::default();
        let base = cell(SchedulerKind::Gmc);
        assert_eq!(
            base.key(opts),
            base.with_tweak(CfgTweak::Backend(Preset::Gddr5)).key(opts)
        );
        for p in [Preset::Gddr3, Preset::Gddr6, Preset::Hbm] {
            assert_ne!(
                base.key(opts),
                base.with_tweak(CfgTweak::Backend(p)).key(opts),
                "{} must not collide with the default machine",
                p.name()
            );
        }
    }

    #[test]
    fn presets_and_single_knobs_produce_distinct_fingerprints() {
        // Property over the whole timing/topology grammar: any two distinct
        // presets, and any single knob nudged off its default, must land on
        // distinct fingerprints. A collision anywhere here is a silent
        // stale-cache hazard.
        use ldsim_types::config::parse_timing_string;
        let mut prints: Vec<(String, u64)> =
            vec![("default".into(), config_fingerprint(&SimConfig::default()))];
        for p in Preset::ALL.iter().skip(1) {
            prints.push((
                p.name().to_string(),
                config_fingerprint(&SimConfig::default().with_preset(*p)),
            ));
        }
        // One single-key override per grammar knob, each off its default.
        for s in [
            "nch=5",
            "nbk=8",
            "nbkgrp=8",
            "row=1024",
            "bpa=4",
            "CK=1.5",
            "RC=41",
            "RCD=13",
            "RP=13",
            "CL=13",
            "RAS=29",
            "RRD=6",
            "WTR=6",
            "FAW=24",
            "RTP=3",
            "WR=13",
            "REFI=2000",
            "RFC=120",
            "WL=5",
            "BL=4",
            "RTRS=2",
            "CCDL=4",
            "CCDS=1",
        ] {
            let (mem, clock) = parse_timing_string(s).unwrap();
            let cfg = SimConfig {
                mem,
                clock,
                ..SimConfig::default()
            };
            prints.push((s.to_string(), config_fingerprint(&cfg)));
        }
        for i in 0..prints.len() {
            for j in (i + 1)..prints.len() {
                assert_ne!(
                    prints[i].1, prints[j].1,
                    "fingerprint collision: {} vs {}",
                    prints[i].0, prints[j].0
                );
            }
        }
    }

    #[test]
    fn preset_cells_partition_the_cache() {
        // Same benchmark, same knobs, different DRAM backend: the preset
        // dimension alone must partition the cell cache — a collision would
        // serve GDDR5 numbers as HBM numbers. Pin it end to end through the
        // shard store, like the microbench/CSR partition test below.
        let _guard = crate::runner::test_opts_lock();
        set_run_opts(RunOpts::default());
        let opts = RunOpts::default();
        let dir =
            std::env::temp_dir().join(format!("ldsim-preset-partition-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = dir.join("cellcache");
        let cells: Vec<Cell> = Preset::ALL
            .iter()
            .map(|&p| cell(SchedulerKind::Gmc).with_tweak(CfgTweak::Backend(p)))
            .collect();
        let mut keys: Vec<u64> = cells.iter().map(|c| c.key(opts)).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), cells.len(), "preset keys must be distinct");

        let cfg = SweepConfig {
            cache_path: Some(&cache),
            ..SweepConfig::default()
        };
        let (store, stats) = run_sweep(&cells, &cfg);
        assert_eq!(stats.simulated, 4, "all four backends must simulate cold");
        assert_eq!(cache_rows(&cache).len(), 4, "one cache row per backend");

        // Warm reload: each backend's row comes back under its own key.
        let (store2, stats2) = run_sweep(&cells, &cfg);
        assert_eq!(stats2.from_cache, 4);
        assert_eq!(stats2.simulated, 0);
        for c in &cells {
            assert_eq!(store2.get(c), store.get(c), "warm row must be bit-exact");
        }
        // And the backends genuinely differ: at least one metric moves.
        let lat: Vec<u64> = cells
            .iter()
            .map(|c| store.get(c).avg_effective_latency.round() as u64)
            .collect();
        assert!(
            lat.windows(2).any(|w| w[0] != w[1]),
            "different DRAM backends should not produce identical latencies: {lat:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_dedupes_and_caches_across_figures() {
        let _guard = crate::runner::test_opts_lock();
        set_run_opts(RunOpts::default());
        let dir = std::env::temp_dir().join(format!("ldsim-sweep-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = dir.join("cellcache");
        // Two "figures" sharing the bfs/Gmc cell.
        let cells = vec![
            cell(SchedulerKind::Gmc),
            cell(SchedulerKind::Wg),
            cell(SchedulerKind::Gmc), // duplicate across figures
        ];
        let cfg = SweepConfig {
            cache_path: Some(&cache),
            ..SweepConfig::default()
        };
        let (store, stats) = run_sweep(&cells, &cfg);
        assert_eq!(stats.declared, 3);
        assert_eq!(stats.unique, 2);
        assert_eq!(stats.from_cache, 0);
        assert_eq!(stats.simulated, 2);
        assert_eq!(store.len(), 2);
        let cold = store.get(&cell(SchedulerKind::Gmc)).clone();

        // Warm rerun: everything from cache, nothing simulated, identical
        // result bytes.
        let (store2, stats2) = run_sweep(&cells, &cfg);
        assert_eq!(stats2.from_cache, 2);
        assert_eq!(stats2.simulated, 0);
        assert_eq!(
            store2.get(&cell(SchedulerKind::Gmc)).to_json(),
            cold.to_json()
        );

        // A bumped salt invalidates every row (they re-simulate), and the
        // old rows survive alongside the new ones.
        let bumped = SweepConfig {
            cache_path: Some(&cache),
            salt: "other-engine",
            ..SweepConfig::default()
        };
        let (_, stats3) = run_sweep(&cells, &bumped);
        assert_eq!(stats3.from_cache, 0, "bumped salt must invalidate");
        assert_eq!(stats3.simulated, 2);
        assert!(stats3.skipped_lines >= 2);
        let (_, stats4) = run_sweep(&cells, &cfg);
        assert_eq!(stats4.from_cache, 2, "original salt rows still valid");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn microbench_and_csr_cells_partition_the_cache() {
        // A calibration chase kernel and a CSR benchmark at *identical*
        // knobs (scale, seed, scheduler, tweak) resolve to the same config
        // fingerprint — only the bench name separates their cache keys. A
        // collision would silently serve one workload's numbers for the
        // other, so pin the partitioning end to end through the shard store.
        let _guard = crate::runner::test_opts_lock();
        set_run_opts(RunOpts::default());
        let opts = RunOpts::default();
        let dir = std::env::temp_dir().join(format!("ldsim-partition-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = dir.join("cellcache");
        let mb = Cell::new("mb_serial", Scale::Tiny, 7, SchedulerKind::Gmc);
        let csr = Cell::new("bfs", Scale::Tiny, 7, SchedulerKind::Gmc);
        assert_eq!(
            config_fingerprint(&mb.config(opts)),
            config_fingerprint(&csr.config(opts)),
            "identical knobs must resolve to one config fingerprint"
        );
        assert_ne!(mb.key(opts), csr.key(opts), "bench name must split the key");

        let cells = vec![mb, csr];
        let cfg = SweepConfig {
            cache_path: Some(&cache),
            ..SweepConfig::default()
        };
        let (store, stats) = run_sweep(&cells, &cfg);
        assert_eq!(stats.simulated, 2, "both cells must simulate cold");
        let lines = cache_rows(&cache);
        assert_eq!(lines.len(), 2, "one cache row per cell");
        for (c, name) in [(&mb, "mb_serial"), (&csr, "bfs")] {
            let key = format!("\"cellkey\":\"{:016x}\"", c.key(opts));
            let row = lines
                .iter()
                .find(|l| l.contains(&key))
                .unwrap_or_else(|| panic!("no cache row keyed for {name}"));
            assert!(
                row.contains(&format!("\"benchmark\":\"{name}\"")),
                "row keyed for {name} must carry that benchmark's result"
            );
        }

        // Warm reload: both rows come back from cache, each under its own
        // benchmark — no cross-serving.
        let (store2, stats2) = run_sweep(&cells, &cfg);
        assert_eq!(stats2.from_cache, 2);
        assert_eq!(stats2.simulated, 0);
        for c in [&mb, &csr] {
            assert_eq!(store2.get(c), store.get(c), "warm row must be bit-exact");
            assert_eq!(store2.get(c).benchmark, c.bench);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_resume_completes_from_partial_cache() {
        let _guard = crate::runner::test_opts_lock();
        set_run_opts(RunOpts::default());
        let dir = std::env::temp_dir().join(format!("ldsim-resume-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = dir.join("cellcache");
        let cells = vec![
            cell(SchedulerKind::Gmc),
            cell(SchedulerKind::Wg),
            cell(SchedulerKind::WgW),
        ];
        // "Crash" after one cell.
        let crashed = SweepConfig {
            cache_path: Some(&cache),
            max_simulated: Some(1),
            ..SweepConfig::default()
        };
        let (_, s1) = run_sweep(&cells, &crashed);
        assert_eq!(s1.simulated, 1);
        // A torn final line from a mid-append crash, on every shard, so
        // whichever shards the resumed cells land in start out torn.
        for path in ShardMap::open(&cache, DEFAULT_SHARDS).shard_paths() {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .unwrap();
            write!(
                f,
                "{{\"cellkey\":\"00ff\",\"engine\":\"{ENGINE_SALT}\",\"tr"
            )
            .unwrap();
        }
        // Resume: picks up the finished cell, skips the torn lines, runs
        // the remaining two.
        let cfg = SweepConfig {
            cache_path: Some(&cache),
            ..SweepConfig::default()
        };
        let (store, s2) = run_sweep(&cells, &cfg);
        assert_eq!(s2.from_cache, 1);
        assert_eq!(s2.simulated, 2);
        assert_eq!(
            s2.skipped_lines, DEFAULT_SHARDS,
            "torn lines must be skipped"
        );
        assert_eq!(store.len(), 3);
        // The rows appended after the torn tails survive: a warm rerun
        // simulates nothing.
        let (warm, s3) = run_sweep(&cells, &cfg);
        assert_eq!(s3.simulated, 0, "a row appended after a torn tail was lost");
        assert_eq!(s3.from_cache, 3);
        assert_eq!(s3.skipped_lines, DEFAULT_SHARDS);
        // A cache-free run agrees bit-exactly with the resumed one.
        let (fresh, _) = run_sweep(&cells, &SweepConfig::default());
        for c in &cells {
            assert_eq!(fresh.get(c), store.get(c), "resume must be bit-exact");
            assert_eq!(warm.get(c), store.get(c), "reload must be bit-exact");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "cell not in store")]
    fn undeclared_cell_lookup_panics() {
        let store = CellStore::new(RunOpts::default());
        store.get(&cell(SchedulerKind::Gmc));
    }

    #[test]
    fn sharded_cache_round_trips_and_skips_junk_rows() {
        // Cold run populates the shards (rows routed by key), warm run
        // simulates nothing and reloads bit-exact, and a stale-salt row
        // plus a torn row on every shard are skipped without costing a
        // cell. An existing `shards.meta` decides the layout.
        let _guard = crate::runner::test_opts_lock();
        set_run_opts(RunOpts::default());
        let dir = std::env::temp_dir().join(format!("ldsim-sharded-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = dir.join("cellcache");
        let map = ShardMap::open(&cache, 4);
        let cells = vec![
            cell(SchedulerKind::Gmc),
            cell(SchedulerKind::Wg),
            cell(SchedulerKind::WgW),
            Cell::new("spmv", Scale::Tiny, 7, SchedulerKind::Gmc),
        ];
        let cfg = SweepConfig {
            cache_path: Some(&cache),
            ..SweepConfig::default()
        };
        let (store, stats) = run_sweep(&cells, &cfg);
        assert_eq!(stats.simulated, 4);
        // Rows landed in the shard their key maps to, in the 4-shard layout.
        let mut found = 0;
        for (i, p) in map.shard_paths().iter().enumerate() {
            for line in std::fs::read_to_string(p).unwrap_or_default().lines() {
                let obj = ldsim_util::parse_object(line).unwrap();
                let key = u64::from_str_radix(obj.req_str("cellkey").unwrap(), 16).unwrap();
                assert_eq!(map.shard_of(key), i, "row in the wrong shard");
                found += 1;
            }
        }
        assert_eq!(found, 4, "one row per simulated cell across the shards");

        // Pollute every shard with a stale-salt row and a torn row: the
        // warm reload skips all eight and stays byte-exact.
        for (i, p) in map.shard_paths().iter().enumerate() {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(p)
                .unwrap();
            writeln!(
                f,
                "{{\"cellkey\":\"{i:016x}\",\"engine\":\"ldsim-engine-0000-00-00\",\"x\":1}}"
            )
            .unwrap();
            write!(f, "{{\"cellkey\":\"dead").unwrap();
        }
        let (warm, wstats) = run_sweep(&cells, &cfg);
        assert_eq!(wstats.simulated, 0, "junk rows must not cost a cell");
        assert_eq!(wstats.from_cache, 4);
        assert_eq!(wstats.skipped_lines, 8);
        for c in &cells {
            assert_eq!(
                warm.get(c).to_json(),
                store.get(c).to_json(),
                "warm reload must be byte-exact"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_cache_line_survives_seeded_byte_fuzzing() {
        // The one parser of on-disk store bytes. Over rows `cache_row`
        // writes for real Tiny cells: a valid row round-trips byte for
        // byte, every torn prefix is refused, and random byte flips,
        // inserts, deletes and truncations never panic.
        let _guard = crate::runner::test_opts_lock();
        set_run_opts(RunOpts::default());
        let opts = RunOpts::default();
        let cells = vec![
            cell(SchedulerKind::Gmc),
            Cell::new("spmv", Scale::Tiny, 3, SchedulerKind::WgW),
            cell(SchedulerKind::Gmc).with_tweak(CfgTweak::PerfectCoalescing),
        ];
        let requested: FnvHashMap<u64, Cell> = cells.iter().map(|&c| (c.key(opts), c)).collect();
        let (store, _) = run_sweep(&cells, &SweepConfig::default());
        let mut rng = ldsim_util::StdRng::seed_from_u64(0x5eed_cafe);
        for c in &cells {
            let row = cache_row(c, opts, ENGINE_SALT, store.get(c));
            let line = row.trim_end();
            let (back, result) = parse_cache_line(line, ENGINE_SALT, &requested, opts)
                .expect("a valid row must parse");
            assert_eq!(back, *c);
            assert_eq!(cache_row(&back, opts, ENGINE_SALT, &result), row);
            for end in 0..line.len() {
                assert!(
                    parse_cache_line(&line[..end], ENGINE_SALT, &requested, opts).is_none(),
                    "a torn {end}-byte prefix parsed"
                );
            }
            for _ in 0..7_000 {
                let mut bytes = line.as_bytes().to_vec();
                for _ in 0..rng.gen_range(1..4usize) {
                    if bytes.is_empty() {
                        break;
                    }
                    let at = rng.gen_range(0..bytes.len());
                    match rng.gen_range(0..4u32) {
                        0 => bytes[at] ^= 1 << rng.gen_range(0..8u32),
                        1 => bytes.insert(at, rng.next_u64() as u8),
                        2 => drop(bytes.remove(at)),
                        _ => bytes.truncate(at),
                    }
                }
                let mutated = String::from_utf8_lossy(&bytes);
                let _ = parse_cache_line(&mutated, ENGINE_SALT, &requested, opts);
            }
        }
    }
}
