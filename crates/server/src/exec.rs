//! The farm's execution core: job table, worker pool, cross-client dedupe,
//! and the sharded disk store — everything behind the wire layer.
//!
//! ## Dedupe order
//!
//! A submitted cell is resolved against, in order: results already in
//! memory (`cached`), cells another job is currently queueing or running
//! (`shared` — the submitter simply waits on the same completion), and the
//! sharded disk store (validated through the exact same
//! [`parse_cache_line`] check the sweep orchestrator trusts). Only cells
//! that survive all three go to the submitter's queue. Two clients asking
//! for overlapping grids therefore cost one simulation per unique cell,
//! which is the entire point of running a farm.
//!
//! ## Fairness & backpressure
//!
//! Each client name owns a bounded FIFO queue; workers drain the queues
//! round-robin, so a client submitting the Full grid cannot starve one
//! asking for a single figure. Two hard caps reject work *atomically* at
//! submit time (nothing is enqueued on rejection): a global in-flight cell
//! cap ([`Rejection::OverCapacity`]) and a per-client queue bound
//! ([`Rejection::ClientQueueFull`]) — the wire layer maps both to named
//! `429` replies.

use ldsim_bench::figures::select;
use ldsim_system::sweep::{cache_row, parse_cache_line, unique_cells, FigureSpec};
use ldsim_system::{
    run_one_kernel, Cell, CellStore, CompactStats, RunOpts, RunResult, ShardMap, ENGINE_SALT,
    ENGINE_SALT_HISTORY,
};
use ldsim_types::kernel::KernelProgram;
use ldsim_util::{FnvHashMap, FnvHashSet};
use ldsim_workloads::Scale;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// How an [`Exec`] runs: where the shard store lives and the pool bounds.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Shard-directory root of the cell store.
    pub cache_dir: PathBuf,
    /// Shard count for a fresh store (an existing `shards.meta` wins).
    pub shards: usize,
    /// Worker threads simulating cells.
    pub workers: usize,
    /// Hard cap on cells queued-or-running across all clients.
    pub max_inflight: usize,
    /// Bound on any one client's queue.
    pub queue_cap: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self {
            cache_dir: PathBuf::from("results/cellcache"),
            shards: ldsim_system::DEFAULT_SHARDS,
            workers: ldsim_util::jobs(),
            max_inflight: 4096,
            queue_cap: 1024,
        }
    }
}

/// One job submission, already parsed off the wire.
#[derive(Debug, Clone)]
pub struct JobRequest {
    pub client: String,
    pub scale: Scale,
    pub seed: u64,
    /// `None` = the full registry (every figure).
    pub figures: Option<Vec<String>>,
}

/// What [`Exec::submit`] accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitReply {
    pub job: u64,
    /// Cells declared across the job's figures (with duplicates).
    pub declared: usize,
    /// Unique cells after dedupe within the job.
    pub unique: usize,
    /// Unique cells already resolved (memory or validated disk row).
    pub cached: usize,
    /// Unique cells another client already has in flight.
    pub shared: usize,
    /// Unique cells newly enqueued for this job.
    pub queued: usize,
}

/// Why a submission was refused. Nothing is enqueued on rejection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// A requested figure name is not in the registry → `400`.
    UnknownFigure(String),
    /// Accepting the job would exceed the global in-flight cap → `429`.
    OverCapacity {
        inflight: usize,
        adding: usize,
        cap: usize,
    },
    /// The client's own queue cannot hold the job → `429`.
    ClientQueueFull {
        client: String,
        queued: usize,
        adding: usize,
        cap: usize,
    },
}

impl Rejection {
    /// The wire-protocol error name (DESIGN.md §19).
    pub fn name(&self) -> &'static str {
        match self {
            Rejection::UnknownFigure(_) => "unknown_figure",
            Rejection::OverCapacity { .. } => "over_capacity",
            Rejection::ClientQueueFull { .. } => "client_queue_full",
        }
    }

    pub fn detail(&self) -> String {
        match self {
            Rejection::UnknownFigure(name) => format!("no figure named '{name}' in the registry"),
            Rejection::OverCapacity {
                inflight,
                adding,
                cap,
            } => format!(
                "{inflight} cell(s) in flight + {adding} new would exceed the \
                 max-inflight cap of {cap} — retry when the farm drains"
            ),
            Rejection::ClientQueueFull {
                client,
                queued,
                adding,
                cap,
            } => format!(
                "client '{client}' has {queued} cell(s) queued + {adding} new \
                 would exceed the per-client queue cap of {cap}"
            ),
        }
    }
}

/// A job's point-in-time progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// `"running"`, `"done"`, or `"failed"`.
    pub state: &'static str,
    /// Unique cells the job needs.
    pub total: usize,
    /// Of those, how many are resolved (succeeded or failed).
    pub done: usize,
    /// First failure message, if any cell failed.
    pub error: Option<String>,
}

/// One figure's rendered output, for streaming.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FigureOutput {
    /// The figure wrote `<file>` — `content` is its exact bytes.
    File { file: String, content: String },
    /// The figure renders tables to stdout only (fig05, the tables…).
    NoFile,
    /// A cell the figure needs failed, or the render itself panicked.
    Failed { error: String },
}

struct ClientQueue {
    name: String,
    q: VecDeque<Cell>,
}

struct Job {
    specs: Arc<Vec<FigureSpec>>,
    /// Unique cell keys the job resolves against (status accounting).
    keys: Vec<u64>,
}

#[derive(Default)]
struct State {
    queues: Vec<ClientQueue>,
    /// Round-robin cursor over `queues`.
    rr: usize,
    /// Keys queued or running (dedupe + the in-flight cap).
    pending: FnvHashSet<u64>,
    results: FnvHashMap<u64, RunResult>,
    failed: FnvHashMap<u64, String>,
    jobs: FnvHashMap<u64, Job>,
    next_job: u64,
    shutdown: bool,
}

impl State {
    fn queue_index(&mut self, client: &str) -> usize {
        match self.queues.iter().position(|q| q.name == client) {
            Some(i) => i,
            None => {
                self.queues.push(ClientQueue {
                    name: client.to_string(),
                    q: VecDeque::new(),
                });
                self.queues.len() - 1
            }
        }
    }

    /// Pop the next cell, visiting client queues round-robin so no client
    /// starves another.
    fn next_cell(&mut self) -> Option<Cell> {
        let n = self.queues.len();
        for off in 0..n {
            let i = (self.rr + off) % n;
            if let Some(cell) = self.queues[i].q.pop_front() {
                self.rr = (i + 1) % n;
                return Some(cell);
            }
        }
        None
    }
}

/// The disk half: the shard map plus an in-memory index of every
/// current-salt raw row (key → line), consulted by the submit-time dedupe.
struct DiskStore {
    map: ShardMap,
    rows: FnvHashMap<u64, String>,
}

/// Kernel identity: (benchmark, scale, seed). Generation is
/// deterministic, so one shared program serves every cell that matches.
type KernelKey = (&'static str, Scale, u64);

/// The farm core. Create with [`Exec::start`]; share via `Arc`.
pub struct Exec {
    cfg: ExecConfig,
    state: Mutex<State>,
    /// Signalled when cells are enqueued (workers wait here).
    work: Condvar,
    /// Signalled when a cell resolves (streamers wait here).
    done: Condvar,
    /// Lock order: `state` before `store`, never the reverse.
    store: Mutex<DiskStore>,
    /// Generated kernels, shared read-only across workers.
    kernels: Mutex<FnvHashMap<KernelKey, Arc<KernelProgram>>>,
    render_seq: AtomicU64,
}

/// Index every current-salt row on disk (last append wins, matching the
/// compactor's newest-row policy). Rows are *not* trusted yet — full
/// validation happens per-cell at submit via [`parse_cache_line`].
fn load_rows(map: &ShardMap) -> FnvHashMap<u64, String> {
    let mut rows = FnvHashMap::default();
    for path in map.shard_paths() {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => panic!("cannot read shard {}: {e}", path.display()),
        };
        for line in text.lines() {
            let Ok(obj) = ldsim_util::parse_object(line) else {
                continue;
            };
            let (Ok(key_hex), Ok(salt)) = (obj.req_str("cellkey"), obj.req_str("engine")) else {
                continue;
            };
            if salt != ENGINE_SALT {
                continue;
            }
            if let Ok(key) = u64::from_str_radix(key_hex, 16) {
                rows.insert(key, line.to_string());
            }
        }
    }
    rows
}

fn panic_msg(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".into())
}

impl Exec {
    /// Open the shard store, index its rows, and spawn the worker pool.
    pub fn start(cfg: ExecConfig) -> Arc<Exec> {
        assert!(cfg.workers > 0, "worker pool cannot be empty");
        assert!(cfg.max_inflight > 0 && cfg.queue_cap > 0);
        let map = ShardMap::open(&cfg.cache_dir, cfg.shards);
        let rows = load_rows(&map);
        let exec = Arc::new(Exec {
            cfg,
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            done: Condvar::new(),
            store: Mutex::new(DiskStore { map, rows }),
            kernels: Mutex::new(FnvHashMap::default()),
            render_seq: AtomicU64::new(0),
        });
        for _ in 0..exec.cfg.workers {
            let e = exec.clone();
            std::thread::spawn(move || worker_loop(e));
        }
        exec
    }

    pub fn config(&self) -> &ExecConfig {
        &self.cfg
    }

    /// Rows indexed from the current-salt disk store (startup + appends).
    pub fn indexed_rows(&self) -> usize {
        self.store.lock().unwrap().rows.len()
    }

    /// Accept or reject one job. On acceptance the job's new cells are
    /// enqueued and workers woken; on rejection *nothing* changes.
    pub fn submit(&self, req: &JobRequest) -> Result<SubmitReply, Rejection> {
        let specs = select(req.scale, req.seed, req.figures.as_deref())
            .map_err(Rejection::UnknownFigure)?;
        let opts = RunOpts::default();
        let cells: Vec<Cell> = specs.iter().flat_map(|s| s.cells.iter().copied()).collect();
        let unique = unique_cells(&cells, opts);

        let mut state = self.state.lock().unwrap();
        // Classify every unique cell. Disk hits are *collected*, not
        // committed — rejection below must leave no trace.
        let (mut cached, mut shared) = (0usize, 0usize);
        let mut disk_hits: Vec<(u64, RunResult)> = Vec::new();
        let mut to_queue: Vec<Cell> = Vec::new();
        {
            let store = self.store.lock().unwrap();
            for &(key, cell) in &unique {
                if state.results.contains_key(&key) || state.failed.contains_key(&key) {
                    cached += 1;
                } else if state.pending.contains(&key) {
                    shared += 1;
                } else if let Some((_, result)) = store.rows.get(&key).and_then(|line| {
                    let mut req_map = FnvHashMap::default();
                    req_map.insert(key, cell);
                    parse_cache_line(line, ENGINE_SALT, &req_map, opts)
                }) {
                    cached += 1;
                    disk_hits.push((key, result));
                } else {
                    to_queue.push(cell);
                }
            }
        }
        // Atomic backpressure: both caps checked before any mutation.
        if state.pending.len() + to_queue.len() > self.cfg.max_inflight {
            return Err(Rejection::OverCapacity {
                inflight: state.pending.len(),
                adding: to_queue.len(),
                cap: self.cfg.max_inflight,
            });
        }
        let qi = state.queue_index(&req.client);
        if state.queues[qi].q.len() + to_queue.len() > self.cfg.queue_cap {
            return Err(Rejection::ClientQueueFull {
                client: req.client.clone(),
                queued: state.queues[qi].q.len(),
                adding: to_queue.len(),
                cap: self.cfg.queue_cap,
            });
        }
        // Commit.
        for (key, result) in disk_hits {
            state.results.insert(key, result);
        }
        for cell in &to_queue {
            state.pending.insert(cell.key(opts));
            state.queues[qi].q.push_back(*cell);
        }
        let job = state.next_job;
        state.next_job += 1;
        let keys: Vec<u64> = unique.iter().map(|&(key, _)| key).collect();
        state.jobs.insert(
            job,
            Job {
                specs: Arc::new(specs),
                keys,
            },
        );
        drop(state);
        self.work.notify_all();
        Ok(SubmitReply {
            job,
            declared: cells.len(),
            unique: unique.len(),
            cached,
            shared,
            queued: to_queue.len(),
        })
    }

    pub fn status(&self, job: u64) -> Option<JobStatus> {
        let state = self.state.lock().unwrap();
        let j = state.jobs.get(&job)?;
        let mut done = 0usize;
        let mut error = None;
        for k in &j.keys {
            if state.results.contains_key(k) {
                done += 1;
            } else if let Some(e) = state.failed.get(k) {
                done += 1;
                if error.is_none() {
                    error = Some(e.clone());
                }
            }
        }
        let s = if error.is_some() {
            "failed"
        } else if done == j.keys.len() {
            "done"
        } else {
            "running"
        };
        Some(JobStatus {
            state: s,
            total: j.keys.len(),
            done,
            error,
        })
    }

    /// How many figures a job declares (`None` = unknown job).
    pub fn figure_count(&self, job: u64) -> Option<usize> {
        let state = self.state.lock().unwrap();
        Some(state.jobs.get(&job)?.specs.len())
    }

    /// Block until figure `idx` of `job` can render, render it into a
    /// private scratch directory, and return its name plus output bytes.
    /// `None` = unknown job or figure index.
    pub fn wait_figure(&self, job: u64, idx: usize) -> Option<(&'static str, FigureOutput)> {
        let opts = RunOpts::default();
        let (specs, cells) = {
            let state = self.state.lock().unwrap();
            let j = state.jobs.get(&job)?;
            let spec = j.specs.get(idx)?;
            (j.specs.clone(), spec.cells.clone())
        };
        let name = specs[idx].name;
        let keys: Vec<u64> = cells.iter().map(|c| c.key(opts)).collect();

        let mut store = CellStore::new(opts);
        {
            let mut state = self.state.lock().unwrap();
            loop {
                let mut waiting = false;
                let mut err = None;
                for k in &keys {
                    if let Some(e) = state.failed.get(k) {
                        err = Some(e.clone());
                        break;
                    }
                    if !state.results.contains_key(k) {
                        waiting = true;
                    }
                }
                if let Some(error) = err {
                    return Some((name, FigureOutput::Failed { error }));
                }
                if !waiting {
                    break;
                }
                state = self.done.wait(state).unwrap();
            }
            for c in &cells {
                store.insert(c, state.results[&c.key(opts)].clone());
            }
        }

        // Render into a fresh scratch dir so concurrent streams of the
        // same figure never race on one file.
        let dir = std::env::temp_dir().join(format!(
            "ldsim-server-render-{}-{}",
            std::process::id(),
            self.render_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let rendered =
            std::panic::catch_unwind(AssertUnwindSafe(|| (specs[idx].render)(&store, &dir)));
        let output = match rendered {
            Err(p) => FigureOutput::Failed {
                error: format!("render of '{name}' panicked: {}", panic_msg(p)),
            },
            Ok(()) => {
                let file = format!("{name}.jsonl");
                match std::fs::read_to_string(dir.join(&file)) {
                    Ok(content) => FigureOutput::File { file, content },
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => FigureOutput::NoFile,
                    Err(e) => panic!("cannot read rendered {file}: {e}"),
                }
            }
        };
        let _ = std::fs::remove_dir_all(&dir);
        Some((name, output))
    }

    /// Compact the shard store (newest valid row per key, stale-salt
    /// eviction) and re-index the surviving rows.
    pub fn compact(&self) -> CompactStats {
        let mut store = self.store.lock().unwrap();
        let stats = store.map.compact(ENGINE_SALT_HISTORY);
        store.rows = load_rows(&store.map);
        stats
    }

    /// Point-in-time counters for `/v1/health`.
    pub fn health(&self) -> (usize, usize, usize, usize) {
        let state = self.state.lock().unwrap();
        (
            state.pending.len(),
            state.results.len(),
            state.failed.len(),
            state.jobs.len(),
        )
    }

    /// Stop the worker pool (used by tests; the server runs forever).
    pub fn shutdown(&self) {
        self.state.lock().unwrap().shutdown = true;
        self.work.notify_all();
    }

    fn kernel(&self, cell: &Cell) -> Arc<KernelProgram> {
        let id = (cell.bench, cell.scale, cell.seed);
        if let Some(k) = self.kernels.lock().unwrap().get(&id) {
            return k.clone();
        }
        // Generated outside the lock: two workers may race to build the
        // same kernel (first insert wins), but neither blocks the pool.
        let built =
            Arc::new(ldsim_workloads::benchmark(cell.bench, cell.scale, cell.seed).generate());
        self.kernels
            .lock()
            .unwrap()
            .entry(id)
            .or_insert(built)
            .clone()
    }
}

fn worker_loop(exec: Arc<Exec>) {
    let opts = RunOpts::default();
    loop {
        let cell = {
            let mut state = exec.state.lock().unwrap();
            loop {
                if state.shutdown {
                    return;
                }
                if let Some(c) = state.next_cell() {
                    break c;
                }
                state = exec.work.wait(state).unwrap();
            }
        };
        let key = cell.key(opts);
        let kernel = exec.kernel(&cell);
        // A panicking cell (simulation integrity assert) must fail *that
        // cell*, not take the worker — the slot is reclaimed either way.
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_one_kernel(
                &kernel,
                cell.bench,
                cell.scale,
                cell.seed,
                cell.kind,
                |cfg| cell.tweak.apply(cfg),
            )
        }));
        match outcome {
            Ok(result) => {
                assert!(result.hists.is_none(), "farm cells never arm histograms");
                let row = cache_row(&cell, opts, ENGINE_SALT, &result);
                {
                    let mut store = exec.store.lock().unwrap();
                    store.map.append(key, &row);
                    store.rows.insert(key, row.trim_end().to_string());
                }
                let mut state = exec.state.lock().unwrap();
                state.pending.remove(&key);
                state.results.insert(key, result);
                drop(state);
                exec.done.notify_all();
            }
            Err(p) => {
                let msg = format!(
                    "{}/{:?} at {:?} seed {} failed: {}",
                    cell.bench,
                    cell.kind,
                    cell.scale,
                    cell.seed,
                    panic_msg(p)
                );
                let mut state = exec.state.lock().unwrap();
                state.pending.remove(&key);
                state.failed.insert(key, msg);
                drop(state);
                exec.done.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldsim_types::config::SchedulerKind;

    fn cell(bench: &'static str) -> Cell {
        Cell::new(bench, Scale::Tiny, 7, SchedulerKind::Gmc)
    }

    #[test]
    fn queues_drain_round_robin_across_clients() {
        // Fairness is a scheduling property of `State`, pinned directly:
        // with two clients holding queued work, draining must alternate —
        // a bulk submitter cannot starve a one-figure client.
        let mut state = State::default();
        let a = state.queue_index("alice");
        for _ in 0..3 {
            let c = cell("bfs");
            state.queues[a].q.push_back(c);
        }
        let b = state.queue_index("bob");
        for _ in 0..2 {
            let c = cell("spmv");
            state.queues[b].q.push_back(c);
        }
        let order: Vec<&str> = std::iter::from_fn(|| state.next_cell())
            .map(|c| c.bench)
            .collect();
        assert_eq!(order, ["bfs", "spmv", "bfs", "spmv", "bfs"]);
        assert!(state.next_cell().is_none());
    }

    #[test]
    fn rejections_carry_wire_names() {
        assert_eq!(
            Rejection::UnknownFigure("x".into()).name(),
            "unknown_figure"
        );
        let r = Rejection::OverCapacity {
            inflight: 9,
            adding: 5,
            cap: 10,
        };
        assert_eq!(r.name(), "over_capacity");
        assert!(r.detail().contains("cap of 10"));
        let r = Rejection::ClientQueueFull {
            client: "ci".into(),
            queued: 3,
            adding: 4,
            cap: 5,
        };
        assert_eq!(r.name(), "client_queue_full");
        assert!(r.detail().contains("'ci'"));
    }
}
