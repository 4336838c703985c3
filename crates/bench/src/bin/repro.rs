//! One-command full reproduction: run every figure and table of the paper
//! through the global sweep orchestrator.
//!
//! All registered figure grids (or the ones `--only` names) are deduped
//! into one unique-cell work list, simulated in a single work-stealing
//! pass, and rendered from the shared store; a figure rendered alone writes
//! the same bytes as in the whole sweep. Completed cells persist in a
//! content-addressed sharded cache (`<out>/cellcache/`), so an interrupted
//! run resumes where it died and a warm rerun re-renders everything
//! without simulating at all.
//!
//! ```text
//! repro [tiny|small|full] [--seed N] [--jobs N] [--threads N]
//!       [--only fig08,fig11] [--out DIR] [--cold] [--resume]
//!       [--audit] [--trace] [--hist]
//! ```
//!
//! `--cold` deletes the cell cache first; `--resume` is the default warm
//! behaviour, spelled out (kept as an explicit flag so crash-recovery
//! runbooks read naturally). The two contradict each other, so passing
//! both is an error. `--hist` arms the distribution histograms, and every
//! figure that writes `<figure>.jsonl` also writes its bucket arrays to
//! `<out>/<figure>.hist.jsonl`; histograms do not round-trip through the
//! cache, so an armed sweep simulates every cell and neither reads nor
//! writes the store; `--cold` and `--resume` act on the store, so either
//! with `--hist` is an error too.

use ldsim_bench::figures::{registry, select};
use ldsim_system::shard::ShardMap;
use ldsim_system::sweep::{run_sweep, SweepConfig, DEFAULT_SHARDS, ENGINE_SALT};
use ldsim_system::RunOpts;
use ldsim_util::{cli_fail, cli_parse, cli_pos, cli_value};
use ldsim_workloads::Scale;
use std::path::PathBuf;
use std::time::Instant;

const USAGE: &str = "repro [tiny|small|full] [--seed N] [--jobs N] [--threads N] \
     [--only fig08,fig11] [--out DIR] [--cold] [--resume] [--audit] [--trace] [--hist]";

fn main() {
    let mut scale = Scale::Small;
    let mut seed = 1u64;
    let mut opts = RunOpts::default();
    let mut out = PathBuf::from("results");
    let mut cold = false;
    let mut resume = false;
    let mut only: Option<Vec<String>> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                let v = cli_value(&args, i, "--seed", USAGE);
                seed = cli_parse(v, "--seed", "a number", USAGE);
                i += 1;
            }
            "--jobs" => {
                let v = cli_value(&args, i, "--jobs", USAGE);
                ldsim_util::set_jobs(Some(cli_pos(v, "--jobs", USAGE)));
                i += 1;
            }
            "--threads" => {
                let v = cli_value(&args, i, "--threads", USAGE);
                ldsim_util::set_sim_threads(Some(cli_pos(v, "--threads", USAGE)));
                i += 1;
            }
            "--out" => {
                out = PathBuf::from(cli_value(&args, i, "--out", USAGE));
                i += 1;
            }
            "--only" => {
                let v = cli_value(&args, i, "--only", USAGE);
                let names: Vec<String> = v
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if names.is_empty() {
                    cli_fail(USAGE, &format!("--only needs a figure name, got '{v}'"));
                }
                only = Some(names);
                i += 1;
            }
            "--cold" => cold = true,
            // Warm start is the default; the flag documents intent.
            "--resume" => resume = true,
            "--audit" => opts.audit = true,
            "--trace" => opts.trace = true,
            "--hist" => opts.hist = true,
            other => match Scale::parse(other) {
                Some(s) => scale = s,
                None => cli_fail(USAGE, &format!("unknown argument '{other}'")),
            },
        }
        i += 1;
    }
    let contradiction = if cold && resume {
        Some(
            "--cold and --resume contradict each other: --cold deletes the cell \
             cache, --resume asks to warm-start from it — pass one or the other"
                .to_string(),
        )
    } else if opts.hist && (cold || resume) {
        let flag = if cold { "--cold" } else { "--resume" };
        Some(format!(
            "--hist and {flag} contradict each other: --hist sweeps without the \
             cell cache, {flag} acts on it — pass one or the other"
        ))
    } else {
        None
    };
    if let Some(msg) = contradiction {
        cli_fail(USAGE, &msg);
    }
    ldsim_system::set_run_opts(opts);

    let specs = select(scale, seed, only.as_deref()).unwrap_or_else(|n| {
        let known: Vec<&str> = registry(scale, seed).iter().map(|s| s.name).collect();
        cli_fail(
            USAGE,
            &format!("--only: unknown figure '{n}' (known: {})", known.join(", ")),
        )
    });

    let cache = out.join("cellcache");
    if cold {
        match std::fs::remove_dir_all(&cache) {
            Ok(()) => println!("cold start: removed {}", cache.display()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => panic!("cannot remove {}: {e}", cache.display()),
        }
    }

    // Hidden test hook: stop after N simulated cells to exercise
    // crash-resume against the real binary (cache rows for completed cells
    // are already on disk when we stop).
    let max_simulated = std::env::var("LDSIM_REPRO_MAX_SIM")
        .ok()
        .and_then(|s| s.parse::<usize>().ok());

    let cells: Vec<_> = specs.iter().flat_map(|s| s.cells.iter().copied()).collect();
    let cfg = SweepConfig {
        cache_path: (!opts.hist).then_some(cache.as_path()),
        salt: ENGINE_SALT,
        max_simulated,
    };
    if let Some(path) = cfg.cache_path {
        if let Err(e) = ShardMap::try_open(path, DEFAULT_SHARDS) {
            cli_fail(
                USAGE,
                &format!("{e}; `repro --cold` deletes the cell cache and starts afresh"),
            );
        }
    }
    println!(
        "repro: {} figure(s) at {scale:?}, seed {seed}, {} worker(s) x {} sim thread(s), cache {}",
        specs.len(),
        ldsim_util::jobs(),
        ldsim_util::sim_threads(),
        cfg.cache_path
            .map_or("off (--hist)".into(), |p| p.display().to_string())
    );
    let t0 = Instant::now();
    let (store, stats) = run_sweep(&cells, &cfg);
    let sweep_s = t0.elapsed().as_secs_f64();
    println!(
        "sweep: {} declared -> {} unique; {} from cache, {} simulated \
         ({} stale/foreign cache line(s) skipped) in {sweep_s:.2}s",
        stats.declared, stats.unique, stats.from_cache, stats.simulated, stats.skipped_lines
    );
    if max_simulated.is_some() && stats.from_cache + stats.simulated < stats.unique {
        let next = match cfg.cache_path {
            Some(_) => "rerun to resume from the cache",
            None => "nothing was cached (--hist)",
        };
        println!(
            "LDSIM_REPRO_MAX_SIM: stopping after {} simulated cell(s); {next}",
            stats.simulated
        );
        return;
    }

    let t1 = Instant::now();
    for spec in &specs {
        println!("\n----- {} -----\n", spec.name);
        (spec.render)(&store, &out);
    }
    let render_s = t1.elapsed().as_secs_f64();
    println!(
        "\nrepro complete: sweep {sweep_s:.2}s + render {render_s:.2}s = {:.2}s total \
         ({} simulated, {} cached)",
        sweep_s + render_s,
        stats.simulated,
        stats.from_cache
    );
}
