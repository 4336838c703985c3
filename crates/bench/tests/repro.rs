//! End-to-end tests of the one-command reproduction pipeline: cold-vs-warm
//! bit-exactness (including trace hashes round-tripping through the cell
//! cache), and crash-resume against the real `repro` binary.

use ldsim_bench::figures::registry;
use ldsim_system::sweep::{run_sweep, FigureSpec, SweepConfig, ENGINE_SALT};
use ldsim_system::RunOpts;
use ldsim_workloads::Scale;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The in-process tests flip the process-wide [`RunOpts`]; the harness
/// runs tests concurrently, so they serialise on this.
static OPTS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ldsim-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn specs_named(scale: Scale, seed: u64, names: &[&str]) -> Vec<FigureSpec> {
    registry(scale, seed)
        .into_iter()
        .filter(|s| names.contains(&s.name))
        .collect()
}

fn render_all(specs: &[FigureSpec], store: &ldsim_system::CellStore, dir: &Path) {
    for s in specs {
        (s.render)(store, dir);
    }
}

fn read(dir: &Path, file: &str) -> String {
    std::fs::read_to_string(dir.join(file))
        .unwrap_or_else(|e| panic!("missing {}: {e}", dir.join(file).display()))
}

/// Cold sweep, then a fully-warm sweep from the cache, must render
/// byte-identical figure JSONL — with event tracing armed, so the warm
/// rows' `trace_hash` values (u64s too big for f64) prove the cache
/// round-trip is exact, and that cached runs carry the same trace hashes
/// as fresh ones.
#[test]
fn cold_and_warm_renders_are_byte_identical_with_trace_hashes() {
    let _guard = OPTS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmp("repro-coldwarm");
    let cache = dir.join("cellcache");
    let (scale, seed) = (Scale::Tiny, 11);
    // fig04 includes a tweaked cell (perfect coalescing) and the
    // ZeroDivergence scheduler; fig10 is a full PAPER_SCHEDULERS grid.
    let specs = specs_named(scale, seed, &["fig02", "fig04", "fig10"]);
    assert_eq!(specs.len(), 3);
    let cells: Vec<_> = specs.iter().flat_map(|s| s.cells.iter().copied()).collect();

    ldsim_system::set_run_opts(RunOpts {
        trace: true,
        ..RunOpts::default()
    });
    let cfg = SweepConfig {
        cache_path: Some(&cache),
        ..SweepConfig::default()
    };
    let (store, stats) = run_sweep(&cells, &cfg);
    assert_eq!(stats.from_cache, 0);
    assert_eq!(stats.simulated, stats.unique);
    let cold_dir = dir.join("cold");
    render_all(&specs, &store, &cold_dir);

    let (store2, stats2) = run_sweep(&cells, &cfg);
    assert_eq!(stats2.simulated, 0, "warm run must not simulate");
    assert_eq!(stats2.from_cache, stats.unique);
    let warm_dir = dir.join("warm");
    render_all(&specs, &store2, &warm_dir);
    ldsim_system::set_run_opts(RunOpts::default());

    for f in ["fig02.jsonl", "fig04.jsonl", "fig10.jsonl"] {
        let cold = read(&cold_dir, f);
        let warm = read(&warm_dir, f);
        assert_eq!(cold, warm, "{f}: warm render differs from cold");
        assert!(
            cold.lines().all(|l| l.contains("\"trace_hash\":")),
            "{f}: rows must carry trace hashes"
        );
        assert!(
            !cold.contains("\"trace_hash\":null"),
            "{f}: tracing was armed — no null hashes"
        );
    }
}

/// The run options are part of the cell key: an unarmed sweep over the
/// same figures must not reuse trace-armed cache rows (their results
/// differ — `trace_hash` present vs absent).
#[test]
fn run_options_partition_the_cache() {
    let _guard = OPTS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmp("repro-opts");
    let cache = dir.join("cellcache");
    let specs = specs_named(Scale::Tiny, 13, &["fig02"]);
    let cells: Vec<_> = specs.iter().flat_map(|s| s.cells.iter().copied()).collect();
    let cfg = SweepConfig {
        cache_path: Some(&cache),
        ..SweepConfig::default()
    };
    ldsim_system::set_run_opts(RunOpts {
        trace: true,
        ..RunOpts::default()
    });
    let (_, armed) = run_sweep(&cells, &cfg);
    assert_eq!(armed.simulated, armed.unique);
    ldsim_system::set_run_opts(RunOpts::default());
    let (_, unarmed) = run_sweep(&cells, &cfg);
    assert_eq!(
        unarmed.from_cache, 0,
        "trace-armed rows must not satisfy an unarmed sweep"
    );
    assert_eq!(unarmed.simulated, unarmed.unique);
}

fn repro(args: &[&str], envs: &[(&str, &str)]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("failed to spawn repro")
}

/// Kill the sweep mid-run (via the LDSIM_REPRO_MAX_SIM hook), then
/// `--resume`: the second invocation must pick up the cached cells, finish
/// the rest, and write figure files byte-identical to an uninterrupted
/// cold run in a separate directory.
#[test]
fn crashed_repro_resumes_to_identical_bytes() {
    let crashed = tmp("repro-crash");
    let clean = tmp("repro-clean");
    let (c, n) = (crashed.to_str().unwrap(), clean.to_str().unwrap());
    let common = ["tiny", "--seed", "5", "--only", "fig02,fig12"];

    let out = repro(
        &[&common[..], &["--out", c]].concat(),
        &[("LDSIM_REPRO_MAX_SIM", "3")],
    );
    assert!(out.status.success(), "crashed run failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("3 simulated"), "hook ignored: {stdout}");
    assert!(
        !crashed.join("fig02.jsonl").exists(),
        "interrupted run must not render partial figures"
    );
    assert!(
        crashed.join("cellcache").join("shards.meta").exists(),
        "the binary writes the sharded store"
    );

    let out = repro(&[&common[..], &["--out", c, "--resume"]].concat(), &[]);
    assert!(out.status.success(), "resume failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("3 from cache"), "no warm start: {stdout}");

    let out = repro(&[&common[..], &["--out", n, "--cold"]].concat(), &[]);
    assert!(out.status.success(), "clean run failed: {out:?}");

    for f in ["fig02.jsonl", "fig12.jsonl"] {
        assert_eq!(
            read(&crashed, f),
            read(&clean, f),
            "{f}: resumed bytes differ from a clean cold run"
        );
    }
}

/// `--cold` must invalidate previous results (by deleting the cache) and
/// `--hist` must be rejected outright.
#[test]
fn repro_cold_deletes_cache_and_hist_is_rejected() {
    let dir = tmp("repro-flags");
    let d = dir.to_str().unwrap();
    let out = repro(&["tiny", "--only", "fig12", "--out", d], &[]);
    assert!(out.status.success(), "{out:?}");
    assert!(dir.join("cellcache").join("shards.meta").exists());
    let out = repro(&["tiny", "--only", "fig12", "--out", d, "--cold"], &[]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("cold start: removed") && stdout.contains("0 from cache"),
        "--cold did not invalidate: {stdout}"
    );
    let out = repro(&["tiny", "--hist", "--out", d], &[]);
    assert!(!out.status.success(), "--hist must be rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("histreport"), "unhelpful error: {stderr}");
}

/// The engine salt in the binary is the one this test suite was built
/// against — a cache produced under a different salt is dead weight, never
/// wrong answers. (Full invalidation semantics are unit-tested in
/// `ldsim_system::sweep`; this pins the constant's shape so the CI cache
/// key extraction — grep over sweep.rs — cannot silently diverge.)
#[test]
fn engine_salt_is_nonempty_and_stable_format() {
    assert!(!ENGINE_SALT.is_empty());
    assert!(
        ENGINE_SALT
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-'),
        "salt must stay shell- and cache-key-safe: {ENGINE_SALT:?}"
    );
}
