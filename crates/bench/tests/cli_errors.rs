//! CLI error-path contract for the hand-rolled argument parsers.
//!
//! Bad input — a flag missing its value, a non-numeric number, an unknown
//! flag — must produce a *named* one-line error on stderr plus the usage
//! text and a nonzero exit, in the `repro` orchestrator, `trace`, `opsweep`
//! and the shared-harness binaries (exercised through `perfreport`, which
//! parses argv before doing any work). A raw `expect` backtrace, or a silently
//! accepted typo, fails this suite.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {bin}: {e}"))
}

/// The error contract: nonzero exit, a named `error:` line mentioning the
/// offending flag, a usage line, and no panic backtrace.
fn assert_cli_error(bin: &str, args: &[&str], names: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "{bin} {args:?}: must exit nonzero, got {:?}\nstderr: {stderr}",
        out.status
    );
    assert_eq!(
        out.status.code(),
        Some(2),
        "{bin} {args:?}: must exit via the usage path (code 2), not a panic \
         (101)\nstderr: {stderr}"
    );
    let first = stderr.lines().next().unwrap_or("");
    assert!(
        first.starts_with("error: ") && first.contains(names),
        "{bin} {args:?}: first stderr line must be a named error mentioning \
         '{names}', got: {first}"
    );
    assert!(
        stderr.contains("usage:"),
        "{bin} {args:?}: stderr must include the usage line\nstderr: {stderr}"
    );
    assert!(
        !stderr.contains("panicked at"),
        "{bin} {args:?}: raw panic leaked to the user\nstderr: {stderr}"
    );
}

#[test]
fn repro_rejects_bad_arguments_with_named_errors() {
    let bin = env!("CARGO_BIN_EXE_repro");
    // Value-less flag at the end of argv (the classic `--out` crash).
    assert_cli_error(bin, &["tiny", "--out"], "--out");
    assert_cli_error(bin, &["--seed"], "--seed");
    // Non-numeric values.
    assert_cli_error(bin, &["--seed", "eleven"], "--seed");
    assert_cli_error(bin, &["--jobs", "all"], "--jobs");
    assert_cli_error(bin, &["--jobs", "0"], "--jobs");
    assert_cli_error(bin, &["--threads", "fast"], "--threads");
    // Unknown flags must not be silently accepted.
    assert_cli_error(bin, &["--colde"], "--colde");
    // Contradictory flags and empty lists route through the same path.
    assert_cli_error(bin, &["--cold", "--resume"], "--cold");
    assert_cli_error(bin, &["--hist", "--cold"], "--hist");
    assert_cli_error(bin, &["--only", ","], "--only");
}

#[test]
fn repro_names_a_corrupt_cell_cache_meta_file() {
    let bin = env!("CARGO_BIN_EXE_repro");
    let out = std::env::temp_dir().join(format!("ldsim-badmeta-{}", std::process::id()));
    let cache = out.join("cellcache");
    std::fs::create_dir_all(&cache).unwrap();
    std::fs::write(cache.join("shards.meta"), "shards=zero\n").unwrap();
    let dir = out.to_str().unwrap();
    assert_cli_error(
        bin,
        &["tiny", "--only", "fig02", "--out", dir],
        "shards.meta",
    );
    let stderr = String::from_utf8_lossy(&run(bin, &["tiny", "--out", dir]).stderr).into_owned();
    assert!(
        stderr.contains("--cold"),
        "the error must suggest --cold: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn shared_harness_rejects_bad_arguments_with_named_errors() {
    let bin = env!("CARGO_BIN_EXE_perfreport");
    assert_cli_error(bin, &["--seed"], "--seed");
    assert_cli_error(bin, &["--seed", "eleven"], "--seed");
    assert_cli_error(bin, &["--jobs", "-2"], "--jobs");
    assert_cli_error(bin, &["--threads", "0"], "--threads");
    assert_cli_error(bin, &["--threads"], "--threads");
    assert_cli_error(bin, &["smol"], "smol");
    // `--hist` belongs to `repro`; histreport arms histograms by itself.
    assert_cli_error(bin, &["--hist"], "--hist");
}

#[test]
fn trace_rejects_bad_arguments_with_named_errors() {
    let bin = env!("CARGO_BIN_EXE_trace");
    assert_cli_error(bin, &["--seed"], "--seed");
    assert_cli_error(bin, &["--seed", "eleven"], "--seed");
    assert_cli_error(bin, &["--scheduler", "wgx"], "--scheduler");
    assert_cli_error(bin, &["--threads", "nope"], "--threads");
    assert_cli_error(bin, &["--colde"], "--colde");
    assert_cli_error(bin, &["nope", "tiny"], "nope");
}

/// Failing inputs only: a valid `opsweep` run is five Full-scale
/// simulations per scheduler.
#[test]
fn opsweep_rejects_bad_arguments_with_named_errors() {
    let bin = env!("CARGO_BIN_EXE_opsweep");
    assert_cli_error(bin, &["nope"], "nope");
    assert_cli_error(bin, &["spmv", "extra"], "extra");
}

/// Asking for more partition threads than the machine has memory
/// partitions is not an error — the run proceeds at the capped width — but
/// it must say so, once, in the same voice as the invalid
/// `LDSIM_SIM_THREADS` warning. Silently dropping 93 of 99 requested
/// threads would read as a performance bug.
#[test]
fn oversubscribed_threads_warn_once_and_still_run() {
    let bin = env!("CARGO_BIN_EXE_trace");
    // `trace` writes results/ relative to the cwd: keep the repo clean.
    let dir = std::env::temp_dir().join(format!(
        "ldsim-cli-threads-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).expect("create temp cwd");
    let out = Command::new(bin)
        .args(["bfs", "tiny", "--threads", "99"])
        .current_dir(&dir)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        out.status.success(),
        "oversubscription is a warning, not an error\nstderr: {stderr}"
    );
    assert!(
        stderr.contains("99 simulation threads requested") && stderr.contains("capping at"),
        "stderr must carry the capping warning\nstderr: {stderr}"
    );
    assert_eq!(
        stderr.matches("capping at").count(),
        1,
        "the warning must fire once per process, not per run\nstderr: {stderr}"
    );
}
