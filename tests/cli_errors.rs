//! CLI error-path contract for `ldsim-cli`: bad input must produce a named
//! `error:` line, the usage line and exit status 2, never a panic (101).

use std::process::Command;

/// Run `ldsim-cli` and check the error contract: exit 2, a first stderr
/// line `error: ...` naming `names`, a usage line, no backtrace. Returns
/// stdout, for checks that nothing ran.
fn assert_cli_error(args: &[&str], names: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ldsim-cli"))
        .args(args)
        .output()
        .expect("cannot spawn ldsim-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}\nstderr: {stderr}");
    let first = stderr.lines().next().unwrap_or("");
    assert!(
        first.starts_with("error: ") && first.contains(names),
        "{args:?}: first stderr line must name '{names}', got: {first}"
    );
    assert!(stderr.contains("usage:"), "{args:?}\nstderr: {stderr}");
    assert!(
        !stderr.contains("panicked at"),
        "{args:?}\nstderr: {stderr}"
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn ldsim_cli_rejects_bad_arguments_with_named_errors() {
    assert_cli_error(&["--bench", "nope"], "nope");
    assert_cli_error(&["--bench", "bfs", "--scheduler", "wgx"], "--scheduler");
    assert_cli_error(&["--bench", "bfs", "--seed", "eleven"], "--seed");
    assert_cli_error(&["--bench", "bfs", "--threads", "0"], "--threads");
    assert_cli_error(&["--bench", "bfs", "--colde"], "--colde");
    assert_cli_error(&["--bench"], "--bench");
}

/// The trace CSV is created before the simulation, so a path in a missing
/// directory fails at once: nothing simulated, no result table printed.
#[test]
fn ldsim_cli_trace_path_fails_before_simulating() {
    let dir = std::env::temp_dir().join(format!("ldsim-no-such-dir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("trace.csv");
    let path = path.to_str().unwrap();
    let args = ["--bench", "bfs", "--scale", "tiny", "--trace", path];
    let stdout = assert_cli_error(&args, "--trace");
    assert!(stdout.is_empty(), "ran the simulation first:\n{stdout}");
}
